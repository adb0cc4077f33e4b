"""Directional zeta data: inverse-root multisets fitted against exact counts.

In an expansive direction n the count sequence F_j is an exponential
polynomial F_j = -sum_J lambda_J c_J^j whose base values c_J are read off
the characters: a nonarchimedean growth factor g common to all branches,
times one factor chi(-n) for every multiset subset of the archimedean
characters.  The signs (more generally small integer coefficients, since
numerically equal values merge) are pinned by fitting against the exact
F_j, the only convention-free anchor: the fitted values are the inverse
roots c appearing as (1 - c z)^{+-1} in the rational zeta function.

Values are exact rationals for s_integer and function_field descriptors
and certified complex intervals for number fields.  Interval work
escalates precision and reports honest failure instead of guessing.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import numberfield as nf
from .balls import DEFAULT_PRECISION, MAX_PRECISION, ComplexBall, RealBall, precisions
from .errors import (
    FitAmbiguityError,
    FitInconsistencyError,
    ResourceCapError,
    UndecidedError,
    UnsupportedOperationError,
)
from .exactlog import ExactLog
from .periodic import PeriodicCount, count_sequence
from .system import SystemDescriptor

# residual updates a fit search may make: each node of the search charges one
# update per count term, so a long count sequence exhausts it sooner
FIT_WORK_CAP = 1 << 20


def is_expansive_element(
    sys: SystemDescriptor, n: Sequence[int], max_prec: int = MAX_PRECISION
) -> Optional[bool]:
    """True/False/None: no character log form vanishes at n / one does / open.

    The verdict is kept on sys per (n, max_prec), so asking again is free.
    """
    if all(int(c) == 0 for c in n):
        raise ValueError("expansiveness of the identity element is undefined; n must be nonzero")
    key = (tuple(n), max_prec)
    if key not in sys._expansive:
        sys._expansive[key] = _expansive_verdict(sys, n, max_prec)
    return sys._expansive[key]


def _expansive_verdict(sys: SystemDescriptor, n: Sequence[int], max_prec: int) -> Optional[bool]:
    undecided = False
    for chi in sys.all_characters():
        verdict = chi.log_linear_form(n).is_zero(max_prec)
        if verdict is True:
            return False
        if verdict is None:
            undecided = True
    return None if undecided else True


def _exact_exp(log: ExactLog) -> Fraction:
    """exp of an ExactLog made of integer prime-log multiples, as a rational."""
    if log.root_part:
        raise ValueError("not a rational log combination")
    out = Fraction(1)
    for p, coeff in log.prime_part.items():
        if coeff.denominator != 1:
            raise ValueError("fractional prime exponent has no rational exp")
        out *= Fraction(p) ** int(coeff)
    return out


def _growth_factor(sys: SystemDescriptor, n: Sequence[int]) -> Fraction:
    """g = prod over nonarchimedean characters of max(chi*(-n), 1)^multiplicity."""
    _, nonarch = sys.characters()
    minus_n = [-int(c) for c in n]
    g = Fraction(1)
    for chi in nonarch:
        value = _exact_exp(chi.log_linear_form(minus_n))
        if value > 1:
            g *= value ** chi.multiplicity
    return g


def _arch_factors(sys: SystemDescriptor, n: Sequence[int]) -> List[tuple]:
    """(exact, part, multiplicity) of chi(-n) per archimedean character, in
    characters() order: exact is a Fraction or None, part is
    (min_poly, emb_index, element) or None."""
    minus_n = [-int(c) for c in n]
    return [
        (exact, part, mult)
        for comp, mult in sys.components
        for exact, part in comp.arch_factors(minus_n)
    ]


class _Branch:
    """One multiset subset of the archimedean characters: a candidate value.

    The branches of one inverse_roots call share one dict of embedded power
    factors, keyed by (part, precision), and each branch keeps its own ball
    per precision.  So every value is computed once per precision, by the
    same arithmetic as an uncached recompute.
    """

    __slots__ = ("exact", "parts", "multiplicity", "label", "_factors", "_balls")

    def __init__(self, exact: Fraction, parts, multiplicity: int, label, factors: dict):
        self.exact = exact
        self.parts = tuple(parts)      # ((min_poly, emb_index, element, power), ...)
        self.multiplicity = multiplicity
        self.label = label             # per-V-character copy counts
        self._factors = factors        # (part, prec) -> ComplexBall
        self._balls: Dict[int, ComplexBall] = {}

    def _factor(self, part, prec: int) -> ComplexBall:
        value = self._factors.get((part, prec))
        if value is None:
            min_poly, emb_index, element, power = part
            emb = nf.isolate_roots(min_poly, prec)[emb_index]
            value = nf.embed(element, emb, prec).pow_int(power, prec)
            self._factors[(part, prec)] = value
        return value

    def ball(self, prec: int) -> ComplexBall:
        out = self._balls.get(prec)
        if out is None:
            out = ComplexBall.from_fractions(self.exact, Fraction(0), prec)
            for part in self.parts:
                out = out.mul(self._factor(part, prec), prec)
            self._balls[prec] = out
        return out

    def negated(self) -> "_Branch":
        return _Branch(-self.exact, self.parts, self.multiplicity, self.label, self._factors)

    def label_text(self) -> str:
        inside = []
        for idx, k in enumerate(self.label):
            if k == 1:
                inside.append(str(idx))
            elif k > 1:
                inside.append(f"{idx}^{k}")
        return "{" + ",".join(inside) + "}"


def _branches(sys: SystemDescriptor, n: Sequence[int]) -> List[_Branch]:
    g = _growth_factor(sys, n)
    factors = _arch_factors(sys, n)
    embedded: dict = {}
    branches = []
    for counts in itertools.product(*(range(f_mult + 1) for _, _, f_mult in factors)):
        exact = g
        parts = []
        mult = 1
        for (f_exact, f_part, f_mult), k in zip(factors, counts):
            mult *= math.comb(f_mult, k)
            if k == 0:
                continue
            if f_exact is not None:
                exact *= f_exact ** k
            else:
                parts.append(f_part + (k,))
        branches.append(_Branch(exact, parts, mult, counts, embedded))
    return branches


def _hull(a: ComplexBall, b: ComplexBall, prec: int) -> ComplexBall:
    return ComplexBall(a.re.hull(b.re, prec), a.im.hull(b.im, prec))


class ZetaCandidate:
    """A cluster of numerically identical branch values."""

    __slots__ = ("exact", "members", "multiplicity", "coefficient", "_balls")

    def __init__(self, exact: Optional[Fraction], members: List[_Branch]):
        self.exact = exact
        self.members = members
        self.multiplicity = sum(b.multiplicity for b in members)
        self.coefficient: Optional[int] = None
        self._balls: Dict[int, ComplexBall] = {}

    @staticmethod
    def exact_rational(value, multiplicity: int = 1) -> "ZetaCandidate":
        """Hand-built exact candidate (for direct fit_exponents use)."""
        v = Fraction(value)
        return ZetaCandidate(v, [_Branch(v, (), multiplicity, (), {})])

    def is_exact(self) -> bool:
        return self.exact is not None

    def negated(self) -> "ZetaCandidate":
        out = ZetaCandidate(
            -self.exact if self.exact is not None else None,
            [b.negated() for b in self.members],
        )
        out.coefficient = self.coefficient
        return out

    def ball(self, prec: int) -> ComplexBall:
        ball = self._balls.get(prec)
        if ball is None:
            if self.exact is not None:
                ball = ComplexBall.from_fractions(self.exact, Fraction(0), prec)
            else:
                ball = self.members[0].ball(prec)
                for b in self.members[1:]:
                    ball = _hull(ball, b.ball(prec), prec)
            self._balls[prec] = ball
        return ball

    def magnitude_upper(self, prec: int) -> float:
        return self.ball(prec).abs(prec).float_bounds()[1]

    def label_text(self) -> str:
        return "|".join(b.label_text() for b in self.members)

    def value_json(self, prec: int) -> dict:
        if self.exact is not None:
            return {"type": "rational", "value": str(self.exact)}
        ball = self.ball(prec)
        re_lo, re_hi = ball.re.float_bounds()
        im_lo, im_hi = ball.im.float_bounds()
        return {"type": "interval", "re": [re_lo, re_hi], "im": [im_lo, im_hi]}


def _cluster_branches(branches: List[_Branch], prec: int) -> Optional[List[ZetaCandidate]]:
    """Group branches by overlapping value boxes; None means escalate."""
    balls = [b.ball(prec) for b in branches]
    parent = list(range(len(branches)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(branches)):
        for k in range(i + 1, len(branches)):
            if not balls[i].box_disjoint(balls[k]):
                parent[find(i)] = find(k)
    groups: Dict[int, List[int]] = {}
    for i in range(len(branches)):
        groups.setdefault(find(i), []).append(i)
    clusters = []
    for indices in sorted(groups.values(), key=lambda g: g[0]):
        members = [branches[i] for i in indices]
        if all(not b.parts for b in members):
            exacts = {b.exact for b in members}
            if len(exacts) > 1:
                return None  # distinct rationals still entangled: sharpen
            clusters.append(ZetaCandidate(exacts.pop(), members))
        else:
            clusters.append(ZetaCandidate(None, members))
    return clusters


class _Slot:
    """A fitting unknown: one cluster, or a conjugate pair sharing a coefficient."""

    __slots__ = ("primary", "partner", "bound")

    def __init__(self, primary: ZetaCandidate, partner: Optional[ZetaCandidate]):
        self.primary = primary
        self.partner = partner
        self.bound = primary.multiplicity

    def is_exact(self) -> bool:
        return self.primary.is_exact() and self.partner is None


def _link_conjugates(clusters: List[ZetaCandidate], prec: int) -> Optional[List[_Slot]]:
    """Pair clusters with their complex conjugates; None means escalate."""
    balls = [c.ball(prec) for c in clusters]
    partner: List[Optional[int]] = [None] * len(clusters)
    for i, c in enumerate(clusters):
        if c.is_exact():
            partner[i] = i
            continue
        conj = balls[i].conj()
        hits = [k for k, b in enumerate(balls) if not conj.box_disjoint(b)]
        if len(hits) != 1:
            return None
        partner[i] = hits[0]
    for i, p in enumerate(partner):
        if partner[p] != i:
            return None
    slots = []
    for i, p in enumerate(partner):
        if p == i:
            slots.append(_Slot(clusters[i], None))
        elif i < p:
            if clusters[i].multiplicity != clusters[p].multiplicity:
                return None
            slots.append(_Slot(clusters[i], clusters[p]))
    return slots


def _count_values(F: Sequence) -> List[int]:
    values = []
    for entry in F:
        if isinstance(entry, PeriodicCount):
            if not entry.is_finite:
                raise FitInconsistencyError(
                    "count sequence contains an infinite entry; no rational zeta factorization exists"
                )
            values.append(entry.value)
        else:
            values.append(int(entry))
    return values


def _abs_lower(residual, prec: int) -> float:
    """Certified lower bound for |residual| (Fraction or ComplexBall)."""
    if isinstance(residual, Fraction):
        return abs(residual).__float__() if abs(residual) < Fraction(10) ** 300 else float("inf")
    return residual.abs(prec).float_bounds()[0]


def _fit_once(
    slots: List[_Slot], F: List[int], mu: int, prec: int, work_budget: List[int]
) -> List[Tuple[int, ...]]:
    """Coefficient assignments fitting F_j = -sum a c^j (at most two returned)."""
    J = len(F)
    order = sorted(
        range(len(slots)),
        key=lambda i: (-slots[i].primary.magnitude_upper(prec), i),
    )

    # per depth: contribution of a unit coefficient at each j, and its magnitude bound
    unit: List[List[object]] = []
    mags: List[List[float]] = []
    for i in order:
        slot = slots[i]
        row: List[object] = []
        mrow: List[float] = []
        if slot.is_exact():
            c = slot.primary.exact * mu
            v = Fraction(1)
            for j in range(1, J + 1):
                v *= c
                row.append(v)
                mrow.append(abs(v).__float__() if abs(v) < Fraction(10) ** 300 else float("inf"))
        else:
            cball = slot.primary.ball(prec)
            if mu < 0:
                cball = cball.neg()
            power = cball
            for j in range(1, J + 1):
                if j > 1:
                    power = power.mul(cball, prec)
                term = power
                if slot.partner is not None:
                    term = power.add(power.conj(), prec)
                row.append(term)
                mrow.append(term.abs(prec).float_bounds()[1])
        unit.append(row)
        mags.append(mrow)

    # total remaining weight below each depth, per j
    rem = [[0.0] * J for _ in range(len(order) + 1)]
    for depth in range(len(order) - 1, -1, -1):
        b = slots[order[depth]].bound
        for j in range(J):
            rem[depth][j] = rem[depth + 1][j] + b * mags[depth][j]

    solutions: List[Tuple[int, ...]] = []
    assignment = [0] * len(order)

    def descend(depth, residuals):
        work_budget[0] -= J
        if work_budget[0] < 0:
            raise ResourceCapError(f"coefficient search exceeded {FIT_WORK_CAP} residual updates")
        if len(solutions) >= 2:
            return
        if depth == len(order):
            for r in residuals:
                if isinstance(r, Fraction):
                    if r != 0:
                        return
                elif not r.contains_zero():
                    return
            solutions.append(tuple(assignment))
            return
        for j in range(J):
            if _abs_lower(residuals[j], prec) > rem[depth][j] * (1 + 1e-12) + 1e-300:
                return
        slot = slots[order[depth]]
        bound = slot.bound
        for a in range(-bound, bound + 1):
            if (a - bound) % 2 != 0:
                continue
            assignment[depth] = a
            if a == 0:
                descend(depth + 1, residuals)
            else:
                new_res = []
                for j in range(J):
                    contrib = unit[depth][j]
                    r = residuals[j]
                    if isinstance(contrib, Fraction):
                        if isinstance(r, Fraction):
                            new_res.append(r + a * contrib)
                        else:
                            new_res.append(
                                r.add(ComplexBall.from_fractions(a * contrib, Fraction(0), prec), prec)
                            )
                    else:
                        scaled = contrib.mul_real(RealBall.from_int(a), prec)
                        if isinstance(r, Fraction):
                            base = ComplexBall.from_fractions(r, Fraction(0), prec)
                            new_res.append(base.add(scaled, prec))
                        else:
                            new_res.append(r.add(scaled, prec))
                descend(depth + 1, new_res)
            assignment[depth] = 0

    descend(0, [Fraction(fj) for fj in F])
    return [tuple(sol[order.index(i)] for i in range(len(slots))) for sol in solutions]


def fit_exponents(
    candidates: List[ZetaCandidate],
    F: Sequence,
    precision: int = DEFAULT_PRECISION,
) -> Tuple[List[int], int]:
    """Integer coefficients and mu with F_j = -sum_c a_c (mu c)^j.

    Coefficient a_c ranges over [-m_c, m_c] with the parity of m_c (each of
    the m_c coinciding branches contributes +-1).  Exactly one assignment
    must fit all provided j: none is an inconsistency, several ask for a
    longer count sequence.  mu = +1 is tried first and -1 only as a
    fallback, so a factorization symmetric under global negation reports
    mu = +1 canonically.
    """
    values = _count_values(F)
    slots = _link_conjugates(candidates, precision)
    if slots is None:
        raise UndecidedError("conjugate pairing of zeta candidates")
    if len(values) < len(slots) + 2:
        raise ValueError(
            f"need at least {len(slots) + 2} count terms for {len(slots)} candidate values"
        )
    budget = [FIT_WORK_CAP]
    for mu in (1, -1):
        solutions = _fit_once(slots, values, mu, precision, budget)
        if len(solutions) == 1:
            return _slot_to_candidate_coeffs(candidates, slots, solutions[0]), mu
        if len(solutions) >= 2:
            raise FitAmbiguityError(len(values) + 2)
    raise FitInconsistencyError(
        "no sign assignment reproduces the count sequence; candidate values do not fit"
    )


def _slot_to_candidate_coeffs(
    candidates: List[ZetaCandidate], slots: List[_Slot], solution: Tuple[int, ...]
) -> List[int]:
    coeff_by_id: Dict[int, int] = {}
    for slot, a in zip(slots, solution):
        coeff_by_id[id(slot.primary)] = a
        if slot.partner is not None:
            coeff_by_id[id(slot.partner)] = a
    return [coeff_by_id[id(c)] for c in candidates]


class ZetaFactorization:
    """zeta_n(z) = prod (1 - c z)^{-a_c} shape data, inverse-root convention.

    factors lists the candidates with nonzero fitted coefficient; candidates
    keeps the full branch multiset including merged and cancelled values.
    The stored identity is F_j = -sum a_c c^j (values already mu-scaled).
    """

    convention = "inverse-root"

    def __init__(
        self,
        n: Sequence[int],
        mu: int,
        candidates: List[ZetaCandidate],
        verified_to: int,
        precision: int,
    ):
        self.n = tuple(int(c) for c in n)
        self.mu = mu
        self.candidates = candidates
        self.verified_to = verified_to
        self.precision = precision

    @property
    def factors(self) -> List[ZetaCandidate]:
        return [c for c in self.candidates if c.coefficient]

    def exact_values(self) -> Optional[List[Fraction]]:
        """The branch value multiset when fully rational, else None."""
        if any(c.exact is None for c in self.candidates):
            return None
        out = []
        for c in self.candidates:
            out.extend([c.exact] * c.multiplicity)
        return sorted(out)

    def to_json(self) -> dict:
        return {
            "n": list(self.n),
            "convention": self.convention,
            "mu": self.mu,
            "factors": [
                {
                    "c": c.value_json(self.precision),
                    "lambda": c.coefficient,
                    "subset": c.label_text(),
                    "multiplicity": c.multiplicity,
                }
                for c in self.factors
            ],
            "branches": [
                {
                    "c": c.value_json(self.precision),
                    "subset": c.label_text(),
                    "multiplicity": c.multiplicity,
                }
                for c in self.candidates
            ],
            "verified_to": self.verified_to,
        }


def inverse_roots(
    sys: SystemDescriptor,
    n: Sequence[int],
    precision: int = DEFAULT_PRECISION,
    force: bool = False,
    j_check: Optional[int] = None,
    max_prec: int = MAX_PRECISION,
) -> ZetaFactorization:
    """Fit the inverse-root multiset of zeta_n against exact counts.

    Candidate separation walks precisions(precision, max_prec).
    Outside the expansive regime rationality is not guaranteed; force=True
    attempts the fit anyway and raises an inconsistency if none exists.
    """
    expansive = is_expansive_element(sys, n, max_prec)
    if expansive is None:
        raise UndecidedError(f"expansiveness of alpha^{tuple(n)}")
    if expansive is False and not force:
        raise UnsupportedOperationError(
            "direction is not expansive, so a rational zeta function is not guaranteed; "
            "pass force to attempt the fit anyway"
        )
    branches = _branches(sys, n)
    for prec in precisions(precision, max_prec):
        clusters = _cluster_branches(branches, prec)
        if clusters is not None:
            all_exact = all(c.is_exact() for c in clusters)
            J = j_check if j_check is not None else max(len(clusters) + 2, 6)
            F = count_sequence(sys, n, J)
            try:
                coeffs, mu = fit_exponents(clusters, F, prec)
            except UndecidedError:
                coeffs = None
            except (FitInconsistencyError, FitAmbiguityError):
                # exact values cannot sharpen; interval clusters may split
                if all_exact:
                    raise
                coeffs = None
            if coeffs is not None:
                for c, a in zip(clusters, coeffs):
                    c.coefficient = a
                if mu < 0:
                    clusters = [c.negated() for c in clusters]
                zf = ZetaFactorization(n, mu, clusters, len(F), prec)
                report = verify_generating_identity(zf, F, len(F))
                if not report["ok"]:
                    raise FitInconsistencyError(
                        f"fitted factorization fails re-verification at j={report['failures']}"
                    )
                return zf
    raise UndecidedError("separating zeta candidate values at the precision cap")


def verify_generating_identity(
    zf: ZetaFactorization, F: Sequence, j_check: Optional[int] = None
) -> dict:
    """Check F_j = -sum a_c c^j for j = 1..j_check; exact paths deviate by 0."""
    values = _count_values(F)
    J = min(j_check if j_check is not None else len(values), len(values))
    prec = zf.precision
    fitted = [c for c in zf.candidates if c.coefficient]
    bases = [c.exact if c.exact is not None else c.ball(prec) for c in fitted]
    powers = list(bases)  # c^j, advanced by one multiplication per period
    failures = []
    max_deviation = 0.0
    for j in range(1, J + 1):
        if j > 1:
            powers = [
                p * b if isinstance(b, Fraction) else p.mul(b, prec)
                for p, b in zip(powers, bases)
            ]
        target = Fraction(values[j - 1])
        exact_sum = Fraction(0)
        ball_sum: Optional[ComplexBall] = None
        for c, power in zip(fitted, powers):
            if c.exact is not None:
                exact_sum += c.coefficient * power
            else:
                term = power.mul_real(RealBall.from_int(c.coefficient), prec)
                ball_sum = term if ball_sum is None else ball_sum.add(term, prec)
        if ball_sum is None:
            deviation = abs((target + exact_sum).__float__())
            if target + exact_sum != 0:
                failures.append(j)
        else:
            total = ball_sum.add(
                ComplexBall.from_fractions(target + exact_sum, Fraction(0), prec), prec
            )
            deviation = abs(total.mid_complex())
            if not total.contains_zero():
                failures.append(j)
        max_deviation = max(max_deviation, deviation)
    return {"ok": not failures, "max_deviation": max_deviation, "failures": failures}
