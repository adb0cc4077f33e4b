"""Directional zeta data: inverse-root multisets fitted against exact counts.

In an expansive direction n the count sequence F_j is an exponential
polynomial F_j = -sum_J lambda_J c_J^j whose base values c_J are read off
the characters: a nonarchimedean growth factor g common to all branches,
times one factor chi(-n) for every multiset subset of the archimedean
characters; subsets with one value, keyed by its exponents of -1 (mod 2)
and of each prime and by its embedded parts, are one object.  The signs
(more generally small integer coefficients, since numerically equal
values merge) are solved from the exact F_j, the only convention-free
anchor: the K values are distinct, so F_1..F_K fix the coefficients
through a Vandermonde system and the later F_j check them.  The fitted
values are the inverse roots c appearing as (1 - c z)^{+-1} in the
rational zeta function.

The fit and its re-verification return only integers and yes/no, so their
O(K^2) and J x K loops run on fixed-point Gaussian boxes: Python ints with
an integer error bound, a few int products and shifts per complex product
where a ComplexBall product takes a dozen mpmath calls for rounded
midpoints and upward-rounded radii.  Only the K final divisions of the fit
go through ComplexBall.

Values are exact rationals for s_integer and function_field descriptors
and certified complex intervals for number fields.  Interval work
escalates precision and reports honest failure instead of guessing.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import defaults
from ._libmp import from_man_exp, mpf_neg, mpf_sub
from .balls import (
    DEFAULT_PRECISION,
    HARD_PRECISION,
    MAX_PRECISION,
    ComplexBall,
    RealBall,
    ball_to_fraction_bounds,
    precisions,
)
from .errors import FitInconsistencyError, UndecidedError, UnsupportedOperationError
from .periodic import PeriodicCount, check_sequence_budget, count_sequence
from .system import SystemDescriptor


def is_expansive_element(
    sys: SystemDescriptor, n: Sequence[int], max_prec: int = MAX_PRECISION
) -> Optional[bool]:
    """True/False/None: no character log form vanishes at n / one does / open."""
    if all(int(c) == 0 for c in n):
        raise ValueError("expansiveness of the identity element is undefined; n must be nonzero")
    undecided = False
    for chi in sys.all_characters():
        verdict = chi.log_linear_form(n).is_zero(max_prec)
        if verdict is True:
            return False
        if verdict is None:
            undecided = True
    return None if undecided else True


def _growth_factor(sys: SystemDescriptor, n: Sequence[int]) -> Fraction:
    """g = prod over nonarchimedean characters of max(chi*(-n), 1)^multiplicity,
    each chi*(-n) a product of integer prime powers."""
    _, nonarch = sys.characters()
    minus_n = [-int(c) for c in n]
    g = Fraction(1)
    for chi in nonarch:
        log = chi.log_linear_form(minus_n)
        if log.root_part or any(c.denominator != 1 for c in log.prime_part.values()):
            raise ValueError("not a rational log combination of integer prime powers")
        value = math.prod(Fraction(p) ** int(c) for p, c in log.prime_part.items())
        if value > 1:
            g *= value ** chi.multiplicity
    return g


def _arch_factors(sys: SystemDescriptor, n: Sequence[int]) -> List[tuple]:
    """(exponents, part, multiplicity) of chi(-n) per archimedean character,
    in characters() order: exponents (of -1 and of each prime) where chi(-n)
    is exact, else None; part (min_poly, emb_index, element) where it is
    embedded, else None."""
    minus_n = [-int(c) for c in n]
    return [
        (exps, part, mult)
        for comp, mult in sys.components
        for exps, part in comp.arch_factors(minus_n)
    ]


def _exponent_steps(factors: List[tuple]) -> Tuple[List[int], List[Optional[Tuple[int, ...]]]]:
    """The primes (and -1) the exact factors of an _arch_factors list name,
    and per factor its exponent of each, None where it is embedded.  The
    exact part of g prod_f f^k_f is fixed by sum_f k_f step_f, reduced
    (_reduced), by unique factorization: no power or big integer is formed."""
    primes = sorted({p for exps, _, _ in factors if exps is not None for p in exps})
    return primes, [None if exps is None else tuple(exps.get(p, 0) for p in primes) for exps, _, _ in factors]


def _reduced(primes: List[int], exps: Sequence[int]) -> Tuple[int, ...]:
    """Exponents over _exponent_steps' primes, that of -1 taken mod 2."""
    return tuple(x % 2 if p == -1 else x for p, x in zip(primes, exps))


class _Value:
    """One distinct branch value g prod_f f^k_f: its exact part, its
    embedded parts ((factor index, power), ...), the multiplicity summed
    over the multiset subsets (k_f) that give it, and those subsets in
    branch order.

    The values of one inverse_roots call share the embedded factors' parts
    and one dict of their embedded powers, keyed by (factor index, power,
    precision), and each value keeps its own ball per precision, so it is
    computed once per precision, by the same arithmetic as an uncached
    recompute.
    """

    __slots__ = ("exact", "parts", "multiplicity", "subsets", "_embedded", "_balls")

    def __init__(self, exact: Fraction, parts: tuple, embedded: tuple):
        self.exact = exact
        self.parts = parts
        self.multiplicity = 0
        self.subsets: List[Tuple[int, ...]] = []
        self._embedded = embedded      # (parts by factor index, {(index, power, prec): ComplexBall})
        self._balls: Dict[int, ComplexBall] = {}

    def ball(self, prec: int) -> ComplexBall:
        out = self._balls.get(prec)
        if out is None:
            out = ComplexBall.from_fractions(self.exact, Fraction(0), prec)
            parts, cache = self._embedded
            for index, power in self.parts:
                factor = cache.get((index, power, prec))
                if factor is None:
                    from . import numberfield as nf

                    min_poly, emb_index, element = parts[index]
                    emb = nf.isolate_roots(min_poly, prec)[emb_index]
                    factor = cache[(index, power, prec)] = nf.embed(element, emb, prec).pow_int(power, prec)
                out = out.mul(factor, prec)
            self._balls[prec] = out
        return out


def _values(sys: SystemDescriptor, n: Sequence[int], factors: List[tuple]) -> List[_Value]:
    """The distinct values g prod f^k over the _arch_factors list of n, in
    the order of their first subset.  The subsets are walked once, in
    itertools.product order, and each adds its multiplicity
    prod_f C(m_f, k_f) and its copy counts to the value that its reduced
    exponents and its embedded parts key."""
    g = _growth_factor(sys, n)
    primes, steps = _exponent_steps(factors)
    embedded = ([part for _, part, _ in factors], {})
    # per factor, C(m, k) for k = 0..m, each from the one before
    combs = [list(itertools.accumulate(range(1, m + 1), lambda c, k, m=m: c * (m - k + 1) // k, initial=1))
             for _, _, m in factors]
    zero = (0,) * len(primes)
    values: Dict[tuple, _Value] = {}
    for counts in itertools.product(*(range(m + 1) for *_, m in factors)):
        exps = zero
        parts = []
        mult = 1
        for index, (step, row, k) in enumerate(zip(steps, combs, counts)):
            mult *= row[k]
            if k and step is None:
                parts.append((index, k))
            elif k:
                exps = tuple(x + k * y for x, y in zip(exps, step))
        key = (_reduced(primes, exps), tuple(parts))
        value = values.get(key)
        if value is None:
            exact = math.prod((Fraction(p) ** e for p, e in zip(primes, key[0])), start=g)
            value = values[key] = _Value(exact, key[1], embedded)
        value.multiplicity += mult
        value.subsets.append(counts)
    return list(values.values())


def _distinct_exact_values(factors: List[tuple]) -> Optional[int]:
    """The number of distinct branch values (so of clusters) over an
    _arch_factors list when all are exact, else None: the reduced exponent
    sums, one factor's multiples at a time."""
    primes, steps = _exponent_steps(factors)
    if None in steps:
        return None
    values = {(0,) * len(primes)}
    for step, (*_, mult) in zip(steps, factors):
        values = {
            _reduced(primes, [x + k * y for x, y in zip(v, step)]) for v in values for k in range(mult + 1)
        }
    return len(values)


def _check_terms(J: int, K: int) -> None:
    if J < K + 2:
        raise ValueError(f"need at least {K + 2} count terms for {K} candidate values")


class ZetaCandidate:
    """A cluster of numerically identical branch values, times sign: -1 once
    the fit picks mu = -1, so exact and the ball are the members' negated.
    The members are _Values in the order of their first subset; the cluster
    is exact when it is one value with no embedded part."""

    __slots__ = ("exact", "members", "multiplicity", "coefficient", "sign", "_balls")

    def __init__(self, members: List[_Value], sign: int = 1):
        first = members[0]
        self.exact = sign * first.exact if len(members) == 1 and not first.parts else None
        self.members = members
        self.multiplicity = sum(v.multiplicity for v in members)
        self.coefficient: Optional[int] = None
        self.sign = sign
        self._balls: Dict[int, ComplexBall] = {}

    def is_exact(self) -> bool:
        return self.exact is not None

    def negated(self) -> "ZetaCandidate":
        out = ZetaCandidate(self.members, -self.sign)
        out.coefficient = self.coefficient
        return out

    def _subsets(self) -> List[Tuple[Tuple[int, ...], int]]:
        """(copy counts, member index) of every subset, in branch order."""
        return sorted((s, i) for i, v in enumerate(self.members) for s in v.subsets)

    def ball(self, prec: int) -> ComplexBall:
        """The exact value, else the hull of the members' balls taken once
        per subset in branch order."""
        ball = self._balls.get(prec)
        if ball is None:
            if self.exact is not None:
                ball = ComplexBall.from_fractions(self.exact, Fraction(0), prec)
            else:
                ball, *rest = (self.members[i].ball(prec) for _, i in self._subsets())
                for other in rest:
                    ball = ComplexBall(ball.re.hull(other.re, prec), ball.im.hull(other.im, prec))
                if self.sign < 0:
                    ball = ball.neg()
            self._balls[prec] = ball
        return ball

    def label_text(self) -> str:
        return "|".join(
            "{" + ",".join(str(i) if k == 1 else f"{i}^{k}" for i, k in enumerate(s) if k) + "}"
            for s, _ in self._subsets()
        )

    def value_json(self, prec: int) -> dict:
        if self.exact is not None:
            return {"type": "rational", "value": str(self.exact)}
        ball = self.ball(prec)
        re_lo, re_hi = ball.re.float_bounds()
        im_lo, im_hi = ball.im.float_bounds()
        return {"type": "interval", "re": [re_lo, re_hi], "im": [im_lo, im_hi]}


def _overlap_classes(balls: Sequence[ComplexBall]) -> List[List[int]]:
    """Connected classes of the box-overlap graph, each in ascending index
    order, the classes ordered by their first index.

    A sweep over the boxes sorted by the lower end of their real part tests
    only pairs whose real parts overlap: once a box's lower end is past the
    current box's upper end, so are those of all later boxes.  The ends are
    exact rationals (floats would round values past 2^1024 to one infinity),
    so no overlapping pair is skipped and the classes are those of the
    all-pairs test.
    """
    bounds = [ball_to_fraction_bounds(ball.re) for ball in balls]
    order = sorted(range(len(balls)), key=lambda i: bounds[i][0])
    parent = list(range(len(balls)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, i in enumerate(order):
        hi = bounds[i][1]
        for b in range(a + 1, len(order)):
            k = order[b]
            if bounds[k][0] > hi:
                break
            if not balls[i].box_disjoint(balls[k]):
                parent[find(i)] = find(k)
    groups: Dict[int, List[int]] = {}
    for i in range(len(balls)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


def _cluster_values(values: List[_Value], prec: int) -> Optional[List[ZetaCandidate]]:
    """Group values by overlapping boxes; None means escalate, because
    distinct exact values are distinct rationals that a finer box parts."""
    clusters = []
    for indices in _overlap_classes([v.ball(prec) for v in values]):
        members = [values[i] for i in indices]
        if len(members) > 1 and not any(v.parts for v in members):
            return None
        clusters.append(ZetaCandidate(members))
    return clusters


def _count_values(F: Sequence) -> List[int]:
    values = []
    for j, entry in enumerate(F, 1):
        if isinstance(entry, PeriodicCount):
            if not entry.is_finite:
                raise UnsupportedOperationError(
                    f"the count at j={j} is infinite, so no rational zeta function exists"
                )
            values.append(entry.value)
        else:
            values.append(int(entry))
    return values


def _log2_abs(re, im) -> int:
    """About log2 |re + i im|, within a bit, from the exponents of two raw mpf
    parts; 0 when both are zero."""
    return max((exp + bc for _, man, exp, bc in (re, im) if man), default=0)


def _start_precision(balls: List[ComplexBall], values: List[int], prec: int) -> int:
    """Bits that pin every coefficient to about 2^-16.

    The solve loses about log2 |c|^-1 prod_{k != c} (1 + |c_k|) / |c - c_k|
    bits on coefficient c (Gautschi's bound on the inverse Vandermonde
    matrix), relative to the largest count it reads.  |c - c_k| is read off
    the midpoint difference that ComplexBall.sub would round, once per pair:
    rounding to nearest is symmetric, so both orders give it.
    """
    mids = [(b.re.mid, b.im.mid) for b in balls]
    logs = [_log2_abs(*m) for m in mids]
    loss = [-log for log in logs]
    for i, (re, im) in enumerate(mids):
        for k in range(i + 1, len(mids)):
            gap = _log2_abs(mpf_sub(re, mids[k][0], prec, "n"), mpf_sub(im, mids[k][1], prec, "n"))
            loss[i] += max(logs[k], 0) + 1 - gap
            loss[k] += max(logs[i], 0) + 1 - gap
    return max(loss) + max(abs(v).bit_length() for v in values) + 16


def _scale(prec: int, balls: Sequence[ComplexBall]) -> int:
    """Fixed-point scale for work at prec bits on these values: prec plus the
    bits below the binary point that the smallest |c| needs."""
    return prec + max([0] + [-_log2_abs(b.re.mid, b.im.mid) for b in balls])


def _fixed(v, s: int) -> int:
    """floor(v 2^s) for a raw mpf v."""
    sign, man, exp, _ = v
    man = -man if sign else man
    return man << (exp + s) if exp + s >= 0 else man >> -(exp + s)


class _Box:
    """Fixed-point Gaussian box: the set (x + a + i (y + b)) 2^-s, |a|, |b| <= e.

    x, y and e are ints; the scale s is passed to each operation that needs
    it, as balls take their precision.  Sums and integer multiples are exact;
    a product floors its midpoint and bounds every dropped term in e, so
    each result encloses the exact image of its operand sets.
    """

    __slots__ = ("x", "y", "e")

    def __init__(self, x: int, y: int, e: int):
        self.x = x
        self.y = y
        self.e = e

    @staticmethod
    def from_ball(z: ComplexBall, s: int) -> "_Box":
        # floor the midpoints (one unit of e) and round the radii up
        rad = max(-_fixed(mpf_neg(r), s) for r in (z.re.rad, z.im.rad))
        return _Box(_fixed(z.re.mid, s), _fixed(z.im.mid, s), rad + 1)

    @staticmethod
    def from_fraction(q, s: int) -> "_Box":
        """The real rational (or int) q."""
        x, rem = divmod(q.numerator << s, q.denominator)
        return _Box(x, 0, 1 if rem else 0)

    def to_ball(self, s: int) -> ComplexBall:
        rad = from_man_exp(self.e, -s)
        return ComplexBall(
            RealBall(from_man_exp(self.x, -s), rad), RealBall(from_man_exp(self.y, -s), rad)
        )

    def add(self, other: "_Box") -> "_Box":
        return _Box(self.x + other.x, self.y + other.y, self.e + other.e)

    def sub(self, other: "_Box") -> "_Box":
        return _Box(self.x - other.x, self.y - other.y, self.e + other.e)

    def neg(self) -> "_Box":
        return _Box(-self.x, -self.y, self.e)

    def mul_int(self, k: int) -> "_Box":
        return _Box(k * self.x, k * self.y, abs(k) * self.e)

    def mul(self, other: "_Box", s: int) -> "_Box":
        x1, y1, e1, x2, y2, e2 = self.x, self.y, self.e, other.x, other.y, other.e
        err = (abs(x1) + abs(y1)) * e2 + (abs(x2) + abs(y2)) * e1 + 2 * e1 * e2
        return _Box((x1 * x2 - y1 * y2) >> s, (x1 * y2 + y1 * x2) >> s, -(-err >> s) + 1)

    def contains_zero(self) -> bool:
        return abs(self.x) <= self.e and abs(self.y) <= self.e


def _admissible(a: ComplexBall, m: int) -> range:
    """Integers in the ball with |a| <= m and the parity of m."""
    if not a.im.contains_zero():
        return range(0)
    lo, hi = ball_to_fraction_bounds(a.re)
    first = max(-m, math.ceil(lo))
    last = min(m, math.floor(hi))
    return range(first + (first - m) % 2, last - (last - m) % 2 + 1, 2)


def fit_exponents(
    candidates: List[ZetaCandidate],
    F: Sequence,
    precision: int = DEFAULT_PRECISION,
) -> Tuple[List[int], int]:
    """Integer coefficients and mu with F_j = -sum_c a_c (mu c)^j.

    Coefficient a_c ranges over [-m_c, m_c] with the parity of m_c (each of
    the m_c coinciding branches contributes +-1).  The K candidate values
    are nonzero and distinct (ValueError for exact ones, UndecidedError when
    their balls at `precision` meet zero or each other), so F_1..F_K fix the
    coefficients through a nonsingular Vandermonde system.  It is solved by
    the residue formula a_c = -N^(mu c) / (mu c prod_{k != c} (mu c - mu c_k)),
    where P(z) = prod_k (1 - mu c_k z), N = P sum_j F_j z^j and
    N^(w) = sum_{i <= K} N_i w^(K-i), at the precision that _start_precision
    estimates, doubled while some coefficient's enclosure holds several
    admissible integers.  At each precision p the products run on
    fixed-point Gaussian boxes at scale p plus the bits the smallest |c|
    needs; each of the K numerators and denominators then becomes a
    ComplexBall for the division.  F_{K+1}..F_J are checked through the
    vanishing of N_{K+1}..N_J.  No admissible solution is an inconsistency.
    mu = +1 is tried first and -1 only as a fallback, so a factorization
    symmetric under global negation reports mu = +1 canonically.  The work
    at each precision is held to the fit work cap of rankone.defaults.
    """
    values = _count_values(F)
    K = len(candidates)
    _check_terms(len(values), K)
    exact = [c.exact for c in candidates if c.exact is not None]
    if 0 in exact or len(set(exact)) < len(exact):
        raise ValueError("exact zeta candidate values must be nonzero and distinct")
    balls = [c.ball(precision) for c in candidates]
    if any(b.contains_zero() for b in balls) or len(_overlap_classes(balls)) < K:
        raise UndecidedError(f"separating zeta candidate values at {precision} bits")
    start = max(precision, _start_precision(balls, values[:K], precision))
    rejected = set()
    for prec in precisions(start, HARD_PRECISION):
        defaults.check("FIT_WORK_CAP", defaults.fit_work(K, prec), K=K, bits=prec)
        # members of a cluster are equal, so the first one stands for it; a
        # cluster that merged distinct values then fails instead of blurring
        member_balls = [c.members[0].ball(prec) for c in candidates]
        s = _scale(prec, member_balls)
        cs = [_Box.from_ball(c, s) for c in member_balls]
        # P(z) = prod_k (1 - c_k z) and D_c = c prod_{k != c} (c - c_k); for
        # mu = -1 they become P(-z) and (-1)^K D_c
        P = [_Box.from_fraction(1, s)]
        for c in cs:
            nc = c.neg()
            P = (
                [P[0]]
                + [P[i].add(P[i - 1].mul(nc, s)) for i in range(1, len(P))]
                + [P[-1].mul(nc, s)]
            )
        D = list(cs)
        for i in range(K):
            for k in range(i + 1, K):
                diff = cs[i].sub(cs[k])
                D[i] = D[i].mul(diff, s)
                D[k] = D[k].mul(diff.neg(), s)
        try:
            inv_d = [d.to_ball(s).recip(prec) for d in D]
        except ZeroDivisionError:
            continue  # the values are not yet apart at this precision
        for mu in (1, -1):
            if mu in rejected:
                continue
            Pmu = [p.neg() if mu < 0 and t % 2 else p for t, p in enumerate(P)]
            N = []
            for i in range(1, len(values) + 1):
                acc = Pmu[0].mul_int(values[i - 1])
                for t in range(1, min(i, K + 1)):
                    acc = acc.add(Pmu[t].mul_int(values[i - t - 1]))
                N.append(acc)
            if not all(x.contains_zero() for x in N[K:]):
                rejected.add(mu)
                continue
            ranges = []
            for c, r, cand in zip(cs, inv_d, candidates):
                w = c if mu > 0 else c.neg()
                acc = N[0]
                for x in N[1:K]:
                    acc = acc.mul(w, s).add(x)
                if mu ** K > 0:
                    acc = acc.neg()  # the sign -mu^K of a_c
                ranges.append(_admissible(acc.to_ball(s).mul(r, prec), cand.multiplicity))
            if not all(ranges):
                rejected.add(mu)
                continue
            if all(len(r) == 1 for r in ranges):
                return [r[0] for r in ranges], mu
            break  # mu = -1 counts only once mu = +1 is ruled out
        if len(rejected) == 2:
            raise FitInconsistencyError(
                "no sign assignment reproduces the count sequence; candidate values do not fit"
            )
    raise UndecidedError("certifying zeta coefficients")


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

    def to_json(self) -> dict:
        def branch(c):
            return {"c": c.value_json(self.precision), "subset": c.label_text(), "multiplicity": c.multiplicity}

        return {
            "n": list(self.n),
            "convention": self.convention,
            "mu": self.mu,
            "factors": [{**branch(c), "lambda": c.coefficient} for c in self.factors],
            "branches": [branch(c) for c in self.candidates],
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

    Candidate separation walks precisions(precision, max_prec), and values
    are reported at the precision that separated them.  The coefficient
    certification in fit_exponents climbs past max_prec, up to
    HARD_PRECISION, because its results are integers.  Outside the
    expansive regime rationality is not guaranteed; force=True attempts the
    fit anyway and raises an inconsistency if none exists.

    Before any value is built, the bit budget (rankone.defaults) is checked
    at j_check, else MIN_J_CHECK; and when all K distinct values are exact,
    counted without building them, at the periods their fit reads, or, in an
    expansive direction, j_check is held to the K + 2 fit_exponents needs.
    """
    expansive = is_expansive_element(sys, n, max_prec)
    if expansive is None:
        raise UndecidedError(f"expansiveness of alpha^{tuple(n)}")
    if expansive is False and not force:
        raise UnsupportedOperationError(
            "direction is not expansive, so a rational zeta function is not guaranteed; "
            "pass force to attempt the fit anyway"
        )
    check_sequence_budget(sys, n, j_check if j_check is not None else defaults.MIN_J_CHECK)
    factors = _arch_factors(sys, n)
    K = _distinct_exact_values(factors)
    if K is not None and j_check is None:
        check_sequence_budget(sys, n, max(K + 2, defaults.MIN_J_CHECK))
    elif K is not None and expansive:
        _check_terms(j_check, K)
    values = _values(sys, n, factors)
    for prec in precisions(precision, max_prec):
        clusters = _cluster_values(values, prec)
        if clusters is None:
            continue
        J = j_check if j_check is not None else max(len(clusters) + 2, defaults.MIN_J_CHECK)
        F = count_sequence(sys, n, J)
        try:
            coeffs, mu = fit_exponents(clusters, F, prec)
        except UndecidedError:
            continue
        except FitInconsistencyError:
            # exact values cannot sharpen; interval clusters may split
            if all(c.is_exact() for c in clusters):
                raise
            continue
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
    """Check F_j = -sum a_c c^j for j = 1..j_check; exact paths deviate by 0.

    The power sums run on exact rationals and, for interval values, on
    fixed-point Gaussian boxes at zf.precision plus the bits the smallest |c|
    needs.  This is a second formula, not the residue solve of fit_exponents
    run again: a wrong coefficient still fails it, and an error bound too
    small could only show as a spurious failure, never as a silent pass.  A
    deviation past the float range is reported as math.inf.
    """
    values = _count_values(F)
    J = min(j_check if j_check is not None else len(values), len(values))
    prec = zf.precision
    fitted = [c for c in zf.candidates if c.coefficient]
    exact = [c for c in fitted if c.exact is not None]
    boxed = [c for c in fitted if c.exact is None]
    balls = [c.ball(prec) for c in boxed]
    s = _scale(prec, balls)
    bases = [_Box.from_ball(b, s) for b in balls]
    exact_powers = [c.exact for c in exact]  # c^j, advanced by one product per period
    box_powers = list(bases)
    failures = []
    max_deviation = 0.0
    for j in range(1, J + 1):
        if j > 1:
            exact_powers = [p * c.exact for p, c in zip(exact_powers, exact)]
            box_powers = [p.mul(b, s) for p, b in zip(box_powers, bases)]
        total = values[j - 1] + sum(c.coefficient * p for c, p in zip(exact, exact_powers))
        if not boxed:
            deviation = _float_abs(total)
            if total != 0:
                failures.append(j)
        else:
            box = _Box.from_fraction(total, s)
            for c, p in zip(boxed, box_powers):
                box = box.add(p.mul_int(c.coefficient))
            deviation = _float_abs(Fraction(box.x, 1 << s), Fraction(box.y, 1 << s))
            if not box.contains_zero():
                failures.append(j)
        max_deviation = max(max_deviation, deviation)
    return {"ok": not failures, "max_deviation": max_deviation, "failures": failures}


def _float_abs(re, im=0) -> float:
    """|re + i im| as a float; math.inf past the float range."""
    try:
        return math.hypot(re, im)
    except OverflowError:
        return math.inf
