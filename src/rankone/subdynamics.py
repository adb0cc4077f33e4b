"""Directional portrait of an action: where it fails to be expansive.

Every character contributes a log-size linear form on direction space.  A
direction is expansive exactly when no form vanishes there, so the
non-expansive locus is a finite union of hyperplanes through the origin,
one per character with a nonzero log-vector.  Hyperplanes are labeled by
their source: `variety` for archimedean characters, `noetherian` for
nonarchimedean ones.  A character whose whole log-vector is zero kills
expansiveness everywhere; it is reported as a degenerate character instead
of a hyperplane.  nonexpansive_hyperplanes gives both lists from one pass
over the characters.

On the unit sphere the pole/zero data of the direction zeta functions is
carried by the branch functions

    f_L(v) = prod_{chi nonarch} max(chi*(-v), 1) * prod_{chi in L} chi*(-v)

indexed by multisets L of archimedean characters.  Two branches cross where
a signed combination of archimedean log-vectors vanishes (the crossing
set), and coincide everywhere when that combination is zero itself;
crossing_set gives the crossings and the coincidences from one walk over
the signed pairs, building each normal once.  The common nonarchimedean
prefactor is non-smooth exactly on the noetherian hyperplanes (the
non-smooth set).  Directional entropy is the log of the largest branch
value, scaled by the direction length; summing max(0, -n.w_chi) over
characters computes it exactly.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import Counter
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import defaults
from ._libmp import fone, mpf_add, mpf_cmp, mpf_shift
from .balls import DEFAULT_PRECISION, MAX_PRECISION, RealBall
from .defaults import CONVENTIONS, INVERSE_ROOT, ROOT_LOCATION
from .errors import UndecidedError
from .exactlog import ExactLog, log_dot, vector_is_zero
from .system import Character, SystemDescriptor

VARIETY = "variety"
NOETHERIAN = "noetherian"
CROSSING_ONLY = "crossing-only"

# The minimal-branch variant of directional entropy contradicts the exact
# period counts on every bundled system, so only the maximal branch is
# implemented; the note travels with entropy output.
ENTROPY_NOTE = (
    "directional entropy is the length-scaled log of the maximal branch "
    "value; the minimal-branch variant is inconsistent with exact period "
    "counts and is not provided"
)


class LabeledHyperplane:
    """A hyperplane {v : normal . v = 0} with its algebraic provenance.

    The normal is a vector of exact log combinations.  It is never
    certifiably zero; a normal whose zero test stays open at the precision
    cap is kept with `undecided` set rather than dropped.
    """

    __slots__ = ("normal", "label", "sources", "undecided")

    def __init__(
        self,
        normal: Sequence[ExactLog],
        label: str,
        sources: tuple,
        undecided: bool = False,
    ):
        if label not in (VARIETY, NOETHERIAN, CROSSING_ONLY):
            raise ValueError(f"unknown hyperplane label {label!r}")
        self.normal = tuple(normal)
        self.label = label
        self.sources = sources
        self.undecided = undecided

    def normal_floats(self, prec: int = DEFAULT_PRECISION) -> Tuple[float, ...]:
        return tuple(entry.evaluate(prec).mid_float() for entry in self.normal)

    def to_json(self, prec: int = DEFAULT_PRECISION) -> dict:
        return {
            "label": self.label,
            "normal_float": [_round12(x) for x in self.normal_floats(prec)],
            "normal_atoms": [entry.atoms_json() for entry in self.normal],
            "sources": list(self.sources),
            "undecided": self.undecided,
        }

    def __repr__(self):
        return f"LabeledHyperplane({self.label}, normal~{self.normal_floats()})"


def _round12(x: float) -> float:
    # fixed 12-significant-digit rendering keeps emitted JSON byte-stable;
    # the one rounding of every JSON float the portrait and omega commands
    # print, here and in the rows that sampling streams
    return float(f"{x:.12e}")


def _character_ref(set_name: str, index: int, chi: Character) -> dict:
    ref = {"set": set_name, "index": index}
    ref.update(chi.source)
    return ref


def nonexpansive_hyperplanes(
    sys: SystemDescriptor, max_prec: int = MAX_PRECISION
) -> Tuple[List[LabeledHyperplane], List[dict]]:
    """(hyperplanes, degenerate) over the characters, in one pass.

    A character with certifiably zero log-vector is non-expansive in every
    direction and goes to `degenerate` as a character reference; every
    other one gives a labeled hyperplane.
    """
    V, W = sys.characters()
    hyperplanes: List[LabeledHyperplane] = []
    degenerate: List[dict] = []
    for set_name, label, chars in (("V", VARIETY, V), ("W", NOETHERIAN, W)):
        for i, chi in enumerate(chars):
            ref = _character_ref(set_name, i, chi)
            verdict = vector_is_zero(chi.log_vector, max_prec)
            if verdict is True:
                degenerate.append(ref)
            else:
                hyperplanes.append(LabeledHyperplane(chi.log_vector, label, (ref,), undecided=verdict is None))
    return hyperplanes, degenerate


def _signed_combinations(sys: SystemDescriptor):
    """Yield (epsilon, normal) over signed archimedean multisets, mod sign.

    epsilon ranges over integer vectors with |epsilon_i| <= multiplicity_i,
    excluding zero, first nonzero entry positive.  epsilon encodes the pair
    of branch multisets J = positive part, L = negative part; the branches
    f_J and f_L cross where the combined log form vanishes.
    """
    V, _ = sys.characters()
    if not V:
        return
    defaults.check("MAX_CROSSING_PAIRS", defaults.crossing_pairs(chi.multiplicity for chi in V))
    columns = [[chi.log_vector[j] for chi in V] for j in range(sys.d)]
    ranges = [range(-chi.multiplicity, chi.multiplicity + 1) for chi in V]
    for eps in itertools.product(*ranges):
        first = next((e for e in eps if e != 0), None)
        if first is None or first < 0:
            continue
        yield eps, tuple(log_dot(eps, column) for column in columns)


def _pair_source(eps: Tuple[int, ...]) -> dict:
    plus = [i for i, e in enumerate(eps) for _ in range(max(e, 0))]
    minus = [i for i, e in enumerate(eps) for _ in range(max(-e, 0))]
    return {"J": plus, "L": minus}


def crossing_set(
    sys: SystemDescriptor, max_prec: int = MAX_PRECISION
) -> Tuple[List[LabeledHyperplane], List[dict]]:
    """(crossings, coincidences) over the signed branch pairs, in one walk.

    A pair whose normal is certifiably zero coincides globally and goes to
    `coincidences` as its {"J", "L"} source; every other pair gives a
    crossing hyperplane, with the undecided flag set when its zero test
    stays open at the precision cap.
    """
    crossings: List[LabeledHyperplane] = []
    coincidences: List[dict] = []
    for eps, normal in _signed_combinations(sys):
        verdict = vector_is_zero(normal, max_prec)
        if verdict is True:
            coincidences.append(_pair_source(eps))
        else:
            crossings.append(LabeledHyperplane(normal, CROSSING_ONLY, (_pair_source(eps),), undecided=verdict is None))
    return crossings, coincidences


# --------------------------------------------------------------------------
# branch functions on the unit sphere


def _check_unit(v: Sequence, prec: int) -> None:
    """Raise ValueError unless |sum x^2 - 1| <= 2^-min(prec // 2, 48), v rational.

    The tolerance stops at 2^-48 because float directions are unit vectors
    only to rounding: circle_directions(720) to 2^-52.6 and
    sphere_directions(180) to 2^-51.3 at worst.  Decided exactly on
    integers: with v = (p_i / den) over the common denominator, |v|^2 =
    total / den^2.  A float's denominator is a power of two, so for float
    directions den is just the largest of them.
    """
    ratios = [x.as_integer_ratio() for x in v]
    den = math.lcm(*(q for _, q in ratios))
    total = sum((p * (den // q)) ** 2 for p, q in ratios)
    den2 = den * den
    if abs(total - den2) << min(prec // 2, 48) > den2:
        raise ValueError(f"direction is not a unit vector: |v|^2 = {float(Fraction(total, den2))}")


def branch_subsets(sys: SystemDescriptor) -> List[Tuple[int, ...]]:
    """All archimedean multisets L, as sorted index tuples with repetition.

    The list has prod(multiplicity + 1) entries; with no archimedean
    characters it is just (empty,) and there is a single branch.  It is
    prefix-closed and lists each nonempty L after L[:-1], whatever the
    multiplicities: dropping the last index lowers the last nonzero count,
    which comes earlier in itertools.product order.  _branch_balls builds
    each branch value from its prefix's on this guarantee.
    """
    V, _ = sys.characters()
    ranges = [range(chi.multiplicity + 1) for chi in V]
    out = []
    for ks in itertools.product(*ranges):
        out.append(tuple(i for i, k in enumerate(ks) for _ in range(k)))
    return out


def f_eval(
    sys: SystemDescriptor, L: Sequence[int], v: Sequence, prec: int = DEFAULT_PRECISION
) -> RealBall:
    """One branch value at a unit direction, outward rounded.

    L is a multiset of archimedean character indices (repetitions up to the
    character multiplicity).  |v|^2 must equal 1 within 2^-min(prec // 2, 48).
    """
    V, W = sys.characters()
    coeffs = tuple(Fraction(x) for x in v)
    _check_unit(coeffs, prec)
    minus_v = [-c for c in coeffs]
    counts = Counter(L)
    for i, k in counts.items():
        if not 0 <= i < len(V):
            raise ValueError(f"no archimedean character with index {i}")
        if k > V[i].multiplicity:
            raise ValueError(f"index {i} repeated beyond its multiplicity")
    one = RealBall.one()
    total = one
    for chi in W:
        factor = chi.chi_star(minus_v, prec).max_with(one, prec)
        total = total.mul(factor.pow_int(chi.multiplicity, prec), prec)
    for i, k in sorted(counts.items()):
        total = total.mul(V[i].chi_star(minus_v, prec).pow_int(k, prec), prec)
    return total


def circle_directions(samples: int) -> List[Tuple[float, float]]:
    """Evenly spaced unit directions on the circle, starting at angle 0."""
    return [
        (math.cos(2 * math.pi * k / samples), math.sin(2 * math.pi * k / samples))
        for k in range(samples)
    ]


def sphere_directions(samples: int) -> List[Tuple[float, float, float]]:
    """samples x samples grid over (theta, phi), poles avoided."""
    out = []
    for j in range(samples):
        phi = math.pi * (j + 0.5) / samples
        sp, cp = math.sin(phi), math.cos(phi)
        for k in range(samples):
            theta = 2 * math.pi * k / samples
            out.append((math.cos(theta) * sp, math.sin(theta) * sp, cp))
    return out


def default_directions(sys: SystemDescriptor, samples: Optional[int] = None):
    """The direction grid for sys: samples points on the circle for d = 2
    (default 720), a samples x samples sphere grid for d = 3 (default 180),
    and no directions for samples <= 0 or any other d.

    Raises ResourceCapError, before any direction or branch is built, when
    the grid times the number of branches is over the omega row cap.
    """
    if sys.d not in (2, 3):
        return []
    if samples is None:
        samples = 720 if sys.d == 2 else 180
    count = max(samples, 0) ** (sys.d - 1)
    branches = defaults.branch_count(chi.multiplicity for chi in sys.characters()[0]) if count else 0
    defaults.check("MAX_OMEGA_ROWS", count * branches, directions=count, branches=branches)
    return circle_directions(samples) if sys.d == 2 else sphere_directions(samples)


def _exp_neg_below_one(form: RealBall, prec: int) -> bool:
    """Whether the upper end of form.neg().exp(prec) is below 1, so that
    max_with(one, prec) returns `one` itself; decided without exp.

    True when the form's lower end t exceeds T = 2^(4-prec) and its radius
    r is at most T.  The upper end of the exp ball is then exp(-t) times at
    most 1 + 2^(2-prec), as every error in it is relative to exp(-t):
    - exp runs with 16 guard bits and widens its ends by 2^-(prec+8) of
      the larger one: under 2^-(prec+7);
    - the midpoint is rounded to prec bits, and the radius holds that
      half-ulp again: under 2.01 * 2^-prec;
    - the radius, below exp(-t) (r + 2^(1-prec)), is rounded up to 30 bits
      twice: under 2^-(prec+23) while r <= T.  A wider form could lose
      more than the 2^-prec margin here, so the radius bound is needed.
    And exp(-t) (1 + 2^(2-prec)) < exp(2^(2-prec) - t) < 1.  max(1,
    exp(-form)) is 1 for every positive form, so `one` is also the exact
    value.
    """
    threshold = mpf_shift(fone, 4 - prec)
    return mpf_cmp(form.rad, threshold) <= 0 and mpf_cmp(form.mid, mpf_add(threshold, form.rad)) > 0


# Most factors one character remembers in omega_samples before it starts
# over: the 3,600 directions of a 60 x 60 sphere grid, at about 0.35 KB each.
_FACTOR_MEMO_SIZE = 1 << 12


class _OmegaFactor:
    """One character's factor in omega_samples: exp(-form) for an
    archimedean character, max(1, exp(-form))^multiplicity for a
    nonarchimedean one, with the bits of the dense left-to-right sum.

    The form is summed over the nonzero entries of the log-vector only.
    Each term is (coordinate, weight, zeros), zeros counting the exactly
    zero entries up to the next nonzero one: the dense sum added each, and
    RealBall.add charged the half-ulp of the running sum every time, so the
    sparse sum adds them too.  Leading zero entries charge nothing.

    A form that reads fewer coordinates than d remembers its factor by the
    coordinates it reads, a key that repeats on the grids: along a sphere
    row for z alone, at mirror images for x or y alone, everywhere for a
    zero log-vector.  A form that reads every coordinate remembers nothing;
    the memo starts over at _FACTOR_MEMO_SIZE keys, so memory stays flat.
    """

    __slots__ = ("terms", "multiplicity", "nonarchimedean", "prec", "memo")

    def __init__(self, chi: Character, d: int, nonarchimedean: bool, prec: int):
        terms: List[list] = []
        for j, entry in enumerate(chi.log_vector):
            if not entry.is_trivially_zero():
                terms.append([j, entry.evaluate(prec + 8), 0])
            elif terms:
                terms[-1][2] += 1
        self.terms = [tuple(t) for t in terms]
        self.multiplicity = chi.multiplicity
        self.nonarchimedean = nonarchimedean
        self.prec = prec
        self.memo = {} if len(terms) < d else None

    def at(self, direction: Tuple[float, ...], d_balls: Sequence[RealBall]) -> RealBall:
        if self.memo is None:
            return self._value(d_balls)
        key = tuple(direction[j] for j, _, _ in self.terms)
        value = self.memo.get(key)
        if value is None:
            if len(self.memo) >= _FACTOR_MEMO_SIZE:
                self.memo.clear()
            value = self.memo[key] = self._value(d_balls)
        return value

    def _value(self, d_balls: Sequence[RealBall]) -> RealBall:
        prec = self.prec
        wprec = prec + 8
        zero = RealBall.zero()
        form = zero
        for j, w, zeros in self.terms:
            form = form.add(d_balls[j].mul(w, wprec), wprec)
            for _ in range(zeros):
                form = form.add(zero, wprec)
        if not self.nonarchimedean:
            return form.neg().exp(prec)
        one = RealBall.one()
        factor = one if _exp_neg_below_one(form, prec) else form.neg().exp(prec).max_with(one, prec)
        return factor.pow_int(self.multiplicity, prec)


def _branch_balls(sys: SystemDescriptor, subsets: Sequence[Tuple[int, ...]],
                  directions: Sequence[Sequence[float]], convention: str, prec: int):
    """Per direction, (direction as a float tuple, balls, slots): subsets[i],
    subsets being branch_subsets(sys), takes the value f_L in balls[slots[i]],
    or 1 / f_L for root-location.  Each f_L is f_L[:-1] times one
    archimedean factor, with the bits of the left fold
    g * a_L[0] * a_L[1] * ... though known work is skipped (_OmegaFactor).
    Characters with equal terms give equal factor bits at every direction,
    so branches with equal sequences of such classes share one ball: balls
    holds one per sequence, numbered in branch order, each computed and
    inverted once, and slots is one tuple for every direction."""
    V, W = sys.characters()
    w_factors = [_OmegaFactor(chi, sys.d, True, prec) for chi in W]
    v_factors, kinds, classes = [], [], {}
    for chi in V:
        factor = _OmegaFactor(chi, sys.d, False, prec)
        kind = classes.setdefault(tuple((j, w.mid, w.rad, z) for j, w, z in factor.terms), len(classes))
        if kind == len(v_factors):
            v_factors.append(factor)
        kinds.append(kind)
    # after f_(): (number of L[:-1]'s sequence, class of L[-1]) for each new sequence
    number, steps, slots = {(): 0}, [], [0]
    for subset in subsets[1:]:
        seq = tuple(kinds[i] for i in subset)
        if seq not in number:
            steps.append((number[seq[:-1]], seq[-1]))
            number[seq] = len(number)
        slots.append(number[seq])
    slots = tuple(slots)
    for direction in directions:
        direction = tuple(float(x) for x in direction)
        _check_unit(direction, prec)
        d_balls = [RealBall.from_float(x) for x in direction]
        g = RealBall.one()
        for factor in w_factors:
            g = g.mul(factor.at(direction, d_balls), prec)
        arch_vals = [factor.at(direction, d_balls) for factor in v_factors]
        balls = [g]
        for k, c in steps:
            balls.append(balls[k].mul(arch_vals[c], prec))
        if convention == ROOT_LOCATION:
            try:
                balls = [ball.recip(prec) for ball in balls]
            except ZeroDivisionError:
                # balls are numbered in branch order, so the first subset of
                # the first ball containing 0 is the first such subset
                k = next(k for k, ball in enumerate(balls) if ball.contains_zero())
                raise UndecidedError(f"reciprocal of the branch value f_{list(subsets[slots.index(k)])} "
                                     f"at {direction}: its {prec}-bit enclosure contains 0") from None
        yield direction, balls, slots


class OmegaRows:
    """The doubles of omega_samples in one array: per direction, the
    float_bounds() of each of its distinct branch balls, two doubles each,
    with .slots giving each of .subsets the number of its ball, the same at
    every direction (by default one ball per subset).  len() counts the
    rows; iterating gives (direction, subset, lo, hi), each direction over
    all of .subsets in turn, every tuple shared."""

    __slots__ = ("directions", "subsets", "slots", "floats")

    def __init__(self, subsets: List[Tuple[int, ...]]):
        self.directions, self.subsets, self.floats = [], subsets, array("d")
        self.slots = tuple(range(len(subsets)))

    def __len__(self) -> int:
        return len(self.directions) * len(self.subsets)

    def by_direction(self):
        """(direction, values) per direction, values[k] the (lo, hi) of its
        k-th distinct ball."""
        pairs = zip(*[iter(self.floats)] * 2)
        count = max(self.slots) + 1
        for direction in self.directions:
            yield direction, list(itertools.islice(pairs, count))

    def __iter__(self):
        for direction, values in self.by_direction():
            for subset, k in zip(self.subsets, self.slots):
                yield (direction, subset, *values[k])


def omega_samples(
    sys: SystemDescriptor,
    directions: Sequence[Sequence[float]],
    convention: str = INVERSE_ROOT,
    prec: int = DEFAULT_PRECISION,
) -> OmegaRows:
    """The doubles of _branch_balls at each direction (f_L, or 1 / f_L for
    root-location, which raises UndecidedError where the enclosure of f_L
    contains 0), so that no ball outlives its direction.  A ball that
    several branches share is exported once."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    rows = OmegaRows(branch_subsets(sys))
    for direction, balls, slots in _branch_balls(sys, rows.subsets, directions, convention, prec):
        rows.directions.append(direction)
        rows.slots = slots
        for ball in balls:
            rows.floats.extend(ball.float_bounds())
    return rows


# --------------------------------------------------------------------------
# directional entropy


def directional_entropy_atoms(
    sys: SystemDescriptor, n: Sequence[int], max_prec: int = MAX_PRECISION
) -> ExactLog:
    """Entropy of the single transformation at integer direction n, exactly.

    Sum over characters of multiplicity * max(0, -n.w); the sign of each
    form is decided exactly for prime-atom forms and by certified intervals
    otherwise.  An open sign at the precision cap raises UndecidedError.
    """
    n = tuple(int(x) for x in n)
    if len(n) != sys.d:
        raise ValueError("direction has the wrong dimension")
    if all(x == 0 for x in n):
        raise ValueError("entropy of the zero direction is undefined")
    total = ExactLog.zero()
    for chi in sys.all_characters():
        form = chi.log_linear_form(n).neg()
        sign = form.sign(max_prec)
        if sign == "positive":
            total = total.add(form.scale(chi.multiplicity))
        elif sign == "zero-undecided":
            raise UndecidedError(f"sign of the log form of {chi!r} at {n}")
    return total


def directional_entropy(
    sys: SystemDescriptor,
    n: Sequence[int],
    prec: int = DEFAULT_PRECISION,
    max_prec: int = MAX_PRECISION,
) -> RealBall:
    """Certified enclosure of the entropy along integer direction n."""
    return directional_entropy_atoms(sys, n, max_prec).evaluate(prec)


# --------------------------------------------------------------------------
# assembled portrait


class DirectionPortrait:
    """The structural directional picture of one system, immutably assembled;
    to_json leaves "omega" empty for a writer to fill from omega_samples."""

    __slots__ = (
        "system",
        "hyperplanes",
        "degenerate",
        "crossing",
        "coincidences",
        "branches",
        "convention",
        "precision",
        "warnings",
    )

    def __init__(self, system, hyperplanes, degenerate, crossing, coincidences,
                 branches, convention, precision, warnings):
        self.system = system
        self.hyperplanes = tuple(hyperplanes)
        self.degenerate = tuple(degenerate)
        self.crossing = tuple(crossing)
        self.coincidences = tuple(coincidences)
        self.branches = tuple(branches)
        self.convention = convention
        self.precision = precision
        self.warnings = tuple(warnings)

    def to_json(self) -> dict:
        prec = self.precision
        return {
            "descriptor_hash": self.system.descriptor_hash(),
            "label": self.system.label,
            "d": self.system.d,
            "convention": self.convention,
            "precision_bits": prec,
            "hyperplanes": [h.to_json(prec) for h in self.hyperplanes],
            "nonsmooth": [h.to_json(prec) for h in self.hyperplanes if h.label == NOETHERIAN],
            "crossing": [h.to_json(prec) for h in self.crossing],
            "coincidences": list(self.coincidences),
            "degenerate": list(self.degenerate),
            "branches": [list(s) for s in self.branches],
            "omega": [],
            "warnings": list(self.warnings),
            "notes": [ENTROPY_NOTE],
        }


def build_portrait(
    sys: SystemDescriptor,
    convention: str = INVERSE_ROOT,
    prec: int = DEFAULT_PRECISION,
    max_prec: int = MAX_PRECISION,
) -> DirectionPortrait:
    """Assemble hyperplanes, crossings and branch data.

    Raises ResourceCapError, before any of them is built, when the branches
    would list more indices than the branch cap.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    multiplicities = [chi.multiplicity for chi in sys.characters()[0]]
    defaults.check("MAX_BRANCH_INDICES", defaults.branch_indices(multiplicities))
    hyperplanes, degenerate = nonexpansive_hyperplanes(sys, max_prec)
    crossing, coincidences = crossing_set(sys, max_prec)
    branches = branch_subsets(sys)
    warnings = []
    if degenerate:
        warnings.append(
            "non-expansive in every direction: a character has zero log-vector"
        )
    if any(h.undecided for h in hyperplanes) or any(h.undecided for h in crossing):
        warnings.append("some zero tests stayed open at the precision cap")
    return DirectionPortrait(
        sys, hyperplanes, degenerate, crossing, coincidences,
        branches, convention, prec, warnings,
    )
