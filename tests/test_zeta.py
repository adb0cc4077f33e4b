"""Zeta factor fits: frozen factorizations, identity checks, failure modes."""

import functools
import itertools
import math
import random
import types
from fractions import Fraction

import pytest
from mpmath.libmp import from_man_exp

from rankone import cli, numberfield as nf, parse_descriptor, zeta
from rankone import (
    ZetaCandidate,
    ZetaFactorization,
    count_sequence,
    directional_entropy,
    inverse_roots,
    is_expansive_element,
    load_fixture,
    verify_generating_identity,
)
from rankone.errors import (
    FitInconsistencyError,
    ResourceCapError,
    UndecidedError,
    UnsupportedOperationError,
)
from rankone.balls import HARD_PRECISION, ComplexBall, RealBall, ball_to_fraction_bounds, precisions
from rankone.zeta import _Value, _cluster_values, _values, fit_exponents

from propsuites import contains, relative_width


def coeff_by_value(zf):
    return {c.exact: c.coefficient for c in zf.factors}


def exact_values(zf):
    """The branch value multiset of a fully rational factorization."""
    assert all(c.exact is not None for c in zf.candidates)
    return sorted(c.exact for c in zf.candidates for _ in range(c.multiplicity))


def exact_candidate(value, multiplicity=1):
    """A candidate for one exact value, built by hand for fit_exponents."""
    v = Fraction(value)
    member = _Value(v, (), ([], {}))
    member.multiplicity = multiplicity
    return ZetaCandidate([member])


def values_of(sys_, n):
    """The distinct branch values of direction n over its one _arch_factors list."""
    return _values(sys_, n, zeta._arch_factors(sys_, n))


def in_branch_order(candidate):
    """The member value of each subset of a candidate, in branch order."""
    pairs = sorted(((s, k) for k, v in enumerate(candidate.members) for s in v.subsets))
    return [candidate.members[k] for _, k in pairs]


# --- expansiveness -----------------------------------------------------------

def test_expansive_classification_times2times3():
    sys_ = load_fixture("times2times3")
    assert is_expansive_element(sys_, (1, 1)) is True
    assert is_expansive_element(sys_, (1, -1)) is True
    # either coordinate zero kills a nonarchimedean form
    assert is_expansive_element(sys_, (1, 0)) is False
    assert is_expansive_element(sys_, (0, 1)) is False
    with pytest.raises(ValueError):
        is_expansive_element(sys_, (0, 0))


def test_analyze_decides_the_axes_and_the_diagonal(monkeypatch, capsys):
    # analyze asks about the two axes and the diagonal at the default cap;
    # inverse_roots asks again about the expansive one before its fit
    decided = []

    def counted(sys_, n, max_prec):
        decided.append((tuple(n), max_prec))
        return verdict(sys_, n, max_prec)

    verdict = zeta.is_expansive_element
    monkeypatch.setattr(zeta, "is_expansive_element", counted)
    assert cli.main(["analyze", "times2times3"]) == 0
    capsys.readouterr()
    assert sorted(set(decided)) == [((0, 1), 4096), ((1, 0), 4096), ((1, 1), 4096)]


def test_analyze_takes_each_root_log_once(capsys):
    from rankone import exactlog

    exactlog._root_abs_log.cache_clear()
    cli.main(["analyze", "dk-sextic"])
    capsys.readouterr()
    # about a thousand evaluations, four distinct (poly, index, prec) keys;
    # each ExactLog evaluates once per precision, so every lookup comes from
    # a different (ExactLog, precision) pair
    info = exactlog._root_abs_log.cache_info()
    assert info.misses == 4 and info.hits > 900


def test_forced_sextic_zeta_isolates_each_polynomial_once(monkeypatch, capsys):
    # field and generator minimal polynomials come without factoring, and
    # the first ladder rung certifies; the coefficient certification embeds
    # the values once more, from the field polynomial's roots at 119 bits
    calls = []
    isolate = nf._try_isolate

    def counted(poly, prec, work):
        calls.append((poly, prec, work))
        return isolate(poly, prec, work)

    monkeypatch.setattr(nf, "_try_isolate", counted)
    nf._isolate_cached.cache_clear()
    assert cli.main(["zeta", "dk-sextic", "--n", "1,0", "--force"]) == 0
    capsys.readouterr()
    assert sorted(calls) == [
        ((1, -2, -5, -3, -5, -2, 1), 64, 128),
        ((1, -2, -5, -3, -5, -2, 1), 119, 238),
        ((1, 23, 16, -60, 16, 23, 1), 64, 128),
    ]


def test_expansive_classification_ledrappier():
    sys_ = load_fixture("ledrappier")
    assert is_expansive_element(sys_, (1, 1)) is True
    assert is_expansive_element(sys_, (1, -1)) is False  # n1 + n2 = 0
    assert is_expansive_element(sys_, (0, 3)) is False


# --- frozen fits ---------------------------------------------------------------

def test_times2times3_diagonal_factorization():
    sys_ = load_fixture("times2times3")
    zf = inverse_roots(sys_, (1, 1))
    assert zf.mu == 1
    assert exact_values(zf) == [Fraction(1), Fraction(6)]
    assert coeff_by_value(zf) == {Fraction(1): 1, Fraction(6): -1}
    F = count_sequence(sys_, (1, 1), 20)
    res = verify_generating_identity(zf, F, 20)
    assert res == {"ok": True, "max_deviation": 0.0, "failures": []}


def test_times2times3_antidiagonal_factorization():
    sys_ = load_fixture("times2times3")
    zf = inverse_roots(sys_, (1, -1))
    assert zf.mu == 1
    assert coeff_by_value(zf) == {Fraction(2): 1, Fraction(3): -1}


def test_ledrappier_factorizations():
    sys_ = load_fixture("ledrappier")
    zf = inverse_roots(sys_, (1, 1))
    assert coeff_by_value(zf) == {Fraction(4): -1}
    zf = inverse_roots(sys_, (2, 1))
    assert coeff_by_value(zf) == {Fraction(8): -1}
    F = count_sequence(sys_, (2, 1), 12)
    assert verify_generating_identity(zf, F, 12)["ok"]


def test_quartic_diagonal_factorization():
    sys_ = load_fixture("sqrt2sqrt3")
    zf = inverse_roots(sys_, (1, 1))
    assert zf.mu == -1
    assert len(zf.factors) == 14
    doubles = [c for c in zf.factors if c.multiplicity == 2]
    assert len(doubles) == 2
    assert all(c.coefficient == -2 for c in doubles)
    assert {c.coefficient for c in zf.factors} == {-2, -1, 1}
    F = count_sequence(sys_, (1, 1), 20)
    assert verify_generating_identity(zf, F, 20)["ok"]


# --- refusal and failure paths -----------------------------------------------

def test_non_expansive_direction_refused_without_force():
    sys_ = load_fixture("times2times3")
    with pytest.raises(UnsupportedOperationError):
        inverse_roots(sys_, (1, 0))


def test_forced_fit_reports_honest_inconsistency():
    # along (1, 0) Ledrappier's counts follow no finite inverse-root multiset
    sys_ = load_fixture("ledrappier")
    with pytest.raises(FitInconsistencyError):
        inverse_roots(sys_, (1, 0), force=True)


def test_flipped_coefficient_fails_verification():
    c1 = exact_candidate(1)
    c1.coefficient = 1
    c6 = exact_candidate(6)
    c6.coefficient = 1  # wrong sign: the true factorization needs -1
    bad = ZetaFactorization((1, 1), 1, [c1, c6], 0, 64)
    F = count_sequence(load_fixture("times2times3"), (1, 1), 4)
    res = verify_generating_identity(bad, F, 4)
    assert not res["ok"]
    assert res["failures"] == [1, 2, 3, 4]
    assert res["max_deviation"] > 0


def test_flipped_coefficient_of_an_interval_value_fails_verification():
    sys_ = load_fixture("sqrt2sqrt3")
    zf = inverse_roots(sys_, (1, 1))
    F = count_sequence(sys_, (1, 1), 12)
    assert verify_generating_identity(zf, F)["ok"]
    # c = -1 with coefficient -2: flipping it moves F_j by 4 (-1)^j
    flipped = next(c for c in zf.factors if not c.is_exact())
    assert flipped.coefficient == -2
    flipped.coefficient = 2
    res = verify_generating_identity(zf, F)
    assert not res["ok"]
    assert res["failures"] == list(range(1, 13))
    assert res["max_deviation"] > 0


def test_verification_reports_deviations_past_the_float_range():
    # F_1 along (700, 1) is about 2^1110: the deviation of a wrong fit is no
    # float, on the exact path and on the interval path
    sys_ = load_fixture("times2times3")
    zf = inverse_roots(sys_, (700, 1))
    zf.factors[0].coefficient = -zf.factors[0].coefficient
    res = verify_generating_identity(zf, count_sequence(sys_, (700, 1), 3), 3)
    assert res == {"ok": False, "max_deviation": math.inf, "failures": [1, 2, 3]}
    huge = types.SimpleNamespace(
        coefficient=1, exact=None, ball=lambda prec: ComplexBall.from_fractions(2 ** 1100, 3, prec)
    )
    zf = types.SimpleNamespace(candidates=[huge], precision=64)
    res = verify_generating_identity(zf, [0, 0], 2)
    assert res == {"ok": False, "max_deviation": math.inf, "failures": [1, 2]}


# --- direct fit machinery ------------------------------------------------------

def test_fit_exponents_recovers_signs():
    cands = [exact_candidate(1), exact_candidate(6)]
    F = [6 ** j - 1 for j in range(1, 5)]
    coeffs, mu = fit_exponents(cands, F)
    assert coeffs == [1, -1]
    assert mu == 1


def test_fit_exponents_needs_enough_counts():
    cands = [exact_candidate(1), exact_candidate(6)]
    with pytest.raises(ValueError):
        fit_exponents(cands, [5])


def test_fit_exponents_inconsistent_candidates():
    cands = [exact_candidate(1), exact_candidate(5)]
    F = [6 ** j - 1 for j in range(1, 5)]
    with pytest.raises(FitInconsistencyError):
        fit_exponents(cands, F)


def test_fit_exponents_keeps_the_parity_of_the_multiplicity():
    # -1 reproduces 2^j, but two coinciding branches sum to -2, 0 or 2
    cands = [exact_candidate(2, multiplicity=2)]
    with pytest.raises(FitInconsistencyError):
        fit_exponents(cands, [2 ** j for j in range(1, 4)])


def test_fit_exponents_bounds_coefficients_by_multiplicity():
    # -3 reproduces 3 * 2^j, out of reach of a single branch
    cands = [exact_candidate(2, multiplicity=1)]
    with pytest.raises(FitInconsistencyError):
        fit_exponents(cands, [3 * 2 ** j for j in range(1, 4)])


@pytest.mark.parametrize("values", [(2, 2), (0, 3)])
def test_fit_exponents_needs_distinct_nonzero_values(values):
    cands = [exact_candidate(v) for v in values]
    with pytest.raises(ValueError, match="nonzero and distinct"):
        fit_exponents(cands, [2 ** j for j in range(1, 5)])


def test_multiplicity_widens_coefficient_range():
    # candidate value 2 with multiplicity 3: coefficient -3 reproduces 3 * 2^j
    cands = [exact_candidate(2, multiplicity=3)]
    F = [3 * 2 ** j for j in range(1, 4)]
    coeffs, mu = fit_exponents(cands, F)
    assert coeffs == [-3]
    assert mu == 1


# --- serialized shape ----------------------------------------------------------

def test_zeta_json_shape():
    sys_ = load_fixture("times2times3")
    doc = inverse_roots(sys_, (1, 1)).to_json()
    assert doc["convention"] == "inverse-root"
    assert doc["n"] == [1, 1]
    assert doc["mu"] == 1
    assert doc["verified_to"] >= 6
    exact = {f["c"]["value"]: f["lambda"] for f in doc["factors"]}
    assert exact == {"1": 1, "6": -1}
    assert all(f["c"]["type"] == "rational" for f in doc["branches"])


# --- per-call ball caches --------------------------------------------------------

def _bits(ball):
    return (ball.re.mid, ball.re.rad, ball.im.mid, ball.im.rad)


def _uncached_value_ball(value, factors, prec):
    """The value by the arithmetic of _Value.ball, each embedded power
    formed afresh from the factor its (index, power) part names."""
    out = ComplexBall.from_fractions(value.exact, Fraction(0), prec)
    for index, power in value.parts:
        min_poly, emb_index, element = factors[index][1]
        emb = nf.isolate_roots(min_poly, prec)[emb_index]
        out = out.mul(nf.embed(element, emb, prec).pow_int(power, prec), prec)
    return out


def _hull_of(balls, prec):
    ball = balls[0]
    for other in balls[1:]:
        ball = ComplexBall(ball.re.hull(other.re, prec), ball.im.hull(other.im, prec))
    return ball


def _quartic_values_and_merged_cluster():
    sys_ = load_fixture("sqrt2sqrt3")
    factors = zeta._arch_factors(sys_, (1, 1))
    values = _values(sys_, (1, 1), factors)
    clusters = _cluster_values(values, 64)
    merged = next(c for c in clusters if len(c.members) > 1 and not c.is_exact())
    return factors, values, merged


def test_cached_balls_equal_uncached_recompute_per_precision():
    # a merged cluster's ball hulls its values' balls once per subset, in
    # branch order, as when every subset had its own ball
    factors, values, merged = _quartic_values_and_merged_cluster()
    for prec in (64, 128, 64):
        for v in values:
            assert _bits(v.ball(prec)) == _bits(_uncached_value_ball(v, factors, prec))
        uncached = [_uncached_value_ball(v, factors, prec) for v in in_branch_order(merged)]
        assert _bits(merged.ball(prec)) == _bits(_hull_of(uncached, prec))
    assert _bits(values[-1].ball(128)) != _bits(values[-1].ball(64))
    assert _bits(merged.ball(128)) != _bits(merged.ball(64))
    # two copies of x2 beside the golden unit: the values with embedded parts
    # and one copy of 2 each come from two subsets, so are hulled twice
    mixed = parse_descriptor({"d": 1, "components": [
        {"class": "s_integer", "generators": ["2"]}, {"class": "s_integer", "generators": ["2"]},
        {"class": "number_field_units", "min_poly": [-1, -1, 1], "generators": [["0", "1"]]}]})
    factors = zeta._arch_factors(mixed, (1,))
    repeated = [c for c in _cluster_values(_values(mixed, (1,), factors), 64)
                if not c.is_exact() and len(in_branch_order(c)) > len(c.members)]
    assert [c.label_text() for c in repeated] == ["{1,3}|{0,3}", "{1,2}|{0,2}", "{1,2,3}|{0,2,3}"]
    for c in repeated:
        uncached = [_uncached_value_ball(v, factors, 64) for v in in_branch_order(c)]
        assert _bits(c.ball(64)) == _bits(_hull_of(uncached, 64))


def test_negated_balls_are_negations():
    # mu = -1 negates a candidate by its sign: its ball is the hull of its
    # members' negated balls, bit for bit, as when each member was negated
    _, _, merged = _quartic_values_and_merged_cluster()
    negated = merged.negated()
    assert negated.members == merged.members and negated.sign == -1
    for prec in (64, 128):
        expected = _hull_of([v.ball(prec).neg() for v in in_branch_order(merged)], prec)
        assert _bits(negated.ball(prec)) == _bits(expected)
        assert _bits(negated.ball(prec)) == _bits(merged.ball(prec).neg())


def test_repeated_fits_on_one_system_match_fresh_loads():
    directions = ((1, 1), (-1, 2))
    sys_ = load_fixture("sqrt2sqrt3")
    first = [inverse_roots(sys_, n).to_json() for n in directions]
    again = [inverse_roots(sys_, n).to_json() for n in directions]
    fresh = [inverse_roots(load_fixture("sqrt2sqrt3"), n).to_json() for n in directions]
    assert first == again == fresh


# --- periodic data detects entropy -----------------------------------------------


@pytest.mark.parametrize(
    "name, n",
    [
        ("times2times3", (1, 1)),
        ("times2times3", (2, -1)),
        ("times2times3", (-1, 2)),
        ("sqrt2sqrt3", (1, 1)),
        ("sqrt2sqrt3", (-1, 2)),
    ],
)
def test_entropy_is_log_of_largest_fitted_inverse_root(name, n):
    # along an expansive direction the counts grow like exp(j h): the
    # largest inverse root the fit keeps has log |c| = h, a third route to
    # the entropy next to the character sum and the count growth
    sys_ = load_fixture(name)
    zf = inverse_roots(sys_, n)
    prec = zf.precision
    squares = [
        RealBall.from_fraction(c.exact ** 2, prec) if c.exact is not None
        else c.ball(prec).abs2(prec)
        for c in zf.factors
    ]
    largest = functools.reduce(lambda a, b: a.max_with(b, prec), squares)
    log_largest = largest.log(prec).mul(RealBall.from_fraction(Fraction(1, 2), prec), prec)
    assert relative_width(log_largest) < 1e-12
    assert directional_entropy(sys_, n, prec).overlaps(log_largest)


# --- candidate separation walks the precision ladder ------------------------------

@pytest.mark.parametrize("precision, max_prec, ladder", [(16, 40, [16, 32, 40]), (64, 40, [])])
def test_inverse_roots_separation_ladder(monkeypatch, precision, max_prec, ladder):
    seen = []

    def never_separated(values, prec):
        seen.append(prec)
        return None

    monkeypatch.setattr(zeta, "_cluster_values", never_separated)
    with pytest.raises(UndecidedError, match="separating zeta candidate values"):
        inverse_roots(load_fixture("sqrt2sqrt3"), (2, -1), precision=precision, max_prec=max_prec)
    assert seen == ladder


# --- distinct exact values before the branches ----------------------------------

def test_exact_values_are_counted_before_the_branches(monkeypatch):
    class BranchesBuilt(Exception):
        pass

    def refuse(*args):
        raise BranchesBuilt

    monkeypatch.setattr(zeta, "_values", refuse)
    # 10,001 distinct values: the fit reads 10,003 periods, and period 34
    # is the first over the budget at 30,000 bits each
    copies = parse_descriptor({"d": 1, "components": [
        {"class": "s_integer", "multiplicity": 10000, "generators": ["2"]}]})
    with pytest.raises(ResourceCapError) as err:
        inverse_roots(copies, (1,))
    assert str(err.value) == "estimated size 1020000 bits exceeds the 1000000-bit budget"
    with pytest.raises(ValueError) as err:
        inverse_roots(load_fixture("times2times3"), (1, 1), j_check=3)
    assert str(err.value) == "need at least 4 count terms for 2 candidate values"
    # number-field values are embedded, so none is counted before the branches
    with pytest.raises(BranchesBuilt):
        inverse_roots(load_fixture("sqrt2sqrt3"), (1, 2))


@pytest.mark.parametrize("components, n", [
    ([("s_integer", 3, ["2", "3"])], (1, -1)),
    ([("s_integer", 2, ["-2", "3"]), ("s_integer", 1, ["-1/2", "3"])], (1, 0)),
    ([("s_integer", 2, ["-2", "3"]), ("s_integer", 1, ["-1/2", "3"])], (1, 1)),
    ([("s_integer", 4, ["-1", "2"]), ("s_integer", 2, ["1/2", "5"])], (3, 1)),
    ([("s_integer", 2, ["6", "4"]), ("s_integer", 3, ["2/3", "-9/4"])], (2, -1)),
    ([("s_integer", 3, ["2", "3"]), ("s_integer", 2, ["1/2", "1/3"])], (1, 1)),
    ([("s_integer", 3, ["-2", "3"]), ("s_integer", 3, ["1/2", "-1/3"])], (1, 0)),
    ([("s_integer", 2, ["-2", "3"]), ("s_integer", 3, ["-1/2", "-1/3"])], (1, 1)),
])
def test_distinct_exact_values_match_the_branches(components, n):
    sys_ = parse_descriptor({"d": len(n), "components": [
        {"class": kind, "multiplicity": m, "generators": gens} for kind, m, gens in components]})
    factors = zeta._arch_factors(sys_, n)
    values = _values(sys_, n, factors)
    K = zeta._distinct_exact_values(factors)
    # the exponent keys part the values as their Fractions do
    assert K == len(values) == len({v.exact for v in values})
    assert K == len(_cluster_values(values, 64))
    for name, n, K in (("ledrappier", (1, 1), 1), ("dk-sextic", (1, 1), None)):
        assert zeta._distinct_exact_values(zeta._arch_factors(load_fixture(name), n)) == K


def test_equal_exact_values_share_one_ball(monkeypatch):
    # three copies of x2, each of multiplicity 20: 9,261 branches take the
    # 61 values g 2^-k = 2^(60-k), one object and one ball each
    copies = parse_descriptor({"d": 1, "components": [
        {"class": "s_integer", "multiplicity": 20, "generators": ["2"]}] * 3})
    values = values_of(copies, (1,))
    built = []
    ball = _Value.ball
    monkeypatch.setattr(_Value, "ball", lambda v, prec: built.append(v) or ball(v, prec))
    clusters = _cluster_values(values, 64)
    assert len(values) == 61 and len(built) == 61
    assert [c.exact for c in clusters] == [Fraction(2 ** (60 - k)) for k in range(61)]
    assert [c.multiplicity for c in clusters] == [math.comb(60, k) for k in range(61)]
    # value k holds the subsets with k copies in all, in branch order
    subsets = list(itertools.product(range(21), repeat=3))
    assert [s for c in clusters for v in c.members for s in v.subsets] == sorted(subsets, key=sum)


# --- clustering by a sweep over the real parts ---------------------------------

def all_pairs_classes(balls):
    """The overlap classes by testing every pair, as clustering did before
    the sweep."""
    parent = list(range(len(balls)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(balls)):
        for k in range(i + 1, len(balls)):
            if not balls[i].box_disjoint(balls[k]):
                parent[find(i)] = find(k)
    groups = {}
    for i in range(len(balls)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


def test_branch_multiplicities_are_binomials(monkeypatch):
    # C(m, k) come from rows built term by term, never math.comb: each value
    # carries the sum of prod C(m_i, k_i) over its subsets, and g * prod
    # f_i^k_i of each of them
    s_integer = parse_descriptor({"d": 1, "components": [
        {"class": "s_integer", "multiplicity": 40, "generators": ["2/3"]}]})
    doubled = parse_descriptor({"d": 2, "components": [
        {"class": "number_field_units", "multiplicity": 2, "min_poly": [1, 0, -10, 0, 1],
         "generators": [["1", "-9/2", "0", "1/2"], ["2", "11/2", "0", "-1/2"]]}]})
    for sys_, n in ((s_integer, (1,)), (s_integer, (-2,)), (doubled, (1, -1)), (load_fixture("times2times3"), (1, 2))):
        g = zeta._growth_factor(sys_, n)
        factors = zeta._arch_factors(sys_, n)
        exact = [None if exps is None else math.prod(Fraction(p) ** k for p, k in exps.items())
                 for exps, _, _ in factors]
        labels = list(itertools.product(*(range(m + 1) for _, _, m in factors)))
        expected = {
            label: (math.prod(math.comb(m, k) for (_, _, m), k in zip(factors, label)),
                    g * math.prod(f ** k for f, k in zip(exact, label) if f is not None),
                    tuple((i, k) for i, (f, k) in enumerate(zip(exact, label)) if f is None and k))
            for label in labels
        }
        with monkeypatch.context() as patch:
            patch.setattr(math, "comb", None)
            values = _values(sys_, n, factors)
        assert sorted(s for v in values for s in v.subsets) == labels, n
        assert [v.subsets[0] for v in values] == sorted(v.subsets[0] for v in values), n
        for v in values:
            assert v.subsets == sorted(v.subsets), n
            assert v.multiplicity == sum(expected[s][0] for s in v.subsets), n
            assert {expected[s][1:] for s in v.subsets} == {(v.exact, v.parts)}, n


def test_sweep_classes_equal_all_pairs_classes(monkeypatch):
    rng = random.Random(17)

    def box(re, im, rad_re, rad_im, scale=1):
        def side(x, width):
            lo, hi = Fraction(x) * scale, Fraction(x + width) * scale
            return RealBall.from_fraction(lo, 53).hull(RealBall.from_fraction(hi, 53), 53)

        return ComplexBall(side(re, rad_re), side(im, rad_im))

    for trial in range(60):
        size = rng.randint(0, 40)
        # few distinct centres, so boxes touch, nest, tie on the real lower
        # end and chain; some wide boxes span many others
        centres = [rng.randint(-6, 6) / 4 for _ in range(8)]
        balls = []
        for _ in range(size):
            re, im = rng.choice(centres), rng.choice(centres)
            wide = rng.random() < 0.1
            balls.append(box(re, im, rng.choice([0.0, 0.1, 0.25, 2.0 if wide else 0.05]),
                             rng.choice([0.0, 0.1, 0.25, 0.3])))
        assert zeta._overlap_classes(balls) == all_pairs_classes(balls)
    # values past 2^1024, where float ends would all be infinite: 200
    # disjoint boxes on a line take one test per neighbouring pair
    balls = [box(k, 0, 0.5, 0, 2 ** 1100) for k in range(200)]
    rng.shuffle(balls)
    tests = []
    disjoint = ComplexBall.box_disjoint
    monkeypatch.setattr(ComplexBall, "box_disjoint", lambda a, b: tests.append(1) or disjoint(a, b))
    assert zeta._overlap_classes(balls) == [[k] for k in range(200)]
    assert len(tests) == 0
    balls.append(box(-1, 0, 300, 0, 2 ** 1100))  # one box over all the others
    assert zeta._overlap_classes(balls) == [list(range(201))]
    assert len(tests) == 200


def test_sextic_clusters_are_unchanged_by_the_sweep():
    sextic = load_fixture("dk-sextic")
    values = values_of(sextic, (1, 1))
    balls = [v.ball(64) for v in values]
    assert zeta._overlap_classes(balls) == all_pairs_classes(balls)
    assert len(_cluster_values(values, 64)) == 27


# --- the integer solve against the ComplexBall residue solve --------------------

def _times_int(z, k, prec):
    """z times the int k, as the deleted ComplexBall.mul_real computed it."""
    r = RealBall.from_int(k)
    return ComplexBall(z.re.mul(r, prec), z.im.mul(r, prec))


def _ball_start_precision(balls, values, prec):
    """The start estimate of fit_exponents, from ComplexBall.sub of every
    ordered pair."""
    def log2_abs(z):
        return max(exp + bc for _, man, exp, bc in (z.re.mid, z.im.mid) if man)

    logs = [log2_abs(b) for b in balls]
    loss = max(
        -logs[i]
        + sum(
            max(logs[k], 0) + 1 - log2_abs(b.sub(balls[k], prec))
            for k in range(len(balls))
            if k != i
        )
        for i, b in enumerate(balls)
    )
    return loss + max(abs(v).bit_length() for v in values) + 16


def _ball_fit(candidates, F, precision):
    """The residue solve of fit_exponents with every product a ComplexBall
    product, as it ran before the fixed-point boxes: (coefficients, mu,
    certifying precision), or the exception type and the last precision."""
    values = zeta._count_values(F)
    K = len(candidates)
    balls = [c.ball(precision) for c in candidates]
    if any(b.contains_zero() for b in balls) or any(
        not b.box_disjoint(other) for i, b in enumerate(balls) for other in balls[i + 1:]
    ):
        return UndecidedError, None
    start = max(precision, _ball_start_precision(balls, values[:K], precision))
    rejected = set()
    prec = None
    for prec in precisions(start, HARD_PRECISION):
        cs = [c.members[0].ball(prec) for c in candidates]
        P = [ComplexBall(RealBall.one(), RealBall.zero())]
        for c in cs:
            nc = c.neg()
            P = (
                [P[0]]
                + [P[i].add(P[i - 1].mul(nc, prec), prec) for i in range(1, len(P))]
                + [P[-1].mul(nc, prec)]
            )
        D = list(cs)
        for i in range(K):
            for k in range(i + 1, K):
                diff = cs[i].sub(cs[k], prec)
                D[i] = D[i].mul(diff, prec)
                D[k] = D[k].mul(diff.neg(), prec)
        try:
            inv_d = [d.recip(prec) for d in D]
        except ZeroDivisionError:
            continue
        for mu in (1, -1):
            if mu in rejected:
                continue
            Pmu = [p.neg() if mu < 0 and t % 2 else p for t, p in enumerate(P)]
            N = []
            for i in range(1, len(values) + 1):
                acc = _times_int(Pmu[0], values[i - 1], prec)
                for t in range(1, min(i, K + 1)):
                    acc = acc.add(_times_int(Pmu[t], values[i - t - 1], prec), prec)
                N.append(acc)
            if not all(x.contains_zero() for x in N[K:]):
                rejected.add(mu)
                continue
            ranges = []
            for c, r, cand in zip(cs, inv_d, candidates):
                w = c if mu > 0 else c.neg()
                acc = N[0]
                for x in N[1:K]:
                    acc = acc.mul(w, prec).add(x, prec)
                a = _times_int(acc.mul(r, prec), -(mu ** K), prec)
                ranges.append(zeta._admissible(a, cand.multiplicity))
            if not all(ranges):
                rejected.add(mu)
                continue
            if all(len(r) == 1 for r in ranges):
                return [r[0] for r in ranges], mu, prec
            break
        if len(rejected) == 2:
            return FitInconsistencyError, prec
    return UndecidedError, prec


def _integer_fit(monkeypatch, candidates, F, precision):
    """fit_exponents with the precision it certified at, in _ball_fit's form."""
    rungs = [None]

    def ladder(start, cap):
        for prec in precisions(start, cap):
            rungs.append(prec)
            yield prec

    with monkeypatch.context() as patch:
        patch.setattr(zeta, "precisions", ladder)
        try:
            coeffs, mu = fit_exponents(candidates, F, precision)
        except (UndecidedError, FitInconsistencyError) as exc:
            return type(exc), rungs[-1]
    return coeffs, mu, rungs[-1]


def _fit_calls(monkeypatch, sys_, n, force):
    """Every fit_exponents call that inverse_roots makes."""
    calls = []
    fit = zeta.fit_exponents

    def kept(candidates, F, precision):
        calls.append((candidates, F, precision))
        return fit(candidates, F, precision)

    with monkeypatch.context() as patch:
        patch.setattr(zeta, "fit_exponents", kept)
        inverse_roots(sys_, n, force=force)
    return calls


_QUARTIC_TWICE = {"d": 2, "components": [
    {"class": "number_field_units", "multiplicity": 2, "min_poly": [1, 0, -10, 0, 1],
     "generators": [["1", "-9/2", "0", "1/2"], ["2", "11/2", "0", "-1/2"]]}]}
_COPIES_40 = {"d": 1, "components": [
    {"class": "s_integer", "multiplicity": 40, "generators": ["2/3"]}]}
_SMALL_VALUES = {"d": 1, "components": [
    {"class": "s_integer", "multiplicity": 3, "generators": ["1/1024"]},
    {"class": "s_integer", "generators": ["3"]}]}


_SQUARE = [n for n in itertools.product(range(-2, 3), repeat=2) if any(n)]
_CUBE = [n for n in itertools.product(range(-1, 2), repeat=3) if any(n)]


@pytest.mark.parametrize(
    "system, directions, force",
    [
        ("times2times3", _SQUARE, False),
        ("ledrappier", _SQUARE, False),
        ("sqrt2sqrt3", _SQUARE, False),
        ("dk-sextic", _SQUARE, True),
        ("times2times3times5", _CUBE, False),
        (_QUARTIC_TWICE, [(-1, -2)], False),
        (_COPIES_40, [(1,), (-1,)], False),
        (_SMALL_VALUES, [(5,), (-5,)], False),
    ],
    ids=["times2times3", "ledrappier", "sqrt2sqrt3", "dk-sextic", "times2times3times5",
         "quartic-twice", "copies-40", "small-values"],
)
def test_integer_solve_matches_ball_solve(monkeypatch, system, directions, force):
    # the fixed-point boxes decide as the ComplexBall products did: the same
    # coefficients and mu, certified at the same precision, or the same failure
    sys_ = load_fixture(system) if isinstance(system, str) else parse_descriptor(system)
    fits = 0
    for n in directions:
        if not force and not is_expansive_element(sys_, n):
            continue
        for candidates, F, precision in _fit_calls(monkeypatch, sys_, n, force):
            expected = _ball_fit(candidates, F, precision)
            assert _integer_fit(monkeypatch, candidates, F, precision) == expected, (n, precision)
            fits += isinstance(expected[0], list)
    assert fits >= 1


# --- fixed-point Gaussian boxes ----------------------------------------------------

def _box_points(box, s, rng):
    """The four corners of a box and two random points inside it, as exact
    Gaussian rationals (re, im)."""
    scale = 1 << s
    offsets = [(a, b) for a in (-box.e, box.e) for b in (-box.e, box.e)]
    def inside():
        return Fraction(rng.randint(-box.e * 64, box.e * 64), 64)

    offsets += [(inside(), inside()) for _ in range(2)]
    return [(Fraction(box.x + a, scale), Fraction(box.y + b, scale)) for a, b in offsets]


def _box_holds(box, s, point):
    re, im = point
    return abs(re * (1 << s) - box.x) <= box.e and abs(im * (1 << s) - box.y) <= box.e


def _random_box(rng):
    def part():
        return rng.choice([-1, 1]) * rng.getrandbits(rng.choice([0, 3, 40, 120]))

    return zeta._Box(part(), part(), rng.choice([0, 1, rng.getrandbits(4), rng.getrandbits(50)]))


def test_boxes_enclose_exact_images():
    # each operation and conversion encloses the exact image of the corners
    # and of random interior points of its operands
    rng = random.Random(2020)
    Box = zeta._Box
    for trial in range(250):
        s = rng.choice([0, 1, 7, 64, 200])
        a, b = _random_box(rng), _random_box(rng)
        k = rng.choice([0, 1, -1, rng.randint(-10 ** 6, 10 ** 6)])
        pa, pb = _box_points(a, s, rng), _box_points(b, s, rng)
        for (r1, i1) in pa:
            assert _box_holds(a.neg(), s, (-r1, -i1))
            assert _box_holds(a.mul_int(k), s, (k * r1, k * i1))
            for (r2, i2) in pb:
                assert _box_holds(a.add(b), s, (r1 + r2, i1 + i2))
                assert _box_holds(a.sub(b), s, (r1 - r2, i1 - i2))
                assert _box_holds(a.mul(b, s), s, (r1 * r2 - i1 * i2, r1 * i2 + i1 * r2))
        ball = a.to_ball(s)
        assert all(contains(ball.re, r) and contains(ball.im, i) for r, i in pa)
        # a ComplexBall with random midpoints and radii, one radius often zero
        parts = [
            RealBall(
                from_man_exp(rng.choice([-1, 1]) * rng.getrandbits(rng.choice([1, 30, 90])),
                             rng.randint(-150, 20)),
                from_man_exp(rng.choice([0, rng.getrandbits(30)]), rng.randint(-150, 0)),
            )
            for _ in range(2)
        ]
        z = ComplexBall(*parts)
        (re_lo, re_hi), (im_lo, im_hi) = (ball_to_fraction_bounds(p) for p in parts)
        box = Box.from_ball(z, s)
        for t in (Fraction(0), Fraction(1), Fraction(rng.randint(0, 64), 64)):
            for u in (Fraction(0), Fraction(1), Fraction(rng.randint(0, 64), 64)):
                point = (re_lo + t * (re_hi - re_lo), im_lo + u * (im_hi - im_lo))
                assert _box_holds(box, s, point)
        q = rng.choice([k, Fraction(k, rng.randint(1, 10 ** 9)), Fraction(rng.getrandbits(100), 3)])
        assert _box_holds(Box.from_fraction(q, s), s, (Fraction(q), Fraction(0)))
