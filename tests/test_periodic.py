"""Periodic point counts: golden grids, closed forms, invariants, oracle."""

import itertools
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import propsuites
from rankone import INFINITE, count, count_sequence, det_oracle, grid, load_fixture
from rankone import numberfield as nf
from rankone import defaults, periodic
from rankone.errors import ResourceCapError, UnsupportedOperationError
from rankone.fppoly import FpPoly, FpRationalFunction, fp_ord_at, fp_ord_infinity
from rankone.linalg import det
from rankone.periodic import _companion_multiplication_matrix
from rankone.rationals import prime_to_s_part
from rankone.system import parse_descriptor

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_times2times3_window_matches_golden():
    sys_ = load_fixture("times2times3")
    got = grid(sys_, [(-5, 5), (0, 5)]).to_csv()
    assert got == (GOLDEN / "times2times3_counts.csv").read_text()


def test_ledrappier_window_matches_golden():
    sys_ = load_fixture("ledrappier")
    got = grid(sys_, [(-5, 5), (0, 5)]).to_csv()
    assert got == (GOLDEN / "ledrappier_counts.csv").read_text()


def test_times2times3_closed_form_along_diagonal():
    sys_ = load_fixture("times2times3")
    for j in range(1, 8):
        assert count(sys_, (1, 1), j) == 6 ** j - 1


def test_times2times3_antidiagonal_closed_form():
    sys_ = load_fixture("times2times3")
    for j in range(1, 8):
        assert count(sys_, (1, -1), j) == 3 ** j - 2 ** j


def test_ledrappier_horizontal_closed_form():
    # |F_(n,0)| = 2^(n - 2^ord2(n))
    sys_ = load_fixture("ledrappier")
    for n in range(1, 6):
        ord2 = (n & -n).bit_length() - 1
        assert count(sys_, (n, 0)) == 2 ** (n - 2 ** ord2)


def test_identity_element_is_infinite():
    for name in ("times2times3", "ledrappier", "sqrt2sqrt3"):
        assert count(load_fixture(name), (0, 0), 3) == INFINITE
    assert not INFINITE.is_finite
    assert INFINITE.as_text() == "inf"
    assert INFINITE.as_json() is None


def test_count_validates_arguments():
    sys_ = load_fixture("times2times3")
    with pytest.raises(ValueError):
        count(sys_, (1, 1), 0)
    with pytest.raises(ValueError):
        count(sys_, (1, 1, 1), 1)


def test_bit_budget_cap(monkeypatch):
    sys_ = load_fixture("times2times3")
    with pytest.raises(ResourceCapError):
        count(sys_, (10 ** 6, 10 ** 6), 1)
    # a looser budget admits moderately large exponents
    monkeypatch.setattr(defaults, "DEFAULT_BIT_BUDGET", 10 ** 7)
    assert count(sys_, (100, 100), 1).is_finite


def test_bit_budget_sums_multiplicity_and_components(monkeypatch):
    # times2times3 is estimated at 3 bits per unit of |n|, sqrt2sqrt3 at 96
    def s_integer(*multiplicities):
        return parse_descriptor({"label": "s", "d": 2, "components": [
            {"class": "s_integer", "multiplicity": m, "generators": ["2", "3"]}
            for m in multiplicities
        ]})

    monkeypatch.setattr(defaults, "DEFAULT_BIT_BUDGET", 11)
    assert count(s_integer(1), (1, 1)).is_finite
    for sys_ in (s_integer(2), s_integer(1, 1)):
        with pytest.raises(ResourceCapError, match="estimated size 12 bits"):
            count(sys_, (1, 1))
    doubled = parse_descriptor({"label": "q", "d": 2, "components": [
        {"class": "number_field_units", "multiplicity": 2, "min_poly": [1, 0, -10, 0, 1],
         "generators": [["1", "-9/2", "0", "1/2"], ["2", "11/2", "0", "-1/2"]]}]})
    monkeypatch.setattr(defaults, "DEFAULT_BIT_BUDGET", 191)
    for route in (count, det_oracle):
        assert route(load_fixture("sqrt2sqrt3"), (1, 0)).is_finite
        with pytest.raises(ResourceCapError, match="estimated size 192 bits"):
            route(doubled, (1, 0))


def test_count_sequence_checks_the_budget_before_any_count(monkeypatch):
    # the estimate at n = (1, 1) is 6 bits per period, so j = 4 is the first
    # period over a 20-bit budget
    sys_ = load_fixture("times2times3")
    monkeypatch.setattr(defaults, "DEFAULT_BIT_BUDGET", 20)
    assert count_sequence(sys_, (1, 1), 3) == [5, 35, 215]
    (comp, _), = sys_.components

    def refuse(exponents):
        raise AssertionError("a count ran before the budget check")

    monkeypatch.setattr(comp, "count_factor", refuse)
    for j_max in (4, 10 ** 9):
        with pytest.raises(ResourceCapError) as err:
            count_sequence(sys_, (1, 1), j_max)
        assert str(err.value) == "estimated size 24 bits exceeds the 20-bit budget"
    monkeypatch.setattr(defaults, "DEFAULT_BIT_BUDGET", -1)
    with pytest.raises(ResourceCapError, match="estimated size 0 bits exceeds the -1-bit budget"):
        count_sequence(sys_, (0, 0), 2)
    with pytest.raises(ValueError, match="expected a Z\\^2 element"):
        count_sequence(sys_, (1, 1, 1), 2)


def test_grid_checks_each_counted_point_in_box_order(monkeypatch):
    sys_ = load_fixture("times2times3")
    checked = []
    real_bits = defaults.count_bits

    def bits(bit_height, exponents):
        checked.append(tuple(exponents))
        return real_bits(bit_height, exponents)

    monkeypatch.setattr(defaults, "count_bits", bits)
    # the corner (-3, 2) is estimated at 15 bits
    monkeypatch.setattr(defaults, "DEFAULT_BIT_BUDGET", 15)
    assert grid(sys_, [(-3, 3), (0, 2)]).entries[(-3, 2)] == 3 ** 2 - 2 ** 3
    # every point is checked where it is counted: all but (1, 0), (2, 0) and
    # (3, 0), which take the counts of their mirrors
    box = itertools.product(range(-3, 4), range(0, 3))
    assert checked == [n for n in box if n[1] or n[0] <= 0]
    # over the budget, the message names the first point over it
    checked.clear()
    monkeypatch.setattr(defaults, "DEFAULT_BIT_BUDGET", 12)
    with pytest.raises(ResourceCapError) as err:
        grid(sys_, [(-3, 3), (0, 2)])
    assert str(err.value) == "estimated size 15 bits exceeds the 12-bit budget"
    assert checked == [(-3, 0), (-3, 1), (-3, 2)]


def test_grid_caps_the_summed_size_before_any_count(monkeypatch):
    sys_ = load_fixture("times2times3")
    ranges = [(-4, 3), (2, 5)]
    # the cap sits exactly at the box's summed estimate, point by point
    total = sum(defaults.count_bits(sys_.bit_height, [2 * c for c in n]) for n in itertools.product(range(-4, 4), range(2, 6)))
    monkeypatch.setattr(defaults, "MAX_GRID_BITS", total)
    assert grid(sys_, ranges, j=2).entries[(3, 5)] == count(sys_, (3, 5), 2)
    (comp, _), = sys_.components

    def refuse(exponents):
        raise AssertionError("a count ran before the summed-size check")

    monkeypatch.setattr(comp, "count_factor", refuse)
    monkeypatch.setattr(defaults, "MAX_GRID_BITS", total - 1)
    with pytest.raises(ResourceCapError) as err:
        grid(sys_, ranges, j=2)
    assert str(err.value) == f"estimated size {total} bits of all counts exceeds the grid cap of {total - 1} bits"
    for lo, hi in [(-4, 3), (2, 5), (-5, -2), (0, 0), (-3, 0), (7, 7), (-6, -6)]:
        assert defaults._abs_sum(lo, hi) == sum(abs(n) for n in range(lo, hi + 1))


def _function_field_reference(comp, exponents):
    # reduced rational functions all the way: h - 1 formed and reduced, then
    # its order read at every marked place
    one = FpRationalFunction.one(comp.p)
    h = one
    for g, e in zip(comp.generators, exponents):
        h = h.mul(g.pow(e))
    if h.is_one():
        return None
    g = h.sub(one)
    exponent = -sum((fp_ord_at(g.num, pi) - fp_ord_at(g.den, pi)) * pi.degree for pi in comp.finite_places)
    if comp.infinite_place_needed:
        exponent -= fp_ord_infinity(g)
    return comp.p ** exponent


@pytest.mark.parametrize("characteristic, generators, at_infinity, infinite", [
    # t^2 + 1 and t^2 + t + 2 are irreducible over F_3; (2, 1) gives h = 1
    (3, ["(t^2+1)/(t+2)", "((t+2)/(t^2+1))^2"], True, 9),
    (3, ["(t^2+1)/(t+2)", "t^2/(t^2+t+2)"], True, 3),
    # t^2 + 2 is irreducible over F_5; (1, 1) gives h = 1
    (5, ["(t^2+2)/(t+1)^2", "(t+1)^2/(t^2+2)"], False, 21),
    (5, ["(t^2+2)*t/(t+1)^3", "(2*t+3)/(t^2+2)"], True, 3),
])
def test_function_field_kernel_matches_reduced_route(characteristic, generators, at_infinity, infinite):
    sys_ = parse_descriptor({"d": 2, "components": [
        {"class": "function_field", "characteristic": characteristic, "generators": generators}]})
    (comp, _), = sys_.components
    assert any(pi.degree == 2 for pi in comp.finite_places)
    assert comp.infinite_place_needed == at_infinity
    found = 0
    for n in itertools.product(range(-3, 4), repeat=2):
        for j in (1, 2, 3):
            exponents = [j * c for c in n]
            expected = _function_field_reference(comp, exponents)
            assert comp.count_factor(exponents) == expected, (n, j)
            found += expected is None
    assert found == infinite


def test_characteristic_2_splits_equal_degree_factors():
    # t^6 + ... + 1 = (t^3 + t + 1)(t^3 + t^2 + 1) over F_2: both factors have
    # degree 3, so the trace map has to split them
    cubics = [FpPoly(2, [1, 1, 0, 1]), FpPoly(2, [1, 0, 1, 1])]
    assert FpPoly(2, [1] * 7).factor() == [cubics[1], cubics[0]]
    sys_ = parse_descriptor({"d": 1, "components": [
        {"class": "function_field", "characteristic": 2, "generators": ["t^6+t^5+t^4+t^3+t^2+t+1"]}]})
    (comp, _), = sys_.components
    assert set(comp.finite_places) == set(cubics) and comp.infinite_place_needed
    # g - 1 is a unit at both cubics, with a pole of order 6 n at infinity
    assert [count(sys_, (n,)) for n in (1, 2)] == [64, 4096]


def _s_integer_reference(comp, exponents):
    h = Fraction(1)
    for r, e in zip(comp.generators, exponents):
        h *= r ** e
    return None if h == 1 else prime_to_s_part(abs(h.numerator - h.denominator), comp.s_primes)


def test_s_integer_kernel_matches_fraction_route():
    # the power products share primes, so N / D is not reduced, and
    # (6/5)^4 (-25/36)^2 = 1
    sys_ = parse_descriptor({"d": 2, "components": [
        {"class": "s_integer", "multiplicity": 2, "generators": ["6/5", "-25/36"]}]})
    (comp, _), = sys_.components
    for n in itertools.product(range(-5, 6), repeat=2):
        for j in (1, 2):
            exponents = [j * c for c in n]
            assert comp.count_factor(exponents) == _s_integer_reference(comp, exponents), (n, j)
    assert comp.count_factor((4, 2)) is None
    # N / D = -150 / 180 = -5 / 6, so the factor is |-5 - 6| = 11
    assert count(sys_, (1, 1)) == 11 ** 2


def test_number_field_kernel_matches_det_oracle():
    # sqrt2sqrt3's generators have half-integer coordinates
    doubled = parse_descriptor({"d": 2, "components": [
        {"class": "number_field_units", "multiplicity": 2, "min_poly": [1, 0, -10, 0, 1],
         "generators": [["1", "-9/2", "0", "1/2"], ["2", "11/2", "0", "-1/2"]]}]})
    for sys_ in (load_fixture("sqrt2sqrt3"), doubled):
        for n in itertools.product(range(-2, 3), repeat=2):
            for j in (1, 2):
                assert count(sys_, n, j) == det_oracle(sys_, n, j), (n, j)


HALVES = {"d": 2, "components": [
    {"class": "number_field_units", "multiplicity": 2, "min_poly": [1, 0, -10, 0, 1],
     "generators": [["1", "-9/2", "0", "1/2"], ["2", "11/2", "0", "-1/2"]]}]}


def _fraction_norm_reference(comp, exponents):
    # Fractions all the way: h from el_pow and el_mul, h - 1 formed, and the
    # determinant of its Fraction multiplication matrix
    spec = comp.field
    h = nf.el_one(spec)
    for g, e in zip(comp.generators, exponents):
        h = nf.el_mul(spec, h, nf.el_pow(spec, g, e))
    if h == nf.el_one(spec):
        return None
    value = det(_companion_multiplication_matrix(spec.min_poly, (h[0] - 1,) + h[1:]))
    assert value.denominator == 1
    return abs(value.numerator)


def test_integer_norm_matches_fraction_reference_and_oracle():
    # every +-n of each box, so negative exponents and h = 1 at n = 0; the
    # half-integer generators put a denominator on h
    for sys_, r, fractional in ((load_fixture("sqrt2sqrt3"), 3, True), (load_fixture("dk-sextic"), 2, False),
                                (parse_descriptor(HALVES), 3, True)):
        (comp, mult), = sys_.components
        denominators = set()
        for n in itertools.product(range(-r, r + 1), repeat=2):
            for j in (1, 2):
                exponents = [j * c for c in n]
                expected = _fraction_norm_reference(comp, exponents)
                assert comp.count_factor(exponents) == expected, (sys_.label, n, j)
                value = INFINITE if expected is None else expected ** mult
                assert count(sys_, n, j) == det_oracle(sys_, n, j) == value, (sys_.label, n, j)
                denominators.add(comp._product_coords(exponents)[1])
        assert (max(denominators) > 1) == fractional, sys_.label


@pytest.mark.parametrize("name", ["times2times3", "ledrappier", "sqrt2sqrt3", "dk-sextic", "big-root"])
def test_estimate_bounds_the_count_from_above(name):
    # big-root: x^2 - 1000x + 1, whose count at n has about 10n bits while
    # its generator's coordinates take 2 bits
    if name == "big-root":
        sys_ = parse_descriptor({"d": 1, "components": [
            {"class": "number_field_units", "min_poly": [1, -1000, 1], "generators": [["0", "1"]]}]})
    else:
        sys_ = load_fixture(name)
    for n in itertools.product(range(-6, 7), repeat=sys_.d):
        value = count(sys_, n, 3)
        if value.is_finite:
            assert value.value.bit_length() <= defaults.count_bits(sys_.bit_height, [3 * c for c in n]), n


SYMMETRY_SYSTEMS = [
    # generators phi and phi^2 of Q(sqrt5): alpha^(2, -1) is the identity
    {"d": 2, "components": [{"class": "number_field_units", "min_poly": [-1, -1, 1],
                             "generators": [["0", "1"], ["1", "1"]]}]},
    {"d": 2, "components": [{"class": "s_integer", "multiplicity": 2, "generators": ["6/5", "-25/36"]}]},
    {"d": 2, "components": [
        {"class": "s_integer", "generators": ["2", "3"]},
        {"class": "function_field", "characteristic": 3, "generators": ["(t^2+1)/(t+2)", "t^2/(t^2+t+2)"]}]},
]


def test_count_is_even_in_n():
    """count(n, j) == count(-n, j), each computed directly: alpha^n x = x
    exactly when alpha^-n x = x.  grid reuses a count for its mirror."""
    systems = [load_fixture(name) for name in
               ("times2times3", "ledrappier", "sqrt2sqrt3", "dk-sextic", "times2times3times5")]
    systems += [parse_descriptor(descriptor) for descriptor in SYMMETRY_SYSTEMS]
    phi = systems[5]
    pairs = phi_infinite = 0
    for sys_ in systems:
        for n in itertools.product(range(-4, 5), repeat=sys_.d):
            minus_n = tuple(-c for c in n)
            if n < minus_n:
                for j in (1, 2):
                    value = count(sys_, n, j)
                    assert count(sys_, minus_n, j) == value, (sys_.label, n, j)
                    pairs += 1
                    phi_infinite += sys_ is phi and not value.is_finite
    assert pairs == 1288
    # phi, phi^2: (-2, 1) and (-4, 2) at j = 1, 2, and their mirrors
    assert 2 * phi_infinite == 8


def test_grid_counts_each_pm_n_pair_once(monkeypatch):
    counted = []
    real_count = periodic.count
    monkeypatch.setattr(periodic, "count", lambda sys_, n, *args: counted.append(n) or real_count(sys_, n, *args))
    # expected counts: the box's points less the pairs inside it
    cases = [
        ("times2times3", [(-3, 3), (-2, 2)], 1, 35 - 17),
        ("sqrt2sqrt3", [(-2, 3), (-1, 2)], 2, 24 - 7),
        ("ledrappier", [(-3, 5), (1, 4)], 1, 36),  # holds no mirror
        ("times2times3times5", [(-1, 1), (-2, 2), (0, 1)], 1, 30 - 7),
    ]
    for name, ranges, j, expected in cases:
        counted.clear()
        result = grid(load_fixture(name), ranges, j)
        assert len(counted) == len(set(counted)) == expected, name
        assert not any(tuple(-c for c in n) in counted for n in counted if any(n))
        fresh = load_fixture(name)
        for point in result.points():
            assert result.entries[point] == real_count(fresh, point, j), (name, point)


def test_negative_powers_invert_each_generator_once(monkeypatch):
    real_inv = nf.el_inv
    for name in ("sqrt2sqrt3", "dk-sextic"):
        sys_ = load_fixture(name)
        (comp, _), = sys_.components
        inverted = []
        with monkeypatch.context() as patch:
            patch.setattr(nf, "el_inv", lambda spec, x, cp: inverted.append(x) or real_inv(spec, x, cp))
            grid(sys_, [(-4, 1), (-3, 2)], 2)
        assert sorted(inverted) == sorted(comp.generators), name
        for (i, e), (v, den) in comp._powers.items():
            power = tuple(Fraction(c, den) for c in v)
            assert power == nf.el_pow(comp.field, comp.generators[i], e), (name, i, e)


def test_count_sequence_matches_pointwise():
    sys_ = load_fixture("ledrappier")
    seq = count_sequence(sys_, (1, 1), 6)
    assert seq == [count(sys_, (1, 1), j) for j in range(1, 7)]
    assert [c.value for c in seq] == [4 ** j for j in range(1, 7)]


def test_multiplicity_squares_the_count():
    single = parse_descriptor({
        "label": "a", "d": 2,
        "components": [{"class": "s_integer", "multiplicity": 1, "generators": ["2", "3"]}],
    })
    doubled = parse_descriptor({
        "label": "a", "d": 2,
        "components": [{"class": "s_integer", "multiplicity": 2, "generators": ["2", "3"]}],
    })
    for n, j in (((1, 1), 1), ((2, -1), 3), ((-1, 2), 2)):
        a = count(single, n, j)
        b = count(doubled, n, j)
        assert b.value == a.value ** 2


def test_product_of_components_multiplies_counts():
    combined = parse_descriptor({
        "label": "c", "d": 2,
        "components": [
            {"class": "s_integer", "multiplicity": 1, "generators": ["2", "3"]},
            {"class": "function_field", "multiplicity": 1,
             "characteristic": 2, "generators": ["t", "1 + t"]},
        ],
    })
    s23 = load_fixture("times2times3")
    led = load_fixture("ledrappier")
    for n in ((1, 1), (2, 1), (-1, 3)):
        assert count(combined, n).value == count(s23, n).value * count(led, n).value


def test_det_oracle_matches_count_on_quartic():
    sys_ = load_fixture("sqrt2sqrt3")
    for n, j in (((1, 0), 1), ((1, 1), 2), ((-2, 3), 1), ((3, -3), 3)):
        assert det_oracle(sys_, n, j) == count(sys_, n, j)


def test_det_oracle_rejects_non_number_field_systems():
    with pytest.raises(UnsupportedOperationError):
        det_oracle(load_fixture("times2times3"), (1, 1))


def test_grid_csv_and_json_shape():
    sys_ = load_fixture("times2times3")
    g = grid(sys_, [(0, 1), (0, 1)])
    csv = g.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "n1,n2,count"
    assert lines[1] == "0,0,inf"
    assert len(lines) == 5
    doc = g.to_json()
    assert doc["ranges"] == [[0, 1], [0, 1]]
    assert doc["entries"][0] == {"n": [0, 0], "count": None}
    assert doc["entries"][-1] == {"n": [1, 1], "count": 5}


def test_grid_rejects_empty_range():
    with pytest.raises(ValueError):
        grid(load_fixture("times2times3"), [(2, 1), (0, 1)])


def test_count_invariants_sample():
    for name in ("times2times3", "ledrappier", "sqrt2sqrt3"):
        assert propsuites.count_invariants(load_fixture(name), trials=25, seed=11) > 0


@st.composite
def small_boxes(draw):
    ranges = []
    for _ in range(2):
        lo = draw(st.integers(-4, 4))
        ranges.append((lo, draw(st.integers(lo, min(lo + 2, 4)))))
    return ranges


@settings(max_examples=25, deadline=5000, database=None)
@given(
    name=st.sampled_from(("sqrt2sqrt3", "dk-sextic")),
    ranges=small_boxes(),
    j=st.integers(1, 3),
    order=st.randoms(use_true_random=False),
)
@example(name="sqrt2sqrt3", ranges=[(-1, 1), (-1, 1)], j=2, order=random.Random(0))
@example(name="dk-sextic", ranges=[(0, 1), (-1, 0)], j=3, order=random.Random(1))
def test_number_field_grid_three_routes(name, ranges, j, order):
    """grid agrees with count on a fresh descriptor queried in another
    order (so the power memo does not depend on call order), with the
    determinant oracle, and with |charpoly_h(1)|, which needs no det."""
    system = load_fixture(name)
    result = grid(system, ranges, j)
    fresh = load_fixture(name)
    points = list(result.points())
    order.shuffle(points)
    for point in points:
        expected = result.entries[point]
        assert count(fresh, point, j) == expected, point
        assert det_oracle(system, point, j) == expected, point
        (comp, mult), = system.components
        h = comp.power_product([j * c for c in point])
        norm = abs(nf.norm(comp.field, h, 1))
        matrix = _companion_multiplication_matrix(comp.field.min_poly, h)
        assert norm == abs(sum(propsuites.reference_charpoly(matrix)))
        assert norm ** mult == (expected.value if expected.is_finite else 0), point
