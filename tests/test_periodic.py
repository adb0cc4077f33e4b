"""Periodic point counts: golden grids, closed forms, invariants, oracle."""

import pathlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import propsuites
from rankone import INFINITE, count, count_sequence, det_oracle, grid, load_fixture
from rankone import numberfield as nf
from rankone.errors import ResourceCapError, UnsupportedOperationError
from rankone.linalg import charpoly
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


def test_bit_budget_cap():
    sys_ = load_fixture("times2times3")
    with pytest.raises(ResourceCapError):
        count(sys_, (10 ** 6, 10 ** 6), 1)
    # explicit budget loosening admits moderately large exponents
    assert count(sys_, (100, 100), 1, bit_budget=10 ** 7).is_finite


def test_bit_budget_sums_multiplicity_and_components():
    # times2times3 is estimated at 3 bits per unit of |n|, sqrt2sqrt3 at 96
    def s_integer(*multiplicities):
        return parse_descriptor({"label": "s", "d": 2, "components": [
            {"class": "s_integer", "multiplicity": m, "generators": ["2", "3"]}
            for m in multiplicities
        ]})

    assert count(s_integer(1), (1, 1), bit_budget=11).is_finite
    for sys_ in (s_integer(2), s_integer(1, 1)):
        with pytest.raises(ResourceCapError, match="estimated size 12 bits"):
            count(sys_, (1, 1), bit_budget=11)
    doubled = parse_descriptor({"label": "q", "d": 2, "components": [
        {"class": "number_field_units", "multiplicity": 2, "min_poly": [1, 0, -10, 0, 1],
         "generators": [["1", "-9/2", "0", "1/2"], ["2", "11/2", "0", "-1/2"]]}]})
    for route in (count, det_oracle):
        assert route(load_fixture("sqrt2sqrt3"), (1, 0), bit_budget=191).is_finite
        with pytest.raises(ResourceCapError, match="estimated size 192 bits"):
            route(doubled, (1, 0), bit_budget=191)


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
        norm = abs(nf.norm(comp.field, nf.el_sub(h, nf.el_one(comp.field))))
        assert norm == abs(sum(charpoly(nf.mult_matrix(comp.field, h))))
        assert norm ** mult == (expected.value if expected.is_finite else 0), point
