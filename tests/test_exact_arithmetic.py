"""Integer kernels against the Fraction code they replaced, and ball rank soundness."""

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from rankone import balls, linalg, numberfield as nf
from rankone.balls import ComplexBall, RealBall, ball_to_fraction_bounds
from rankone.errors import UndecidedError
from rankone.linalg import det
from rankone.number_field_units import _ball_rank_at_least
from rankone.periodic import _companion_multiplication_matrix

from propsuites import reference_charpoly


# --- reference implementations: Fraction Gaussian elimination and Fraction
# polynomial multiplication, as the library computed them before it moved
# to integers --------------------------------------------------------------

def reference_det(a):
    n = len(a)
    m = [row[:] for row in a]
    sign = 1
    acc = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        p = m[col][col]
        acc *= p
        inv = 1 / p
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return acc * sign


def reference_el_mul(spec, x, y):
    m = spec.degree
    f = spec.min_poly
    out = [Fraction(0)] * (2 * m - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    out[i + j] += a * b
    for k in range(len(out) - 1, m - 1, -1):
        c = out[k]
        if c:
            out[k] = Fraction(0)
            for i in range(m):
                out[k - m + i] -= c * f[i]
    out = out[:m]
    out += [Fraction(0)] * (m - len(out))
    return tuple(out)


DENOMINATORS = (1, 1, 1, 2, 3, 4, 6, 7, 9, 10)


def random_rational(rng, zero_share=0.3):
    if rng.random() < zero_share:
        return Fraction(0)
    return Fraction(rng.randint(-12, 12), rng.choice(DENOMINATORS))


def random_matrix(rng, n):
    a = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
    shape = rng.randrange(4)
    if n >= 2 and shape == 1:
        # zero leading pivot: elimination must swap rows
        a[0][0] = Fraction(0)
    elif n >= 2 and shape == 2:
        # singular: one row a rational combination of two others
        i, j = rng.sample(range(n), 2)
        k = rng.randrange(n)
        c = Fraction(rng.randint(-3, 3), rng.choice(DENOMINATORS))
        a[k] = [x + c * y for x, y in zip(a[i], a[j])]
    elif n >= 1 and shape == 3:
        a[rng.randrange(n)] = [Fraction(0)] * n
    return a


def test_det_matches_fraction_reference_sizes_0_to_6():
    rng = random.Random(20260602)
    singular = 0
    for trial in range(1400):
        n = trial % 7
        a = random_matrix(rng, n)
        expected = reference_det(a)
        assert det(a) == expected, a
        singular += expected == 0
    assert singular > 200  # the singular shapes were really exercised


def test_det_edge_cases():
    assert det([]) == 1
    assert det([[Fraction(-3, 4)]]) == Fraction(-3, 4)
    assert det([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]) == -1
    assert det([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(5)]]) == 0
    big = [[Fraction(10 ** 30 + i * j, 1 + i + j) for j in range(5)] for i in range(5)]
    assert det(big) == reference_det(big)


def test_element_charpoly_matches_fraction_reference_degrees_1_to_6():
    # interpolated from m + 1 norms, against Faddeev-LeVerrier on the
    # companion-built multiplication matrix, which forms no determinant
    rng = random.Random(20261019)
    for spec in FIELDS:
        elements = [random_element(rng, spec) for _ in range(35)]
        elements.append((Fraction(0),) * spec.degree)
        elements.append(tuple(Fraction(10 ** 20 + i, 1 + 2 * i) for i in range(spec.degree)))
        for x in elements:
            got = nf.element_charpoly(spec, x)
            assert got == reference_charpoly(_companion_multiplication_matrix(spec.min_poly, x)), x
            assert all(type(c) is Fraction for c in got)


def test_full_row_rank_matches_some_nonzero_maximal_minor():
    # rows r <= c are independent exactly when some r x r minor is nonzero;
    # more rows than columns have no such minor and are never independent
    rng = random.Random(20261021)
    full = 0
    for trial in range(600):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        if trial % 2:
            a = [[random_rational(rng, 0.4) for _ in range(cols)] for _ in range(rows)]
        else:
            a = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(cols)] for _ in range(rows)]
        shape = trial % 6
        if rows and shape == 1:
            a[rng.randrange(rows)] = [0] * cols
        elif cols and shape == 3:
            k = rng.randrange(cols)
            for row in a:
                row[k] = 0
        elif rows >= 2 and shape == 5:
            i, j = rng.sample(range(rows), 2)
            a[j] = [2 * x for x in a[i]]
        minors = (det([[row[k] for k in ks] for row in a]) for ks in itertools.combinations(range(cols), rows))
        expected = any(m != 0 for m in minors)
        assert linalg.full_row_rank(a) == expected, a
        full += expected
    assert 100 < full < 500  # both verdicts were really exercised
    assert linalg.full_row_rank([]) and not linalg.full_row_rank([[]])


FIELDS = [
    nf.NumberFieldSpec(f)
    for f in (
        (-5, 1),
        (-2, 0, 1),
        (-1, 1, 0, 1),
        (1, 0, -10, 0, 1),              # sqrt2sqrt3
        (3, 0, 0, 0, 0, 1),
        (1, -2, -5, -3, -5, -2, 1),     # dk-sextic
    )
]


def random_element(rng, spec):
    return tuple(random_rational(rng) for _ in range(spec.degree))


def test_el_mul_matches_fraction_reference():
    rng = random.Random(77)
    for spec in FIELDS:
        for _ in range(250):
            x = random_element(rng, spec)
            y = random_element(rng, spec)
            got = nf.el_mul(spec, x, y)
            assert got == reference_el_mul(spec, x, y)
            assert all(type(c) is Fraction for c in got)


def test_norm_matches_fraction_reference():
    rng = random.Random(5)
    for spec in FIELDS:
        for _ in range(40):
            x = random_element(rng, spec)
            assert nf.norm(spec, x) == reference_det(_companion_multiplication_matrix(spec.min_poly, x))


def test_norm_matches_det_of_mult_matrix_on_fixture_fields():
    # norm takes the integer columns; det_oracle's route is the det of the
    # multiplication matrix built from the companion matrix
    from rankone.system import load_fixture

    rng = random.Random(12)
    for name in ("sqrt2sqrt3", "dk-sextic"):
        comp = load_fixture(name).components[0][0]
        spec = comp.field
        elements = [random_element(rng, spec) for _ in range(40)]
        elements += [
            comp.power_product((rng.randint(-6, 6), rng.randint(-6, 6))) for _ in range(40)
        ]
        for x in elements:
            for c in (0, 1, -3):
                # Norm(x - c), with x - c formed here on Fractions
                shifted = (x[0] - c,) + x[1:]
                got = nf.norm(spec, x, c)
                assert got == det(_companion_multiplication_matrix(spec.min_poly, shifted))
                assert type(got) is Fraction


def test_mult_matrix_columns_match_el_mul():
    # column j of the matrix norm takes holds x * a^j; the reference forms
    # each column by el_mul
    rng = random.Random(11)
    for spec in FIELDS:
        m = spec.degree
        root = nf.el_from_coeffs(spec, [0, 1] if m > 1 else [-spec.min_poly[0]])
        for _ in range(40):
            x = random_element(rng, spec)
            columns, power = [], x
            for _ in range(m):
                columns.append(power)
                power = nf.el_mul(spec, power, root)
            got = nf._columns(spec.min_poly, list(x))
            assert got == [list(column) for column in columns]


# --- ball rank certificate ----------------------------------------------------

def ball(mid, rad=0):
    return RealBall(
        RealBall.from_fraction(Fraction(mid), 53).mid,
        RealBall.from_fraction(Fraction(rad), 53).mid,
    )


def test_ball_det_never_excludes_the_true_range():
    # entries 4 and [-0.5, 1.5]: the determinant ranges over [-2, 6], so
    # the second pivot may be zero and rank 2 is not certified
    rows = [[ball(4), ball(0)], [ball(0), ball(Fraction(1, 2), 1)]]
    assert not _ball_rank_at_least(rows, 2, 64)
    assert _ball_rank_at_least(rows, 1, 64)


def test_ball_det_encloses_a_certified_determinant():
    # determinant 5: both pivots exclude zero
    rows = [[ball(2), ball(1)], [ball(1), ball(3)]]
    assert _ball_rank_at_least(rows, 2, 64)
    assert not _ball_rank_at_least(rows, 3, 64)


def test_uncertified_minor_does_not_count_toward_rank():
    rows = [[ball(0, 1), ball(0, 1)], [ball(0, 1), ball(0, 1)]]
    assert not _ball_rank_at_least(rows, 1, 64)
    assert not _ball_rank_at_least(rows, 2, 64)
    assert _ball_rank_at_least(rows + [[ball(1), ball(0)]], 1, 64)


def test_rank_certified_past_a_row_that_holds_zero():
    # every entry of row 1 may be zero; rows 2 and 3 have determinant 2 - 3 = -1
    rows = [[ball(0, 1), ball(Fraction(1, 2), 1)], [ball(1), ball(3)], [ball(1), ball(2)]]
    assert _ball_rank_at_least(rows, 2, 64)
    assert not _ball_rank_at_least(rows, 3, 64)


def test_match_roots_passes_over_a_rung_that_divides_by_zero():
    # the roots of x^2 - 2 are -sqrt2 < sqrt2; at the first rung the targets
    # divide by zero, at the next they are the boxes of sqrt2 and -sqrt2
    seen = []

    def targets(prec):
        seen.append(prec)
        if len(seen) == 1:
            raise ZeroDivisionError("interval contains zero")
        roots = nf.isolate_roots((-2, 0, 1), prec)
        return [roots[1].box, roots[0].box]

    assert nf.match_roots((-2, 0, 1), targets, "test match") == [1, 0]
    assert seen == [64, 128]


# --- precision-cap failures are typed ---------------------------------------

def test_root_isolation_cap_is_undecided(monkeypatch):
    monkeypatch.setattr(nf, "_try_isolate", lambda *args: None)
    monkeypatch.setattr(balls, "HARD_PRECISION", 256)
    with pytest.raises(UndecidedError):
        nf._isolate_cached.__wrapped__((-3, 0, 1), 64)


def test_factorization_cap_is_undecided(monkeypatch):
    # x^4 - 10x^2 + 1 leaves degree 2 open modulo every prime, so the
    # irreducibility test reaches its fallback; that is a Hensel lift on
    # integers, so neither root isolation nor the precision cap can undecide it
    def no_isolation(*args):
        raise AssertionError("the irreducibility test isolated roots")

    monkeypatch.setattr(balls, "HARD_PRECISION", 1)
    monkeypatch.setattr(nf, "_isolate_cached", no_isolation)
    assert nf.is_irreducible.__wrapped__((1, 0, -10, 0, 1))
    assert not nf.is_irreducible.__wrapped__((6, 0, -5, 0, 1))  # (x^2-2)(x^2-3)


def test_reciprocal_matching_cap_is_undecided(monkeypatch):
    from rankone import exactlog

    far = nf.isolate_roots((-2, 0, 1), 64)

    def misplaced(poly, prec):
        return far  # +-sqrt(2): no box meets the reciprocal of another

    monkeypatch.setattr(nf, "isolate_roots", misplaced)
    monkeypatch.setattr(balls, "HARD_PRECISION", 256)
    with pytest.raises(UndecidedError):
        exactlog._reciprocal_match((1, -10, 1))


def test_root_log_cap_is_undecided(monkeypatch):
    from rankone import exactlog

    seen = []
    zero = SimpleNamespace(box=ComplexBall(RealBall.zero(), RealBall.zero()))

    def unresolved(poly, prec):
        seen.append(prec)
        return [zero]  # a box that never leaves zero

    monkeypatch.setattr(nf, "isolate_roots", unresolved)
    monkeypatch.setattr(balls, "HARD_PRECISION", 256)
    with pytest.raises(UndecidedError):
        exactlog._root_abs_log.__wrapped__((-2, 0, 1), 0, 64)
    assert seen == [64, 128, 256]


def test_cached_root_log_is_bit_equal_to_a_fresh_one():
    from rankone import exactlog

    exactlog._root_abs_log.cache_clear()
    poly = (1, -2, -5, -3, -5, -2, 1)  # dk-sextic
    for prec in (64, 128, 64):
        for index in range(6):
            cached = exactlog._root_abs_log(poly, index, prec)
            fresh = exactlog._root_abs_log.__wrapped__(poly, index, prec)
            assert (cached.mid, cached.rad) == (fresh.mid, fresh.rad)
    assert exactlog._root_abs_log.cache_info().hits == 6


# --- factorization invariants raise, so they hold under python -O -------------

def test_squarefree_part_must_divide(monkeypatch):
    monkeypatch.setattr(nf, "poly_gcd", lambda f, g: [Fraction(1), Fraction(1)])
    with pytest.raises(ArithmeticError, match="divide"):
        nf.squarefree_part_int((-2, 0, 1))  # x + 1 does not divide x^2 - 2


def test_squarefree_part_must_be_integral(monkeypatch):
    monkeypatch.setattr(nf, "poly_gcd", lambda f, g: [Fraction(2)])
    with pytest.raises(ArithmeticError, match="integer"):
        nf.squarefree_part_int((-2, 0, 1))


def _golden_ratio_units():
    from rankone.number_field_units import NumberFieldUnitsComponent

    # x^2 - x - 1, generated by the golden ratio: its charpoly is min_poly
    return NumberFieldUnitsComponent((-1, -1, 1), [["0", "1"]], "components[0]")


def test_factors_must_exhaust_the_polynomial(monkeypatch):
    # no power of a cubic is the quadratic characteristic polynomial
    monkeypatch.setattr(nf, "squarefree_part_int", lambda f: (1, 0, 0, 1))
    with pytest.raises(ArithmeticError, match="power of its squarefree part"):
        _golden_ratio_units()._root_identities


def test_proposed_factor_must_divide(monkeypatch):
    # x - 1 has a dividing degree, but (x - 1)^2 is not x^2 - x - 1
    monkeypatch.setattr(nf, "squarefree_part_int", lambda f: (-1, 1))
    with pytest.raises(ArithmeticError, match="power of its squarefree part"):
        _golden_ratio_units()._root_identities
