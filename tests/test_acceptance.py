"""Acceptance gate: twelve numbered criteria, each with its stated tolerance.

Every test here is a contract item.  Tolerances, ranges and counts are the
agreed figures and must not be loosened: integer equality for counts, exact
atom-level identities for normals, 1e-12 for rendered hyperplane floats,
deviation 0 for exact-route zeta verification, 1e-10 relative width for
entropy intervals, 1e-9 membership for the three-dimensional locus, a
256-bit certification cap for the strict-inclusion witness, and wall-clock
budgets of one second for each golden grid.
"""

import json
import math
import pathlib
import time
from fractions import Fraction

import propsuites
from propsuites import on_hyperplane, relative_width
from rankone import (
    build_portrait,
    cli,
    count,
    count_sequence,
    crossing_set,
    det_oracle,
    directional_entropy,
    directional_entropy_atoms,
    fixture_names,
    grid,
    inverse_roots,
    is_expansive_element,
    load_fixture,
    nonexpansive_hyperplanes,
    verify_generating_identity,
)
from rankone import numberfield as nf
from rankone.exactlog import vectors_parallel
from rankone.svg import portrait_svg

GOLDEN = pathlib.Path(__file__).parent / "golden"

S23 = load_fixture("times2times3")
LED = load_fixture("ledrappier")
QUARTIC = load_fixture("sqrt2sqrt3")
T235 = load_fixture("times2times3times5")
SEXTIC = load_fixture("dk-sextic")


def test_criterion_01_count_table_times2times3():
    start = time.perf_counter()
    table = grid(S23, [(-5, 5), (0, 5)])
    elapsed = time.perf_counter() - start
    csv = table.to_csv()
    assert csv == (GOLDEN / "times2times3_counts.csv").read_text()
    assert "0,0,inf" in csv.splitlines()
    assert elapsed < 1.0, f"grid took {elapsed:.3f}s"


def test_criterion_02_count_table_ledrappier():
    start = time.perf_counter()
    table = grid(LED, [(-5, 5), (0, 5)])
    elapsed = time.perf_counter() - start
    assert table.to_csv() == (GOLDEN / "ledrappier_counts.csv").read_text()
    for n in range(1, 6):
        ord2 = (n & -n).bit_length() - 1
        assert table.entries[(n, 0)] == 2 ** (n - 2 ** ord2)
    assert elapsed < 1.0, f"grid took {elapsed:.3f}s"


def test_criterion_03_portrait_times2times3():
    planes, _ = nonexpansive_hyperplanes(S23)
    assert len(planes) == 3
    noeth = [h for h in planes if h.label == "noetherian"]
    variety = [h for h in planes if h.label == "variety"]
    assert len(noeth) == 2 and len(variety) == 1
    # noetherian normals span the axes
    patterns = sorted(
        tuple(entry.is_trivially_zero() for entry in h.normal) for h in noeth
    )
    assert patterns == [(False, True), (True, False)]
    # variety normal: exactly (log 2, log 3) at the atom level
    assert [w.prime_part for w in variety[0].normal] == [
        {2: Fraction(1)}, {3: Fraction(1)},
    ]
    assert all(not w.root_part for w in variety[0].normal)
    # and parallel to (log 2, log 3) in the float rendering, within 1e-12
    nx, ny = variety[0].normal_floats(64)
    assert abs(nx * math.log(3) - ny * math.log(2)) < 1e-12


def test_criterion_04_portrait_ledrappier():
    planes, _ = nonexpansive_hyperplanes(LED)
    variety = [h for h in planes if h.label == "variety"]
    noeth = [h for h in planes if h.label == "noetherian"]
    assert variety == []
    assert len(noeth) == 3
    forms = sorted(
        tuple(w.prime_part.get(2, Fraction(0)) for w in h.normal) for h in noeth
    )
    # the lines n1 = 0, n2 = 0, n1 + n2 = 0, exactly
    assert forms == [(-1, 0), (0, -1), (1, 1)]
    assert all(not w.root_part for h in noeth for w in h.normal)


def test_criterion_05_strict_inclusion_witness():
    cap = 256
    crossing, _ = crossing_set(QUARTIC, max_prec=cap)
    planes, _ = nonexpansive_hyperplanes(QUARTIC, max_prec=cap)
    # the crossing set contains the hyperplane v1 = 0 ...
    axis = [
        h for h in crossing
        if not h.normal[0].is_trivially_zero() and h.normal[1].is_trivially_zero()
    ]
    assert axis, "crossing set is missing the v1 = 0 hyperplane"
    witness = axis[0]
    assert on_hyperplane(witness, (0.0, 1.0), prec=cap)
    assert {"J": [1, 3], "L": []} in [h.sources[0] for h in axis] or witness.sources
    # ... while no non-expansive hyperplane is parallel to it ...
    for h in planes:
        assert vectors_parallel(witness.normal, h.normal, max_prec=cap) == "not-parallel"
    # ... and the direction (0, 1) is expansive
    assert is_expansive_element(QUARTIC, (0, 1), max_prec=cap) is True


def test_criterion_06_equality_case_crossing_vs_variety():
    for sys_ in (S23, LED):
        crossing, _ = crossing_set(sys_)
        variety = [h for h in nonexpansive_hyperplanes(sys_)[0] if h.label == "variety"]
        assert len(crossing) == len(variety)
        for c in crossing:
            assert any(vectors_parallel(c.normal, v.normal) == "parallel" for v in variety)
        for v in variety:
            assert any(vectors_parallel(c.normal, v.normal) == "parallel" for c in crossing)


def test_criterion_07_oracle_equivalence():
    for n1 in range(-3, 4):
        for n2 in range(-3, 4):
            for j in range(1, 4):
                a = count(QUARTIC, (n1, n2), j)
                b = det_oracle(QUARTIC, (n1, n2), j)
                assert a == b, ((n1, n2), j)
                if (n1, n2) == (0, 0):
                    assert not a.is_finite


def test_criterion_08_zeta_reproduces_counts():
    expected_expansive = {
        "times2times3": lambda n: n[0] != 0 and n[1] != 0,
        "ledrappier": lambda n: n[0] != 0 and n[1] != 0 and n[0] + n[1] != 0,
    }
    for sys_, name in ((S23, "times2times3"), (LED, "ledrappier")):
        rule = expected_expansive[name]
        fitted = 0
        for n1 in range(-4, 5):
            for n2 in range(-4, 5):
                n = (n1, n2)
                if n == (0, 0):
                    continue
                expansive = is_expansive_element(sys_, n)
                assert expansive is rule(n), (name, n)
                if not expansive:
                    continue
                zf = inverse_roots(sys_, n)
                F = count_sequence(sys_, n, 20)
                res = verify_generating_identity(zf, F, 20)
                assert res["ok"] and res["failures"] == [], (name, n)
                assert res["max_deviation"] == 0.0, (name, n)
                fitted += 1
        assert fitted == (64 if name == "times2times3" else 56)


def test_criterion_09_directional_entropy():
    cases = (
        (S23, (1, 1), {2: Fraction(1), 3: Fraction(1)}, math.log(6)),
        (S23, (1, -1), {3: Fraction(1)}, math.log(3)),
        (LED, (1, 1), {2: Fraction(2)}, 2 * math.log(2)),
    )
    for sys_, n, atoms, ref in cases:
        exact = directional_entropy_atoms(sys_, n)
        assert exact.prime_part == atoms and not exact.root_part
        ball = directional_entropy(sys_, n)
        lo, hi = ball.float_bounds()
        assert lo <= ref <= hi
        assert relative_width(ball) <= 1e-10


def test_criterion_10_three_dimensional_locus():
    planes, _ = nonexpansive_hyperplanes(T235)
    assert len(planes) == 4
    variety = [h for h in planes if h.label == "variety"][0]
    log2, log3, log5 = math.log(2), math.log(3), math.log(5)
    for k in range(10 ** 4):
        theta = 2 * math.pi * k / 10 ** 4
        c = math.cos(theta) * log2 + math.sin(theta) * log3
        phi = math.atan2(log5, -c) % math.pi
        v = (
            math.sin(phi) * math.cos(theta),
            math.sin(phi) * math.sin(theta),
            math.cos(phi),
        )
        # v solves 2^v1 3^v2 5^v3 = 1 by construction; membership at 1e-9
        assert on_hyperplane(variety, v, tol=1e-9), (k, v)
    svg = portrait_svg(build_portrait(T235))
    assert svg.startswith("<svg") and svg.count("<polyline") >= 4


def test_criterion_11_sextic_units(capsys):
    comp = SEXTIC.components[0][0]
    for g in comp.generators:
        assert nf.unit_charpoly(comp.field, g) is not None
    assert len(nonexpansive_hyperplanes(SEXTIC)[1]) == 2
    code = cli.main(["analyze", "dk-sextic"])
    captured = capsys.readouterr()
    assert code == 0
    assert "non-expansive in every direction" in captured.err
    doc = json.loads(captured.out)
    assert any("non-expansive in every direction" in w for w in doc["warnings"])
    for n in ((1, 0), (0, 1), (1, 1)):
        zf = inverse_roots(SEXTIC, n, force=True)
        F = [det_oracle(SEXTIC, n, j) for j in range(1, 7)]
        res = verify_generating_identity(zf, F, 6)
        assert res["ok"] and res["failures"] == [], n


def test_criterion_12_property_suites():
    for name in fixture_names():
        sys_ = load_fixture(name)
        assert propsuites.count_invariants(sys_, trials=200, seed=1287540) >= 600
    assert propsuites.interval_soundness(1000, seed=1287540) >= 1000
