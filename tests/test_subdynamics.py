"""Expansive subdynamics: hyperplanes, crossings, branches, entropy, portraits."""

import gc
import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from rankone import (
    branch_subsets,
    build_portrait,
    count,
    crossing_set,
    directional_entropy,
    directional_entropy_atoms,
    f_eval,
    is_expansive_element,
    load_fixture,
    nonexpansive_hyperplanes,
    omega_samples,
    parse_descriptor,
)
from mpmath.libmp import from_man_exp, mpf_add

from rankone import defaults, sampling, subdynamics
from rankone.balls import RealBall
from rankone.errors import ResourceCapError, UndecidedError
from rankone.exactlog import ExactLog, vectors_parallel
from rankone.subdynamics import (
    ENTROPY_NOTE,
    NOETHERIAN,
    VARIETY,
    _check_unit,
    _exp_neg_below_one,
    circle_directions,
    default_directions,
    sphere_directions,
)

from propsuites import contains, on_hyperplane, relative_width

S23 = load_fixture("times2times3")
LED = load_fixture("ledrappier")
QUARTIC = load_fixture("sqrt2sqrt3")
T235 = load_fixture("times2times3times5")
SEXTIC = load_fixture("dk-sextic")

SQRT_HALF = math.sqrt(0.5)


def axis_pattern(h):
    return tuple(entry.is_trivially_zero() for entry in h.normal)


# --- non-expansive hyperplanes -------------------------------------------------

def test_times2times3_has_three_hyperplanes():
    planes, degenerate = nonexpansive_hyperplanes(S23)
    assert len(planes) == 3 and degenerate == []
    assert not any(h.undecided for h in planes)
    variety = [h for h in planes if h.label == "variety"]
    noeth = [h for h in planes if h.label == "noetherian"]
    assert len(variety) == 1 and len(noeth) == 2
    # variety normal is exactly (log 2, log 3) at the atom level
    assert [w.prime_part for w in variety[0].normal] == [
        {2: Fraction(1)}, {3: Fraction(1)},
    ]
    # noetherian normals span the axes
    assert sorted(axis_pattern(h) for h in noeth) == [(False, True), (True, False)]


def test_times2times3_variety_normal_floats():
    variety = [h for h in nonexpansive_hyperplanes(S23)[0] if h.label == "variety"][0]
    nx, ny = variety.normal_floats(64)
    # parallel to (log 2, log 3): the cross product vanishes to 1e-12
    assert abs(nx * math.log(3) - ny * math.log(2)) < 1e-12


def test_ledrappier_noetherian_lines_exact():
    planes, _ = nonexpansive_hyperplanes(LED)
    assert len(planes) == 3
    assert all(h.label == "noetherian" for h in planes)
    assert len(build_portrait(LED).to_json()["nonsmooth"]) == 3
    forms = sorted(
        tuple(w.prime_part.get(2, Fraction(0)) for w in h.normal) for h in planes
    )
    # lines n1 = 0, n2 = 0, n1 + n2 = 0, each with log-2 atoms
    assert forms == [(-1, 0), (0, -1), (1, 1)]
    # the n1 + n2 = 0 line contains the direction (1, -1)/sqrt2
    diag = [h for h in planes if axis_pattern(h) == (False, False)][0]
    assert on_hyperplane(diag, (SQRT_HALF, -SQRT_HALF))
    assert not on_hyperplane(diag, (SQRT_HALF, SQRT_HALF))


def test_quartic_has_four_variety_planes():
    planes, _ = nonexpansive_hyperplanes(QUARTIC)
    assert len(planes) == 4
    assert all(h.label == "variety" for h in planes)


def test_sextic_degenerate_characters_detected():
    planes, degenerate = nonexpansive_hyperplanes(SEXTIC)
    assert len(degenerate) == 2
    assert len(planes) == 4  # 6 embeddings minus the zero-vector pair


# --- crossing set ----------------------------------------------------------------

def test_crossing_equals_variety_for_times2times3():
    crossing, coincidences = crossing_set(S23)
    variety = [h for h in nonexpansive_hyperplanes(S23)[0] if h.label == "variety"]
    assert len(crossing) == 1
    assert coincidences == []
    assert vectors_parallel(crossing[0].normal, variety[0].normal) == "parallel"
    assert crossing[0].sources[0] == {"J": [0], "L": []}


def test_crossing_empty_for_ledrappier():
    assert crossing_set(LED) == ([], [])


def pair_normal(system, pair):
    """The normal of a signed branch pair, summed from its J and L sources."""
    V, _ = system.characters()
    normal = []
    for k in range(system.d):
        entry = ExactLog.zero()
        for i in pair["J"]:
            entry = entry.add(V[i].log_vector[k])
        for i in pair["L"]:
            entry = entry.sub(V[i].log_vector[k])
        normal.append(entry)
    return normal


def assert_split_by_trivial_zero(system, crossing, coincidences):
    # every coincidence is a certified syntactic zero of the signed atom sum,
    # and no crossing is, whether read from its normal or from its source
    for pair in coincidences:
        assert all(entry.is_trivially_zero() for entry in pair_normal(system, pair))
    for h in crossing:
        assert not all(entry.is_trivially_zero() for entry in h.normal)
        assert not all(entry.is_trivially_zero() for entry in pair_normal(system, h.sources[0]))


def test_quartic_crossing_census():
    # 3^4 - 1 signed combinations, halved by global sign: 40 candidates
    crossing, coincidences = crossing_set(QUARTIC)
    assert len(crossing) == 36
    assert len(coincidences) == 4
    assert not any(h.undecided for h in crossing)
    assert_split_by_trivial_zero(QUARTIC, crossing, coincidences)


def test_quartic_strict_inclusion_witness():
    # the pair J = {1, 3}, L = {} crosses along v1 = 0, which is not one of
    # the four non-expansive planes; certified within a 256-bit cap
    crossing, _ = crossing_set(QUARTIC, max_prec=256)
    axis = [h for h in crossing if axis_pattern(h) == (False, True)]
    assert axis
    witness = axis[0]
    assert on_hyperplane(witness, (0.0, 1.0), prec=256)
    # |normal_x| = 2 log(1 + sqrt 2)
    nx, ny = witness.normal_floats(64)
    assert ny == 0.0
    assert abs(abs(nx) - 2 * math.log(1 + math.sqrt(2))) < 1e-9
    for h in nonexpansive_hyperplanes(QUARTIC, max_prec=256)[0]:
        assert vectors_parallel(witness.normal, h.normal, max_prec=256) == "not-parallel"
    assert is_expansive_element(QUARTIC, (0, 1), max_prec=256) is True


def test_sextic_crossing_census():
    crossing, coincidences = crossing_set(SEXTIC)
    assert len(crossing) == 324
    assert len(coincidences) == 40
    assert not any(h.undecided for h in crossing)
    assert_split_by_trivial_zero(SEXTIC, crossing, coincidences)


# --- branch functions -------------------------------------------------------------

def test_branch_subsets():
    assert branch_subsets(S23) == [(), (0,)]
    assert branch_subsets(LED) == [()]
    assert len(branch_subsets(QUARTIC)) == 16
    assert len(branch_subsets(SEXTIC)) == 64


def test_branch_values_times2times3():
    # prefactor g(-e1) = max(2, 1) * max(1, 1) = 2; the archimedean factor
    # at e1 is exp(-log 2) = 1/2
    assert contains(f_eval(S23, (), (1.0, 0.0)), 2)
    assert contains(f_eval(S23, (0,), (1.0, 0.0)), 1)
    diag = f_eval(S23, (), (SQRT_HALF, SQRT_HALF))
    assert abs(diag.mid_float() - 6 ** SQRT_HALF) < 1e-9


def test_branch_values_ledrappier():
    val = f_eval(LED, (), (SQRT_HALF, SQRT_HALF))
    assert abs(val.mid_float() - 4 ** SQRT_HALF) < 1e-9


def test_f_eval_validates_inputs():
    with pytest.raises(ValueError):
        f_eval(S23, (), (1.0, 1.0))          # not a unit vector
    with pytest.raises(ValueError):
        f_eval(S23, (0, 0), (1.0, 0.0))      # repetition beyond multiplicity
    with pytest.raises(ValueError):
        f_eval(S23, (7,), (1.0, 0.0))        # no such character


def fraction_unit_check(v, prec):
    """The unit test on Fractions: the reference for _check_unit."""
    norm2 = sum(Fraction(x) ** 2 for x in v)
    if abs(norm2 - 1) > Fraction(1, 2 ** min(prec // 2, 48)):
        return f"direction is not a unit vector: |v|^2 = {float(norm2)}"
    return None


def test_check_unit_matches_fraction_reference():
    rng = random.Random(3)
    directions = circle_directions(720) + sphere_directions(12)
    directions += [(1.0, 1.0), (0.0, 0.0), (1.0, 2.0 ** -33), (1.0, 2.0 ** -32), (5e-324, 1.0),
                   (Fraction(3, 5), Fraction(4, 5)), (Fraction(3, 5), Fraction(4, 5) + Fraction(1, 10 ** 12))]
    for _ in range(500):
        v = [rng.gauss(0, 1) for _ in range(rng.choice((2, 3)))]
        scale = math.sqrt(sum(x * x for x in v)) * (1 + rng.choice((0.0, 1e-15, 1e-9, 2.0 ** -32, -2.0 ** -32)))
        directions.append(tuple(x / scale for x in v))
    for v in directions:
        for prec in (1, 2, 63, 64, 72, 128, 4096):
            expected = fraction_unit_check(v, prec)
            if expected is None:
                _check_unit(v, prec)
            else:
                with pytest.raises(ValueError) as info:
                    _check_unit(v, prec)
                assert str(info.value) == expected


def test_check_unit_admits_the_float_grids_at_any_precision():
    # the grids are unit vectors to 2^-51.3 at worst, inside the 2^-48 floor
    # of the tolerance
    for v in circle_directions(720) + sphere_directions(180):
        _check_unit(v, 300)
    for v in [(1.0, 1.0), (Fraction(1), Fraction(1, 2 ** 20))]:  # |v|^2 - 1 = 1 and 2^-40
        for prec in (97, 300, 4096):
            with pytest.raises(ValueError, match="not a unit vector"):
                _check_unit(v, prec)
    _check_unit((Fraction(1), Fraction(1, 2 ** 20)), 81)  # tolerance 2^-40


def branch_ball_rows(sys_, directions, convention="inverse-root", prec=64):
    """(direction, subset, ball) rows from the per-direction generator
    behind omega_samples."""
    subsets = branch_subsets(sys_)
    return [
        (direction, subset, balls[k])
        for direction, balls, slots in subdynamics._branch_balls(sys_, subsets, directions, convention, prec)
        for subset, k in zip(subsets, slots, strict=True)
    ]


def test_omega_convention_duality():
    directions = [(1.0, 0.0), (SQRT_HALF, SQRT_HALF), (0.0, -1.0)]
    inv = branch_ball_rows(S23, directions, "inverse-root")
    loc = branch_ball_rows(S23, directions, "root-location")
    assert len(inv) == len(loc) == 6
    for (va, sa, a), (vb, sb, b) in zip(inv, loc):
        assert va == vb and sa == sb
        assert contains(a.mul(b, 64), 1)


def test_omega_rejects_unknown_convention():
    with pytest.raises(ValueError):
        omega_samples(S23, [(1.0, 0.0)], "midpoint")


def test_default_directions_dimension():
    assert len(default_directions(S23)) == 720
    assert len(default_directions(T235)) == 180 * 180
    for v in default_directions(T235)[:5]:
        assert abs(sum(x * x for x in v) - 1) < 1e-9


@pytest.mark.parametrize("d, samples", [(2, 0), (2, -4), (3, 0)])
def test_empty_grid_builds_no_characters(d, samples):
    # the row cap multiplies by the branch count only for a nonempty grid
    class NoCharacters:
        def characters(self):
            raise AssertionError("characters built for an empty grid")

    grid = NoCharacters()
    grid.d = d
    assert default_directions(grid, samples) == []


# --- directional entropy ------------------------------------------------------------

def test_entropy_times2times3():
    atoms = directional_entropy_atoms(S23, (1, 1))
    assert atoms.prime_part == {2: Fraction(1), 3: Fraction(1)}  # log 6
    atoms = directional_entropy_atoms(S23, (1, -1))
    assert atoms.prime_part == {3: Fraction(1)}                  # log 3
    ball = directional_entropy(S23, (1, 1))
    assert not contains(ball, 0)
    assert relative_width(ball) <= 1e-10


def test_entropy_ledrappier():
    atoms = directional_entropy_atoms(LED, (1, 1))
    assert atoms.prime_part == {2: Fraction(2)}                  # 2 log 2
    assert directional_entropy_atoms(LED, (1, 0)).prime_part == {2: Fraction(1)}


def test_entropy_scales_linearly():
    a = directional_entropy_atoms(S23, (1, 1))
    b = directional_entropy_atoms(S23, (3, 3))
    assert b.sub(a.scale(3)).is_trivially_zero()


def test_entropy_validates_direction():
    with pytest.raises(ValueError):
        directional_entropy_atoms(S23, (0, 0))
    with pytest.raises(ValueError):
        directional_entropy_atoms(S23, (1, 0, 0))


def test_entropy_matches_count_growth():
    # log(F_(j+1) / F_j) converges to the entropy; the clean geometric cases
    # are tight already at j = 20, the mixed-branch case shrinks with j
    def growth_error(sys_, n, j):
        fj = count(sys_, n, j).value
        fj1 = count(sys_, n, j + 1).value
        h = directional_entropy(sys_, n).mid_float()
        return abs((math.log(fj1) - math.log(fj)) - h) / h

    assert growth_error(S23, (1, 1), 20) <= 1e-9
    assert growth_error(LED, (1, 1), 20) <= 1e-9
    mixed20 = growth_error(S23, (2, -1), 20)
    mixed40 = growth_error(S23, (2, -1), 40)
    assert mixed40 < mixed20
    assert mixed40 <= (3 / 4) ** 40  # branch gap (3/4)^j dominates the error


# --- assembled portrait ----------------------------------------------------------------

def test_portrait_json_shape_and_determinism():
    doc = build_portrait(S23).to_json()
    assert doc["descriptor_hash"] == S23.descriptor_hash()
    assert doc["convention"] == "inverse-root"
    assert ENTROPY_NOTE in doc["notes"]
    assert doc["warnings"] == []
    assert len(doc["hyperplanes"]) == 3
    assert doc["omega"] == []  # structure only; writers fill it from omega_samples
    rows = omega_samples(S23, [(1.0, 0.0), (0.0, 1.0)])
    assert isinstance(rows, subdynamics.OmegaRows) and len(rows) == 4
    printed = json.loads("".join(sampling._json_with_rows(doc, "omega", rows)))
    assert len(printed["omega"]) == 4  # 2 directions x 2 branches
    again = build_portrait(S23).to_json()
    assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_portrait_variety_noetherian_split():
    portrait = build_portrait(S23)
    labels = [h.label for h in portrait.hyperplanes]
    assert labels.count(VARIETY) == 1
    assert labels.count(NOETHERIAN) == 2
    assert not hasattr(portrait, "omega")


def test_portrait_f_graphs_evaluate():
    portrait = build_portrait(S23)
    graphs = {subset: f_eval(S23, subset, (1.0, 0.0)) for subset in portrait.branches}
    assert set(graphs) == {(), (0,)}
    assert contains(graphs[()], 2)


def test_sextic_portrait_warns_nonexpansive_everywhere():
    portrait = build_portrait(SEXTIC)
    assert any("non-expansive in every direction" in w for w in portrait.warnings)
    assert len(portrait.degenerate) == 2


# --- omega sampling by prefix products ----------------------------------------------

DOUBLED = parse_descriptor(json.dumps({"label": "doubled", "d": 2, "components": [
    {"class": "s_integer", "multiplicity": 2, "generators": ["2", "3"]},
    {"class": "s_integer", "generators": ["5", "7"]},
]}).encode())


@pytest.mark.parametrize("system", [S23, LED, QUARTIC, T235, SEXTIC, DOUBLED])
def test_branch_subsets_list_each_prefix_first(system):
    subsets = branch_subsets(system)
    position = {subset: k for k, subset in enumerate(subsets)}
    assert len(position) == len(subsets) and subsets[0] == ()
    for k, subset in enumerate(subsets[1:], 1):
        assert position[subset[:-1]] < k


@pytest.mark.parametrize("system", [S23, QUARTIC, SEXTIC, DOUBLED])
def test_branch_cap_counts_indices_before_building(monkeypatch, system):
    indices = sum(len(subset) for subset in branch_subsets(system))
    monkeypatch.setattr(defaults, "MAX_BRANCH_INDICES", indices)
    assert build_portrait(system).branches == tuple(branch_subsets(system))

    def refuse(*args, **kwargs):
        raise AssertionError("the portrait was built before the branch cap")

    for name in ("nonexpansive_hyperplanes", "crossing_set", "branch_subsets"):
        monkeypatch.setattr(subdynamics, name, refuse)
    monkeypatch.setattr(defaults, "MAX_BRANCH_INDICES", indices - 1)
    with pytest.raises(ResourceCapError, match=f"^{indices} branch indices exceed the branch cap of {indices - 1}$"):
        build_portrait(system)


@pytest.mark.parametrize("system", [S23, QUARTIC, SEXTIC, DOUBLED])
def test_portrait_walks_the_signed_pairs_once(monkeypatch, system):
    walks = []
    walk = subdynamics._signed_combinations

    def counted(sys_):
        walks.append(sys_)
        return walk(sys_)

    monkeypatch.setattr(subdynamics, "_signed_combinations", counted)
    portrait = build_portrait(system)
    assert walks == [system]
    # and the one walk gives every signed pair to exactly one of the lists
    V, _ = system.characters()
    pairs = (math.prod(2 * chi.multiplicity + 1 for chi in V) - 1) // 2
    assert len(portrait.crossing) + len(portrait.coincidences) == pairs


def left_fold_samples(sys, directions, convention, prec=64):
    """omega_samples with each branch folded from g on its own, one product
    per index, as the library computed it before prefix products."""
    V, W = sys.characters()
    wprec = prec + 8
    v_logs = [[entry.evaluate(wprec) for entry in chi.log_vector] for chi in V]
    w_logs = [[entry.evaluate(wprec) for entry in chi.log_vector] for chi in W]
    one = RealBall.one()
    out = []
    for direction in directions:
        d_balls = [RealBall.from_float(x) for x in direction]

        def factor(logs):
            form = RealBall.zero()
            for x, w in zip(d_balls, logs):
                form = form.add(x.mul(w, wprec), wprec)
            return form.neg().exp(prec)

        g = one
        for chi, logs in zip(W, w_logs):
            g = g.mul(factor(logs).max_with(one, prec).pow_int(chi.multiplicity, prec), prec)
        arch_vals = [factor(logs) for logs in v_logs]
        for subset in branch_subsets(sys):
            value = g
            for i in subset:
                value = value.mul(arch_vals[i], prec)
            if convention == "root-location":
                value = value.recip(prec)
            out.append((tuple(direction), subset, value))
    return out


def axis_directions(d):
    """The 2d signed unit vectors: exact units, so they pass the unit check
    at any precision."""
    return [tuple(float(sign * (i == k)) for i in range(d)) for k in range(d) for sign in (1, -1)]


@pytest.mark.parametrize("convention", ["inverse-root", "root-location"])
@pytest.mark.parametrize("system", [S23, LED, QUARTIC, T235, SEXTIC, DOUBLED])
def test_omega_samples_equal_left_fold(system, convention):
    # 4 samples give circle coordinates of +-6e-17 and sphere rows sharing
    # z; 300 bits uses the axes, where the exact zero coordinates meet zero
    # log entries
    for prec in (1, 2, 8, 64, 300):
        directions = axis_directions(system.d) if prec == 300 else default_directions(system, 4)
        try:
            want = left_fold_samples(system, directions, convention, prec)
        except ZeroDivisionError:
            # a 1- or 2-bit branch value can straddle zero; no reciprocal then
            with pytest.raises(UndecidedError, match=f"its {prec}-bit enclosure contains 0$"):
                omega_samples(system, directions, convention, prec)
            continue
        got = branch_ball_rows(system, directions, convention, prec)
        assert [(v, s) for v, s, _ in got] == [(v, s) for v, s, _ in want]
        assert [(b.mid, b.rad) for _, _, b in got] == [(b.mid, b.rad) for _, _, b in want]


def test_omega_factor_memo_starts_over_at_its_size(monkeypatch):
    # 6 x 6 sphere rows share z, and x, y repeat at mirror images; a memo of
    # two keys starts over many times and changes no bit
    directions = default_directions(T235, 6)
    want = left_fold_samples(T235, directions, "inverse-root")
    monkeypatch.setattr(subdynamics, "_FACTOR_MEMO_SIZE", 2)
    got = branch_ball_rows(T235, directions)
    assert [(v, s, b.mid, b.rad) for v, s, b in got] == [(v, s, b.mid, b.rad) for v, s, b in want]


@pytest.mark.parametrize("convention", ["inverse-root", "root-location"])
@pytest.mark.parametrize("system", [S23, LED, T235, SEXTIC, DOUBLED])
def test_omega_samples_are_the_doubles_of_the_branch_balls(system, convention):
    directions = default_directions(system, 4)
    rows = omega_samples(system, directions, convention)
    balls = branch_ball_rows(system, directions, convention)
    assert len(rows) == len(balls)
    assert list(rows) == [(v, s, *b.float_bounds()) for v, s, b in balls]
    # each direction is one tuple, shared by its rows
    assert len({id(v) for v, *_ in rows}) == len(directions)


def test_sextic_branches_take_47_products_per_direction(monkeypatch):
    # characters 2 and 3 of dk-sextic both have a zero log-vector, so the 16
    # branch pairs that differ only in 2 <-> 3 share one product: 63 - 16
    V, W = SEXTIC.characters()
    assert len(branch_subsets(SEXTIC)) == 64 and not W
    zero = [k for k, chi in enumerate(V) if all(e.is_trivially_zero() for e in chi.log_vector)]
    assert zero == [2, 3]
    # products inside a factor (its log forms and their sums) are not counted
    in_factor = []
    products = []
    real_mul = RealBall.mul

    def uncounted(method):
        def wrapped(*args):
            in_factor.append(method)
            try:
                return method(*args)
            finally:
                in_factor.pop()
        return wrapped

    def mul(self, other, prec):
        if not in_factor:
            products.append(prec)
        return real_mul(self, other, prec)

    for name in ("__init__", "at"):
        monkeypatch.setattr(subdynamics._OmegaFactor, name, uncounted(getattr(subdynamics._OmegaFactor, name)))
    monkeypatch.setattr(RealBall, "mul", mul)
    directions = default_directions(SEXTIC, 8)
    rows = omega_samples(SEXTIC, directions)
    assert len(rows) == 8 * 64
    assert len(products) == 8 * 47


@pytest.mark.parametrize("convention", ["inverse-root", "root-location"])
def test_sextic_exports_each_distinct_ball_once(monkeypatch, convention):
    # at each of the 720 default directions the 64 branches share 48 balls
    # (g and 47 products); each is exported once and, for root-location,
    # inverted once: 720 x 48 calls each, where one per row made 720 x 64;
    # the rows hold bounds only, so no midpoint is taken
    directions = default_directions(SEXTIC)
    omega_samples(SEXTIC, directions[:1], convention)  # characters and root logs
    calls = Counter()
    for name in ("float_bounds", "mid_float", "recip"):
        def counted(self, *args, name=name, method=getattr(RealBall, name)):
            calls[name] += 1
            return method(self, *args)
        monkeypatch.setattr(RealBall, name, counted)
    rows = omega_samples(SEXTIC, directions, convention)
    assert len(rows) == 720 * 64
    assert calls["float_bounds"] == 720 * 48 == 34_560
    assert calls["mid_float"] == 0
    assert calls["recip"] == (34_560 if convention == "root-location" else 0)
    assert len(rows.slots) == 64 and max(rows.slots) == 47


def test_root_location_names_the_first_branch_containing_zero():
    # 1- and 2-bit branch values can straddle 0; the error names the first
    # (direction, branch) in row order whose value does, shared or not
    raised = 0
    for system in (S23, LED, QUARTIC, T235, SEXTIC, DOUBLED):
        for prec in (1, 2):
            directions = default_directions(system, 4)
            rows = left_fold_samples(system, directions, "inverse-root", prec)
            first = next(((v, s) for v, s, b in rows if b.contains_zero()), None)
            if first is None:
                omega_samples(system, directions, "root-location", prec)
                continue
            raised += 1
            with pytest.raises(UndecidedError) as info:
                omega_samples(system, directions, "root-location", prec)
            assert info.value.what == (f"reciprocal of the branch value f_{list(first[1])} at {first[0]}: "
                                       f"its {prec}-bit enclosure contains 0")
    assert raised >= 3


def test_sextic_rows_hold_under_3_mb(monkeypatch):
    # 720 x 64 rows, from 48 balls of three doubles per direction; as balls
    # they held about 17.7 MB.  What the rows hold does not depend on the
    # values, so every direction takes the balls of the first one, which
    # keeps tracemalloc's slowdown small
    directions = default_directions(SEXTIC)
    subsets = branch_subsets(SEXTIC)
    _, balls, slots = next(subdynamics._branch_balls(SEXTIC, subsets, directions, "inverse-root", 64))

    def first_balls(sys_, subsets, directions, convention, prec):
        for direction in directions:
            yield tuple(float(x) for x in direction), balls, slots

    monkeypatch.setattr(subdynamics, "_branch_balls", first_balls)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = omega_samples(SEXTIC, directions)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(rows) == 720 * 64
    assert held < 3_000_000


@pytest.mark.parametrize("prec", list(range(1, 129)) + [4096])
def test_exp_neg_below_one_agrees_with_max_with(prec):
    # a (prec + 8)-bit midpoint and a 30-bit radius, as omega_samples forms
    # them: narrow forms with both within a factor of 8 of 2^(4 - prec), and
    # wide ones whose lower end is near it, where only the radius bound keeps
    # the shortcut off
    rng = random.Random(prec)
    one = RealBall.one()
    fired = 0
    for k in range(32):
        rad = from_man_exp(rng.getrandbits(30), 4 - prec - 30 + rng.randint(-3, 3))
        mid = from_man_exp(rng.getrandbits(prec + 8) | 1 << (prec + 7), 4 - 2 * prec - 10 + rng.randint(0, 6))
        if k % 4 == 3:
            rad = from_man_exp(rng.getrandbits(30) | 1 << 29, rng.randint(-40, -1) - 29)
            mid = mpf_add(mid, rad, prec + 8, "n")
        form = RealBall(mid, rad)
        if _exp_neg_below_one(form, prec):
            fired += 1
            value = form.neg().exp(prec).max_with(one, prec)
            assert (value.mid, value.rad) == (one.mid, one.rad)
    assert fired >= 3
