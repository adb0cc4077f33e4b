"""Command line behavior: formats, exit codes, determinism, entry points."""

import ast
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from rankone import (
    build_portrait, cli, defaults, load_fixture, omega_samples, parse_descriptor, periodic, sampling,
    subdynamics, zeta,
)
from rankone.balls import RealBall
from rankone.errors import ResourceCapError, UndecidedError
from rankone.subdynamics import _round12, default_directions

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- periodic -------------------------------------------------------------

def test_periodic_csv_matches_golden(capsys):
    code, out, err = run(capsys, "periodic", "times2times3", "--range=-5..5,0..5")
    assert code == 0
    assert out == (GOLDEN / "times2times3_counts.csv").read_text()


def test_range_value_with_leading_dash(capsys):
    # argparse needs help accepting "--range -5..5,0..5"
    a = run(capsys, "periodic", "times2times3", "--range", "-5..5,0..5")
    b = run(capsys, "periodic", "times2times3", "--range=-5..5,0..5")
    assert a == b


def test_periodic_json_provenance(capsys):
    code, out, err = run(
        capsys, "periodic", "times2times3", "--range=0..1,0..1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "periodic"
    assert doc["convention"] == "inverse-root"
    assert doc["j"] == 1
    assert len(doc["descriptor_hash"]) == 64
    assert doc["entries"][0] == {"n": [0, 0], "count": None}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_periodic_prints_counts_past_the_default_digit_limit(capsys, fmt):
    # the count is the prime-to-{2,3} part of 2^15000 - 1, (2^15000 - 1)/9:
    # 4,515 digits, more than Python converts by default
    code, out, err = run(capsys, "periodic", "times2times3", "--range=15000..15000,0..0", "--format", fmt)
    assert (code, err) == (0, "")
    expected = str((2 ** 15000 - 1) // 9)
    if fmt == "csv":
        assert out == f"n1,n2,count\n15000,0,{expected}\n"
    else:
        assert json.loads(out)["entries"] == [{"n": [15000, 0], "count": int(expected)}]


def test_bit_budget_counts_multiplicity(tmp_path, capsys):
    # one factor is estimated at 15,000 bits; the count has about 5 million
    path = tmp_path / "many.json"
    path.write_text(json.dumps({"d": 2, "components": [
        {"class": "s_integer", "multiplicity": 1000, "generators": ["2", "3"]}]}))
    code, out, err = run(capsys, "periodic", str(path), "--range=5000..5000,0..0")
    assert (code, out) == (3, "")
    assert err == "error: estimated size 15000000 bits exceeds the 1000000-bit budget\n"


def test_budget_bounds_a_number_field_count_with_large_roots(tmp_path, capsys):
    # x^2 - 1000x + 1: the generator x has coordinates (0, 1), but its root
    # near 1000 gives the count at n = 120,000 about 1.2 million bits; the
    # estimate (24 bits per unit of n) rejects it before any count, where
    # the coordinate sizes alone (8 bits) let it run into Python's limit on
    # integer-to-text conversion
    path = tmp_path / "big-root.json"
    path.write_text(json.dumps({"d": 1, "components": [
        {"class": "number_field_units", "min_poly": [1, -1000, 1], "generators": [["0", "1"]]}]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "periodic", str(path), "--range=120000..120000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == "error: estimated size 2880000 bits exceeds the 1000000-bit budget\n"


def test_periodic_output_file_equals_stdout(tmp_path, capsys):
    target = tmp_path / "grid.csv"
    code, out, err = run(
        capsys, "periodic", "times2times3", "--range=0..2,0..2", "-o", str(target)
    )
    assert code == 0
    stdout_code, stdout_text, _ = run(capsys, "periodic", "times2times3", "--range=0..2,0..2")
    assert target.read_bytes().decode() == stdout_text


def test_periodic_bad_range_is_validation_error(capsys):
    code, out, err = run(capsys, "periodic", "times2times3", "--range=5..1,0..2")
    assert code == 1
    assert "error" in err


def test_periodic_resource_cap_exit_code(capsys):
    code, out, err = run(
        capsys, "periodic", "times2times3", "--range=400000..400000,400000..400000"
    )
    assert code == 3
    assert "budget" in err


# --- zeta -----------------------------------------------------------------

def test_zeta_summary(capsys):
    code, out, err = run(capsys, "zeta", "times2times3", "--n", "1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["c"] == [1, 6]
    assert doc["lambda"] == [1, -1]
    assert doc["mu"] == 1
    assert doc["convention"] == "inverse-root"
    assert len(doc["descriptor_hash"]) == 64


def test_zeta_identity_direction_rejected(capsys):
    code, out, err = run(capsys, "zeta", "times2times3", "--n", "0,0")
    assert code == 1


def test_zeta_non_expansive_needs_force(capsys):
    code, out, err = run(capsys, "zeta", "ledrappier", "--n", "1,0")
    assert code == 1
    assert "force" in err


def test_zeta_forced_inconsistency_exits_undecided(capsys):
    code, out, err = run(capsys, "zeta", "ledrappier", "--n", "1,0", "--force")
    assert code == 2


@pytest.mark.parametrize("n, j", [("2", 3), ("3", 1)])
def test_zeta_infinite_count_exits_validation(tmp_path, capsys, n, j):
    # the generator is a primitive cube root of unity, so the count at
    # j = 3/n is infinite and no zeta function exists at any precision
    path = tmp_path / "cube_root.json"
    path.write_text(json.dumps({"d": 1, "components": [
        {"class": "number_field_units", "min_poly": [1, 1, 1], "generators": [["0", "1"]]},
    ]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "zeta", str(path), "--n", n, "--force")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == f"error: the count at j={j} is infinite, so no rational zeta function exists\n"


def test_multiplicity_two_quartic_fits_all_46_values(monkeypatch, tmp_path, capsys):
    # one certified solve of the 46 x 46 Vandermonde system fixes all the
    # coefficients, some as large as 20 in absolute value
    path = tmp_path / "quartic_twice.json"
    path.write_text(json.dumps({"d": 2, "components": [{
        "class": "number_field_units", "multiplicity": 2, "min_poly": [1, 0, -10, 0, 1],
        "generators": [["1", "-9/2", "0", "1/2"], ["2", "11/2", "0", "-1/2"]],
    }]}))
    fits = []

    def kept(*args, **kwargs):
        fits.append(fit(*args, **kwargs))
        return fits[-1]

    fit = zeta.inverse_roots
    monkeypatch.setattr(zeta, "inverse_roots", kept)
    code, out, err = run(capsys, "zeta", str(path), "--n", "-1,-2")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert len(doc["factors"]) == 46
    zf, = fits
    J = zf.verified_to + 4
    counts = periodic.count_sequence(parse_descriptor(path.read_text()), (-1, -2), J)
    assert zeta.verify_generating_identity(zf, counts, J)["ok"]


def test_zeta_checks_the_budget_before_the_branches(monkeypatch, tmp_path, capsys):
    # F_1 of a multiplicity-10^6 copy of x -> 2x is estimated at 3 x 10^6 bits, so
    # the fit is over the budget at its fewest periods; 10^6 + 1 exact branch
    # values would take tens of GB
    class BranchesBuilt(Exception):
        pass

    def refuse(*args):
        raise BranchesBuilt

    monkeypatch.setattr(zeta, "_branches", refuse)
    path = tmp_path / "copies.json"
    for multiplicity, jmax, message in [
        (10 ** 6, [], "estimated size 3000000 bits"),
        # 3,000 bits a period: period 334 is the first over the budget
        (1000, ["--jmax", "334"], "estimated size 1002000 bits"),
    ]:
        path.write_text(json.dumps({"d": 1, "components": [
            {"class": "s_integer", "multiplicity": multiplicity, "generators": ["2"]}]}))
        code, out, err = run(capsys, "zeta", str(path), "--n", "1", *jmax)
        assert (code, out) == (3, "")
        assert err == f"error: {message} exceeds the 1000000-bit budget\n"
    # under the budget at --jmax 333, the 1,001 distinct exact values are
    # counted, not built, and need 1,003 periods
    code, out, err = run(capsys, "zeta", str(path), "--n", "1", "--jmax", "333")
    assert (code, out, err) == (1, "", "error: need at least 1003 count terms for 1001 candidate values\n")
    # within the budget and the periods, the branches are built
    path.write_text(json.dumps({"d": 1, "components": [
        {"class": "s_integer", "multiplicity": 100, "generators": ["2"]}]}))
    with pytest.raises(BranchesBuilt):
        cli.main(["zeta", str(path), "--n", "1", "--jmax", "103"])


def test_fit_work_cap_exits_resource(monkeypatch, capsys):
    # the 27 values of this fit are certified at 119 bits: 27^2 x 119 = 86,751
    # units, checked before any ball work
    monkeypatch.setattr(defaults, "FIT_WORK_CAP", 86750)
    code, out, err = run(capsys, "zeta", "dk-sextic", "--n", "1,0", "--force")
    assert code == 3
    assert out == ""
    assert err == (
        "error: certifying 27 zeta coefficients at 119 bits exceeds the fit work cap "
        "of 86750 (K^2 x bits)\n"
    )
    monkeypatch.setattr(defaults, "FIT_WORK_CAP", 86751)
    assert run(capsys, "zeta", "dk-sextic", "--n", "1,0", "--force")[0] == 0


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("zeta_dk-sextic_1_1_force.json", ["zeta", "dk-sextic", "--n", "1,1", "--force"]),
        ("zeta_sqrt2sqrt3_-1_2.json", ["zeta", "sqrt2sqrt3", "--n", "-1,2"]),
        ("zeta_times2times3times5_1_1_1.json", ["zeta", "times2times3times5", "--n", "1,1,1"]),
        ("zeta_ledrappier_1_1.json", ["zeta", "ledrappier", "--n", "1,1"]),
        ("analyze_dk-sextic.json", ["analyze", "dk-sextic"]),
    ],
)
def test_zeta_and_analyze_stdout_match_golden(capsys, golden, argv):
    # every printed interval endpoint is pinned, so a change to the ball
    # arithmetic behind a fit shows up as a byte difference
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()


# --- portrait and omega ------------------------------------------------------

def test_portrait_json_ledrappier(capsys):
    code, out, err = run(capsys, "portrait", "ledrappier", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    noeth = [h for h in doc["hyperplanes"] if h["label"] == "noetherian"]
    variety = [h for h in doc["hyperplanes"] if h["label"] == "variety"]
    assert len(noeth) == 3 and variety == []
    assert err == ""


def test_portrait_svg(capsys):
    code, out, err = run(capsys, "portrait", "times2times3times5", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg")
    assert out.rstrip().endswith("</svg>")
    assert out.count("<polyline") >= 4


@pytest.mark.parametrize("d", [1, 4])
def test_svg_dimension_is_checked_before_the_portrait(monkeypatch, tmp_path, capsys, d):
    # a multiplicity-8,000 character has 32 million branch indices, which
    # build_portrait lists (534 MB) before the SVG writer sees d
    path = tmp_path / f"d{d}.json"
    path.write_text(json.dumps({"d": d, "components": [
        {"class": "s_integer", "multiplicity": 8000, "generators": [str(p) for p in (2, 3, 5, 7)[:d]]}]}))

    def refuse(*args, **kwargs):
        raise AssertionError("build_portrait ran before the SVG dimension check")

    monkeypatch.setattr(subdynamics, "build_portrait", refuse)
    assert run(capsys, "portrait", str(path), "--format", "svg") == (
        1, "", "error: SVG output is available for d = 2 and d = 3 only\n")


def test_branch_cap_exits_before_the_portrait(tmp_path, capsys):
    # one character of multiplicity 60,000 passes the crossing cap (60,000
    # signed pairs) but its branches would list 1.8 x 10^9 indices
    path = tmp_path / "m60000.json"
    path.write_text(json.dumps({"d": 1, "components": [
        {"class": "s_integer", "multiplicity": 60000, "generators": ["2"]}]}))
    start = time.perf_counter()
    assert run(capsys, "portrait", str(path), "--format", "json") == (
        3, "", f"error: 1800030000 branch indices exceed the branch cap of {defaults.MAX_BRANCH_INDICES}\n")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("samples", ["6", "100000"])
def test_sphere_svg_samples_no_rows(monkeypatch, capsys, samples):
    # the d = 3 SVG draws no rows, so --samples neither samples nor meets the row cap
    plain = run(capsys, "portrait", "times2times3times5", "--format", "svg")
    assert plain[0] == 0

    def refuse(*args, **kwargs):
        raise AssertionError("the d = 3 SVG sampled omega rows")

    monkeypatch.setattr(subdynamics, "omega_samples", refuse)
    argv = ["portrait", "times2times3times5", "--format", "svg", "--samples", samples]
    assert run(capsys, *argv) == plain


def test_portrait_warning_on_stderr(capsys):
    code, out, err = run(capsys, "portrait", "dk-sextic", "--format", "json")
    assert code == 0
    assert "non-expansive in every direction" in err
    doc = json.loads(out)
    assert doc["warnings"]


def test_portrait_evaluates_each_exact_log_once_per_precision(monkeypatch, tmp_path):
    # the zero tests and to_json take the crossing normals at 64 bits both;
    # 1,320 evaluations come from 664 (ExactLog, precision) pairs
    from rankone import exactlog

    computed = []
    evaluate = exactlog.ExactLog._evaluate
    monkeypatch.setattr(exactlog.ExactLog, "_evaluate",
                        lambda self, prec: computed.append(prec) or evaluate(self, prec))
    assert cli.main(["portrait", "dk-sextic", "-o", str(tmp_path / "portrait.json")]) == 0
    assert len(computed) == 664


def test_portrait_byte_determinism(capsys):
    a = run(capsys, "portrait", "times2times3", "--samples", "16", "--format", "json")
    b = run(capsys, "portrait", "times2times3", "--samples", "16", "--format", "json")
    assert a == b


def test_omega_csv(capsys):
    code, out, err = run(capsys, "omega", "times2times3", "--samples", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "v1,v2,branch,lo,hi"
    assert len(lines) == 1 + 8 * 2
    for line in lines[1:]:
        fields = line.rsplit(",", 2)
        assert float(fields[1]) <= float(fields[2])


def test_omega_json_convention_flag(capsys):
    code, out, err = run(
        capsys, "omega", "times2times3", "--samples", "4",
        "--format", "json", "--convention", "root-location",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["convention"] == "root-location"
    assert len(doc["samples"]) == 8


def test_reciprocal_of_a_ball_containing_zero_exits_undecided(capsys):
    # at 1 bit the branch value f_[5] of the sextic at (1, 0) is enclosed
    # by a ball that contains 0, so root-location has no reciprocal for it
    code, out, err = run(capsys, "omega", "dk-sextic", "--precision-bits", "1", "--convention", "root-location")
    assert (code, out) == (2, "")
    assert err == (
        "error: undecided at the precision cap: reciprocal of the branch value f_[5] "
        "at (1.0, 0.0): its 1-bit enclosure contains 0\n"
    )


LINE_DESCRIPTOR = {"d": 1, "components": [{"class": "s_integer", "generators": ["2"]}]}

# the default direction grid of each command, pinned by sha256 of stdout,
# stderr and the exit code; "LINE" stands for a d = 1 descriptor file
DIRECTION_DEFAULT_CASES = {
    "portrait_times2times3": ["portrait", "times2times3"],
    "portrait_times2times3times5": ["portrait", "times2times3times5"],
    "portrait_ledrappier_svg": ["portrait", "ledrappier", "--format", "svg"],
    "portrait_times2times3_samples0": ["portrait", "times2times3", "--samples", "0"],
    "omega_times2times3": ["omega", "times2times3"],
    "omega_times2times3_samples0": ["omega", "times2times3", "--samples", "0"],
    "omega_line": ["omega", "LINE"],
}


def main_digests(argv) -> dict:
    """sha256 of stdout and stderr plus the exit code of one in-process call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(argv))
    return {
        "stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(stderr.getvalue().encode()).hexdigest(),
        "exit": code,
    }


def direction_default_digests(line_path: str) -> dict:
    """{case: {stdout, stderr, exit}} for DIRECTION_DEFAULT_CASES, in process."""
    return {
        case: main_digests([line_path if a == "LINE" else a for a in argv])
        for case, argv in DIRECTION_DEFAULT_CASES.items()
    }


def test_direction_defaults_match_golden(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps(LINE_DESCRIPTOR))
    golden = json.loads((GOLDEN / "direction_defaults.json").read_text())
    assert direction_default_digests(str(path)) == golden


# descriptor files of the omega row pins, by the placeholder in their argv:
# d = 1 and d = 4 portraits keep "omega": [], and DOUBLE has an archimedean
# character of multiplicity 2, so its branches repeat an index
OMEGA_DESCRIPTORS = {
    "LINE": LINE_DESCRIPTOR,
    "QUAD": {"d": 4, "components": [{"class": "s_integer", "generators": ["2", "3", "5", "7"]}]},
    "DOUBLE": {"label": "doubled", "d": 2, "components": [
        {"class": "s_integer", "multiplicity": 2, "generators": ["2", "3"]},
        {"class": "s_integer", "generators": ["5", "7"]},
    ]},
}
FIXTURES = ("times2times3", "ledrappier", "sqrt2sqrt3", "times2times3times5", "dk-sextic")
CONVENTIONS = ("inverse-root", "root-location")


def _omega_row_cases() -> dict:
    """case -> argv of portrait JSON and omega JSON/CSV output, pinned by
    sha256 of stdout, stderr and the exit code."""
    cases = {}
    for conv in CONVENTIONS:
        for fixture in FIXTURES + ("DOUBLE",):
            for samples in ((), ("--samples", "0"), ("--samples", "24")):
                if fixture == "dk-sextic" and not samples:
                    continue  # 46,080 rows, pinned by the benchmark digest gate
                name = "_".join(["portrait", fixture, *samples[1:], conv])
                cases[name] = ["portrait", fixture, "--format", "json", *samples, "--convention", conv]
        for source, samples in (("sqrt2sqrt3", "24"), ("times2times3times5", "8"), ("DOUBLE", "12")):
            for fmt in ("json", "csv"):
                cases[f"omega_{source}_{samples}_{fmt}_{conv}"] = [
                    "omega", source, "--samples", samples, "--format", fmt, "--convention", conv,
                ]
    for source in ("LINE", "QUAD"):
        for samples in ((), ("--samples", "24")):
            cases["_".join(["portrait", source, *samples[1:]])] = ["portrait", source, *samples]
    return cases


OMEGA_ROW_CASES = _omega_row_cases()


def omega_row_digests(tmp_path) -> dict:
    """{case: {stdout, stderr, exit}} for OMEGA_ROW_CASES, in process."""
    paths = {}
    for name, doc in OMEGA_DESCRIPTORS.items():
        paths[name] = tmp_path / f"{name.lower()}.json"
        paths[name].write_text(json.dumps(doc))
    return {
        case: main_digests([str(paths[a]) if a in paths else a for a in argv])
        for case, argv in OMEGA_ROW_CASES.items()
    }


def test_omega_rows_match_golden(tmp_path):
    golden = json.loads((GOLDEN / "omega_rows.json").read_text())
    assert omega_row_digests(tmp_path) == golden


SPECIAL_FLOATS = (0.0, -0.0, 1e-300, 1e300, math.inf, -math.inf, math.nan, 1 / 3, -2.5e-7)


def synthetic_rows(d: int) -> subdynamics.OmegaRows:
    """Rows over special floats, with an empty branch and repeated indices,
    in the row object omega_samples returns; two branches share one ball."""
    rows = subdynamics.OmegaRows([(), (0,), (0, 0), (0, 1, 1, 2)])
    rows.slots = (0, 1, 0, 2)
    specials = itertools.cycle(SPECIAL_FLOATS)
    for _ in range(10):
        rows.directions.append(tuple(next(specials) for _ in range(d)))
        rows.floats.extend(next(specials) for _ in range(3 * 2))
    return rows


def row_dicts(rows) -> list:
    """The reference rendering of omega rows: one dict per row, every float
    rounded by _round12, for json.dumps to lay out."""
    return [
        {
            "direction": [_round12(x) for x in direction],
            "branch": list(subset),
            "value": [_round12(lo), _round12(hi)],
        }
        for direction, subset, lo, hi in rows
    ]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("key", ["omega", "samples"])
def test_streamed_rows_equal_json_dumps(d, key):
    rows = synthetic_rows(d)
    # as in the commands: "omega" has a key after it, "samples" is the last
    doc = {"command": "x", "label": None, "notes": ["n"], key: []}
    if key == "omega":
        doc["warnings"] = ["w"]
    streamed = "".join(sampling._json_with_rows(doc, key, rows))
    doc[key] = row_dicts(rows)
    assert streamed == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    for token in ("NaN", "Infinity", "-Infinity", "-0.0", "1e-300", "1e+300", '"branch": []'):
        assert token in streamed
    doc[key] = []
    empty = "".join(sampling._json_with_rows(doc, key, []))
    assert empty == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("pad", range(4084, 4092))
def test_streamed_rows_splice_across_encoder_batches(pad):
    # _json_chunks joins 4,096 encoder chunks per piece; a list of pad ints
    # is pad chunks, so across these pads the empty array's chunks ("\n  ",
    # '"omega"', ": ", "[]") straddle the first boundary at every position
    rows = synthetic_rows(2)
    doc = {"a": [0] * pad, "omega": [], "z": [1]}
    streamed = "".join(sampling._json_with_rows(doc, "omega", rows))
    doc["omega"] = row_dicts(rows)
    assert streamed == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("fixture, samples", [("dk-sextic", 24), ("times2times3times5", 6)])
def test_portrait_stdout_equals_library_json(capsys, fixture, samples):
    code, out, err = run(capsys, "portrait", fixture, "--samples", str(samples))
    assert code == 0
    system = load_fixture(fixture)
    doc = {"command": "portrait"}
    doc.update(build_portrait(system).to_json())
    doc["omega"] = row_dicts(omega_samples(system, default_directions(system, samples)))
    assert doc["omega"]
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["portrait", "sqrt2sqrt3", "--samples", "12"],
        ["omega", "times2times3times5", "--samples", "6", "--format", "csv"],
    ],
)
def test_streamed_output_file_equals_stdout(tmp_path, capsys, argv):
    target = tmp_path / "out"
    assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize(
    "argv, rows",
    [
        # the sextic portrait warns on success; a failed one prints only the error
        (["portrait", "dk-sextic", "--samples", "2"], 2 * 64),
        (["omega", "sqrt2sqrt3", "--samples", "6", "--format", "json"], 6 * 16),
        (["omega", "times2times3times5", "--samples", "4", "--format", "csv"], 16 * 2),
    ],
)
def test_failure_while_sampling_writes_nothing(tmp_path, monkeypatch, capsys, argv, rows):
    argv = argv + ["--convention", "root-location"]
    original = RealBall.recip
    calls, fail_at = 0, None

    def recip(self, prec):
        nonlocal calls
        calls += 1
        if calls == fail_at:
            raise UndecidedError("injected")
        return original(self, prec)

    monkeypatch.setattr(RealBall, "recip", recip)
    assert main_digests(argv)["exit"] == 0  # fills the caches of the structural part
    calls = 0
    assert main_digests(argv)["exit"] == 0
    # root-location takes one reciprocal per row, after the structural part
    fail_at = calls - rows // 2
    for output in ([], ["--output", str(tmp_path / "out")]):
        calls = 0
        code, out, err = run(capsys, *argv, *output)
        assert code == 2
        assert out == ""
        assert err == "error: undecided at the precision cap: injected\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        # 100,000 directions x 64 branches; 10^10 sphere directions x 2 branches
        ["omega", "dk-sextic", "--samples", "100000"],
        ["portrait", "times2times3times5", "--samples", "100000"],
    ],
)
def test_row_cap_exits_before_sampling(tmp_path, capsys, argv):
    rows = {
        "dk-sextic": "6400000 omega rows (100000 directions x 64 branches)",
        "times2times3times5": "20000000000 omega rows (10000000000 directions x 2 branches)",
    }[argv[1]]
    for output in ([], ["--output", str(tmp_path / "out")]):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, *output)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert err == f"error: {rows} exceed the omega row cap of {defaults.MAX_OMEGA_ROWS}\n"
    assert not (tmp_path / "out").exists()


def test_row_cap_counts_directions_times_branches(monkeypatch, capsys):
    # dk-sextic has 64 branches: 2 directions give 128 rows, 3 give 192
    monkeypatch.setattr(defaults, "MAX_OMEGA_ROWS", 128)
    assert run(capsys, "omega", "dk-sextic", "--samples", "2")[0] == 0
    assert run(capsys, "omega", "dk-sextic", "--samples", "3")[0] == 3


def test_row_cap_counts_branches_without_building_them(monkeypatch):
    # one character of multiplicity 8,000 has 8,001 branches, so 1,000
    # directions are over the row cap; branch_subsets would list 32 million
    # indices before the count
    sys_ = parse_descriptor({
        "d": 2,
        "components": [{"class": "s_integer", "multiplicity": 8000, "generators": ["2", "3"]}],
    })

    def listed(sys_):
        raise AssertionError("branch_subsets built the branches to count them")

    monkeypatch.setattr(subdynamics, "branch_subsets", listed)
    with pytest.raises(ResourceCapError, match=r"^8001000 omega rows \(1000 directions x 8001 branches\) exceed"):
        default_directions(sys_, 1000)


def test_grid_cap_exits_before_counting(tmp_path, capsys):
    # 4001^2 points: about 10 GB of entries and CSV text without the cap
    for output in ([], ["--output", str(tmp_path / "out")]):
        start = time.perf_counter()
        code, out, err = run(capsys, "periodic", "times2times3", "--range=-2000..2000,-2000..2000", *output)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"16008001 lattice points exceed the grid cap of {defaults.MAX_GRID_POINTS}" in err
    assert not (tmp_path / "out").exists()


def test_grid_size_cap_exits_before_counting(capsys):
    # 400,001 points pass the point cap, but their counts would hold about
    # 4 x 10^10 bits (5 GB)
    start = time.perf_counter()
    code, out, err = run(capsys, "periodic", "times2times3", "--range=-200000..200000,0..0")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == ("error: estimated size 120000600000 bits of all counts exceeds the grid cap of "
                   f"{defaults.MAX_GRID_BITS} bits\n")


def test_grid_cap_counts_lattice_points(monkeypatch, capsys):
    monkeypatch.setattr(defaults, "MAX_GRID_POINTS", 6)
    assert run(capsys, "periodic", "times2times3", "--range=0..1,0..2")[0] == 0
    assert run(capsys, "periodic", "times2times3", "--range=0..2,0..2")[0] == 3


# --- analyze --------------------------------------------------------------------

def test_analyze_times2times3(capsys):
    code, out, err = run(capsys, "analyze", "times2times3")
    assert code == 0
    doc = json.loads(out)
    assert doc["validation"]["ok"] is True
    assert doc["validation"]["ergodicity"] == "ergodic"
    assert len(doc["characters"]) == 3
    assert doc["zeta"]
    assert err == ""


def test_analyze_sextic_warns(capsys):
    code, out, err = run(capsys, "analyze", "dk-sextic")
    assert code == 0
    assert "non-expansive in every direction" in err
    doc = json.loads(out)
    skipped = [z for z in doc["zeta"] if str(z.get("status", "")).startswith("skipped")]
    assert skipped


def test_analyze_document_streams_under_1_mb(monkeypatch, tmp_path):
    # the 508 KB analyze document of dk-sextic, written as it is encoded;
    # joined into one string first, the encoder's chunk list alone held
    # about 3 MB
    docs = []
    chunks = cli._json_chunks
    monkeypatch.setattr(sampling, "_json_chunks", lambda doc: docs.append(doc) or chunks(doc))
    assert cli.main(["analyze", "dk-sextic", "-o", str(tmp_path / "run.json")]) == 0
    [doc] = docs

    def peak(emit):
        gc.collect()
        tracemalloc.start()
        try:
            emit()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    streamed = peak(lambda: cli._emit(chunks(doc), str(tmp_path / "streamed.json")))
    whole = peak(lambda: cli._emit(
        [json.dumps(doc, indent=2, sort_keys=True) + "\n"], str(tmp_path / "whole.json"),
    ))
    texts = {(tmp_path / name).read_text() for name in ("run.json", "streamed.json", "whole.json")}
    assert len(texts) == 1 and len(texts.pop()) > 500_000
    assert streamed < 1_000_000 and whole > 2_000_000


def test_crossing_cap_exits_before_the_first_pair(tmp_path, capsys):
    # x^12 - x^11 + 1 has 12 archimedean characters: (3^12 - 1) / 2 = 265,720
    # signed branch pairs, four times the crossing cap
    path = tmp_path / "degree-12.json"
    path.write_text(json.dumps({"d": 1, "components": [{
        "class": "number_field_units", "min_poly": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 1],
        "generators": [["0", "1"]],
    }]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", str(path))
    assert time.perf_counter() - start < 5.0
    assert code == 3
    assert out == ""
    assert err == (
        "error: 265720 signed branch pairs exceed the crossing cap of "
        f"{defaults.MAX_CROSSING_PAIRS}\n"
    )


def test_crossing_cap_counts_signed_branch_pairs(monkeypatch, capsys):
    # dk-sextic: six characters of multiplicity 1 give (3^6 - 1) / 2 = 364 pairs
    monkeypatch.setattr(defaults, "MAX_CROSSING_PAIRS", 363)
    assert run(capsys, "portrait", "dk-sextic", "--format", "svg")[0] == 3
    monkeypatch.setattr(defaults, "MAX_CROSSING_PAIRS", 364)
    assert run(capsys, "portrait", "dk-sextic", "--format", "svg")[0] == 0


# --- descriptor resolution and global flags ---------------------------------------

def test_missing_descriptor_lists_fixtures(capsys):
    code, out, err = run(capsys, "analyze", "no-such-fixture")
    assert code == 1
    assert "times2times3" in err


def test_descriptor_from_file(tmp_path, capsys):
    doc = {"label": "custom", "d": 2, "components": [
        {"class": "s_integer", "multiplicity": 1, "generators": ["2", "5"]},
    ]}
    path = tmp_path / "mine.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "periodic", str(path), "--range=1..1,1..1")
    assert code == 0
    assert out.splitlines()[1] == "1,1,9"  # |2*5 - 1| = 9


def test_precision_flag_above_cap_rejected(monkeypatch, capsys):
    monkeypatch.setenv("RANKONE_PRECISION_BITS", "64")
    monkeypatch.setenv("RANKONE_MAX_PRECISION_BITS", "4096")
    code, out, err = run(
        capsys, "analyze", "times2times3", "--precision-bits", "8192"
    )
    assert code == 1
    assert "exceeds the cap" in err


def test_precision_flags_hold_for_one_call_only(monkeypatch, capsys):
    monkeypatch.delenv("RANKONE_PRECISION_BITS", raising=False)
    monkeypatch.setenv("RANKONE_MAX_PRECISION_BITS", "4096")
    plain = run(capsys, "zeta", "times2times3", "--n", "1,1")
    assert plain[0] == 0
    code, out, err = run(
        capsys, "zeta", "times2times3", "--n", "1,1", "--precision-bits", "8192"
    )
    assert code == 1 and "exceeds the cap 4096" in err
    assert run(capsys, "zeta", "times2times3", "--n", "1,1") == plain
    code, out, err = run(
        capsys, "zeta", "times2times3", "--n", "1,1",
        "--precision-bits", "8192", "--max-precision-bits", "16384",
    )
    assert code == 0
    assert "RANKONE_PRECISION_BITS" not in os.environ
    assert os.environ["RANKONE_MAX_PRECISION_BITS"] == "4096"
    assert run(capsys, "zeta", "times2times3", "--n", "1,1") == plain


PRECISION_ENV_NAMES = ("RANKONE_PRECISION_BITS", "RANKONE_MAX_PRECISION_BITS")

# precision and cap settings, pinned by sha256 of stdout, stderr and the exit
# code: case -> (environment, argv)
PRECISION_FLAG_CASES = {
    "analyze_sqrt2sqrt3_32_32": (
        {}, ["analyze", "sqrt2sqrt3", "--precision-bits", "32", "--max-precision-bits", "32"]
    ),
    "analyze_dk-sextic_32_32": (
        {}, ["analyze", "dk-sextic", "--precision-bits", "32", "--max-precision-bits", "32"]
    ),
    "analyze_times2times3times5_16_16": (
        {}, ["analyze", "times2times3times5", "--precision-bits", "16", "--max-precision-bits", "16"]
    ),
    "analyze_ledrappier_8_8": (
        {}, ["analyze", "ledrappier", "--precision-bits", "8", "--max-precision-bits", "8"]
    ),
    "portrait_dk-sextic_16_16": (
        {}, ["portrait", "dk-sextic", "--precision-bits", "16", "--max-precision-bits", "16"]
    ),
    "zeta_sqrt2sqrt3_1_1_16_16": (
        {}, ["zeta", "sqrt2sqrt3", "--n", "1,1", "--precision-bits", "16", "--max-precision-bits", "16"]
    ),
    "zeta_sqrt2sqrt3_2_-1_16_40": (
        {}, ["zeta", "sqrt2sqrt3", "--n", "2,-1", "--precision-bits", "16", "--max-precision-bits", "40"]
    ),
    "zeta_times2times3_8192": (
        {}, ["zeta", "times2times3", "--n", "1,1", "--precision-bits", "8192"]
    ),
    "zeta_times2times3_8192_16384": (
        {}, ["zeta", "times2times3", "--n", "1,1", "--precision-bits", "8192",
             "--max-precision-bits", "16384"]
    ),
    "analyze_sqrt2sqrt3_200_300": (
        {}, ["analyze", "sqrt2sqrt3", "--precision-bits", "200", "--max-precision-bits", "300"]
    ),
    "env_precision_96_analyze_times2times3": (
        {"RANKONE_PRECISION_BITS": "96"}, ["analyze", "times2times3"]
    ),
    "env_max_precision_32_zeta_times2times3": (
        {"RANKONE_MAX_PRECISION_BITS": "32"}, ["zeta", "times2times3", "--n", "1,1"]
    ),
}


def test_precision_flags_match_golden(monkeypatch):
    golden = json.loads((GOLDEN / "precision_flags.json").read_text())
    got = {}
    for case, (env, argv) in PRECISION_FLAG_CASES.items():
        with monkeypatch.context() as m:
            for name in PRECISION_ENV_NAMES:
                m.delenv(name, raising=False)
            for name, value in env.items():
                m.setenv(name, value)
            got[case] = main_digests(argv)
    assert got == golden


def test_main_leaves_environment_unchanged(monkeypatch, capsys):
    monkeypatch.setenv("RANKONE_MAX_PRECISION_BITS", "4096")
    monkeypatch.delenv("RANKONE_PRECISION_BITS", raising=False)
    before = dict(os.environ)
    for argv, code in [
        (["zeta", "times2times3", "--n", "1,1", "--precision-bits", "128",
          "--max-precision-bits", "256"], 0),
        (["zeta", "times2times3", "--n", "1,1", "--precision-bits", "8192"], 1),
        (["periodic", "times2times3", "--range=0..1,0..1", "--precision-bits", "0"], 1),
    ]:
        assert run(capsys, *argv)[0] == code
        assert dict(os.environ) == before


def test_only_the_cli_reads_the_environment():
    package = pathlib.Path(cli.__file__).parent
    readers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                readers.add(path.name)
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                if any(a.name in ("environ", "getenv") for a in node.names):
                    readers.add(path.name)
    assert readers == {"cli.py"}


def run_module(argv, env=None) -> subprocess.CompletedProcess:
    """python -m rankone in a fresh process, without inherited precision settings."""
    environ = {k: v for k, v in os.environ.items() if k not in PRECISION_ENV_NAMES}
    environ.update(env or {})
    return subprocess.run(
        [sys.executable, "-m", "rankone", *argv],
        capture_output=True, text=True, env=environ, timeout=60,
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["zeta", "times2times3", "--n", "1,1", "--precision-bits", "0"],
         "--precision-bits must be at least 1, got 0"),
        (["portrait", "times2times3", "--samples", "4", "--precision-bits", "-8"],
         "--precision-bits must be at least 1, got -8"),
        (["zeta", "times2times3", "--n", "1,1", "--max-precision-bits", "0"],
         "--max-precision-bits must be at least 1, got 0"),
    ],
)
def test_nonpositive_precision_rejected(argv, message):
    proc = run_module(argv)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {message}\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("name", PRECISION_ENV_NAMES)
def test_malformed_precision_variable_rejected(name):
    proc = run_module(["periodic", "times2times3", "--range=0..1,0..1"], {name: "abc"})
    assert proc.returncode == 1
    assert proc.stderr == f"error: {name} must be an integer, got 'abc'\n"


@pytest.mark.parametrize(
    "argv, fragment",
    [
        ([], "required: command"),
        (["frobnicate", "times2times3"], "invalid choice: 'frobnicate'"),
        (["zeta", "sqrt2sqrt3"], "required: --n"),
        (["periodic", "times2times3", "--range=0..1,0..1", "--j", "x"], "--j: invalid int value: 'x'"),
        (["periodic", "times2times3", "--range=0..1,0..1", "--bogus"], "unrecognized arguments: --bogus"),
    ],
    ids=["no-arguments", "unknown-subcommand", "missing-n", "non-integer-j", "unknown-flag"],
)
def test_usage_error_is_one_error_line_and_exit_1(capsys, argv, fragment):
    # exit 2 means undecided, so a usage error exits 1 like any invalid input
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


def test_invalid_descriptor_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1


def _function_field(generator, characteristic=2):
    return {"d": 1, "components": [
        {"class": "function_field", "characteristic": characteristic, "generators": [generator]}
    ]}


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 100_000, "invalid JSON: nested too deeply"),
        (json.dumps(_function_field("1/(t+t)")), "division by the zero function"),
        (json.dumps(_function_field("(" * 3000 + "t" + ")" * 3000)), "nested too deeply"),
        (json.dumps(_function_field("-" * 5000 + "t", 3)), "nested too deeply"),
    ],
    ids=["deep-json", "zero-denominator", "deep-parentheses", "deep-minus"],
)
def test_hostile_descriptor_is_validation_error(tmp_path, capsys, text, message):
    path = tmp_path / "hostile.json"
    path.write_text(text)
    code, out, err = run(capsys, "periodic", str(path), "--range=0..1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_output_corpus_is_recorded():
    # the commands run in CI (tests/corpus/corpus.py check); here only that
    # each one has a record and no record lacks its command
    spec = importlib.util.spec_from_file_location("corpus", pathlib.Path(__file__).parent / "corpus" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    lines = [line for line, _, _ in corpus.load_commands()]
    recorded = json.loads(pathlib.Path(corpus.DIGESTS).read_text())
    assert sorted(lines) == sorted(recorded)
    for name in ("times2times3", "ledrappier", "sqrt2sqrt3", "dk-sextic", "times2times3times5"):
        for command in ("analyze", "periodic", "zeta", "portrait", "omega"):
            assert any(line.startswith(f"rankone {command} {name} ") or line == f"rankone {command} {name}"
                       for line in lines), (command, name)


# --- process entry points ----------------------------------------------------------

def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rankone", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "periodic" in proc.stdout


def test_module_exit_code_propagates():
    proc = subprocess.run(
        [sys.executable, "-m", "rankone.cli", "analyze", "nope"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1


# the interval stack and the modules built on it; rankone._libmp loads
# mpmath's raw floats as the package rankone._mpmath_libmp
INTERVAL_MODULES = (
    "mpmath", "rankone._libmp", "rankone._mpmath_libmp",
    "rankone.balls", "rankone.exactlog", "rankone.zeta", "rankone.subdynamics", "rankone.svg",
)


def test_periodic_loads_no_interval_stack():
    # counts are integer work, so a periodic run on every component class
    # imports neither mpmath's raw floats nor the modules that need them
    script = (
        "import contextlib, io, sys\n"
        "from rankone import cli\n"
        "for fixture in ('sqrt2sqrt3', 'dk-sextic', 'ledrappier', 'times2times3'):\n"
        "    for fmt in ('csv', 'json'):\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            assert cli.main(['periodic', fixture, '--range=-2..2,0..2', '--format', fmt]) == 0\n"
        f"print([name for name in {INTERVAL_MODULES!r} if name in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_sampling_loads_libmp_without_mpmath():
    # zeta and portrait compute on mpmath's raw floats without importing the
    # mpmath package, and a later import of mpmath in the same process still
    # gets the whole package: its own libmp, its contexts, and raw floats
    # equal to rankone's
    script = (
        "import contextlib, io, itertools, random, sys\n"
        "from rankone import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['zeta', 'sqrt2sqrt3', '--n', '1,2']) == 0\n"
        "    assert cli.main(['portrait', 'dk-sextic', '--format', 'json']) == 0\n"
        "print('mpmath' in sys.modules, 'rankone._mpmath_libmp' in sys.modules)\n"
        "import mpmath\n"
        "print(mpmath.libmp.BACKEND, mpmath.mpf(1) / 3)\n"
        f"sys.path.insert(0, {str(pathlib.Path(__file__).parent)!r})\n"
        "from test_kernel import ball_op_cases, mpf_ball_op\n"
        "for a, b, prec in itertools.islice(ball_op_cases(random.Random(31)), 300):\n"
        "    got = a.mul(b, prec)\n"
        "    assert (got.mid, got.rad) == mpf_ball_op('mul', a, b, prec), (a, b, prec)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False True\npython 0.333333333333333\n"


def test_periodic_without_site_loads_no_resource_readers():
    # fixtures are read as plain files, so a periodic run without site
    # imports neither importlib.resources nor the zipfile it brings
    src = os.path.dirname(os.path.dirname(cli.__file__))
    script = (
        "import contextlib, io, sys\n"
        "from rankone import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['periodic', 'times2times3', '--range=0..1,0..1']) == 0\n"
        "print([name for name in ('importlib.resources', 'zipfile') if name in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_analyze_computes_each_characteristic_polynomial_once(monkeypatch, capsys):
    # validation keeps each generator's characteristic polynomial for the
    # root identities, so analyze runs charpoly once per generator
    from rankone import numberfield

    calls = []
    charpoly = numberfield.mat_charpoly

    def counted(matrix):
        calls.append(len(matrix))
        return charpoly(matrix)

    monkeypatch.setattr(numberfield, "mat_charpoly", counted)
    assert run(capsys, "analyze", "sqrt2sqrt3")[0] == 0
    assert calls == [4, 4]


# modules a CSV periodic run on each fixture must not import: a run loads
# only its component classes' modules and arithmetic, never the sampling
# subcommands, and hashlib only for JSON output
SAMPLING_AND_HASH = ("rankone.sampling", "hashlib")
UNUSED_BY_CLASS = {
    "times2times3": (
        "rankone.number_field_units", "rankone.function_field",
        "rankone.numberfield", "rankone.fppoly", "rankone.linalg",
    ) + SAMPLING_AND_HASH,
    "ledrappier": (
        "rankone.s_integer", "rankone.number_field_units", "rankone.numberfield", "rankone.linalg",
    ) + SAMPLING_AND_HASH,
    "sqrt2sqrt3": ("rankone.s_integer", "rankone.function_field") + SAMPLING_AND_HASH,
    "dk-sextic": ("rankone.s_integer", "rankone.function_field") + SAMPLING_AND_HASH,
}
# the module of each fixture's one component class
CLASS_MODULE = {
    "times2times3": "rankone.s_integer",
    "ledrappier": "rankone.function_field",
    "sqrt2sqrt3": "rankone.number_field_units",
    "dk-sextic": "rankone.number_field_units",
}
# sha256 of each fixture's canonical JSON, as periodic --format json prints it
DESCRIPTOR_HASHES = {
    "times2times3": "894603b53020a8d81ef7f3f029d47f527a48e8d736421b6483d1f9299bf97711",
    "ledrappier": "7fbed1d46391e2b5f918757536b4d9374a63d511194d7518df83041b87f80511",
    "sqrt2sqrt3": "e217df855667bbff0f5a38d8bd901ffdfa9f37ec8b54d520278e4cbdb22c11ca",
    "dk-sextic": "2174a70153d9ca01cbf0b4c0143f05c9342126a7a8acafabc270a67d89223d55",
}


@pytest.mark.parametrize("fixture", sorted(UNUSED_BY_CLASS))
def test_periodic_loads_only_its_classes_modules(fixture):
    # one fresh process per fixture: the CSV run first, then a JSON run,
    # which imports hashlib for its descriptor_hash
    script = (
        "import contextlib, io, json, sys\n"
        "from rankone import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['periodic', {fixture!r}, '--range=-2..2,0..2']) == 0\n"
        f"print([name for name in {UNUSED_BY_CLASS[fixture]!r} if name in sys.modules])\n"
        f"print({CLASS_MODULE[fixture]!r} in sys.modules)\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    assert cli.main(['periodic', {fixture!r}, '--range=0..1,0..1', '--format', 'json']) == 0\n"
        "print(json.loads(out.getvalue())['descriptor_hash'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"[]\nTrue\n{DESCRIPTOR_HASHES[fixture]}\n"


@pytest.mark.parametrize("argv", [
    ["zeta", "times2times3times5", "--n", "1,2,1"],
    ["portrait", "times2times3times5", "--samples", "5"],
])
def test_s_integer_sampling_loads_no_number_field(argv):
    # root atoms and embeddings import numberfield where they are used, so
    # an s_integer descriptor's zeta and portrait never load it or linalg
    unused = ("rankone.numberfield", "rankone.linalg", "rankone.number_field_units")
    script = (
        "import contextlib, io, sys\n"
        "from rankone import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
        f"print([name for name in {unused!r} if name in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_portrait_json_loads_no_svg():
    script = (
        "import contextlib, io, sys\n"
        "from rankone import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['portrait', 'times2times3', '--format', 'json', '--samples', '4']) == 0\n"
        "print('rankone.svg' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_package_exports_resolve_lazily():
    import rankone

    for name in rankone.__all__:
        assert getattr(rankone, name) is not None
    for name, module in rankone._HOME.items():
        assert getattr(rankone, name) is getattr(importlib.import_module(f"rankone.{module}"), name)
    namespace = {}
    exec("from rankone import *", namespace)
    assert set(rankone.__all__) <= set(namespace)
    assert set(rankone.__all__) <= set(dir(rankone))
    with pytest.raises(AttributeError):
        rankone.no_such_export


REDUCIBLE_FIELDS = (
    # x^2 - 1: x is a unit of norm -1, but the algebra is Q x Q
    {
        "d": 1,
        "components": [
            {"class": "number_field_units", "min_poly": [-1, 0, 1], "generators": [["0", "1"]]}
        ],
    },
    # (x^2 - 3x + 1)(x^2 - x - 1): Q(sqrt5) x Q(sqrt5), where no count of
    # periodic --range=-3..3 meets a zero norm, so only the parse-time check
    # can reject it
    {
        "d": 1,
        "components": [
            {"class": "number_field_units", "min_poly": [-1, 2, 3, -4, 1], "generators": [["0", "1"]]}
        ],
    },
)


@pytest.mark.parametrize(
    "command",
    [
        ["zeta", "--n", "1"],
        ["portrait"],
        ["periodic", "--range=0..2"],
        ["periodic", "--range=-3..3"],
        ["analyze"],
        ["omega"],
    ],
)
def test_reducible_min_poly_is_validation_error(tmp_path, command):
    for k, descriptor in enumerate(REDUCIBLE_FIELDS):
        path = tmp_path / f"reducible-{k}.json"
        path.write_text(json.dumps(descriptor))
        proc = subprocess.run(
            [sys.executable, "-m", "rankone", command[0], str(path), *command[1:]],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1, descriptor
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "components[0].min_poly: min_poly must be irreducible" in proc.stderr


def test_zero_norm_count_is_an_invariant(monkeypatch):
    # a field gives h - 1 != 0 a nonzero norm, so a zero norm is a bug
    from rankone import numberfield as nf

    comp = load_fixture("sqrt2sqrt3").components[0][0]
    monkeypatch.setattr(nf, "norm", lambda spec, x, c=0: Fraction(0))
    with pytest.raises(ArithmeticError, match="nonzero norm"):
        comp.count_factor((1, 0))
