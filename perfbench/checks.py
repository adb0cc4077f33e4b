"""Output checks, run outside the timed region.

Each check reads one saved stdout and returns a list of problems (empty
when the output is right):

- digest: for any argv recorded in digests.json (the default seed's),
  stdout must be byte-identical to the recorded output;
- counts: number-field entries agree with det_oracle at seeded points, and
  times2times3 entries with the prime-to-{2,3} part of |2^a 3^b - 1|
  computed here with plain integers;
- zeta: the printed factors satisfy the generating identity
  F_j = -sum lambda_c c^j for j up to verified_to + 4;
- omega rows (portrait JSON, omega CSV): seeded rows overlap f_eval at the
  same direction and branch, the independent route to the same value;
- svg: the document is well-formed XML.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import xml.etree.ElementTree as ET
from fractions import Fraction
from typing import Dict, List, Sequence

from rankone import count_sequence, det_oracle, f_eval, load_fixture, verify_generating_identity
from rankone.balls import ComplexBall, RealBall

from workloads import Invocation

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
SAMPLED_POINTS = 40   # det_oracle comparisons per number-field box
SAMPLED_ROWS = 16     # f_eval comparisons per omega output
EXTRA_PERIODS = 4     # generating identity checked past the fitted periods
CHECK_PREC = 64
# printed omega bounds carry 12-13 significant digits, and f_eval is taken
# at the printed (rounded) direction
OMEGA_REL_TOL = 1e-9


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_digests() -> Dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_output(inv: Invocation, path: str, digests: Dict[str, str], seed: int) -> List[str]:
    problems = []
    expected = digests.get(inv.key)
    if expected is not None and sha256_file(path) != expected:
        problems.append("stdout differs from the recorded digest")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    rng = random.Random(f"{seed}|{inv.key}")
    try:
        problems += CHECKS[inv.kind](inv, text, rng)
    except (ValueError, KeyError, IndexError, TypeError, ET.ParseError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return [f"{inv.key}: {p}" for p in problems]


# --------------------------------------------------------------------------
# periodic counts


def _s_integer_2_3(a: int, b: int):
    """Prime-to-{2,3} part of |2^a 3^b - 1|, or None for the infinite count."""
    if a == 0 and b == 0:
        return None
    diff = abs(2 ** max(a, 0) * 3 ** max(b, 0) - 2 ** max(-a, 0) * 3 ** max(-b, 0))
    for p in (2, 3):
        while diff % p == 0:
            diff //= p
    return diff


def _check_counts(inv: Invocation, text: str, rng: random.Random) -> List[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["n1", "n2", "count"]:
        return [f"unexpected header {rows[0]}"]
    (lo1, hi1), (lo2, hi2) = inv.params["ranges"]
    points = [(a, b) for a in range(lo1, hi1 + 1) for b in range(lo2, hi2 + 1)]
    entries = {}
    for row in rows[1:]:
        entries[(int(row[0]), int(row[1]))] = None if row[2] == "inf" else int(row[2])
    if [tuple(int(x) for x in row[:2]) for row in rows[1:]] != points:
        return [f"rows do not cover the box in order ({len(rows) - 1} rows, {len(points)} points)"]
    problems = []
    if inv.fixture == "times2times3":
        bad = [p for p in points if entries[p] != _s_integer_2_3(*p)]
        if bad:
            problems.append(f"{len(bad)} entries differ from |2^a 3^b - 1|, first at {bad[0]}")
    elif inv.fixture in ("sqrt2sqrt3", "dk-sextic"):
        system = load_fixture(inv.fixture)
        for p in rng.sample(points, SAMPLED_POINTS):
            oracle = det_oracle(system, p).value
            if entries[p] != oracle:
                problems.append(f"count at {p} is {entries[p]}, det_oracle gives {oracle}")
    return problems


# --------------------------------------------------------------------------
# zeta fits


class _PrintedFactor:
    """A fitted factor read back from zeta JSON, with the interface
    verify_generating_identity reads from a candidate."""

    def __init__(self, doc: dict):
        c = doc["c"]
        self.coefficient = int(doc["lambda"])
        if c["type"] == "rational":
            self.exact = Fraction(c["value"])
            self._ball = None
        else:
            self.exact = None
            self._ball = ComplexBall(_float_hull(*c["re"]), _float_hull(*c["im"]))

    def ball(self, prec: int) -> ComplexBall:
        return self._ball


class _PrintedFactorization:
    def __init__(self, doc: dict):
        self.candidates = [_PrintedFactor(f) for f in doc["factors"]]
        self.precision = CHECK_PREC


def _float_hull(lo: float, hi: float) -> RealBall:
    return RealBall.from_float(lo).hull(RealBall.from_float(hi), CHECK_PREC)


def _check_zeta(inv: Invocation, text: str, rng: random.Random) -> List[str]:
    doc = json.loads(text)
    n = inv.params["n"]
    if tuple(doc["n"]) != n or doc["command"] != "zeta":
        return [f"output is for {doc['command']} n={doc['n']}, expected zeta n={n}"]
    J = doc["verified_to"] + EXTRA_PERIODS
    counts = count_sequence(load_fixture(inv.fixture), n, J)
    report = verify_generating_identity(_PrintedFactorization(doc), counts, J)
    if not report["ok"]:
        return [f"printed factors miss the generating identity at j={report['failures']}"]
    return []


def _check_analyze(inv: Invocation, text: str, rng: random.Random) -> List[str]:
    doc = json.loads(text)
    if doc["command"] != "analyze" or doc["label"] != inv.fixture or not doc["validation"]["ok"]:
        return ["analyze report has the wrong label or failed validation"]
    return []


# --------------------------------------------------------------------------
# omega samples


def _overlaps_f_eval(system, direction: Sequence[float], branch: Sequence[int],
                     lo: float, hi: float, convention: str) -> bool:
    value = f_eval(system, branch, direction, CHECK_PREC)
    if convention == "root-location":
        value = value.recip(CHECK_PREC)
    f_lo, f_hi = value.float_bounds()
    tol = OMEGA_REL_TOL * max(abs(lo), abs(hi))
    return f_lo <= hi + tol and lo - tol <= f_hi


def _check_rows(inv: Invocation, rows, rng: random.Random) -> List[str]:
    """rows: (direction, branch, lo, hi) as printed."""
    if len(rows) != inv.items:
        return [f"{len(rows)} omega rows, expected {inv.items}"]
    system = load_fixture(inv.fixture)
    problems = []
    for direction, branch, lo, hi in rng.sample(rows, SAMPLED_ROWS):
        if not _overlaps_f_eval(system, direction, branch, lo, hi, inv.params["convention"]):
            problems.append(f"row {direction} {branch} [{lo}, {hi}] misses f_eval")
    return problems


def _check_omega_json(inv: Invocation, text: str, rng: random.Random) -> List[str]:
    doc = json.loads(text)
    if doc["convention"] != inv.params["convention"]:
        return [f"convention {doc['convention']}, expected {inv.params['convention']}"]
    rows = [(r["direction"], r["branch"], *r["value"]) for r in doc["omega"]]
    return _check_rows(inv, rows, rng)


def _check_omega_csv(inv: Invocation, text: str, rng: random.Random) -> List[str]:
    lines = list(csv.reader(io.StringIO(text)))
    rows = []
    for line in lines[1:]:
        *direction, branch, lo, hi = line
        indices = [int(i) for i in branch.strip("{}").split(",") if i]
        rows.append(([float(x) for x in direction], indices, float(lo), float(hi)))
    return _check_rows(inv, rows, rng)


def _check_svg(inv: Invocation, text: str, rng: random.Random) -> List[str]:
    root = ET.fromstring(text)
    if not root.tag.endswith("svg"):
        return [f"root element is {root.tag}, not svg"]
    return []


CHECKS = {
    "counts": _check_counts,
    "zeta": _check_zeta,
    "analyze": _check_analyze,
    "omega-json": _check_omega_json,
    "omega-csv": _check_omega_csv,
    "svg": _check_svg,
}
