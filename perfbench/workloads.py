"""Seeded workloads: each turns a seed into the argv lists of one pass.

The program under test only ever sees the generated argv.  The seed moves
inputs inside narrow windows, so the work per pass stays nearly the same
from seed to seed while the exact outputs differ.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from rankone import branch_subsets, is_expansive_element, load_fixture

CONVENTIONS = ("inverse-root", "root-location")


@dataclass(frozen=True)
class Invocation:
    """One `python -m rankone ...` call and what its output must satisfy."""

    argv: Tuple[str, ...]
    kind: str      # which output check applies, see checks.py
    fixture: str
    items: int     # work items this invocation contributes to items_per_s
    params: Dict[str, object] = field(default_factory=dict, compare=False)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


# fixture, box size, box offset at shift 0: all three component classes
COUNT_BOXES = (
    ("sqrt2sqrt3", (41, 41), (-20, -20)),
    ("dk-sextic", (21, 21), (-10, -10)),
    ("ledrappier", (41, 21), (-20, 0)),
    ("times2times3", (81, 41), (-40, 0)),
)
BOX_SHIFT = 1  # each box offset moves by at most this much per axis


def counts_exact(rng: random.Random) -> List[Invocation]:
    out = []
    for fixture, size, base in COUNT_BOXES:
        ranges = []
        for width, lo in zip(size, base):
            lo += rng.randint(-BOX_SHIFT, BOX_SHIFT)
            ranges.append((lo, lo + width - 1))
        spec = ",".join(f"{lo}..{hi}" for lo, hi in ranges)
        out.append(Invocation(
            ("periodic", fixture, f"--range={spec}"), "counts", fixture,
            size[0] * size[1], {"ranges": ranges},
        ))
    return out


# dk-sextic is non-expansive everywhere, so its fits are forced.  The seed
# picks an axis n and runs n and -n: the pair costs within a few percent of
# the other axis's pair, where diagonal directions cost a quarter more.
SEXTIC_AXES = ((1, 0), (0, 1))
QUARTIC_WINDOW = [n for n in itertools.product(range(-2, 3), repeat=2) if any(n)]
SPHERE_WINDOW = [n for n in itertools.product(range(-1, 3), repeat=3) if any(n)]


def _expansive(fixture: str, window, count: int, rng: random.Random):
    system = load_fixture(fixture)
    return rng.sample([n for n in window if is_expansive_element(system, n)], count)


def _zeta(fixture: str, n, force: bool = False) -> Invocation:
    argv = ("zeta", fixture, "--n", ",".join(str(c) for c in n))
    if force:
        argv += ("--force",)
    return Invocation(argv, "zeta", fixture, 1, {"n": tuple(n), "force": force})


def zeta_fit(rng: random.Random) -> List[Invocation]:
    axis = rng.choice(SEXTIC_AXES)
    sign = rng.choice((1, -1))
    out = [_zeta("dk-sextic", tuple(sign * c for c in axis), force=True),
           _zeta("dk-sextic", tuple(-sign * c for c in axis), force=True)]
    out += [_zeta("sqrt2sqrt3", n) for n in _expansive("sqrt2sqrt3", QUARTIC_WINDOW, 2, rng)]
    out += [_zeta("times2times3times5", n) for n in _expansive("times2times3times5", SPHERE_WINDOW, 1, rng)]
    out.append(Invocation(("analyze", "dk-sextic"), "analyze", "dk-sextic", 0))
    return out


def _branches(fixture: str) -> int:
    return len(branch_subsets(load_fixture(fixture)))


# The seeded convention goes to the two small invocations only: on the
# sampled portraits root-location costs 15-25% more than the default.
def portrait_sample(rng: random.Random) -> List[Invocation]:
    conv = rng.choice(CONVENTIONS)
    sphere_side = rng.randint(59, 61)
    circle = rng.randint(700, 740)
    default = {"convention": CONVENTIONS[0]}
    return [
        Invocation(
            ("portrait", "dk-sextic", "--format", "json"),
            "omega-json", "dk-sextic", 720 * _branches("dk-sextic"), default,
        ),
        Invocation(
            ("portrait", "times2times3times5", "--samples", str(sphere_side)),
            "omega-json", "times2times3times5",
            sphere_side * sphere_side * _branches("times2times3times5"), default,
        ),
        Invocation(
            ("portrait", "times2times3times5", "--format", "svg", "--convention", conv),
            "svg", "times2times3times5", 0, {"convention": conv},
        ),
        Invocation(
            ("omega", "times2times3", "--format", "csv", "--samples", str(circle), "--convention", conv),
            "omega-csv", "times2times3", circle * _branches("times2times3"), {"convention": conv},
        ),
    ]


WORKLOADS = {
    "counts-exact": counts_exact,
    "zeta-fit": zeta_fit,
    "portrait-sample": portrait_sample,
}


def generate(name: str, seed: int) -> List[Invocation]:
    return WORKLOADS[name](random.Random(seed))


def fixtures(invocations: List[Invocation]) -> List[str]:
    return sorted({inv.fixture for inv in invocations})
