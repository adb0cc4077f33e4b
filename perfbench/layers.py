"""Per-layer metrics from traced spans, and the zero-call self-check.

A metric's name says how it is computed: `<span>.calls` counts the spans
of that name, `<span>.s` sums their self time; the few others are listed
in DERIVED.  metrics.json maps every per-layer metric to the workloads on
which its layer does most of its work (`nonzero_on`); its span is the name
without the last component unless the entry gives a `span`.  The
self-check fails the traced run when that span recorded no calls there,
which is what a binding site the tracer missed would look like, and when a
declared metric has no entry in the map.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))


def declared(kind: str) -> List[dict]:
    """The end_to_end or per_layer metric list of BENCHMARK.json."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[kind]


def layer_map() -> Dict[str, dict]:
    with open(os.path.join(HERE, "metrics.json"), encoding="utf-8") as fh:
        return json.load(fh)["per_layer"]


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


class Totals:
    """Span totals summed over the invocations of one traced pass."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.raised: Counter = Counter()
        self.counters: Counter = Counter()
        self.isolate: Counter = Counter()
        self.output_bytes = 0
        self.overhead_ratio = 0.0

    def add(self, header: dict, calls: Counter, self_ns: Counter) -> None:
        self.calls.update(calls)
        self.self_ns.update(self_ns)
        self.raised.update(header["raised"])
        self.counters.update(header["counters"])
        self.isolate.update(header["isolate_cache"])

    def value(self, name: str) -> float:
        if name in DERIVED:
            return DERIVED[name](self)
        span, _, field = name.rpartition(".")
        if field == "calls":
            return self.calls[span]
        if field == "s":
            return self.self_ns[span] / 1e9
        raise KeyError(f"no rule computes per-layer metric {name!r}")

    def metrics(self) -> Dict[str, tuple]:
        return {m["name"]: (self.value(m["name"]), m["unit"], 1) for m in declared("per_layer")}

    def self_check(self, workload: str) -> List[str]:
        layers = layer_map()
        names = [m["name"] for m in declared("per_layer")]
        problems = [f"per-layer metric {name} has no entry in metrics.json"
                    for name in names if name not in layers]
        spans = {
            layers[name].get("span", name.rpartition(".")[0])
            for name in names
            if name in layers and workload in layers[name]["nonzero_on"]
        }
        return problems + [
            f"layer span {span} recorded no calls on {workload}"
            for span in sorted(spans)
            if self.calls[span] == 0
        ]


DERIVED = {
    "balls.self_s": lambda t: sum(
        ns for name, ns in t.self_ns.items() if name.startswith("balls.")
    ) / 1e9,
    "numberfield.isolate_roots.hit_ratio": lambda t: _ratio(
        t.isolate["hits"], t.isolate["hits"] + t.isolate["misses"]
    ),
    "zeta.fit_success_ratio": lambda t: _ratio(
        t.calls["zeta.fit_exponents"] - t.raised["zeta.fit_exponents"],
        t.calls["zeta.fit_exponents"],
    ),
    "subdynamics.omega.rows": lambda t: t.counters["subdynamics.omega.rows"],
    "output.bytes": lambda t: t.output_bytes,
    "trace.overhead_ratio": lambda t: t.overhead_ratio,
}
