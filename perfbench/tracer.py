"""Span tracer for one rankone CLI invocation, and the reader of its spans.

Run as a script, it is the traced stand-in for `python -m rankone`:

    python3 perfbench/tracer.py SPANS_FILE INVOCATION_ID ARG...

It imports every rankone module, wraps each public function and each
public method of each public class, rebinds every place a wrapped function
is bound (home module, `from` imports, aliases, package re-exports), wraps
`json.dumps`, then calls `rankone.cli.main(ARG...)` in this fresh process,
so every cache starts cold as it does for a user.  Spans stay in memory
and are written to SPANS_FILE when main returns.

A span is (name, start, end, parent) in perf_counter nanoseconds, with
parent the index of the enclosing span or -1; the invocation id is stored
once in the file header and applies to every span in the file.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from collections import Counter
from typing import Callable, Dict, List

PACKAGE = "rankone"
SKIP_MODULES = {"rankone.__main__"}  # runs the CLI on import


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.name_of = array.array("I")
        self.parent_of = array.array("i")
        self.start_of = array.array("q")
        self.end_of = array.array("q")
        self.stack = [-1]
        self.raised: Counter = Counter()
        self.counters: Counter = Counter()
        self.originals: Dict[Callable, Callable] = {}

    def wrap(self, fn: Callable, name: str, on_result: Callable = None) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        name_of, parent_of = self.name_of, self.parent_of
        start_of, end_of, stack = self.start_of, self.end_of, self.stack
        raised, clock = self.raised, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent_of.append(stack[-1])
            end_of.append(0)
            stack.append(idx)
            start_of.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise
            finally:
                end_of[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        self.originals[fn] = traced
        return traced

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = [package] + [
            importlib.import_module(info.name)
            for info in pkgutil.iter_modules(package.__path__, PACKAGE + ".")
            if info.name not in SKIP_MODULES
        ]
        hooks = {"subdynamics.omega_samples": self._count_rows}
        for module in modules[1:]:
            short = module.__name__.split(".", 1)[1]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    qual = f"{short}.{name}"
                    setattr(module, name, self.wrap(obj, qual, hooks.get(qual)))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{short}.{name}")
        json.dumps = self.wrap(json.dumps, "json.dumps")
        # every other binding site: from-imports, aliases, re-exports
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self.originals:
                    setattr(module, name, self.originals[obj])

    def _wrap_class(self, cls: type, prefix: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qual = f"{prefix}.{name}"
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self.wrap(attr.__func__, qual)))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self.wrap(attr.__func__, qual)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self.wrap(attr, qual))

    def _count_rows(self, rows) -> None:
        self.counters["subdynamics.omega.rows"] += len(rows)

    def dump(self, path: str, invocation: int) -> None:
        from rankone import numberfield

        info = numberfield._isolate_cached.cache_info()
        header = {
            "invocation": invocation,
            "names": self.names,
            "spans": len(self.name_of),
            "raised": dict(self.raised),
            "counters": dict(self.counters),
            "isolate_cache": {"hits": info.hits, "misses": info.misses},
        }
        with open(path, "wb") as fh:
            fh.write(json.JSONEncoder(sort_keys=True).encode(header).encode() + b"\n")
            for arr in (self.name_of, self.parent_of, self.start_of, self.end_of):
                arr.tofile(fh)


def read_spans(path: str):
    """(header, names, parents, starts, ends) as written by Tracer.dump."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("I", "i", "q", "q"):
            arr = array.array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header, *arrays)


def layer_totals(path: str):
    """Per span name: calls and self nanoseconds, plus the file header.

    Self time is the span's duration minus the time its child spans cover;
    children of one span never overlap, since the CLI is single-threaded.
    """
    header, names, parents, starts, ends = read_spans(path)
    n = len(names)
    covered = [0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    labels = header["names"]
    for i in range(n):
        label = labels[names[i]]
        calls[label] += 1
        self_ns[label] += ends[i] - starts[i] - covered[i]
    return header, calls, self_ns


def main(argv: List[str]) -> int:
    spans_path, invocation, cli_argv = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module(PACKAGE + ".cli")
    try:
        return cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, invocation)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
