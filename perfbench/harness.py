"""Passes, timing and metrics for one benchmark run (see run.py).

Imported only after run.py has put the program's src/ on sys.path, since
the workload generator and the output checks use the rankone library.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Dict, List

import checks
import layers
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# Probes run between passes, so that they sample the same stretch of time
# as the passes do; at least MIN_PROBES of each kind are taken.
PROBES_PER_PASS = 5
MIN_PROBES = 20
# The reference probe is a fresh interpreter doing fixed work without
# rankone, so no program change can move it.  A shared VM can run 1.8x slower
# for minutes at a time, and set-up probes and passes slow with it; so each
# pass is scaled by REFERENCE_S over the median of the reference probes run
# right after it, and each set-up probe by REFERENCE_S over the reference
# probe that follows it.  Timing metrics read as seconds on a host where the
# reference probe takes REFERENCE_S.
REFERENCE_S = 0.1
REFERENCE_CODE = (
    "import decimal, fractions, json, mpmath\n"
    "mpmath.mp.prec = 200\n"
    "x = mpmath.mpf(1) / 3\n"
    "for i in range(400):\n"
    "    x = mpmath.exp(x * x) % 7 + i\n"
    "n = 1\n"
    "for i in range(20000):\n"
    "    n = (n * 1000003 + i) % (1 << 256)\n"
)
# what every CLI process pays before any subcommand work
SETUP_CODE = (
    "import sys\n"
    "import rankone.cli\n"
    "from rankone import load_fixture\n"
    "for name in sys.argv[1:]:\n"
    "    load_fixture(name)\n"
)


def child_env(src: str) -> Dict[str, str]:
    env = dict(os.environ, PYTHONPATH=src)
    for key in ("RANKONE_PRECISION_BITS", "RANKONE_MAX_PRECISION_BITS", "PYTHONSTARTUP"):
        env.pop(key, None)
    return env


def timed_child(cmd: List[str], out_path: str, env, cwd: str):
    """(exit code, wall seconds, max RSS in MB) of one child process.

    stdout goes to out_path and stderr to out_path + ".err".
    """
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def fingerprint(src: str) -> Dict[str, object]:
    """What must match before two runs may be compared."""
    import mpmath

    commit_file = os.path.join(os.path.dirname(src), "COMMIT")
    if os.path.isfile(commit_file):
        with open(commit_file, encoding="utf-8") as fh:
            commit = fh.read().strip()
    else:
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=os.path.dirname(src),
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or "unknown"
        except OSError:
            commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
    }


class Bench:
    def __init__(self, workload: str, seed: int, src: str, work: str):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = child_env(src)
        self.reference_env = {k: v for k, v in self.env.items() if k != "PYTHONPATH"}
        self.invocations = workloads.generate(workload, seed)
        self.items = sum(inv.items for inv in self.invocations)
        self.first_digest: Dict[int, str] = {}
        self.failed: Counter = Counter()   # invocation index -> failed instances
        self.attempted = 0
        self.problems: List[str] = []
        self.raw: Dict[str, list] = {
            "setup_s": [], "reference_s": [], "pass_wall_s": [], "invocation_wall_s": [],
        }

    def out_path(self, tag: str, i: int) -> str:
        return os.path.join(self.work, f"{tag}-{i}.out")

    def spans_path(self, i: int) -> str:
        return os.path.join(self.work, f"spans-{i}.bin")

    def probes(self, count: int, record: bool = True) -> None:
        """Time count set-up probes, each followed by a reference probe.

        A set-up probe is a fresh interpreter that imports the CLI and loads
        the workload's fixtures.
        """
        kinds = (
            ("setup_s", [sys.executable, "-c", SETUP_CODE,
                         *workloads.fixtures(self.invocations)], self.env),
            ("reference_s", [sys.executable, "-c", REFERENCE_CODE], self.reference_env),
        )
        out = os.path.join(self.work, "probe.out")
        for _ in range(count):
            for key, cmd, env in kinds:
                code, wall, _ = timed_child(cmd, out, env, self.work)
                if code != 0:
                    with open(out + ".err", encoding="utf-8", errors="replace") as fh:
                        raise SystemExit(f"{key} probe failed with exit {code}:\n{fh.read()}")
                if record:
                    self.raw[key].append(wall)

    def run_pass(self, tag: str, traced: bool = False):
        """(wall seconds, peak RSS MB) of one pass; outputs saved under tag."""
        peak = 0.0
        codes, walls = [], []
        t0 = time.perf_counter()
        for i, inv in enumerate(self.invocations):
            if traced:
                cmd = [sys.executable, os.path.join(HERE, "tracer.py"),
                       self.spans_path(i), str(i), *inv.argv]
            else:
                cmd = [sys.executable, "-m", "rankone", *inv.argv]
            code, inv_wall, rss = timed_child(cmd, self.out_path(tag, i), self.env, self.work)
            codes.append(code)
            walls.append(inv_wall)
            peak = max(peak, rss)
        wall = time.perf_counter() - t0
        self.attempted += len(self.invocations)
        self.raw["pass_wall_s"].append(wall)
        self.raw["invocation_wall_s"].append(walls)
        for i, (inv, code) in enumerate(zip(self.invocations, codes)):
            digest = checks.sha256_file(self.out_path(tag, i))
            changed = self.first_digest.setdefault(i, digest) != digest
            if code != 0:
                self.problems.append(f"{inv.key}: exit code {code}")
            if changed:
                self.problems.append(f"{inv.key}: stdout changed between passes")
            if code != 0 or changed:
                self.failed[i] += 1
        return wall, peak

    def check_outputs(self, tag: str, instances: int) -> None:
        """Check each distinct output once; a wrong output fails every pass."""
        digests = checks.load_digests()
        for i, inv in enumerate(self.invocations):
            found = checks.check_output(inv, self.out_path(tag, i), digests, self.seed)
            if found:
                self.failed[i] = instances
                self.problems += found

    @property
    def failed_total(self) -> int:
        return sum(self.failed.values())


def run_end_to_end(bench: Bench, seconds: float) -> Dict[str, tuple]:
    """metric -> (value, unit, sample count), with tracing off.

    Timing metrics are scaled to the reference host speed (see REFERENCE_S);
    the unscaled medians are reported too, as *_raw_s.
    """
    bench.probes(1, record=False)  # may compile bytecode
    passes, scaled = [], []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        wall, peak = bench.run_pass("first" if not passes else "pass")
        done = len(bench.raw["reference_s"])
        bench.probes(PROBES_PER_PASS)
        passes.append((wall, peak))
        scaled.append(wall * REFERENCE_S / statistics.median(bench.raw["reference_s"][done:]))
    bench.probes(MIN_PROBES - len(bench.raw["setup_s"]))
    bench.check_outputs("first", len(passes))
    setup, reference = bench.raw["setup_s"], bench.raw["reference_s"]
    walls = [wall for wall, _ in passes]
    failed_ratio = bench.failed_total / bench.attempted
    return {
        "setup_s": (statistics.median([s * REFERENCE_S / r for s, r in zip(setup, reference)]),
                    "s", len(setup)),
        "wall_s": (statistics.median(scaled), "s", len(scaled)),
        "items_per_s": (statistics.median([bench.items / w for w in scaled]), "1/s", len(scaled)),
        "peak_rss_mb": (statistics.median([rss for _, rss in passes]), "MB", len(passes)),
        "ok_ratio": (1.0 - failed_ratio, "ratio", bench.attempted),
        "failed_ratio": (failed_ratio, "ratio", bench.attempted),
        "reference_raw_s": (statistics.median(reference), "s", len(reference)),
        "setup_raw_s": (statistics.median(setup), "s", len(setup)),
        "wall_raw_s": (statistics.median(walls), "s", len(walls)),
    }


def run_traced(bench: Bench) -> Dict[str, tuple]:
    """metric -> (value, unit, sample count) from one untraced and one traced pass."""
    untraced_wall, _ = bench.run_pass("first")
    traced_wall, _ = bench.run_pass("traced", traced=True)
    bench.check_outputs("first", 2)
    totals = layers.Totals()
    for i, inv in enumerate(bench.invocations):
        path = bench.spans_path(i)
        if os.path.exists(path):
            totals.add(*tracer.layer_totals(path))
        else:
            bench.problems.append(f"{inv.key}: traced run wrote no spans")
    bench.problems += totals.self_check(bench.workload)
    totals.output_bytes = sum(
        os.path.getsize(bench.out_path("traced", i)) for i in range(len(bench.invocations))
    )
    totals.overhead_ratio = traced_wall / untraced_wall
    return totals.metrics()
