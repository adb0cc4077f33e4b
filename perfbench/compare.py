"""Compare two commits with alternating benchmark runs.

    python3 perfbench/compare.py PARENT CHANGE

Run from the root of a git checkout.  Each commit's src/ is exported with
`git archive` into .perfbench/trees/<sha>/, and every run uses this
checkout's perfbench/ code, so both sides are measured by the same
benchmark with the same settings.  It runs 10 pairs on every workload of
BENCHMARK.json; pair i runs seed 1000 + i on both sides, the parent first
in even pairs and the change first in odd ones.

For each workload and end-to-end metric it prints each side's median and
quartiles, the change's pair wins, and a verdict:

  gain        the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's IQR
  unresolved  the parent's IQR exceeds the metric's bound, unless every
              change run beats every parent run
  regression  the change's median is worse by more than the bound
  same        none of the above

It refuses to compare (exit 2) when the runs' fingerprints differ in
anything but the commit, and exits 1 on a regression or a failed run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
TREES = os.path.join(".perfbench", "trees")
RUNS = os.path.join(".perfbench", "compare")
GAIN_SHARE = 0.9
PAIRS = 10
FIRST_SEED = 1000


def export(commit: str) -> str:
    """src/ of commit under .perfbench/trees/<sha>/, with a COMMIT file."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{commit}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    dest = os.path.join(TREES, sha)
    if not os.path.isdir(os.path.join(dest, "src")):
        tar = subprocess.run(["git", "archive", "--format=tar", sha, "src"],
                             capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(dest, filter="data")
        with open(os.path.join(dest, "COMMIT"), "w", encoding="utf-8") as fh:
            fh.write(sha + "\n")
    return dest


def run_once(tree: str, workload: str, seed: int, seconds: float, tag: str) -> dict:
    os.makedirs(RUNS, exist_ok=True)
    record = os.path.join(RUNS, f"{workload}-{seed}-{tag}.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--src", os.path.join(tree, "src"), "--record", record],
        capture_output=True, text=True,
    )
    if not os.path.exists(record):
        raise SystemExit(f"run failed ({tree}, {workload}, seed {seed}):\n{proc.stderr}")
    with open(record, encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values: List[float]):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _fmt(q) -> str:
    return "/".join(f"{x:.4g}" for x in q)


def verdict(metric: dict, parent: List[float], change: List[float]):
    """(verdict, pairs the change won) for one metric on one workload."""
    lower = metric["better"] == "lower"

    def better(a, b):
        return a < b if lower else a > b

    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    if wins >= GAIN_SHARE * len(parent) and better(cm, pm) and abs(cm - pm) > p3 - p1:
        return "gain", wins
    dominates = all(better(c, p) for c in change for p in parent)
    if pm and (p3 - p1) / abs(pm) > metric["bound"] and not dominates:
        return "unresolved", wins
    worse = (cm - pm) if lower else (pm - cm)
    if worse > metric["bound"] * abs(pm):
        return "regression", wins
    return "same", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two commits on the benchmark")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)

    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    trees = {"parent": export(args.parent), "change": export(args.change)}
    runs: Dict[str, Dict[str, List[dict]]] = {w: {"parent": [], "change": []} for w in names}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in names:
            for side in order:
                rec = run_once(trees[side], workload, FIRST_SEED + i, bench["run_seconds"], side)
                runs[workload][side].append(rec)
                print(f"pair {i} {workload} {side}: correct={rec['result']['correct']}",
                      file=sys.stderr, flush=True)

    records = [rec for by_side in runs.values() for recs in by_side.values() for rec in recs]
    envs = {json.dumps({k: v for k, v in rec["fingerprint"].items() if k != "commit"},
                       sort_keys=True) for rec in records}
    if len(envs) != 1:
        print("refusing to compare: fingerprints differ\n" + "\n".join(sorted(envs)))
        return 2
    for side, tree in trees.items():
        commits = {rec["fingerprint"]["commit"] for by_side in runs.values() for rec in by_side[side]}
        if commits != {os.path.basename(tree)}:
            print(f"refusing to compare: {side} runs report commits {sorted(commits)}")
            return 2
    print(f"fingerprint {envs.pop()}")
    for side in ("parent", "change"):
        print(f"{side}: {os.path.basename(trees[side])}")

    bad = False
    print(f"{'workload':16} {'metric':12} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} "
          f"{'wins':>6}  verdict")
    for workload in names:
        failed = [rec for recs in runs[workload].values() for rec in recs
                  if not rec["result"]["correct"]]
        if failed:
            bad = True
            print(f"{workload:16} {len(failed)} runs with wrong output: "
                  + "; ".join(p for rec in failed for p in rec["problems"][:1]))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            parent = [rec["result"]["metrics"][name]["value"] for rec in runs[workload]["parent"]]
            change = [rec["result"]["metrics"][name]["value"] for rec in runs[workload]["change"]]
            v, wins = verdict(metric, parent, change)
            bad |= v == "regression"
            print(f"{workload:16} {name:12} {_fmt(quartiles(parent)):>30} "
                  f"{_fmt(quartiles(change)):>30} {wins:>3}/{len(parent):<2}  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
