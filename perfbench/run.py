"""rankone CLI benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload counts-exact --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each invocation is a fresh
`python -m rankone ...` process against the checkout's src/, run one at a
time (a closed loop with one client), stdout to a file.  Passes over the
workload's invocations repeat until --seconds have gone by; outputs are
checked after the timed passes.  A table goes to stdout, and the last line
is one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
one untraced and one traced pass (see tracer.py) and reports the per-layer
metrics.  The exit code is 0 when every output is right, 1 when one is
wrong, and 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from typing import List, Optional

WORK_DIR = ".perfbench"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="rankone CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", default="src", help="program source tree (default: ./src)")
    parser.add_argument("--record", help="also write the full result, with fingerprint, here")
    args = parser.parse_args(argv)

    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "rankone", "cli.py")):
        print(f"error: no rankone package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import harness
    import layers

    if args.workload not in harness.workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = os.path.abspath(os.path.join(WORK_DIR, args.workload))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    bench = harness.Bench(args.workload, args.seed, src, work)
    if args.trace:
        table = harness.run_traced(bench)
        reported = [m["name"] for m in layers.declared("per_layer")]
    else:
        table = harness.run_end_to_end(bench, args.seconds)
        reported = [m["name"] for m in layers.declared("end_to_end")]
    env = harness.fingerprint(src)
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed_total,
        "metrics": {name: {"value": table[name][0], "unit": table[name][1]} for name in reported},
    }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"invocations/pass {len(bench.invocations)}  items/pass {bench.items}")
    for inv in bench.invocations:
        print(f"  rankone {inv.key}")
    print(f"{'metric':42} {'median':>14} {'unit':6} samples")
    for name, (value, unit, samples) in table.items():
        print(f"{name:42} {value:14.6g} {unit:6} {samples}")
    for problem in bench.problems:
        print(f"FAILED {problem}")
    print("fingerprint " + json.dumps(env, sort_keys=True))
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump({
                "workload": args.workload, "seed": args.seed, "trace": args.trace,
                "fingerprint": env, "result": result, "problems": bench.problems,
                "samples": {name: samples for name, (_, _, samples) in table.items()},
                "raw": bench.raw,
            }, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
