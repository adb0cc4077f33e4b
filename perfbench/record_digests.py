"""Record the default seed's stdout digests into perfbench/digests.json.

    python3 perfbench/record_digests.py

Run from the root of a checkout whose outputs are known to be right: from
then on every run compares stdout of these argv byte for byte with the
recorded digests.  Outputs must pass the other checks to be recorded.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

SRC = os.path.abspath("src")
DEFAULT_SEED = 0


def main() -> int:
    sys.path.insert(0, SRC)
    import checks
    import harness
    import workloads

    digests = {}
    for name in workloads.WORKLOADS:
        work = os.path.abspath(os.path.join(".perfbench", "record", name))
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        bench = harness.Bench(name, DEFAULT_SEED, SRC, work)
        bench.run_pass("first")
        for i, inv in enumerate(bench.invocations):
            path = bench.out_path("first", i)
            bench.problems += checks.check_output(inv, path, {}, DEFAULT_SEED)
            digests[inv.key] = checks.sha256_file(path)
        if bench.problems:
            print("\n".join(bench.problems), file=sys.stderr)
            return 1
    with open(checks.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {checks.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
