"""Record or check the output corpus of the command line.

    python3 tests/corpus/corpus.py check  [TREE] [--digests PATH]
    python3 tests/corpus/corpus.py record [TREE] [--digests PATH]

Each line of commands.txt is one command, written as a shell would take it:
optional NAME=value environment settings, then `rankone` and its
arguments.  Every command runs as `python -m rankone ...` in a fresh process
whose PYTHONPATH is TREE/src (TREE defaults to the checkout holding this
script), with no other RANKONE_* variable set, in a fresh working directory
that holds a copy of descriptors/, two commands at a time.  So descriptor
paths and `-o` targets are relative, and error messages that name them are
the same on every machine.

A command's record is the exit code and the sha256 of its stdout, its stderr
and every file it leaves in the working directory.  `record` writes the
records to digests.json (or PATH); `check` compares against them and exits 1
on any difference, naming the command and the parts that differ.  To compare
two commits, record on a checkout of one with --digests pointing outside the
repository, then check the other against that file.  A change that alters
output on purpose records the digests again and names each changed command.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
COMMANDS = os.path.join(HERE, "commands.txt")
DESCRIPTORS = os.path.join(HERE, "descriptors")
DIGESTS = os.path.join(HERE, "digests.json")
TIMEOUT_S = 120
JOBS = 2


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_commands() -> List[Tuple[str, Dict[str, str], List[str]]]:
    """(line, environment settings, arguments after `rankone`) per command."""
    out = []
    with open(COMMANDS, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = shlex.split(line)
            env = {}
            while tokens and "=" in tokens[0] and tokens[0] != "rankone":
                name, _, value = tokens.pop(0).partition("=")
                env[name] = value
            if not tokens or tokens[0] != "rankone":
                raise ValueError(f"{COMMANDS}: a command starts with `rankone`: {line!r}")
            out.append((line, env, tokens[1:]))
    keys = [line for line, _, _ in out]
    if len(set(keys)) != len(keys):
        raise ValueError(f"{COMMANDS}: repeated command lines")
    return out


def run_command(tree: str, env_extra: Dict[str, str], args: List[str]) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("RANKONE_")}
    env["PYTHONPATH"] = os.path.join(tree, "src")
    env.update(env_extra)
    with tempfile.TemporaryDirectory(prefix="rankone-corpus-") as work:
        shutil.copytree(DESCRIPTORS, os.path.join(work, "descriptors"))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "rankone", *args],
                cwd=work, env=env, capture_output=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"exit": "timeout"}
        files = {}
        for root, dirs, names in os.walk(work):
            dirs[:] = [d for d in dirs if os.path.join(root, d) != os.path.join(work, "descriptors")]
            for name in names:
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, work)] = _sha256(fh.read())
    return {
        "exit": proc.returncode,
        "stdout": _sha256(proc.stdout),
        "stderr": _sha256(proc.stderr),
        "files": dict(sorted(files.items())),
    }


def run_all(tree: str) -> Dict[str, dict]:
    commands = load_commands()
    with concurrent.futures.ThreadPoolExecutor(max_workers=JOBS) as pool:
        records = pool.map(lambda c: run_command(tree, c[1], c[2]), commands)
        return {line: record for (line, _, _), record in zip(commands, records)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=["record", "check"])
    parser.add_argument("tree", nargs="?", default=os.path.dirname(os.path.dirname(HERE)),
                        help="source tree whose src/rankone runs (default: this checkout)")
    parser.add_argument("--digests", default=DIGESTS, help="digest file (default: %(default)s)")
    args = parser.parse_args(argv)
    tree = os.path.abspath(args.tree)
    records = run_all(tree)
    if args.action == "record":
        timed_out = [line for line, r in records.items() if r["exit"] == "timeout"]
        if timed_out:
            print("\n".join(f"timeout: {line}" for line in timed_out), file=sys.stderr)
            return 1
        with open(args.digests, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")
        print(f"recorded {len(records)} commands of {tree} in {args.digests}")
        return 0
    with open(args.digests, encoding="utf-8") as fh:
        expected = json.load(fh)
    problems = []
    for line in sorted(set(expected) - set(records)):
        problems.append(f"recorded but not in commands.txt: {line}")
    for line, record in records.items():
        want = expected.get(line)
        if want is None:
            problems.append(f"not recorded: {line}")
        elif record != want:
            parts = [k for k in ("exit", "stdout", "stderr", "files") if record.get(k) != want.get(k)]
            problems.append(f"differs in {', '.join(parts)}: {line}")
    print("\n".join(problems) if problems else f"{len(records)} commands of {tree} match {args.digests}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
