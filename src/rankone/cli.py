"""Command-line surface: descriptor in, CSV/JSON/SVG out.

Five subcommands share one descriptor argument, which is either a path to a
JSON file or the name of a bundled fixture (an optional fixtures/ prefix
and .json suffix are accepted, so shell completion on the repository layout
works too).

Exit codes: 0 success, 1 validation or usage error, 2 undecided at the
precision cap, 3 resource cap exceeded.  Output is deterministic: identical
flags and descriptor produce byte-identical bytes.

Precision and its cap come from the flags, else from RANKONE_PRECISION_BITS
and RANKONE_MAX_PRECISION_BITS, else from the defaults module; main
resolves them once and passes them to the library as arguments.

This module holds the parser, main, the environment reads, `periodic` and
the output helpers.  zeta, portrait, omega and analyze live in sampling
with the writers only they use: the parser records the module and name of
each subcommand's function and main imports it, so a `periodic` run never
compiles sampling.  Each subcommand imports the modules only it uses, so
`periodic`, which does integer work alone, never loads mpmath's raw floats
(_libmp) or the interval arithmetic, and `portrait` loads svg only for
--format svg.  Each component class has its own module, which
parse_descriptor imports only for a descriptor that names the class
(system), so a `periodic` run compiles and loads only what its
descriptor's classes need, and hashlib only for the descriptor_hash of
JSON output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys as _sys
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from . import defaults
from .defaults import CONVENTIONS, DEFAULT_PRECISION, INVERSE_ROOT, MAX_PRECISION
from .errors import (
    DescriptorError,
    FitInconsistencyError,
    ResourceCapError,
    UndecidedError,
    UnsupportedOperationError,
)
from .periodic import grid
from .system import SystemDescriptor, fixture_names, load_fixture, parse_descriptor

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_UNDECIDED = 2
EXIT_RESOURCE = 3

PRECISION_ENV = "RANKONE_PRECISION_BITS"
MAX_PRECISION_ENV = "RANKONE_MAX_PRECISION_BITS"

# the module that runs zeta, portrait, omega and analyze
SAMPLING = f"{__package__}.sampling"


def _load_descriptor(arg: str) -> SystemDescriptor:
    if os.path.exists(arg):
        with open(arg, "rb") as fh:
            return parse_descriptor(fh.read())
    name = os.path.basename(arg)
    if name.endswith(".json"):
        name = name[: -len(".json")]
    if name in fixture_names():
        return load_fixture(name)
    raise DescriptorError(
        "", f"no such file, and no bundled fixture named {name!r} "
        f"(available: {', '.join(fixture_names())})"
    )


def _parse_ranges(text: str, d: int) -> List[Tuple[int, int]]:
    parts = text.split(",")
    if len(parts) != d:
        raise DescriptorError("", f"--range needs {d} comma-separated spans, got {len(parts)}")
    out = []
    for part in parts:
        lo, sep, hi = part.partition("..")
        if not sep:
            raise DescriptorError("", f"span {part!r} is not of the form lo..hi")
        try:
            out.append((int(lo), int(hi)))
        except ValueError:
            raise DescriptorError("", f"span {part!r} has non-integer endpoints")
    return out


def _emit(chunks: Iterable[str], output: Optional[str]) -> None:
    """Write the chunks in order to the output file, else to stdout.

    Callers compute everything that can fail before they call this, so a
    failed command writes nothing and creates no file.
    """
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    else:
        _sys.stdout.writelines(chunks)


def _json_chunks(obj) -> Iterator[str]:
    """json.dumps(obj, indent=2, sort_keys=True) + "\n" in pieces of a few
    thousand encoder chunks, so that neither the text nor the list of its
    chunks is ever whole in memory."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
    while batch := "".join(itertools.islice(chunks, 4096)):
        yield batch
    yield "\n"


# --------------------------------------------------------------------------
# subcommands


def _cmd_periodic(args) -> int:
    system = _load_descriptor(args.descriptor)
    ranges = _parse_ranges(args.range, system.d)
    result = grid(system, ranges, args.j)
    if args.format == "csv":
        _emit([result.to_csv()], args.output)
    else:
        doc = {
            "command": "periodic",
            "descriptor_hash": system.descriptor_hash(),
            "label": system.label,
            "convention": args.convention,
            "j": args.j,
        }
        doc.update(result.to_json())
        _emit(_json_chunks(doc), args.output)
    return EXIT_OK


# --------------------------------------------------------------------------
# parser and dispatch


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("descriptor", help="descriptor JSON path or bundled fixture name")
    p.add_argument("-o", "--output", help="write to this path instead of stdout")
    p.add_argument(
        "--precision-bits", type=int, default=None,
        help=f"working precision (default: ${PRECISION_ENV} or {DEFAULT_PRECISION})",
    )
    p.add_argument(
        "--max-precision-bits", type=int, default=None,
        help=f"escalation cap (default: ${MAX_PRECISION_ENV} or {MAX_PRECISION})",
    )
    p.add_argument(
        "--convention", choices=list(CONVENTIONS), default=INVERSE_ROOT,
        help="pole/zero value convention for reported magnitudes",
    )


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are ValueErrors, so main prints
    them as one error: line and exits 1 instead of argparse's usage block
    and exit 2, which is the undecided code."""

    def error(self, message):
        raise ValueError(message)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rankone",
        description="periodic points, zeta data and expansive subdynamics "
        "of algebraic Z^d-actions of entropy rank one",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="validation, portrait and zeta summary in one JSON")
    _add_common(p)
    p.set_defaults(run=(SAMPLING, "_cmd_analyze"))

    p = sub.add_parser("periodic", help="periodic-point counts over a lattice box")
    _add_common(p)
    p.add_argument("--range", required=True, help="per-coordinate spans, e.g. -5..5,0..5")
    p.add_argument("--j", type=int, default=1, help="period multiplier (default 1)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(run=(__name__, "_cmd_periodic"))

    p = sub.add_parser("zeta", help="inverse-root factorization of one direction zeta")
    _add_common(p)
    p.add_argument("--n", required=True, help="integer direction, e.g. 1,1")
    p.add_argument("--jmax", type=int, default=None, help="periods used to anchor the fit")
    p.add_argument(
        "--force", action="store_true",
        help="attempt the fit even when the direction is not expansive",
    )
    p.set_defaults(run=(SAMPLING, "_cmd_zeta"))

    p = sub.add_parser("portrait", help="non-expansive hyperplanes, crossings and samples")
    _add_common(p)
    p.add_argument(
        "--samples", type=int, default=None,
        help="sampling density (d=2: points on the circle, default 720; "
        "d=3: grid side, default structural only)",
    )
    p.add_argument("--format", choices=["json", "svg"], default="json")
    p.set_defaults(run=(SAMPLING, "_cmd_portrait"))

    p = sub.add_parser("omega", help="raw branch-value samples over directions")
    _add_common(p)
    p.add_argument(
        "--samples", type=int, default=None,
        help="sampling density (d=2 default 720, d=3 default 180)",
    )
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(run=(SAMPLING, "_cmd_omega"))

    return parser


def _join_dash_values(argv: Sequence[str]) -> List[str]:
    """Fold values starting with '-' into flag=value form for argparse.

    Lets `--range -5..5,0..5` and `--n -1,2` work as documented instead of
    being read as unknown option strings.
    """
    out: List[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--range", "--n") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _bits(flag: str, value: Optional[int], env: str, default: int) -> int:
    """The flag value, else the environment variable, else the default."""
    if value is None:
        text = os.environ.get(env)
        if text is None:
            return default
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"{env} must be an integer, got {text!r}") from None
        flag = env
    if value < 1:
        raise ValueError(f"{flag} must be at least 1, got {value}")
    return value


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = _sys.argv[1:]
    # exact counts print in full up to the bit budget
    _sys.set_int_max_str_digits(math.ceil(defaults.DEFAULT_BIT_BUDGET * math.log10(2)))
    try:
        args = _parser().parse_args(_join_dash_values(argv))
        prec = _bits("--precision-bits", args.precision_bits, PRECISION_ENV, DEFAULT_PRECISION)
        cap = _bits("--max-precision-bits", args.max_precision_bits, MAX_PRECISION_ENV, MAX_PRECISION)
        if prec > cap:
            raise ValueError(f"--precision-bits {prec} exceeds the cap {cap}")
        args.precision_bits, args.max_precision_bits = prec, cap
        # the function the parser recorded; __import__ with a fromlist gives
        # the module itself, and -X importtime sees the import
        module, name = args.run
        return getattr(__import__(module, fromlist=[name]), name)(args)
    # DescriptorError is a ValueError
    except (UnsupportedOperationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION
    except FitInconsistencyError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_UNDECIDED
    except UndecidedError as exc:
        print(f"error: undecided at the precision cap: {exc.what}", file=_sys.stderr)
        return EXIT_UNDECIDED
    except ResourceCapError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    raise SystemExit(main())
