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

Each subcommand imports the modules only it uses, so `periodic`, which
does integer work alone, never loads mpmath or the interval arithmetic, and
`portrait` loads svg only for --format svg.  Below the subcommands each
component class loads its own arithmetic (system), so a `periodic` run
loads only what its descriptor's classes need, and hashlib only for the
descriptor_hash of JSON output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys as _sys
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Sized, Tuple

from .defaults import CONVENTIONS, DEFAULT_PRECISION, INVERSE_ROOT, MAX_PRECISION
from .errors import (
    DescriptorError,
    FitInconsistencyError,
    ResourceCapError,
    UndecidedError,
    UnsupportedOperationError,
)
from .periodic import DEFAULT_BIT_BUDGET, grid
from .system import SystemDescriptor, fixture_names, load_fixture, parse_descriptor

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_UNDECIDED = 2
EXIT_RESOURCE = 3

PRECISION_ENV = "RANKONE_PRECISION_BITS"
MAX_PRECISION_ENV = "RANKONE_MAX_PRECISION_BITS"


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


def _parse_direction(text: str, d: int) -> Tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != d:
        raise DescriptorError("", f"--n needs {d} comma-separated integers, got {len(parts)}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise DescriptorError("", f"--n components must be integers: {text!r}")


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


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _json_chunks(obj) -> Iterator[str]:
    """_json_text(obj) in pieces of a few thousand encoder chunks, so that
    neither the text nor the list of its chunks is ever whole in memory."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
    while batch := "".join(itertools.islice(chunks, 4096)):
        yield batch
    yield "\n"


# --------------------------------------------------------------------------
# omega rows, written as they are formatted
#
# The rows are the (direction, subset, lo, hi, mid) of the OmegaRows that
# omega_samples returns; mid is for the SVG.  The JSON rows are byte for
# byte what _json_text writes, in a top-level array, for the dicts
# {"branch", "direction", "value"} with every float through _round12.  Each
# branch's text is rendered once, each direction's once, and the two value
# bounds once per distinct ball of a direction (its slot, not the doubles,
# names the ball, so 0.0 and -0.0 stay apart); each direction's rows are
# one chunk.


def _json_float(x: float) -> str:
    """x as json.dumps writes it."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return repr(x)


def _json_array(items: Sequence[str], indent: str) -> str:
    """Rendered items as json.dumps(indent=2) lays out an array at this indent."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _direction_chunks(rows, branch_text, direction_text, value_text, direction_first: bool) -> Iterator[str]:
    """One chunk per direction: its rows, each the branch's, the direction's
    and the value's text, with the direction's first when direction_first."""
    btexts = [branch_text(subset) for subset in rows.subsets]
    for direction, values in rows.by_direction():
        dtext = direction_text(direction)
        vtexts = [value_text(lo, hi) for lo, hi, _ in values]
        parts = []
        for btext, k in zip(btexts, rows.slots):
            parts += (dtext, btext, vtexts[k]) if direction_first else (btext, dtext, vtexts[k])
        yield "".join(parts)


def _omega_json_rows(rows) -> Iterator[str]:
    """The rows' dicts as the elements of a top-level JSON array, each with
    the separator before it but the first."""
    from .subdynamics import _round12

    def branch_text(subset):
        return ',\n    {\n      "branch": ' + _json_array([str(i) for i in subset], "      ")

    def direction_text(direction):
        coords = _json_array([_json_float(_round12(x)) for x in direction], "      ")
        return f',\n      "direction": {coords},\n      "value": [\n        '

    def value_text(lo, hi):
        return f"{_json_float(_round12(lo))},\n        {_json_float(_round12(hi))}\n      ]\n    }}"

    chunks = _direction_chunks(rows, branch_text, direction_text, value_text, False)
    yield next(chunks)[1:]
    yield from chunks


def _json_with_rows(doc: dict, key: str, rows: Sized) -> Iterable[str]:
    """The chunks of _json_text(doc) with the rows as the array under key,
    which doc holds empty."""
    text = _json_text(doc)
    if not rows:
        return [text]
    # sorted keys, and only top-level keys sit at a two-space indent
    head, _, tail = text.partition(f'\n  "{key}": []')
    return itertools.chain([head, f'\n  "{key}": ['], _omega_json_rows(rows), ["\n  ]", tail])


def _omega_csv_rows(rows) -> Iterator[str]:
    def branch_text(subset):
        return _csv_cell("{" + ",".join(str(i) for i in subset) + "}") + ","

    def direction_text(direction):
        return ",".join(f"{x:.12e}" for x in direction) + ","

    def value_text(lo, hi):
        return f"{lo:.12e},{hi:.12e}\n"

    return _direction_chunks(rows, branch_text, direction_text, value_text, True)


def _csv_cell(value: str) -> str:
    if any(ch in value for ch in ',"\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def _exact_json(x: Fraction):
    return int(x) if x.denominator == 1 else str(x)


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


def _cmd_zeta(args) -> int:
    from .zeta import inverse_roots

    system = _load_descriptor(args.descriptor)
    n = _parse_direction(args.n, system.d)
    zf = inverse_roots(
        system, n, precision=args.precision_bits, force=args.force, j_check=args.jmax,
        max_prec=args.max_precision_bits,
    )
    def sort_key(c):
        if c.exact is not None:
            return (0, c.exact, 0.0)
        ball = c.ball(zf.precision)
        return (1, Fraction(0), abs(ball.re.mid_float()) + abs(ball.im.mid_float()))

    factors = sorted(zf.factors, key=sort_key)
    doc = {
        "command": "zeta",
        "descriptor_hash": system.descriptor_hash(),
        "label": system.label,
        "c": [
            _exact_json(c.exact) if c.exact is not None
            else c.value_json(zf.precision)
            for c in factors
        ],
        "lambda": [c.coefficient for c in factors],
    }
    doc.update(zf.to_json())
    _emit(_json_chunks(doc), args.output)
    return EXIT_OK


def _cmd_portrait(args) -> int:
    from . import subdynamics as sd

    system = _load_descriptor(args.descriptor)
    svg = args.format == "svg"
    if svg:
        from . import svg as svgmod

        svgmod.check_dimension(system.d)
    # curves are cheap on the circle; SVG and d >= 3 stay structural unless
    # --samples asks for them, and the d = 3 SVG draws no rows at all
    samples = args.samples
    if svg or system.d != 2:
        samples = samples or 0
    directions = [] if svg and system.d == 3 else sd.default_directions(system, samples)
    portrait = sd.build_portrait(
        system, args.convention, prec=args.precision_bits, max_prec=args.max_precision_bits,
    )
    rows = sd.omega_samples(system, directions, args.convention, args.precision_bits) if directions else []
    for warning in portrait.warnings:
        print(f"warning: {warning}", file=_sys.stderr)
    if svg:
        _emit([svgmod.portrait_svg(portrait, rows)], args.output)
    else:
        doc = {"command": "portrait"}
        doc.update(portrait.to_json())
        _emit(_json_with_rows(doc, "omega", rows), args.output)
    return EXIT_OK


def _cmd_omega(args) -> int:
    from . import subdynamics as sd

    system = _load_descriptor(args.descriptor)
    if system.d not in (2, 3):
        raise UnsupportedOperationError("omega sampling is available for d = 2 and d = 3 only")
    directions = sd.default_directions(system, args.samples)
    rows = sd.omega_samples(system, directions, args.convention, args.precision_bits)
    if args.format == "csv":
        header = ",".join(f"v{i + 1}" for i in range(system.d)) + ",branch,lo,hi\n"
        _emit(itertools.chain([header], _omega_csv_rows(rows)), args.output)
    else:
        doc = {
            "command": "omega",
            "descriptor_hash": system.descriptor_hash(),
            "label": system.label,
            "convention": args.convention,
            "precision_bits": args.precision_bits,
            "samples": [],
        }
        _emit(_json_with_rows(doc, "samples", rows), args.output)
    return EXIT_OK


def _analyze_zeta_entry(system: SystemDescriptor, n: Tuple[int, ...], prec: int, max_prec: int) -> dict:
    from .zeta import inverse_roots, is_expansive_element

    entry: dict = {"n": list(n)}
    expansive = is_expansive_element(system, n, max_prec)
    if expansive is None:
        entry["status"] = "undecided-expansiveness"
        return entry
    entry["expansive"] = expansive
    if not expansive:
        entry["status"] = "skipped: not expansive, rationality not guaranteed"
        return entry
    try:
        zf = inverse_roots(system, n, precision=prec, max_prec=max_prec)
    except (UndecidedError, FitInconsistencyError, ResourceCapError) as exc:
        entry["status"] = f"failed: {exc}"
        return entry
    entry["status"] = "ok"
    entry["mu"] = zf.mu
    entry["factors"] = [
        {
            "c": _exact_json(c.exact) if c.exact is not None else c.value_json(zf.precision),
            "lambda": c.coefficient,
        }
        for c in zf.factors
    ]
    return entry


def _cmd_analyze(args) -> int:
    from . import subdynamics as sd

    system = _load_descriptor(args.descriptor)
    prec, max_prec = args.precision_bits, args.max_precision_bits
    ergodicity, ergodicity_warnings = system.ergodicity(max_prec)
    portrait = sd.build_portrait(system, args.convention, prec, max_prec)
    directions = [
        tuple(1 if i == k else 0 for i in range(system.d)) for k in range(system.d)
    ]
    directions.append(tuple(1 for _ in range(system.d)))
    zeta_entries = [_analyze_zeta_entry(system, n, prec, max_prec) for n in directions]
    warnings = list(ergodicity_warnings) + list(portrait.warnings)
    doc = {
        "command": "analyze",
        "descriptor_hash": system.descriptor_hash(),
        "label": system.label,
        "d": system.d,
        "convention": args.convention,
        "precision_bits": prec,
        "validation": {
            "ok": True,
            "ergodicity": ergodicity,
            "components": [comp.canonical(mult) for comp, mult in system.components],
        },
        "characters": [chi.describe() for chi in system.all_characters()],
        "portrait": portrait.to_json(),
        "zeta": zeta_entries,
        "warnings": warnings,
    }
    for warning in warnings:
        print(f"warning: {warning}", file=_sys.stderr)
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
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("periodic", help="periodic-point counts over a lattice box")
    _add_common(p)
    p.add_argument("--range", required=True, help="per-coordinate spans, e.g. -5..5,0..5")
    p.add_argument("--j", type=int, default=1, help="period multiplier (default 1)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_periodic)

    p = sub.add_parser("zeta", help="inverse-root factorization of one direction zeta")
    _add_common(p)
    p.add_argument("--n", required=True, help="integer direction, e.g. 1,1")
    p.add_argument("--jmax", type=int, default=None, help="periods used to anchor the fit")
    p.add_argument(
        "--force", action="store_true",
        help="attempt the fit even when the direction is not expansive",
    )
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("portrait", help="non-expansive hyperplanes, crossings and samples")
    _add_common(p)
    p.add_argument(
        "--samples", type=int, default=None,
        help="sampling density (d=2: points on the circle, default 720; "
        "d=3: grid side, default structural only)",
    )
    p.add_argument("--format", choices=["json", "svg"], default="json")
    p.set_defaults(func=_cmd_portrait)

    p = sub.add_parser("omega", help="raw branch-value samples over directions")
    _add_common(p)
    p.add_argument(
        "--samples", type=int, default=None,
        help="sampling density (d=2 default 720, d=3 default 180)",
    )
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_omega)

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
    _sys.set_int_max_str_digits(math.ceil(DEFAULT_BIT_BUDGET * math.log10(2)))
    try:
        args = _parser().parse_args(_join_dash_values(argv))
        prec = _bits("--precision-bits", args.precision_bits, PRECISION_ENV, DEFAULT_PRECISION)
        cap = _bits("--max-precision-bits", args.max_precision_bits, MAX_PRECISION_ENV, MAX_PRECISION)
        if prec > cap:
            raise ValueError(f"--precision-bits {prec} exceeds the cap {cap}")
        args.precision_bits, args.max_precision_bits = prec, cap
        return args.func(args)
    except DescriptorError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION
    except (UnsupportedOperationError, ValueError) as exc:
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
    except OSError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
