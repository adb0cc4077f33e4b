"""The sampling subcommands: zeta, portrait, omega and analyze.

They share the command line's descriptor loading and output (cli) and add
the zeta, subdynamics and interval layers, the omega row writers and the
direction parser.  cli's parser records which function runs each
subcommand, and main imports this module only to run one of these four, so
a `periodic` run never compiles it.

Each subcommand loads its descriptor before it imports zeta or
subdynamics, so a number field's arithmetic (numberfield, linalg, fppoly)
is compiled while mpmath's raw floats (_libmp) and the interval layers are
not yet loaded, and its compile-time allocations do not set the process's
peak memory.
"""

from __future__ import annotations

import itertools
import math
import sys as _sys
from fractions import Fraction
from typing import Iterator, Sequence, Sized, Tuple

from .cli import EXIT_OK, _emit, _json_chunks, _load_descriptor
from .errors import (
    DescriptorError,
    FitInconsistencyError,
    ResourceCapError,
    UndecidedError,
    UnsupportedOperationError,
)
from .system import SystemDescriptor


def _parse_direction(text: str, d: int) -> Tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != d:
        raise DescriptorError("", f"--n needs {d} comma-separated integers, got {len(parts)}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise DescriptorError("", f"--n components must be integers: {text!r}")


# --------------------------------------------------------------------------
# omega rows, written as they are formatted
#
# The rows are the (direction, subset, lo, hi) of the OmegaRows that
# omega_samples returns.  The JSON rows are byte for byte what
# json.dumps(indent=2) writes, in a top-level array, for the dicts
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
        vtexts = [value_text(lo, hi) for lo, hi in values]
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


def _json_with_rows(doc: dict, key: str, rows: Sized) -> Iterator[str]:
    """The chunks of _json_chunks(doc) with the rows as the array under key,
    which doc holds empty, one chunk per direction.

    Keys are sorted and only a top-level key follows a newline and a
    two-space indent (a JSON string holds no raw newline).  The empty
    array's text may straddle two chunks, so each chunk's last characters
    wait for the next.
    """
    if not rows:
        yield from _json_chunks(doc)
        return
    opening = f'\n  "{key}": ['
    chunks = _json_chunks(doc)
    pending = ""
    for chunk in chunks:
        head, found, tail = (pending + chunk).partition(opening + "]")
        if found:
            yield head + opening
            yield from _omega_json_rows(rows)
            yield "\n  ]" + tail
            yield from chunks
            return
        pending = head[-len(opening):]
        yield head[:-len(opening)]
    yield pending


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


def _cmd_zeta(args) -> int:
    system = _load_descriptor(args.descriptor)
    from .zeta import inverse_roots

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
    system = _load_descriptor(args.descriptor)
    from . import subdynamics as sd

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
    system = _load_descriptor(args.descriptor)
    from . import subdynamics as sd

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
    system = _load_descriptor(args.descriptor)
    from . import subdynamics as sd

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
