"""Descriptor model for algebraic Z^d-actions of entropy rank one.

A descriptor is a JSON document naming one or more building blocks
(components), each of which expands into a finite list of characters.  A
character records, for one absolute value of the acting coefficient data,
the exact vector of logarithmic sizes of the d commuting generators.  Every
later computation (periodic counts, pole data, the expansive-subdynamics
portrait) consumes the character lists rather than the raw descriptor.

Three component classes are supported, each in its own module:

- ``s_integer`` (s_integer.py): d nonzero rationals acting on a ring of
  S-integers.
- ``number_field_units`` (number_field_units.py): d units of the ring of
  integers of a number field, given by coordinate vectors in the power
  basis of a defining monic integer polynomial.  Coordinates may be
  rational since the ring of integers need not be generated by the
  defining root.
- ``function_field`` (function_field.py): d nonzero rational functions
  over F_p acting in positive characteristic.

Each class answers the same questions about h = prod_i g_i^(e_i), so no
consumer tests the class: ``count_factor`` is the component's factor of the
periodic count (None when h = 1), ``arch_factors`` is (exponents, part)
for h at each archimedean character in ``characters()`` order: h's
exponents of -1 and of each prime where h is exact, else None, and the
part to embed where it is not, else None; ``ergodicity`` is (status,
notes).

This module holds what every run needs: the characters, the descriptor,
its validation and the fixtures.  parse_descriptor imports a class's
module in the branch that builds that class, so a run compiles and loads
the modules of its descriptor's classes and no others.  Each class module
imports at load the arithmetic that every use of the class needs:
numberfield (which brings linalg, and fppoly for its irreducibility test)
for number_field_units, fppoly for function_field, rationals for
s_integer.  exactlog, balls and linalg are imported where a class uses
them (characters, ergodicity ranks), so a count over a box loads none of
them but the linalg that numberfield brings; descriptor_hash imports
hashlib.

The archimedean characters of a component go into the V list, the
nonarchimedean ones into W.  Orderings are deterministic: components in
descriptor order, embeddings in certified root order, finite primes
ascending, finite places sorted by degree then coefficients with the
infinite place last.
"""

from __future__ import annotations

import functools
import json
import os
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from .defaults import MAX_PRECISION
from .errors import DescriptorError

if TYPE_CHECKING:
    from .balls import RealBall
    from .exactlog import ExactLog
    from .function_field import FunctionFieldComponent
    from .number_field_units import NumberFieldUnitsComponent
    from .s_integer import SIntegerComponent

    Component = Union[SIntegerComponent, NumberFieldUnitsComponent, FunctionFieldComponent]

ARCHIMEDEAN = "archimedean"
NONARCHIMEDEAN = "nonarchimedean"

ERGODIC = "ergodic"
NON_ERGODIC = "non-ergodic"
ERGODICITY_UNDECIDED = "undecided"


def _parse_rational(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise DescriptorError(path, "expected a rational number, got a boolean")
    if isinstance(value, (int, str, Fraction)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DescriptorError(path, f"invalid rational {value!r}: {exc}") from None
    raise DescriptorError(path, f"expected a rational written as a string or integer, got {type(value).__name__}")


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise DescriptorError(path, f"missing required field {key!r}")
    return mapping[key]


def _reject_unknown(mapping: dict, allowed: Sequence[str], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise DescriptorError(f"{path}.{key}" if path else key, "unknown field")


class Character:
    """One absolute value of the coefficient data, as exact log sizes.

    log_vector[i] is the exact logarithm of the size of the i-th commuting
    generator under this absolute value.
    """

    __slots__ = ("kind", "log_vector", "source", "component_index", "multiplicity")

    def __init__(
        self,
        kind: str,
        log_vector: Sequence[ExactLog],
        source: dict,
        component_index: int,
        multiplicity: int,
    ):
        self.kind = kind
        self.log_vector = tuple(log_vector)
        self.source = source
        self.component_index = component_index
        self.multiplicity = multiplicity

    def log_linear_form(self, v: Sequence) -> ExactLog:
        """Exact value of sum_i v_i * log size(generator_i), v rational."""
        from .exactlog import log_dot

        coeffs = [Fraction(x) for x in v]
        if len(coeffs) != len(self.log_vector):
            raise ValueError("direction has the wrong dimension")
        return log_dot(coeffs, self.log_vector)

    def chi_star(self, v: Sequence, prec: int) -> RealBall:
        """Size of the character on the group element v, as exp of the log form."""
        return self.log_linear_form(v).evaluate(prec).exp(prec)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "component": self.component_index,
            "multiplicity": self.multiplicity,
            "source": self.source,
            "log_vector": [w.atoms_json() for w in self.log_vector],
        }

    def __repr__(self):
        return f"Character({self.kind}, comp {self.component_index}, {self.source})"


class SystemDescriptor:
    """A validated descriptor plus its expanded character data."""

    def __init__(self, label: str, d: int, components: Sequence[Tuple[Component, int]]):
        self.label = label
        self.d = d
        self.components = tuple(components)
        self._characters: Optional[Tuple[Tuple[Character, ...], Tuple[Character, ...]]] = None

    def characters(self) -> Tuple[Tuple[Character, ...], Tuple[Character, ...]]:
        """(V, W): archimedean and nonarchimedean character lists."""
        if self._characters is None:
            arch: List[Character] = []
            nonarch: List[Character] = []
            for index, (comp, mult) in enumerate(self.components):
                a, w = comp.characters(index, mult)
                arch.extend(a)
                nonarch.extend(w)
            self._characters = (tuple(arch), tuple(nonarch))
        return self._characters

    @functools.cached_property
    def bit_height(self) -> int:
        """sum_c mult_c * bit_height_c: bits per unit of sum |n_i| j that
        bound a periodic count's size from above, for the count budget."""
        return sum(mult * comp.bit_height for comp, mult in self.components)

    def all_characters(self) -> Tuple[Character, ...]:
        arch, nonarch = self.characters()
        return arch + nonarch

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "d": self.d,
            "components": [comp.canonical(mult) for comp, mult in self.components],
        }

    def json_text(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def descriptor_hash(self) -> str:
        import hashlib

        return hashlib.sha256(self.json_text().encode("utf-8")).hexdigest()

    def ergodicity(self, max_prec: int = MAX_PRECISION) -> Tuple[str, List[str]]:
        """Overall status plus any warnings from undecided components."""
        statuses = []
        warnings: List[str] = []
        for index, (comp, _) in enumerate(self.components):
            status, notes = comp.ergodicity(max_prec)
            warnings.extend(f"components[{index}]: {note}" for note in notes)
            statuses.append(status)
        if any(s == NON_ERGODIC for s in statuses):
            return NON_ERGODIC, warnings
        if all(s == ERGODIC for s in statuses):
            return ERGODIC, warnings
        return ERGODICITY_UNDECIDED, warnings


def parse_descriptor(data: Union[str, bytes, dict]) -> SystemDescriptor:
    """Validate a descriptor document (JSON text or parsed dict)."""
    if isinstance(data, (str, bytes)):
        try:
            doc = json.loads(data)
        except json.JSONDecodeError as exc:
            raise DescriptorError("", f"invalid JSON: {exc}") from None
        except RecursionError:
            raise DescriptorError("", "invalid JSON: nested too deeply") from None
    else:
        doc = data
    if not isinstance(doc, dict):
        raise DescriptorError("", "descriptor must be a JSON object")
    _reject_unknown(doc, ("label", "d", "components"), "")

    label = doc.get("label", "")
    if not isinstance(label, str):
        raise DescriptorError("label", "must be a string")

    d = _require(doc, "d", "")
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise DescriptorError("d", "must be a positive integer")

    comps_doc = _require(doc, "components", "")
    if not isinstance(comps_doc, list) or not comps_doc:
        raise DescriptorError("components", "must be a nonempty list")

    components: List[Tuple[Component, int]] = []
    for i, cdoc in enumerate(comps_doc):
        path = f"components[{i}]"
        if not isinstance(cdoc, dict):
            raise DescriptorError(path, "must be an object")
        cls = _require(cdoc, "class", path)
        mult = cdoc.get("multiplicity", 1)
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            raise DescriptorError(f"{path}.multiplicity", "must be a positive integer")

        if cls == "s_integer":
            _reject_unknown(cdoc, ("class", "multiplicity", "generators"), path)
            gens_doc = _require(cdoc, "generators", path)
            if not isinstance(gens_doc, list):
                raise DescriptorError(f"{path}.generators", "must be a list")
            gens = [
                _parse_rational(g, f"{path}.generators[{j}]") for j, g in enumerate(gens_doc)
            ]
            from .s_integer import SIntegerComponent

            comp: Component = SIntegerComponent(gens, path)
        elif cls == "number_field_units":
            _reject_unknown(cdoc, ("class", "multiplicity", "min_poly", "generators"), path)
            mp_doc = _require(cdoc, "min_poly", path)
            if not isinstance(mp_doc, list) or not all(
                isinstance(c, int) and not isinstance(c, bool) for c in mp_doc
            ):
                raise DescriptorError(f"{path}.min_poly", "must be a list of integers (ascending, monic)")
            gens_doc = _require(cdoc, "generators", path)
            if not isinstance(gens_doc, list):
                raise DescriptorError(f"{path}.generators", "must be a list")
            from .number_field_units import NumberFieldUnitsComponent

            comp = NumberFieldUnitsComponent(mp_doc, gens_doc, path)
        elif cls == "function_field":
            _reject_unknown(cdoc, ("class", "multiplicity", "characteristic", "generators"), path)
            char = _require(cdoc, "characteristic", path)
            gens_doc = _require(cdoc, "generators", path)
            if not isinstance(gens_doc, list):
                raise DescriptorError(f"{path}.generators", "must be a list")
            from .function_field import FunctionFieldComponent

            comp = FunctionFieldComponent(char, gens_doc, path)
        else:
            raise DescriptorError(f"{path}.class", f"unknown component class {cls!r}")

        if comp.d != d:
            raise DescriptorError(
                f"{path}.generators", f"expected {d} generators for a Z^{d}-action, got {comp.d}"
            )
        components.append((comp, mult))

    return SystemDescriptor(label, d, components)


# the packaged example descriptors, installed as files next to this module
_FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_names() -> List[str]:
    return sorted(name[: -len(".json")] for name in os.listdir(_FIXTURES) if name.endswith(".json"))


def load_fixture(name: str) -> SystemDescriptor:
    """Load one of the packaged example descriptors by name."""
    try:
        with open(os.path.join(_FIXTURES, f"{name}.json"), encoding="utf-8") as f:
            text = f.read()
    except FileNotFoundError:
        raise DescriptorError("", f"no packaged descriptor named {name!r}; known: {', '.join(fixture_names())}") from None
    return parse_descriptor(text)
