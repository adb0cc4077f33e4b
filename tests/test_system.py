"""Descriptor validation, character expansion, ergodicity, canonical hashing."""

import ast
import json
import pathlib
from fractions import Fraction

import pytest

import rankone
from rankone import fppoly, number_field_units, system
from rankone.errors import DescriptorError
from rankone.exactlog import vector_is_zero
from rankone.system import (
    Character,
    fixture_names,
    load_fixture,
    parse_descriptor,
)

from propsuites import contains


def desc(components, d=2, label="t"):
    return {"label": label, "d": d, "components": components}


S23 = {"class": "s_integer", "multiplicity": 1, "generators": ["2", "3"]}


# --- validation -----------------------------------------------------------

def test_fixture_names():
    assert set(fixture_names()) == {
        "times2times3", "ledrappier", "sqrt2sqrt3", "times2times3times5", "dk-sextic",
    }


def test_missing_d_rejected():
    with pytest.raises(DescriptorError):
        parse_descriptor({"label": "x", "components": [S23]})


def test_unknown_key_rejected():
    with pytest.raises(DescriptorError):
        parse_descriptor({"label": "x", "d": 2, "components": [S23], "extra": 1})
    with pytest.raises(DescriptorError):
        parse_descriptor(desc([dict(S23, typo=1)]))


def test_bad_multiplicity_rejected():
    with pytest.raises(DescriptorError):
        parse_descriptor(desc([dict(S23, multiplicity=0)]))
    with pytest.raises(DescriptorError):
        parse_descriptor(desc([dict(S23, multiplicity="2")]))


def test_generator_count_must_match_d():
    with pytest.raises(DescriptorError):
        parse_descriptor(desc([S23], d=3))


def test_s_integer_rejects_zero_and_non_rational():
    with pytest.raises(DescriptorError):
        parse_descriptor(desc([dict(S23, generators=["2", "0"])]))
    with pytest.raises(DescriptorError):
        parse_descriptor(desc([dict(S23, generators=["2", "x"])]))


def test_float_coefficients_rejected():
    bad = {
        "class": "number_field_units",
        "multiplicity": 1,
        "min_poly": [1, 0, -10, 0, 1],
        "generators": [[1.5, 0, 0, 0], ["2", "11/2", "0", "-1/2"]],
    }
    with pytest.raises(DescriptorError):
        parse_descriptor(desc([bad]))


def test_non_unit_generator_rejected():
    bad = {
        "class": "number_field_units",
        "multiplicity": 1,
        "min_poly": [1, 0, -10, 0, 1],
        "generators": [["2", "0", "0", "0"], ["1", "-9/2", "0", "1/2"]],
    }
    with pytest.raises(DescriptorError):
        parse_descriptor(desc([bad]))


def test_function_field_requires_prime_characteristic():
    bad = {"class": "function_field", "multiplicity": 1,
           "characteristic": 4, "generators": ["t", "1 + t"]}
    with pytest.raises(DescriptorError):
        parse_descriptor(desc([bad]))


def test_invalid_json_text():
    with pytest.raises(DescriptorError):
        parse_descriptor("{not json")


# --- canonical form and hashing --------------------------------------------

def test_canonical_roundtrip_preserves_hash():
    for name in fixture_names():
        sys_ = load_fixture(name)
        again = parse_descriptor(sys_.to_json())
        assert again.descriptor_hash() == sys_.descriptor_hash()
        assert again.json_text() == sys_.json_text()


def test_hash_changes_with_content():
    a = parse_descriptor(desc([S23]))
    b = parse_descriptor(desc([dict(S23, generators=["2", "5"])]))
    assert a.descriptor_hash() != b.descriptor_hash()


def test_descriptor_accepts_json_text_and_dict():
    doc = desc([S23])
    a = parse_descriptor(doc)
    b = parse_descriptor(json.dumps(doc))
    assert a.descriptor_hash() == b.descriptor_hash()


# --- character expansion -----------------------------------------------------

def test_times2times3_characters():
    sys_ = load_fixture("times2times3")
    V, W = sys_.characters()
    assert len(V) == 1 and len(W) == 2
    arch = V[0]
    assert [w.prime_part for w in arch.log_vector] == [
        {2: Fraction(1)}, {3: Fraction(1)},
    ]
    places = sorted(
        tuple(w.prime_part.get(p, Fraction(0)) for p in (2, 3) for w in chi.log_vector)
        for chi in W
    )
    # at 2: (-log2, 0); at 3: (0, -log3)
    assert places == [
        tuple(Fraction(c) for c in (-1, 0, 0, 0)),
        tuple(Fraction(c) for c in (0, 0, 0, -1)),
    ]


def test_ledrappier_characters():
    sys_ = load_fixture("ledrappier")
    V, W = sys_.characters()
    assert V == ()
    assert len(W) == 3
    vecs = sorted(
        tuple(w.prime_part.get(2, Fraction(0)) for w in chi.log_vector) for chi in W
    )
    assert vecs == [(-1, 0), (0, -1), (1, 1)]


def test_quartic_characters_sign_pattern():
    sys_ = load_fixture("sqrt2sqrt3")
    V, W = sys_.characters()
    assert len(V) == 4 and W == ()
    prec = 64
    signs = sorted(
        tuple(1 if w.evaluate(prec).is_positive() else -1 for w in chi.log_vector)
        for chi in V
    )
    # embeddings send (1+sqrt2, 2+sqrt3) to all four sign combinations of
    # (log(1+sqrt2), log(2+sqrt3))
    assert signs == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


def test_sextic_has_zero_log_vector_pair():
    sys_ = load_fixture("dk-sextic")
    V, W = sys_.characters()
    assert len(V) == 6 and W == ()
    flat = [vector_is_zero(chi.log_vector) for chi in V]
    assert flat.count(True) == 2


def test_chi_star_value():
    sys_ = load_fixture("times2times3")
    arch = sys_.characters()[0][0]
    assert contains(arch.chi_star((1, 0), 64), 2)
    assert contains(arch.chi_star((-1, -1), 64), Fraction(1, 6))


def test_zero_test_results():
    sys_ = load_fixture("times2times3")
    V, W = sys_.characters()
    at3 = next(chi for chi in W if chi.log_vector[1].prime_part)
    assert at3.log_linear_form((1, 0)).is_zero() is True
    assert at3.log_linear_form((0, 1)).is_zero() is False
    assert V[0].log_linear_form((1, 1)).is_zero() is False


def test_describe_shape():
    sys_ = load_fixture("times2times3")
    info = sys_.characters()[0][0].describe()
    assert set(info) == {"kind", "component", "multiplicity", "source", "log_vector"}


# --- ergodicity ---------------------------------------------------------------

def test_fixtures_are_ergodic():
    for name in fixture_names():
        status, _ = load_fixture(name).ergodicity()
        assert status == "ergodic", name


def test_ergodicity_rank_test_tries_the_cap_itself(monkeypatch):
    seen = []

    def never_certified(rows, target, prec):
        seen.append(prec)
        return False

    monkeypatch.setattr(number_field_units, "_ball_rank_at_least", never_certified)
    comp, _ = load_fixture("sqrt2sqrt3").components[0]
    status, notes = comp.ergodicity(300)
    assert seen == [64, 128, 256, 300]
    assert status == system.ERGODICITY_UNDECIDED
    assert notes == ["embedding log matrix rank not certified at the precision cap; ergodicity undecided"]


def test_multiplicatively_dependent_s_integer_is_non_ergodic():
    sys_ = parse_descriptor(desc([dict(S23, generators=["2", "4"])]))
    status, _ = sys_.ergodicity()
    assert status == "non-ergodic"


def test_dependent_function_field_is_non_ergodic():
    comp = {"class": "function_field", "multiplicity": 1,
            "characteristic": 2, "generators": ["t", "t*t"]}
    sys_ = parse_descriptor(desc([comp]))
    status, _ = sys_.ergodicity()
    assert status == "non-ergodic"


# --- one component protocol -------------------------------------------------------

COMPONENT_CLASS_NAMES = {
    "SIntegerComponent", "NumberFieldUnitsComponent", "FunctionFieldComponent", "Component",
}


def _names(node):
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


# system.py and the modules of the classes themselves
COMPONENT_MODULES = {"system.py", "s_integer.py", "number_field_units.py", "function_field.py"}


def test_no_component_class_test_outside_system():
    # consumers call the protocol; only the descriptor model may name a
    # component class
    package = pathlib.Path(rankone.__file__).parent
    assert COMPONENT_MODULES <= {p.name for p in package.glob("*.py")}
    paths = [p for p in sorted(package.glob("*.py")) if p.name not in COMPONENT_MODULES]
    paths.append(pathlib.Path(__file__).parent / "propsuites.py")
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass")
                and len(node.args) == 2
                and _names(node.args[1]) & COMPONENT_CLASS_NAMES
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_component_ergodicity_is_status_and_notes():
    for name in fixture_names():
        for comp, _ in load_fixture(name).components:
            result = comp.ergodicity()
            assert isinstance(result, tuple) and len(result) == 2, (name, result)
            assert isinstance(result[0], str) and isinstance(result[1], list), (name, result)


def test_arch_factors_follow_the_archimedean_characters():
    for name in fixture_names():
        sys_ = load_fixture(name)
        arch, _ = sys_.characters()
        exponents = [1] * sys_.d
        per_component = [len(comp.arch_factors(exponents)) for comp, _ in sys_.components]
        expected = [
            sum(1 for chi in arch if chi.component_index == i)
            for i in range(len(sys_.components))
        ]
        assert per_component == expected, name


def test_product_formula_violation_raises(monkeypatch):
    # a wrong order at the infinite place breaks the degree-weighted sum
    real = fppoly.fp_ord_infinity
    monkeypatch.setattr(fppoly, "fp_ord_infinity", lambda g: real(g) + 1)
    with pytest.raises(ArithmeticError, match="product formula"):
        load_fixture("ledrappier").characters()
