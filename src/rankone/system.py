"""Descriptor model for algebraic Z^d-actions of entropy rank one.

A descriptor is a JSON document naming one or more building blocks
(components), each of which expands into a finite list of characters.  A
character records, for one absolute value of the acting coefficient data,
the exact vector of logarithmic sizes of the d commuting generators.  Every
later computation (periodic counts, pole data, the expansive-subdynamics
portrait) consumes the character lists rather than the raw descriptor.

Three component classes are supported:

- ``s_integer``: d nonzero rationals acting on a ring of S-integers.
- ``number_field_units``: d units of the ring of integers of a number
  field, given by coordinate vectors in the power basis of a defining
  monic integer polynomial.  Coordinates may be rational since the ring
  of integers need not be generated by the defining root.
- ``function_field``: d nonzero rational functions over F_p acting in
  positive characteristic.

Each class answers the same questions about h = prod_i g_i^(e_i), so no
consumer tests the class: ``count_factor`` is the component's factor of the
periodic count (None when h = 1), ``arch_factors`` is (exact value, part to
embed) for h at each archimedean character in ``characters()`` order, and
``ergodicity`` is (status, notes).

Each class imports its own arithmetic where it first needs it: numberfield
(which brings linalg, and fppoly for its irreducibility test) for
number_field_units, fppoly for function_field, linalg for the s_integer
and function_field ergodicity ranks.  Only rationals, which every class
uses, is imported here at load, so a run loads the modules of its
descriptor's classes and no others; descriptor_hash imports hashlib.

The archimedean characters of a component go into the V list, the
nonarchimedean ones into W.  Orderings are deterministic: components in
descriptor order, embeddings in certified root order, finite primes
ascending, finite places sorted by degree then coefficients with the
infinite place last.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from importlib import resources
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from .defaults import DEFAULT_PRECISION, MAX_PRECISION
from .errors import DescriptorError
from .rationals import factor_fraction, is_prime, prime_to_s_part

if TYPE_CHECKING:
    from .balls import RealBall
    from .exactlog import ExactLog
    from .fppoly import FpPoly, FpRationalFunction
    from .numberfield import Element

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


class SIntegerComponent:
    """d nonzero rationals; one archimedean character, one per relevant prime."""

    kind = "s_integer"

    def __init__(self, generators: Sequence[Fraction], path: str):
        gens = tuple(generators)
        for i, r in enumerate(gens):
            if r == 0:
                raise DescriptorError(f"{path}.generators[{i}]", "generator must be nonzero")
        self.generators = gens
        # (i, e) -> integer (N, D) with g_i^e = N / D, for the counts
        self._powers: Dict[Tuple[int, int], Tuple[int, int]] = {}

    @property
    def d(self) -> int:
        return len(self.generators)

    @functools.cached_property
    def s_primes(self) -> Tuple[int, ...]:
        primes = set()
        for r in self.generators:
            primes.update(factor_fraction(r))
        return tuple(sorted(primes))

    @functools.cached_property
    def bit_height(self) -> int:
        """Rough bits-per-unit-exponent estimate used by the count size budget."""
        return max(
            r.numerator.bit_length() + r.denominator.bit_length() for r in self.generators
        )

    def characters(self, component_index: int, multiplicity: int) -> Tuple[List[Character], List[Character]]:
        from .exactlog import ExactLog

        arch = Character(
            ARCHIMEDEAN,
            [ExactLog.from_rational(r) for r in self.generators],
            {"place": "archimedean"},
            component_index,
            multiplicity,
        )
        nonarch = []
        for p in self.s_primes:
            log_p = ExactLog.from_rational(Fraction(p))
            vec = []
            for r in self.generators:
                ordp = factor_fraction(r).get(p, 0)
                vec.append(log_p.scale(Fraction(-ordp)))
            nonarch.append(
                Character(
                    NONARCHIMEDEAN,
                    vec,
                    {"place": str(p)},
                    component_index,
                    multiplicity,
                )
            )
        return [arch], nonarch

    def count_factor(self, exponents: Sequence[int]) -> Optional[int]:
        """Prime-to-S part of |numerator(h) - denominator(h)|; None when h = 1.

        h = N/D with N and D products of integer powers of the generators'
        numerators and denominators, each formed once per generator and
        exponent and kept on the instance.  N/D need not be reduced:
        dividing N - D by gcd(N, D) gives the reduced numerator minus the
        reduced denominator up to sign.
        """
        num = den = 1
        powers = self._powers
        for i, e in enumerate(exponents):
            if e:
                pair = powers.get((i, e))
                if pair is None:
                    r = self.generators[i]
                    a, b = r.numerator ** abs(e), r.denominator ** abs(e)
                    pair = powers[(i, e)] = (a, b) if e > 0 else (b, a)
                num *= pair[0]
                den *= pair[1]
        if num == den:
            return None
        return prime_to_s_part(abs(num - den) // math.gcd(num, den), self.s_primes)

    def arch_factors(self, exponents: Sequence[int]) -> List[Tuple[Fraction, None]]:
        """The value of h at the one archimedean character: h itself, exactly."""
        h = Fraction(1)
        for r, e in zip(self.generators, exponents):
            h *= r ** e
        return [(h, None)]

    def ergodicity(self, max_prec: int = MAX_PRECISION) -> Tuple[str, List[str]]:
        # A relation prod r_i^{k_i} = 1 forces prod |r_i|^{k_i} = 1, and
        # conversely prod |r_i|^{k_i} = 1 gives the relation with 2k.  So
        # ergodicity is exactly full rank of the prime exponent matrix.
        from .linalg import rank

        primes = self.s_primes
        rows = []
        for r in self.generators:
            fac = factor_fraction(r)
            rows.append([Fraction(fac.get(p, 0)) for p in primes])
        if not primes:
            return (NON_ERGODIC if self.generators else ERGODIC), []
        return (ERGODIC if rank(rows) == self.d else NON_ERGODIC), []

    def canonical(self, multiplicity: int) -> dict:
        return {
            "class": self.kind,
            "multiplicity": multiplicity,
            "generators": [str(r) for r in self.generators],
        }


class NumberFieldUnitsComponent:
    """d units of the ring of integers of Q[x]/(min_poly).

    Every embedding of the field contributes one archimedean character;
    unit generators make all finite places bounded, so W is empty.
    """

    kind = "number_field_units"

    def __init__(self, min_poly: Sequence[int], generators: Sequence[Sequence], path: str):
        from . import numberfield as nf

        try:
            self.field = nf.NumberFieldSpec(min_poly)
        except ValueError as exc:
            raise DescriptorError(f"{path}.min_poly", str(exc)) from None
        # |Norm(h - 1)| counts periodic points only when Q[x]/(min_poly) is a field
        if not nf.is_irreducible(self.field.min_poly):
            raise DescriptorError(f"{path}.min_poly", "min_poly must be irreducible")
        gens = []
        for i, coeffs in enumerate(generators):
            gpath = f"{path}.generators[{i}]"
            if not isinstance(coeffs, (list, tuple)):
                raise DescriptorError(gpath, "expected a coefficient vector")
            vals = [_parse_rational(c, f"{gpath}[{j}]") for j, c in enumerate(coeffs)]
            try:
                g = nf.el_from_coeffs(self.field, vals)
            except ValueError as exc:
                raise DescriptorError(gpath, str(exc)) from None
            if all(c == 0 for c in g):
                raise DescriptorError(gpath, "generator must be nonzero")
            if not nf.is_unit(self.field, g):
                raise DescriptorError(gpath, "generator is not a unit of the ring of integers")
            gens.append(g)
        self.generators: Tuple[Element, ...] = tuple(gens)
        # (i, e) -> integer (v, den) with g_i^e = v / den, for the counts;
        # i -> g_i^-1, whose powers are the negative ones
        self._powers: Dict[Tuple[int, int], Tuple[Tuple[int, ...], int]] = {}
        self._inverses: Dict[int, Element] = {}

    @property
    def d(self) -> int:
        return len(self.generators)

    @functools.cached_property
    def _root_identities(self) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """Per generator: its integer minimal polynomial and, per embedding
        of the field, the index of its value among that polynomial's roots.

        Matching is certified and escalates to the hard cap of root
        isolation, so the cached characters never depend on a user cap."""
        from . import numberfield as nf

        out = []
        for g in self.generators:
            charpoly = nf.element_charpoly(self.field, g)
            if any(c.denominator != 1 for c in charpoly):
                raise ValueError("unit with non-integral characteristic polynomial")
            int_cp = [int(c) for c in charpoly]
            # over a field the characteristic polynomial is p^k, p irreducible
            min_poly = nf.squarefree_part_int(int_cp)
            k, rest = divmod(len(int_cp) - 1, len(min_poly) - 1)
            power = [1]
            for _ in range(k):
                power = nf.poly_mul(power, min_poly)
            if rest or power != int_cp:
                raise ArithmeticError("characteristic polynomial is not a power of its squarefree part")
            if len(min_poly) == 2:
                out.append((min_poly, tuple(0 for _ in range(self.field.degree))))
                continue
            indices = nf.match_roots(
                min_poly,
                lambda prec, g=g: [nf.embed(g, e, prec) for e in nf.isolate_roots(self.field.min_poly, prec)],
                "matching a generator value to a root of its minimal polynomial",
            )
            out.append((min_poly, tuple(indices)))
        return out

    def characters(self, component_index: int, multiplicity: int) -> Tuple[List[Character], List[Character]]:
        from . import numberfield as nf
        from .exactlog import ExactLog

        identities = self._root_identities
        embeddings = nf.isolate_roots(self.field.min_poly)
        arch = []
        for k, emb in enumerate(embeddings):
            vec = [
                ExactLog.from_root_abs(min_poly, indices[k])
                for (min_poly, indices) in identities
            ]
            arch.append(
                Character(
                    ARCHIMEDEAN,
                    vec,
                    {
                        "place": "archimedean",
                        "embedding_index": k,
                        "real": emb.is_real,
                    },
                    component_index,
                    multiplicity,
                )
            )
        return arch, []

    @functools.cached_property
    def bit_height(self) -> int:
        """Bits per unit of exponent that bound a count's size from above.

        |Norm(h - 1)| <= prod_k (|sigma_k(h)| + 1) over the m embeddings, and
        every root of the monic min_poly lies below the Cauchy bound
        R = 1 + max |f_i|, so |sigma_k(g)| <= B(g) = sum_j |g_j| R^j.  With M
        the largest B(g_i) and B(g_i^-1), the count has at most
        m * (ceil(log2 M) + 1) bits per unit of sum |e_i|.  The estimate is
        the larger of that and m^2 times the generators' largest coordinate
        size in bits.
        """
        m = self.field.degree
        coeff_bits = 1
        for g in self.generators:
            for c in g:
                coeff_bits = max(
                    coeff_bits, c.numerator.bit_length() + c.denominator.bit_length()
                )
        radius = 1 + max(abs(c) for c in self.field.min_poly[:-1])
        top = 1  # ceil(M), M the largest root-size bound B
        for i, g in enumerate(self.generators):
            for x in (g, self._inverse(i)):
                bound = sum(abs(c) * radius ** j for j, c in enumerate(x))
                top = max(top, math.ceil(bound))
        return max(m ** 2 * coeff_bits, m * ((top - 1).bit_length() + 1))

    def _inverse(self, i: int) -> Element:
        """g_i^-1, computed once and kept on the instance."""
        inverse = self._inverses.get(i)
        if inverse is None:
            from . import numberfield as nf

            inverse = self._inverses[i] = nf.el_inv(self.field, self.generators[i])
        return inverse

    def _power(self, i: int, e: int) -> Tuple[Tuple[int, ...], int]:
        """(v, den) with g_i^e = v / den, e != 0, computed once.

        g_i^e comes from el_pow; a negative power is a power of g_i^-1, so
        each generator is inverted once.  Over a box of lattice points only
        one power per generator and box row or column is ever formed, so the
        memo stays small.
        """
        entry = self._powers.get((i, e))
        if entry is None:
            from . import numberfield as nf

            base = self.generators[i] if e > 0 else self._inverse(i)
            v, den = nf.int_coords(nf.el_pow(self.field, base, abs(e)))
            entry = self._powers[(i, e)] = (tuple(v), den)
        return entry

    def _product_coords(self, exponents: Sequence[int]) -> Tuple[Sequence[int], int]:
        """(v, den) with h = prod_i g_i^(e_i) = v / den, on integers: the
        powers' integer coordinates multiplied by mul_coords and their
        denominators multiplied, not reduced."""
        from . import numberfield as nf

        v, den = None, 1
        for i, e in enumerate(exponents):
            if e:
                pv, pden = self._power(i, e)
                v = pv if v is None else nf.mul_coords(self.field.min_poly, v, pv)
                den *= pden
        if v is None:
            v = (1,) + (0,) * (self.field.degree - 1)
        return v, den

    def power_product(self, exponents: Sequence[int]) -> Element:
        """prod_i g_i^(e_i) as an element."""
        v, den = self._product_coords(exponents)
        return tuple(Fraction(c, den) for c in v)

    def count_factor(self, exponents: Sequence[int]) -> Optional[int]:
        """|Norm(h - 1)| on integers alone; None when h = 1.

        With h = v / den, norm takes the integer vector v and c = den:
        Norm(v - den) = den^m Norm(h - 1) is one integer determinant, and
        one exact division by den^m gives the count's factor.
        """
        from . import numberfield as nf

        v, den = self._product_coords(exponents)
        if v[0] == den and not any(v[1:]):
            return None
        value, rem = divmod(nf.norm(self.field, v, den), den ** self.field.degree)
        if rem:
            raise ArithmeticError("norm of an algebraic integer must be an integer")
        if value == 0:
            raise ArithmeticError("in a field h - 1 != 0 must have nonzero norm")
        return abs(value)

    def arch_factors(self, exponents: Sequence[int]) -> List[Tuple[None, tuple]]:
        """Per embedding k, the part (min_poly, k, h) that embeds h there."""
        h = self.power_product(exponents)
        return [(None, (self.field.min_poly, k, h)) for k in range(self.field.degree)]

    def ergodicity(self, max_prec: int = MAX_PRECISION) -> Tuple[str, List[str]]:
        # Full real rank of the embedding log matrix certifies that no
        # nontrivial power product has all absolute values 1, hence no
        # relation.  Rank defect cannot be certified by intervals, so the
        # failure mode is an honest warning.
        from .balls import precisions
        from .exactlog import _vector_trivially_zero

        veclists, _ = self.characters(0, 1)
        vectors = [c.log_vector for c in veclists]
        live = [w for w in vectors if not _vector_trivially_zero(w)]
        if len(live) < self.d:
            return ERGODICITY_UNDECIDED, [
                "embedding log matrix has too few certifiably nonzero rows; ergodicity undecided"
            ]
        for prec in precisions(min(DEFAULT_PRECISION, max_prec), max_prec):
            rows = [[w.evaluate(prec) for w in vec] for vec in live]
            if _ball_rank_at_least(rows, self.d, prec):
                return ERGODIC, []
        return ERGODICITY_UNDECIDED, [
            "embedding log matrix rank not certified at the precision cap; ergodicity undecided"
        ]

    def canonical(self, multiplicity: int) -> dict:
        return {
            "class": self.kind,
            "multiplicity": multiplicity,
            "min_poly": [int(c) for c in self.field.min_poly],
            "generators": [[str(c) for c in g] for g in self.generators],
        }


def _ball_rank_at_least(rows: List[List[RealBall]], target: int, prec: int) -> bool:
    """True when some target x target minor is certified nonzero.

    Ball Gaussian elimination with full pivoting: each step pivots on the
    remaining entry with the largest midpoint among those that exclude zero,
    and gives up when none does.  Every exact matrix inside the balls then
    has the same nonzero pivots, so after target steps the minor on the
    pivot rows and columns, their product up to sign, is nonzero.
    """
    m = [row[:] for row in rows]
    for _ in range(target):
        best = None
        for i, row in enumerate(m):
            for j, entry in enumerate(row):
                if not entry.contains_zero():
                    mag = abs(entry.mid_float())
                    if best is None or mag > best[0]:
                        best = (mag, i, j)
        if best is None:
            return False
        _, i, j = best
        pivot_row = m.pop(i)
        pivot = pivot_row.pop(j)
        for row in m:
            f = row.pop(j).div(pivot, prec)
            for c, x in enumerate(pivot_row):
                row[c] = row[c].sub(f.mul(x, prec), prec)
    return True


class FunctionFieldComponent:
    """d nonzero rational functions in F_p(t); all characters nonarchimedean."""

    kind = "function_field"

    def __init__(self, characteristic: int, generators: Sequence, path: str):
        from .fppoly import parse_rational_function

        if not isinstance(characteristic, int) or isinstance(characteristic, bool):
            raise DescriptorError(f"{path}.characteristic", "expected a prime integer")
        if not is_prime(characteristic):
            raise DescriptorError(f"{path}.characteristic", f"{characteristic} is not prime")
        self.p = characteristic
        gens = []
        for i, text in enumerate(generators):
            gpath = f"{path}.generators[{i}]"
            if not isinstance(text, str):
                raise DescriptorError(gpath, "expected a rational function written as a string")
            try:
                g = parse_rational_function(text, characteristic)
            except (ValueError, ZeroDivisionError) as exc:
                raise DescriptorError(gpath, str(exc)) from None
            except RecursionError:
                raise DescriptorError(gpath, "rational-function string is nested too deeply") from None
            if g.is_zero():
                raise DescriptorError(gpath, "generator must be nonzero")
            gens.append(g)
        self.generators: Tuple[FpRationalFunction, ...] = tuple(gens)
        self._powers: Dict[Tuple[int, int], Tuple[FpPoly, FpPoly, Tuple[int, ...]]] = {}

    @property
    def d(self) -> int:
        return len(self.generators)

    @functools.cached_property
    def finite_places(self) -> Tuple[FpPoly, ...]:
        from .fppoly import fp_ord_at

        places = set()
        for g in self.generators:
            for part in (g.num, g.den):
                for pi in part.factor():
                    if pi.degree >= 1:
                        places.add(pi)
        marked = [pi for pi in places if any(fp_ord_at(g, pi) != 0 for g in self.generators)]
        marked.sort(key=lambda pi: (pi.degree, tuple(pi.coeffs)))
        return tuple(marked)

    @functools.cached_property
    def infinite_place_needed(self) -> bool:
        from .fppoly import fp_ord_infinity

        return any(fp_ord_infinity(g) != 0 for g in self.generators)

    @functools.cached_property
    def bit_height(self) -> int:
        """Rough bits-per-unit-exponent estimate used by the count size budget."""
        bits = max(1, self.p.bit_length())
        return max((g.num.degree + g.den.degree + 1) * bits for g in self.generators)

    def characters(self, component_index: int, multiplicity: int) -> Tuple[List[Character], List[Character]]:
        from .exactlog import ExactLog
        from .fppoly import fp_ord_at, fp_ord_infinity

        log_p = ExactLog.from_rational(Fraction(self.p))
        nonarch = []
        checksum = [0] * self.d
        for pi in self.finite_places:
            deg = pi.degree
            vec = []
            for i, g in enumerate(self.generators):
                o = fp_ord_at(g, pi)
                checksum[i] += o * deg
                vec.append(log_p.scale(Fraction(-o * deg)))
            nonarch.append(
                Character(
                    NONARCHIMEDEAN,
                    vec,
                    {"place": pi.format()},
                    component_index,
                    multiplicity,
                )
            )
        if self.infinite_place_needed:
            vec = []
            for i, g in enumerate(self.generators):
                o = fp_ord_infinity(g)
                checksum[i] += o
                vec.append(log_p.scale(Fraction(-o)))
            nonarch.append(
                Character(
                    NONARCHIMEDEAN,
                    vec,
                    {"place": "infinity"},
                    component_index,
                    multiplicity,
                )
            )
        # product formula: total degree-weighted order vanishes per generator
        if any(checksum):
            raise ArithmeticError("place orders violate the product formula")
        return [], nonarch

    def _power(self, i: int, e: int) -> Tuple[FpPoly, FpPoly, Tuple[int, ...]]:
        """(N, D, ords) with g_i^e = N / D and ords the orders of D at the
        finite places: num^e and den^e for e > 0, swapped for e < 0.
        Each is computed once and kept on the instance."""
        entry = self._powers.get((i, e))
        if entry is None:
            from .fppoly import fp_ord_at

            g = self.generators[i]
            num, den = (g.num, g.den) if e > 0 else (g.den, g.num)
            ords = tuple(abs(e) * fp_ord_at(den, pi) for pi in self.finite_places)
            entry = self._powers[(i, e)] = (num.pow(abs(e)), den.pow(abs(e)), ords)
        return entry

    def count_factor(self, exponents: Sequence[int]) -> Optional[int]:
        """p to the degree-weighted pole order of h - 1 at the marked places;
        None when h = 1.

        h = N/D with N and D the products of the generators' memoized
        numerator and denominator powers, not reduced: every order is a
        valuation, so for h - 1 = (N - D)/D the order at pi is
        ord_pi(N - D) - ord_pi(D) and the order at infinity is
        deg D - deg(N - D) whatever factor N and D share.  ord_pi(D) is the
        sum of the memoized orders, so only N - D is divided by each place.
        """
        from . import fppoly

        num = den = ords = None
        for i, e in enumerate(exponents):
            if e:
                n_e, d_e, o_e = self._power(i, e)
                if num is None:
                    num, den, ords = n_e, d_e, o_e
                else:
                    num, den = num.mul(n_e), den.mul(d_e)
                    ords = [a + b for a, b in zip(ords, o_e)]
        if num is None or num == den:
            return None
        diff = num.sub(den)
        exponent = 0
        for pi, ord_den in zip(self.finite_places, ords):
            exponent -= (fppoly.fp_ord_at(diff, pi) - ord_den) * pi.degree
        if self.infinite_place_needed:
            exponent -= den.degree - diff.degree
        # h - 1 has poles only at marked places, so the unmarked part of the
        # product formula forces a nonnegative exponent
        if exponent < 0:
            raise ArithmeticError("negative count exponent violates the product formula")
        return self.p ** exponent

    def arch_factors(self, exponents: Sequence[int]) -> List[tuple]:
        """No archimedean characters in positive characteristic."""
        return []

    def ergodicity(self, max_prec: int = MAX_PRECISION) -> Tuple[str, List[str]]:
        # prod g_i^{k_i} = 1 forces zero order at every place; conversely a
        # kernel vector of the order matrix makes the product a constant in
        # F_p^*, and scaling by p-1 yields an honest relation.  The order
        # matrix rank decides exactly.
        from .fppoly import fp_ord_at, fp_ord_infinity
        from .linalg import rank

        places = self.finite_places
        rows = []
        for g in self.generators:
            row = [Fraction(fp_ord_at(g, pi) * pi.degree) for pi in places]
            row.append(Fraction(fp_ord_infinity(g)))
            rows.append(row)
        return (ERGODIC if rank(rows) == self.d else NON_ERGODIC), []

    def canonical(self, multiplicity: int) -> dict:
        return {
            "class": self.kind,
            "multiplicity": multiplicity,
            "characteristic": self.p,
            "generators": [_format_rational_function(g) for g in self.generators],
        }


def _format_rational_function(g: FpRationalFunction) -> str:
    if g.den.is_one():
        return g.num.format()
    return f"({g.num.format()})/({g.den.format()})"


Component = Union[SIntegerComponent, NumberFieldUnitsComponent, FunctionFieldComponent]


class SystemDescriptor:
    """A validated descriptor plus its expanded character data."""

    def __init__(self, label: str, d: int, components: Sequence[Tuple[Component, int]]):
        self.label = label
        self.d = d
        self.components = tuple(components)
        self._characters: Optional[Tuple[Tuple[Character, ...], Tuple[Character, ...]]] = None
        # zeta.is_expansive_element's verdicts, keyed by (n, max_prec)
        self._expansive: Dict[Tuple[Tuple[int, ...], int], Optional[bool]] = {}

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
            comp = NumberFieldUnitsComponent(mp_doc, gens_doc, path)
        elif cls == "function_field":
            _reject_unknown(cdoc, ("class", "multiplicity", "characteristic", "generators"), path)
            char = _require(cdoc, "characteristic", path)
            gens_doc = _require(cdoc, "generators", path)
            if not isinstance(gens_doc, list):
                raise DescriptorError(f"{path}.generators", "must be a list")
            comp = FunctionFieldComponent(char, gens_doc, path)
        else:
            raise DescriptorError(f"{path}.class", f"unknown component class {cls!r}")

        if comp.d != d:
            raise DescriptorError(
                f"{path}.generators", f"expected {d} generators for a Z^{d}-action, got {comp.d}"
            )
        components.append((comp, mult))

    return SystemDescriptor(label, d, components)


def fixture_names() -> List[str]:
    root = resources.files("rankone").joinpath("fixtures")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_fixture(name: str) -> SystemDescriptor:
    """Load one of the packaged example descriptors by name."""
    path = resources.files("rankone").joinpath("fixtures").joinpath(f"{name}.json")
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise DescriptorError("", f"no packaged descriptor named {name!r}; known: {', '.join(fixture_names())}") from None
    return parse_descriptor(text)
