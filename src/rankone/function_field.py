"""The ``function_field`` component class: d nonzero rational functions
over F_p acting in positive characteristic.

fppoly, which every use of the class needs (parsing, places, counts), is
imported at load; exactlog (characters) and linalg (the ergodicity rank)
are imported where they are used, so a count over a box loads neither.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from . import fppoly
from .defaults import MAX_PRECISION
from .errors import DescriptorError
from .rationals import is_prime
from .system import ERGODIC, NON_ERGODIC, NONARCHIMEDEAN, Character

if TYPE_CHECKING:
    from .fppoly import FpPoly, FpRationalFunction


class FunctionFieldComponent:
    """d nonzero rational functions in F_p(t); all characters nonarchimedean."""

    kind = "function_field"

    def __init__(self, characteristic: int, generators: Sequence, path: str):
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
                g = fppoly.parse_rational_function(text, characteristic)
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
        # a generator's num and den are coprime, so it has nonzero order at
        # every irreducible factor of either: each of them is a marked place
        places = {pi for g in self.generators for part in (g.num, g.den) for pi in part.factor()}
        return tuple(sorted(places, key=lambda pi: (pi.degree, pi.coeffs)))

    @functools.cached_property
    def infinite_place_needed(self) -> bool:
        return any(fppoly.fp_ord_infinity(g) != 0 for g in self.generators)

    @functools.cached_property
    def _place_orders(self) -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
        """(place, degree-weighted order of each generator) per marked finite
        place, then at infinity when some generator has an order there."""
        table = [
            (pi.format(), tuple(
                (fppoly.fp_ord_at(g.num, pi) - fppoly.fp_ord_at(g.den, pi)) * pi.degree
                for g in self.generators))
            for pi in self.finite_places
        ]
        if self.infinite_place_needed:
            table.append(("infinity", tuple(fppoly.fp_ord_infinity(g) for g in self.generators)))
        return tuple(table)

    @functools.cached_property
    def bit_height(self) -> int:
        """Rough bits-per-unit-exponent estimate used by the count size budget."""
        bits = max(1, self.p.bit_length())
        return max((g.num.degree + g.den.degree + 1) * bits for g in self.generators)

    def characters(self, component_index: int, multiplicity: int) -> Tuple[List[Character], List[Character]]:
        from .exactlog import ExactLog

        log_p = ExactLog.from_rational(Fraction(self.p))
        # product formula: total degree-weighted order vanishes per generator
        if any(sum(orders[i] for _, orders in self._place_orders) for i in range(self.d)):
            raise ArithmeticError("place orders violate the product formula")
        return [], [
            Character(NONARCHIMEDEAN, [log_p.scale(Fraction(-o)) for o in orders], {"place": place},
                      component_index, multiplicity)
            for place, orders in self._place_orders
        ]

    def _power(self, i: int, e: int) -> Tuple[FpPoly, FpPoly, Tuple[int, ...]]:
        """(N, D, ords) with g_i^e = N / D and ords the orders of D at the
        finite places: num^e and den^e for e > 0, swapped for e < 0.
        Each is computed once and kept on the instance."""
        entry = self._powers.get((i, e))
        if entry is None:
            g = self.generators[i]
            num, den = (g.num, g.den) if e > 0 else (g.den, g.num)
            ords = tuple(abs(e) * fppoly.fp_ord_at(den, pi) for pi in self.finite_places)
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
        # matrix rank decides exactly; an all-zero infinity column, left out
        # of _place_orders, would not change it.
        from .linalg import full_row_rank

        rows = [[orders[i] for _, orders in self._place_orders] for i in range(self.d)]
        return (ERGODIC if full_row_rank(rows) else NON_ERGODIC), []

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
