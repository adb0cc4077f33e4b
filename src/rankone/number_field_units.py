"""The ``number_field_units`` component class: d units of the ring of
integers of a number field.

numberfield, which every use of the class needs (validation, counts,
characters), is imported at load and brings linalg; exactlog and balls are
imported where the characters and the ergodicity rank test use them, so a
count over a box loads neither.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from . import numberfield as nf
from .defaults import DEFAULT_PRECISION, MAX_PRECISION
from .errors import DescriptorError
from .system import ARCHIMEDEAN, ERGODIC, ERGODICITY_UNDECIDED, Character, _parse_rational

if TYPE_CHECKING:
    from .balls import RealBall
    from .numberfield import Element


class NumberFieldUnitsComponent:
    """d units of the ring of integers of Q[x]/(min_poly).

    Every embedding of the field contributes one archimedean character;
    unit generators make all finite places bounded, so W is empty.
    """

    kind = "number_field_units"

    def __init__(self, min_poly: Sequence[int], generators: Sequence[Sequence], path: str):
        try:
            self.field = nf.NumberFieldSpec(min_poly)
        except ValueError as exc:
            raise DescriptorError(f"{path}.min_poly", str(exc)) from None
        # |Norm(h - 1)| counts periodic points only when Q[x]/(min_poly) is a field
        if not nf.is_irreducible(self.field.min_poly):
            raise DescriptorError(f"{path}.min_poly", "min_poly must be irreducible")
        gens, charpolys = [], []
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
            charpoly = nf.unit_charpoly(self.field, g)
            if charpoly is None:
                raise DescriptorError(gpath, "generator is not a unit of the ring of integers")
            gens.append(g)
            charpolys.append(charpoly)
        self.generators: Tuple[Element, ...] = tuple(gens)
        # each generator's integer characteristic polynomial, from validation
        self._charpolys: Tuple[List[int], ...] = tuple(charpolys)
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
        out = []
        for g, int_cp in zip(self.generators, self._charpolys):
            # over a field the characteristic polynomial is p^k, p irreducible
            min_poly = nf.squarefree_part_int(int_cp)
            k, rest = divmod(len(int_cp) - 1, len(min_poly) - 1)
            power = [1]
            for _ in range(k):
                power = nf.poly_mul(power, min_poly)
            if rest or power != int_cp:
                raise ArithmeticError("characteristic polynomial is not a power of its squarefree part")
            indices = nf.match_roots(
                min_poly,
                lambda prec, g=g: [nf.embed(g, e, prec) for e in nf.isolate_roots(self.field.min_poly, prec)],
                "matching a generator value to a root of its minimal polynomial",
            )
            out.append((min_poly, tuple(indices)))
        return out

    def characters(self, component_index: int, multiplicity: int) -> Tuple[List[Character], List[Character]]:
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
        """g_i^-1 from g_i's characteristic polynomial kept at validation,
        computed once and kept on the instance."""
        inverse = self._inverses.get(i)
        if inverse is None:
            inverse = self._inverses[i] = nf.el_inv(self.field, self.generators[i], self._charpolys[i])
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
            base = self.generators[i] if e > 0 else self._inverse(i)
            v, den = nf.int_coords(nf.el_pow(self.field, base, abs(e)))
            entry = self._powers[(i, e)] = (tuple(v), den)
        return entry

    def _product_coords(self, exponents: Sequence[int]) -> Tuple[Sequence[int], int]:
        """(v, den) with h = prod_i g_i^(e_i) = v / den, on integers: the
        powers' integer coordinates multiplied by mul_coords and their
        denominators multiplied, not reduced."""
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
        """Per embedding k, no exponents (h is not exact there) and the part
        (min_poly, k, h) that embeds h."""
        h = self.power_product(exponents)
        return [(None, (self.field.min_poly, k, h)) for k in range(self.field.degree)]

    def ergodicity(self, max_prec: int = MAX_PRECISION) -> Tuple[str, List[str]]:
        # Full real rank of the embedding log matrix certifies that no
        # nontrivial power product has all absolute values 1, hence no
        # relation.  Rank defect cannot be certified by intervals, so the
        # failure mode is an honest warning.
        from .balls import precisions

        veclists, _ = self.characters(0, 1)
        vectors = [c.log_vector for c in veclists]
        live = [w for w in vectors if not all(entry.is_trivially_zero() for entry in w)]
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
