"""The ``s_integer`` component class: d nonzero rationals acting on a ring
of S-integers.

Its counts need only rationals; exactlog (characters) and linalg (the
ergodicity rank) are imported where they are used, so a count over a box
loads neither.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .defaults import MAX_PRECISION
from .errors import DescriptorError
from .rationals import factor_fraction, prime_to_s_part
from .system import ARCHIMEDEAN, ERGODIC, NON_ERGODIC, NONARCHIMEDEAN, Character


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
    def factorizations(self) -> Tuple[Dict[int, int], ...]:
        """Each generator's prime exponents, factored once."""
        return tuple(factor_fraction(r) for r in self.generators)

    @functools.cached_property
    def s_primes(self) -> Tuple[int, ...]:
        return tuple(sorted({p for fac in self.factorizations for p in fac}))

    @functools.cached_property
    def bit_height(self) -> int:
        """Rough bits-per-unit-exponent estimate used by the count size budget."""
        return max(r.numerator.bit_length() + r.denominator.bit_length() for r in self.generators)

    def characters(self, component_index: int, multiplicity: int) -> Tuple[List[Character], List[Character]]:
        from .exactlog import ExactLog

        logs = [ExactLog.from_rational(r) for r in self.generators]
        arch = Character(ARCHIMEDEAN, logs, {"place": "archimedean"}, component_index, multiplicity)
        nonarch = []
        for p in self.s_primes:
            log_p = ExactLog.from_rational(Fraction(p))
            vec = [log_p.scale(Fraction(-fac.get(p, 0))) for fac in self.factorizations]
            nonarch.append(Character(NONARCHIMEDEAN, vec, {"place": str(p)}, component_index, multiplicity))
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

    def arch_factors(self, exponents: Sequence[int]) -> List[Tuple[Dict[int, int], None]]:
        """h at the one archimedean character, exactly: its exponent of each
        prime, and of -1 (whose parity is h's sign), summed from the
        generators' factorizations with no power formed."""
        out: Dict[int, int] = {}
        for r, fac, e in zip(self.generators, self.factorizations, exponents):
            for p, k in ({**fac, -1: 1} if r < 0 else fac).items():
                out[p] = out.get(p, 0) + k * e
        return [(out, None)]

    def ergodicity(self, max_prec: int = MAX_PRECISION) -> Tuple[str, List[str]]:
        # A relation prod r_i^{k_i} = 1 forces prod |r_i|^{k_i} = 1, and
        # conversely prod |r_i|^{k_i} = 1 gives the relation with 2k.  So
        # ergodicity is exactly full rank of the prime exponent matrix; with
        # no S-primes its rows are empty, and their Gram matrix is zero.
        from .linalg import full_row_rank

        rows = [[fac.get(p, 0) for p in self.s_primes] for fac in self.factorizations]
        return (ERGODIC if full_row_rank(rows) else NON_ERGODIC), []

    def canonical(self, multiplicity: int) -> dict:
        return {
            "class": self.kind,
            "multiplicity": multiplicity,
            "generators": [str(r) for r in self.generators],
        }
