"""Exact linear combinations of logarithms with certified sign decisions.

Log-magnitude data in this package is a finite Q-linear combination of two
kinds of atoms: log p for a prime p, and log|r| for r a certified root of a
monic irreducible integer polynomial.  Prime-log atoms are linearly
independent over Q by unique factorization, so a combination built from them
alone has an exact zero test: it vanishes iff every coefficient does.

Root atoms are normalized aggressively so that combinations collapse to the
prime-only case whenever the algebra allows it:

  * a linear factor has a rational (integer) root, so its log splits into
    prime atoms at once;
  * conjugate roots have equal absolute values, so conjugate pairs share a
    single atom;
  * roots of an (anti)palindromic polynomial come in inverse pairs, and
    log|1/r| = -log|r| folds each pair onto one atom with a sign;
  * the same reciprocal match certifies the unit circle: past degree 1,
    |r| = 1 exactly when 1/r is r's conjugate, and such a root contributes
    log 1 = 0 and is dropped;
  * when every remaining root of one irreducible factor appears with the
    same per-root coefficient, the product of the absolute values is the
    absolute constant term, so the whole group collapses to log of an
    integer, hence to prime atoms.

Anything still carrying root atoms after normalization falls back to
certified interval evaluation, where a sign query may come back undecided at
the precision cap but never wrong.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from . import balls
from .balls import (
    DEFAULT_PRECISION,
    MAX_PRECISION,
    NEGATIVE,
    POSITIVE,
    RealBall,
    ZERO_UNDECIDED,
    interval_sign,
    precisions,
)
from .errors import UndecidedError
from .rationals import factor_fraction

if TYPE_CHECKING:
    from .numberfield import IntPoly

# ('q', p) for log p, ('root', poly, index) for log|root_index(poly)|
Atom = Tuple


class _RootFacts(NamedTuple):
    """What normalization needs to know about the roots of one irreducible poly."""

    canon: Tuple[int, ...]               # conjugate-canonical index of each root
    weight: Tuple[int, ...]              # roots behind each canonical atom: 1 or 2
    inverse: Optional[Tuple[int, ...]]   # canonical index of 1/r, (anti)palindromic only
    atoms: FrozenSet[Atom]               # canonical atoms left once circle roots drop


@functools.lru_cache(maxsize=256)
def _root_facts(poly: IntPoly) -> _RootFacts:
    from .numberfield import is_irreducible, is_palindromic_or_anti, isolate_roots

    if not is_irreducible(poly):
        raise ValueError("root atoms require an irreducible polynomial")
    embs = isolate_roots(poly, DEFAULT_PRECISION)
    canon = tuple(min(e.index, e.conj_index) for e in embs)
    weight = tuple(1 if e.conj_index == e.index else 2 for e in embs)
    inverse = None
    if is_palindromic_or_anti(poly):
        inverse = tuple(canon[k] for k in _reciprocal_match(poly))
    # past degree 1, |r| = 1 exactly when 1/r is r's conjugate: 1/r = r needs r = +-1
    atoms = frozenset(("root", poly, c) for c in canon if inverse is None or inverse[c] != c)
    return _RootFacts(canon, weight, inverse, atoms)


def _reciprocal_match(poly: IntPoly) -> List[int]:
    """Index of the root 1/r for each root r of an (anti)palindromic poly.

    The root multiset of such a polynomial is closed under r -> 1/r, so the
    reciprocal of each isolating box meets exactly one box once the
    precision suffices; match_roots certifies it up to the hard cap.
    """
    from .numberfield import isolate_roots, match_roots

    return match_roots(
        poly,
        lambda prec: [e.box.recip(prec) for e in isolate_roots(poly, prec)],
        "matching a root to the root at its reciprocal",
    )


class ExactLog:
    """An immutable Q-linear combination of log atoms, which remembers its
    enclosure at each precision it was evaluated at."""

    __slots__ = ("prime_part", "root_part", "_balls")

    def __init__(self, prime_part: Dict[int, Fraction], root_part: Dict[Atom, Fraction]):
        self.prime_part = {p: c for p, c in sorted(prime_part.items()) if c}
        self.root_part = dict(sorted((a, c) for a, c in root_part.items() if c))
        self._balls: Dict[int, RealBall] = {}

    # --- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "ExactLog":
        return ExactLog({}, {})

    @staticmethod
    def from_rational(x) -> "ExactLog":
        """log|x| for a nonzero rational x, as exact prime atoms."""
        x = Fraction(x)
        if x == 0:
            raise ValueError("log of zero")
        primes = {p: Fraction(e) for p, e in factor_fraction(abs(x)).items()}
        return ExactLog(primes, {})

    @staticmethod
    def from_root_abs(poly: Sequence[int], index: int) -> "ExactLog":
        """log|r| for the index-th certified root r of an irreducible poly."""
        poly = tuple(int(c) for c in poly)
        if poly == (0, 1):
            raise ValueError("log of the zero root")
        facts = _root_facts(poly)
        if len(poly) == 2:
            return ExactLog.from_rational(-poly[0])
        canon = facts.canon[index]
        atom = ("root", poly, canon)
        if atom not in facts.atoms:
            return ExactLog.zero()  # r lies on the unit circle
        if facts.inverse is not None and facts.inverse[canon] < canon:
            # roots come in inverse pairs; fold log|1/r| = -log|r| onto the
            # smaller canonical index so paired atoms cancel exactly
            return ExactLog({}, {("root", poly, facts.inverse[canon]): Fraction(-1)})
        return ExactLog({}, {atom: Fraction(1)})._reduce_full_groups()

    # --- algebra --------------------------------------------------------

    def add(self, other: "ExactLog") -> "ExactLog":
        primes = dict(self.prime_part)
        for p, c in other.prime_part.items():
            primes[p] = primes.get(p, Fraction(0)) + c
        roots = dict(self.root_part)
        for a, c in other.root_part.items():
            roots[a] = roots.get(a, Fraction(0)) + c
        return ExactLog(primes, roots)._reduce_full_groups()

    def neg(self) -> "ExactLog":
        return self.scale(Fraction(-1))

    def sub(self, other: "ExactLog") -> "ExactLog":
        return self.add(other.neg())

    def scale(self, c) -> "ExactLog":
        c = Fraction(c)
        if c == 0:
            return ExactLog.zero()
        return ExactLog(
            {p: v * c for p, v in self.prime_part.items()},
            {a: v * c for a, v in self.root_part.items()},
        )

    def _reduce_full_groups(self) -> "ExactLog":
        """Collapse full equal-coefficient root groups to prime atoms.

        Roots certified on the unit circle never enter root_part, and their
        absolute values are exactly 1, so a group is full once every other
        canonical root of the polynomial is present.  The per-root
        coefficient must be shared; folded conjugate atoms count twice.
        """
        by_poly: Dict[IntPoly, List[Atom]] = {}
        for atom in self.root_part:
            by_poly.setdefault(atom[1], []).append(atom)
        if not by_poly:
            return self
        primes = dict(self.prime_part)
        roots = dict(self.root_part)
        changed = False
        for poly, atoms in by_poly.items():
            facts = _root_facts(poly)
            if facts.atoms != set(atoms):
                continue
            shares = {roots[atom] / facts.weight[atom[2]] for atom in atoms}
            if len(shares) != 1:
                continue
            per_root = shares.pop()
            const = abs(poly[0])
            for atom in atoms:
                del roots[atom]
            if const != 1:
                for p, e in factor_fraction(Fraction(const)).items():
                    primes[p] = primes.get(p, Fraction(0)) + per_root * e
            changed = True
        if not changed:
            return self
        return ExactLog(primes, roots)

    # --- queries --------------------------------------------------------

    def is_trivially_zero(self) -> bool:
        """Exact zero certificate: nothing left after normalization."""
        return not self.prime_part and not self.root_part

    def evaluate(self, prec: int) -> RealBall:
        ball = self._balls.get(prec)
        if ball is None:
            ball = self._balls[prec] = self._evaluate(prec)
        return ball

    def _evaluate(self, prec: int) -> RealBall:
        total = RealBall.zero()
        for p, c in self.prime_part.items():
            term = RealBall.from_int(p).log(prec + 8)
            total = total.add(term.mul(RealBall.from_fraction(c, prec + 8), prec), prec)
        for (_, poly, index), c in self.root_part.items():
            term = _root_abs_log(poly, index, prec)
            total = total.add(term.mul(RealBall.from_fraction(c, prec + 8), prec), prec)
        return total

    def sign(self, max_prec: int = MAX_PRECISION) -> str:
        """'positive' | 'negative' | 'zero' | 'zero-undecided'.

        'zero' only comes from the exact certificate; the interval route can
        certify a nonzero sign but reports 'zero-undecided' at the cap.
        """
        if self.is_trivially_zero():
            return "zero"
        return interval_sign(self.evaluate, max_prec=max_prec)

    def is_zero(self, max_prec: int = MAX_PRECISION) -> Optional[bool]:
        """True/False when certified, None when undecided at the cap."""
        if self.is_trivially_zero():
            return True
        s = interval_sign(self.evaluate, max_prec=max_prec)
        if s in (POSITIVE, NEGATIVE):
            return False
        if not self.root_part:
            return False  # nonzero by independence even if the cap was hit
        return None

    def atoms_json(self) -> List[dict]:
        out = []
        for p, c in self.prime_part.items():
            out.append({"atom": {"kind": "prime", "p": p}, "coeff": str(c)})
        for (_, poly, index), c in self.root_part.items():
            out.append(
                {
                    "atom": {"kind": "root-abs", "poly": list(poly), "index": index},
                    "coeff": str(c),
                }
            )
        return out

    def __eq__(self, other):
        return (
            isinstance(other, ExactLog)
            and self.prime_part == other.prime_part
            and self.root_part == other.root_part
        )

    def __repr__(self):
        bits = [f"{c}*log({p})" for p, c in self.prime_part.items()]
        bits += [f"{c}*log|root#{i} of {list(f)}|" for (_, f, i), c in self.root_part.items()]
        return "ExactLog(" + (" + ".join(bits) if bits else "0") + ")"


@functools.lru_cache(maxsize=256)
def _root_abs_log(poly: IntPoly, index: int, prec: int) -> RealBall:
    from .numberfield import isolate_roots

    for work in precisions(max(prec, DEFAULT_PRECISION), balls.HARD_PRECISION):
        box = isolate_roots(poly, work)[index].box
        mag2 = box.abs2(work)
        if mag2.is_positive():
            return mag2.log(work).mul(RealBall.from_fraction(Fraction(1, 2), work), prec)
    raise UndecidedError("separating a root from zero to take the log of its absolute value")


# --------------------------------------------------------------------------
# vectors of exact logs


def log_dot(n: Sequence[int], w: Sequence[ExactLog]) -> ExactLog:
    """Integer linear combination n . w."""
    total = ExactLog.zero()
    for ni, wi in zip(n, w):
        if ni:
            total = total.add(wi.scale(ni))
    return total


def vector_is_zero(w: Sequence[ExactLog], max_prec: int = MAX_PRECISION) -> Optional[bool]:
    """True/False/None for a whole vector, undecided if any entry is."""
    verdicts = [entry.is_zero(max_prec) for entry in w]
    if any(v is False for v in verdicts):
        return False
    if all(v is True for v in verdicts):
        return True
    return None


def vectors_parallel(
    a: Sequence[ExactLog], b: Sequence[ExactLog], max_prec: int = MAX_PRECISION
) -> str:
    """'parallel' | 'not-parallel' | 'undecided' for nonzero vectors.

    Parallelism is certified exactly when b = r a for a rational r != 0.
    The one possible r is the ratio of b's and a's coefficients at one atom
    of a's first nonzero entry; scaling keeps a reduced log reduced, so
    b[j] == a[j].scale(r) compares canonical forms.  Otherwise every 2x2
    minor is evaluated as an interval: one minor excluding zero certifies
    non-parallelism, and anything else stays undecided at the cap.
    """
    d = len(a)
    k = next((k for k, entry in enumerate(a) if not entry.is_trivially_zero()), None)
    if k is not None:
        # prime atoms are ints and root atoms tuples, so one dict holds both
        atom, coeff = next(iter({**a[k].prime_part, **a[k].root_part}.items()))
        r = {**b[k].prime_part, **b[k].root_part}.get(atom, 0) / coeff
        if r and all(v == u.scale(r) for u, v in zip(a, b)):
            return "parallel"
    undecided = False
    for i in range(d):
        for j in range(i + 1, d):
            def minor(prec: int, i=i, j=j) -> RealBall:
                return a[i].evaluate(prec).mul(b[j].evaluate(prec), prec).sub(
                    a[j].evaluate(prec).mul(b[i].evaluate(prec), prec), prec
                )

            s = interval_sign(minor, max_prec=max_prec)
            if s in (POSITIVE, NEGATIVE):
                return "not-parallel"
            if s == ZERO_UNDECIDED:
                undecided = True
    return "undecided" if undecided else "parallel"
