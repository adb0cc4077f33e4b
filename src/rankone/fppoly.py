"""Polynomials and rational functions over a prime field F_p.

Polynomials are immutable coefficient tuples in ascending degree order with
no trailing zeros (the zero polynomial is the empty tuple); coefficients are
ints reduced mod p.  FpRationalFunction keeps a reduced fraction num/den with
monic denominator, which pins down a canonical leading coefficient.

The places of F_p(t) used elsewhere are the monic irreducible polynomials pi
together with the degree place at infinity:

    ord_pi(f)  = multiplicity of pi in f        |f|_pi = p**(-deg(pi)*ord_pi(f))
    ord_inf(f) = deg(den) - deg(num)            |f|_inf = p**(-ord_inf(f))

Factorization is squarefree-part + distinct-degree + equal-degree splitting
(Cantor-Zassenhaus, with the trace map in characteristic 2); random splitting
elements come from a generator seeded by the input, so runs are repeatable.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from .defaults import power
from .rationals import is_prime


class FpPoly:
    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        self.p = p
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # --- constructors ---------------------------------------------------

    @staticmethod
    def zero(p: int) -> "FpPoly":
        return FpPoly(p, ())

    @staticmethod
    def one(p: int) -> "FpPoly":
        return FpPoly(p, (1,))

    @staticmethod
    def constant(p: int, c: int) -> "FpPoly":
        return FpPoly(p, (c,))

    @staticmethod
    def gen(p: int) -> "FpPoly":
        return FpPoly(p, (0, 1))

    # --- basic structure --------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, FpPoly) and self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self) -> str:
        return f"FpPoly(p={self.p}, {self.format()})"

    def format(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("t" if c == 1 else f"{c}*t")
            else:
                parts.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
        return " + ".join(reversed(parts))

    # --- ring operations -------------------------------------------------

    def _check(self, other: "FpPoly"):
        if self.p != other.p:
            raise ValueError("mixed characteristics")

    def add(self, other: "FpPoly") -> "FpPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = (a[i] + c) % self.p
        return FpPoly(self.p, a)

    def neg(self) -> "FpPoly":
        return FpPoly(self.p, [-c for c in self.coeffs])

    def sub(self, other: "FpPoly") -> "FpPoly":
        return self.add(other.neg())

    def mul(self, other: "FpPoly") -> "FpPoly":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return FpPoly.zero(self.p)
        # the constructor reduces the accumulated products mod p once
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return FpPoly(self.p, out)

    def mul_scalar(self, c: int) -> "FpPoly":
        return FpPoly(self.p, [c * a for a in self.coeffs])

    def divmod(self, other: "FpPoly") -> Tuple["FpPoly", "FpPoly"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        # schoolbook division, one pass from the top coefficient down; rem
        # is reduced mod p only where a quotient digit is read and, by the
        # constructor, at the end
        p = self.p
        divisor = other.coeffs
        d = len(divisor) - 1
        inv_lead = pow(divisor[-1], -1, p)
        rem = list(self.coeffs)
        q = [0] * max(0, len(rem) - d)
        for shift in range(len(rem) - 1 - d, -1, -1):
            factor = rem[shift + d] * inv_lead % p
            if factor:
                q[shift] = factor
                for i, c in enumerate(divisor):
                    rem[shift + i] -= factor * c
        return FpPoly(p, q), FpPoly(p, rem[:d])

    def mod(self, other: "FpPoly") -> "FpPoly":
        return self.divmod(other)[1]

    def divexact(self, other: "FpPoly") -> "FpPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def monic(self) -> "FpPoly":
        if self.is_zero():
            return self
        return self.mul_scalar(pow(self.leading(), -1, self.p))

    def gcd(self, other: "FpPoly") -> "FpPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.mod(b)
        return a.monic() if not a.is_zero() else a

    def pow(self, n: int) -> "FpPoly":
        return power(self, n, FpPoly.mul)

    def powmod(self, n: int, modulus: "FpPoly") -> "FpPoly":
        if n == 0:  # numberfield's Hensel lift asks for p**m - 2 = 0 at p = 2, m = 1
            return FpPoly.one(self.p)
        return power(self.mod(modulus), n, lambda a, b: a.mul(b).mod(modulus))

    def derivative(self) -> "FpPoly":
        return FpPoly(self.p, [i * c for i, c in enumerate(self.coeffs)][1:])

    # --- factorization ----------------------------------------------------

    def pth_root(self) -> "FpPoly":
        """Inverse Frobenius for f = g(t^p); valid when f' == 0."""
        # over F_p the coefficients are fixed by x -> x^p
        return FpPoly(self.p, self.coeffs[:: self.p])

    def squarefree_part(self) -> "FpPoly":
        f = self.monic()
        if f.degree <= 0:
            return FpPoly.one(self.p)
        d = f.derivative()
        if d.is_zero():
            return f.pth_root().squarefree_part()
        g = f.gcd(d)
        sf = f.divexact(g)
        # g may still hide p-th power content with new squares
        if g.degree > 0:
            rest = g.squarefree_part()
            extra = rest.divexact(rest.gcd(sf))
            sf = sf.mul(extra)
        return sf.monic()

    def factor(self) -> List["FpPoly"]:
        """The distinct monic irreducible factors, sorted by degree, then
        coefficients.  Leading coefficient and multiplicities are dropped:
        callers that need an order read it with fp_ord_at.
        """
        if self.is_zero():
            raise ValueError("cannot factor the zero polynomial")
        radical = self.squarefree_part()
        factors = [irr for d, group in _distinct_degree(radical) for irr in _equal_degree(group, d)]
        return sorted(factors, key=lambda irr: (irr.degree, irr.coeffs))


def _distinct_degree(f: FpPoly) -> Iterator[Tuple[int, FpPoly]]:
    """Squarefree monic f -> (d, product of its irreducible factors of degree d)."""
    p = f.p
    x = FpPoly.gen(p)
    h = x
    d = 0
    rem = f
    while rem.degree > 0:
        d += 1
        if 2 * d > rem.degree:
            yield rem.degree, rem.monic()
            return
        h = h.powmod(p, rem)
        g = rem.gcd(h.sub(x))
        if g.degree > 0:
            yield d, g
            rem = rem.divexact(g)
            h = h.mod(rem)


def _equal_degree(f: FpPoly, d: int) -> list:
    """Split squarefree f, all of whose irreducible factors have degree d."""
    import random

    p = f.p
    if f.degree == d:
        return [f.monic()]
    rng = random.Random(hash((p, f.coeffs, d)) & 0xFFFFFFFF)
    while True:
        h = FpPoly(p, [rng.randrange(p) for _ in range(f.degree)])
        if h.degree < 1:
            continue
        if p == 2:
            t = h
            acc = h
            for _ in range(d - 1):
                t = t.mul(t).mod(f)
                acc = acc.add(t)
            g = f.gcd(acc)
        else:
            g = f.gcd(h.powmod((p**d - 1) // 2, f).sub(FpPoly.one(p)))
        if 0 < g.degree < f.degree:
            return sorted(
                _equal_degree(g, d) + _equal_degree(f.divexact(g), d),
                key=lambda q: q.coeffs,
            )


def fp_ord_at(f, pi: FpPoly) -> int:
    """Order of vanishing of f at the finite place pi.

    pi must be monic irreducible, as every factor FpPoly.factor returns is;
    that is not checked again here.
    """
    if isinstance(f, FpRationalFunction):
        if f.num.is_zero():
            raise ValueError("ord of the zero function is undefined")
        return _poly_ord(f.num, pi) - _poly_ord(f.den, pi)
    if f.is_zero():
        raise ValueError("ord of the zero polynomial is undefined")
    return _poly_ord(f, pi)


def _poly_ord(f: FpPoly, pi: FpPoly) -> int:
    n = 0
    while True:
        q, r = f.divmod(pi)
        if not r.is_zero():
            return n
        f = q
        n += 1


def fp_ord_infinity(f: FpRationalFunction) -> int:
    """ord at the infinite place: deg(den) - deg(num); |f|_inf = p**(-ord)."""
    if f.num.is_zero():
        raise ValueError("ord of the zero function is undefined")
    return f.den.degree - f.num.degree


class FpRationalFunction:
    """Reduced fraction of FpPoly values with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: FpPoly, den: FpPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num._check(den)
        g = num.gcd(den)
        if g.degree > 0:
            num = num.divexact(g)
            den = den.divexact(g)
        lead = den.leading()
        if lead != 1:
            inv = pow(lead, -1, den.p)
            num = num.mul_scalar(inv)
            den = den.mul_scalar(inv)
        self.num = num
        self.den = den

    @property
    def p(self) -> int:
        return self.den.p

    @staticmethod
    def from_poly(f: FpPoly) -> "FpRationalFunction":
        return FpRationalFunction(f, FpPoly.one(f.p))

    @staticmethod
    def one(p: int) -> "FpRationalFunction":
        return FpRationalFunction(FpPoly.one(p), FpPoly.one(p))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def __repr__(self) -> str:
        if self.den.is_one():
            return f"FpRationalFunction({self.num.format()})"
        return f"FpRationalFunction(({self.num.format()}) / ({self.den.format()}))"

    def mul(self, other: "FpRationalFunction") -> "FpRationalFunction":
        return FpRationalFunction(self.num.mul(other.num), self.den.mul(other.den))

    def div(self, other: "FpRationalFunction") -> "FpRationalFunction":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return FpRationalFunction(self.num.mul(other.den), self.den.mul(other.num))

    def add(self, other: "FpRationalFunction") -> "FpRationalFunction":
        return FpRationalFunction(
            self.num.mul(other.den).add(other.num.mul(self.den)),
            self.den.mul(other.den),
        )

    def sub(self, other: "FpRationalFunction") -> "FpRationalFunction":
        return self.add(other.neg())

    def neg(self) -> "FpRationalFunction":
        return FpRationalFunction(self.num.neg(), self.den)

    def pow(self, n: int) -> "FpRationalFunction":
        if n == 0:
            return FpRationalFunction.one(self.p)
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return FpRationalFunction(self.den.pow(-n), self.num.pow(-n))
        return FpRationalFunction(self.num.pow(n), self.den.pow(n))


# --- parser -----------------------------------------------------------------
#
# grammar:  expr   := term (('+'|'-') term)*
#           term   := unary (('*'|'/') unary)*
#           unary  := '-' unary | factor
#           factor := base ('^' nat)?
#           base   := 't' | nat | '(' expr ')'


class _Tokens:
    def __init__(self, text: str):
        self.toks = []
        i = 0
        while i < len(text):
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.toks.append(("int", int(text[i:j])))
                i = j
                continue
            if c == "t":
                self.toks.append(("t", None))
                i += 1
                continue
            if c in "+-*/^()":
                self.toks.append((c, None))
                i += 1
                continue
            raise ValueError(f"unexpected character {c!r} in rational-function string")
        self.pos = 0

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok


def parse_rational_function(text: str, p: int) -> FpRationalFunction:
    """Parse an expression in t over F_p, e.g. "t/(t+1)" or "t^2+1"."""
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    toks = _Tokens(text)
    result = _parse_expr(toks, p)
    if toks.peek() is not None:
        raise ValueError(f"trailing input in rational-function string {text!r}")
    return result


def _parse_expr(toks: _Tokens, p: int) -> FpRationalFunction:
    value = _parse_term(toks, p)
    while toks.peek() in ("+", "-"):
        op, _ = toks.next()
        rhs = _parse_term(toks, p)
        value = value.add(rhs) if op == "+" else value.sub(rhs)
    return value


def _parse_term(toks: _Tokens, p: int) -> FpRationalFunction:
    value = _parse_unary(toks, p)
    while toks.peek() in ("*", "/"):
        op, _ = toks.next()
        rhs = _parse_unary(toks, p)
        value = value.mul(rhs) if op == "*" else value.div(rhs)
    return value


def _parse_unary(toks: _Tokens, p: int) -> FpRationalFunction:
    if toks.peek() == "-":
        toks.next()
        return _parse_unary(toks, p).neg()
    return _parse_factor(toks, p)


def _parse_factor(toks: _Tokens, p: int) -> FpRationalFunction:
    base = _parse_base(toks, p)
    if toks.peek() == "^":
        toks.next()
        kind, val = toks.next() if toks.peek() is not None else (None, None)
        if kind != "int":
            raise ValueError("exponent must be a nonnegative integer")
        return base.pow(val)
    return base


def _parse_base(toks: _Tokens, p: int) -> FpRationalFunction:
    kind = toks.peek()
    if kind is None:
        raise ValueError("unexpected end of rational-function string")
    if kind == "t":
        toks.next()
        return FpRationalFunction.from_poly(FpPoly.gen(p))
    if kind == "int":
        _, val = toks.next()
        return FpRationalFunction.from_poly(FpPoly.constant(p, val))
    if kind == "(":
        toks.next()
        inner = _parse_expr(toks, p)
        if toks.peek() != ")":
            raise ValueError("unbalanced parenthesis in rational-function string")
        toks.next()
        return inner
    raise ValueError(f"unexpected token {kind!r} in rational-function string")
