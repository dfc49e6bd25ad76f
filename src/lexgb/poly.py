"""Sparse polynomials in x, y, z under lex order with x < y < z.

The order compares the z exponent first, then y, then x.  Polynomials are
stored as strictly descending, duplicate-free term tuples with no zero
coefficients, so equal polynomials have identical representations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .field import Fp


class ZeroPolynomialError(ValueError):
    """Leading data of the zero polynomial was requested."""


@dataclass(frozen=True)
class Monomial:
    """Exponent triple x^a y^b z^c with nonnegative exponents."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a < 0 or self.b < 0 or self.c < 0:
            raise ValueError(f"negative exponent in {(self.a, self.b, self.c)}")

    def lex_key(self):
        """Sort key for lex with z most significant."""
        return (self.c, self.b, self.a)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.a + other.a, self.b + other.b, self.c + other.c)

    def divides(self, other: "Monomial") -> bool:
        return self.a <= other.a and self.b <= other.b and self.c <= other.c

    def __floordiv__(self, other: "Monomial") -> "Monomial":
        if not other.divides(self):
            raise ValueError(f"{other.text()} does not divide {self.text()}")
        return Monomial(self.a - other.a, self.b - other.b, self.c - other.c)

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(max(self.a, other.a), max(self.b, other.b), max(self.c, other.c))

    def is_coprime(self, other: "Monomial") -> bool:
        return (
            min(self.a, other.a) == 0
            and min(self.b, other.b) == 0
            and min(self.c, other.c) == 0
        )

    def __lt__(self, other):
        return self.lex_key() < other.lex_key()

    def __le__(self, other):
        return self.lex_key() <= other.lex_key()

    def __gt__(self, other):
        return self.lex_key() > other.lex_key()

    def __ge__(self, other):
        return self.lex_key() >= other.lex_key()

    def text(self) -> str:
        parts = []
        for name, e in (("x", self.a), ("y", self.b), ("z", self.c)):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def __str__(self):
        return self.text()


MONOMIAL_ONE = Monomial(0, 0, 0)


def lex_compare(m1: Monomial, m2: Monomial) -> int:
    """-1, 0 or 1 as m1 is below, equal to, or above m2 in the term order."""
    k1, k2 = m1.lex_key(), m2.lex_key()
    if k1 < k2:
        return -1
    if k1 > k2:
        return 1
    return 0


class Polynomial:
    """Sparse trivariate polynomial over a fixed coefficient field."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=()):
        acc = {}
        for m, c in terms:
            if isinstance(c, int):
                c = field(c)
            if m in acc:
                acc[m] = acc[m] + c
            else:
                acc[m] = c
        items = [(m, c) for m, c in acc.items() if c != field.zero]
        items.sort(key=lambda mc: mc[0].lex_key(), reverse=True)
        self.field = field
        self.terms = tuple(items)

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __hash__(self):
        return hash((self.field, self.terms))

    def __repr__(self):
        return f"Polynomial({self.text()!r})"

    def __str__(self):
        return self.text()

    def _same_field(self, other: "Polynomial"):
        if self.field != other.field:
            raise ValueError("polynomials over different coefficient fields")

    # -- leading data --------------------------------------------------------

    def lm(self) -> Monomial:
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def lc(self):
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def lt(self) -> "Polynomial":
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        return Polynomial(self.field, [self.terms[0]])

    def lc_x(self) -> "Polynomial":
        """Leading coefficient in k[x]: the k[x] block attached to lm_yz."""
        m = self.lm()
        block = [
            (Monomial(t.a, 0, 0), c)
            for t, c in self.terms
            if t.b == m.b and t.c == m.c
        ]
        return Polynomial(self.field, block)

    def lm_yz(self) -> Monomial:
        """Leading monomial of self viewed in k[x][y, z]."""
        m = self.lm()
        return Monomial(0, m.b, m.c)

    def lc_xy(self) -> "Polynomial":
        """Leading coefficient in k[x, y]: the block attached to the top z power."""
        m = self.lm()
        block = [(Monomial(t.a, t.b, 0), c) for t, c in self.terms if t.c == m.c]
        return Polynomial(self.field, block)

    def lm_z(self) -> Monomial:
        """Leading monomial of self viewed in k[x, y][z]: the top z power."""
        return Monomial(0, 0, self.lm().c)

    # -- degree / support predicates ----------------------------------------

    def max_degrees(self) -> tuple[int, int, int]:
        dx = dy = dz = 0
        for m, _ in self.terms:
            dx = max(dx, m.a)
            dy = max(dy, m.b)
            dz = max(dz, m.c)
        return dx, dy, dz

    def in_kx(self) -> bool:
        return all(m.b == 0 and m.c == 0 for m, _ in self.terms)

    def in_kxy(self) -> bool:
        return all(m.c == 0 for m, _ in self.terms)

    def is_constant(self) -> bool:
        return all(m == MONOMIAL_ONE for m, _ in self.terms)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._same_field(other)
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, self.field.zero) + c
        return Polynomial(self.field, acc.items())

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._same_field(other)
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, self.field.zero) - c
        return Polynomial(self.field, acc.items())

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field, [(m, -c) for m, c in self.terms])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._same_field(other)
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = m1 * m2
                acc[m] = acc.get(m, self.field.zero) + c1 * c2
        return Polynomial(self.field, acc.items())

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial(self.field, [(MONOMIAL_ONE, self.field.one)])
        for _ in range(e):
            out = out * self
        return out

    def term_mul(self, m: Monomial, c) -> "Polynomial":
        """Multiply by the single term c*m."""
        if isinstance(c, int):
            c = self.field(c)
        return Polynomial(self.field, [(t * m, tc * c) for t, tc in self.terms])

    def scale(self, c) -> "Polynomial":
        if isinstance(c, int):
            c = self.field(c)
        return Polynomial(self.field, [(t, tc * c) for t, tc in self.terms])

    def monic(self) -> "Polynomial":
        """Scale so the leading coefficient is 1."""
        lc = self.lc()
        if lc == self.field.one:
            return self
        return self.scale(self.field.one / lc)

    # -- evaluation and substitution ------------------------------------------

    def evaluate(self, point):
        """Value at (x, y, z); coordinates may be ints or field elements."""
        px, py, pz = (self.field(v) if isinstance(v, int) else v for v in point)
        total = self.field.zero
        for m, c in self.terms:
            total = total + c * px**m.a * py**m.b * pz**m.c
        return total

    def substitute_x(self, value) -> "Polynomial":
        """Set x to a field value, collecting the result in k[y, z]."""
        if isinstance(value, int):
            value = self.field(value)
        acc = {}
        for m, c in self.terms:
            key = Monomial(0, m.b, m.c)
            acc[key] = acc.get(key, self.field.zero) + c * value**m.a
        return Polynomial(self.field, acc.items())

    def substitute_y(self, value) -> "Polynomial":
        """Set y to a field value, collecting the result in k[x, z]."""
        if isinstance(value, int):
            value = self.field(value)
        acc = {}
        for m, c in self.terms:
            key = Monomial(m.a, 0, m.c)
            acc[key] = acc.get(key, self.field.zero) + c * value**m.b
        return Polynomial(self.field, acc.items())

    # -- division --------------------------------------------------------------

    def divide(self, divisors) -> tuple[list["Polynomial"], "Polynomial"]:
        """Multivariate division with remainder.

        Returns (quotients, remainder) with
            self == sum(q_i * d_i) + remainder,
        no remainder monomial divisible by any divisor's leading monomial,
        and lm(q_i * d_i) <= lm(self) for every nonzero quotient.  When
        several leading monomials divide the current term the lowest-index
        divisor wins.
        """
        divisors = list(divisors)
        for d in divisors:
            self._same_field(d)
            if d.is_zero():
                raise ZeroDivisionError("zero polynomial used as a divisor")
        heads = [(d.lm(), d.lc()) for d in divisors]
        work = dict(self.terms)
        quots: list[dict] = [{} for _ in divisors]
        rem: dict = {}
        zero = self.field.zero
        while work:
            m = max(work, key=Monomial.lex_key)
            c = work.pop(m)
            for i, (hm, hc) in enumerate(heads):
                if hm.divides(m):
                    qm = m // hm
                    qc = c / hc
                    quots[i][qm] = quots[i].get(qm, zero) + qc
                    # the head term cancels exactly; push down the tail
                    for dm, dc in divisors[i].terms[1:]:
                        mm = qm * dm
                        nc = work.get(mm, zero) - qc * dc
                        if nc == zero:
                            work.pop(mm, None)
                        else:
                            work[mm] = nc
                    break
            else:
                rem[m] = c
        return (
            [Polynomial(self.field, q.items()) for q in quots],
            Polynomial(self.field, rem.items()),
        )

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {"terms": [{"c": _coeff_json(c), "e": [m.a, m.b, m.c]} for m, c in self.terms]}

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.terms:
            cs = _coeff_text(c)
            ms = m.text()
            if ms == "1":
                parts.append(cs)
            elif cs == "1":
                parts.append(ms)
            elif cs == "-1":
                parts.append("-" + ms)
            else:
                parts.append(f"{cs}*{ms}")
        out = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                out += " - " + part[1:]
            else:
                out += " + " + part
        return out


def _coeff_text(c) -> str:
    if isinstance(c, Fp):
        return str(c.v)
    return str(c)


def _coeff_json(c):
    if isinstance(c, Fp):
        return c.v
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    return int(c)


def poly_from_dict(field, data: dict) -> Polynomial:
    """Inverse of Polynomial.to_dict."""
    if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
        raise ValueError("polynomial object must have a 'terms' list")
    terms = []
    for entry in data["terms"]:
        if not isinstance(entry, dict) or "c" not in entry or "e" not in entry:
            raise ValueError(f"term must be an object with 'c' and 'e', got {entry!r}")
        e = entry["e"]
        if not isinstance(e, list) or len(e) != 3 or not all(type(v) is int for v in e):
            raise ValueError(f"exponent triple of integers expected, got {e!r}")
        try:
            c = field(entry["c"])
        except TypeError as exc:
            raise ValueError(str(exc)) from exc
        terms.append((Monomial(e[0], e[1], e[2]), c))
    return Polynomial(field, terms)


def constant(field, value) -> Polynomial:
    return Polynomial(field, [(MONOMIAL_ONE, field(value))])


def generators(field) -> tuple[Polynomial, Polynomial, Polynomial]:
    """The variable polynomials (x, y, z)."""
    return (
        Polynomial(field, [(Monomial(1, 0, 0), field.one)]),
        Polynomial(field, [(Monomial(0, 1, 0), field.one)]),
        Polynomial(field, [(Monomial(0, 0, 1), field.one)]),
    )


# -- text parsing ------------------------------------------------------------

_FACTOR = re.compile(r"^(?:(?P<num>\d+(?:/\d+)?)|(?P<var>[xyz])(?:\^(?P<exp>\d+))?)$")


def parse_polynomial(field, text: str) -> Polynomial:
    """Parse the text form produced by Polynomial.text (sums of */^ terms)."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    chunks = []
    sign = 1
    i = 0
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        i = 1
    start = i
    while i <= len(s):
        if i == len(s) or s[i] in "+-":
            if i == start:
                raise ValueError(f"dangling sign in {text!r}")
            chunks.append((sign, s[start:i]))
            if i < len(s):
                sign = -1 if s[i] == "-" else 1
            start = i + 1
        i += 1
    terms = []
    for sign, chunk in chunks:
        coeff = field.one
        a = b = c = 0
        for factor in chunk.split("*"):
            m = _FACTOR.match(factor)
            if m is None:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            if m.group("num") is not None:
                num = m.group("num")
                try:
                    value = field(num) if "/" in num else field(int(num))
                except TypeError as exc:
                    raise ValueError(f"bad coefficient {num!r} in {text!r}") from exc
                coeff = coeff * value
            else:
                e = int(m.group("exp") or 1)
                if m.group("var") == "x":
                    a += e
                elif m.group("var") == "y":
                    b += e
                else:
                    c += e
        if sign < 0:
            coeff = -coeff
        terms.append((Monomial(a, b, c), coeff))
    return Polynomial(field, terms)


# -- blockwise (content) division ---------------------------------------------


def x_coefficient_blocks(p: Polynomial) -> list[tuple[Monomial, Polynomial]]:
    """The k[x] coefficients of p grouped by (y, z)-monomial, descending."""
    blocks: dict[tuple[int, int], list] = {}
    for m, c in p.terms:
        blocks.setdefault((m.b, m.c), []).append((Monomial(m.a, 0, 0), c))
    keys = sorted(blocks, key=lambda bc: (bc[1], bc[0]), reverse=True)
    return [(Monomial(0, b, c), Polynomial(p.field, blocks[(b, c)])) for b, c in keys]


def content_divide(p: Polynomial, d: Polynomial):
    """Blockwise exact division of p by d in k[x].

    Returns (quotient, None) when d divides every k[x] coefficient of p,
    else (None, (block_monomial, block_coefficient)) for the highest
    failing block.
    """
    if d.is_zero():
        raise ZeroDivisionError("zero content divisor")
    if not d.in_kx():
        raise ValueError("content divisor must lie in k[x]")
    p._same_field(d)
    out = []
    for yz, coeff in x_coefficient_blocks(p):
        qs, r = coeff.divide([d])
        if not r.is_zero():
            return None, (yz, coeff)
        for m, c in qs[0].terms:
            out.append((m * yz, c))
    return Polynomial(p.field, out), None


def divides_univariate(d: Polynomial, e: Polynomial):
    """Exact-division verdict in k[x]: does d divide e?  Returns (bool, quotient)."""
    if d.is_zero():
        raise ZeroDivisionError("zero divisor in k[x]")
    if not d.in_kx() or not e.in_kx():
        raise ValueError("univariate division expects polynomials in k[x]")
    qs, r = e.divide([d])
    if r.is_zero():
        return True, qs[0]
    return False, None
