"""Sparse polynomials in x, y, z under lex order with x < y < z.

The order compares the z exponent first, then y, then x.  A monomial is
stored as its exponent tuple (c, b, a), so native tuple order is the term
order.  Polynomials are stored as strictly descending, duplicate-free term
tuples with no zero coefficients, so equal polynomials have identical
representations.  Coefficients are canonical ints in [0, p): the kernel
reduces with `% field.p` and inverts with `field.inv`.  `_columns` is the
one substitution kernel: one packed pass sets x or y to many values at
once and returns each poly's blocks as columns of values, and `_images`
assembles images from them; `substitute_x` and `substitute_y` are its
one-value calls.  The fiber walk sets only x in the kernel, reads the
columns in place and assembles an image only where a check reads one, so
`substitute_y` is the one caller along y.
"""

from __future__ import annotations

import re
import sys
from functools import partial
from heapq import heapify, heappop, heappush
from operator import itemgetter

from .packed import pack, slot_bytes, unpack
from .univariate import _dense_length


class ZeroPolynomialError(ValueError):
    """Leading data of the zero polynomial was requested."""


class Monomial(tuple):
    """Exponent triple x^a y^b z^c with nonnegative exponents, stored as the
    tuple (c, b, a); it compares and hashes like that tuple."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int):
        if a < 0 or b < 0 or c < 0:
            raise ValueError(f"negative exponent in {(a, b, c)}")
        return tuple.__new__(cls, (c, b, a))

    a = property(itemgetter(2))
    b = property(itemgetter(1))
    c = property(itemgetter(0))

    def __getnewargs__(self):
        return self[::-1]

    def __repr__(self):
        return f"Monomial(a={self[2]}, b={self[1]}, c={self[0]})"

    def __mul__(self, other) -> "Monomial":
        return _mono((self[0] + other[0], self[1] + other[1], self[2] + other[2]))

    def divides(self, other) -> bool:
        return self[0] <= other[0] and self[1] <= other[1] and self[2] <= other[2]

    def __floordiv__(self, other) -> "Monomial":
        if not other.divides(self):
            raise ValueError(f"{other.text()} does not divide {self.text()}")
        return _mono((self[0] - other[0], self[1] - other[1], self[2] - other[2]))

    def lcm(self, other) -> "Monomial":
        return _mono(tuple(map(max, self, other)))

    def is_coprime(self, other) -> bool:
        return not any(e and f for e, f in zip(self, other))

    def text(self) -> str:
        parts = []
        for name, e in (("x", self[2]), ("y", self[1]), ("z", self[0])):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    __str__ = text


# the Monomial of an exponent tuple (c, b, a) known to be nonnegative
_mono = partial(tuple.__new__, Monomial)


MONOMIAL_ONE = Monomial(0, 0, 0)


class Polynomial:
    """Sparse trivariate polynomial over a fixed coefficient field."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=()):
        coerce = field.coerce
        acc = {}
        for m, c in terms:
            acc[m] = acc.get(m, 0) + coerce(c)
        self.field = field
        self.terms = _canonical(field.p, acc)

    @classmethod
    def _make(cls, field, terms: tuple) -> "Polynomial":
        """A polynomial on terms that are already canonical: Monomials in
        descending order with reduced nonzero coefficients."""
        p = object.__new__(cls)
        p.field = field
        p.terms = terms
        return p

    @classmethod
    def _collect(cls, field, acc: dict) -> "Polynomial":
        """The polynomial of {exponent tuple (c, b, a): unreduced coefficient}."""
        return cls._make(field, _canonical(field.p, acc))

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

    def _same_field(self, other: "Polynomial"):
        if self.field is not other.field and self.field != other.field:
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

    def lc_x(self) -> "Polynomial":
        """Leading coefficient in k[x]: the k[x] block attached to lm_yz."""
        zc, yb, _ = self.lm()
        block = [(_mono((0, 0, m[2])), k) for m, k in self.terms if m[0] == zc and m[1] == yb]
        return self._make(self.field, tuple(block))

    def lm_yz(self) -> Monomial:
        """Leading monomial of self viewed in k[x][y, z]."""
        return _mono(self.lm()[:2] + (0,))

    def lc_xy(self) -> "Polynomial":
        """Leading coefficient in k[x, y]: the block attached to the top z power."""
        zc = self.lm()[0]
        block = [(_mono((0, m[1], m[2])), k) for m, k in self.terms if m[0] == zc]
        return self._make(self.field, tuple(block))

    # -- support predicates ------------------------------------------------

    def in_kx(self) -> bool:
        return all(m[0] == 0 and m[1] == 0 for m, _ in self.terms)

    def in_kxy(self) -> bool:
        return all(m[0] == 0 for m, _ in self.terms)

    def is_constant(self) -> bool:
        return all(m == MONOMIAL_ONE for m, _ in self.terms)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, -1)

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        self._same_field(other)
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, 0) + sign * c
        return self._collect(self.field, acc)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._same_field(other)
        acc = {}
        get = acc.get
        for (c1, b1, a1), k1 in self.terms:
            for (c2, b2, a2), k2 in other.terms:
                m = (c1 + c2, b1 + b2, a1 + a2)
                acc[m] = get(m, 0) + k1 * k2
        return self._collect(self.field, acc)

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative polynomial power")
        out = constant(self.field, 1)
        for _ in range(e):
            out = out * self
        return out

    def term_mul(self, m: Monomial, c) -> "Polynomial":
        """Multiply by the single term c*m."""
        c = self.field.coerce(c)
        if not c:
            return self._make(self.field, ())
        p = self.field.p
        mz, my, mx = m
        terms = tuple((_mono((z + mz, y + my, x + mx)), k * c % p) for (z, y, x), k in self.terms)
        return self._make(self.field, terms)

    def scale(self, c) -> "Polynomial":
        return self.term_mul(MONOMIAL_ONE, c)

    def monic(self) -> "Polynomial":
        """Scale so the leading coefficient is 1."""
        lc = self.lc()
        if lc == 1:
            return self
        return self.scale(self.field.inv(lc))

    # -- evaluation and substitution ------------------------------------------

    def evaluate(self, point):
        """Value at (x, y, z), three ints taken mod p.  The value is a plain
        coefficient, an int in [0, p)."""
        p = self.field.p
        px, py, pz = map(self.field.coerce, point)
        total = 0
        for (c, b, a), k in self.terms:
            total += k * pow(px, a, p) * pow(py, b, p) * pow(pz, c, p)
        return total % p

    def substitute_x(self, value) -> "Polynomial":
        """Set x to a field value, collecting the result in k[y, z]."""
        return _images((self,), 0, (self.field.coerce(value),))[0][0]

    def substitute_y(self, value) -> "Polynomial":
        """Set y to a field value, collecting the result in k[x, z]."""
        return _images((self,), 1, (self.field.coerce(value),))[0][0]

    # -- division --------------------------------------------------------------

    def divide(self, divisors) -> tuple[list["Polynomial"], "Polynomial"]:
        """Multivariate division with remainder.

        Returns (quotients, remainder) with
            self == sum(q_i * d_i) + remainder,
        no remainder monomial divisible by any divisor's leading monomial,
        and lm(q_i * d_i) <= lm(self) for every nonzero quotient.  When
        several leading monomials divide the current term the lowest-index
        divisor wins.  The loop is `_reduce`, which `groebner` runs for
        remainders alone (`normal_form`, and the S-pairs of `buchberger`
        and `is_groebner_basis`).
        """
        divisors = list(divisors)
        field = self.field
        quots: list[list] = [[] for _ in divisors]
        rem = _reduce(_negated(self.terms), _prepare(self, divisors), field.p, quots)
        return [self._make(field, tuple(q)) for q in quots], self._make(field, tuple(rem))

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {"terms": [{"c": c, "e": [m.a, m.b, m.c]} for m, c in self.terms]}

    def text(self) -> str:
        # coefficients are canonical, in [0, p), so no term carries a sign
        parts = []
        for m, c in self.terms:
            ms = m.text()
            parts.append(str(c) if ms == "1" else ms if c == 1 else f"{c}*{ms}")
        return " + ".join(parts) or "0"

    __str__ = text


def _canonical(p: int, acc: dict) -> tuple:
    """Canonical terms of {exponent tuple: unreduced coefficient}: reduced
    mod p, zeros dropped, descending."""
    out = []
    for m in sorted(acc, reverse=True):
        c = acc[m] % p
        if c:
            out.append((_mono(m), c))
    return tuple(out)


def _negated(terms) -> dict:
    """The work dict of canonical terms (see `_reduce`)."""
    return {(-c, -b, -a): k for (c, b, a), k in terms}


def _prepare(f: Polynomial, divisors) -> list:
    """Per divisor of f, what a reduction step by it reads: its head exponents
    negated, the inverse of its leading coefficient, and its tail terms with
    negated exponents.  Raises on a divisor over another field or zero."""
    field = f.field
    prepared = []
    for d in divisors:
        f._same_field(d)
        if not d.terms:
            raise ZeroDivisionError("zero polynomial used as a divisor")
        (z, y, x), hc = d.terms[0]
        inv = 1 if hc == 1 else field.inv(hc)
        prepared.append(((-z, -y, -x), inv, tuple(((-c, -b, -a), k) for (c, b, a), k in d.terms[1:])))
    return prepared


def _reduce(work: dict, prepared, p: int, quots=None) -> list:
    """The remainder terms, descending, of `work` ({negated exponent tuple:
    coefficient in [1, p)}, consumed) on division by the `prepared` divisors
    (see `_prepare`): the lowest-index divisor whose head divides the
    leading term reduces it, and adds its quotient term to quots[i] if
    given.  The heap of the keys pops the leading term, and skips keys that
    cancelled.  A head h divides m exactly when -h >= -m componentwise.
    With no divisors it returns the terms of `work` in order, which is how
    `groebner.s_polynomial` reads an S-polynomial's work dict."""
    heap = list(work)
    heapify(heap)
    rem = []
    while heap:
        n = heappop(heap)
        c = work.pop(n, None)
        if c is None:
            continue
        n0, n1, n2 = n
        for i, ((h0, h1, h2), inv, tail) in enumerate(prepared):
            if h0 >= n0 and h1 >= n1 and h2 >= n2:
                qc = c if inv == 1 else c * inv % p
                if quots is not None:
                    quots[i].append((_mono((h0 - n0, h1 - n1, h2 - n2)), qc))
                # subtract q * d_i: its head term cancels c exactly, and
                # (q0, q1, q2) is q's exponent triple, negated
                q0, q1, q2 = n0 - h0, n1 - h1, n2 - h2
                qc = -qc
                for (t0, t1, t2), tc in tail:
                    mm = (q0 + t0, q1 + t1, q2 + t2)
                    old = work.get(mm)
                    if old is None:
                        work[mm] = qc * tc % p
                        heappush(heap, mm)
                    else:
                        nc = (old + qc * tc) % p
                        if nc:
                            work[mm] = nc
                        else:
                            del work[mm]
                break
        else:
            rem.append((_mono((-n0, -n1, -n2)), c))
    return rem


def _columns(polys, axis: int, values) -> list:
    """Per poly of a sequence, its blocks as descending (Monomial, values)
    columns: the terms that agree off the axis variable (0=x, 1=y) form a
    block, its Monomial sets that variable's exponent to 0, and its values
    are the block's coefficient with the variable set to each value in
    [0, p), all from one packed pass over the terms (see `packed`).

    Row e of the power table packs v^e mod p for every value v; it is built
    once per call, so pass every poly that takes the same values at once.
    A block becomes the packed sum of k * row[e] over its terms
    k * (axis variable)^e: one big-int multiply-add a term, however many
    values there are.  A slot of that sum adds at most t products k * v^e
    with k and v^e below p, t the largest term count among the polys, so
    t(p-1)^2 bounds every slot (and, as t >= 1, every entry of the table).
    Each block is unpacked once.
    """
    if not polys:
        return []
    p = polys[0].field.p
    n = len(values)
    k = 2 - axis  # a Monomial stores its exponents as (c, b, a)
    nb = slot_bytes(max([1] + [len(f.terms) for f in polys]) * (p - 1) ** 2)
    power = [1] * n
    rows = [pack(power, nb)]
    for _ in range(1, _dense_length(max([m[k] for f in polys for m, _ in f.terms], default=0))):
        power = [c * v % p for c, v in zip(power, values)]
        rows.append(pack(power, nb))
    out = []
    for f in polys:
        blocks = {}
        for m, c in f.terms:
            key = m[:k] + (0,) + m[k + 1 :]
            blocks[key] = blocks.get(key, 0) + c * rows[m[k]]
        out.append([(_mono(key), unpack(blocks[key], nb, n, p)) for key in sorted(blocks, reverse=True)])
    return out


def _image(field, columns, i: int) -> Polynomial:
    """The image at the i-th value of the poly with these columns (see
    `_columns`): its nonzero entries there, already canonical terms."""
    return Polynomial._make(field, tuple([(m, vals[i]) for m, vals in columns if vals[i]]))


def _images(polys, axis: int, values) -> tuple:
    """For each value in [0, p), the tuple of the images of the polys, a
    sequence, with the variable of the axis (0=x, 1=y) set to it: one
    packed pass (`_columns`), then each image assembled from the columns."""
    columns = _columns(polys, axis, values)
    return tuple(tuple(_image(f.field, cols, i) for f, cols in zip(polys, columns)) for i in range(len(values)))


def poly_from_dict(field, data: dict) -> Polynomial:
    """Inverse of Polynomial.to_dict."""
    if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
        raise ValueError("polynomial object must have a 'terms' list")
    terms = []
    for entry in data["terms"]:
        if not isinstance(entry, dict) or "c" not in entry or "e" not in entry:
            raise ValueError(f"term must be an object with 'c' and 'e', got {entry!r}")
        e = entry["e"]
        if not isinstance(e, list) or len(e) != 3 or not all(type(v) is int and v < sys.maxsize for v in e):
            raise ValueError(f"exponent triple of integers below sys.maxsize expected, got {e!r}")
        if isinstance(entry["c"], bool):
            raise ValueError(f"coefficient must be a number, got {entry['c']!r}")
        try:
            c = field.coerce(entry["c"])
        except TypeError as exc:
            raise ValueError(str(exc)) from exc
        terms.append((Monomial(e[0], e[1], e[2]), c))
    return Polynomial(field, terms)


def constant(field, value) -> Polynomial:
    return Polynomial(field, [(MONOMIAL_ONE, value)])


# -- text parsing ------------------------------------------------------------

_FACTOR = re.compile(r"^(?:(?P<num>\d+)|(?P<var>[xyz])(?:\^(?P<exp>\d+))?)$")


def parse_polynomial(field, text: str) -> Polynomial:
    """Parse the text form produced by Polynomial.text (sums of */^ terms)."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    # "-x+2" splits into ["", "-", "x", "+", "2"]: signs and terms alternate
    parts = re.split(r"([+-])", s)
    parts = parts[1:] if parts[0] == "" else ["+"] + parts
    if not all(parts[1::2]):
        raise ValueError(f"dangling sign in {text!r}")
    terms = []
    for sign, chunk in zip(parts[::2], parts[1::2]):
        coeff = -1 if sign == "-" else 1
        exps = [0, 0, 0]
        for factor in chunk.split("*"):
            m = _FACTOR.match(factor)
            if m is None:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            num = m.group("num")
            if num is None:
                exps["xyz".index(m.group("var"))] += int(m.group("exp") or 1)
                continue
            coeff = coeff * int(num)
        terms.append((Monomial(*exps), coeff))
    return Polynomial(field, terms)
