"""Exact coefficient arithmetic: prime fields F_p and an exact-rational mode."""

from __future__ import annotations

from fractions import Fraction


def is_prime(n: int) -> bool:
    """Deterministic trial division; moduli here are small by design."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _inverse(v: int, p: int) -> int:
    if not v % p:
        raise ZeroDivisionError(f"0 has no inverse in F_{p}")
    # p prime, so a^(p-2) is the inverse by Fermat
    return pow(v, p - 2, p)


class Fp:
    """Element of F_p, stored as the canonical residue in [0, p).

    Polynomials hold plain ints; Fp is the boxed value that a PrimeField
    hands out, for callers that want field arithmetic on single values.
    """

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _residue(self, other):
        """The residue of an int or of an element of the same field, else None."""
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError(f"mixed moduli {self.p} and {other.p}")
            return other.v
        return other if isinstance(other, int) else None

    def _lift(op):
        """The operator (self, other) -> Fp(op(self.v, other's residue, p))."""

        def method(self, other):
            w = self._residue(other)
            return NotImplemented if w is None else Fp(op(self.v, w, self.p), self.p)

        return method

    __add__ = __radd__ = _lift(lambda v, w, p: v + w)
    __sub__ = _lift(lambda v, w, p: v - w)
    __rsub__ = _lift(lambda v, w, p: w - v)
    __mul__ = __rmul__ = _lift(lambda v, w, p: v * w)
    __truediv__ = _lift(lambda v, w, p: v * _inverse(w, p))
    __rtruediv__ = _lift(lambda v, w, p: w * _inverse(v, p))
    del _lift

    def __neg__(self):
        return Fp(-self.v, self.p)

    def inv(self):
        return Fp(_inverse(self.v, self.p), self.p)

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        return Fp(pow(self.v, e, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        # consistent with == against plain ints
        return hash(self.v)

    def __bool__(self):
        return self.v != 0

    def __int__(self):
        return self.v

    def __repr__(self):
        return f"Fp({self.v}, {self.p})"

    def __str__(self):
        return str(self.v)


class PrimeField:
    """Coefficient context for F_p; the modulus is validated at construction.

    Polynomials hold its coefficients as plain ints in [0, p): `coerce`
    makes one, `inv` inverts one, and `mod` (which is p) reduces them.
    """

    __slots__ = ("p", "mod")

    def __init__(self, p: int = 101):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"modulus must be prime, got {p!r}")
        self.p = self.mod = p

    def __call__(self, n) -> Fp:
        return n if isinstance(n, Fp) and n.p == self.p else Fp(self.coerce(n), self.p)

    def coerce(self, n) -> int:
        """n as a kernel coefficient: its canonical residue."""
        if isinstance(n, Fp):
            if n.p != self.p:
                raise ValueError(f"element of F_{n.p} given to F_{self.p}")
            return n.v
        if isinstance(n, int):
            return n % self.p
        raise TypeError(f"cannot coerce {n!r} into F_{self.p}")

    def inv(self, c: int) -> int:
        return _inverse(c, self.p)

    @property
    def zero(self) -> Fp:
        return Fp(0, self.p)

    @property
    def one(self) -> Fp:
        return Fp(1, self.p)

    @property
    def size(self) -> int:
        return self.p

    def elements(self):
        """All residues in canonical order (root finding does not enumerate them)."""
        return (Fp(i, self.p) for i in range(self.p))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class _Exact:
    """The `mod` of the rationals: `c % _Exact()` is c, so kernel loops
    written for F_p leave rational coefficients unreduced."""

    __slots__ = ()

    def __rmod__(self, c):
        return c


class RationalField:
    """Exact rational coefficients (a cross-checking mode; no root finding).
    Polynomials hold them as Fractions, with `mod`, `coerce` and `inv` as in
    PrimeField."""

    __slots__ = ()
    mod = _Exact()

    def __call__(self, n) -> Fraction:
        if isinstance(n, Fraction):
            return n
        if isinstance(n, (int, str)):
            return Fraction(n)
        raise TypeError(f"cannot coerce {n!r} into the rationals")

    coerce = __call__

    def inv(self, c: Fraction) -> Fraction:
        return 1 / c

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    @property
    def size(self) -> None:
        return None

    def elements(self):
        raise ValueError("the rationals cannot be enumerated; use a prime field")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "RationalField()"
