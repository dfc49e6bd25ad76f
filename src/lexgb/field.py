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


class Fp:
    """Element of F_p, stored as the canonical residue in [0, p)."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Fp(self.v + other.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Fp(self.v - other.v, self.p)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Fp(other.v - self.v, self.p)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Fp(self.v * other.v, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return Fp(-self.v, self.p)

    def inv(self):
        if self.v == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.p}")
        # p prime, so a^(p-2) is the inverse by Fermat
        return Fp(pow(self.v, self.p - 2, self.p), self.p)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

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
    """Coefficient context for F_p; the modulus is validated at construction."""

    __slots__ = ("p",)

    def __init__(self, p: int = 101):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"modulus must be prime, got {p!r}")
        self.p = p

    def __call__(self, n) -> Fp:
        if isinstance(n, Fp):
            if n.p != self.p:
                raise ValueError(f"element of F_{n.p} given to F_{self.p}")
            return n
        if isinstance(n, int):
            return Fp(n, self.p)
        raise TypeError(f"cannot coerce {n!r} into F_{self.p}")

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


class RationalField:
    """Exact rational coefficients (a cross-checking mode; no root finding)."""

    __slots__ = ()

    def __call__(self, n) -> Fraction:
        if isinstance(n, Fraction):
            return n
        if isinstance(n, (int, str)):
            return Fraction(n)
        raise TypeError(f"cannot coerce {n!r} into the rationals")

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
