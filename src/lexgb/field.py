"""Coefficient arithmetic in prime fields F_p."""

from __future__ import annotations

from functools import lru_cache


# Miller-Rabin on the first twelve primes as bases is exact below the least
# strong pseudoprime to all of them (Sorenson and Webster, Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461

DEFAULT_PRIME = 101


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n >= 3.18 * 10^23 raises ValueError.

    Memoized: every `PrimeField(p)` asks again, and a campaign makes
    hundreds of fields over one or two moduli.  A raise is not cached, so
    each call at or above the bound raises anew."""
    if n >= _MR_LIMIT:
        raise ValueError(f"moduli of {_MR_LIMIT} and above are not supported, got {n}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Coefficient context for F_p; the modulus is validated at construction.

    Its elements are plain ints in [0, p): `coerce` (also `F(n)`) makes
    one, `inv` inverts one, and reducing mod `p` keeps them canonical.
    """

    __slots__ = ("p",)

    def __init__(self, p: int = DEFAULT_PRIME):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"modulus must be prime, got {p!r}")
        self.p = p

    def coerce(self, n) -> int:
        """n as a kernel coefficient: its canonical residue."""
        if isinstance(n, int):
            return n % self.p
        raise TypeError(f"cannot coerce {n!r} into F_{self.p}")

    __call__ = coerce

    def inv(self, c: int) -> int:
        if not c % self.p:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.p}")
        # p prime, so c^(p-2) is the inverse by Fermat
        return pow(c, self.p - 2, self.p)

    def elements(self):
        """All residues in order; only bench/tracer.py uses it, as a hook."""
        return iter(range(self.p))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"
