"""Vectors of residues mod p packed into one Python int.

Entry i of a packed vector sits in the slot at bit i * w, where the slot
width w is a whole number of bytes chosen above every value the slot will
hold.  Adding packed vectors, scaling one by an int, shifting by whole
slots and multiplying two (a Kronecker product: slot k of a * b is the sum
of a_i * b_(k-i)) then act slot by slot, with no carry from one slot into
the next.  No slot goes negative either: an entry c is cleared mod p by
adding (p - c) times a vector whose entry there is 1, never by subtracting.
So one big-int operation does the work of a loop over the entries.

The layout is little-endian on any host: pack(v, nb) is the sum of
v_i << 8 nb i.  `slot_bytes` and `halver` round a width of 3 bytes up to 4
and one of 5 to 7 up to 8, so a slot of up to 8 bytes is one B, H, I or Q
item and `pack` and `unpack` convert the whole vector with one `struct`
call (format `<`).  A wider slot keeps its exact width and is converted
one slot's bytes at a time.

`halver` takes slots back below 2p by one Barrett step; `residuer` adds
one conditional subtract that leaves the exact residues in [0, p), so a
loop can test, scale and read a vector with no unpack.  The subtract is
exact: `halver` makes the slot width w at least 2k - bitlen(p) + 1 bits
for a bound of k >= bitlen(p) bits, so p < 2^bitlen(p) <= 2^(w-1).  A slot
h < 2p then gives h + 2^(w-1) - p < 2^(w-1) + p <= 2^w, which stays in
its slot and has its top bit set exactly when h >= p; that bit, shifted
down to the bottom of its slot and multiplied by p, is what to subtract.
"""

from __future__ import annotations

import struct
from functools import lru_cache

_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _width(nb: int) -> int:
    """The narrowest allowed slot width of at least nb bytes."""
    if nb <= 2:
        return max(nb, 1)
    if nb <= 4:
        return 4
    return max(nb, 8)


def slot_bytes(bound: int) -> int:
    """The slot width, in bytes, for slot values up to bound."""
    return _width((bound.bit_length() + 7) // 8)


def pack(values, nb: int) -> int:
    """The packed vector of non-negative ints below 2^(8 nb), nb bytes a
    slot, nb an allowed width."""
    if nb <= 8:
        data = struct.pack(f"<{len(values)}{_CODES[nb]}", *values)
    else:
        data = b"".join([v.to_bytes(nb, "little") for v in values])
    return int.from_bytes(data, "little")


def unpack(x: int, nb: int, n: int, p: int) -> list:
    """The residues mod p of the slots of x, a packed vector of at most n
    slots, nb bytes a slot."""
    size = n * nb
    data = x.to_bytes(size, "little")
    if nb <= 8:
        return [v % p for v in struct.unpack(f"<{n}{_CODES[nb]}", data)]
    return [int.from_bytes(data[i : i + nb], "little") % p for i in range(0, size, nb)]


@lru_cache(maxsize=64)
def halver(p: int, bound: int, n: int):
    """(nb, halve) for packed vectors of n slots whose values stay up to
    bound: the slot width in bytes, and the map that takes the first n
    slots of x to values below 2p with the same residues mod p.  Both
    depend on the arguments alone, so they are cached: the vanishing
    bases of small point sets ask for the same few product lengths over
    and over (`univariate._from_roots`).

    It makes one Barrett step in every slot at once.  For v <= bound < 2^k
    and r = 2^k // p, q = (v * r) >> k is floor(v / p) or one less, so
    v - q * p lies in [0, 2p).  The slots are wide enough to hold v * r,
    below 2^(2k) / p, whole, with its k fraction bits clear of the slot
    below; one shift by k and a mask then give every q at once.
    """
    k = bound.bit_length()
    nb = _width((2 * k - p.bit_length() + 8) // 8)
    r = (1 << k) // p
    q_mask = pack([(1 << 8 * nb - k) - 1] * n, nb)
    low = (1 << 8 * nb * n) - 1

    def halve(x: int) -> int:
        x &= low
        return x - (x * r >> k & q_mask) * p

    return nb, halve


@lru_cache(maxsize=64)
def residuer(p: int, bound: int, n: int):
    """(nb, halve, residues) for packed vectors of n slots whose values stay
    up to bound, bound >= p: `halver`'s width and map, and the map that
    takes the first n slots of x to their residues in [0, p), one `halve`
    and one conditional subtract (see the module docstring)."""
    nb, halve = halver(p, bound, n)
    w = 8 * nb
    ones = pack([1] * n, nb)
    lift, tops = ((1 << w - 1) - p) * ones, ones << w - 1

    def residues(x: int) -> int:
        x = halve(x)
        return x - ((x + lift & tops) >> w - 1) * p

    return nb, halve, residues


def lowest_slot(x: int, nb: int) -> int:
    """The index of the lowest nonzero slot of a nonzero packed x."""
    return ((x & -x).bit_length() - 1) // (8 * nb)
