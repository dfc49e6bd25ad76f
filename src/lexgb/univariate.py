"""Dense univariate polynomials over F_p: arithmetic and roots.

A polynomial is a list of plain ints in [0, p), lowest degree first, with
no trailing zeros; [] is the zero polynomial.  Its roots in F_p come from
one of two finders, chosen by p and the degree alone (`_takes_chirp`);
`_has_root` follows the same rule and stops short of any split.
When p is small against the degree, one packed product gives f at every
point of F_p^* (Bluestein's chirp), at a cost linear in p.  Otherwise
they come from gcd(f, x^p - x), split by equal-degree factorization
(Cantor-Zassenhaus), at a cost polynomial in log p and the degree rather
than a pass over every residue.  `_from_roots` and `_Nodes` build
products of linear factors, and evaluate and interpolate at many points,
on packed vectors too.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count

from .packed import halver, pack, slot_bytes, unpack

# the most slots of a dense list or power table sized by an exponent:
# `_dense_length` raises past it, before anything is allocated
DENSE_CAP = 1 << 20


def _dense_length(degree: int) -> int:
    """degree + 1, the slots of a dense list up to degree, within DENSE_CAP."""
    if degree >= DENSE_CAP:
        raise ValueError(f"exponent {degree} is too large to make dense (at most {DENSE_CAP} slots)")
    return degree + 1


def _trim(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def _rem(f: list, g: list, p: int) -> list:
    """f mod g for a nonzero g; the entries of f need not be reduced mod p."""
    f = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], p - 2, p)
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i] % p * inv % p
        if c:
            shift = i - dg
            for j in range(dg):
                f[shift + j] -= c * g[j]
    return _trim([c % p for c in f[:dg]])


def _quo(f: list, g: list, p: int) -> list:
    """The exact quotient f / g for a monic g that divides f."""
    f = list(f)
    dg = len(g) - 1
    q = [0] * (len(f) - dg)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = f[i + dg]
        if c:
            for j in range(dg + 1):
                f[i + j] = (f[i + j] - c * g[j]) % p
    return q


def _pow_linear(s: int, e: int, m: list, p: int) -> list:
    """(x + s)^e mod m for a monic m of degree d >= 1, by squaring from the
    top bit of e down, on packed vectors of d slots below 2p (see `packed`).

    A square has 2d - 1 slots, each a sum of at most d products below 4p^2.
    Its top d - 1 slots are cleared from the top down with copies of m
    shifted into place, which adds at most d - 1 terms (p - c) * m_j below
    p^2 to any slot.  A 1-bit of e multiplies by x + s: a shift by one slot
    plus s times the vector, with slot d cleared.  So no slot exceeds
    5dp^2 before `halve` takes it back below 2p.
    """
    d = len(m) - 1
    nb, halve = halver(p, 5 * d * p * p, d)
    w = 8 * nb
    mask = (1 << w) - 1
    packed_m = pack(m, nb)
    shifted = [packed_m << i * w for i in range(d - 1)]  # clears slot d + i
    acc = 1
    for bit in bin(e)[2:]:
        acc *= acc
        for i in range(d - 2, -1, -1):
            c = (acc >> (d + i) * w & mask) % p
            if c:
                acc += (p - c) * shifted[i]
        acc = halve(acc)
        if bit == "1":
            acc = (acc << w) + s * acc
            c = (acc >> d * w) % p
            if c:
                acc += (p - c) * packed_m
            acc = halve(acc)
    return _trim(unpack(acc, nb, d, p))


def _sub_xpow(f: list, e: int, p: int) -> list:
    """f - x^e."""
    f = f + [0] * (e + 1 - len(f))
    f[e] = (f[e] - 1) % p
    return _trim(f)


def _monic_gcd(a: list, b: list, p: int) -> list:
    while b:
        a, b = b, _rem(a, b, p)
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _split(g: list, p: int, out: list, first_shift: int = 1) -> None:
    """Append the roots of g, a monic product of distinct linear factors.

    gcd(g, (x + a)^((p-1)/2) - 1) keeps the roots r with r + a a nonzero
    square.  For two distinct roots about half of all shifts a separate
    them, so few shifts are tried.  A shift that fails on g fails on its
    factors too, so they go on from the shift after the one that split g.
    """
    if len(g) == 2:
        out.append(-g[0] % p)
    elif len(g) > 2:
        if p == 2:
            # g divides x^2 - x, so here g = x(x + 1); (p - 1)/2 = 0 leaves
            # nothing to split with below
            out.extend((0, 1))
            return
        for a in count(first_shift):
            h = _monic_gcd(g, _sub_xpow(_pow_linear(a % p, (p - 1) // 2, g, p), 0, p), p)
            if 1 < len(h) < len(g):
                _split(h, p, out, a + 1)
                _split(_quo(g, h, p), p, out, a + 1)
                return


def _linear_part(f: list, p: int) -> list:
    """gcd(f, x^p - x) for f of degree >= 1, monic: the product of the
    distinct linear factors of f."""
    # when f divides x^p - x the remainder x^p mod f - x is zero
    inv = pow(f[-1], p - 2, p)
    f = [c * inv % p for c in f]
    return _monic_gcd(f, _sub_xpow(_pow_linear(0, p, f, p), 1, p), p)


def _cz_roots(f: list, p: int) -> list:
    """The distinct roots in F_p of f, of degree >= 1, ascending, by
    Cantor-Zassenhaus: one power per node of the split tree."""
    out: list = []
    _split(_linear_part(f, p), p, out)
    return sorted(out)


@lru_cache(maxsize=16)
def _chirp(p: int, nb: int) -> tuple:
    """For g the least generator of F_p^*, p an odd prime: the powers g^k
    for k < p - 1, and the chirp g^C(j,2) for j < 2p - 2 packed at nb bytes
    a slot."""
    n = p - 1
    for g in count(2):
        powers, v = [1], g
        while v != 1:
            powers.append(v)
            v = v * g % p
        if len(powers) == n:
            break
    return powers, pack([powers[j * (j - 1) // 2 % n] for j in range(2 * n)], nb)


def _chirp_roots(f: list, p: int) -> list:
    """The distinct roots in F_p of f, of degree d with 1 <= d < p, p an odd
    prime, ascending, from one packed product (Bluestein's chirp).

    For a generator g of F_p^*, e * k = C(e+k, 2) - C(e, 2) - C(k, 2), so
    f(g^k) = g^-C(k,2) * sum_e A_e * T_(e+k) with A_e = f_e * g^-C(e,2)
    and T_j = g^C(j,2).  Slot d + k of pack(reversed A) * pack(T) is that
    sum, for every k < p - 1 at once: zero mod p exactly at the roots g^k.
    Each slot is a sum of at most d + 1 products below p^2.
    """
    d, n = len(f) - 1, p - 1
    nb = slot_bytes((d + 1) * n * n)
    w = 8 * nb
    powers, chirp = _chirp(p, nb)
    a = pack([f[e] * powers[-(e * (e - 1) // 2) % n] % p for e in range(d, -1, -1)], nb)
    # T_j for j >= n + d reaches only slots above the ones read
    sums = (a * (chirp & (1 << (n + d) * w) - 1) >> d * w) & (1 << n * w) - 1
    roots = [powers[k] for k, v in enumerate(unpack(sums, nb, n, p)) if not v]
    if not f[0]:
        roots.append(0)
    return sorted(roots)


def _takes_chirp(d: int, p: int) -> bool:
    """Whether `_roots` and `_has_root` take the chirp for an f of degree
    d >= 2.  On Python 3.11 (Xeon) the chirp costs about 0.2 us * p, and CZ
    about 2 us * d * bitlen(p) when f has few roots and 8 when it splits, as
    the g_1 of a vanishing ideal does.  The chirp wins from degree 2 at
    p = 101, from 4 (split) or 12 (few roots) at 1009, and from 20 (split)
    at 10007.  The rule sits between the two break-evens, 10 and
    40 * d * bitlen(p): it takes the chirp from degree 2 at 101, 6 at 1009,
    44 at 10007 and 133 at 32003, and at 2^31 - 1 only past degree 4 million.
    """
    return 2 < p < 16 * (d + 1) * p.bit_length() and d < p


def _roots(f: list, p: int) -> list:
    """The distinct roots of a nonzero f in F_p, ascending."""
    d = len(f) - 1
    if d < 1:
        return []
    if d == 1:
        return [-f[0] * pow(f[1], p - 2, p) % p]
    return _chirp_roots(f, p) if _takes_chirp(d, p) else _cz_roots(f, p)


def _has_root(f: list, p: int) -> bool:
    """Whether a nonzero f has a root in F_p, with no split: by the chirp
    where `_roots` takes it, which beats the gcd at small p too, otherwise
    by deg gcd(f, x^p - x) > 0, the first step of `_cz_roots`."""
    d = len(f) - 1
    if d < 2:
        return d == 1
    return bool(_chirp_roots(f, p)) if _takes_chirp(d, p) else len(_linear_part(f, p)) > 1


def _horner(f: list, v: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * v + c) % p
    return acc


def _from_roots(roots, p: int) -> list:
    """The monic product of the x - r over the roots, as a dense list.

    One packed step a root: acc * (x - r) is acc shifted by one slot plus
    (p - r) times acc.  Slots below 2p stay below 2p^2 + 2p, and `halve`
    takes them back below 2p (see `packed`)."""
    nb, halve = halver(p, 2 * p * p + 2 * p, len(roots) + 1)
    w = 8 * nb
    acc = 1
    for r in roots:
        acc = halve((acc << w) + (p - r) * acc)
    return unpack(acc, nb, len(roots) + 1, p)


class _Nodes:
    """Distinct nodes a_0, ..., a_(k-1) of F_p and the packed table of
    their powers, for evaluation at every node and interpolation over any
    subset of them.

    Row e packs a_i^e over the nodes i, column i packs a_i^t over t < k;
    building both takes k^2 products mod p, and each use after that is
    one big-int multiply-add per coefficient or per node.  Interpolation
    over the nodes a_i, i in `on`, is Lagrange's: with M = prod (x - a_i)
    and u_i = f(a_i) / M'(a_i), f = sum u_i M / (x - a_i), and as
    M / (x - a) = sum_j x^j sum_(t >= 0) M_(j+1+t) a^t, the coefficient f_j
    is sum_t M_(j+1+t) s_t with s_t = sum_i u_i a_i^t.  The s_t are the
    combination of the columns i in `on` with weights u_i, and for
    m = |on| the f_j are slots m to 2m - 1 of M times the reversed s: one
    product.  A slot sums at most k + 1 products below p^2.
    """

    def __init__(self, nodes, p: int):
        k = len(nodes)
        self.nodes, self.p, self.k = nodes, p, k
        self.nb = nb = slot_bytes((k + 1) * (p - 1) ** 2)
        power = [1] * k
        table = [power]
        for _ in range(k - 1):
            power = [c * a % p for c, a in zip(power, nodes)]
            table.append(power)
        self.rows = [pack(row, nb) for row in table]
        self.cols = [pack(col, nb) for col in zip(*table)]
        self.subsets: dict = {}

    def master(self, on: tuple) -> list:
        """prod (x - a_i) over the nodes i in `on`."""
        return (self.subsets.get(on) or self._subset(on))[0]

    def evaluate(self, f: list) -> list:
        """f, of degree below k, at every node."""
        acc = 0
        for c, row in zip(f, self.rows):
            acc += c * row
        return unpack(acc, self.nb, self.k, self.p)

    def interpolate(self, values, on: tuple) -> list:
        """The f of degree below m = len(on) with f(a_i) = values[j] for
        i = on[j], as m coefficients."""
        p, nb, m = self.p, self.nb, len(on)
        if m == 1:  # the constant through one node
            return [values[0] % p]
        _, packed_m, weights, cols = self.subsets.get(on) or self._subset(on)
        s = 0
        for v, u, col in zip(values, weights, cols):
            s += v * u % p * col
        s = unpack(s & (1 << 8 * nb * m) - 1, nb, m, p)
        return unpack(packed_m * pack(s[::-1], nb) >> 8 * nb * m, nb, m, p)

    def _subset(self, on: tuple) -> tuple:
        """(M, M packed, the 1 / M'(a_i), the columns i) for the nodes i in
        `on`, cached."""
        p = self.p
        master = _from_roots([self.nodes[i] for i in on], p)
        slopes = self.evaluate([e * c % p for e, c in enumerate(master) if e])
        weights, cols = [pow(slopes[i], -1, p) for i in on], [self.cols[i] for i in on]
        sub = self.subsets[on] = master, pack(master, self.nb), weights, cols
        return sub
