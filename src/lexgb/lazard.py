"""Vanishing ideals of point sets, built from Lazard's structure (Lazard,
"Ideal bases and primary decomposition: case of two variables", JSC 1,
1985) by interpolating the x-fibers.

The lex staircase of a point set is read off its fibers, the lex game of
Cerlienco and Mureddu (Discrete Math. 139, 1995), and each basis element
is combined from the fibers by interpolation in x, the recursion of
Marinari and Mora ("A remark on a remark by Macaulay, or enhancing Lazard
structural theorem", Bull. Iranian Math. Soc. 29, 2003) and of Lederer
("The vanishing ideal of a finite set of closed points in affine space",
J. Pure Appl. Algebra 212, 2008).  On each fiber the construction keeps
normal forms modulo that fiber's own vanishing ideal, which it builds the
same way one coordinate shorter, down to single points.  No linear system
over the n point functionals is solved, and nothing is divided.

Points and monomials are read in the stored exponent order (z, y, x), so
a point's last coordinate is its x and a fiber's monomials are the
prefixes of the set's.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .poly import Polynomial
from .univariate import _Nodes


class _Point:
    """A one-point set: its staircase is {1}, and the normal form of a
    monomial is its value at the point."""

    __slots__ = ("point", "p", "staircase")

    def __init__(self, point: tuple, p: int, staircase: list):
        self.point, self.p, self.staircase = point, p, staircase

    def nf(self, m: tuple) -> list:
        p, v = self.p, 1
        for c, e in zip(self.point, m):
            if e:
                v = v * pow(c, e, p) % p
        return [v]


class _Fibers:
    """A set of points grouped by its last coordinate, with the lex
    staircase of its vanishing ideal and normal forms modulo it.

    `staircase` lists the standard monomials ascending, and `nf(m)` gives
    the normal form of the monomial m as coefficients on them.  Each fiber
    is a `_Fibers` one coordinate shorter, or a `_Point`, in the order the
    points give them.  One packed table of the fiber values (`_Nodes`)
    interpolates over every A_m and evaluates at every fiber.
    """

    def __init__(self, points, p: int):
        groups: dict = {}
        for q in points:
            groups.setdefault(q[-1], []).append(q[:-1])
        self.p, self.alphas, self.k = p, list(groups), len(groups)
        one = [(0,) * (len(points[0]) - 1)]  # the staircase of one point
        self.fibers = [_Point(g[0], p, one) if len(g) == 1 else _Fibers(g, p) for g in groups.values()]
        self.nodes = _Nodes(self.alphas, p)
        members: dict = {}  # m -> [(fiber, position of m on its staircase)]
        for i, fiber in enumerate(self.fibers):
            for j, m in enumerate(fiber.staircase):
                members.setdefault(m, []).append((i, j))
        # m -> (A_m, the positions of m on those staircases, the fibers
        # outside A_m, the offset of m's block x^i m on the staircase),
        # ascending in m
        self.blocks, self.staircase = {}, []
        for m in sorted(members):
            on, positions = zip(*members[m])
            outside = set(range(self.k)).difference(on) if len(on) < self.k else ()
            self.blocks[m] = on, positions, outside, len(self.staircase)
            self.staircase += [m + (e,) for e in range(len(on))]
        self.union = list(self.blocks)
        self.rows: dict = {}  # m -> the fibers' normal forms of m

    def corners(self) -> list:
        """The (y, z) monomials m, ascending, whose x^|A_m| m is a corner of
        the staircase of a set in three coordinates: |A_m| is below
        |A_(m / y)| and |A_(m / z)| where m has those divisors."""
        a = {m: len(block[0]) for m, block in self.blocks.items()}
        out = set()
        for c, b in self.blocks:
            for m in ((c, b), (c + 1, b), (c, b + 1)):
                mc, mb, n = *m, a.get(m, 0)
                if (not mc or a.get((mc - 1, mb), 0) > n) and (not mb or a.get((mc, mb - 1), 0) > n):
                    out.add(m)
        return sorted(out)

    def element(self, m: tuple) -> dict:
        """The terms of the basis element headed x^|A_m| m: P_m(x) m plus the
        tail whose residue on fiber α starts at P_m(α) NF_α(m)."""
        block = self.blocks.get(m)
        if block is None:
            P, scale = [1], None
        else:
            P = self.nodes.master(block[0])
            if len(P) > self.k:  # m = 1 and P_m vanishes on every fiber
                return {m + (e,): c for e, c in enumerate(P)}
            scale = self.nodes.evaluate(P)
        tail = self._tail(scale, m, bisect_left(self.union, m))
        terms = {s: -c for s, c in zip(self.staircase, tail) if c}
        terms.update((m + (e,), c) for e, c in enumerate(P))
        return terms

    def nf(self, m: tuple) -> list:
        """The normal form of the monomial m = x^e m_0, whose residue on
        fiber α starts at α^e NF_α(m_0)."""
        rest, e = m[:-1], m[-1]
        block = self.blocks.get(rest)
        if block is not None and e < len(block[0]):
            out = [0] * len(self.staircase)
            out[block[3] + e] = 1
            return out
        scale = [pow(a, e, self.p) for a in self.alphas] if e else None
        return self._tail(scale, rest, bisect_right(self.union, rest))

    def _row(self, m: tuple) -> list:
        row = self.rows.get(m)
        if row is None:
            row = self.rows[m] = [fiber.nf(m) for fiber in self.fibers]
        return row

    def _tail(self, scale, m: tuple, stop: int) -> list:
        """The normal form of the function that is scale[α] m on each fiber
        α (m itself when scale is None), as coefficients on the staircase,
        for a function whose residues have no term past the first `stop`
        monomials m' of the fibers' staircases.  Down through those m',
        c_m' interpolates the m' coefficient of the residues over A_m', and
        every fiber α outside A_m' takes c_m'(α) NF_α(m') off its residue;
        the normal form is the sum of the c_m'(x) m'."""
        p, nodes, residues = self.p, self.nodes, self._row(m)
        if scale is not None:
            residues = [[s * c % p for c in r] for s, r in zip(scale, residues)]
        else:
            residues = list(residues)
        out = [0] * len(self.staircase)
        for u in range(stop - 1, -1, -1):
            on, positions, outside, offset = self.blocks[self.union[u]]
            c = nodes.interpolate([residues[i][j] for i, j in zip(on, positions)], on)
            out[offset : offset + len(c)] = c
            if outside:
                at = nodes.evaluate(c)
                row = self._row(self.union[u])
                for i in outside:
                    if at[i]:
                        residues[i] = [(r - at[i] * t) % p for r, t in zip(residues[i], row[i])]
        return out


def lazard_basis(points, field) -> tuple:
    """The reduced lex basis of I(S), ascending, for distinct points reduced
    mod p.

    Group S by x: fiber α holds the (y, z) of the points over α, a set S_α
    with vanishing ideal I_α in k[y, z].  Let N_α be the lex staircase of
    I_α, which has |S_α| monomials, and NF_α(f) the normal form of f
    modulo I_α: the one combination of N_α that agrees with f on S_α.  For
    a (y, z) monomial m, let A_m be the x-values whose N_α holds m, and
    P_m = prod over A_m of (x - α).  Let N be the x^i m with i < |A_m|.
    It has sum |A_m| = sum |N_α| = n monomials, and it is down-closed,
    as every N_α is, so A_m is contained in A_(m / y) and A_(m / z).

    The normal form of f is NF(f) = sum c_m'(x) m' over the m' of the
    N_α, computed as follows.  The residue on fiber α starts at
    NF_α(f(α, y, z)).  Then, down through the m', c_m' interpolates the m'
    coefficient of the residues over A_m', so deg c_m' < |A_m'|, and every
    α outside A_m' takes c_m'(α) NF_α(m') off its residue.  NF_α(m') is m'
    minus an element of I_α headed m', since m' is not in N_α, so it has
    only terms below m'; the coefficients at m' and above, which are
    already clear, stay clear.  On A_m', NF_α(m') = m', so taking off
    c_m'(α) m' would clear the m' coefficient and touch no other; no
    later step reads that coefficient, so it is left as it is.  Once the
    smallest m' is done, every coefficient of every residue is clear:
    f - NF(f) has normal form zero on every fiber, so it vanishes on S.
    Every function on S is the value of some f, so the n monomials of N
    take every value on S: they are a basis of k[x, y, z] / I(S).

    A corner of N, outside N with every divisor by x, y or z inside, is
    x^a m with a = |A_m|: a >= |A_m| as it is outside, and a - 1 < |A_m|
    when a > 0 as x^(a-1) m is inside.  Its element is g = x^a m -
    NF(x^a m).  The residues of x^a m start at α^a NF_α(m), with no term
    above m, so no c_m' above m is nonzero, and the m block is
    c_m = x^a - P_m (it interpolates α^a over A_m).  So g = P_m(x) m -
    sum over m' < m of c_m'(x) m' (with P_m = 1 when m is on no N_α), and
    past the m block the residues are P_m(α) NF_α(m): g vanishes on S, it
    is monic, and every tail term is in N and below x^a m.  The heads span a monomial ideal whose complement is N, of n
    monomials; the leading ideal of I(S) holds it and also has a
    complement of n = dim k[x, y, z] / I(S) monomials, so the two are
    equal, the elements form a Groebner basis, and a reduced one.

    NF_α is the same normal form one coordinate shorter: S_α is grouped
    by y into sets of z-values, whose fibers are single points, and a
    one-point set has staircase {1} and NF(m) = m at the point.

    This makes Lazard's theorem constructive in three variables: the
    leading x-coefficient of the element headed x^a m is P_m, the product
    of (x - α) over the x-values whose fiber staircase holds m.  On a set
    with no two points on one (x, y), N_α = {1, y, ..., y^(r_α - 1)}, and
    NF_α(y^j) is y^j mod prod (y - β): Lazard's two-variable structure
    with z as an interpolant in y on each fiber.
    """
    S = _Fibers([(z, y, x) for x, y, z in points], field.p)
    return tuple(Polynomial._collect(field, S.element(m)) for m in S.corners())
