"""Vanishing ideals of point sets whose (x, y) projection is injective,
built from Lazard's structure by interpolating the x-fibers.

When no two points share (x, y), z is a function Z(x, y) on the points,
so I(S) is the ideal of the projection in k[x, y] plus z - Z(x, y): the
shape lemma in z over Lazard's 2-variable structure (Lazard, "Ideal
bases and primary decomposition: case of two variables", JSC 1, 1985).
The staircase of the projection is read off the fiber sizes, the lex
game of Cerlienco and Mureddu (Discrete Math. 139, 1995), and each
element is combined from its fibers by interpolation in x (Marinari and
Mora, "A remark on a remark by Macaulay, or enhancing Lazard structural
theorem", Bull. Iranian Math. Soc. 29, 2003).  No linear system over
the n point functionals is solved.
"""

from __future__ import annotations

from .poly import Polynomial
from .univariate import _Nodes


def _residues_of_powers(Y: list, top: int, p: int) -> list:
    """[y^b mod Y for b from deg Y to top], for a monic Y, each as deg Y
    coefficients."""
    r = len(Y) - 1
    power = [-c % p for c in Y[:r]]
    out = [power]
    for _ in range(r, top):
        t = power[-1]
        power = [(c - t * d) % p for c, d in zip([0] + power[:-1], Y)]
        out.append(power)
    return out


def lazard_basis(points, field) -> tuple:
    """The reduced lex basis of I(S), ascending, for points reduced mod p
    with no two sharing (x, y).

    Group S by x.  Fiber a holds r_a points (b, c) with distinct b; let
    Y_a = prod (y - b), let phi_a interpolate the c over the b (degree
    below r_a), let A_j be the x-values with r_a > j and n_j = |A_j|.  The
    staircase is {x^i y^j : i < n_j}, of size sum n_j = sum r_a = n.  Its
    corners give the heads: x^(n_j) y^j for j = 0 and for each j with
    n_j < n_(j-1) (which includes y^(r_max), as n_(r_max) = 0), and z.

    The element headed x^(n_J) y^J is P(x) y^J + sum_(j<J) c_j(x) y^j with
    P = prod over A_J of (x - a), and the z element is
    z + sum_(j<r_max) c_j(x) y^j.  The c_j come down from j = J - 1 to 0
    (J = r_max for z) on a residue kept at every a, modulo Y_a: it starts
    at P(a) * (y^J mod Y_a), or at phi_a for z, and c_j interpolates, over
    A_j, minus the y^j coefficient of the residues there.  Then every a
    outside A_j adds c_j(a) * (y^j mod Y_a) to its residue.  On A_j, y^j
    is already reduced, so c_j(a) y^j clears the y^j coefficient and no
    other, and the coefficients above j stay clear.  So once j = 0 is done,
    every residue is zero: each element vanishes at (a, b) for every root b
    of Y_a, that is on all of S.  (P vanishes on A_J, so the residues
    there start at zero.)

    Each element is monic, and its tail is standard: below its head
    x^(n_J) y^J, P y^J has only x^i y^J with i < n_J, and deg c_j < n_j.
    So the elements lie in I(S), their heads span a monomial ideal whose
    complement has n monomials, and dim k[x, y, z] / I(S) = n; the leading
    ideal of I(S) holds the heads' ideal and has a complement of the same
    size, so the two are equal, the elements form a Groebner basis, and a
    reduced one.

    This makes Lazard's theorem on the projection constructive: the
    leading x-coefficient of the element headed y^J vanishes exactly on
    A_J, the x-values whose fiber holds more than J points.
    """
    p = field.p
    fibers: dict = {}
    for a, b, c in points:
        fibers.setdefault(a, []).append((b, c))
    # largest fibers first, so every A_j is a prefix of the nodes
    alphas = sorted(fibers, key=lambda a: -len(fibers[a]))
    sizes = [len(fibers[a]) for a in alphas]
    k, top = len(alphas), sizes[0]
    count = [sum(1 for r in sizes if r > j) for j in range(top + 1)]
    xs = _Nodes(alphas, p)

    phi, powers = [], []
    for a in alphas:
        ys, zs = zip(*fibers[a])
        if len(ys) == 1:  # most fibers of a random set: no table needed
            Y, phi_a = [-ys[0] % p, 1], list(zs)
        else:
            on_fiber = _Nodes(ys, p)
            Y, phi_a = on_fiber.master(len(ys)), on_fiber.interpolate(zs)
        phi.append(phi_a)
        powers.append(_residues_of_powers(Y, top, p))

    def tail(residues: list, J: int, terms: dict) -> Polynomial:
        for j in range(J - 1, -1, -1):
            m = count[j]
            c = xs.interpolate([-residues[i][j] % p for i in range(m)])
            for e, ce in enumerate(c):
                terms[0, j, e] = ce
            if m < k:
                at = xs.evaluate(c)
                for i in range(m, k):
                    if at[i]:
                        pw = powers[i][j - sizes[i]]
                        residues[i] = [(s + at[i] * t) % p for s, t in zip(residues[i], pw)]
        return Polynomial._collect(field, terms)

    basis = [Polynomial._collect(field, {(0, 0, e): c for e, c in enumerate(xs.master(k))})]
    for J in range(1, top + 1):
        m = count[J]
        if m == count[J - 1]:
            continue
        P = xs.master(m)
        at = xs.evaluate(P)
        residues = [[0] * sizes[i] for i in range(m)]
        residues += [[at[i] * t % p for t in powers[i][J - sizes[i]]] for i in range(m, k)]
        basis.append(tail(residues, J, {(0, J, e): c for e, c in enumerate(P)}))
    basis.append(tail(phi, top, {(1, 0, 0): 1}))
    return tuple(basis)
