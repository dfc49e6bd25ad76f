"""Differential tests against sympy's Groebner bases, which share no code
with lexgb.

A vanishing basis V of a point set S is right when its elements vanish on
S, sympy finds V to be its own reduced basis, and V has |S| standard
monomials: then ideal(V) lies inside I(S) with a quotient of the same
dimension.  The squared and triangular bases are compared with the reduced
basis that sympy computes from the same generators, and a fat point with
the reduced basis of its primary ideal.  sympy prints
coefficients mod p in symmetric form, so they are normalised into [0, p).
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from lexgb.field import PrimeField  # noqa: E402
from lexgb.groebner import buchberger  # noqa: E402
from lexgb.instances import (  # noqa: E402
    FIRST_ORDER,
    PointSet,
    fat_point_basis,
    random_triangular_basis,
    squared_vanishing_basis,
    vanishing_basis,
)
from lexgb.poly import Monomial, Polynomial  # noqa: E402

from helpers import fibered_points  # noqa: E402

X, Y, Z = sympy.symbols("x y z")

# each pattern lists the x-fibers of a point set, and each fiber how many
# points share each of its (x, y) pairs
FIBER_PATTERNS = (
    ((2,), (1,)),
    ((1, 1), (1,)),
    ((2, 1),),
    ((2,), (2,)),
    ((1, 1), (1, 1)),
    ((3,), (1,)),
    ((2, 1), (1,)),
    ((1, 1, 1), (1,)),
)


def plain_terms(g: Polynomial) -> list:
    """((z, y, x) exponents, coefficient) pairs, read off the serialization."""
    return [((t["e"][2], t["e"][1], t["e"][0]), t["c"]) for t in g.to_dict()["terms"]]


def to_sympy(g: Polynomial):
    return sum(c * X**ex * Y**ey * Z**ez for (ez, ey, ex), c in plain_terms(g))


def sympy_basis(gens, p) -> set:
    """sympy's reduced lex basis (z > y > x) as a set of term sets."""
    G = sympy.groebner(gens, Z, Y, X, order="lex", modulus=p)
    out = set()
    for g in G.polys:
        terms = {(ez, ey, ex): int(c) % p for (ez, ey, ex), c in g.terms()}
        assert terms[max(terms)] == 1, "sympy's basis is not monic"
        out.add(frozenset(terms.items()))
    return out


def lexgb_basis(G) -> set:
    return {frozenset(plain_terms(g)) for g in G}


def staircase_size(heads) -> int:
    bound = max(max(h) for h in heads) + 1
    return sum(
        1
        for c in range(bound)
        for b in range(bound)
        for a in range(bound)
        if not any(h[0] <= c and h[1] <= b and h[2] <= a for h in heads)
    )


def fibered_sets():
    rng = random.Random(2011)
    return [fibered_points(pattern, rng, 101) for pattern in FIBER_PATTERNS]


@pytest.mark.parametrize("points", fibered_sets(), ids=lambda s: f"{len(s)}pts")
def test_vanishing_and_squared_bases_match_sympy(points):
    p = points.prime
    V = vanishing_basis(points)
    for g in V:
        for x, y, z in points.points:
            assert sum(c * x**ex * y**ey * z**ez for (ez, ey, ex), c in plain_terms(g)) % p == 0
    gens = [to_sympy(g) for g in V]
    assert sympy_basis(gens, p) == lexgb_basis(V)
    assert staircase_size([plain_terms(g)[0][0] for g in V]) == len(points)

    products = [sympy.expand(gens[i] * gens[j]) for i in range(len(gens)) for j in range(i, len(gens))]
    assert sympy_basis(products, p) == lexgb_basis(squared_vanishing_basis(points))


@pytest.mark.parametrize(
    "shape, primary",
    [
        (((0, 0, 0), (0, 0, 1)), lambda a, b, c: [X - a, Y - b, (Z - c) ** 2]),
        (((0, 0, 0), (0, 1, 0)), lambda a, b, c: [X - a, (Y - b) ** 2, Z - c]),
        (((0, 0, 0), (1, 0, 0)), lambda a, b, c: [(X - a) ** 2, Y - b, Z - c]),
        (((0, 0, 0), (0, 0, 1), (0, 0, 2)), lambda a, b, c: [X - a, Y - b, (Z - c) ** 3]),
        (
            FIRST_ORDER,
            lambda a, b, c: [f * g for f in (X - a, Y - b, Z - c) for g in (X - a, Y - b, Z - c)],
        ),
    ],
    ids=["along-z", "along-y", "along-x", "z-squared", "first-order"],
)
@pytest.mark.parametrize("p", [7, 101])
def test_one_fat_point_matches_its_primary_ideal(shape, primary, p):
    rng = random.Random(p)
    for _ in range(3):
        point = (rng.randrange(p), rng.randrange(p), rng.randrange(p))
        G = fat_point_basis(PointSet(p, (point,)), [shape])
        gens = [sympy.expand(f) for f in primary(*point)]
        assert sympy_basis(gens, p) == lexgb_basis(G)


def random_triangular_gens(field, rng, degrees):
    """A dense triangular system with heads x^d1, y^d2, z^d3."""
    gens = []
    for axis, d in enumerate(degrees):
        terms = [(Monomial(*(d if k == axis else 0 for k in range(3))), 1)]
        bounds = [degrees[k] if k <= axis else 1 for k in range(3)]
        for a in range(bounds[0]):
            for b in range(bounds[1]):
                for c in range(bounds[2]):
                    terms.append((Monomial(a, b, c), rng.randrange(field.p)))
        gens.append(Polynomial(field, terms))
    return gens


@pytest.mark.parametrize("seed", range(3))
def test_triangular_bases_match_sympy(seed):
    rng = random.Random(seed)
    for p, degrees in ((7, (2, 2, 2)), (101, (3, 2, 2)), (101, (2, 3, 2))):
        gens = random_triangular_gens(PrimeField(p), rng, degrees)
        G = buchberger(gens)
        assert not G.unit_ideal
        assert sympy_basis([to_sympy(g) for g in gens], p) == lexgb_basis(G)

        T = random_triangular_basis(degrees, seed, p)
        assert sympy_basis([to_sympy(g) for g in T], p) == lexgb_basis(T)
