"""Vanishing bases built from the x-fibers against the dual-functional loop.

`vanishing_basis` builds the basis of a point set with no two points on
one (x mod p, y mod p) by interpolating its x-fibers (`lazard`), and
every other point set with `fat_point_basis`.  On every set here the
two must give the same basis, flag included, and `solve_system` must give
back exactly the points.  The lex game (`helpers.lex_game_staircase`)
counts the staircase from the points alone, on sets that take either
path.  The packed evaluation and interpolation under the construction
are held to Horner's rule.
"""

import random

import pytest

from lexgb import instances
from lexgb.field import PrimeField
from lexgb.groebner import quotient_dimension, standard_monomials
from lexgb.instances import PLAIN_POINT, PointSet, fat_point_basis, vanishing_basis
from lexgb.poly import Polynomial
from lexgb.specialize import solve_system
from lexgb.univariate import _from_roots, _horner, _Nodes

from helpers import box_points, fibered_points, lex_game_staircase, random_pattern

PRIMES = (2, 3, 5, 7, 11, 101, 1009, 2**31 - 1)


def _draw(rng, p, k):
    """k distinct residues mod p."""
    if p < 10**6:
        return rng.sample(range(p), k)
    out = {}
    while len(out) < k:
        out[rng.randrange(p)] = None
    return list(out)


def injective_points(rng, p, sizes) -> PointSet:
    """One x-fiber of each size, on distinct x, with distinct y on each
    fiber and a random z at each (x, y)."""
    pts = []
    for x, r in zip(_draw(rng, p, len(sizes)), sizes):
        pts += [(x, y, rng.randrange(p)) for y in _draw(rng, p, r)]
    return PointSet(p, tuple(pts))


def _differential_sets() -> list:
    rng = random.Random(20)
    sets = []
    for p in PRIMES:
        for _ in range(30):
            # several fibers of mixed sizes
            k = rng.randint(2, min(p, 8))
            sets.append(injective_points(rng, p, [rng.randint(1, min(p, 6)) for _ in range(k)]))
        # all-distinct x, one x-fiber, a single point
        sets.append(injective_points(rng, p, [1] * min(p, 24)))
        sets.append(injective_points(rng, p, [min(p, 16)]))
        sets.append(injective_points(rng, p, [1]))
    # every (x, y) of F_2^2 and F_3^2, and the full F_2 cube, which shares (x, y)
    for p in (2, 3):
        sets.append(PointSet(p, tuple((x, y, rng.randrange(p)) for x in range(p) for y in range(p))))
    sets.append(PointSet(2, tuple((x, y, z) for x in range(2) for y in range(2) for z in range(2))))
    return sets


DIFFERENTIAL_SETS = _differential_sets()


@pytest.mark.parametrize("p", PRIMES)
def test_fibers_match_the_loop(p):
    for points in (s for s in DIFFERENTIAL_SETS if s.prime == p):
        G = vanishing_basis(points)
        assert G == fat_point_basis(points, [PLAIN_POINT] * len(points.points)), points
        assert G.radical


@pytest.mark.parametrize("p", PRIMES)
def test_solve_system_returns_the_points(p):
    for points in (s for s in DIFFERENTIAL_SETS if s.prime == p):
        G = vanishing_basis(points)
        solutions = solve_system(G)
        assert list(solutions) == sorted(points.points)
        assert len(solutions) == quotient_dimension(G)


def test_lc_x_vanishes_exactly_on_the_larger_fibers():
    """Lazard's theorem on the projection: the element headed x^i y^j has
    lc_x equal to the product of (x - a) over the x-values a whose fiber
    holds more than j points, and the z element has lc_x = 1."""
    rng = random.Random(3)
    F = PrimeField(101)
    for _ in range(40):
        points = injective_points(rng, 101, [rng.randint(1, 5) for _ in range(rng.randint(1, 6))])
        sizes = {}
        for x, _, _ in points.points:
            sizes[x] = sizes.get(x, 0) + 1
        for g in vanishing_basis(points):
            j = g.lm().b if not g.lm().c else -1
            larger = sorted(x for x, r in sizes.items() if r > j) if j >= 0 else []
            expected = Polynomial(F, [((0, 0, e), c) for e, c in enumerate(_from_roots(larger, 101))])
            assert g.lc_x() == expected


def test_dispatch_by_the_projection(monkeypatch):
    """Sets with a shared (x mod p, y mod p) take the loop, which rejects
    duplicates mod p; the others take the fibers, unreduced coordinates
    included.  Either way the basis is the loop's."""
    taken = []
    for name in ("fat_point_basis", "lazard_basis"):
        original = getattr(instances, name)
        monkeypatch.setattr(instances, name, lambda *a, f=original, n=name: taken.append(n) or f(*a))
    cases = {
        ((1, 2, 3), (1, 2, 4), (5, 6, 0)): "fat_point_basis",  # a shared (x, y)
        ((8, 2, 3), (1, 9, 4)): "fat_point_basis",  # unreduced, sharing (1, 2) mod 7
        ((8, 2, 3), (1, 10, 4), (-1, 0, 13)): "lazard_basis",  # unreduced, injective mod 7
    }
    for pts, path in cases.items():
        taken.clear()
        G = vanishing_basis(PointSet(7, pts))
        assert taken == [path]
        assert G == fat_point_basis(PointSet(7, pts), [PLAIN_POINT] * len(pts))
    # equal mod 7: one point twice, which the loop rejects as a duplicate
    taken.clear()
    with pytest.raises(ValueError, match="points must be distinct"):
        vanishing_basis(PointSet(7, ((1, 2, 3), (8, 2, 3))))
    assert taken == ["fat_point_basis"]


def test_bad_input_raises_as_before():
    with pytest.raises(ValueError, match="empty point set"):
        vanishing_basis(PointSet(7, ()))
    with pytest.raises(ValueError, match="points must be distinct"):
        vanishing_basis(PointSet(7, ((1, 2, 3), (1, 2, 3))))
    with pytest.raises(ValueError, match="lie in F_7"):
        vanishing_basis(PointSet(7, ((1, 2, 3),)), PrimeField(11))
    with pytest.raises(ValueError, match="modulus must be prime"):
        vanishing_basis(PointSet(8, ((1, 2, 3),)))
    point = PointSet(7, ((1, 2, 3),))
    assert vanishing_basis(point, PrimeField(7)) == vanishing_basis(point)


def test_lex_game_counts_the_staircase():
    """The 300 fibered sets and 200 box sets of 1-40 points: 58 of them
    take the fibers, the others share (x, y) and take the loop."""
    rng = random.Random(7)
    sets = [fibered_points(random_pattern(rng), rng) for _ in range(300)]
    sets += [box_points(rng, most=40) for _ in range(200)]
    assert sum(len({pt[:2] for pt in s.points}) == len(s) for s in sets) == 58
    for points in sets:
        assert standard_monomials(vanishing_basis(points)) == lex_game_staircase(points), points


@pytest.mark.parametrize("p", PRIMES)
def test_packed_nodes_follow_horner(p):
    rng = random.Random(p)
    for _ in range(20):
        nodes = _draw(rng, p, rng.randint(1, min(p, 30)))
        k = len(nodes)
        table = _Nodes(nodes, p)
        f = [rng.randrange(p) for _ in range(k)]
        assert table.evaluate(f) == [_horner(f, a, p) for a in nodes]
        for m in range(k + 1):
            values = [rng.randrange(p) for _ in range(m)]
            g = table.interpolate(values)
            assert len(g) == m and [_horner(g, a, p) for a in nodes[:m]] == values
            master = table.master(m)
            assert master[-1] == 1 and len(master) == m + 1
            assert all(_horner(master, a, p) == 0 for a in nodes[:m])
