"""Vanishing bases built from the x-fibers against the dual-functional loop.

`vanishing_basis` builds the basis of every point set by interpolating
its x-fibers (`lazard`); `fat_point_basis` with the plain shape at every
point is the reference.  On every set here the two must give the same
basis, flag included, and `solve_system` must give back exactly the
points.  The corpus holds (x, y)-injective sets, sets that share (x, y),
sets whose fiber staircases are not nested, and sets at p = 2^31 - 1.
The lex game (`helpers.lex_game_staircase`) counts the staircase, and
each fiber's staircase, from the points alone.  The packed evaluation
and interpolation under the construction are held to Horner's rule.
"""

import json
import random

import pytest

from lexgb import instances, lazard
from lexgb.cli import main
from lexgb.field import PrimeField
from lexgb.groebner import quotient_dimension, standard_monomials
from lexgb.instances import PLAIN_POINT, PointSet, fat_point_basis, vanishing_basis
from lexgb.poly import Polynomial
from lexgb.specialize import solve_system
from lexgb.univariate import _from_roots, _horner, _Nodes

from helpers import FOUND_SET, box_points, fibered_points, lex_game_staircase, random_pattern

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


def fiber_staircases(points: PointSet) -> dict:
    """x-value -> the (y, z) exponents of the lex staircase of the fiber
    over it, from the lex game on that fiber's points alone."""
    fibers: dict = {}
    for pt in points.points:
        fibers.setdefault(pt[0], []).append(pt)
    return {
        a: {(m.b, m.c) for m in lex_game_staircase(PointSet(points.prime, tuple(pts)))}
        for a, pts in fibers.items()
    }


def nested(points: PointSet) -> bool:
    """Whether the fiber staircases form a chain under inclusion."""
    stairs = list(fiber_staircases(points).values())
    return all(s <= t or t <= s for s in stairs for t in stairs)


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
    # sets that share (x, y): fibered and box sets, and subsets of F_7^3
    # whose fiber staircases are not nested
    sets += [fibered_points(random_pattern(rng), rng) for _ in range(40)]
    sets += [box_points(rng, most=40) for _ in range(40)]
    cube = [(x, y, z) for x in range(7) for y in range(7) for z in range(7)]
    unnested = []
    while len(unnested) < 30:
        points = PointSet(7, tuple(rng.sample(cube, rng.randint(4, 60))))
        if not nested(points):
            unnested.append(points)
    sets += unnested + [FOUND_SET]
    # shared (x, y) at p = 2^31 - 1: 1-3 z-values on each (x, y)
    for _ in range(6):
        pattern = tuple(
            tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4))) for _ in range(rng.randint(1, 4))
        )
        sets.append(fibered_points(pattern, rng, 2**31 - 1))
    return sets


DIFFERENTIAL_SETS = _differential_sets()
# the FOUND set and the subsets of F_7^3 whose fiber staircases are not nested
UNNESTED_SETS = [FOUND_SET] + [s for s in DIFFERENTIAL_SETS if s.prime == 7 and not nested(s)]


@pytest.mark.parametrize("p", PRIMES)
def test_fibers_match_the_loop(p):
    for points in (s for s in DIFFERENTIAL_SETS if s.prime == p):
        G = vanishing_basis(points)
        assert G == fat_point_basis(points, [PLAIN_POINT] * len(points.points)), points
        assert G.radical


def test_basis_ignores_the_order_of_the_points():
    """The fibers follow the order the points give them, and the basis
    does not: a seeded shuffle of every set gives the same basis."""
    rng = random.Random(3)
    for points in DIFFERENTIAL_SETS:
        shuffled = list(points.points)
        rng.shuffle(shuffled)
        assert vanishing_basis(PointSet(points.prime, tuple(shuffled))) == vanishing_basis(points), points


def test_one_node_table_per_fiber_level(monkeypatch):
    """Every `_Fibers` level builds exactly one `_Nodes`, also where the
    fiber staircases are not nested: six levels and six tables on the
    FOUND set, and as many tables as levels on the non-nested subsets of
    F_7^3."""
    built = {lazard._Fibers: 0, _Nodes: 0}
    init = lazard._Fibers.__init__

    def level(self, *args):
        built[lazard._Fibers] += 1
        init(self, *args)

    def table(*args):
        built[_Nodes] += 1
        return _Nodes(*args)

    monkeypatch.setattr(lazard._Fibers, "__init__", level)
    monkeypatch.setattr(lazard, "_Nodes", table)
    vanishing_basis(FOUND_SET)
    assert built == {lazard._Fibers: 6, _Nodes: 6}
    assert len(UNNESTED_SETS) > 30
    for points in UNNESTED_SETS:
        built.update(dict.fromkeys(built, 0))
        vanishing_basis(points)
        assert built[_Nodes] == built[lazard._Fibers], points


def test_blocks_split_the_fibers():
    """At every level, the block of m holds A_m, the fibers whose staircase
    holds m, with m's position on each, and `outside` is the rest: on the
    FOUND set and on the non-nested subsets of F_7^3."""

    def walk(level):
        for m, (on, positions, outside, _) in level.blocks.items():
            holding = [i for i, fiber in enumerate(level.fibers) if m in fiber.staircase]
            assert list(on) == holding
            assert list(positions) == [level.fibers[i].staircase.index(m) for i in on]
            assert sorted(outside) == [i for i in range(level.k) if i not in on]
        for fiber in level.fibers:
            if isinstance(fiber, lazard._Fibers):
                walk(fiber)

    for points in UNNESTED_SETS:
        walk(lazard._Fibers([(z, y, x) for x, y, z in points.points], points.prime))


@pytest.mark.parametrize("p", PRIMES)
def test_solve_system_returns_the_points(p):
    for points in (s for s in DIFFERENTIAL_SETS if s.prime == p):
        G = vanishing_basis(points)
        solutions = solve_system(G)
        assert list(solutions) == sorted(points.points)
        assert len(solutions) == quotient_dimension(G)


def test_lc_x_vanishes_exactly_on_the_larger_fibers():
    """Lazard's theorem on every plain point set: lc_x(g) is the product of
    (x - a) over the x-values a whose fiber staircase holds lm_yz(g).  On
    an (x, y)-injective set those are the fibers of more than j points, for
    g headed x^i y^j, and none for the z element."""
    for points in DIFFERENTIAL_SETS:
        p, stairs = points.prime, fiber_staircases(points)
        F = PrimeField(p)
        for g in vanishing_basis(points):
            head = g.lm()
            holding = sorted(a for a, stair in stairs.items() if (head.b, head.c) in stair)
            expected = Polynomial(F, [((0, 0, e), c) for e, c in enumerate(_from_roots(holding, p))])
            assert g.lc_x() == expected, (points, g)


def test_one_path_for_plain_points(monkeypatch, tmp_path, capsys):
    """No plain point set reaches the loop: with `fat_point_basis` made to
    raise, `vanishing_basis` still gives the loop's basis, computed
    beforehand, on a shared (x, y), on unreduced coordinates sharing one
    mod 7, and on unreduced injective ones; and it rejects duplicates mod p
    and empty input itself, so the CLI still exits 2 on them."""
    cases = (
        ((1, 2, 3), (1, 2, 4), (5, 6, 0)),  # a shared (x, y)
        ((8, 2, 3), (1, 9, 4)),  # unreduced, sharing (1, 2) mod 7
        ((8, 2, 3), (1, 10, 4), (-1, 0, 13)),  # unreduced, injective mod 7
    )
    expected = [fat_point_basis(PointSet(7, pts), [PLAIN_POINT] * len(pts)) for pts in cases]

    def refuse(*args):
        raise AssertionError("vanishing_basis called fat_point_basis")

    monkeypatch.setattr(instances, "fat_point_basis", refuse)
    for pts, G in zip(cases, expected):
        assert vanishing_basis(PointSet(7, pts)) == G
    # equal mod 7: one point twice
    with pytest.raises(ValueError, match="points must be distinct"):
        vanishing_basis(PointSet(7, ((1, 2, 3), (8, 2, 3))))
    with pytest.raises(ValueError, match="empty point set"):
        vanishing_basis(PointSet(7, ()))
    for name, pts in (("duplicate", [[1, 2, 3], [8, 2, 3]]), ("empty", [])):
        src = tmp_path / f"{name}.json"
        src.write_text(json.dumps({"p": 7, "points": pts}))
        assert main(["gb", str(src)]) == 2
    err = capsys.readouterr().err
    assert "points must be distinct" in err and "empty point set" in err


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
    """The 300 fibered sets and 200 box sets of 1-40 points: 58 of them are
    (x, y)-injective, and the others share (x, y)."""
    rng = random.Random(7)
    sets = [fibered_points(random_pattern(rng), rng) for _ in range(300)]
    sets += [box_points(rng, most=40) for _ in range(200)]
    assert sum(len({pt[:2] for pt in s.points}) == len(s) for s in sets) == 58
    for points in sets:
        assert standard_monomials(vanishing_basis(points)) == lex_game_staircase(points), points


def _check_subset(table, on, values):
    nodes, p, m = table.nodes, table.p, len(on)
    g = table.interpolate(values, on)
    assert len(g) == m and [_horner(g, nodes[i], p) for i in on] == values
    master = table.master(on)
    assert master[-1] == 1 and len(master) == m + 1
    assert all(_horner(master, nodes[i], p) == 0 for i in on)


@pytest.mark.parametrize("p", PRIMES)
def test_packed_nodes_follow_horner(p):
    """Evaluation at every node, and interpolation and the master product
    over every prefix of the nodes (the empty and the full one included),
    over every singleton, over the nodes reversed and without the first,
    and over random subsets in random order."""
    rng, pick = random.Random(p), random.Random(-p)
    for _ in range(20):
        nodes = _draw(rng, p, rng.randint(1, min(p, 30)))
        k = len(nodes)
        table = _Nodes(nodes, p)
        f = [rng.randrange(p) for _ in range(k)]
        assert table.evaluate(f) == [_horner(f, a, p) for a in nodes]
        for m in range(k + 1):
            _check_subset(table, tuple(range(m)), [rng.randrange(p) for _ in range(m)])
        subsets = [(i,) for i in range(k)] + [tuple(range(k - 1, -1, -1)), tuple(range(1, k))]
        subsets += [tuple(pick.sample(range(k), pick.randint(0, k))) for _ in range(10)]
        for on in subsets:
            _check_subset(table, on, [pick.randrange(p) for _ in on])
