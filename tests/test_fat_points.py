"""Fat points: the dual-functional loop over Taylor coefficients.

The oracles here share no code with lexgb's arithmetic.  A basis G of the
fat points (P, D_P) is right when every element has a zero Taylor
coefficient at every (P, d), computed below with plain integer binomials
mod p, when G is a Groebner basis, and when its quotient has dimension
sum |D_P|: the ideal of G then lies inside the ideal the functionals cut
out, with a quotient of the same dimension, so the two are equal.
"""

import random
from math import comb

import pytest

from lexgb import groebner, instances, packed
from lexgb.groebner import buchberger, is_groebner_basis, quotient_dimension
from lexgb.instances import (
    FIRST_ORDER,
    PLAIN_POINT,
    RANDOM_TRIANGULAR,
    SQUARED_VANISHING,
    InstanceRecipe,
    PointSet,
    build_instance,
    fat_point_basis,
    random_points,
    squared_vanishing_basis,
    vanishing_basis,
)

from helpers import FIBERED_PATTERNS, fibered_points, random_shape, squared_products

SHAPES = {
    "along-z": ((0, 0, 0), (0, 0, 1)),
    "along-y": ((0, 0, 0), (0, 1, 0)),
    "along-x": ((0, 0, 0), (1, 0, 0)),
    "first-order": FIRST_ORDER,
    "z-squared": ((0, 0, 0), (0, 0, 1), (0, 0, 2)),
}


def taylor_coefficient(g, point, d, p) -> int:
    """The coefficient of (x - a)^dx (y - b)^dy (z - c)^dz in g, for a point
    (a, b, c) and d = (dx, dy, dz), from g's serialized terms."""
    total = 0
    for term in g.to_dict()["terms"]:
        coeff = term["c"]
        for e, v, k in zip(term["e"], point, d):
            coeff *= comb(e, k) * v ** (e - k) if e >= k else 0
        total += coeff
    return total % p


def assert_fat_point_oracles(points, shapes):
    G = fat_point_basis(points, shapes)
    p = points.prime
    assert is_groebner_basis(G)
    assert quotient_dimension(G) == sum(len(set(shape)) for shape in shapes)
    for g in G:
        for point, shape in zip(points.points, shapes):
            for d in shape:
                assert taylor_coefficient(g, point, d, p) == 0, (g.text(), point, d)
    return G


@pytest.mark.parametrize("name", SHAPES)
def test_fat_points_on_fibered_sets(name):
    rng = random.Random(1993)
    for pattern in FIBERED_PATTERNS:
        points = fibered_points(pattern, rng)
        # every point fat, then a mix with plain points
        assert_fat_point_oracles(points, [SHAPES[name]] * len(points))
        mixed = [rng.choice((PLAIN_POINT, SHAPES[name])) for _ in points.points]
        assert_fat_point_oracles(points, mixed)


@pytest.mark.parametrize("prime", [2, 3, 7, 101])
def test_fat_points_on_random_sets(prime):
    rng = random.Random(prime)
    for _ in range(6):
        points = random_points(rng.randint(1, min(6, prime**3)), rng.randrange(10**6), prime)
        shapes = [rng.choice(list(SHAPES.values()) + [PLAIN_POINT]) for _ in points.points]
        assert_fat_point_oracles(points, shapes)


def test_fat_point_basis_matches_buchberger_on_squared_products():
    rng = random.Random(1982)
    sets = [fibered_points(pattern, rng) for pattern in FIBERED_PATTERNS]
    for prime in (2, 3, 7, 101):
        for _ in range(4):
            sets.append(random_points(rng.randint(1, min(7, prime**3)), rng.randrange(10**6), prime))
    for points in sets:
        squared = buchberger(squared_products(vanishing_basis(points)))
        G = fat_point_basis(points, [FIRST_ORDER] * len(points))
        assert G.elements == squared.elements
        assert G.elements == squared_vanishing_basis(points).elements


@pytest.mark.parametrize("prime", [2, 7, 101])
def test_fat_point_basis_ignores_the_order_of_the_points(prime):
    """The rows are made in the order the points give their functionals,
    and the basis does not follow it: a seeded shuffle of each set, every
    point keeping its shape, gives the same elements."""
    rng = random.Random(prime)
    sets = [fibered_points(pattern, rng, prime) for pattern in FIBERED_PATTERNS] if prime > 2 else []
    sets += [random_points(rng.randint(1, min(7, prime**3)), rng.randrange(10**6), prime) for _ in range(8)]
    for points in sets:
        for shapes in ([FIRST_ORDER] * len(points), [random_shape(rng, rng.randint(1, 6)) for _ in points.points]):
            pairs = list(zip(points.points, shapes))
            rng.shuffle(pairs)
            shuffled = PointSet(prime, tuple(pt for pt, _ in pairs))
            G = fat_point_basis(shuffled, [shape for _, shape in pairs])
            assert G.elements == fat_point_basis(points, shapes).elements, (points, shapes)


@pytest.mark.parametrize("prime", [2, 101, 10007, 2**31 - 1])
def test_fat_point_loop_keeps_every_slot_within_its_bound(prime, monkeypatch):
    """The loop asks for the bound its docstring proves, max(n, 2) p^2 + 2p
    over 2n + 1 slots, and every vector it hands to `halve` or `residues`
    fits those slots within that bound, on one plain point, first-order,
    single-axis and mixed shapes."""
    seen = []

    def guarded(p, bound, slots):
        nb, halve, residues = packed.residuer(p, bound, slots)
        seen.append((p, bound, slots))

        def within(x):
            # raises OverflowError past the last slot
            assert max(packed.unpack(x, nb, slots, 1 << 8 * nb)) <= bound
            return x

        return nb, lambda x: halve(within(x)), lambda x: residues(within(x))

    monkeypatch.setattr(instances, "residuer", guarded)
    rng = random.Random(prime)
    cases = []
    for _ in range(6):
        points = random_points(rng.randint(1, min(8, prime**3)), rng.randrange(10**6), prime)
        cases.append((points, [FIRST_ORDER] * len(points)))
        cases.append((points, [random_shape(rng, rng.randint(1, 6)) for _ in points.points]))
        point = PointSet(prime, (points.points[0],))
        cases += [(point, [PLAIN_POINT]), (point, [rng.choice((SHAPES["z-squared"], SHAPES["along-x"]))])]
    for points, shapes in cases:
        seen.clear()
        fat_point_basis(points, shapes)
        n = sum(len(set(shape)) for shape in shapes)
        assert seen == [(prime, max(n, 2) * prime**2 + 2 * prime, 2 * n + 1)]


def test_squared_vanishing_basis_calls_no_buchberger(monkeypatch):
    # no instance builder runs a completion, nor can reach one by name
    assert "buchberger" not in vars(instances)
    calls = []

    def recorded(*args, **kw):
        calls.append(args)
        return buchberger(*args, **kw)

    monkeypatch.setattr(groebner, "buchberger", recorded)
    G = squared_vanishing_basis(fibered_points(FIBERED_PATTERNS[7], random.Random(5)))
    squared = build_instance(InstanceRecipe(SQUARED_VANISHING, 101, seed=3, n_points=4))
    triangular = build_instance(InstanceRecipe(RANDOM_TRIANGULAR, 101, seed=3, degrees=(3, 2, 2)))
    assert not calls
    assert len(G) > 0 and len(squared.basis) > 0 and len(triangular.basis) == 3


TWO_POINTS = PointSet(101, ((1, 2, 3), (4, 5, 6)))


def test_radical_flag_only_for_plain_shapes():
    assert fat_point_basis(TWO_POINTS, [PLAIN_POINT, [(0, 0, 0)]]).radical
    assert vanishing_basis(TWO_POINTS).radical
    for shape in SHAPES.values():
        assert not fat_point_basis(TWO_POINTS, [PLAIN_POINT, shape]).radical
        assert not fat_point_basis(TWO_POINTS, [shape, shape]).radical
    assert not squared_vanishing_basis(TWO_POINTS).radical


@pytest.mark.parametrize(
    "shapes",
    [
        [PLAIN_POINT],
        [PLAIN_POINT] * 3,
        [],
    ],
    ids=["too-few", "too-many", "none"],
)
def test_rejects_a_shape_count_other_than_the_point_count(shapes):
    with pytest.raises(ValueError, match="shapes for"):
        fat_point_basis(TWO_POINTS, shapes)


@pytest.mark.parametrize(
    "shape",
    [
        (),
        [(0, 0)],
        [(0, 0, 0, 0)],
        [(0, 0, -1)],
        [(0, 0, 0.0)],
        [(0, True, 0)],
        [("0", 0, 0)],
        [0],
        "abc",
        5,
    ],
    ids=[
        "empty", "pair", "quadruple", "negative", "float", "bool", "string-entry", "bare-int", "string", "int"
    ],
)
def test_rejects_a_malformed_shape(shape):
    with pytest.raises(ValueError):
        fat_point_basis(TWO_POINTS, [PLAIN_POINT, shape])


@pytest.mark.parametrize(
    "shape",
    [
        [(0, 0, 1)],
        [(0, 0, 0), (0, 0, 2)],
        [(0, 0, 0), (1, 0, 0), (1, 1, 0)],
    ],
    ids=["no-origin", "gap-along-z", "missing-e_y"],
)
def test_rejects_a_shape_that_is_not_down_closed(shape):
    with pytest.raises(ValueError, match="down-closed"):
        fat_point_basis(TWO_POINTS, [shape, PLAIN_POINT])
