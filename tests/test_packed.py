"""The packed-slot kernels against their list-based references, and a large
instance that only the packed kernels make quick."""

import random

import pytest

from lexgb.field import PrimeField
from lexgb.instances import FIRST_ORDER, PLAIN_POINT, PointSet, fat_point_basis, random_points, vanishing_basis
from lexgb.packed import halver, pack, unpack
from lexgb.specialize import _pow_linear, _roots, solve_system

from helpers import reference_fat_point_basis, reference_powmod

PRIMES = (2, 3, 7, 101, 1009, 2**31 - 1, 2**61 - 1)
DEGREES = (1, 2, 3, 4, 5, 6, 7, 8, 13, 29, 80)


def test_pack_round_trip_and_halve():
    rng = random.Random(8)
    for p in PRIMES:
        bound = 5 * 80 * p * p
        nb, halve = halver(p, bound, 80)
        values = [rng.randint(0, bound) for _ in range(79)] + [bound]
        x = pack(values, nb)
        assert unpack(x, nb, 80, p) == [v % p for v in values]
        halved = unpack(halve(x), nb, 80, 2 * p)  # residues mod 2p: the slots as they are
        assert all(h < 2 * p and h % p == v % p for h, v in zip(halved, values))


@pytest.mark.parametrize("p", PRIMES)
def test_pow_linear_matches_schoolbook(p):
    rng = random.Random(p)
    for d in DEGREES:
        if p == PRIMES[-1]:
            # every entry at its largest: the widest slots
            m = [p - 1] * d + [1]
        else:
            m = [rng.randrange(p) for _ in range(d)] + [1]
        # both shifts and both exponents, as x^p in `_roots` and the
        # (x + s)^((p - 1)/2) of `_split` use them
        for s, e in ((0, p), (p - 1, (p - 1) // 2)):
            assert _pow_linear(s, e, m, p) == reference_powmod([s, 1], e, m, p), (d, s, e)


@pytest.mark.parametrize("p", [7, 101, 1009, 2**31 - 1])
def test_roots_of_a_non_monic_f_are_those_of_its_monic_form(p):
    rng = random.Random(p)
    for _ in range(20):
        f = [rng.randrange(p) for _ in range(rng.randint(2, 12))] + [rng.randrange(2, p)]
        inv = pow(f[-1], p - 2, p)
        assert _roots(f, p) == _roots([c * inv % p for c in f], p)


def random_shape(rng, size):
    """A down-closed shape of up to `size` exponent triples."""
    shape = {(0, 0, 0)}
    for _ in range(size - 1):
        d = list(rng.choice(sorted(shape)))
        d[rng.randrange(3)] += 1
        d = tuple(d)
        if all(not d[k] or d[:k] + (d[k] - 1,) + d[k + 1 :] in shape for k in range(3)):
            shape.add(d)
    return tuple(sorted(shape))


def single_axis(rng):
    axis, length = rng.randrange(3), rng.randint(2, 4)
    return tuple(tuple(j if k == axis else 0 for k in range(3)) for j in range(length))


@pytest.mark.parametrize("p", [2, 7, 101, 2**61 - 1])
def test_fat_point_basis_matches_the_list_loop(p):
    rng = random.Random(p)
    for kind in ("plain", "first-order", "single-axis", "mixed"):
        for _ in range(3):
            points = random_points(rng.randint(1, min(8, p**3)), rng.randrange(10**6), p)
            shapes = {
                "plain": lambda: PLAIN_POINT,
                "first-order": lambda: FIRST_ORDER,
                "single-axis": lambda: single_axis(rng),
                "mixed": lambda: random_shape(rng, rng.randint(1, 6)),
            }[kind]
            shapes = [shapes() for _ in points.points]
            expected = reference_fat_point_basis(points, shapes)
            assert fat_point_basis(points, shapes).elements == expected, (kind, shapes)


def test_vanishing_basis_accepts_only_the_points_own_field():
    points = PointSet(101, ((1, 2, 3), (4, 5, 6)))
    assert vanishing_basis(points, PrimeField(101)).elements == vanishing_basis(points).elements
    with pytest.raises(ValueError, match="F_101"):
        vanishing_basis(points, PrimeField(103))


def test_large_instance_smoke():
    p = 2**31 - 1
    rng = random.Random(120)
    pts = set()
    while len(pts) < 120:
        pts.add((rng.randrange(p), rng.randrange(p), rng.randrange(p)))
    points = PointSet(p, tuple(pts))
    G = vanishing_basis(points)
    assert all(g.evaluate(pt) == 0 for g in G.elements for pt in points.points)
    assert solve_system(G) == tuple(sorted(points.points))
