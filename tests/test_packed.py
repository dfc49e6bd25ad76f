"""The packed-slot codec and kernels against their slot-by-slot and
list-based references, and a large instance that only the packed kernels
make quick."""

import random
import struct

import pytest

from lexgb.field import PrimeField
from lexgb.instances import FIRST_ORDER, PLAIN_POINT, PointSet, fat_point_basis, random_points, vanishing_basis
from lexgb.packed import halver, lowest_slot, pack, residuer, slot_bytes, unpack
from lexgb.specialize import solve_system
from lexgb.univariate import _pow_linear, _roots

from helpers import random_shape, reference_fat_point_basis, reference_pack, reference_powmod, reference_unpack

PRIMES = (2, 3, 7, 101, 1009, 2**31 - 1, 2**61 - 1)
DEGREES = (1, 2, 3, 4, 5, 6, 7, 8, 13, 29, 80)
LARGEST_PRIME = 318665857834031151167441  # the largest that `is_prime` accepts
# the four that are one struct item a slot, then wider slots, which are
# converted one at a time
WIDTHS = (1, 2, 4, 8, 9, 15, 16, 17, 24)


def allowed(nb):
    return nb in (1, 2, 4, 8) or nb > 8


def narrowest_allowed(nb):
    return next(w for w in range(max(nb, 1), nb + 8) if allowed(w))


@pytest.mark.parametrize("nb", WIDTHS)
def test_codec_matches_the_byte_string_reference(nb):
    rng = random.Random(nb)
    top = (1 << 8 * nb) - 1
    for p in (2, 101, 2**61 - 1, LARGEST_PRIME):
        for n in (0, 1, 2, 7, 64):
            wide = [rng.randint(0, top) for _ in range(n)]
            if n:
                wide[rng.randrange(n)] = top
            for values in (wide, [rng.randrange(min(p, top + 1)) for _ in range(n)]):
                x = pack(values, nb)
                # little-endian slots, whatever sys.byteorder is
                assert x == reference_pack(values, nb) == sum(v << 8 * nb * i for i, v in enumerate(values))
                assert unpack(x, nb, n, p) == reference_unpack(x, nb, n, p) == [v % p for v in values]
                # trailing empty slots read as zeros
                assert unpack(x, nb, n + 3, p) == reference_unpack(x, nb, n + 3, p)


@pytest.mark.parametrize("nb", WIDTHS)
def test_pack_rejects_values_outside_the_slot(nb):
    for bad in (1 << 8 * nb, (1 << 8 * nb + 64) + 1, -1):
        with pytest.raises((OverflowError, struct.error)):
            pack([0, bad, 0], nb)


def test_widths_are_allowed_and_as_narrow_as_allowed():
    # at and around every power of two up to well past the multiword widths
    bounds = sorted({max(0, (1 << j) + d) for j in range(200) for d in (-1, 0, 1)})
    for bound in bounds:
        needed = (bound.bit_length() + 7) // 8
        assert slot_bytes(bound) == narrowest_allowed(needed), bound
    for p in PRIMES + (1009, 10007, LARGEST_PRIME):
        for bound in [p * (1 << j) for j in range(0, 160, 3)] + [5 * d * p * p for d in DEGREES]:
            nb, _ = halver(p, bound, 2)
            needed = (2 * bound.bit_length() - p.bit_length() + 8) // 8
            assert nb == narrowest_allowed(needed), (p, bound)


def test_pack_round_trip_and_halve():
    rng = random.Random(8)
    for p in PRIMES + (LARGEST_PRIME,):
        bound = 5 * 80 * p * p
        nb, halve = halver(p, bound, 80)
        values = [rng.randint(0, bound) for _ in range(79)] + [bound]
        x = pack(values, nb)
        assert unpack(x, nb, 80, p) == [v % p for v in values]
        halved = unpack(halve(x), nb, 80, 2 * p)  # residues mod 2p: the slots as they are
        assert all(h < 2 * p and h % p == v % p for h, v in zip(halved, values))


@pytest.mark.parametrize("p", [2, 3, 101, 1009, 2**31 - 1, 2**61 - 1])
def test_residues_are_exact_and_the_lowest_slot_is_the_first_nonzero(p):
    # at the fat-point loop's bound for n functionals over its 2n + 1 slots
    rng = random.Random(p)
    for n in (1, 2, 5, 40):
        bound = max(n, 2) * p * p + 2 * p
        nb, _, residues = residuer(p, bound, 2 * n + 1)
        assert nb == halver(p, bound, 2 * n + 1)[0]
        special = [0, 1, p - 1, p, p + 1, 2 * p - 1, 2 * p, p * p, bound - 1, bound]
        for _ in range(30):
            values = [rng.choice(special) if rng.random() < 0.5 else rng.randint(0, bound) for _ in range(2 * n + 1)]
            for zeros in (0, rng.randint(1, 2 * n + 1)):
                values[:zeros] = [0] * zeros
                x, reduced = pack(values, nb), [v % p for v in values]
                exact = residues(x)
                # the slots as they are, with no reduction on reading
                assert unpack(exact, nb, 2 * n + 1, 1 << 8 * nb) == reduced
                for y, slots in ((x, values), (exact, reduced)):
                    if any(slots):
                        assert lowest_slot(y, nb) == next(i for i, v in enumerate(slots) if v)


@pytest.mark.parametrize("p", PRIMES + (251,))
def test_pow_linear_matches_schoolbook(p):
    rng = random.Random(p)
    for d in DEGREES:
        if p in (251, PRIMES[-1]):
            # every entry at its largest: the fullest slots.  At p = 251 the
            # bound 5dp^2 needs 8-byte slots from d = 2 on, where 5p^2 would
            # take 4, so a bound short of its factor d shows here as well
            m = [p - 1] * d + [1]
        else:
            m = [rng.randrange(p) for _ in range(d)] + [1]
        # both shifts and both exponents, as x^p in `_cz_roots` and the
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


def single_axis(rng):
    axis, length = rng.randrange(3), rng.randint(2, 4)
    return tuple(tuple(j if k == axis else 0 for k in range(3)) for j in range(length))


@pytest.mark.parametrize("p", [2, 3, 7, 101, 10007, 2**61 - 1])
def test_fat_point_basis_matches_the_list_loop(p):
    rng = random.Random(p)
    for kind in ("plain", "first-order", "single-axis", "mixed"):
        for _ in range(3):
            points = random_points(rng.randint(1, min(20, p**3)), rng.randrange(10**6), p)
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
