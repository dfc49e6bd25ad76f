"""Prime-field coefficient arithmetic."""

import random
from fractions import Fraction

import pytest

from lexgb import PrimeField
from lexgb.field import is_prime


def test_small_prime_arithmetic():
    F = PrimeField(7)
    assert F.p == 7
    assert (F(3) + F(5)) % F.p == F(1)
    assert F(3) * F(5) % F.p == F(1)
    assert (F(2) - F(5)) % F.p == F(4)
    assert -F(3) % F.p == F(4)
    assert F.inv(F(3)) == F(5)
    assert F(1) * F.inv(F(3)) % F.p == F(5)
    assert F.inv(F(2)) == F(4)


def test_canonical_residues():
    F = PrimeField(7)
    assert F(10) == F(3) == 3
    assert F(-1) == F(6) == 6
    assert F.coerce(10) == 3 and F.coerce(-1) == 6
    assert all(type(F(n)) is int and 0 <= F(n) < 7 for n in range(-20, 20))
    assert str(F(9)) == "2"


def test_zero_has_no_inverse():
    F = PrimeField(7)
    with pytest.raises(ZeroDivisionError):
        F.inv(F(0))
    with pytest.raises(ZeroDivisionError):
        F.inv(14)


def test_modulus_must_be_prime():
    for bad in (0, 1, 4, 6, 100, -7):
        with pytest.raises(ValueError):
            PrimeField(bad)
    assert PrimeField(2).p == 2
    assert PrimeField(101).p == 101


def test_is_prime():
    sieve = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-2, 50):
        assert is_prime(n) == (n in sieve)
    assert is_prime(101)
    assert is_prime(7919)
    assert not is_prime(7917)


def trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_is_miller_rabin_exact_to_its_bound():
    assert all(is_prime(n) == trial_division(n) for n in range(20000))
    # a Carmichael number, and a strong pseudoprime to the bases 2, 3, 5, 7
    assert not is_prime(561)
    assert not is_prime(3215031751)
    # 2^61 - 1 is a Mersenne prime; trial division would need 7.6 * 10^8 steps
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    # 318665857834031151167461 is the least strong pseudoprime to the twelve
    # bases 2..37, so from there on the test could answer wrongly
    for n in (318665857834031151167461, 2**127 - 1):
        with pytest.raises(ValueError):
            is_prime(n)
        with pytest.raises(ValueError):
            PrimeField(n)


def test_is_prime_is_memoized_and_still_raises_past_its_bound():
    is_prime.cache_clear()
    for _ in range(3):
        assert is_prime(2**31 - 1) and not is_prime(2**31 + 1)
        PrimeField(101)
    info = is_prime.cache_info()
    assert (info.misses, info.hits) == (3, 6)
    # a raise leaves nothing in the cache: every call at the bound raises
    for _ in range(2):
        with pytest.raises(ValueError):
            is_prime(318665857834031151167461)
        with pytest.raises(ValueError):
            PrimeField(318665857834031151167461)
    assert is_prime.cache_info().currsize == 3
    # the largest modulus below the bound is still accepted, and cached
    assert PrimeField(318665857834031151167441).p == 318665857834031151167441
    assert is_prime.cache_info().currsize == 4


def test_field_axioms_random():
    F = PrimeField(101)
    mod = F.p
    rng = random.Random(42)
    for _ in range(1000):
        a, b, c = (F(rng.randrange(101)) for _ in range(3))
        assert (a + b + c) % mod == (a + (b + c) % mod) % mod
        assert a * b % mod * c % mod == a * (b * c % mod) % mod
        assert a * (b + c) % mod == (a * b + a * c) % mod
        assert (a + F(-a)) % mod == 0
        if a != 0:
            assert a * F.inv(a) % mod == 1


def test_element_enumeration():
    assert list(PrimeField(11).elements()) == list(range(11))


def test_coercion_errors():
    F = PrimeField(7)
    with pytest.raises(TypeError):
        F(1.5)
    with pytest.raises(TypeError):
        F.coerce(Fraction(1, 2))
    with pytest.raises(TypeError):
        F.coerce("3/4")
