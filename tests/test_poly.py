"""Monomials, polynomial arithmetic, staged leading data, division."""

import pickle
import random

import pytest

from lexgb.field import PrimeField
from lexgb.poly import (
    MONOMIAL_ONE,
    Monomial,
    Polynomial,
    ZeroPolynomialError,
    constant,
    parse_polynomial,
    poly_from_dict,
)

from helpers import random_monomial, random_poly

F101 = PrimeField(101)
F7 = PrimeField(7)


def P(text, field=F101):
    return parse_polynomial(field, text)


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial(-1, 0, 0)
    with pytest.raises(ValueError):
        Monomial(0, 2, -3)
    assert Monomial(0, 0, 0) == MONOMIAL_ONE


def test_lex_order_z_dominates():
    # z outweighs any power of x and y, and y outweighs any power of x.
    assert Monomial(0, 0, 1) > Monomial(5, 5, 0)
    assert Monomial(0, 1, 0) > Monomial(9, 0, 0)
    assert Monomial(2, 1, 2) > Monomial(3, 0, 2)
    assert Monomial(3, 0, 2) < Monomial(2, 1, 2)
    assert not Monomial(1, 2, 3) < Monomial(1, 2, 3) and Monomial(1, 2, 3) == Monomial(1, 2, 3)
    assert Monomial(1, 0, 0) < Monomial(2, 0, 0)


def test_lex_order_is_total_and_multiplicative():
    rng = random.Random(11)
    for _ in range(500):
        m1 = random_monomial(rng)
        m2 = random_monomial(rng)
        m3 = random_monomial(rng)
        c = (m1 > m2) - (m1 < m2)
        assert c == (m2 < m1) - (m2 > m1)
        if c == 0:
            assert m1 == m2
        # multiplying by a common monomial preserves the comparison
        assert (m1 * m3 > m2 * m3) - (m1 * m3 < m2 * m3) == c


def test_monomial_division_and_lcm():
    m = Monomial(2, 1, 3)
    d = Monomial(1, 0, 2)
    assert d.divides(m)
    assert m // d == Monomial(1, 1, 1)
    assert not m.divides(d)
    with pytest.raises(ValueError):
        d // m
    assert m.lcm(Monomial(0, 4, 1)) == Monomial(2, 4, 3)
    assert Monomial(2, 0, 0).is_coprime(Monomial(0, 1, 3))
    assert not Monomial(2, 1, 0).is_coprime(Monomial(0, 1, 3))


def test_canonical_form_combines_and_drops_zeros():
    p = Polynomial(F7, [(Monomial(1, 0, 0), 3), (Monomial(0, 0, 0), 0)])
    q = Polynomial(F7, [(Monomial(1, 0, 0), F7(10))])
    assert p == q
    assert Polynomial(F7, [(Monomial(2, 0, 0), 7)]).is_zero()
    duplicated = Polynomial(F7, [(Monomial(1, 0, 0), 2), (Monomial(1, 0, 0), 5)])
    assert duplicated.is_zero()
    r = P("x + 1", F7) + P("6*x + 2", F7)
    assert r == P("3", F7)
    assert not Polynomial(F7)
    assert P("x", F7)


def test_terms_sorted_descending():
    p = P("x^2*y*z^2 + y*z^2 + x^3*z^2 + y^3")
    keys = [m for m, _ in p.terms]
    assert keys == sorted(keys, reverse=True)
    assert p.lm() == Monomial(2, 1, 2)


def test_leading_data_simple():
    p = P("z + y^3 + x^5")
    assert p.lm() == Monomial(0, 0, 1)
    assert int(p.lc()) == 1
    assert p.terms[:1] == P("z").terms


def test_zero_polynomial_has_no_leading_data():
    z = Polynomial(F101)
    for attr in ("lm", "lc", "lc_x", "lm_yz", "lc_xy"):
        with pytest.raises(ZeroPolynomialError):
            getattr(z, attr)()


def test_staged_leading_data_worked_example():
    p = P("x^2*y*z^2 + y*z^2 + x^3*z^2 + y^3")
    assert p.lc_x() == P("x^2 + 1")
    assert p.lm_yz() == Monomial(0, 1, 2)
    assert p.lc_xy() == P("x^2*y + y + x^3")
    assert p.lm().c == 2


def test_staged_leading_data_small_examples():
    p = P("x*z + 100*z")
    assert p.lc_x() == P("x + 100")
    assert p.lm_yz() == Monomial(0, 0, 1)
    assert p.lc_xy() == P("x + 100")
    assert p.lm().c == 1

    q = P("y^2 + 100*y")
    # no z at all: the z-stage keeps the whole polynomial
    assert q.lc_xy() == q
    assert q.lm().c == 0
    assert q.lc_x() == P("1")
    assert q.lm_yz() == Monomial(0, 2, 0)


def test_staged_identity_random():
    """lt(p) is recovered from either stage of the leading data."""
    rng = random.Random(23)
    for _ in range(1000):
        p = random_poly(F101, rng, nonzero=True)
        lt = p.terms[:1]
        via_x = p.lc_x() * Polynomial(F101, [(p.lm_yz(), 1)])
        via_xy = p.lc_xy() * Polynomial(F101, [(Monomial(0, 0, p.lm().c), 1)])
        assert via_x.terms[:1] == lt
        assert via_xy.terms[:1] == lt


def test_arithmetic_identities():
    rng = random.Random(31)
    for _ in range(300):
        p = random_poly(F7, rng)
        q = random_poly(F7, rng)
        r = random_poly(F7, rng)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert (p - p).is_zero()
        assert p * constant(F7, 1) == p


def test_power_and_monic():
    p = P("x + 1", F7)
    assert p ** 3 == P("x^3 + 3*x^2 + 3*x + 1", F7)
    assert p ** 0 == P("1", F7)
    q = P("3*x^2 + 6", F7)
    assert q.monic() == P("x^2 + 2", F7)
    assert int(q.monic().lc()) == 1


def test_evaluate_and_substitute():
    p = P("x^2*y + z + 5")
    assert int(p.evaluate((2, 3, 4))) == (4 * 3 + 4 + 5) % 101
    assert p.substitute_x(F101(2)) == P("4*y + z + 5")
    q = P("x*y^2 + y + x")
    assert q.substitute_y(F101(3)) == P("9*x + x + 3")


def test_evaluate_matches_modular_powers():
    p = 2**61 - 1
    field = PrimeField(p)
    rng = random.Random(61)
    for _ in range(40):
        f = random_poly(field, rng, max_deg=9, max_terms=10)
        point = [rng.randrange(p) for _ in range(3)]
        if rng.random() < 0.3:
            point[rng.randrange(3)] = rng.choice([0, 1, p - 1])
        x, y, z = point
        expected = sum(k * pow(x, m.a, p) * pow(y, m.b, p) * pow(z, m.c, p) for m, k in f.terms) % p
        assert f.evaluate(point) == expected


def test_evaluate_takes_huge_exponents_at_once():
    # each power is one modular exponentiation, with no table up to the
    # exponent (which here would hold 10^9 entries)
    e = 10**9
    f = P(f"x^{e} + 1")
    assert f.evaluate((2, 0, 0)) == (pow(2, e, 101) + 1) % 101
    g = Polynomial(F101, [(Monomial(e, e + 7, 3 * e), 1), (MONOMIAL_ONE, 1)])
    assert g.evaluate((2, 3, 5)) == (pow(2, e, 101) * pow(3, e + 7, 101) * pow(5, 3 * e, 101) + 1) % 101


def test_lex_head_drop_under_specialization():
    # substituting x can only lower or kill terms, never create new monomials;
    # the image keeps the head lm_yz(p), with coefficient lc_x(p)(alpha),
    # exactly when that value is nonzero
    rng = random.Random(47)
    vanishing = 0
    for trial in range(200):
        p = random_poly(F101, rng, nonzero=True)
        if trial % 2:
            # a leading block z^4 * u(x), so lc_x(p) = u has several terms
            # and often several roots
            u = Polynomial(F101, [(Monomial(a, 0, 0), rng.randrange(101)) for a in range(4)])
            p = p + u * P("z^4")
        lcx = p.lc_x()
        assert lcx.is_constant() == (p.lm().a == 0)
        roots = [v for v in range(101) if not lcx.evaluate((v, 0, 0))]
        alpha = rng.choice(roots) if roots and trial % 3 else rng.randrange(101)
        img = p.substitute_x(alpha)
        if not img.is_zero():
            assert img.lm() <= p.lm()
        lc_at = lcx.evaluate((alpha, 0, 0))
        keeps_head = not img.is_zero() and img.lm() == p.lm_yz() and img.lc() == lc_at
        assert keeps_head == (lc_at != 0)
        vanishing += not lc_at
    assert vanishing > 50


def test_parse_round_trip():
    texts = [
        "x^2*y*z^2 + y*z^2 + x^3*z^2 + y^3",
        "x^2 + 100*x",
        "z^2 + 100*z",
        "1",
        "100",
        "x*z + 100*z",
    ]
    for t in texts:
        assert P(t).text() == t


def test_parse_variants():
    assert P("-x + 1") == P("100*x + 1")
    assert P(" x ^ 2 ") == P("x^2")
    assert P("x - x").is_zero()
    assert P("0").is_zero()
    assert Polynomial(F101).text() == "0"


def test_parse_rejects_garbage():
    for bad in ("", "x +", "w^2", "x^", "3/4*x", "x**2", "+", "2x"):
        with pytest.raises(ValueError):
            P(bad)


def test_dict_round_trip():
    p = P("x^2*y*z^2 + y^3 + 42")
    d = p.to_dict()
    assert d == {
        "terms": [
            {"c": 1, "e": [2, 1, 2]},
            {"c": 1, "e": [0, 3, 0]},
            {"c": 42, "e": [0, 0, 0]},
        ]
    }
    assert poly_from_dict(F101, d) == p
    rng = random.Random(59)
    for _ in range(200):
        q = random_poly(F101, rng)
        assert poly_from_dict(F101, q.to_dict()) == q


def test_divide_frozen_examples():
    quots, rem = P("x*y^2").divide([P("y^2 + 100*y")])
    assert quots == [P("x")]
    assert rem == P("x*y")

    quots, rem = P("x^2*y + x").divide([P("y")])
    assert quots == [P("x^2")]
    assert rem == P("x")

    # lowest index wins when several divisors match
    quots, rem = P("y^2").divide([P("y + 100"), P("y")])
    assert quots[0] == P("y + 1")
    assert quots[1].is_zero()
    assert rem == P("1")
    quots, rem = P("y^2").divide([P("y"), P("y + 100")])
    assert quots[0] == P("y")
    assert quots[1].is_zero()
    assert rem.is_zero()


def test_divide_contract_random():
    """Reconstruction, irreducible remainder, and the degree bound."""
    rng = random.Random(61)
    for _ in range(500):
        p = random_poly(F101, rng, max_deg=4, max_terms=8)
        divisors = [
            random_poly(F101, rng, max_deg=3, max_terms=4, nonzero=True)
            for _ in range(rng.randrange(1, 4))
        ]
        quots, rem = p.divide(divisors)
        total = rem
        for q, d in zip(quots, divisors):
            total = total + q * d
        assert total == p
        for m, _ in rem.terms:
            assert not any(d.lm().divides(m) for d in divisors)
        if not p.is_zero():
            bound = p.lm()
            for q, d in zip(quots, divisors):
                if not q.is_zero():
                    assert q.lm() * d.lm() <= bound


def test_divide_rejects_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        P("x").divide([Polynomial(F101)])


def _kx_blocks(p):
    """The k[x] blocks of p, keyed by their (y, z) monomial, highest first."""
    blocks = {}
    for m, c in p.terms:
        blocks.setdefault(Monomial(0, m.b, m.c), []).append((Monomial(m.a, 0, 0), c))
    return [(yz, Polynomial(p.field, terms)) for yz, terms in blocks.items()]


def test_x_coefficient_blocks():
    # Dividing by an element of k[x] works block by block: each (y, z) block
    # of the remainder is the remainder of that block of the dividend.
    p = P("x^2*y*z^2 + y*z^2 + x^3*z^2 + y^3")
    blocks = _kx_blocks(p)
    assert [m for m, _ in blocks] == [
        Monomial(0, 1, 2),
        Monomial(0, 0, 2),
        Monomial(0, 3, 0),
    ]
    assert blocks[0][1] == P("x^2 + 1")
    assert blocks[1][1] == P("x^3")
    assert blocks[2][1] == P("1")
    d = P("x^2 + 1")
    _, rem = p.divide([d])
    expected = Polynomial(F101)
    for yz, block in blocks:
        expected = expected + block.divide([d])[1] * Polynomial(F101, [(yz, 1)])
    assert rem == expected == P("100*x*z^2 + y^3")
    assert Monomial(0, rem.lm().b, rem.lm().c) == Monomial(0, 0, 2)


def test_content_divide_exact():
    quots, rem = P("x*z + 100*z").divide([P("x + 100")])
    assert rem.is_zero()
    assert quots == [P("z")]
    assert quots[0] * P("x + 100") == P("x*z + 100*z")


def test_content_divide_witness():
    # x divides neither block of y^2 + 100*y; the remainder's head names the
    # highest one, y^2, whose k[x] coefficient is 1.
    p = P("y^2 + 100*y")
    _, rem = p.divide([P("x")])
    assert not rem.is_zero()
    block_monomial = Monomial(0, rem.lm().b, rem.lm().c)
    assert block_monomial == Monomial(0, 2, 0)
    assert dict(_kx_blocks(p))[block_monomial] == P("1")


def test_content_divide_round_trip():
    rng = random.Random(67)
    for _ in range(300):
        raw = random_poly(F101, rng, max_deg=3, max_terms=3, nonzero=True)
        d = Polynomial(F101, [(Monomial(m.a, 0, 0), c) for m, c in raw.terms])
        if d.is_zero():
            continue
        p = random_poly(F101, rng, max_deg=3, max_terms=5)
        quots, rem = (p * d).divide([d])
        assert rem.is_zero()
        assert quots[0] == p or (p.is_zero() and quots[0].is_zero())


def test_max_degrees_and_region_predicates():
    p = P("x^2*y*z^2 + y^3")
    # the largest x, y and z exponents among the terms
    assert [max(m[k] for m, _ in p.terms) for k in (2, 1, 0)] == [2, 3, 2]
    assert not p.in_kx() and not p.in_kxy()
    assert P("x^3 + 1").in_kx()
    assert P("x*y + 2").in_kxy()
    assert not P("x*y + 2").in_kx()
    assert P("5").is_constant()
    assert Polynomial(F101).is_constant()


# -- the stored representation ---------------------------------------------------


def test_prime_field_coefficients_are_canonical_ints():
    rng = random.Random(5)
    for _ in range(50):
        a, b = random_poly(F7, rng), random_poly(F7, rng, nonzero=True)
        quots, rem = a.divide([b])
        for p in (a, a + b, a - b, -a, a * b, b.monic(), b.lc_x(), a.substitute_x(3), rem, *quots):
            assert all(type(c) is int and 0 < c < 7 for _, c in p.terms)
    given = Polynomial(F7, [(Monomial(1, 0, 0), F7(10)), (MONOMIAL_ONE, -1)])
    assert given.terms == ((Monomial(1, 0, 0), 3), (MONOMIAL_ONE, 6))
    assert all(type(c) is int for _, c in given.terms)
    assert type(given.evaluate((F7(2), 0, 0))) is int and given.evaluate((2, 0, 0)) == 5
    with pytest.raises(TypeError):
        Polynomial(F7, [(MONOMIAL_ONE, 1.5)])


def test_monomials_compare_and_hash_like_their_cba_tuples():
    m = Monomial(1, 2, 3)
    assert m == (3, 2, 1) and hash(m) == hash((3, 2, 1))
    assert (m.a, m.b, m.c) == (1, 2, 3) and tuple(m) == (3, 2, 1)
    assert {m: "v"}[(3, 2, 1)] == "v"
    rng = random.Random(8)
    ms = [random_monomial(rng) for _ in range(200)]
    assert sorted(ms) == sorted(ms, key=tuple)
    assert [tuple(t) for t in sorted(ms)] == sorted(tuple(t) for t in ms)
    assert repr(m) == "Monomial(a=1, b=2, c=3)" and str(m) == "x*y^2*z^3"
    assert pickle.loads(pickle.dumps(m)) == m and type(pickle.loads(pickle.dumps(m))) is Monomial
    with pytest.raises(AttributeError):
        m.a = 5


def test_serialization_round_trips_unchanged():
    g = P("3*x^2*y - z + 5", F7)
    assert g.to_dict() == {
        "terms": [{"c": 6, "e": [0, 0, 1]}, {"c": 3, "e": [2, 1, 0]}, {"c": 5, "e": [0, 0, 0]}]
    }
    assert g.text() == "6*z + 3*x^2*y + 5"
    rng = random.Random(13)
    polys = [random_poly(F101, rng, max_terms=8) for _ in range(30)]
    polys += [Polynomial(F7), g]
    for p in polys:
        for back in (poly_from_dict(p.field, p.to_dict()), parse_polynomial(p.field, p.text())):
            assert back == p and back.to_dict() == p.to_dict() and back.text() == p.text()
        assert pickle.loads(pickle.dumps(p)) == p
