"""Property tests for the kernel: ring axioms, the division contract, normal
forms against `divide` and under scaled divisors, and Buchberger
idempotence and independence of generator order, over F_p, the unit
ideal read off the elements, and the packed-slot codec's round trip."""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from lexgb.field import PrimeField  # noqa: E402
from lexgb.groebner import GroebnerBasis, buchberger, normal_form  # noqa: E402
from lexgb.instances import PointSet, vanishing_basis  # noqa: E402
from lexgb.packed import pack, unpack  # noqa: E402
from lexgb.poly import Monomial, Polynomial, constant, parse_polynomial  # noqa: E402
from lexgb.specialize import solve_system  # noqa: E402

FIELDS = (PrimeField(2), PrimeField(7), PrimeField(101))
FEW = settings(max_examples=30, deadline=None, derandomize=True, database=None)

exponents = st.integers(0, 3)
monomials = st.builds(Monomial, exponents, exponents, exponents)


def coefficients(field):
    return st.integers(-2 * field.p, 2 * field.p)


def polys(field, min_terms=0, max_terms=5):
    terms = st.lists(st.tuples(monomials, coefficients(field)), min_size=min_terms, max_size=max_terms)
    return terms.map(lambda t: Polynomial(field, t))


def nonzero_polys(field, max_terms=4):
    return polys(field, 1, max_terms).filter(bool)


@st.composite
def field_and_polys(draw, count):
    field = draw(st.sampled_from(FIELDS))
    return field, [draw(polys(field)) for _ in range(count)]


@FEW
@given(field_and_polys(3))
def test_ring_axioms(fp):
    field, (a, b, c) = fp
    zero, one = Polynomial(field), Polynomial(field, [(Monomial(0, 0, 0), 1)])
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and (a * zero).is_zero()
    assert (a - a).is_zero() and a + (-a) == zero
    assert a - b == a + (-b)
    if a and b:
        assert (a * b).lm() == a.lm() * b.lm()
        assert (a * b).lc() == a.lc() * b.lc() % field.p


@FEW
@given(field_and_polys(1))
def test_canonical_coefficients(fp):
    field, (a,) = fp
    for m, c in a.terms:
        assert type(m) is Monomial and type(c) is int and 0 < c < field.p
    assert [m for m, _ in a.terms] == sorted({m for m, _ in a.terms}, reverse=True)


@st.composite
def division_problems(draw):
    field = draw(st.sampled_from(FIELDS))
    dividend = draw(polys(field, 0, 8))
    divisors = draw(st.lists(nonzero_polys(field), min_size=1, max_size=3))
    return dividend, divisors


@FEW
@given(division_problems())
def test_divide_contract(problem):
    p, divisors = problem
    quots, rem = p.divide(divisors)
    total = rem
    for q, d in zip(quots, divisors):
        total = total + q * d
    assert total == p
    heads = [d.lm() for d in divisors]
    for m, _ in rem.terms:
        assert not any(h.divides(m) for h in heads)
    for i, q in enumerate(quots):
        for m, _ in q.terms:
            # each quotient term reduced the term m * lm(d_i) of the dividend
            # in progress: it is at most lm(p), and no earlier head divides it
            reduced = m * heads[i]
            assert reduced <= p.lm()
            assert not any(h.divides(reduced) for h in heads[:i])


@FEW
@given(division_problems(), st.data())
def test_normal_form_is_the_remainder_for_any_divisor_scale(problem, data):
    p, divisors = problem
    r = normal_form(p, divisors)
    assert r == p.divide(divisors)[1]
    # a reduction step scales each divisor by the inverse of its leading
    # coefficient, so scaling a divisor changes no step
    units = st.integers(1, p.field.p - 1)
    scaled = [d.scale(data.draw(units)) for d in divisors]
    assert normal_form(p, scaled) == r


@FEW
@given(st.sampled_from(FIELDS).flatmap(lambda f: st.lists(nonzero_polys(f, 3), min_size=1, max_size=3)))
def test_buchberger_is_idempotent_on_reduced_bases(gens):
    G = buchberger(gens)
    again = buchberger(G.elements)
    assert again.elements == G.elements and again.unit_ideal == G.unit_ideal


@FEW
@given(
    st.sampled_from(FIELDS).flatmap(lambda f: st.lists(nonzero_polys(f, 3), min_size=1, max_size=4)),
    st.randoms(use_true_random=False),
)
def test_buchberger_ignores_generator_order(gens, rng):
    shuffled = list(gens)
    rng.shuffle(shuffled)
    G, H = buchberger(gens), buchberger(shuffled)
    assert H.elements == G.elements and H.unit_ideal == G.unit_ideal


def _units(field):
    return st.integers(0, field.p - 1).map(lambda c: constant(field, c))


def _parsed(*texts):
    return [parse_polynomial(FIELDS[2], t) for t in texts]


@FEW
@given(st.sampled_from(FIELDS).flatmap(lambda f: st.lists(polys(f, 0, 3) | _units(f), min_size=1, max_size=4)))
@example(_parsed("0"))
@example(_parsed("5"))
@example(_parsed("1", "x"))
@example(_parsed("x", "y", "3"))
@example(_parsed("y", "0", "x + 1"))
def test_the_unit_ideal_is_read_off_the_elements(elems):
    # any container, unsorted and with zero elements, is the unit ideal
    # exactly when an element is a nonzero constant; its reduced basis is (1)
    unit = any(g.is_constant() and not g.is_zero() for g in elems)
    assert GroebnerBasis(tuple(elems)).unit_ideal == unit
    if any(elems):
        G = buchberger(elems)
        assert G.unit_ideal == (G.elements == (constant(G.field, 1),))
        assert not unit or G.unit_ideal


points = st.lists(st.tuples(*(st.integers(0, 6),) * 3), min_size=1, max_size=8, unique=True)


@FEW
@given(points)
def test_solve_system_recovers_the_points(pts):
    S = PointSet(7, tuple(pts))
    V = vanishing_basis(S)
    assert buchberger(V.elements).elements == V.elements
    assert solve_system(V) == tuple(sorted(pts))


@st.composite
def packed_vectors(draw):
    nb = draw(st.sampled_from((1, 2, 4, 8, 9, 15, 16, 17, 24)))
    values = draw(st.lists(st.integers(0, (1 << 8 * nb) - 1), max_size=40))
    p = draw(st.sampled_from((2, 101, 2**31 - 1, 2**61 - 1, 318665857834031151167441)))
    return nb, values, p


@FEW
@given(packed_vectors())
def test_pack_unpack_round_trip(vector):
    nb, values, p = vector
    x = pack(values, nb)
    assert x == sum(v << 8 * nb * i for i, v in enumerate(values))
    assert unpack(x, nb, len(values), p) == [v % p for v in values]
