"""Root finding, specialized images, and solving by back-substitution."""

import random

import pytest

from lexgb.field import PrimeField, RationalField
from lexgb.checks import verify_all
from lexgb.groebner import GroebnerBasis, buchberger
from lexgb.instances import PointSet, random_points, squared_vanishing_basis, vanishing_basis
from lexgb.poly import MONOMIAL_ONE, Monomial, Polynomial, parse_polynomial
from lexgb.report import FAIL, OBSERVED, PASS, SKIPPED
from lexgb.specialize import (
    NonSplitError,
    check_fiber_membership,
    check_gianni_kalkbrener,
    check_specialization_image,
    roots_univariate,
    solve_system,
    split_roots,
)

F101 = PrimeField(101)


def P(text):
    return parse_polynomial(F101, text)


def worked_basis():
    return vanishing_basis(PointSet(101, ((0, 0, 0), (1, 0, 0), (1, 0, 1))))


def test_roots_univariate_frozen():
    assert roots_univariate(P("x^2 + 100*x")) == [0, 1]
    assert roots_univariate(P("x^3 + 100*x")) == [0, 1, 100]
    # 10^2 = 100 = -1, so x^2 + 1 splits at 10 and -10
    assert roots_univariate(P("x^2 + 1")) == [10, 91]
    assert roots_univariate(P("5")) == []


def coefficient_list(f):
    out = [0] * (f.max_degrees()[0] + 1)
    for m, c in f.terms:
        out[m.a] = int(c)
    return out


def synthetic_division(coeffs, r, p):
    """(quotient, remainder) of the division by x - r; lowest degree first."""
    q, acc = [], 0
    for c in reversed(coeffs):
        acc = (acc * r + c) % p
        q.append(acc)
    return q[-2::-1], acc


def scan_roots(f):
    """Reference: every residue of F_p at which f vanishes."""
    p = f.field.p
    coeffs = coefficient_list(f)
    return [v for v in range(p) if synthetic_division(coeffs, v, p)[1] == 0]


def scan_split(f):
    """Reference: the roots, and the degree left after dividing out every
    linear factor with its multiplicity."""
    p = f.field.p
    cofactor = coefficient_list(f)
    roots = scan_roots(f)
    for r in roots:
        while True:
            q, rem = synthetic_division(cofactor, r, p)
            if rem:
                break
            cofactor = q
    return roots, len(cofactor) - 1


def kx(field, coeffs):
    return Polynomial(field, [(Monomial(i, 0, 0), c) for i, c in enumerate(coeffs)])


def linear(field, r):
    return Polynomial(field, [(Monomial(1, 0, 0), 1), (MONOMIAL_ONE, -r)])


def random_product(rng, field):
    """A product of random linear factors (some repeated), random quadratics
    (irreducible or not) and a random constant."""
    p = field.p
    f = kx(field, [rng.randrange(1, p)])
    for _ in range(rng.randrange(0, 5)):
        f = f * linear(field, rng.randrange(p)) ** rng.randrange(1, 3)
    for _ in range(rng.randrange(0, 3)):
        f = f * kx(field, [rng.randrange(p), rng.randrange(p), 1])
    return f


@pytest.mark.parametrize("p", [2, 3, 5, 101, 1009])
def test_roots_match_a_residue_scan(p):
    field = PrimeField(p)
    rng = random.Random(p)
    cases = [random_product(rng, field) for _ in range(40)]
    for _ in range(20):
        cases.append(kx(field, [rng.randrange(p) for _ in range(rng.randrange(1, 9))] + [1]))
    cases.append(kx(field, [rng.randrange(1, p)]))  # a nonzero constant
    # a product of distinct linear factors divides x^p - x, so x^p mod f
    # is x and the gcd step meets a zero remainder; so does x^p - x itself,
    # whose degree p makes it too slow to include at p = 1009
    if p <= 101:
        cases.append(kx(field, [0, p - 1] + [0] * (p - 2) + [1]))
    distinct = rng.sample(range(p), min(p, 6))
    product = kx(field, [1])
    for r in distinct:
        product = product * linear(field, r)
    cases.append(product)
    for f in cases:
        assert roots_univariate(f) == scan_roots(f), f.text()
        roots, cofactor_degree = split_roots(f)
        assert (roots, cofactor_degree) == scan_split(f), f.text()
    assert roots_univariate(product) == sorted(distinct)


def test_split_roots_y_and_z_match_a_residue_scan():
    rng = random.Random(31)
    for _ in range(20):
        f = random_product(rng, F101)
        expected = scan_split(f)
        for axis, var in ((1, "y"), (2, "z")):
            g = P(f.text().replace("x", var))
            assert split_roots(g, axis=axis) == expected


def test_roots_univariate_errors():
    with pytest.raises(ValueError):
        roots_univariate(Polynomial(F101))
    with pytest.raises(ValueError):
        roots_univariate(P("x*y"))
    Q = RationalField()
    with pytest.raises(ValueError):
        roots_univariate(parse_polynomial(Q, "x"))


def test_split_roots_detects_rootless_cofactor():
    # 2 is not a square mod 101, so x^2 + 99 contributes no roots
    f = P("x + 98") * P("x^2 + 99")
    roots, cofactor_degree = split_roots(f)
    assert roots == [3]
    assert cofactor_degree == 2


def test_split_roots_handles_multiplicity():
    f = P("x + 98") * P("x + 98") * P("x")
    roots, cofactor_degree = split_roots(f)
    assert roots == [0, 3]
    assert cofactor_degree == 0


def test_split_roots_other_axes():
    roots, cofactor_degree = split_roots(P("y^2 + 100*y"), axis=1)
    assert roots == [0, 1] and cofactor_degree == 0
    roots, cofactor_degree = split_roots(P("z^3 + 100*z"), axis=2)
    assert roots == [0, 1, 100] and cofactor_degree == 0
    with pytest.raises(ValueError):
        split_roots(P("x*y"), axis=0)


def test_specialization_image_pass():
    r = check_specialization_image(worked_basis())
    assert r.verdict == PASS
    assert r.empirically_clean


def test_specialization_image_detects_vanishing_lc():
    # at x = 0 the image of x*y + 1 is the constant 1 while its leading
    # x-coefficient vanishes there
    G = GroebnerBasis((P("x^2 + 100*x"), P("x*y + 1"), P("y^2"), P("z")), radical=True)
    r = check_specialization_image(G)
    assert r.verdict == FAIL
    assert any(
        w.get("alpha") == 0 and w.get("i") == 2 and "vanishes" in w.get("reason", "")
        for w in r.witnesses
    )


def test_specialization_image_skips():
    assert check_specialization_image(GroebnerBasis((P("x"),))).verdict == SKIPPED
    Q = RationalField()
    G = GroebnerBasis((parse_polynomial(Q, "x"),))
    r = check_specialization_image(G)
    assert r.verdict == SKIPPED
    assert "prime-field" in r.notes


def test_specialization_image_observed_mode():
    G = squared_vanishing_basis(PointSet(101, ((0, 0, 0),)))
    r = check_specialization_image(G)
    assert r.verdict == OBSERVED
    assert r.empirically_clean


def test_gianni_kalkbrener_pass():
    r = check_gianni_kalkbrener(worked_basis())
    assert r.verdict == PASS
    assert r.empirically_clean


def test_gianni_kalkbrener_detects_degree_drop():
    # at x = -1 the head of (x + 1)*z^2 + z collapses from z^2 to z
    G = GroebnerBasis(
        (P("x^2 + 100"), P("y"), P("x*z^2 + z^2 + z"), P("z^3")), radical=True
    )
    r = check_gianni_kalkbrener(G)
    assert r.verdict == FAIL
    assert r.witnesses == [
        {"alpha": 100, "beta": 0, "i": 3, "image_z_degree": 1, "head_z_degree": 2}
    ]


def test_gianni_kalkbrener_betas_solve_the_whole_prefix():
    # at x = 1 the image y + 99 of x*y + 99*x has the smallest head, but its
    # root 2 is not a root of the image y^2 + 100*y of g_3; (1, 2) is no
    # solution of the prefix, so the z-degree drop of g_4 there is no witness
    G = GroebnerBasis(
        (P("x^2 + 100*x"), P("x*y + 99*x"), P("y^2 + 100*y"), P("y*z^2 + 99*z^2 + z"), P("z^3")),
        radical=True,
    )
    r = check_gianni_kalkbrener(G)
    assert r.verdict == PASS


def test_fiber_membership_pass():
    r = check_fiber_membership(worked_basis())
    assert r.verdict == PASS
    assert r.empirically_clean


def test_fiber_membership_detects_outsider():
    # lc_x(x*z) = x vanishes at 0 while lc_x(y*z + 1) = 1 does not, and
    # y*z + 1 is not in the ideal of the fiber generators x and y
    G = GroebnerBasis(
        (P("x^2 + 100*x"), P("y^2"), P("x*z"), P("y*z + 1"), P("z^2")), radical=True
    )
    r = check_fiber_membership(G)
    assert r.verdict == FAIL
    assert r.witnesses == [
        {"i": 4, "alpha": 0, "normal_form": "1", "modulo": ["x", "y"]}
    ]

    # a non-monic fiber generator of degree 2 in y: the remainder of
    # y^3 + y + 3 modulo 2*y^2 + 3*y + 5 is the non-constant 26*y + 32
    G = GroebnerBasis(
        (
            P("x^2 + 100*x"),
            P("y^2"),
            P("x*z"),
            P("2*y^2*z + x*y*z + 3*y*z + 5*z + y^3 + y + 3"),
            P("z^2"),
        ),
        radical=True,
    )
    r = check_fiber_membership(G)
    assert r.verdict == FAIL
    assert r.witnesses == [
        {"i": 4, "alpha": 0, "normal_form": "26*y + 32", "modulo": ["x", "2*y^2 + 3*y + 5"]}
    ]


def test_fiber_membership_skips_when_hypothesis_empty():
    # x^2 + 2 has no roots (-2 is not a square mod 101) and every other
    # leading x-coefficient is constant, so no fiber qualifies
    G = buchberger([P("x^2 + 2"), P("y"), P("z")], radical=True)
    r = check_fiber_membership(G)
    assert r.verdict == SKIPPED
    assert "no non-unit leading x-coefficient" in r.notes


def test_solve_worked_basis():
    assert solve_system(worked_basis()) == ((0, 0, 0), (1, 0, 0), (1, 0, 1))


def test_solve_squared_ideal_collapses_multiplicity():
    G = squared_vanishing_basis(PointSet(101, ((0, 0, 0),)))
    assert solve_system(G) == ((0, 0, 0),)


def test_solve_unit_ideal():
    assert solve_system(buchberger([P("1")])) == ()


def test_solve_round_trip_random():
    rng = random.Random(97)
    for trial in range(10):
        n = rng.randrange(1, 7)
        pts = random_points(n, seed=3000 + trial)
        G = vanishing_basis(pts)
        assert solve_system(G) == tuple(sorted(pts.points))


def test_solve_raises_on_nonsplit_eliminant():
    with pytest.raises(NonSplitError) as info:
        solve_system(buchberger([P("x^2 + 99"), P("y"), P("z")]))
    assert info.value.cofactor_degree == 2
    assert "does not split" in str(info.value)

    with pytest.raises(NonSplitError):
        solve_system(buchberger([P("x"), P("y^2 + 99"), P("z")]))
    with pytest.raises(NonSplitError):
        solve_system(buchberger([P("x"), P("y"), P("z^2 + 99")]))


def test_solve_requires_zero_dimensional_prime_field():
    with pytest.raises(ValueError):
        solve_system(GroebnerBasis((P("x"),)))
    Q = RationalField()
    with pytest.raises(ValueError):
        solve_system(GroebnerBasis((parse_polynomial(Q, "x"),)))


def test_solve_and_verify_at_a_large_prime():
    # p = 32003: any pass over the residues would take minutes here
    pts = random_points(40, seed=11, prime=32003)
    G = vanishing_basis(pts)
    assert solve_system(G) == tuple(sorted(pts.points))
    assert all(r.verdict == PASS for r in verify_all(G))


def test_fibered_points():
    # several betas over one alpha and several gammas over one (alpha, beta)
    pts = (
        (19, 6, 8), (19, 83, 72), (41, 83, 11), (41, 83, 70),
        (41, 83, 80), (50, 9, 7), (50, 83, 46), (50, 83, 64),
    )
    G = vanishing_basis(PointSet(101, pts))
    assert solve_system(G) == tuple(sorted(pts))
    assert check_gianni_kalkbrener(G).verdict == PASS
