"""Root finding, specialized images, and solving by back-substitution."""

import dataclasses
import gc
import random
import weakref

import pytest

from lexgb import specialize, univariate
from lexgb.campaign import CampaignConfig, nonradical_recipes, radical_recipes
from lexgb.field import PrimeField
from lexgb.checks import _report, verify_all
from lexgb.groebner import GroebnerBasis, buchberger, normal_form, structure_facts
from lexgb.instances import (
    PointSet,
    build_instance,
    random_points,
    squared_vanishing_basis,
    vanishing_basis,
)
from lexgb.poly import MONOMIAL_ONE, Monomial, Polynomial, ZeroPolynomialError, parse_polynomial
from lexgb.report import FAIL, OBSERVED, PASS, SKIPPED
from lexgb.specialize import (
    NonSplitError,
    _fiber_view,
    roots_univariate,
    solve_system,
    split_roots,
)

from helpers import FIBERED_PATTERNS, fibered_points, random_poly, reference_substitute

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
    out = [0] * (max((m.a for m, _ in f.terms), default=0) + 1)
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
    # a product of distinct linear factors divides x^p - x, and so does
    # x^p - x itself, whose degree p makes it too slow to include at p = 1009
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
        for var in ("y", "z"):
            g = P(f.text().replace("x", var))
            assert split_roots(g) == expected


def distinct_linear_product(field, roots):
    f = kx(field, [1])
    for r in roots:
        f = f * linear(field, r)
    return f


def irreducible_quadratic(field, rng):
    while True:
        q = kx(field, [rng.randrange(field.p), rng.randrange(field.p), 1])
        if not scan_roots(q):
            return q


@pytest.mark.parametrize("p", [2, 7, 101])
def test_split_roots_shortcut_matches_a_residue_scan(p, monkeypatch):
    # deg f distinct roots: f splits into distinct linear factors, so
    # split_roots returns without deflating by any root
    field = PrimeField(p)
    rng = random.Random(100 + p)
    horner = specialize._horner
    deflated = []

    def counting(f, v, q):
        deflated.append(v)
        return horner(f, v, q)

    monkeypatch.setattr(specialize, "_horner", counting)
    cases = [(kx(field, [rng.randrange(p), rng.randrange(1, p)]), True)]  # degree 1
    cases.append((kx(field, [0, p - 1] + [0] * (p - 2) + [1]), True))  # x^p - x
    for _ in range(30):
        roots = rng.sample(range(p), rng.randrange(1, min(p, 6) + 1))
        f = distinct_linear_product(field, roots).scale(rng.randrange(1, p))
        cases.append((f, True))
        repeated = f * linear(field, rng.choice(roots))
        cases.append((repeated, False))
        quadratic = irreducible_quadratic(field, rng)
        cases.append((f * quadratic, False))
        cases.append((repeated * quadratic, False))
    for f, shortcut in cases:
        deflated.clear()
        assert split_roots(f) == scan_split(f), f.text()
        assert (not deflated) == shortcut, f.text()


def finder_cases(p):
    """Coefficient lists, lowest degree first: split, repeated and non-split
    products, non-monic and with f(0) = 0, random ones, two of degree
    p - 1, and x^p - x."""
    field = PrimeField(p)
    rng = random.Random(200 + p)
    x = kx(field, [0, 1])
    cases = []
    for _ in range(10):
        roots = rng.sample(range(p), rng.randrange(1, min(p, 6) + 1))
        split = distinct_linear_product(field, roots).scale(rng.randrange(1, p))
        repeated = split * linear(field, rng.choice(roots)) ** 2
        quadratic = irreducible_quadratic(field, rng)
        cases += [split, repeated, split * quadratic, x * split, x * x * repeated * quadratic]
        cases.append(kx(field, [rng.randrange(p) for _ in range(rng.randrange(2, 9))] + [1]))
    cases = [coefficient_list(f) for f in cases]
    cases.append([rng.randrange(p) for _ in range(p - 1)] + [rng.randrange(1, p)])
    cases.append([p - 1] + [0] * (p - 2) + [1])  # x^(p-1) - 1: all of F_p^*
    cases.append([0, p - 1] + [0] * (p - 2) + [1])  # x^p - x: all of F_p
    return cases


@pytest.mark.parametrize("p", [3, 5, 7, 101, 1009])
def test_both_root_finders_match_a_residue_scan(p):
    # _roots sends each input to one finder, so both run here on every
    # input; the chirp takes degrees below p only
    for f in finder_cases(p):
        expected = [v for v in range(p) if synthetic_division(f, v, p)[1] == 0]
        assert univariate._cz_roots(f, p) == expected, f
        if len(f) <= p:
            assert univariate._chirp_roots(f, p) == expected, f


@pytest.mark.parametrize("p", [2, 3, 101, 1009, 10007, 2**31 - 1])
def test_has_root_matches_roots_without_a_split(p, monkeypatch):
    # degree 1, then products of irreducible quadratics with no root, with
    # root 0 and with one other root, and random f, on both sides of the
    # chirp rule: at 1009 it takes the chirp from degree 6, at 10007 from 44
    field = PrimeField(p)
    rng = random.Random(300 + p)

    def irreducible():  # x^2 - a for a non-square a; x^2 + x + 1 at p = 2
        while p > 2:
            a = rng.randrange(1, p)
            if pow(a, (p - 1) // 2, p) == p - 1:
                return kx(field, [-a, 0, 1])
        return kx(field, [1, 1, 1])

    cases = [kx(field, [rng.randrange(p), rng.randrange(1, p)])]
    for k in (1, 2, 3, 24):
        none = kx(field, [rng.randrange(1, p)])
        for _ in range(k):
            none = none * irreducible()
        cases += [none, none * kx(field, [0, 1]), none * linear(field, rng.randrange(1, p))]
    cases += [kx(field, [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]) for d in (2, 3, 5, 9, 50)]
    for f in map(coefficient_list, cases):
        expected = bool(univariate._roots(f, p))
        with monkeypatch.context() as patch:
            patch.setattr(univariate, "_split", None)  # whether, never which
            assert univariate._has_root(f, p) == expected, f


def test_root_finder_choice(monkeypatch):
    taken = []
    monkeypatch.setattr(univariate, "_chirp_roots", lambda f, p: taken.append("chirp") or [])
    monkeypatch.setattr(univariate, "_cz_roots", lambda f, p: taken.append("cz") or [])

    def finder(p, degree):
        taken.clear()
        univariate._roots([1] * (degree + 1), p)
        return taken[0] if taken else "closed form"

    assert finder(101, 2) == finder(1009, 24) == "chirp"
    assert finder(1009, 2) == "cz"
    assert {finder(2**31 - 1, d) for d in range(1, 300)} == {"closed form", "cz"}
    assert {finder(2, d) for d in range(2, 9)} == {"cz"}
    monkeypatch.undo()
    # p = 2 splits x(x + 1) apart from the other primes (see _split)
    assert univariate._roots([0, 1, 1], 2) == [0, 1]
    assert univariate._roots([0, 1, 0, 1], 2) == [0, 1]


def test_roots_univariate_errors():
    with pytest.raises(ValueError):
        roots_univariate(Polynomial(F101))
    with pytest.raises(ValueError):
        roots_univariate(P("x*y"))


def test_dense_lists_and_power_tables_stop_at_the_cap():
    cap = univariate.DENSE_CAP
    assert len(specialize._dense(P(f"x^{cap - 1} + 1"))) == cap
    assert specialize._slice(P(f"y*z^{cap - 1}"), 2, 101)[-1] == 2
    too_large = f"exponent {cap} is too large to make dense"
    for run in (
        lambda: specialize._dense(P(f"z^{cap}")),
        lambda: specialize._slice(P(f"z^{cap} + y"), 2, 101),
        lambda: P(f"x^{cap}*y + 1").substitute_x(3),
    ):
        with pytest.raises(ValueError, match=too_large):
            run()


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
    roots, cofactor_degree = split_roots(P("y^2 + 100*y"))
    assert roots == [0, 1] and cofactor_degree == 0
    roots, cofactor_degree = split_roots(P("z^3 + 100*z"))
    assert roots == [0, 1, 100] and cofactor_degree == 0
    with pytest.raises(ValueError):
        split_roots(P("x*y"))


def test_specialization_image_pass():
    r = _report("specialization_image", worked_basis())
    assert r.verdict == PASS
    assert not r.witnesses


def test_specialization_image_detects_vanishing_lc():
    # at x = 0 the image of x*y + 1 is the constant 1 while its leading
    # x-coefficient vanishes there
    G = GroebnerBasis((P("x^2 + 100*x"), P("x*y + 1"), P("y^2"), P("z")), radical=True)
    r = _report("specialization_image", G)
    assert r.verdict == FAIL
    assert any(
        w.get("alpha") == 0 and w.get("i") == 2 and "vanishes" in w.get("reason", "")
        for w in r.witnesses
    )


def test_specialization_image_skips():
    assert _report("specialization_image", GroebnerBasis((P("x"),))).verdict == SKIPPED


def test_specialization_image_observed_mode():
    G = squared_vanishing_basis(PointSet(101, ((0, 0, 0),)))
    r = _report("specialization_image", G)
    assert r.verdict == OBSERVED
    assert not r.witnesses


def test_gianni_kalkbrener_pass():
    r = _report("gianni_kalkbrener", worked_basis())
    assert r.verdict == PASS
    assert not r.witnesses


def test_gianni_kalkbrener_detects_degree_drop():
    # at x = -1 the head of (x + 1)*z^2 + z collapses from z^2 to z
    G = GroebnerBasis(
        (P("x^2 + 100"), P("y"), P("x*z^2 + z^2 + z"), P("z^3")), radical=True
    )
    r = _report("gianni_kalkbrener", G)
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
    r = _report("gianni_kalkbrener", G)
    assert r.verdict == PASS


def test_fiber_membership_pass():
    r = _report("fiber_membership", worked_basis())
    assert r.verdict == PASS
    assert not r.witnesses


def test_fiber_membership_detects_outsider():
    # lc_x(x*z) = x vanishes at 0 while lc_x(y*z + 1) = 1 does not, and
    # y*z + 1 is not in the ideal of the fiber generators x and y
    G = GroebnerBasis(
        (P("x^2 + 100*x"), P("y^2"), P("x*z"), P("y*z + 1"), P("z^2")), radical=True
    )
    r = _report("fiber_membership", G)
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
    r = _report("fiber_membership", G)
    assert r.verdict == FAIL
    assert r.witnesses == [
        {"i": 4, "alpha": 0, "normal_form": "26*y + 32", "modulo": ["x", "2*y^2 + 3*y + 5"]}
    ]


def test_normal_form_modulo_x_minus_alpha_is_that_of_the_image():
    # {x - alpha, h(y)} is a Groebner basis and g = g(alpha, y, z) modulo
    # x - alpha, which is how check_fiber_membership reduces on the image
    rng = random.Random(71)
    for trial in range(300):
        g = random_poly(F101, rng)
        alpha = rng.randrange(101)
        deg = trial % 4  # 0 gives a constant h, so the unit ideal
        h = Polynomial(
            F101, [(Monomial(0, b, 0), rng.randrange(1 if b == deg else 0, 101)) for b in range(deg + 1)]
        )
        linear = Polynomial(F101, [(Monomial(1, 0, 0), 1), (MONOMIAL_ONE, -alpha)])
        assert normal_form(g, [linear, h]) == normal_form(g.substitute_x(alpha), [h])


def test_fiber_membership_skips_when_hypothesis_empty():
    # x^2 + 2 has no roots (-2 is not a square mod 101) and every other
    # leading x-coefficient is constant, so no fiber qualifies
    G = dataclasses.replace(buchberger([P("x^2 + 2"), P("y"), P("z")]), radical=True)
    r = _report("fiber_membership", G)
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
    # the error names the eliminant whose factor has no roots: g_1, a
    # prefix image and a slice in turn
    for gens, text in (
        (["x^2 + 99", "y", "z"], "x^2 + 99"),
        (["x", "y^2 + 99", "z"], "y^2 + 99"),
        (["x", "y", "z^2 + 99"], "z^2 + 99"),
        # the slice has the root 0 as well as the factor z^2 + 99
        (["x", "y", "z^3 + 99*z"], "z^3 + 99*z"),
    ):
        with pytest.raises(NonSplitError) as info:
            solve_system(buchberger([P(g) for g in gens]))
        assert (info.value.poly.text(), info.value.cofactor_degree) == (text, 2)
        assert "does not split" in str(info.value)
    # the slice at (0, 0) is {1, z^2 + 99}: the constant has the smallest
    # head and no roots, so nothing is solved there and nothing raises
    G = GroebnerBasis((P("x"), P("y"), P("y*z + 1"), P("z^2 + 99")))
    assert solve_system(G) == ()


def test_common_roots_keep_the_first_shortest_eliminant():
    # (z - 1)(z - 2) and (z - 1)(z - 3) tie: the first gives the roots, and
    # the zero list is skipped, not chosen
    p = 101
    polys = [[], [2, p - 3, 1], [3, p - 4, 1], [0, p - 1, 0, 1]]
    assert specialize._common_roots(polys, p) == ((1,), 1, 0)
    assert specialize._common_roots(polys[:1] + polys[2:], p) == ((1,), 1, 0)
    assert specialize._common_roots([[], [5], [0, 1]], p) == ((), 1, 0)


def test_solve_requires_zero_dimensional_prime_field():
    with pytest.raises(ValueError):
        solve_system(GroebnerBasis((P("x"),)))
    # z - y sits in the elimination prefix, outside its band in k[x, y]; the
    # slices past the prefix would solve z^2 - 1 alone, though no point
    # satisfies both z = y = 0 and z^2 = 1
    G = GroebnerBasis((P("x"), P("z + 100*y"), P("y"), P("z^2 + 100")))
    with pytest.raises(ValueError, match="outside their bands"):
        solve_system(G)
    assert _report("gianni_kalkbrener", G).verdict == SKIPPED


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
    assert _report("gianni_kalkbrener", G).verdict == PASS


def test_lc_x_roots_are_the_alphas_of_g1_they_vanish_at():
    # fiber_membership reads the roots of lc_x(g_i) off the view's alphas;
    # the lemma in the docstring of _fiber_view makes that exact
    config = CampaignConfig(seed=7, radical_count=40, nonradical_count=20)
    bases = [build_instance(r).basis for r in radical_recipes(config) + nonradical_recipes(config)]
    rng = random.Random(23)
    bases += [vanishing_basis(fibered_points(pattern, rng)) for pattern in FIBERED_PATTERNS]
    bases += [squared_vanishing_basis(fibered_points(pattern, rng)) for pattern in FIBERED_PATTERNS[:4]]
    non_unit = 0
    for G in bases:
        g1_roots = roots_univariate(G.elements[0])
        assert [fiber.alpha for fiber in _fiber_view(G).fibers] == g1_roots
        for g in G.elements[1:]:
            lcx = g.lc_x()
            if lcx.is_constant():
                continue
            non_unit += 1
            roots = roots_univariate(lcx)
            assert set(roots) <= set(g1_roots)
            assert roots == [a for a in g1_roots if not lcx.evaluate((a, 0, 0))]
    assert non_unit >= 40


KERNEL_PRIMES = [2, 7, 101, 1009, 2**31 - 1, 2**61 - 1]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_images_are_the_substituted_polys(p):
    field = PrimeField(p)
    rng = random.Random(p)
    polys = [Polynomial(field), kx(field, [rng.randrange(1, p)])]
    polys += [random_poly(field, rng, max_deg=6, max_terms=14) for _ in range(12)]
    values = [0, 1, p - 1] + [rng.randrange(p) for _ in range(5)]
    for vals in ([], [0], values, values + values[::-1]):  # empty, zero, repeats
        for axis, substitute in ((0, Polynomial.substitute_x), (1, Polynomial.substitute_y)):
            images = specialize._images(polys, axis, vals)
            assert len(images) == len(vals)
            for v, row in zip(vals, images):
                assert row == tuple(reference_substitute(f, axis, v) for f in polys), (v, axis)
                assert row == tuple(substitute(f, v) for f in polys)
                assert all(img.field == field for img in row)
    assert specialize._images([], 0, values) == ((),) * len(values)


def test_images_reach_the_slot_bound():
    # every term of the block has coefficient p - 1 and an odd exponent on
    # the axis, so at the value p - 1 each product is (p - 1)^2 and the
    # slot sums to t(p - 1)^2, the bound the slot width is chosen for
    p = 2**61 - 1
    field = PrimeField(p)
    t = 100  # t(p - 1)^2 needs one more byte than (p - 1)^2
    for axis, mono in ((0, lambda e: Monomial(e, 0, 3)), (1, lambda e: Monomial(0, e, 3))):
        f = Polynomial(field, [(mono(2 * i + 1), p - 1) for i in range(t)])
        g = Polynomial(field, [(mono(i), p - 1) for i in range(t)] + [(Monomial(0, 0, 0), 1)])
        images = specialize._images([f, g], axis, [p - 1, p - 1, 0])
        assert images[0][0] == Polynomial(field, [(Monomial(0, 0, 3), t)])
        for v, row in zip((p - 1, p - 1, 0), images):
            assert row == (reference_substitute(f, axis, v), reference_substitute(g, axis, v))


def z_list(f):
    """The coefficients of f in k[z], lowest degree first, with no trailing
    zeros."""
    out = [0] * max((m.c + 1 for m, _ in f.terms), default=0)
    for m, c in f.terms:
        assert m.a == m.b == 0, f.text()
        out[m.c] = c
    return out


def test_fiber_view_slices_are_the_substituted_elements():
    # the slices solve_system builds, one `_slice` per element past the
    # prefix at each (alpha, beta) of the view
    config = CampaignConfig(seed=7)
    bases = [build_instance(r).basis for r in radical_recipes(config) + nonradical_recipes(config)]
    rng = random.Random(29)
    bases += [vanishing_basis(fibered_points(pattern, rng)) for pattern in FIBERED_PATTERNS]
    bases += [squared_vanishing_basis(fibered_points(pattern, rng)) for pattern in FIBERED_PATTERNS]
    slices = 0
    for G in bases:
        if G.unit_ideal:
            continue
        ell2 = structure_facts(G).ell2
        p = G.field.p
        for fiber in _fiber_view(G).fibers:
            for beta in fiber.betas:
                for g, img in zip(G.elements[ell2:], fiber.images[ell2:]):
                    expected = reference_substitute(reference_substitute(g, 0, fiber.alpha), 1, beta)
                    assert specialize._slice(img, beta, p) == z_list(expected)
                slices += 1
    assert slices >= 500


def test_verify_all_finds_the_roots_of_g1_once(monkeypatch):
    calls = []

    def counting(f):
        calls.append(f)
        return split_roots(f)

    monkeypatch.setattr(specialize, "split_roots", counting)
    G = worked_basis()
    reports = verify_all(G)
    assert all(r.verdict == PASS for r in reports)
    assert calls == [G.elements[0]]
    # solving the same basis next reuses the view
    assert solve_system(G) == ((0, 0, 0), (1, 0, 0), (1, 0, 1))
    assert calls == [G.elements[0]]


def test_fiber_slices_are_built_only_when_read(monkeypatch):
    # counts the images the packed kernel builds, per axis: one per
    # (poly, value) pair, the pairs `substitute_x`/`substitute_y` once took
    calls = []
    images = specialize._images

    def counting(polys, axis, values):
        polys, values = tuple(polys), tuple(values)
        calls.append((axis, len(polys) * len(values)))
        return images(polys, axis, values)

    def solve(G):
        try:
            solve_system(G)
        except NonSplitError:
            pass

    monkeypatch.setattr(specialize, "_images", counting)
    config = CampaignConfig(seed=7)
    recipes = radical_recipes(config) + nonradical_recipes(config)
    assert len(recipes) == 250
    counts = {}
    runs = {
        "specialization_image": lambda G: verify_all(G, checks=["specialization_image"]),
        "verify_all": verify_all,
        "solve_system": solve,
    }
    for name, run in runs.items():
        # fresh bases, since each basis keeps the fiber view it was given
        bases = [build_instance(r).basis for r in recipes]
        calls.clear()
        for G in bases:
            run(G)
        counts[name] = {axis: sum(n for a, n in calls if a == axis) for axis in (0, 1)}
    # every run takes the alpha-images of g_2.. (g_1's image is zero
    # unsubstituted), but the checks only on the 54 bases not headed x^a,
    # y^b, z^c.  gianni_kalkbrener reads the slices' degrees off the
    # images, and solve_system reads its (alpha, beta) slices off them one
    # scalar pass at a time (`_slice`): no run substitutes y in the kernel
    assert counts == {
        "specialization_image": {0: 728, 1: 0},
        "verify_all": {0: 728, 1: 0},
        "solve_system": {0: 2188, 1: 0},
    }


def test_verify_all_takes_no_images_of_a_basis_headed_by_pure_powers(monkeypatch):
    # heads x^a, y^b, z^c settle the fiber checks (`_pure_power_heads`), so
    # verify_all builds no fiber view; solving still needs one
    calls = []
    images = specialize._images

    def counting(polys, axis, values):
        calls.append(axis)
        return images(polys, axis, values)

    monkeypatch.setattr(specialize, "_images", counting)
    G = vanishing_basis(PointSet(101, ((1, 2, 3),)))  # x - 1, y - 2, z - 3
    assert [g.lm() for g in G] == [Monomial(1, 0, 0), Monomial(0, 1, 0), Monomial(0, 0, 1)]
    assert all(r.verdict == PASS for r in verify_all(G))
    assert calls == []
    assert solve_system(G) == ((1, 2, 3),)
    assert calls == [0]


def test_each_basis_keeps_its_own_fiber_view(monkeypatch):
    # checking a second basis in between does not make the first walk its
    # fibers again when it is solved
    calls = []
    images = specialize._images

    def counting(polys, axis, values):
        calls.append(axis)
        return images(polys, axis, values)

    monkeypatch.setattr(specialize, "_images", counting)
    G1, G2 = worked_basis(), vanishing_basis(PointSet(101, ((2, 0, 0), (2, 1, 0), (3, 0, 5))))
    assert not any(specialize._pure_power_heads(G) for G in (G1, G2))
    assert all(r.verdict == PASS for r in verify_all(G1) + verify_all(G2))
    assert solve_system(G1) == ((0, 0, 0), (1, 0, 0), (1, 0, 1))
    assert calls == [0, 0]


def test_a_fiber_view_lives_as_long_as_its_basis(monkeypatch):
    # dropping the last reference to a basis frees it and the view kept on
    # it; the view is swapped for a class that takes weak references
    class View:
        def __init__(self, *fields):
            self.fields = fields

    monkeypatch.setattr(specialize, "_FiberView", View)
    G = worked_basis()
    refs = weakref.ref(G), weakref.ref(_fiber_view(G))
    assert _fiber_view(G) is refs[1]()
    del G
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_fiber_checks_walk_the_containers_their_heads_do_not_settle():
    # the head test reads the structure facts, so these containers raise,
    # or skip, as the fiber view does
    x, y, z, zero = P("x + 1"), P("y"), P("z^2"), Polynomial(F101)
    names = ("specialization_image", "gianni_kalkbrener", "fiber_membership")
    for name in names:
        for elems in ((x, y, zero), (zero, y, z), (x, zero, z)):
            with pytest.raises(ZeroPolynomialError):
                _report(name, GroebnerBasis(elems))
        with pytest.raises(ValueError, match="unit ideal"):
            _report(name, GroebnerBasis((x, y, z), unit_ideal=True))
        for elems in ((y, zero, z), (x, P("x*y"), P("y*z"))):
            assert _report(name, GroebnerBasis(elems)).verdict == SKIPPED
    # a constant g_1 has no root and so no fiber: the heads settle the
    # checks as the view would
    G = GroebnerBasis((P("1"), P("y + 1"), P("z + 2")))
    assert specialize._pure_power_heads(G)
    reports = [_report(name, G) for name in names]
    assert [(r.verdict, r.witnesses) for r in reports] == [(OBSERVED, []), (OBSERVED, []), (SKIPPED, [])]
    assert reports[2].notes == specialize._NONE_QUALIFIES
    # a fourth element is read: the images z^2 and z^3 + 1 fail the S-pair
    # criterion, since together they generate the unit ideal
    G = GroebnerBasis((x, y, z, P("z^3 + 1")), radical=True)
    assert _report("specialization_image", G).verdict == FAIL
