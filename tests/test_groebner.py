"""Buchberger completion, reduced bases, staircase structure."""

import dataclasses
import random

import pytest

from lexgb import groebner
from lexgb.campaign import CampaignConfig, nonradical_recipes
from lexgb.field import PrimeField
from lexgb.groebner import (
    GroebnerBasis,
    basis_from_dict,
    buchberger,
    elimination_basis,
    is_groebner_basis,
    normal_form,
    quotient_dimension,
    s_polynomial,
    standard_monomials,
    structure_facts,
)
from lexgb.instances import (
    RANDOM_TRIANGULAR,
    SQUARED_VANISHING,
    build_instance,
    random_points,
    squared_vanishing_basis,
    vanishing_basis,
)
from lexgb.poly import Monomial, Polynomial, ZeroPolynomialError, parse_polynomial
from lexgb.specialize import roots_univariate

from helpers import (
    FIBERED_PATTERNS,
    fibered_points,
    random_monomial,
    random_poly,
    reference_buchberger,
    reference_is_groebner_basis,
    reference_s_polynomial,
    reference_substitute,
    squared_products,
)

F101 = PrimeField(101)


def P(text):
    return parse_polynomial(F101, text)


def test_s_polynomial_frozen():
    f = P("x^2 + 100")
    g = P("z + 100*x")
    # lcm of heads is x^2*z; the cross terms cancel to x^3 - z
    assert s_polynomial(f, g) == P("x^3 + 100*z")
    assert s_polynomial(f, f).is_zero()


@pytest.mark.parametrize("prime", [7, 101])
def test_s_polynomial_matches_the_reference(prime):
    field = PrimeField(prime)
    rng = random.Random(prime)
    polys = [random_poly(field, rng, nonzero=True) for _ in range(200)]
    pairs = list(zip(polys, polys[1:]))
    pairs += [(f, f) for f in polys] + [(f, f.scale(1 + rng.randrange(prime - 1))) for f in polys]
    pairs += [(f, g) for f in polys for g in polys if f.lm().is_coprime(g.lm())][:100]
    if prime == 101:
        pairs += [(f, g) for elems in _s_pair_corpus() for f in elems for g in elems]
    zero = coprime = not_monic = 0
    for f, g in pairs:
        s = s_polynomial(f, g)
        assert s == reference_s_polynomial(f, g)
        zero += s.is_zero()
        coprime += f.lm().is_coprime(g.lm())
        not_monic += f.lc() != 1 and g.lc() != 1
    # the draws reach zero S-polynomials, coprime heads and two non-monic heads
    assert min(zero, coprime, not_monic) >= 50


def test_s_polynomial_errors():
    # the field check comes first, then the zero check
    F7 = PrimeField(7)
    with pytest.raises(ValueError, match="different coefficient fields"):
        s_polynomial(Polynomial(F101), parse_polynomial(F7, "x"))
    with pytest.raises(ValueError, match="different coefficient fields"):
        s_polynomial(P("x"), Polynomial(F7))
    for f, g in ((Polynomial(F101), P("x")), (P("x"), Polynomial(F101))):
        with pytest.raises(ZeroPolynomialError, match="zero polynomial has no leading monomial"):
            s_polynomial(f, g)


def test_buchberger_two_generators():
    G = buchberger([P("x^2 + 100"), P("z + 100*x")])
    assert G.elements == (P("x^2 + 100"), P("z + 100*x"))
    assert not G.unit_ideal
    assert not G.radical


def test_buchberger_discovers_eliminant():
    G = buchberger([P("x*y + 100"), P("y^2 + 100")])
    assert G.elements == (P("x^2 + 100"), P("y + 100*x"))
    assert is_groebner_basis(G)


def test_buchberger_unit_ideal():
    G = buchberger([P("x"), P("x + 1")])
    assert G.unit_ideal
    assert G.elements == (P("1"),)
    assert quotient_dimension(G) == 0

    direct = buchberger([P("5")])
    assert direct.unit_ideal


def test_buchberger_rejects_empty_input():
    with pytest.raises(ValueError):
        buchberger([])
    with pytest.raises(ValueError):
        buchberger([Polynomial(F101)])


def test_buchberger_idempotent_on_worked_basis():
    gens = [P("x^2 + 100*x"), P("y"), P("x*z + 100*z"), P("z^2 + 100*z")]
    G = buchberger(gens)
    assert G.elements == tuple(gens)
    again = buchberger(G.elements)
    assert again.elements == G.elements


def test_result_is_reduced_and_ascending():
    rng = random.Random(73)
    for _ in range(30):
        gens = [
            random_poly(F101, rng, max_deg=2, max_terms=3, nonzero=True)
            for _ in range(rng.randrange(2, 4))
        ]
        G = buchberger(gens)
        if G.unit_ideal:
            continue
        assert is_groebner_basis(G)
        keys = [g.lm() for g in G.elements]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for i, g in enumerate(G.elements):
            assert g.lc() == 1
            others = [h for j, h in enumerate(G.elements) if j != i]
            for m, _ in g.terms:
                assert not any(h.lm().divides(m) for h in others)
        # every original generator reduces to zero against the basis
        for g in gens:
            assert normal_form(g, G).is_zero()
        # feeding the result back in reproduces it exactly
        assert buchberger(G.elements).elements == G.elements


def assert_matches_reference(gens):
    G = buchberger(gens)
    R = reference_buchberger(gens)
    assert G.elements == R.elements
    assert (G.unit_ideal, G.radical) == (R.unit_ideal, R.radical)
    return G


def test_buchberger_matches_reference_on_squared_fibered_sets():
    # a seed that no benchmark workload draws its inputs from
    rng = random.Random(2718)
    compared = []
    for pattern in FIBERED_PATTERNS:
        V = vanishing_basis(fibered_points(pattern, rng))
        compared.append(assert_matches_reference(squared_products(V)))
    assert len(compared) == len(FIBERED_PATTERNS)


def test_buchberger_matches_reference_on_campaign_recipes():
    config = CampaignConfig(seed=2718, radical_count=0, nonradical_count=24)
    recipes = nonradical_recipes(config)
    squared = triangular = 0
    for recipe in recipes:
        if recipe.kind == RANDOM_TRIANGULAR:
            # built without completion: both completions must keep it as it is
            T = build_instance(recipe).basis
            assert T.elements == buchberger(T.elements).elements
            assert T.elements == reference_buchberger(T.elements).elements
            triangular += 1
            continue
        assert recipe.kind == SQUARED_VANISHING
        points = random_points(recipe.n_points, recipe.seed, recipe.prime)
        G = assert_matches_reference(squared_products(vanishing_basis(points)))
        assert G.elements == squared_vanishing_basis(points).elements
        squared += 1
    assert squared == triangular == 12


@pytest.mark.parametrize(
    "field, draw",
    [
        (PrimeField(2), lambda rng: rng.randrange(2)),
        (PrimeField(7), lambda rng: rng.randrange(7)),
        (PrimeField(101), lambda rng: rng.randrange(101)),
    ],
    ids=["F2", "F7", "F101"],
)
def test_buchberger_matches_reference_on_random_generators(field, draw):
    rng = random.Random(31)
    units = 0
    for _ in range(40):
        gens = [
            Polynomial(field, [(random_monomial(rng, 2), draw(rng)) for _ in range(rng.randint(1, 4))])
            for _ in range(rng.randint(1, 4))
        ]
        if not any(gens):
            continue
        units += assert_matches_reference(gens).unit_ideal
    # the draws reach both the unit ideal and proper ideals
    assert 0 < units < 40


def test_pair_criteria_pin_the_reduction_count(monkeypatch):
    # `buchberger` forms each S-pair it reduces with one `_s_work` call
    calls = []
    s_work = groebner._s_work

    def counted(f, g, p):
        calls.append((f, g))
        return s_work(f, g, p)

    monkeypatch.setattr(groebner, "_s_work", counted)
    V = vanishing_basis(fibered_points(FIBERED_PATTERNS[7], random.Random(5)))
    buchberger(squared_products(V))
    # the unpruned queue reduces 571 S-pairs here
    assert len(calls) == 46


def test_buchberger_errors():
    for gens in ([], [Polynomial(F101)]):
        with pytest.raises(ValueError, match="no nonzero generators"):
            buchberger(gens)
    # mixed fields raise whether or not a pair of heads needs reducing, and
    # before a constant generator could make the ideal the unit ideal
    F7 = PrimeField(7)
    for gens in (
        [P("x*y + 1"), parse_polynomial(F7, "y^2 + 1")],
        [P("x + 1"), parse_polynomial(F7, "y")],
        [P("x"), parse_polynomial(F7, "y"), P("1")],
    ):
        with pytest.raises(ValueError, match="different coefficient fields"):
            buchberger(gens)


def test_is_groebner_basis_detects_missing_element():
    assert not is_groebner_basis([P("x*y + 100"), P("y^2 + 100")])
    assert is_groebner_basis([P("x^2 + 100"), P("y + 100*x")])
    with pytest.raises(ValueError, match="zero polynomial in candidate basis"):
        is_groebner_basis([Polynomial(F101)])
    with pytest.raises(ValueError, match="different coefficient fields"):
        is_groebner_basis([P("x*y + 1"), parse_polynomial(PrimeField(7), "y^2 + 1")])
    with pytest.raises(ZeroDivisionError):
        normal_form(P("x"), [P("y"), Polynomial(F101)])


def _s_pair_corpus() -> list:
    """Element lists: the vanishing and squared bases of the fibered sets,
    and at every root alpha of g_1 the alpha-images that keep their heads,
    which are not monic (what `specialization_image` tests)."""
    rng = random.Random(26)
    out = []
    for pattern in FIBERED_PATTERNS:
        points = fibered_points(pattern, rng)
        for G in (vanishing_basis(points), squared_vanishing_basis(points)):
            out.append(list(G.elements))
            for alpha in roots_univariate(G[0]):
                images = [(g, reference_substitute(g, 0, alpha)) for g in G.elements[1:]]
                out.append([img for g, img in images if img and img.lm() == g.lm_yz()])
    return out


def test_is_groebner_basis_matches_the_reference_on_bases_images_and_corruptions():
    rng = random.Random(5)
    candidates = []
    for elems in _s_pair_corpus():
        candidates.append(elems)
        if len(elems) > 1:
            k = rng.randrange(len(elems))
            candidates.append(elems[:k] + elems[k + 1 :])
        tails = [k for k, g in enumerate(elems) if len(g.terms) > 1]
        if tails:
            k = rng.choice(tails)
            terms = list(elems[k].terms)
            t = rng.randrange(1, len(terms))
            terms[t] = (terms[t][0], terms[t][1] % 100 + 1)  # another nonzero coefficient
            candidates.append(elems[:k] + [Polynomial(F101, terms)] + elems[k + 1 :])
    verdicts = [is_groebner_basis(elems) for elems in candidates]
    assert verdicts == [reference_is_groebner_basis(elems) for elems in candidates]
    assert not all(g.lc() == 1 for elems in candidates for g in elems)
    assert 40 <= verdicts.count(True) and 40 <= verdicts.count(False)


def test_normal_form():
    G = buchberger([P("x^2 + 100")])
    assert normal_form(P("x^3"), G) == P("x")
    assert normal_form(P("x^2 + 100"), G).is_zero()
    assert normal_form(P("y"), G) == P("y")


def test_structure_facts_worked_basis():
    G = buchberger([P("x^2 + 100*x"), P("y"), P("x*z + 100*z"), P("z^2 + 100*z")])
    facts = structure_facts(G)
    assert facts.zero_dim
    assert facts.ell2 == 2
    assert facts.pure_z_degree == 2
    assert facts.missing is None
    assert facts.band_violations == ()


def test_structure_facts_missing_reasons():
    facts = structure_facts(GroebnerBasis((P("y"),)))
    assert not facts.zero_dim
    assert facts.missing == "first element does not lie in k[x]"

    facts = structure_facts(GroebnerBasis((P("x"),)))
    assert facts.missing == "no leading monomial is a pure power of y"

    facts = structure_facts(GroebnerBasis((P("x"), P("y"))))
    assert facts.missing == "last leading monomial is not a pure power of z"


def test_structure_facts_band_violations():
    # element 2 sits between the eliminant and the pure y head but stays in k[x]
    G = GroebnerBasis((P("x^2"), P("x^3"), P("y"), P("z")))
    facts = structure_facts(G)
    assert facts.zero_dim
    assert facts.band_violations == (2,)

    # element 3 comes after the pure y head yet its head has no z
    G = GroebnerBasis((P("x^2"), P("y"), P("x^3*y^2"), P("z")))
    facts = structure_facts(G)
    assert facts.band_violations == (3,)


def test_the_facts_kept_on_a_basis_stay_out_of_its_value():
    G = buchberger([P("x^2 + 100*x"), P("y"), P("x*z + 100*z"), P("z^2 + 100*z")])
    H = GroebnerBasis(G.elements)
    facts = structure_facts(G)
    assert structure_facts(G) is facts
    assert (G, hash(G), repr(G)) == (H, hash(H), repr(H))
    # a replaced basis works its facts out afresh
    assert structure_facts(dataclasses.replace(G, radical=True)) is not facts


def test_structure_facts_rejects_unit_ideal():
    G = buchberger([P("1")])
    with pytest.raises(ValueError):
        structure_facts(G)


def test_elimination_basis():
    G = buchberger([P("x^2 + 100*x"), P("y"), P("x*z + 100*z"), P("z^2 + 100*z")])
    E = elimination_basis(G)
    assert E.elements == (P("x^2 + 100*x"), P("y"))
    assert is_groebner_basis(E)
    with pytest.raises(ValueError):
        elimination_basis(GroebnerBasis((P("x"),)))


def test_standard_monomials_worked_basis():
    G = buchberger([P("x^2 + 100*x"), P("y"), P("x*z + 100*z"), P("z^2 + 100*z")])
    assert standard_monomials(G) == [
        Monomial(0, 0, 0),
        Monomial(1, 0, 0),
        Monomial(0, 0, 1),
    ]
    assert quotient_dimension(G) == 3


def test_quotient_dimension_box_case():
    # heads x^2, y^3, z^2 with no mixed heads: the staircase is a full box
    G = buchberger([P("x^2 + 1"), P("y^3 + x"), P("z^2 + y")])
    assert quotient_dimension(G) == 2 * 3 * 2


def test_dict_round_trip():
    G = buchberger([P("x^2 + 100*x"), P("y"), P("x*z + 100*z"), P("z^2 + 100*z")])
    d = G.to_dict()
    assert d["p"] == 101
    assert d["ell2"] == 2
    assert d["zero_dim"] is True
    assert d["radical"] is False
    assert d["unit_ideal"] is False
    H = basis_from_dict(F101, d)
    assert H.elements == G.elements

    # stored order is preserved verbatim, not resorted
    swapped = dict(d)
    swapped["basis"] = [d["basis"][1], d["basis"][0]] + d["basis"][2:]
    H = basis_from_dict(F101, swapped)
    assert H.elements[0] == G.elements[1]
    assert H.elements[1] == G.elements[0]

    with pytest.raises(ValueError):
        basis_from_dict(F101, {"p": 101})


def test_to_dict_text_mode():
    G = buchberger([P("x^2 + 100"), P("y + 100*x")])
    d = G.to_dict(text=True)
    assert [e["text"] for e in d["basis"]] == ["x^2 + 100", "y + 100*x"]
