"""Witnessed verdicts for the structural checks.

Failure cases use hand-built element tuples wrapped in GroebnerBasis
containers; the checks inspect heads and coefficients directly, so the
containers need not hold genuine Groebner bases.  Every check returns
witnesses, the note of a skip, or witnesses and a note; `checks._report`
gives their verdicts.
"""

import dataclasses
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from lexgb import checks, groebner, specialize
from lexgb.campaign import CampaignConfig, nonradical_recipes, radical_recipes
from lexgb.checks import (
    CHECK_ORDER,
    _RUNNERS,
    _componentwise,
    _content_witnesses,
    _report,
    _same_z,
    all_ok,
    check_lazard_2d,
    check_lc_chain_componentwise,
    check_lc_chain_same_zdeg,
    check_lc_x_divides_lc_xy,
    verify_all,
)
from lexgb.field import PrimeField
from lexgb.groebner import GroebnerBasis, buchberger
from lexgb.instances import PointSet, build_instance, squared_vanishing_basis, vanishing_basis
from lexgb.poly import Monomial, Polynomial, parse_polynomial
from lexgb.report import FAIL, OBSERVED, PASS, SKIPPED, CheckReport

from helpers import FOUND_SET, random_monomial

F101 = PrimeField(101)


def P(text):
    return parse_polynomial(F101, text)


def worked_basis():
    return vanishing_basis(PointSet(101, ((0, 0, 0), (1, 0, 0), (1, 0, 1))))


def test_report_validation():
    with pytest.raises(ValueError):
        CheckReport("anything", "maybe")
    with pytest.raises(ValueError):
        CheckReport("anything", FAIL, [])
    r = CheckReport("anything", PASS)
    assert r.ok and not r.witnesses
    r = CheckReport("anything", FAIL, [{"i": 1}])
    assert not r.ok and r.witnesses
    assert CheckReport("anything", OBSERVED, [{"i": 1}]).ok


def test_report_gives_each_verdict():
    radical = GroebnerBasis((P("x^3"), P("x^2*z + x")), radical=True)
    witness = [{"i": 2, "block": "1", "coefficient": "x"}]
    r = _report("lc_x_divides_poly", worked_basis())
    assert (r.verdict, r.witnesses, r.notes) == (PASS, [], "")
    r = _report("lc_x_divides_poly", radical)
    assert (r.verdict, r.witnesses, r.notes) == (FAIL, witness, "")
    r = _report("lc_x_divides_poly", dataclasses.replace(radical, radical=False))
    assert (r.verdict, r.witnesses) == (OBSERVED, witness)
    assert r.notes == "radicality not guaranteed; outcome recorded, not asserted"
    assert r.ok
    # a note skips the check, whatever the radical flag
    for flag in (True, False):
        r = _report("membership_lc_xy", GroebnerBasis((P("x^2 + 1"), P("x*y + 1")), radical=flag))
        assert (r.verdict, r.witnesses) == (SKIPPED, [])
        assert r.notes == "not zero-dimensional: no leading monomial is a pure power of y"


def _readme_gated() -> set:
    """The checks the README's check table marks `*`."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)`( \*)? \|", text, re.M)
    assert {name for name, _ in rows} == set(CHECK_ORDER)
    return {name for name, star in rows if star}


def _witnessed(name):
    """A basis on which the check `name` returns witnesses."""
    chain = (P("x^2 + 100*x"), P("x*y + y"), P("y^2"), P("z"))
    content = (P("x^2 + 100*x"), P("x*y + 1"), P("y^2"), P("z"))
    degree_drop = (P("x^2 + 100"), P("y"), P("x*z^2 + z^2 + z"), P("z^3"))
    elements = {
        "basis_integrity": (P("2*x"),),
        "structure": (P("x^2"), P("x^3"), P("y"), P("z")),
        "lazard_2d": content,
        "lc_chain_same_zdeg": chain,
        "lc_chain_componentwise": chain,
        "lc_x_divides_lc_xy": content,
        "gianni_kalkbrener": degree_drop,
    }.get(name)
    return vanishing_basis(FOUND_SET) if elements is None else GroebnerBasis(elements)


@pytest.mark.parametrize("name", list(_RUNNERS))
def test_only_the_readme_starred_checks_read_the_radical_flag(name):
    run, gate = _RUNNERS[name]
    assert gate in (None, checks._RADICAL, checks._GATEKEEPER)
    gated = gate == checks._RADICAL
    assert gated == (name in _readme_gated())
    G = _witnessed(name)
    out = run(G)
    witnesses = out[0] if isinstance(out, tuple) else out
    assert isinstance(witnesses, list) and witnesses
    verdicts = [_report(name, dataclasses.replace(G, radical=flag)).verdict for flag in (True, False)]
    assert verdicts == ([FAIL, OBSERVED] if gated else [FAIL, FAIL])


def test_report_to_dict():
    r = CheckReport("n", PASS, [], "note")
    assert r.to_dict() == {"name": "n", "verdict": PASS, "witnesses": [], "notes": "note"}


def test_integrity_passes_on_worked_basis():
    assert _report("basis_integrity", worked_basis()).verdict == PASS


def test_integrity_rejects_disorder():
    r = _report("basis_integrity", GroebnerBasis((P("y"), P("x^2"))))
    assert r.verdict == FAIL
    assert any("ascending" in w["reason"] for w in r.witnesses)


def test_integrity_rejects_non_monic():
    r = _report("basis_integrity", GroebnerBasis((P("2*x"),)))
    assert r.verdict == FAIL
    assert r.witnesses[0]["reason"] == "not monic"


def test_integrity_rejects_redundant_head():
    r = _report("basis_integrity", GroebnerBasis((P("x"), P("x^2"))))
    assert r.verdict == FAIL
    assert any(w["reason"] == "head divisible by another head" for w in r.witnesses)


def test_integrity_rejects_reducible_tail():
    r = _report("basis_integrity", GroebnerBasis((P("x^2"), P("y + x^2"))))
    assert r.verdict == FAIL
    assert any(w["reason"] == "tail monomial reducible" for w in r.witnesses)


def test_integrity_rejects_zero_element():
    r = _report("basis_integrity", GroebnerBasis((Polynomial(F101),)))
    assert r.verdict == FAIL
    assert r.witnesses[0]["reason"] == "zero element"


def test_integrity_detects_unreduced_s_pair():
    # tamper with one coefficient of a true basis: the shape survives
    # but S(x*z + 5*z, z^2 + 100*z) no longer reduces to zero
    tampered = GroebnerBasis((P("x^2 + 100*x"), P("y"), P("x*z + 5*z"), P("z^2 + 100*z")))
    r = _report("basis_integrity", tampered)
    assert r.verdict == FAIL
    assert r.witnesses == [{"reason": "an S-polynomial does not reduce to zero"}]


def test_integrity_unit_flag():
    assert _report("basis_integrity", GroebnerBasis((P("1"),), unit_ideal=True)).verdict == PASS
    # the zero polynomial counts as constant but generates the zero ideal
    for elements in ((P("x"),), (Polynomial(F101),), (P("1"), P("x"))):
        r = _report("basis_integrity", GroebnerBasis(elements, unit_ideal=True))
        assert r.verdict == FAIL
        assert r.witnesses == [{"reason": "unit flag on a non-unit basis"}]
    # 5 generates the unit ideal but is not its reduced basis
    r = _report("basis_integrity", GroebnerBasis((P("5"),), unit_ideal=True))
    assert r.verdict == FAIL
    assert r.witnesses == [{"reason": "unit ideal basis is not the reduced basis (1)"}]


def test_structure_worked_basis():
    r = _report("structure", worked_basis())
    assert r.verdict == PASS
    assert r.notes == "ell2=2, pure_z_degree=2"


def test_structure_missing_pure_power():
    r = _report("structure", GroebnerBasis((P("x"),)))
    assert r.verdict == FAIL
    assert r.witnesses == [{"reason": "no leading monomial is a pure power of y"}]


def test_structure_band_violation():
    r = _report("structure", GroebnerBasis((P("x^2"), P("x^3"), P("y"), P("z"))))
    assert r.verdict == FAIL
    assert r.witnesses == [{"i": 2, "reason": "element outside its band"}]


def test_gatekeepers_return_witnesses_or_a_note():
    # the gatekeepers build no report: `_report` gives their verdicts too
    assert checks.check_basis_integrity(worked_basis()) == []
    assert checks.check_basis_integrity(GroebnerBasis((P("2*x"),))) == [{"i": 1, "reason": "not monic"}]
    assert checks.check_structure(worked_basis()) == ([], "ell2=2, pure_z_degree=2")
    assert checks.check_structure(buchberger([P("1")])) == "unit ideal"
    missing = [{"reason": "no leading monomial is a pure power of y"}]
    assert checks.check_structure(GroebnerBasis((P("x"),))) == missing
    band = [{"i": 2, "reason": "element outside its band"}]
    assert checks.check_structure(GroebnerBasis((P("x^2"), P("x^3"), P("y"), P("z")))) == (band, "ell2=3, pure_z_degree=1")


def test_lazard_2d_pass():
    G2 = GroebnerBasis((P("x^2 + 100*x"), P("y")))
    assert check_lazard_2d(G2) == []


def test_lazard_2d_broken_chain():
    # lc_x of the middle element is x + 1, which does not divide x^2 + 100*x
    G2 = GroebnerBasis((P("x^2 + 100*x"), P("x*y + y"), P("y^2")))
    assert {"i": 2, "j": 1, "divisor": "x + 1", "dividend": "x^2 + 100*x"} in check_lazard_2d(G2)


def test_lazard_2d_content_failure():
    # lc_x = x but the trailing block of the same element is not divisible by x
    G2 = GroebnerBasis((P("x^2"), P("x*y + 1")))
    assert any(w.get("reason", "").startswith("leading x-coefficient") for w in check_lazard_2d(G2))


def test_lc_chain_same_zdeg():
    assert check_lc_chain_same_zdeg(worked_basis()) == []
    bad = GroebnerBasis((P("x^2 + 100*x"), P("x*y + y"), P("y^2")))
    witnesses = check_lc_chain_same_zdeg(bad)
    assert witnesses[0]["i"] == 2 and witnesses[0]["j"] == 1


def test_lc_chain_componentwise():
    assert check_lc_chain_componentwise(worked_basis()) == []
    bad = GroebnerBasis((P("x^2 + 100*x"), P("x*y + y"), P("y^2")))
    assert check_lc_chain_componentwise(bad)[0]["divisor"] == "x + 1"


def test_componentwise_check_subsumes_same_zdeg_pairs():
    # every pair compared by the same-z-degree check is also compared by
    # the componentwise check, so a same-z-degree witness implies one here
    bad = GroebnerBasis((P("x^2 + 100*x"), P("x*y + y"), P("y^2")))
    same = check_lc_chain_same_zdeg(bad)
    comp = check_lc_chain_componentwise(bad)
    for w in same:
        assert w in comp


def test_same_zdeg_pairs_are_componentwise_pairs():
    # for j < i with equal z exponent, lex order forces y_j <= y_i, so in a
    # basis with strictly ascending heads every pair the same-z-degree chain
    # compares is also compared by the componentwise chain; this is why the
    # campaign's implication audit cannot fire once basis_integrity passes
    rng = random.Random(41)
    for _ in range(300):
        heads = {
            Monomial(rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 2))
            for _ in range(rng.randint(2, 12))
        }
        heads = sorted(heads)
        for i in range(len(heads)):
            for j in range(i):
                if _same_z(heads[i], heads[j]):
                    assert _componentwise(heads[i], heads[j]), (heads[j], heads[i])


def test_lc_x_divides_lc_xy():
    assert check_lc_x_divides_lc_xy(worked_basis()) == []
    bad = GroebnerBasis((P("x^3"), P("x^2*y*z + x*z")))
    assert check_lc_x_divides_lc_xy(bad) == [{"i": 2, "block": "1", "coefficient": "x"}]


def test_lc_x_divides_poly_gated():
    radical = GroebnerBasis((P("x^3"), P("x^2*z + x")), radical=True)
    r = _report("lc_x_divides_poly", radical)
    assert r.verdict == FAIL
    assert r.witnesses == [{"i": 2, "block": "1", "coefficient": "x"}]

    plain = GroebnerBasis((P("x^3"), P("x^2*z + x")), radical=False)
    r = _report("lc_x_divides_poly", plain)
    assert r.verdict == OBSERVED
    assert r.witnesses

    assert _report("lc_x_divides_poly", worked_basis()).verdict == PASS


def test_content_witnesses_name_the_highest_failing_block():
    # blocks of the last element: z -> x, y^2 -> x, y -> 1, 1 -> x
    elems = (P("x*z + 100*z"), P("x*y^2 + 100*y"), P("x*z + x*y^2 + y + x"))
    assert _content_witnesses(elems, lambda g: g, first=0) == [
        {"i": 2, "block": "y", "coefficient": "100"},
        {"i": 3, "block": "y", "coefficient": "1"},
    ]


def _blockwise_witnesses(elems, part, first):
    """Reference for _content_witnesses: split part(g_i) into its k[x]
    blocks and divide each one by lc_x(g_i), highest block first."""
    witnesses = []
    for i in range(first, len(elems)):
        p, d = part(elems[i]), elems[i].lc_x()
        blocks = {}
        for m, c in p.terms:  # descending, so the blocks are met highest first
            blocks.setdefault((m.c, m.b), []).append((Monomial(m.a, 0, 0), c))
        for (c, b), terms in blocks.items():
            block = Polynomial(p.field, terms)
            if not block.divide([d])[1].is_zero():
                witnesses.append({"i": i + 1, "block": Monomial(0, b, c).text(), "coefficient": block.text()})
                break
    return witnesses


def _element_with_nonunit_lc_x(field, rng, coeff):
    """A random element whose lc_x has positive degree, in one of three
    kinds: q * lc_x (every block divisible), q * lc_x plus one stray term,
    or unstructured."""
    while True:
        kind = rng.randrange(3)
        if kind == 2:
            g = Polynomial(field, [(random_monomial(rng), coeff(rng)) for _ in range(rng.randint(2, 7))])
            if not g.is_zero() and g.lm().a > 0:
                return g, kind
            continue
        d = Polynomial(field, [(Monomial(a, 0, 0), coeff(rng)) for a in range(rng.randint(1, 3))])
        d = d + Polynomial(field, [(Monomial(rng.randint(1, 3), 0, 0), coeff(rng) or 1)])
        head = Monomial(0, rng.randint(0, 3), rng.randint(0, 3))
        lower = [(random_monomial(rng), coeff(rng)) for _ in range(rng.randint(0, 4))]
        # q's top block is the constant 1, so lc_x(q * d) is d itself
        q = Polynomial(field, [(head, 1)] + [(m, k) for m, k in lower if (m.c, m.b) < (head.c, head.b)])
        g = q * d
        if kind == 1:
            g = g + Polynomial(field, [(random_monomial(rng), coeff(rng))])
        if not g.is_zero() and g.lm().a > 0:
            return g, kind


@pytest.mark.parametrize(
    "field, coeff",
    [
        (F101, lambda rng: rng.randrange(101)),
    ],
    ids=["F101"],
)
def test_content_witnesses_match_blockwise_reference(field, coeff):
    rng = random.Random(91)
    seen = {True: 0, False: 0}
    for _ in range(150):
        drawn = [_element_with_nonunit_lc_x(field, rng, coeff) for _ in range(rng.randint(1, 4))]
        elems = tuple(g for g, _ in drawn)
        for part in (lambda g: g, lambda g: g.lc_xy()):
            for first in (0, 1):
                got = _content_witnesses(elems, part, first)
                assert got == _blockwise_witnesses(elems, part, first)
                flagged = {w["i"] for w in got}
                for i, (g, kind) in enumerate(drawn[first:], start=first + 1):
                    if kind == 0:
                        assert i not in flagged, g
                    seen[i in flagged] += 1
    assert seen[True] > 200 and seen[False] > 200, seen


def test_membership_lc_xy():
    assert _report("membership_lc_xy", worked_basis()).verdict == PASS
    bad = GroebnerBasis((P("x^2"), P("y"), P("x*z + 1"), P("z^2")), radical=True)
    r = _report("membership_lc_xy", bad)
    assert r.verdict == FAIL
    assert r.witnesses[0]["i"] == 3
    assert r.witnesses[0]["normal_form"] == "1"


def test_membership_lc_xy_skips_a_basis_that_is_not_zero_dimensional():
    # no head is a pure power of y, so there is no elimination prefix to pass
    F7 = PrimeField(7)
    G = GroebnerBasis(tuple(parse_polynomial(F7, t) for t in ("x^2 + 1", "x*y + 1")), radical=True)
    r = _report("membership_lc_xy", G)
    assert r.verdict == SKIPPED and not r.witnesses
    assert r.notes == "not zero-dimensional: no leading monomial is a pure power of y"


def test_verify_all_worked_basis():
    reports = verify_all(worked_basis())
    assert [r.name for r in reports] == list(CHECK_ORDER)
    assert all(r.verdict == PASS for r in reports)
    assert all_ok(reports)


def test_verify_all_looks_checks_up_at_call_time(monkeypatch):
    # a wrapper set on the module attribute, as the benchmark tracer sets
    # one, must see the call; a table holding the function objects would not
    calls = {"same_zdeg": 0, "fiber": 0}

    def counting(key, fn):
        def wrapper(G):
            calls[key] += 1
            return fn(G)

        return wrapper

    monkeypatch.setattr(
        checks, "check_lc_chain_same_zdeg", counting("same_zdeg", check_lc_chain_same_zdeg)
    )
    monkeypatch.setattr(
        specialize, "check_fiber_membership", counting("fiber", specialize.check_fiber_membership)
    )
    reports = verify_all(worked_basis())
    assert calls == {"same_zdeg": 1, "fiber": 1}
    assert all(r.verdict == PASS for r in reports)


def test_verify_all_works_out_the_structure_facts_once_per_basis(monkeypatch):
    # `structure`, `elimination_basis`, `membership_lc_xy` and the fiber
    # view each ask for them; the basis keeps them from the first ask on
    computed = Counter()
    compute = groebner._structure_facts

    def counted(G):
        computed[id(G)] += 1
        return compute(G)

    monkeypatch.setattr(groebner, "_structure_facts", counted)
    config = CampaignConfig(seed=7)
    bases = [build_instance(r).basis for r in radical_recipes(config) + nonradical_recipes(config)]
    for G in bases:
        assert all_ok(verify_all(G))
    assert len(bases) == 250
    assert computed == Counter(id(G) for G in bases)


def test_verify_all_observed_on_non_radical():
    G = squared_vanishing_basis(PointSet(101, ((0, 0, 0),)))
    reports = {r.name: r for r in verify_all(G)}
    assert reports["basis_integrity"].verdict == PASS
    assert reports["lc_chain_same_zdeg"].verdict == PASS
    assert reports["lc_chain_componentwise"].verdict == PASS
    assert reports["lc_x_divides_lc_xy"].verdict == PASS
    for gated in ("lc_x_divides_poly", "membership_lc_xy", "specialization_image", "gianni_kalkbrener"):
        assert reports[gated].verdict == OBSERVED
    assert all_ok(reports.values())


def test_verify_all_gatekeeper_closes():
    tampered = GroebnerBasis((P("x^2 + 100*x"), P("y"), P("x*z + 5*z"), P("z^2 + 100*z")))
    reports = verify_all(tampered)
    assert [r.name for r in reports] == list(CHECK_ORDER)
    assert reports[0].verdict == FAIL
    assert all(r.verdict == SKIPPED for r in reports[1:])
    assert not all_ok(reports)


def test_verify_all_structure_gate():
    G = GroebnerBasis((P("x"), P("y")))
    reports = verify_all(G)
    assert reports[0].verdict == PASS
    assert reports[1].verdict == FAIL
    assert all(r.verdict == SKIPPED for r in reports[2:])


def test_verify_all_unit_ideal():
    reports = verify_all(buchberger([P("1")]))
    assert reports[0].verdict == PASS
    assert reports[1].verdict == SKIPPED
    assert reports[1].notes == "unit ideal"
    assert all(r.verdict == SKIPPED for r in reports[2:])
    assert all_ok(reports)


def test_verify_all_check_filter():
    reports = verify_all(worked_basis(), checks=["lazard_2d"])
    assert [r.name for r in reports] == ["basis_integrity", "structure", "lazard_2d"]
    with pytest.raises(ValueError, match=re.escape("unknown checks: ['lazard_3d']")):
        verify_all(worked_basis(), checks=["lazard_3d"])


def test_a_selection_may_be_any_iterable_of_names():
    # an iterator is read once, so it must not be used up by the validation
    expected = ["basis_integrity", "structure", "lazard_2d", "fiber_membership"]
    for selection in (
        iter(["lazard_2d", "fiber_membership"]),
        (name for name in ("fiber_membership", "lazard_2d")),
        {"lazard_2d": 1, "fiber_membership": 2}.keys(),
    ):
        assert [r.name for r in verify_all(worked_basis(), checks=selection)] == expected
    assert checks.select_checks(iter(["lazard_2d"])) == ("lazard_2d",)
    assert checks.select_checks(None) is None
    with pytest.raises(ValueError, match=re.escape("unknown checks: ['a', 'b']")):
        checks.select_checks(iter(["b", "lazard_2d", "a"]))


_GATE_SKIP = "gatekeeper check failed"
_PAST_THE_GATEKEEPERS = [
    "lazard_2d",
    "lc_chain_same_zdeg",
    "lc_chain_componentwise",
    "lc_x_divides_lc_xy",
    "lc_x_divides_poly",
    "membership_lc_xy",
    "specialization_image",
    "gianni_kalkbrener",
    "fiber_membership",
]


@pytest.mark.parametrize(
    "basis, gatekeepers, rest",
    [
        (
            GroebnerBasis((P("x^2 + 100*x"), P("y"), P("x*z + 5*z"), P("z^2 + 100*z"))),
            [("basis_integrity", FAIL, ""), ("structure", SKIPPED, _GATE_SKIP)],
            (SKIPPED, _GATE_SKIP),
        ),
        (
            buchberger([P("1")]),
            [("basis_integrity", PASS, ""), ("structure", SKIPPED, "unit ideal")],
            (SKIPPED, _GATE_SKIP),
        ),
        (
            GroebnerBasis((P("x"), P("y"))),
            [("basis_integrity", PASS, ""), ("structure", FAIL, "")],
            (SKIPPED, _GATE_SKIP),
        ),
        (
            worked_basis(),
            [("basis_integrity", PASS, ""), ("structure", PASS, "ell2=2, pure_z_degree=2")],
            (PASS, ""),
        ),
    ],
    ids=["integrity-fails", "unit-ideal", "not-zero-dimensional", "passes"],
)
@pytest.mark.parametrize(
    "selection, past",
    [
        (None, _PAST_THE_GATEKEEPERS),
        ([], []),
        (["structure"], []),
        (["lazard_2d"], ["lazard_2d"]),
    ],
    ids=["all", "none", "structure", "lazard_2d"],
)
def test_the_gate_over_every_selection(basis, gatekeepers, rest, selection, past):
    reports = verify_all(basis, checks=selection)
    got = [(r.name, r.verdict, r.notes) for r in reports]
    assert got == gatekeepers + [(name, *rest) for name in past]
    assert all(r.witnesses for r in reports if r.verdict == FAIL)
    assert all(not r.witnesses for r in reports if r.verdict == SKIPPED)


def test_a_selection_that_names_a_gatekeeper_runs_it_once(monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def wrapper(G):
            calls[name] += 1
            return fn(G)

        return wrapper

    for name in ("basis_integrity", "structure", "lazard_2d"):
        monkeypatch.setattr(checks, f"check_{name}", counting(name, getattr(checks, f"check_{name}")))
    selection = ["structure", "lazard_2d", "basis_integrity", "structure"]
    reports = verify_all(worked_basis(), checks=selection)
    assert [r.name for r in reports] == ["basis_integrity", "structure", "lazard_2d"]
    assert all(r.verdict == PASS for r in reports)
    assert calls == {"basis_integrity": 1, "structure": 1, "lazard_2d": 1}
