"""Witnessed verdicts for the structural checks.

Failure cases use hand-built element tuples wrapped in GroebnerBasis
containers; the checks inspect heads and coefficients directly, so the
containers need not hold genuine Groebner bases.
"""

import random

import pytest

from lexgb import checks, specialize
from lexgb.checks import (
    CHECK_ORDER,
    _componentwise,
    _same_z,
    all_ok,
    check_basis_integrity,
    check_lazard_2d,
    check_lc_chain_componentwise,
    check_lc_chain_same_zdeg,
    check_lc_x_divides_lc_xy,
    check_lc_x_divides_poly,
    check_membership_lc_xy,
    check_structure,
    verify_all,
)
from lexgb.field import PrimeField
from lexgb.groebner import GroebnerBasis, buchberger
from lexgb.instances import PointSet, squared_vanishing_basis, vanishing_basis
from lexgb.poly import Monomial, Polynomial, parse_polynomial
from lexgb.report import FAIL, OBSERVED, PASS, SKIPPED, CheckReport, gated_report

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
    assert r.ok and r.empirically_clean
    r = CheckReport("anything", FAIL, [{"i": 1}])
    assert not r.ok and not r.empirically_clean
    assert CheckReport("anything", OBSERVED, [{"i": 1}]).ok


def test_gated_report_modes():
    assert gated_report("g", True, []).verdict == PASS
    assert gated_report("g", True, [{"i": 1}]).verdict == FAIL
    r = gated_report("g", False, [{"i": 1}])
    assert r.verdict == OBSERVED
    assert "not asserted" in r.notes
    assert r.ok and not r.empirically_clean


def test_report_to_dict():
    r = CheckReport("n", PASS, [], "note")
    assert r.to_dict() == {"name": "n", "verdict": PASS, "witnesses": [], "notes": "note"}


def test_integrity_passes_on_worked_basis():
    assert check_basis_integrity(worked_basis()).verdict == PASS


def test_integrity_rejects_disorder():
    r = check_basis_integrity(GroebnerBasis((P("y"), P("x^2"))))
    assert r.verdict == FAIL
    assert any("ascending" in w["reason"] for w in r.witnesses)


def test_integrity_rejects_non_monic():
    r = check_basis_integrity(GroebnerBasis((P("2*x"),)))
    assert r.verdict == FAIL
    assert r.witnesses[0]["reason"] == "not monic"


def test_integrity_rejects_redundant_head():
    r = check_basis_integrity(GroebnerBasis((P("x"), P("x^2"))))
    assert r.verdict == FAIL
    assert any(w["reason"] == "head divisible by another head" for w in r.witnesses)


def test_integrity_rejects_reducible_tail():
    r = check_basis_integrity(GroebnerBasis((P("x^2"), P("y + x^2"))))
    assert r.verdict == FAIL
    assert any(w["reason"] == "tail monomial reducible" for w in r.witnesses)


def test_integrity_rejects_zero_element():
    r = check_basis_integrity(GroebnerBasis((Polynomial(F101),)))
    assert r.verdict == FAIL
    assert r.witnesses[0]["reason"] == "zero element"


def test_integrity_detects_unreduced_s_pair():
    # tamper with one coefficient of a true basis: the shape survives
    # but S(x*z + 5*z, z^2 + 100*z) no longer reduces to zero
    tampered = GroebnerBasis((P("x^2 + 100*x"), P("y"), P("x*z + 5*z"), P("z^2 + 100*z")))
    r = check_basis_integrity(tampered)
    assert r.verdict == FAIL
    assert r.witnesses == [{"reason": "an S-polynomial does not reduce to zero"}]


def test_integrity_unit_flag():
    assert check_basis_integrity(GroebnerBasis((P("1"),), unit_ideal=True)).verdict == PASS
    r = check_basis_integrity(GroebnerBasis((P("x"),), unit_ideal=True))
    assert r.verdict == FAIL
    assert r.witnesses[0]["reason"] == "unit flag on a non-unit basis"


def test_structure_worked_basis():
    r = check_structure(worked_basis())
    assert r.verdict == PASS
    assert r.notes == "ell2=2, pure_z_degree=2"


def test_structure_missing_pure_power():
    r = check_structure(GroebnerBasis((P("x"),)))
    assert r.verdict == FAIL
    assert r.witnesses == [{"reason": "no leading monomial is a pure power of y"}]


def test_structure_band_violation():
    r = check_structure(GroebnerBasis((P("x^2"), P("x^3"), P("y"), P("z"))))
    assert r.verdict == FAIL
    assert r.witnesses == [{"i": 2, "reason": "element outside its band"}]


def test_lazard_2d_pass():
    G2 = GroebnerBasis((P("x^2 + 100*x"), P("y")))
    assert check_lazard_2d(G2).verdict == PASS


def test_lazard_2d_broken_chain():
    # lc_x of the middle element is x + 1, which does not divide x^2 + 100*x
    G2 = GroebnerBasis((P("x^2 + 100*x"), P("x*y + y"), P("y^2")))
    r = check_lazard_2d(G2)
    assert r.verdict == FAIL
    assert {"i": 2, "j": 1, "divisor": "x + 1", "dividend": "x^2 + 100*x"} in r.witnesses


def test_lazard_2d_content_failure():
    # lc_x = x but the trailing block of the same element is not divisible by x
    G2 = GroebnerBasis((P("x^2"), P("x*y + 1")))
    r = check_lazard_2d(G2)
    assert r.verdict == FAIL
    assert any(w.get("reason", "").startswith("leading x-coefficient") for w in r.witnesses)


def test_lc_chain_same_zdeg():
    assert check_lc_chain_same_zdeg(worked_basis()).verdict == PASS
    bad = GroebnerBasis((P("x^2 + 100*x"), P("x*y + y"), P("y^2")))
    r = check_lc_chain_same_zdeg(bad)
    assert r.verdict == FAIL
    assert r.witnesses[0]["i"] == 2 and r.witnesses[0]["j"] == 1


def test_lc_chain_componentwise():
    assert check_lc_chain_componentwise(worked_basis()).verdict == PASS
    bad = GroebnerBasis((P("x^2 + 100*x"), P("x*y + y"), P("y^2")))
    r = check_lc_chain_componentwise(bad)
    assert r.verdict == FAIL
    assert r.witnesses[0]["divisor"] == "x + 1"


def test_componentwise_check_subsumes_same_zdeg_pairs():
    # every pair compared by the same-z-degree check is also compared by
    # the componentwise check, so a same-z-degree witness implies one here
    bad = GroebnerBasis((P("x^2 + 100*x"), P("x*y + y"), P("y^2")))
    same = check_lc_chain_same_zdeg(bad).witnesses
    comp = check_lc_chain_componentwise(bad).witnesses
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
        heads = sorted(heads, key=Monomial.lex_key)
        for i in range(len(heads)):
            for j in range(i):
                if _same_z(heads[i], heads[j]):
                    assert _componentwise(heads[i], heads[j]), (heads[j], heads[i])


def test_lc_x_divides_lc_xy():
    assert check_lc_x_divides_lc_xy(worked_basis()).verdict == PASS
    bad = GroebnerBasis((P("x^3"), P("x^2*y*z + x*z")))
    r = check_lc_x_divides_lc_xy(bad)
    assert r.verdict == FAIL
    assert r.witnesses == [{"i": 2, "block": "1", "coefficient": "x"}]


def test_lc_x_divides_poly_gated():
    radical = GroebnerBasis((P("x^3"), P("x^2*z + x")), radical=True)
    r = check_lc_x_divides_poly(radical)
    assert r.verdict == FAIL
    assert r.witnesses == [{"i": 2, "block": "1", "coefficient": "x"}]

    plain = GroebnerBasis((P("x^3"), P("x^2*z + x")), radical=False)
    r = check_lc_x_divides_poly(plain)
    assert r.verdict == OBSERVED
    assert not r.empirically_clean

    assert check_lc_x_divides_poly(worked_basis()).verdict == PASS


def test_membership_lc_xy():
    assert check_membership_lc_xy(worked_basis()).verdict == PASS
    bad = GroebnerBasis((P("x^2"), P("y"), P("x*z + 1"), P("z^2")), radical=True)
    r = check_membership_lc_xy(bad)
    assert r.verdict == FAIL
    assert r.witnesses[0]["i"] == 3
    assert r.witnesses[0]["normal_form"] == "1"


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
    with pytest.raises(ValueError):
        verify_all(worked_basis(), checks=["lazard_3d"])
