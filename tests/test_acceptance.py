"""Acceptance gate: the seven release criteria, one printed verdict line each.

A shared module fixture builds the full campaign (200 radical instances,
50 non-radical probes, master seed 7) exactly once; the criteria then
interrogate the cached bases and reports.
"""

import random
import time

import pytest

from lexgb.campaign import CampaignConfig, nonradical_recipes, radical_recipes
from lexgb.checks import CHECK_ORDER, verify_all
from lexgb.field import PrimeField
from lexgb.groebner import buchberger, is_groebner_basis, quotient_dimension
from lexgb.instances import VANISHING_POINTS, PointSet, build_instance, vanishing_basis
from lexgb.poly import parse_polynomial
from lexgb.specialize import solve_system

from helpers import random_poly

F101 = PrimeField(101)

CONFIG = CampaignConfig(seed=7)

UNCONDITIONAL = (
    "basis_integrity",
    "structure",
    "lazard_2d",
    "lc_chain_same_zdeg",
    "lc_chain_componentwise",
    "lc_x_divides_lc_xy",
)
GATED = (
    "lc_x_divides_poly",
    "membership_lc_xy",
    "specialization_image",
    "gianni_kalkbrener",
    "fiber_membership",
)


def P(text):
    return parse_polynomial(F101, text)


def verdict_line(number, ok, description):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {description}")


@pytest.fixture(scope="module")
def campaign():
    """(recipe, instance, {check name: report}) for all 250 instances, plus
    the single-threaded wall time of building and checking everything."""
    start = time.perf_counter()
    rows = []
    for recipe in radical_recipes(CONFIG) + nonradical_recipes(CONFIG):
        instance = build_instance(recipe)
        reports = {r.name: r for r in verify_all(instance.basis)}
        rows.append((recipe, instance, reports))
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_1_radical_campaign(campaign):
    rows, elapsed = campaign
    radical_rows = [row for row in rows if row[0].kind == VANISHING_POINTS]
    failures = []
    skipped_fibers = 0
    for recipe, _, reports in radical_rows:
        assert set(reports) == set(CHECK_ORDER)
        for name, report in reports.items():
            if name == "fiber_membership" and report.verdict == "skipped":
                skipped_fibers += 1
                continue
            if report.verdict != "pass":
                failures.append((recipe.seed, name, report.verdict, report.witnesses))
    ok = len(radical_rows) == 200 and not failures and elapsed < 60.0
    verdict_line(
        1,
        ok,
        f"{len(radical_rows)} radical instances, every check asserted "
        f"({skipped_fibers} vacuous fiber checks), {elapsed:.1f}s",
    )
    assert len(radical_rows) == 200
    assert failures == []
    assert elapsed < 60.0


def test_criterion_2_solve_round_trip(campaign):
    rows, _ = campaign
    mismatches = []
    checked = 0
    for recipe, instance, _ in rows:
        if recipe.kind != VANISHING_POINTS:
            continue
        checked += 1
        expected = tuple(sorted(instance.points.points))
        got = solve_system(instance.basis)
        if got != expected:
            mismatches.append((recipe.seed, got, expected))
        if quotient_dimension(instance.basis) != len(instance.points):
            mismatches.append((recipe.seed, "dimension", len(instance.points)))
    verdict_line(2, not mismatches, f"solutions and quotient dimension match on {checked} point sets")
    assert mismatches == []


def test_criterion_3_engine_oracles(campaign):
    rows, _ = campaign
    problems = []
    for recipe, instance, _ in rows:
        basis = instance.basis
        assert not basis.unit_ideal
        if not is_groebner_basis(basis):
            problems.append((recipe.seed, "S-pair criterion"))
        if buchberger(basis.elements).elements != basis.elements:
            problems.append((recipe.seed, "not idempotent"))
        if instance.points is not None:
            for g in basis.elements:
                if any(g.evaluate(pt) for pt in instance.points.points):
                    problems.append((recipe.seed, "nonzero at a generating point"))
                    break
    verdict_line(3, not problems, f"S-pair, idempotence and evaluation oracles on {len(rows)} bases")
    assert problems == []


def test_criterion_4_worked_golden_instance():
    points = PointSet(101, ((0, 0, 0), (1, 0, 0), (1, 0, 1)))
    G = vanishing_basis(points)

    expected_dict = {
        "p": 101,
        "basis": [
            {"terms": [{"c": 1, "e": [2, 0, 0]}, {"c": 100, "e": [1, 0, 0]}]},
            {"terms": [{"c": 1, "e": [0, 1, 0]}]},
            {"terms": [{"c": 1, "e": [1, 0, 1]}, {"c": 100, "e": [0, 0, 1]}]},
            {"terms": [{"c": 1, "e": [0, 0, 2]}, {"c": 100, "e": [0, 0, 1]}]},
        ],
        "ell2": 2,
        "zero_dim": True,
        "radical": True,
        "unit_ideal": False,
    }
    exact = G.to_dict() == expected_dict
    dimension = quotient_dimension(G) == 3
    reports = verify_all(G)
    checks_pass = all(r.verdict == "pass" for r in reports)

    def image_texts(alpha):
        images = (g.substitute_x(F101(alpha)) for g in G.elements[1:])
        return {img.text() for img in images if not img.is_zero()}

    at_one = image_texts(1) == {"y", "z^2 + 100*z"}
    at_zero = image_texts(0) == {"y", "100*z", "z^2 + 100*z"}
    solved = solve_system(G) == ((0, 0, 0), (1, 0, 0), (1, 0, 1))

    ok = exact and dimension and checks_pass and at_one and at_zero and solved
    verdict_line(4, ok, "golden three-point basis, images and solutions match exactly")
    assert exact
    assert dimension
    assert checks_pass
    assert at_one and at_zero
    assert solved


def test_criterion_5_nonradical_campaign(campaign):
    rows, _ = campaign
    probe_rows = [row for row in rows if row[0].kind != VANISHING_POINTS]
    failures = []
    observed = {name: {"clean": 0, "total": 0} for name in GATED}
    for recipe, _, reports in probe_rows:
        for name in UNCONDITIONAL:
            if reports[name].verdict != "pass":
                failures.append((recipe.seed, name, reports[name].verdict))
        for name in GATED:
            report = reports[name]
            if report.verdict == "fail":
                failures.append((recipe.seed, name, "asserted on non-radical input"))
            if report.verdict == "observed":
                observed[name]["total"] += 1
                observed[name]["clean"] += not report.witnesses
    rates = ", ".join(
        f"{name} {slot['clean']}/{slot['total']}" for name, slot in observed.items() if slot["total"]
    )
    ok = len(probe_rows) == 50 and not failures
    verdict_line(
        5,
        ok,
        f"{len(probe_rows)} probes: unconditional checks asserted; observed clean rates: {rates}",
    )
    assert len(probe_rows) == 50
    assert failures == []


def test_criterion_6_division_contract():
    rng = random.Random(101)
    bad = 0
    for _ in range(1000):
        p = random_poly(F101, rng, max_deg=4, max_terms=8)
        divisors = [
            random_poly(F101, rng, max_deg=3, max_terms=4, nonzero=True)
            for _ in range(rng.randrange(1, 4))
        ]
        quots, rem = p.divide(divisors)
        total = rem
        for q, d in zip(quots, divisors):
            total = total + q * d
        if total != p:
            bad += 1
            continue
        if any(
            d.lm().divides(m) for m, _ in rem.terms for d in divisors
        ):
            bad += 1
            continue
        if not p.is_zero():
            bound = p.lm()
            if any(
                q.lm() * d.lm() > bound
                for q, d in zip(quots, divisors)
                if not q.is_zero()
            ):
                bad += 1
    verdict_line(6, bad == 0, f"1000 division cases reconstruct exactly, {bad} violations")
    assert bad == 0


def test_criterion_7_implication_audit(campaign):
    rows, _ = campaign
    violations = []
    for recipe, _, reports in rows:
        strong = reports["lc_chain_componentwise"].verdict
        weak = reports["lc_chain_same_zdeg"].verdict
        if strong == "pass" and weak == "fail":
            violations.append(recipe.seed)
    verdict_line(
        7,
        not violations,
        f"componentwise chain implies equal-z-degree chain on all {len(rows)} instances",
    )
    assert violations == []
