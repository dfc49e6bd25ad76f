"""Campaign generation, verification summaries, determinism."""

import concurrent.futures
from dataclasses import replace

import pytest

from lexgb import campaign
from lexgb.campaign import (
    CampaignConfig,
    nonradical_recipes,
    radical_recipes,
    run_campaign,
    verify_recipe,
)
from lexgb.checks import CHECK_ORDER
from lexgb.instances import RANDOM_TRIANGULAR, SQUARED_VANISHING, VANISHING_POINTS


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(prime=10)
    with pytest.raises(ValueError):
        CampaignConfig(radical_count=-1)
    with pytest.raises(ValueError):
        CampaignConfig(points_min=3, points_max=2)
    with pytest.raises(ValueError):
        CampaignConfig(points_max=50)
    with pytest.raises(ValueError, match=r"\[2, 9\] exceeds the 8 points of F_2\^3"):
        CampaignConfig(prime=2, points_min=2, points_max=9)
    assert CampaignConfig(prime=2, points_max=8).points_max == 8
    with pytest.raises(ValueError):
        CampaignConfig(jobs=0)
    with pytest.raises(ValueError, match=r"unknown checks: \['no_such_check'\]"):
        CampaignConfig(checks=("no_such_check",))


def test_config_keeps_a_selection_as_a_tuple():
    # a frozen config must hash, and an iterator must not be used up by the
    # validation before the campaign reads it
    for selection in (["lazard_2d", "structure"], iter(["lazard_2d", "structure"])):
        cfg = CampaignConfig(radical_count=1, nonradical_count=0, seed=8, checks=selection)
        assert cfg.checks == ("lazard_2d", "structure")
        assert hash(cfg) == hash(replace(cfg))
        summary = run_campaign(cfg)
        assert summary["config"]["checks"] == ["lazard_2d", "structure"]
        assert list(summary["radical"]["checks"]) == ["basis_integrity", "structure", "lazard_2d"]
    assert CampaignConfig(checks=None).checks is None


def test_radical_recipes_cycle_point_counts():
    cfg = CampaignConfig(radical_count=5, points_min=1, points_max=3, seed=10)
    recipes = radical_recipes(cfg)
    assert [r.n_points for r in recipes] == [1, 2, 3, 1, 2]
    assert [r.seed for r in recipes] == [10, 11, 12, 13, 14]
    assert all(r.kind == VANISHING_POINTS for r in recipes)


def test_nonradical_recipes_alternate_kinds():
    cfg = CampaignConfig(radical_count=3, nonradical_count=6, seed=100)
    recipes = nonradical_recipes(cfg)
    assert [r.kind for r in recipes] == [
        SQUARED_VANISHING,
        RANDOM_TRIANGULAR,
        SQUARED_VANISHING,
        RANDOM_TRIANGULAR,
        SQUARED_VANISHING,
        RANDOM_TRIANGULAR,
    ]
    # seeds continue after the radical block so no instance repeats another
    assert [r.seed for r in recipes] == [103, 104, 105, 106, 107, 108]
    assert [r.n_points for r in recipes if r.kind == SQUARED_VANISHING] == [1, 2, 3]
    assert all(r.degrees is not None for r in recipes if r.kind == RANDOM_TRIANGULAR)


def test_verify_recipe_round_trip():
    recipe = radical_recipes(CampaignConfig(radical_count=1, seed=42))[0]
    result = verify_recipe(recipe.to_dict())
    assert result["instance"] == recipe.to_dict()
    assert [c["name"] for c in result["checks"]] == list(CHECK_ORDER)
    assert all(c["verdict"] in ("pass", "skipped") for c in result["checks"])


def test_small_campaign_summary_shape():
    cfg = CampaignConfig(radical_count=4, nonradical_count=4, points_max=4, seed=5)
    summary = run_campaign(cfg)
    assert summary["config"] == {
        "p": 101,
        "radical": 4,
        "nonradical": 4,
        "points_min": 1,
        "points_max": 4,
        "seed": 5,
        "checks": None,
    }
    assert summary["radical"]["count"] == 4
    assert summary["nonradical"]["count"] == 4
    assert summary["all_pass"] is True
    assert summary["radical"]["failures"] == []
    # radical instances assert every check, so nothing lands in observed mode
    assert summary["radical"]["observed"] == {}
    by_name = summary["radical"]["checks"]
    assert by_name["basis_integrity"]["pass"] == 4
    assert by_name["lc_chain_componentwise"]["pass"] == 4
    # gated checks on non-radical instances are recorded, never asserted
    nr = summary["nonradical"]["checks"]
    assert nr["lc_x_divides_poly"]["observed"] == 4
    assert nr["lc_x_divides_poly"]["fail"] == 0
    assert summary["nonradical"]["observed"]["lc_x_divides_poly"]["total"] == 4


def test_campaign_is_deterministic():
    cfg = CampaignConfig(radical_count=3, nonradical_count=2, seed=21)
    assert run_campaign(cfg) == run_campaign(cfg)


def test_campaign_parallel_matches_serial():
    serial = CampaignConfig(radical_count=6, nonradical_count=2, seed=33, jobs=1)
    parallel = CampaignConfig(radical_count=6, nonradical_count=2, seed=33, jobs=2)
    assert run_campaign(serial) == run_campaign(parallel)


def test_campaign_pool_is_bounded_by_recipes_and_cpus(monkeypatch):
    sizes = []

    class RecordingPool:
        """Records the pool size asked for and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = CampaignConfig(radical_count=4, nonradical_count=2, seed=33, jobs=100000)
    serial = run_campaign(replace(cfg, jobs=1))
    for cpus in (64, 3, None):
        monkeypatch.setattr(campaign.os, "cpu_count", lambda n=cpus: n)
        assert run_campaign(cfg) == serial
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: 64)
    assert run_campaign(replace(cfg, radical_count=1, nonradical_count=0))["radical"]["count"] == 1
    # six recipes, then three CPUs; one CPU or one recipe runs without a pool
    assert sizes == [6, 3]


def test_campaign_check_filter():
    cfg = CampaignConfig(radical_count=2, nonradical_count=0, seed=8, checks=("lazard_2d",))
    summary = run_campaign(cfg)
    assert summary["config"]["checks"] == ["lazard_2d"]
    assert set(summary["radical"]["checks"]) == {"basis_integrity", "structure", "lazard_2d"}
    assert summary["all_pass"] is True


def test_an_empty_check_selection_runs_only_the_gatekeepers():
    # as verify_all(G, checks=[]) does; None, not an empty selection, means all
    gatekeepers = ["basis_integrity", "structure"]
    recipe = radical_recipes(CampaignConfig(radical_count=1, seed=42))[0].to_dict()
    assert [c["name"] for c in verify_recipe(recipe, ())["checks"]] == gatekeepers
    cfg = CampaignConfig(radical_count=2, nonradical_count=1, seed=8, checks=())
    summary = run_campaign(cfg)
    assert summary["config"]["checks"] == []
    assert list(summary["radical"]["checks"]) == gatekeepers
    assert list(summary["nonradical"]["checks"]) == gatekeepers
