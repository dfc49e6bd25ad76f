"""Seeded verification campaigns over generated instances.

Per-instance seeds are the master seed plus the instance index, so any
failure is replayable from the summary alone.  Summaries carry no
timestamps: the same configuration always produces identical output.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .checks import CHECK_ORDER, verify_all
from .field import PrimeField
from .instances import (
    RANDOM_TRIANGULAR,
    SQUARED_VANISHING,
    VANISHING_POINTS,
    InstanceRecipe,
    build_instance,
    recipe_from_dict,
)
from .report import FAIL, OBSERVED

# degree triples cycled by the non-radical triangular recipes
_TRIANGULAR_DEGREES = (
    (2, 2, 2),
    (1, 2, 3),
    (3, 1, 2),
    (2, 1, 1),
    (1, 3, 2),
    (2, 2, 1),
    (3, 2, 1),
    (1, 1, 2),
)


@dataclass(frozen=True)
class CampaignConfig:
    prime: int = 101
    radical_count: int = 200
    nonradical_count: int = 50
    points_min: int = 1
    points_max: int = 8
    seed: int = 0
    checks: tuple[str, ...] | None = None
    jobs: int = 1

    def __post_init__(self):
        PrimeField(self.prime)
        if self.radical_count < 0 or self.nonradical_count < 0:
            raise ValueError("instance counts must be nonnegative")
        if not 1 <= self.points_min <= self.points_max <= 12:
            raise ValueError("point-count range must sit inside [1, 12]")
        if self.points_max > self.prime**3:
            bound = f"the {self.prime**3} points of F_{self.prime}^3"
            raise ValueError(f"point-count range [{self.points_min}, {self.points_max}] exceeds {bound}")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")
        if self.checks is not None:
            unknown = set(self.checks) - set(CHECK_ORDER)
            if unknown:
                raise ValueError(f"unknown checks: {sorted(unknown)}")


def radical_recipes(config: CampaignConfig) -> list[InstanceRecipe]:
    """Vanishing-ideal recipes with point counts cycling through the range."""
    span = config.points_max - config.points_min + 1
    return [
        InstanceRecipe(
            kind=VANISHING_POINTS,
            prime=config.prime,
            seed=config.seed + i,
            n_points=config.points_min + i % span,
        )
        for i in range(config.radical_count)
    ]


def nonradical_recipes(config: CampaignConfig) -> list[InstanceRecipe]:
    """Alternating squared-vanishing and random-triangular recipes."""
    out = []
    for i in range(config.nonradical_count):
        seed = config.seed + config.radical_count + i
        if i % 2 == 0:
            out.append(
                InstanceRecipe(
                    kind=SQUARED_VANISHING,
                    prime=config.prime,
                    seed=seed,
                    n_points=1 + (i // 2) % 3,
                )
            )
        else:
            out.append(
                InstanceRecipe(
                    kind=RANDOM_TRIANGULAR,
                    prime=config.prime,
                    seed=seed,
                    degrees=_TRIANGULAR_DEGREES[(i // 2) % len(_TRIANGULAR_DEGREES)],
                )
            )
    return out


def verify_recipe(recipe_data: dict, checks=None) -> dict:
    """Build one instance and run the checks; plain dicts in and out so the
    call can cross a process boundary."""
    recipe = recipe_from_dict(recipe_data)
    instance = build_instance(recipe)
    reports = verify_all(instance.basis, checks=list(checks) if checks else None)
    return {
        "instance": recipe.to_dict(),
        "checks": [r.to_dict() for r in reports],
    }


def _summarize(results: list[dict], kinds: set[str]) -> dict:
    counts: dict[str, dict[str, int]] = {}
    failures = []
    observed: dict[str, dict[str, int]] = {}
    n = 0
    for res in results:
        if res["instance"]["kind"] not in kinds:
            continue
        n += 1
        for chk in res["checks"]:
            slot = counts.setdefault(chk["name"], {"pass": 0, "fail": 0, "skipped": 0, "observed": 0})
            slot[chk["verdict"]] += 1
            if chk["verdict"] == FAIL:
                failures.append(
                    {
                        "check": chk["name"],
                        "seed": res["instance"]["seed"],
                        "recipe": res["instance"],
                        "witnesses": chk["witnesses"],
                    }
                )
            if chk["verdict"] == OBSERVED:
                obs = observed.setdefault(chk["name"], {"clean": 0, "total": 0})
                obs["total"] += 1
                if not chk["witnesses"]:
                    obs["clean"] += 1
    return {"count": n, "checks": counts, "failures": failures, "observed": observed}


def run_campaign(config: CampaignConfig) -> dict:
    """Generate, verify and summarize all campaign instances."""
    recipes = [r.to_dict() for r in radical_recipes(config) + nonradical_recipes(config)]
    # a forked pool starts all its workers at the first submit, so more
    # workers than recipes or CPUs would only cost processes
    workers = min(config.jobs, len(recipes), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool pulls in logging and traceback, which a
        # serial run never needs
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(verify_recipe, recipes, [config.checks] * len(recipes)))
    else:
        results = [verify_recipe(r, config.checks) for r in recipes]

    radical = _summarize(results, {VANISHING_POINTS})
    nonradical = _summarize(results, {SQUARED_VANISHING, RANDOM_TRIANGULAR})
    all_pass = not radical["failures"] and not nonradical["failures"]
    return {
        "config": {
            "p": config.prime,
            "radical": config.radical_count,
            "nonradical": config.nonradical_count,
            "points_min": config.points_min,
            "points_max": config.points_max,
            "seed": config.seed,
            "checks": list(config.checks) if config.checks else None,
        },
        "radical": radical,
        "nonradical": nonradical,
        "all_pass": all_pass,
    }
