"""The benchmark's workloads: inputs made from a seed, the timed call into
lexgb, and the independent check of its output.

Each workload is a list of items.  One operation runs one item through
`run(item)`; `check(item, output)` returns the problems found in the
output by `oracle`, an empty list when it is correct.  `tiny=True` gives a
few small items for the self-test.  The timed calls look lexgb's functions
up on their modules at call time, so that the tracer's wrappers see the
top-level call too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from lexgb import campaign, instances, specialize
from lexgb.campaign import CampaignConfig, nonradical_recipes, radical_recipes
from lexgb.instances import (
    SQUARED_VANISHING,
    VANISHING_POINTS,
    PointSet,
    build_instance,
    random_points,
    recipe_from_dict,
)

import oracle


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    inputs: Callable  # (seed, tiny) -> list of items
    run: Callable  # item -> output
    canonical: Callable  # output -> plain data, compared across rounds
    check: Callable  # (item, output) -> list of problems


# -- campaign: verify_recipe over the recipes of `lexgb campaign --seed N` ----


def _shares_xy(recipe) -> bool:
    pts = random_points(recipe.n_points, recipe.seed, recipe.prime).points
    return len({pt[:2] for pt in pts}) < len(pts)


def campaign_inputs(seed: int, tiny: bool) -> list[dict]:
    """The radical and non-radical recipes of the campaign at p = 101.

    Radical recipes whose points share an (x, y) pair are left out: on some
    of them the radical-gated checks report "fail" for a correct basis (a
    fault of lexgb, noted in CHANGES.md), which would make the failure count
    depend on the seed.  About one recipe in a thousand is dropped.
    """
    config = CampaignConfig(seed=seed, radical_count=8 if tiny else 200, nonradical_count=4 if tiny else 50)
    radical = [r for r in radical_recipes(config) if not _shares_xy(r)]
    return [r.to_dict() for r in radical + nonradical_recipes(config)]


def campaign_check(recipe: dict, output) -> list[str]:
    problems = []
    if output["instance"] != recipe:
        problems.append("report names another instance")
    verdicts = {c["name"]: c["verdict"] for c in output["checks"]}
    if len(verdicts) != 11:
        problems.append(f"{len(verdicts)} checks reported, expected 11")
    for name in ("basis_integrity", "lazard_2d"):
        if verdicts.get(name) != "pass":
            problems.append(f"{name} is {verdicts.get(name)}")
    instance = build_instance(recipe_from_dict(recipe))
    polys = oracle.basis_terms(instance.basis)
    if recipe["kind"] == VANISHING_POINTS:
        failing = sorted(n for n, v in verdicts.items() if v == "fail")
        if failing:
            problems.append(f"radical instance fails {failing}")
        problems += oracle.vanishing_problems(polys, instance.points.points, recipe["p"])
    elif recipe["kind"] == SQUARED_VANISHING:
        problems += oracle.squared_problems(polys, instance.points.points, recipe["p"])
    return problems


# -- squared-fibered: Buchberger completion of I(S)^2 --------------------------

# Each pattern lists the x-fibers of a point set; a fiber lists how many
# points share each of its (x, y) pairs.  The pattern fixes the staircase
# and so the cost, the seed only draws the coordinates, which keeps the
# work per round nearly the same on every seed.  3 to 7 points each.
FIBER_PATTERNS = (
    ((2,), (1,)),
    ((1, 1), (1,)),
    ((2, 1),),
    ((2,), (2,)),
    ((1, 1), (1, 1)),
    ((2, 1), (1,)),
    ((3,), (1,)),
    ((2, 2), (1,)),
    ((2, 1), (1, 1)),
    ((3, 1), (1,)),
    ((2, 1, 1), (1,)),
    ((2, 2), (2,)),
    ((3,), (2, 1)),
    ((2, 1), (2, 1)),
    ((1, 1, 1), (1,)),
    ((2,), (1,), (1,)),
    ((1, 1), (1,), (1,)),
    ((2, 1), (1,), (1,)),
    ((2, 1, 1), (2,)),
    ((3,), (1, 1)),
    ((2, 2), (2,), (1,)),
    ((1, 1, 1), (1, 1)),
)


def fibered_points(pattern, rng: random.Random, prime: int) -> PointSet:
    xs = rng.sample(range(prime), len(pattern))
    pts = []
    for x, fiber in zip(xs, pattern):
        for y, count in zip(rng.sample(range(prime), len(fiber)), fiber):
            pts.extend((x, y, z) for z in rng.sample(range(prime), count))
    return PointSet(prime, tuple(pts))


def squared_inputs(seed: int, tiny: bool) -> list[PointSet]:
    rng = random.Random(seed)
    patterns = FIBER_PATTERNS[:3] if tiny else FIBER_PATTERNS
    return [fibered_points(pattern, rng, 101) for pattern in patterns]


def squared_check(points: PointSet, output) -> list[str]:
    return oracle.squared_problems(oracle.basis_terms(output), points.points, points.prime)


# -- points-p1009: vanishing_basis then solve_system at a larger prime --------

POINT_COUNTS = (24, 36, 48, 60, 72)


def uniform_points(n: int, rng: random.Random, prime: int) -> PointSet:
    pts: dict[tuple[int, int, int], None] = {}
    while len(pts) < n:
        pts[(rng.randrange(prime), rng.randrange(prime), rng.randrange(prime))] = None
    return PointSet(prime, tuple(pts))


def p1009_inputs(seed: int, tiny: bool) -> list[PointSet]:
    rng = random.Random(seed)
    return [uniform_points(n, rng, 1009) for n in ((4, 6) if tiny else POINT_COUNTS)]


def p1009_run(points: PointSet):
    basis = instances.vanishing_basis(points)
    return basis, specialize.solve_system(basis)


def p1009_check(points: PointSet, output) -> list[str]:
    basis, solutions = output
    problems = oracle.vanishing_problems(oracle.basis_terms(basis), points.points, points.prime)
    if [tuple(s) for s in solutions] != sorted(points.points):
        problems.append("solve_system did not return exactly the sorted points")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "campaign",
            7,
            campaign_inputs,
            lambda recipe: campaign.verify_recipe(recipe),
            lambda report: report,
            campaign_check,
        ),
        Workload(
            "squared-fibered",
            1,
            squared_inputs,
            lambda points: instances.squared_vanishing_basis(points),
            oracle.basis_terms,
            squared_check,
        ),
        Workload(
            "points-p1009",
            1,
            p1009_inputs,
            p1009_run,
            lambda out: (oracle.basis_terms(out[0]), [tuple(s) for s in out[1]]),
            p1009_check,
        ),
    )
}
