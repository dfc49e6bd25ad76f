"""Golden digests of the check reports over a fixed set of bases.

Each digest is the sha256 of the sorted-key JSON of verify_all's reports,
so a change in any verdict, witness, witness order or note shows up as a
mismatch that names its basis.  The file pins the verdicts as they are,
open faults included (the FOUND lines of CHANGES.md); a change that alters
a verdict on purpose regenerates the file and says so:

    PYTHONPATH=src python tests/test_report_digests.py
"""

import hashlib
import json
import random
from pathlib import Path

from lexgb.campaign import CampaignConfig, nonradical_recipes, radical_recipes
from lexgb.checks import verify_all
from lexgb.instances import (
    PointSet,
    build_instance,
    random_points,
    squared_vanishing_basis,
    vanishing_basis,
)

from helpers import FIBERED_PATTERNS, fibered_points

DIGESTS = Path(__file__).parent / "data" / "report_digests.json"

SQUARED_PATTERNS = (((1, 1),), ((2,),), ((1,), (1,)), ((1, 1), (1,)), ((2,), (1,)))

# points sharing x and (x, y) pairs on which the radical-gated checks fail
# although the basis is correct (the first FOUND line of CHANGES.md)
FOUND_POINTS = (
    (19, 6, 8),
    (19, 83, 72),
    (41, 83, 11),
    (41, 83, 70),
    (41, 83, 80),
    (50, 9, 7),
    (50, 83, 46),
    (50, 83, 64),
)


def bases():
    """The fixed set: name -> basis."""
    out = {}
    config = CampaignConfig(seed=7, radical_count=40, nonradical_count=20)
    for recipe in radical_recipes(config) + nonradical_recipes(config):
        out[f"campaign-{recipe.kind}-seed{recipe.seed}"] = build_instance(recipe).basis
    rng = random.Random(11)
    for k in range(24):
        pattern = FIBERED_PATTERNS[k % len(FIBERED_PATTERNS)]
        out[f"fibered-vanishing-{k}"] = vanishing_basis(fibered_points(pattern, rng))
    for k in range(6):
        pattern = SQUARED_PATTERNS[k % len(SQUARED_PATTERNS)]
        out[f"fibered-squared-{k}"] = squared_vanishing_basis(fibered_points(pattern, rng))
    for k in range(12):
        # at p = 7 random points share x-coordinates and (x, y) pairs often
        out[f"p7-vanishing-{k}"] = vanishing_basis(random_points(6 + k % 7, k, 7))
    out["found-shared-xy"] = vanishing_basis(PointSet(101, FOUND_POINTS))
    return out


def digest(G) -> str:
    blob = json.dumps([r.to_dict() for r in verify_all(G)], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def all_digests() -> dict:
    return {name: digest(G) for name, G in bases().items()}


def test_report_digests():
    pinned = json.loads(DIGESTS.read_text())
    current = all_digests()
    changed = sorted(n for n in pinned.keys() | current.keys() if pinned.get(n) != current.get(n))
    assert not changed, f"reports differ from the pinned digests on {changed}"


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n")
