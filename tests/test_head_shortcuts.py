"""The checks that settle a statement from the heads agree with the
references in `helpers.REFERENCE_CHECKS`, which divide, complete or
substitute on every element, output for output: the same witnesses, or
the same note where the statement does not apply.

The corpus holds the seed-7 campaign bases, where the heads decide almost
everything, and bases where the statements are refuted: vanishing and
squared bases of point sets that share x- and (x, y)-coordinates, random
triangular bases, and hand-built containers that are not Groebner bases.
Each check must return witnesses somewhere in the corpus, so a shortcut
that skipped real work would show as a missing witness.  Random triangular
bases at primes from 2 to 1009 hold the fiber checks, which their heads
settle, to both of `fiber_membership`'s outcomes there: pass and skip."""

import dataclasses
import random

from lexgb import checks
from lexgb.campaign import CampaignConfig, nonradical_recipes, radical_recipes
from lexgb.field import PrimeField
from lexgb.groebner import GroebnerBasis
from lexgb.instances import (
    build_instance,
    random_triangular_basis,
    squared_vanishing_basis,
    vanishing_basis,
)
from lexgb.report import OBSERVED, PASS, SKIPPED

from helpers import (
    REFERENCE_CHECKS,
    box_points,
    fibered_points,
    random_pattern,
    random_poly,
    reference_lazard_2d,
)

F101 = PrimeField(101)


def _point_set_bases(rng) -> list:
    point_sets = [fibered_points(random_pattern(rng), rng) for _ in range(300)]
    point_sets += [box_points(rng) for _ in range(300)]
    bases = []
    for points in point_sets:
        bases += [vanishing_basis(points), squared_vanishing_basis(points)]
    return bases


def _triangular_bases(rng) -> list:
    return [
        random_triangular_basis([rng.randint(1, 3) for _ in range(3)], seed, 101) for seed in range(300)
    ]


def _hand_built(rng, count, bivariate=False) -> list:
    """Containers of 2-5 random elements with distinct heads, ascending."""
    out = []
    while len(out) < count:
        elems = {}
        for _ in range(rng.randint(2, 5)):
            g = random_poly(F101, rng, max_deg=3, max_terms=6, nonzero=True)
            if bivariate:
                g = g.lc_xy() if g.lm().c else g
            elems.setdefault(g.lm(), g)
        out.append(GroebnerBasis(tuple(elems[m] for m in sorted(elems)), radical=rng.random() < 0.5))
    return out


def _tally(bases, pairs) -> dict:
    """Assert that each check of `pairs` (name: (check, reference)) returns
    what its reference returns on every basis; count the bases where it
    witnesses."""
    counts = dict.fromkeys(pairs, 0)
    for G in bases:
        for name, (check, reference) in pairs.items():
            out = check(G)
            assert out == reference(G), (name, G.to_dict(text=True))
            counts[name] += isinstance(out, list) and bool(out)
    return counts


def _runners(names) -> dict:
    return {name: (checks._RUNNERS[name][0], REFERENCE_CHECKS[name]) for name in names}


def test_shortcuts_match_the_references_on_the_campaign():
    config = CampaignConfig(seed=7)
    bases = [build_instance(r).basis for r in radical_recipes(config) + nonradical_recipes(config)]
    assert len(bases) == 250
    # every statement holds here, so the shortcuts must keep every pass
    assert _tally(bases, _runners(REFERENCE_CHECKS)) == dict.fromkeys(REFERENCE_CHECKS, 0)


def test_shortcuts_match_the_references_where_the_statements_are_refuted():
    rng = random.Random(18)
    bases = _point_set_bases(rng) + _triangular_bases(rng)
    counts = _tally(bases, _runners(REFERENCE_CHECKS))
    for name in ("lc_x_divides_poly", "membership_lc_xy", "gianni_kalkbrener", "fiber_membership"):
        assert counts[name] >= 50, (name, counts)


def test_fiber_checks_match_the_references_on_triangular_bases_at_every_prime():
    # heads x^a, y^b, z^c settle the three fiber checks with no image; only
    # fiber_membership still asks whether g_1 has a root in F_p, so it must
    # both pass (or be observed) and skip at every prime
    rng = random.Random(22)
    pairs = _runners(("specialization_image", "gianni_kalkbrener", "fiber_membership"))
    for p in (2, 3, 7, 101, 1009):
        verdicts = set()
        for seed in range(300):
            G = random_triangular_basis([rng.randint(1, 3) for _ in range(3)], seed, p)
            G = dataclasses.replace(G, radical=rng.random() < 0.5)
            _tally([G], pairs)
            verdicts.add(checks._report("fiber_membership", G).verdict)
        assert SKIPPED in verdicts and verdicts & {PASS, OBSERVED}, (p, verdicts)


def test_shortcuts_match_the_references_on_hand_built_containers():
    rng = random.Random(181)
    walkers = [
        "lc_chain_same_zdeg",
        "lc_chain_componentwise",
        "lc_x_divides_lc_xy",
        "lc_x_divides_poly",
    ]
    counts = _tally(_hand_built(rng, 400), _runners(walkers))
    lazard = {"lazard_2d": (checks.check_lazard_2d, reference_lazard_2d)}
    counts.update(_tally(_hand_built(rng, 400, bivariate=True), lazard))
    assert all(n >= 20 for n in counts.values()), counts
