"""Command-line front end.

Every command is deterministic given its flags.  Exit codes: 0 success,
1 verification or solve failure, 2 usage and file errors.  All output is
JSON; --text adds human-readable polynomial renderings.
"""

from __future__ import annotations

import argparse
import json
import sys

from .campaign import CampaignConfig, run_campaign
from .checks import CHECK_ORDER, verify_all
from .field import PrimeField
from .groebner import GroebnerBasis, basis_from_dict, buchberger
from .instances import (
    InstanceRecipe,
    KINDS,
    PointSet,
    RANDOM_TRIANGULAR,
    build_instance,
    pointset_from_dict,
    random_points,
    recipe_from_dict,
    vanishing_basis,
)
from .poly import poly_from_dict
from .report import FAIL
from .specialize import NonSplitError, solve_system


def _emit(data: dict, path: str | None) -> None:
    blob = json.dumps(data, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(blob)
    else:
        sys.stdout.write(blob)


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_gen_points(args) -> int:
    try:
        pts = random_points(args.n, args.seed, args.prime)
    except ValueError as exc:
        return _fail_usage(str(exc))
    _emit(pts.to_dict(), args.output)
    print(f"generated {args.n} points with seed {args.seed}", file=sys.stderr)
    return 0


def cmd_gen_ideal(args) -> int:
    try:
        degrees = None
        if args.degrees:
            parts = [int(v) for v in args.degrees.split(",")]
            if len(parts) != 3:
                raise ValueError("--degrees wants three comma-separated integers")
            degrees = tuple(parts)
        elif args.kind == RANDOM_TRIANGULAR:
            degrees = (2, 2, 2)
        recipe = InstanceRecipe(
            kind=args.kind,
            prime=args.prime,
            seed=args.seed,
            n_points=args.n,
            degrees=degrees,
        )
    except ValueError as exc:
        return _fail_usage(str(exc))
    _emit(recipe.to_dict(), args.output)
    return 0


def _basis_from_input(data: dict) -> GroebnerBasis:
    """Dispatch an input file by its keys: point set, generators, recipe, or basis."""
    if not isinstance(data, dict):
        raise ValueError("input must be a JSON object")
    if "points" in data:
        return vanishing_basis(pointset_from_dict(data))
    if "generators" in data:
        field = PrimeField(data.get("p", 101))
        gens = [poly_from_dict(field, d) for d in data["generators"]]
        return buchberger(gens)
    if "kind" in data:
        return build_instance(recipe_from_dict(data)).basis
    if "basis" in data:
        field = PrimeField(data.get("p", 101))
        return basis_from_dict(field, data)
    raise ValueError("input must contain 'points', 'generators', 'kind' or 'basis'")


def cmd_gb(args) -> int:
    data = _load(args.input)
    basis = _basis_from_input(data)
    _emit(basis.to_dict(text=args.text), args.output)
    return 0


def cmd_verify(args) -> int:
    data = _load(args.input)
    basis = _basis_from_input(data)
    checks = args.checks.split(",") if args.checks else None
    reports = verify_all(basis, checks=checks)
    failed = any(r.verdict == FAIL for r in reports)
    out = {
        "instance": data if "kind" in data else None,
        "p": basis.field.size,
        "checks": [r.to_dict() for r in reports],
        "all_pass": not failed,
    }
    if args.text:
        out["basis"] = [g.text() for g in basis.elements]
    _emit(out, args.output)
    return 1 if failed else 0


def cmd_solve(args) -> int:
    data = _load(args.input)
    basis = _basis_from_input(data)
    try:
        solutions = solve_system(basis)
    except NonSplitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = PointSet(basis.field.size, solutions, None).to_dict()
    _emit(out, args.output)
    return 0


def cmd_campaign(args) -> int:
    try:
        config = CampaignConfig(
            prime=args.prime,
            radical_count=args.radical,
            nonradical_count=args.nonradical,
            points_min=args.points_min,
            points_max=args.points_max,
            seed=args.seed,
            checks=tuple(args.checks.split(",")) if args.checks else None,
            jobs=args.jobs,
        )
    except ValueError as exc:
        return _fail_usage(str(exc))
    summary = run_campaign(config)
    _emit(summary, args.output)
    return 0 if summary["all_pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexgb",
        description="Lex Groebner bases of zero-dimensional trivariate ideals "
        "over F_p, with structural verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--prime", type=int, default=101, help="field modulus (default 101)")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    p = sub.add_parser("gen-points", help="sample distinct points of F_p^3")
    p.add_argument("--n", type=int, required=True, help="number of points")
    common(p)
    p.set_defaults(func=cmd_gen_points)

    p = sub.add_parser("gen-ideal", help="write a replayable instance recipe")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--n", type=int, default=None, help="point count for vanishing kinds")
    p.add_argument("--degrees", default=None, help="d1,d2,d3 for random-triangular")
    common(p)
    p.set_defaults(func=cmd_gen_ideal)

    p = sub.add_parser("gb", help="compute the reduced basis of an input file")
    p.add_argument("input", help="point-set, generator-list or recipe file")
    p.add_argument("--text", action="store_true", help="add human-readable renderings")
    common(p, seed=False)
    p.set_defaults(func=cmd_gb)

    p = sub.add_parser("verify", help="run the structural checks on a basis")
    p.add_argument("input", help="basis, point-set, generator-list or recipe file")
    p.add_argument("--checks", default=None, help=f"comma list from: {','.join(CHECK_ORDER)}")
    p.add_argument("--text", action="store_true", help="add human-readable renderings")
    common(p, seed=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="enumerate the F_p solutions of a basis")
    p.add_argument("input", help="basis, point-set, generator-list or recipe file")
    common(p, seed=False)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("campaign", help="generate and verify a batch of instances")
    p.add_argument("--radical", type=int, default=200, help="vanishing-ideal instances")
    p.add_argument("--nonradical", type=int, default=50, help="probe instances")
    p.add_argument("--points-min", type=int, default=1)
    p.add_argument("--points-max", type=int, default=8)
    p.add_argument("--checks", default=None, help="restrict which checks run")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    common(p)
    p.set_defaults(func=cmd_campaign)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
