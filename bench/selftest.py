"""Quick self-test of the benchmark on tiny inputs, in a few seconds.

    python3 bench/selftest.py

It checks that a run prints every metric of BENCHMARK.json with its unit,
in both modes, and that a corrupted basis is caught by the oracle and
counted as a failed operation.  Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run

run.import_lexgb()
run.RESULTS = run.RESULTS / "selftest"

import oracle  # noqa: E402
import workloads  # noqa: E402
from lexgb import instances  # noqa: E402
from lexgb.groebner import GroebnerBasis  # noqa: E402
from lexgb.poly import Polynomial  # noqa: E402

SPEC = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())


def expect(ok: bool, what: str):
    if not ok:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def tiny_run(name: str, trace: int) -> dict:
    """run.main on the workload's tiny items, one round; the printed result."""
    full = workloads.WORKLOADS[name]
    workloads.WORKLOADS[name] = dataclasses.replace(full, inputs=lambda seed, tiny: full.inputs(seed, True))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            run.main(["--workload", name, "--seconds", "0", "--trace", str(trace)])
    finally:
        workloads.WORKLOADS[name] = full
    return json.loads(out.getvalue().strip().splitlines()[-1])


def corrupted(basis: GroebnerBasis) -> GroebnerBasis:
    """The basis with the last coefficient of its last element raised by one."""
    *rest, g = basis.elements
    terms = list(g.terms)
    m, c = terms[-1]
    terms[-1] = (m, c + 1)
    return GroebnerBasis(tuple(rest) + (Polynomial(g.field, terms),), radical=basis.radical)


def main():
    spec_units = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = tiny_run(name, trace)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == spec_units[trace], f"{name} --trace {trace} prints every metric with its unit")
            expect(
                result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                f"{name} --trace {trace} is correct with no failed operation",
            )
            if trace:
                scans = result["metrics"]["specialize.roots_univariate.calls"]["value"]
                expect((scans == 0) == (name == "squared-fibered"), f"{name} roots_univariate calls: {scans}")

    points = workloads.p1009_inputs(1, True)[0]
    good = instances.vanishing_basis(points)
    bad = oracle.basis_terms(corrupted(good))
    expect(not oracle.vanishing_problems(oracle.basis_terms(good), points.points, points.prime), "oracle accepts a correct basis")
    expect(bool(oracle.vanishing_problems(bad, points.points, points.prime)), "oracle rejects a changed coefficient")
    square = instances.squared_vanishing_basis(points)
    expect(not oracle.squared_problems(oracle.basis_terms(square), points.points, points.prime), "oracle accepts I^2")
    expect(
        bool(oracle.squared_problems(oracle.basis_terms(corrupted(square)), points.points, points.prime)),
        "oracle rejects a changed coefficient of I^2",
    )

    original = instances.vanishing_basis
    instances.vanishing_basis = lambda pts, field=None: corrupted(original(pts, field))
    try:
        for name in ("points-p1009", "campaign"):
            result = tiny_run(name, 0)
            expect(
                result["failed"] > 0,
                f"{name}: a corrupted basis is counted as failed "
                f"({result['failed']} of {result['attempted']} operations)",
            )
    finally:
        instances.vanishing_basis = original
    print("selftest passed")


if __name__ == "__main__":
    main()
