"""Reference figures quoted in bench/README.md; not part of the timed runs.

    python3 bench/reference.py sweep   # vanishing_basis + solve_system, p x n grid
    python3 bench/reference.py jobs    # the seed-7 campaign at --jobs 1 and 2
    python3 bench/reference.py drift   # pass-to-pass drift against per-item bests

Each prints one line per figure.  They take about 1.5 min, 25 s and 1 min.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time

import run

run.import_lexgb()

import workloads  # noqa: E402
from lexgb import CampaignConfig, run_campaign, solve_system, vanishing_basis  # noqa: E402
from lexgb.campaign import verify_recipe  # noqa: E402
from speed import Speedometer  # noqa: E402


def sweep():
    """One run per cell; wall seconds, and in brackets scaled as in run.py."""
    for p in (101, 1009, 10007):
        for n in (12, 40, 80):
            points = workloads.uniform_points(n, random.Random(1), p)
            meter = Speedometer()
            basis, _, wall_vb, scaled_vb = meter.measure(vanishing_basis, points)
            solutions, _, wall_ss, scaled_ss = meter.measure(solve_system, basis)
            if list(solutions) != sorted(points.points):
                sys.exit(f"solve_system lost points at p={p}, n={n}")
            print(
                f"p={p:<6} n={n:<3} vanishing_basis {wall_vb:7.3f} s ({scaled_vb:6.3f})"
                f"   solve_system {wall_ss:7.3f} s ({scaled_ss:6.3f})",
                flush=True,
            )


def jobs():
    summaries = []
    for n in (1, 2):
        t0 = time.perf_counter()
        summaries.append(run_campaign(CampaignConfig(seed=7, jobs=n)))
        print(f"campaign --seed 7 --jobs {n}: {time.perf_counter() - t0:.2f} s wall", flush=True)
    print(f"summaries identical: {summaries[0] == summaries[1]}")


def drift():
    """Eight passes over the first 50 seed-7 campaign items: each pass's wall
    and CPU time, then two 5-pass windows summed per item as the best wall
    time and as the median scaled time."""
    items = workloads.campaign_inputs(7, False)[:50]
    walls, scaled = [], []
    meter = Speedometer()
    for _ in range(8):
        wall, cpu = time.perf_counter(), time.process_time()
        results = [meter.measure(verify_recipe, recipe) for recipe in items]
        walls.append([r[2] for r in results])
        scaled.append([r[3] for r in results])
        print(f"pass: wall {time.perf_counter() - wall:.3f} s, cpu {time.process_time() - cpu:.3f} s", flush=True)
    for lo in (0, 3):
        best = sum(min(ts) for ts in zip(*walls[lo : lo + 5]))
        median = sum(statistics.median(ts) for ts in zip(*scaled[lo : lo + 5]))
        print(f"passes {lo + 1}-{lo + 5}: sum of best wall {best:.3f} s, sum of median scaled {median:.3f} s")


if __name__ == "__main__":
    figures = {"sweep": sweep, "jobs": jobs, "drift": drift}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("figure", choices=figures)
    figures[parser.parse_args().figure]()
