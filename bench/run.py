"""Run one benchmark workload on the lexgb sources of this checkout.

    python3 bench/run.py --workload campaign [--seed 7] [--seconds 30] [--trace 0]

The workload's items run in whole rounds, each item once per round and in
the same order, for --seconds: a round starts only while it should end
in time, and there are at least two.  Each item's time is scaled
to a reference machine speed by `speed.Speedometer`, and its time in the
run is the median of its scaled times over the rounds; unlike the best of
k, the median does not fall as a faster machine fits more rounds in.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced rounds, reports the per-layer metrics and
the tracing overhead, and writes the spans to bench/results/.  Every
item's output is checked by `oracle`, which shares no code with lexgb.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import Speedometer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"
SETUP_SAMPLES = 31


def import_lexgb():
    """Put this checkout's sources first on the path and import lexgb from
    them; exit with an error when they are missing."""
    if not (SRC / "lexgb" / "__init__.py").is_file():
        sys.exit(f"error: no lexgb sources at {SRC}")
    sys.path.insert(1, str(SRC))
    import lexgb

    if Path(lexgb.__file__).resolve().parent != SRC / "lexgb":
        sys.exit(f"error: lexgb imported from {lexgb.__file__}, not from {SRC}")


def setup_once(workload: str, seed: int) -> float:
    """Seconds to import lexgb and make the workload's inputs, measured in a
    fresh interpreter so that every import runs in full, and scaled to the
    reference speed like an item's time."""
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]\n"
        "import speed\n"
        "def setup(seed):\n"
        "    import lexgb, workloads\n"
        f"    workloads.WORKLOADS[{workload!r}].inputs(seed, False)\n"
        f"out, exc, wall, scaled = speed.Speedometer().measure(setup, {seed!r})\n"
        "if exc is not None:\n"
        "    raise exc\n"
        "print(scaled)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        sys.exit(f"error: set-up failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


class Rounds:
    """Item times and output bookkeeping over interleaved rounds."""

    def __init__(self, workload, items):
        self.workload = workload
        self.items = items
        self.first: list = [None] * len(items)
        self.canon: list = [None] * len(items)
        self.raised: list = [None] * len(items)
        self.mismatches = [0] * len(items)
        self.count = 0

    def run(self, tracer=None) -> tuple[list[float], float]:
        """One round over every item; returns the scaled item times and the
        round's wall seconds in the items."""
        gc.collect()
        times, walls = [], []
        meter = Speedometer()
        for i, item in enumerate(self.items):
            if tracer is not None:
                tracer.item = i
            out, exc, wall, scaled = meter.measure(self.workload.run, item)
            canon = ("raised", repr(exc)) if exc is not None else self.workload.canonical(out)
            times.append(scaled)
            walls.append(wall)
            if self.count == 0:
                self.first[i], self.canon[i] = out, canon
                if exc is not None:
                    self.raised[i] = canon[1]
            elif canon != self.canon[i]:
                self.mismatches[i] += 1
        self.count += 1
        return times, sum(walls)

    def verdict(self):
        """(correct, attempted, failed, problems) after the last round."""
        problems = {}
        for i, item in enumerate(self.items):
            if self.raised[i] is not None:
                problems[i] = [f"raised {self.raised[i]}"]
            else:
                found = self.workload.check(item, self.first[i])
                if found:
                    problems[i] = found
        wrong = [i for i in problems if self.raised[i] is None]
        failed = sum(self.count if i in problems else self.mismatches[i] for i in range(len(self.items)))
        correct = not wrong and not any(self.mismatches)
        return correct, self.count * len(self.items), failed, problems


def per_item(rounds_times: list[list[float]]) -> list[float]:
    """Each item's median time over the rounds."""
    return [statistics.median(ts) for ts in zip(*rounds_times)]


def another_round(start: float, seconds: float, last_round_s: float, count: int) -> bool:
    """Rounds are whole: start one more only while it should end within the
    run, and run at least two."""
    return count < 2 or perf_counter() - start + last_round_s <= seconds


def timed(workload, items, seconds: float):
    rounds = Rounds(workload, items)
    scaled, walls = [], []
    start = last = perf_counter()
    while another_round(start, seconds, perf_counter() - last if scaled else 0.0, len(scaled)):
        last = perf_counter()
        times, wall = rounds.run()
        scaled.append(times)
        walls.append(wall)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    item_s = per_item(scaled)
    print("per round, scaled s:", " ".join(f"{sum(t):.3f}" for t in scaled), "wall s:", " ".join(f"{w:.3f}" for w in walls))
    metrics = {
        "work_s": (sum(item_s), "s"),
        "item_p50_ms": (statistics.median(item_s) * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return rounds, metrics


def is_seconds(metric: str) -> bool:
    return metric.endswith((".s", "_s"))


def traced(workload, items, seconds: float, spans_path: Path):
    """Untraced and traced rounds in turn; per-layer figures are medians
    over the traced rounds of each round's totals, with seconds scaled to
    the reference speed."""
    from tracer import Tracer

    tracer = Tracer()
    rounds = Rounds(workload, items)
    plain, under_trace, layers = [], [], []
    start = last = perf_counter()
    while another_round(start, seconds, perf_counter() - last if plain else 0.0, len(plain) + len(under_trace)):
        last = perf_counter()
        if len(plain) <= len(under_trace):
            plain.append(rounds.run()[0])
            continue
        before = tracer.snapshot()
        tracer.install()
        try:
            times, wall = rounds.run(tracer)
        finally:
            tracer.uninstall()
        under_trace.append(times)
        after = tracer.snapshot()
        # layer seconds are wall times: scale them as the round's items were
        factor = sum(times) / wall
        layers.append({k: (after[k] - before[k]) * (factor if is_seconds(k) else 1) for k in after})
    RESULTS.mkdir(exist_ok=True)
    span_count = tracer.write_spans(spans_path)
    plain_s, traced_s = sum(per_item(plain)), sum(per_item(under_trace))
    metrics = {}
    for key in layers[0]:
        unit = "s" if is_seconds(key) else "count"
        metrics[key] = (statistics.median(layer[key] for layer in layers), unit)
    metrics["trace.work_s"] = (traced_s, "s")
    metrics["trace.untraced_work_s"] = (plain_s, "s")
    metrics["trace.overhead_pct"] = ((traced_s / plain_s - 1) * 100, "%")
    metrics["trace.spans"] = (span_count, "count")
    return rounds, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_lexgb()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    items = workload.inputs(seed, False)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"

    if args.trace:
        rounds, metrics = traced(workload, items, args.seconds, RESULTS / f"{stem}.spans.tsv.gz")
    else:
        samples = [setup_once(args.workload, seed) for _ in range(SETUP_SAMPLES)]
        rounds, metrics = timed(workload, items, args.seconds)
        metrics["setup_s"] = (statistics.median(samples), "s")
    correct, attempted, failed, problems = rounds.verdict()

    for i, found in list(problems.items())[:5]:
        print(f"item {i}: {'; '.join(found[:3])}", file=sys.stderr)
    print(f"{args.workload} seed {seed}: {len(items)} items x {rounds.count} rounds, {failed} failed")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
