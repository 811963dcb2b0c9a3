"""Paired verdicts for the end-to-end metrics of BENCH files.

Usage (from the repository root):

    python3 tools/benchverdict.py BENCH_31.json [BENCH_30.json ...] [--benchmark BENCHMARK.json]

A BENCH file keeps, per workload, every run of its alternating parent/change
pairs: ``workloads[w][side]["runs"][metric]``, run i of each side from the same
seed.  For each workload and each end-to-end metric of BENCHMARK.json, this
prints the median over pairs of the log-ratio log(change / parent), with a 95%
bootstrap interval of that median (4,000 resamples of the pairs, seed 0), both
as percentages, exp(x) - 1.  The verdict compares the interval with the limit
that the metric's ``bound`` sets in its worse direction, ratio 1 + bound for a
lower-is-better metric and 1 - bound for a higher-is-better one:

* ``within``: the whole interval is on the better side of the limit;
* ``past``: the whole interval is beyond it;
* ``unresolved``: the interval holds the limit.  The report adds the number of
  pairs that would likely settle it, n (half-width / distance to the limit)^2,
  as an interval narrows with the root of the number of pairs.

``vs 0`` says whether the interval lies wholly on the ``better`` or the
``worse`` side of no change, or holds it (``-``): a gain is only claimed where
it reads ``better``.  Next to it stands the median rule, the change of the
median run against the parent's median run, and whether it is within the bound.
The median rule alone can call a metric within while its interval is not, so a
metric passes here only when its interval is within.  Exits 1 when a metric is
past its bound, else 0.  Needs numpy.

Given more than one file, it then prints a trajectory table per workload: each
file's ``ops_per_s`` paired median and interval, in the order given, and the
running product of those medians, change over parent, across the files that hold
the workload.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

RESAMPLES = 4000
SEED = 0
LEVEL = 0.95
ROOT = Path(__file__).resolve().parent.parent


def paired_log_ratios(parent, change) -> np.ndarray:
    """log(change_i / parent_i) over the pairs; the two sides' runs pair by index."""
    if len(parent) != len(change) or not parent:
        raise ValueError(f"{len(parent)} parent and {len(change)} change runs do not pair")
    return np.log(np.asarray(change, dtype=float) / np.asarray(parent, dtype=float))


def bootstrap_interval(r: np.ndarray) -> tuple[float, float]:
    """The 95% percentile interval of the median of r over RESAMPLES resamples."""
    rng = np.random.default_rng(SEED)
    medians = np.median(r[rng.integers(0, len(r), (RESAMPLES, len(r)))], axis=1)
    tail = 50.0 * (1.0 - LEVEL)
    lo, hi = np.percentile(medians, [tail, 100.0 - tail])
    return float(lo), float(hi)


def verdict(median: float, lo: float, hi: float, n: int, bound: float, better: str):
    """(verdict, pairs that would likely settle it or None), all in log-ratio units."""
    if better == "lower":  # worse is a larger ratio
        limit = math.log1p(bound)
        inside, beyond = hi < limit, lo > limit
    else:  # worse is a smaller ratio
        limit = math.log1p(-bound)
        inside, beyond = lo > limit, hi < limit
    if inside:
        return "within", None
    if beyond:
        return "past", None
    # the interval's end on the limit's side must cross it
    half = hi - median if median < limit else median - lo
    distance = abs(median - limit)
    return "unresolved", math.ceil(n * (half / distance) ** 2) if distance else None


def rows(bench: dict, benchmark: dict) -> list[dict]:
    """One row per workload and end-to-end metric of a BENCH file."""
    out = []
    for name, workload in bench["workloads"].items():
        for metric in benchmark["end_to_end"]:
            key, bound, better = metric["name"], metric["bound"], metric["better"]
            parent = workload["parent"]["runs"][key]
            change = workload["change"]["runs"][key]
            r = paired_log_ratios(parent, change)
            median = float(np.median(r))
            lo, hi = bootstrap_interval(r)
            state, needed = verdict(median, lo, hi, len(r), bound, better)
            gain = 1.0 if better == "higher" else -1.0  # sign of a gain in log units
            side = "better" if gain * lo > 0 and gain * hi > 0 else (
                "worse" if gain * lo < 0 and gain * hi < 0 else "-")
            shift = float(np.median(change)) / float(np.median(parent)) - 1.0
            out.append({
                "workload": name, "metric": key, "pairs": len(r), "median": math.expm1(median),
                "lo": math.expm1(lo), "hi": math.expm1(hi), "bound": bound, "verdict": state,
                "pairs_needed": needed, "vs_zero": side, "median_rule": shift,
                "median_rule_within": -gain * shift <= bound,
            })
    return out


def render(path: str, table: list[dict]) -> str:
    lines = [f"{path}: paired median of change / parent, 95% bootstrap interval "
             f"({RESAMPLES} resamples, seed {SEED})",
             f"  {'workload':<12} {'metric':<15} {'pairs':>5} {'median':>8} "
             f"{'interval':>18} {'bound':>6}  {'verdict':<24} {'vs 0':<6} median rule"]
    for row in table:
        state = row["verdict"]
        if state == "unresolved":
            needed = row["pairs_needed"]
            state += f" (~{needed} pairs)" if needed is not None else " (median on limit)"
        interval = f"[{100 * row['lo']:+.1f}, {100 * row['hi']:+.1f}]%"
        rule = "within" if row["median_rule_within"] else "past"
        lines.append(
            f"  {row['workload']:<12} {row['metric']:<15} {row['pairs']:>5} "
            f"{100 * row['median']:>+7.1f}% {interval:>18} {100 * row['bound']:>5.0f}%  "
            f"{state:<24} {row['vs_zero']:<6} {100 * row['median_rule']:+.2f}% {rule}")
    return "\n".join(lines)


def trajectory(tables) -> dict[str, list[dict]]:
    """Per workload, one step per (path, rows) table that holds it: the paired median
    and interval of ops_per_s and the running product of the medians as ratios."""
    out: dict[str, list[dict]] = {}
    for path, table in tables:
        for row in table:
            if row["metric"] == "ops_per_s":
                steps = out.setdefault(row["workload"], [])
                product = (steps[-1]["product"] if steps else 1.0) * (1.0 + row["median"])
                steps.append({"path": path, "median": row["median"], "lo": row["lo"],
                              "hi": row["hi"], "product": product})
    return out


def render_trajectory(steps_by_workload: dict) -> str:
    lines = ["Trajectory of ops_per_s: paired median of change / parent per file, "
             "95% interval, running product of the medians"]
    for workload, steps in steps_by_workload.items():
        lines.append(f"  {workload}")
        for step in steps:
            interval = f"[{100 * step['lo']:+.1f}, {100 * step['hi']:+.1f}]%"
            lines.append(f"    {step['path']:<16} {100 * step['median']:>+7.1f}% "
                         f"{interval:>18}  x{step['product']:.3f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("bench", nargs="+", help="BENCH_<n>.json files")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    benchmark = json.loads(Path(args.benchmark).read_text())
    tables = [(path, rows(json.loads(Path(path).read_text()), benchmark))
              for path in args.bench]
    for path, table in tables:
        print(render(path, table))
    if len(tables) > 1:
        print(render_trajectory(trajectory(tables)))
    past = any(row["verdict"] == "past" for _, table in tables for row in table)
    return 1 if past else 0


if __name__ == "__main__":
    sys.exit(main())
