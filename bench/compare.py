"""Summarize one benchmark result file, or compare two.

Usage, from the root of a checkout::

    python3 bench/compare.py PARENT.json              # median, quartiles, spread
    python3 bench/compare.py PARENT.json CHANGE.json  # verdict per workload x metric

Runs are paired by workload and seed, so both files should hold the same
seeds: for each seed, run both checkouts with ``--out`` appending to one
file per side, alternating which goes first.  The verdict on a timed or
memory metric follows the benchmark's rule: *improved* needs at least ten
pairs, the change winning nine tenths of them (ties count for neither) and
a median gain larger than the parent's quartile spread; *unresolved* means
the spread of the per-pair ratios change/parent, as a share of their
median, exceeds the metric's bound and the change does not beat every
parent run; *worse* means the change's median is worse than the parent's
by more than the bound; otherwise *unchanged*.  Bounds come from
``BENCHMARK.json``.

The guards are judged on their own terms.  ``failed`` compares the total
number of failed operations: more than the parent is *worse*, and then no
metric of that workload may read *improved* (it reads *unresolved*).
``quality_gap`` is deterministic for a seed and a program, so it is
compared seed by seed: equal on every seed is *unchanged*, never larger is
*improved*, never smaller is *worse*, and both ways is *unresolved*.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import ROOT


def load_runs(path: str) -> dict[str, dict[int, dict]]:
    """Untraced runs of a result file by workload and seed (the last run of a seed wins)."""
    runs: dict[str, dict[int, dict]] = defaultdict(dict)
    for run in json.loads(Path(path).read_text())["runs"]:
        if not run["trace"]:
            runs[run["workload"]][run["seed"]] = run
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def verdict(parent: list[float], change: list[float], bound: float,
            lower_is_better: bool = True) -> tuple[str, float]:
    """(verdict, share of pairs the change won) for one workload x metric."""
    sign = 1.0 if lower_is_better else -1.0
    pairs = list(zip(parent, change))
    if all(a == b for a, b in pairs):
        return "unchanged", 0.0
    won = sum(1 for a, b in pairs if sign * (b - a) < 0) / len(pairs)
    q1, median, q3 = quartiles(parent)
    gain = sign * (median - statistics.median(change))
    if len(pairs) >= 10 and won >= 0.9 and gain > q3 - q1:
        return "improved", won
    # Host drift that lasts longer than one pair cancels in the pair's ratio,
    # so the noise judged against the bound is the ratios' spread.
    ratios = [b / a for a, b in pairs if a]
    if spread(ratios) > bound and not all(sign * (b - a) < 0 for a in parent for b in change):
        return "unresolved", won
    if -gain > bound * abs(median):
        return "worse", won
    return "unchanged", won


def gap_verdict(parent: list[float], change: list[float]) -> str:
    """Verdict on per-seed quality gaps, paired by seed (lower is better)."""
    diffs = [b - a for a, b in zip(parent, change)]
    if all(d == 0 for d in diffs):
        return "unchanged"
    if all(d <= 0 for d in diffs):
        return "improved"
    if all(d >= 0 for d in diffs):
        return "worse"
    return "unresolved"


def failure_verdict(parent_failed: int, change_failed: int) -> str:
    if change_failed > parent_failed:
        return "worse"
    return "improved" if change_failed < parent_failed else "unchanged"


def _metric_specs() -> list[tuple[str, float, bool]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["bound"], m["better"] == "lower") for m in spec["end_to_end"]]


def _values(runs: list[dict], metric: str) -> list[float]:
    """A metric of each run; a quality gap that could not be computed reads as infinite."""
    values = [run["metrics"][metric]["value"] for run in runs]
    return [math.inf if value is None else value for value in values]


def _fmt(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def summarize(runs: dict[str, dict[int, dict]]) -> None:
    print(f"{'workload':<12} {'metric':<14} {'n':>3}  median [q1, q3]{'':<23} spread")
    for workload, by_seed in runs.items():
        for metric, bound, _ in _metric_specs():
            values = _values(list(by_seed.values()), metric)
            print(f"{workload:<12} {metric:<14} {len(values):>3}  {_fmt(values):<38} "
                  f"{spread(values):.4f} (bound {bound:g})")
        failed = sum(run["failed"] for run in by_seed.values())
        attempted = sum(run["attempted"] for run in by_seed.values())
        print(f"{workload:<12} {'failed':<14} {len(by_seed):>3}  {failed} of {attempted}")


def compare(parent: dict[str, dict[int, dict]], change: dict[str, dict[int, dict]]) -> None:
    print(f"{'workload':<12} {'metric':<14} {'pairs':>5}  {'parent median [q1, q3]':<38} "
          f"{'change median [q1, q3]':<38} won   verdict")
    for workload, parent_runs in parent.items():
        seeds = [seed for seed in parent_runs if seed in change.get(workload, {})]
        if not seeds:
            continue
        a_runs = [parent_runs[seed] for seed in seeds]
        b_runs = [change[workload][seed] for seed in seeds]
        a_failed = sum(run["failed"] for run in a_runs)
        b_failed = sum(run["failed"] for run in b_runs)
        more_failures = b_failed > a_failed
        for metric, bound, lower in _metric_specs():
            a, b = _values(a_runs, metric), _values(b_runs, metric)
            result, won = verdict(a, b, bound, lower)
            if result == "improved" and more_failures:
                result = "unresolved (more failed operations)"
            print(f"{workload:<12} {metric:<14} {len(seeds):>5}  {_fmt(a):<38} {_fmt(b):<38} "
                  f"{won:.2f}  {result}")
        a, b = _values(a_runs, "quality_gap"), _values(b_runs, "quality_gap")
        print(f"{workload:<12} {'quality_gap':<14} {len(seeds):>5}  {_fmt(a):<38} {_fmt(b):<38} "
              f"{'':<4}  {gap_verdict(a, b)} (per seed)")
        print(f"{workload:<12} {'failed':<14} {len(seeds):>5}  {a_failed:<38} {b_failed:<38} "
              f"{'':<4}  {failure_verdict(a_failed, b_failed)} (total)")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 1
    sides = [load_runs(path) for path in argv]
    if len(sides) == 1:
        summarize(sides[0])
    else:
        compare(*sides)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
