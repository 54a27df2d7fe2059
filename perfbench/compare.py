"""Compare two result sets of the benchmark, by the rule the benchmark fixes.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are ``results.jsonl`` files written by ``run.py`` (or the
directories holding them), each with several runs per workload. Runs of
the same code should differ only in seed; pair them by seed.

For every workload it first checks correctness: ``WRONG`` when any
operation of any change run failed its check while no parent run had a
failure. A wrong output fails the comparison whatever the timings say, and
however small its share of the operations.

For every workload and end-to-end metric it prints each side's median and
quartiles and a verdict:

- ``unresolved``: the spread (distance between the quartiles, as a share of
  the median) of either side exceeds the metric's bound, and not every run
  of the change reads better than every run of the parent;
- ``REGRESSION``: the change's median is worse than the parent's by more
  than the bound;
- ``gain``: the change wins at least nine tenths of the seed pairs, ties
  counting for neither, and the medians differ by more than the parent's
  own quartile distance. A gain is void when operations fail on both
  sides;
- ``same``: none of the above.

Traced runs, where present, get a table of per-layer medians next to the
predictions in ``predictions.json``. The exit status is 1 when any workload
is ``WRONG`` or any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path: Path) -> list:
    if path.is_dir():
        path = path / "results.jsonl"
    with path.open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _by_seed(runs, metric):
    return {r["seed"]: r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]}


def verdict(parent: dict, change: dict, better: str, bound: float, both_fail: bool):
    """Verdict and numbers for one metric; inputs map seed to value."""
    sign = 1 if better == "lower" else -1
    p_vals, c_vals = list(parent.values()), list(change.values())
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_q1, c_med, c_q3 = quartiles(c_vals)
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    worse = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    all_better = max(sign * v for v in c_vals) < min(sign * v for v in p_vals)
    pairs = [(parent[s], change[s]) for s in parent.keys() & change.keys()]
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if spread > bound and not all_better:
        label = "unresolved"
    elif worse > bound:
        label = "REGRESSION"
    elif (pairs and wins >= 0.9 * len(pairs) and sign * (c_med - p_med) < 0
          and abs(c_med - p_med) > p_q3 - p_q1):
        label = "gain (void: failures)" if both_fail else "gain"
    else:
        label = "same"
    return label, (p_med, p_q1, p_q3, len(p_vals)), (c_med, c_q1, c_q3, len(c_vals)), worse, spread, f"{wins}/{len(pairs)}"


def compare(parent_runs, change_runs, benchmark, predictions) -> bool:
    """Print the comparison; returns True when any workload is wrong or any
    metric regressed."""
    failing = False
    workloads = [w["name"] for w in benchmark["workloads"]]
    header = (f"{'workload':15s} {'metric':14s} {'parent median [q1, q3] n':>36s}  "
              f"{'change median [q1, q3] n':>36s} {'worse':>7s} {'spread':>7s} "
              f"{'bound':>6s} {'wins':>6s}  verdict")
    print(header)
    for workload in workloads:
        p_runs = [r for r in parent_runs if r["workload"] == workload and not r["trace"]]
        c_runs = [r for r in change_runs if r["workload"] == workload and not r["trace"]]
        if not p_runs or not c_runs:
            print(f"{workload:15s} (no untraced runs on one side)")
            continue
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        if c_failed and not p_failed:
            failing = True
            print(f"{workload:15s} {'correctness':14s} {c_failed} of "
                  f"{sum(r['attempted'] for r in c_runs)} change operations failed, "
                  f"parent none  WRONG")
        for m in benchmark["end_to_end"]:
            label, p, c, worse, spread, wins = verdict(
                _by_seed(p_runs, m["name"]), _by_seed(c_runs, m["name"]),
                m["better"], m["bound"], bool(c_failed and p_failed))
            failing |= label == "REGRESSION"
            print(f"{workload:15s} {m['name']:14s} "
                  f"{p[0]:11.5g} [{p[1]:10.5g}, {p[2]:10.5g}] {p[3]:2d}  "
                  f"{c[0]:11.5g} [{c[1]:10.5g}, {c[2]:10.5g}] {c[3]:2d} "
                  f"{worse:+7.1%} {spread:7.1%} {m['bound']:6.0%} {wins:>6s}  {label}")
    layer_table(parent_runs, change_runs, benchmark, predictions, workloads)
    return failing


def layer_table(parent_runs, change_runs, benchmark, predictions, workloads):
    traced = [r for r in parent_runs + change_runs if r["trace"]]
    if not traced:
        return
    print()
    print(f"{'workload':15s} {'per-layer metric':28s} {'parent':>12s} {'change':>12s} "
          f"{'change':>8s}  prediction")
    for workload in workloads:
        for m in benchmark["per_layer"]:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in parent_runs
                 if r["trace"] and r["workload"] == workload]
            c = [r["metrics"][name]["value"] for r in change_runs
                 if r["trace"] and r["workload"] == workload]
            if not p or not c:
                continue
            p_med, c_med = statistics.median(p), statistics.median(c)
            rel = f"{(c_med - p_med) / p_med:+8.1%}" if p_med else f"{'':>8s}"
            note = predictions.get(name, {}).get(workload, "")
            print(f"{workload:15s} {name:28s} {p_med:12.5g} {c_med:12.5g} {rel}  {note}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    predictions = json.loads((HERE / "predictions.json").read_text())
    failing = compare(load(args.parent), load(args.change), benchmark, predictions)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
