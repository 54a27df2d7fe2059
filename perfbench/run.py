"""The overcubic benchmark: one command, every metric by name with its unit.

Run from the root of a checkout (the program is imported from ``src``, so
nothing is built or installed):

    python3 perfbench/run.py --workload sweep-mod4 --seed 1 --seconds 20 --trace 0

A run starts the workload in a fresh single-threaded process
(``worker.py``), which runs it for ``--seconds`` seconds, measures
``setup_s`` (the median cold start of a fresh interpreter up to
``import overcubic.cli``) along the way, and checks every output.
``--trace 0`` reports the end-to-end metrics: the pass time as a ratio to
the frozen ``overcubic_baseline`` run alongside it (``wall_vs_baseline``),
peak memory, the share of operations that passed their checks and
``setup_s``; raw pass times and throughput are printed beside them. ``--trace 1`` reports the per-layer metrics of a traced run
and writes its spans. Each run's full record (host facts, seed, sizes,
samples, failures) is appended to ``<out>/results.jsonl``; ``compare.py``
compares two such files, each holding runs of every workload over several
seeds. The last line of stdout is the run's result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK_FILE = HERE.parent / "BENCHMARK.json"
RUN_LIMIT_S = 170
# Units of the figures printed beside the judged metrics.
EXTRA_UNITS = {"wall_s": "s", "coeffs_per_s": "1/s", "baseline_wall_s": "s",
               "ops_failed_ratio": "ratio", "bench.self_s": "s"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(env, workload, seed, seconds, trace, out_dir, timeout) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out_dir)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} worker failed: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def tail_percentile(samples):
    """``[p, value]`` for the highest whole percentile p with at least ten
    samples above it; None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    p = (n - 10) * 100 // n
    return [p, ordered[-(-p * n // 100) - 1]]


def host_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version()}


def run_once(benchmark, workload, seed, seconds, trace, out_dir) -> dict:
    """One run of one workload; returns its full record."""
    started = time.monotonic()
    src = Path.cwd() / "src"
    if not (src / "overcubic" / "cli.py").is_file():
        raise BenchError(f"no overcubic sources under {src}; run from a checkout root")
    env = _env(src)
    timeout = RUN_LIMIT_S - (time.monotonic() - started)
    w = run_worker(env, workload, seed, seconds, trace, out_dir, timeout)
    setup = w.get("setup_s", [])
    walls = w["pass_walls"]
    wall_s = statistics.median(walls)
    if trace:
        section, values = "per_layer", w["layer"]
    else:
        section = "end_to_end"
        values = {
            "wall_vs_baseline": statistics.median(w["wall_ratios"]),
            "peak_rss_mb": w["peak_rss_mb"],
            "ops_ok_ratio": 1 - w["failed"] / w["attempted"],
            "setup_s": statistics.median(setup),
            # Raw times, printed but not judged: on a shared host they
            # drift with the neighbours' load, see worker.py.
            "wall_s": wall_s,
            "coeffs_per_s": w["coeffs_per_pass"] / wall_s,
            "baseline_wall_s": statistics.median(w["baseline_walls"]),
            "ops_failed_ratio": w["failed"] / w["attempted"],
        }
    declared = {m["name"]: m["unit"] for m in benchmark[section]}
    latencies = [x for xs in w["op_latencies"].values() for x in xs]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "host": {**host_facts(), "numpy": w["numpy"]},
        "sizes": workloads.SIZES[workload], "ops": w["ops"],
        "correct": w["failed"] == 0, "attempted": w["attempted"], "failed": w["failed"],
        "failures": w["failures"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in declared.items()},
        "undeclared": {k: v for k, v in values.items() if k not in declared},
        "samples": {"pass_walls": walls, "warmup_wall": w["warmup_wall"], "setup_s": setup,
                    "baseline_walls": w.get("baseline_walls", []),
                    "wall_ratios": w.get("wall_ratios", []),
                    "traced_pass_walls": w.get("traced_pass_walls", []),
                    "coeffs_per_pass": w["coeffs_per_pass"],
                    "op_median_s": {k: statistics.median(v)
                                    for k, v in w["op_latencies"].items() if v}},
        "tails": {"pass_wall": tail_percentile(walls),
                  "op_latency": tail_percentile(latencies)},
        "spans_file": w.get("spans_file"),
    }


def _tail_text(tail) -> str:
    return "n/a (fewer than 11 samples)" if tail is None else f"p{tail[0]} {tail[1]:.4f} s"


def describe(record) -> str:
    """Human-readable lines for one run; the JSON result follows them."""
    walls = record["samples"]["pass_walls"]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']}"
        f"  trace {record['trace']}",
        "host " + json.dumps(record["host"], sort_keys=True),
        "sizes " + json.dumps(record["sizes"], sort_keys=True),
        f"pass wall: median {statistics.median(walls):.4f} s over {len(walls)} passes,"
        f" tail {_tail_text(record['tails']['pass_wall'])};"
        f" operation latency tail {_tail_text(record['tails']['op_latency'])}",
        f"operations attempted {record['attempted']}, failed {record['failed']}",
    ]
    lines += [f"  FAILED {msg}" for msg in record["failures"]]
    for name, m in {**record["metrics"]}.items():
        lines.append(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    for name, value in record["undeclared"].items():
        lines.append(f"  ({name:26s} {value:>16.6g} {EXTRA_UNITS[name]})")
    if record["spans_file"]:
        lines.append(f"spans written to {record['spans_file']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run the overcubic benchmark.")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=HERE / "out",
                   help="directory for results.jsonl and span files")
    args = p.parse_args(argv)
    try:
        if not BENCHMARK_FILE.is_file():
            raise BenchError(f"{BENCHMARK_FILE} is missing")
        benchmark = json.loads(BENCHMARK_FILE.read_text())
        seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
        record = run_once(benchmark, args.workload, args.seed, seconds, args.trace, args.out)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(describe(record), flush=True)
    args.out.mkdir(parents=True, exist_ok=True)
    with (args.out / "results.jsonl").open("a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
