"""One workload run, inside a fresh single-threaded Python process.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the
checkout's ``src``. It builds the workload's operation list from the seed,
repeats passes over it for the given number of seconds, then checks every
output outside the timed region, and prints one JSON object as its last
line of stdout.

Every operation of a pass runs twice, back to back, in alternating order:

- untraced runs pair the program with ``overcubic_baseline``, a verbatim
  copy of the package taken when the benchmark was defined. The other
  tenants of a small shared host slow everything by up to a third for
  seconds to minutes at a time; both halves of a pair see the same
  slowdown, so the ratio of their times holds steady where raw times
  do not;
- traced runs pair a traced and an untraced execution of the program, so
  the tracing overhead is a paired difference.

Untraced runs also time a cold start (``setup_s``) before the first pass
and after every pass, so that its samples spread over the whole run of a
machine whose speed drifts within seconds.

Every execution starts cold, as a CLI call in a new process does: right
before it, outside the timed region, the package's modules are dropped
from ``sys.modules`` and imported again, and garbage is collected. State a
call leaves in its modules (a memo, a cache) is thus never seen by the next
call; caching within one call is measured.

    python3 perfbench/worker.py --workload exact-z --seed 1 --seconds 10 \
        --trace 0 --out perfbench/out
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import importlib
import io
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer, layer_metrics, span_records

DIGESTS = Path(__file__).with_name("digests.json")
BASELINE = "overcubic_baseline"
MIN_PASSES = {0: 3, 1: 2}
# Cold starts timed before the first pass; one more follows every pass.
FIRST_COLD_STARTS = 4
READY = "import overcubic.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


def _digest(output) -> str:
    text = output[1] if isinstance(output, tuple) else repr(output)
    return hashlib.sha256(text.encode()).hexdigest()


def _invoke(op, package="overcubic"):
    """Run one operation of ``package``, resolving the entry point at call
    time so that a traced run goes through the installed wrappers."""
    if op.argv is not None:
        cli = importlib.import_module(package + ".cli")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(list(op.argv))
        return status, out.getvalue()
    name, args = op.call
    return getattr(importlib.import_module(package + ".counting"), name)(*args)


def cold_start() -> float:
    """Seconds from spawn until a fresh interpreter has imported overcubic.cli."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", READY], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter()
    _, err = proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"overcubic.cli does not import: {err.strip()[-500:]}")
    return ready - start


def _fresh(package):
    """Import ``package`` anew, as a new process would, and collect the
    garbage the dropped modules leave."""
    for name in [n for n in sys.modules if n == package or n.startswith(package + ".")]:
        del sys.modules[name]
    importlib.import_module(package + ".cli")
    importlib.import_module(package + ".counting")
    gc.collect()


def _timed(runner, op):
    """One cold execution of ``op``; ``runner`` is (package, function)."""
    package, fn = runner
    _fresh(package)
    start = time.perf_counter()
    try:
        output = fn(op)
    except Exception as exc:  # a failed operation is counted, not fatal
        output = exc
    return time.perf_counter() - start, output


def run_pass(ops, runner):
    """One runner over every operation: (latencies, outputs), an exception
    in place of the output of an operation that raised."""
    timed = [_timed(runner, op) for op in ops]
    return [t for t, _ in timed], [o for _, o in timed]


def run_paired_pass(ops, runners, pass_index):
    """Each operation under both runners, back to back; which goes first
    alternates by operation and by pass. Returns per-runner latencies and
    outputs."""
    latencies, outputs = ([], []), ([], [])
    for idx, op in enumerate(ops):
        order = (0, 1) if (idx + pass_index) % 2 == 0 else (1, 0)
        for side in order:
            latency, output = _timed(runners[side], op)
            latencies[side].append(latency)
            outputs[side].append(output)
    return latencies, outputs


def check_outputs(ops, passes, digests):
    """Check the first pass by each operation's route (and recorded digest
    for fixed operations); later passes must repeat its output exactly.
    Returns (attempted, failed, failure messages)."""
    first = passes[0]
    first_ok, first_digest = [], []
    failures = []
    for op, output in zip(ops, first):
        problem = None
        if isinstance(output, Exception):
            problem = f"raised {type(output).__name__}: {output}"
        else:
            try:
                op.check(output)
                if op.fixed and digests.get(op.key) != _digest(output):
                    problem = "stdout differs from the recorded digest"
            except Exception as exc:  # a wrong output must not stop the checks
                problem = f"{type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"{op.label}: {problem}")
        first_ok.append(problem is None)
        first_digest.append(None if isinstance(output, Exception) else _digest(output))
    attempted = failed = 0
    for pass_index, outputs in enumerate(passes):
        for idx, output in enumerate(outputs):
            attempted += 1
            same = not isinstance(output, Exception) and _digest(output) == first_digest[idx]
            if not (first_ok[idx] and same):
                failed += 1
                if pass_index and first_ok[idx]:
                    failures.append(f"{ops[idx].label}: pass {pass_index} output differs")
    return attempted, failed, failures


def coeffs_per_pass(ops, outputs) -> int:
    total = 0
    for op, output in zip(ops, outputs):
        if not isinstance(output, Exception):
            total += workloads.coeffs_checked(op, output)
    return total


def output_bytes(outputs) -> int:
    return sum(len(o[1].encode()) for o in outputs if isinstance(o, tuple))


def _median(values):
    """Median, kept a whole number for counts."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def run(workload, seed, seconds, trace, out_dir):
    ops = workloads.build(workload, seed)
    started = time.perf_counter()
    setup = [] if trace else [cold_start() for _ in range(FIRST_COLD_STARTS)]
    # A first pass of the program alone warms the allocator and numpy and
    # sets the peak memory before anything else is loaded; it is checked,
    # not timed. The baseline gets its own untimed first pass.
    program = ("overcubic", _invoke)
    warm_latencies, warm_outputs = run_pass(ops, program)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    program_passes = [warm_outputs]

    tracer = Tracer()
    op_ids = itertools.count()

    def run_traced(op):
        tracer.install()
        try:
            return tracer.operation(next(op_ids), _invoke, op)
        finally:
            tracer.uninstall()

    traced = ("overcubic", run_traced)
    baseline = (BASELINE, functools.partial(_invoke, package=BASELINE))
    if not trace:
        run_pass(ops, baseline)
    # Side 0 is what is measured, side 1 what it is paired with.
    runners = (traced, program) if trace else (program, baseline)
    walls = ([], [])
    layer, spans_out = [], []
    op_latencies = {op.label: [] for op in ops}
    rounds = []
    while True:
        round_start = time.perf_counter()
        pass_index = len(walls[0])
        latencies, outputs = run_paired_pass(ops, runners, pass_index)
        if not trace:
            setup.append(cold_start())
        for side in (0, 1):
            walls[side].append(sum(latencies[side]))
        untraced = 1 if trace else 0
        for op, latency in zip(ops, latencies[untraced]):
            op_latencies[op.label].append(latency)
        program_passes.append(outputs[0])
        if trace:
            program_passes.append(outputs[1])
            spans, counters, keys = tracer.take()
            layer.append(layer_metrics(spans, counters, keys))
            spans_out.extend(span_records(spans, pass_index))
        rounds.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - started
        if pass_index + 1 >= MIN_PASSES[trace] and elapsed + statistics.median(rounds) > seconds:
            break

    digests = json.loads(DIGESTS.read_text())
    attempted, failed, failures = check_outputs(ops, program_passes, digests)
    import numpy

    result = {
        "workload": workload,
        "seed": seed,
        "ops": [op.key for op in ops],
        "pass_walls": walls[1] if trace else walls[0],
        "warmup_wall": sum(warm_latencies),
        "op_latencies": op_latencies,
        "coeffs_per_pass": coeffs_per_pass(ops, warm_outputs),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if trace:
        metrics = {k: _median([m[k] for m in layer]) for k in layer[0]}
        metrics["cli.output_bytes"] = output_bytes(warm_outputs)
        metrics["trace.overhead_s"] = statistics.median(a - b for a, b in zip(*walls))
        result["traced_pass_walls"] = walls[0]
        result["layer"] = metrics
        out_dir.mkdir(parents=True, exist_ok=True)
        spans_path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
        with spans_path.open("w") as fh:
            for record in spans_out:
                fh.write(json.dumps(record) + "\n")
        result["spans_file"] = str(spans_path)
    else:
        result["setup_s"] = setup
        result["baseline_walls"] = walls[1]
        result["wall_ratios"] = [a / b for a, b in zip(*walls)]
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=Path("perfbench/out"))
    args = p.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace, args.out)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
