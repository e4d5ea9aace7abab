"""Layered benchmark for evidencesql.

    python3 perfbench/run.py --workload cohort_batch --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Inputs are generated from ``--seed`` under ``.perfbench_work/``
and removed at exit. The last line of standard output is one JSON object:
with ``--trace 0`` it holds the end-to-end metrics of an untraced run; with
``--trace 1`` every operation runs twice, untraced then traced, and it holds
the per-layer metrics and the tracing overhead. Traced runs also write their
spans to ``.perfbench_out/``. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 5
# Capped at p95 so that every run of a workload picks the same percentile:
# cohort_batch always has hundreds of samples, the others under a hundred.
TAIL_PERCENTILES = (95.0, 90.0)
MIN_BEYOND_TAIL = 10
WORKLOAD_NAMES = ("slide_ask", "slide_query", "cohort_batch", "hosted_batch")
E2E_UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
             "throughput_per_s": "1/s", "peak_rss_mb": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_package() -> None:
    """Import the package from this checkout's ``src/``. Exits when the
    checkout has no source tree."""
    if not (SRC / "evidencesql" / "__init__.py").is_file():
        sys.exit(f"error: no package source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import evidencesql.pipeline
    if Path(evidencesql.pipeline.__file__).resolve().parents[1] != SRC.resolve():
        sys.exit(f"error: imported evidencesql from {evidencesql.pipeline.__file__}, not {SRC}")


_TIMED_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import evidencesql.pipeline; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the package, measured in
    a child process that has ended when this returns."""
    done = subprocess.run([sys.executable, "-c", _TIMED_IMPORT, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def quantile(sorted_values: list[float], p: float) -> float:
    """Linear-interpolation quantile at ``p`` percent."""
    position = (len(sorted_values) - 1) * p / 100.0
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (position - low) * (sorted_values[high] - sorted_values[low])


def tail(values: list[float]) -> tuple[float, float]:
    """The highest listed percentile with at least ten samples beyond it,
    else the maximum (reported as percentile 100)."""
    ordered = sorted(values)
    for p in TAIL_PERCENTILES:
        if len(ordered) * (1.0 - p / 100.0) >= MIN_BEYOND_TAIL:
            return p, quantile(ordered, p)
    return 100.0, ordered[-1]


class Totals:
    def __init__(self):
        self.latencies: list[float] = []
        self.op_time = 0.0
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op, problems: list[str]) -> None:
        self.attempted += op.items
        if problems:
            self.failed += op.items
            self.problems += problems


def run_op(op, totals: Totals, run) -> tuple[float, float] | None:
    """Run one operation through ``run``, check its output, and record any
    failure. Returns the operation's start and end, or None if it raised."""
    start = perf_counter()
    try:
        result = run()
    except Exception:
        totals.record(op, [traceback.format_exc()])
        return None
    end = perf_counter()
    try:
        problems = op.check(result)
    except Exception:
        problems = [traceback.format_exc()]
    totals.record(op, problems)
    return start, end


def measure(workload, seconds: float, tracer, totals: Totals) -> tuple[float, float]:
    """Run whole rounds for about ``seconds``: a round starts only when the
    mean round so far still fits. Returns the untraced and traced operation
    time of the pairs run when tracing."""
    plain_time = traced_time = 0.0
    begin = perf_counter()
    round_times: list[float] = []
    while not round_times or perf_counter() - begin + statistics.fmean(round_times) <= seconds:
        round_start = perf_counter()
        for op in workload.round(len(round_times)):
            span = run_op(op, totals, op.run)
            if span is None:
                continue
            elapsed = span[1] - span[0]
            totals.op_time += elapsed
            totals.items += op.items
            if workload.clock is not None:
                totals.latencies += workload.clock.latencies(span[1])
            else:
                totals.latencies.append(elapsed)
            if tracer is not None:
                tracer.install(workload.backend)
                try:
                    traced = run_op(op, totals, lambda: tracer.operation(op.items, op.run))
                finally:
                    tracer.uninstall()
                if traced is not None:
                    plain_time += elapsed
                    traced_time += traced[1] - traced[0]
        round_times.append(perf_counter() - round_start)
    return plain_time, traced_time


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()

    from tracing import PER_LAYER_UNITS, Tracer, layer_metrics
    from workloads import WORKLOADS

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    workload = None
    try:
        setup_times = []
        for rep in range(SETUP_REPS):
            if workload is not None:
                workload.close()
                workload = None
            imported = import_seconds()
            t0 = perf_counter()
            workload = WORKLOADS[args.workload]()
            workload.setup(work / f"setup{rep}", args.seed)
            setup_times.append(imported + perf_counter() - t0)

        tracer = Tracer() if args.trace else None
        totals = Totals()
        # Set-up garbage is not the measured operations' cost, and the
        # objects set-up leaves are not scanned again inside timed operations.
        gc.collect()
        gc.freeze()
        plain_time, traced_time = measure(workload, args.seconds, tracer, totals)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)

    for problem in totals.problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    if not totals.latencies:
        sys.exit("error: no operation completed")
    item = workload.item
    if args.trace:
        overhead = traced_time / plain_time if plain_time else 0.0
        metrics = layer_metrics(tracer, workload.artifact_metrics(), overhead)
        units = PER_LAYER_UNITS
        trace_path = ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        p, tail_value = tail(totals.latencies)
        print(f"{item} latency samples: {len(totals.latencies)}; tail percentile: p{p:g}")
        metrics = {
            "setup_s": statistics.median(setup_times),
            "latency_p50_ms": statistics.median(totals.latencies) * 1e3,
            "latency_tail_ms": tail_value * 1e3,
            "throughput_per_s": totals.items / totals.op_time,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    calls = getattr(workload.backend, "calls", None)
    if calls:
        print("backend calls per case: " + ", ".join(
            f"{task} {n / totals.attempted:g}" for task, n in sorted(calls.items())))
    print(f"items ({item} each): attempted {totals.attempted}, failed {totals.failed}, "
          f"error_rate {totals.failed / max(totals.attempted, 1):g}")
    print(json.dumps({
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
