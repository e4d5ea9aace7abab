"""Run every workload (or the ones named) over several seeds and report the
run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py                          # all workloads, seeds 1-10
    python3 perfbench/spread.py --workloads slide_query --seeds 1-5
    python3 perfbench/spread.py --seeds 1                # one run of each workload

Runs the benchmark one run at a time and prints, per workload and metric,
the median with its unit and the distance between the first and third
quartile as a share of the median, beside the metric's bound from
BENCHMARK.json. Exits 1 if any run reports incorrect output. The benchmark
is steady when every spread except ``setup_s`` stays below a third of its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-", 1)
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_workload(spec: dict, workload: str, seeds: list[int], seconds: int) -> bool:
    values: dict[str, list[float]] = {}
    for seed in seeds:
        cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"{workload} seed {seed}: incorrect output\n{done.stderr}", file=sys.stderr)
            return False
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"{workload} seed {seed}: "
              + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        median = statistics.median(series)
        line = f"{workload} {metric['name']}: median {median:.6g} {metric['unit']}"
        if len(series) > 1:
            q1, _, q3 = statistics.quantiles(series, n=4)
            line += f", spread {(q3 - q1) / median:.4f}, bound {metric['bound']}"
        print(line)
    return True


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    ok = all([run_workload(spec, w, seeds, args.seconds) for w in args.workloads.split(",")])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
