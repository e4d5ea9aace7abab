"""Digest the outputs of the benchmark's batch workloads, per seed and
worker count, to check that they are byte-identical across worker counts
and across two source trees:

    python tools/batch_digests.py SEED... [--workers N...]

For each workload, ``cohort_batch`` and ``hosted_batch``, and each seed,
the dataset is set up as ``perfbench/workloads.py`` sets it up, and one
``batch_eval`` runs at each worker count (1 and 4 by default) with that
workload's backend. Each run prints one line, ``workload seed workers
digest``. The digest is a sha256 over the sorted (relpath, sha256) pairs of
``reports/*.json``, ``reports/*.md``, ``transcripts/*.json`` and
``summary.json``, the scheme that ``tests/test_pipeline.py`` pins for each
mode as ``EVAL_*_OUTPUT_DIGEST``; ``run.json`` holds paths and is left out.
Where the backend counts its calls by task, as ``hosted_batch``'s
``LatencyBackend`` does, a second line follows, ``workload seed workers
calls global=G local=L ranges=R narrative=N``: the calls that batch made.
The exit status is 1 when two worker counts of one workload and seed differ
in their digests or in their calls.

Batches run one after another in this process, in a temporary directory
that is removed at exit; setting up a dataset starts one generator child.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import evidencesql.pipeline as pipeline  # noqa: E402
from evidencesql.backends import TASK_GLOBAL, TASK_LOCAL, TASK_NARRATIVE, TASK_RANGES  # noqa: E402
from workloads import CohortBatch, HostedBatch  # noqa: E402

# The calls line's label for each task a batch asks the backend.
CALL_TASKS = {"global": TASK_GLOBAL, "local": TASK_LOCAL, "ranges": TASK_RANGES,
              "narrative": TASK_NARRATIVE}


def output_files(out: Path) -> list[Path]:
    files = [out / "summary.json"]
    for pattern in ("reports/*.json", "reports/*.md", "transcripts/*.json"):
        files += out.glob(pattern)
    return files


def output_digest(out: Path) -> str:
    pairs = sorted((p.relative_to(out).as_posix(), hashlib.sha256(p.read_bytes()).hexdigest())
                   for p in output_files(out))
    return hashlib.sha256("".join(f"{rel} {h}\n" for rel, h in pairs).encode()).hexdigest()


def calls_text(calls: dict[str, int]) -> str:
    return " ".join(f"{label}={calls[label]}" for label in CALL_TASKS)


def workload_digests(kind: type, seed: int,
                     workers: list[int]) -> list[tuple[str, dict[str, int] | None]]:
    """The output digest of one batch at each worker count in ``workers``,
    over the dataset the workload class ``kind`` sets up from ``seed``, and
    the backend calls that batch made by ``CALL_TASKS`` label, or None
    where the workload's backend does not count its calls."""
    workload = kind()
    with tempfile.TemporaryDirectory(prefix="batch_digests_") as tmp:
        root = Path(tmp)
        try:
            workload.setup(root, seed)
            runs = []
            for count in workers:
                out = root / f"out_w{count}"
                config = dataclasses.replace(workload.config, out_dir=str(out), workers=count)
                counted = getattr(workload.backend, "calls", None)
                before = Counter(counted)
                pipeline.batch_eval(config, workload.dataset, workload.questions,
                                    backend=workload.backend)
                calls = None if counted is None else {
                    label: counted[task] - before[task] for label, task in CALL_TASKS.items()}
                runs.append((output_digest(out), calls))
            return runs
        finally:
            workload.close()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="+", type=int, metavar="SEED")
    parser.add_argument("--workers", nargs="+", type=int, default=[1, 4], metavar="N")
    args = parser.parse_args(argv)
    status = 0
    for kind in (CohortBatch, HostedBatch):
        for seed in args.seeds:
            runs = workload_digests(kind, seed, args.workers)
            for count, (digest, calls) in zip(args.workers, runs):
                print(f"{kind.name} {seed} {count} {digest}", flush=True)
                if calls is not None:
                    print(f"{kind.name} {seed} {count} calls {calls_text(calls)}", flush=True)
            if len({digest for digest, _ in runs}) > 1:
                print(f"{kind.name} seed {seed}: outputs differ across worker counts",
                      file=sys.stderr)
                status = 1
            if len({calls_text(calls) for _, calls in runs if calls is not None}) > 1:
                print(f"{kind.name} seed {seed}: backend calls differ across worker counts",
                      file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
