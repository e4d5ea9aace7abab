"""The four workloads. Each is a closed loop with one client: the next
operation starts only when the previous one has returned.

A workload is set up from the seed, then hands out rounds of operations.
The runner always finishes a round, so every run measures the same mix of
inputs whatever the seed. An item is what a user waits on: a case, or a
query on ``slide_query``.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable

import evidencesql.fixtures
import evidencesql.pipeline as pipeline
import evidencesql.sql.executor as executor
import evidencesql.sql.guard as guard
from evidencesql.backends import BackendConfig, TemplateBackend
from evidencesql.feature_store import canonical_manifest, ingest_case_dir

from checks import ArtifactCheck, check_case_result, check_query, check_summary, open_reference_db
from gen import generate_in_child, log_spaced_sizes, write_run_inputs
from latency_backend import LatencyBackend
from queries import query_round

MANIFEST_PATH = str(Path(evidencesql.fixtures.__file__).parent / "manifest.json")


@dataclass
class Op:
    items: int
    run: Callable[[], object]
    check: Callable[[object], list[str]]


class CaseClock:
    """Stamps the start of every case ``batch_eval`` processes, by wrapping
    the ingest call each case begins with. With one worker a case ends where
    the next begins, and the last one where the batch returns."""

    def __init__(self):
        self.starts: list[float] = []
        self._original = None

    def install(self) -> None:
        original = self._original = pipeline.ingest_case_dir
        starts = self.starts

        def stamped(*args, **kwargs):
            starts.append(perf_counter())
            return original(*args, **kwargs)

        pipeline.ingest_case_dir = stamped

    def uninstall(self) -> None:
        pipeline.ingest_case_dir = self._original

    def latencies(self, end: float) -> list[float]:
        bounds = self.starts + [end]
        return [b - a for a, b in zip(bounds, bounds[1:])]


class Workload:
    name = ""
    item = "case"

    def __init__(self):
        self.backend = TemplateBackend()
        self.clock: CaseClock | None = None
        self.artifacts = ArtifactCheck()
        self.artifact_totals = {"json": 0, "md": 0, "transcript": 0, "files": 0, "items": 0}

    def setup(self, root: Path, seed: int) -> None:
        raise NotImplementedError

    def round(self, index: int) -> list[Op]:
        raise NotImplementedError

    def close(self) -> None:
        if self.clock is not None:
            self.clock.uninstall()

    def _record_artifacts(self, out_dir: Path, case_ids: list[str], items: int) -> list[str]:
        problems = []
        for case_id in case_ids:
            found, sizes = self.artifacts.check(out_dir, case_id)
            problems += found
            for key, size in sizes.items():
                self.artifact_totals[key] += size
            self.artifact_totals["files"] += len(sizes)
        self.artifact_totals["items"] += items
        return problems

    def artifact_metrics(self) -> dict[str, float]:
        t = self.artifact_totals
        items = t["items"] or 1
        return {"json_bytes": t["json"] / items, "md_bytes": t["md"] / items,
                "files": t["files"] / items,
                "bytes": (t["json"] + t["md"] + t["transcript"]) / items}


class SlideAsk(Workload):
    """One ``ask`` per case: ingest, run_case, write outputs."""

    name = "slide_ask"
    # An odd number of sizes puts the median latency inside the middle
    # size's samples rather than between two sizes.
    sizes = log_spaced_sizes(10_000, 100_000, 5)

    def setup(self, root: Path, seed: int) -> None:
        self.answers = generate_in_child(root / "cases", seed, self.sizes)
        questions_path, ranges_path = write_run_inputs(root)
        self.manifest = canonical_manifest()
        self.questions = pipeline.load_questions(questions_path)
        self.file_ranges = pipeline.load_ranges_file(ranges_path)
        self.config = pipeline.RunConfig(MANIFEST_PATH, str(root / "out"), ranges_path=str(ranges_path))
        self.case_dirs = [root / "cases" / a.case_id for a in self.answers]
        self._ask(self.case_dirs[0])

    def _ask(self, case_dir: Path):
        bundle = pipeline.ingest_case_dir(self.manifest, case_dir)
        question = pipeline.select_question(self.questions, bundle.case_id)
        result = pipeline.run_case(self.manifest, bundle, question, self.config,
                                   self.backend, self.file_ranges)
        pipeline.write_case_outputs(self.config.out_dir, result)
        return result

    def _check(self, answers, result) -> list[str]:
        problems = check_case_result(result, answers)
        return problems + self._record_artifacts(Path(self.config.out_dir), [answers.case_id], 1)

    def round(self, index: int) -> list[Op]:
        return [Op(1, partial(self._ask, d), partial(self._check, a))
                for d, a in zip(self.case_dirs, self.answers)]


class SlideQuery(Workload):
    """Guard plus executor on one ingested 10^5-cell case."""

    name = "slide_query"
    item = "query"
    n_cells = 100_000

    def setup(self, root: Path, seed: int) -> None:
        reference = root / "reference.sqlite"
        [answers] = generate_in_child(root / "cases", seed, [self.n_cells], reference=reference)
        self.manifest = canonical_manifest()
        self.bundle = ingest_case_dir(self.manifest, root / "cases" / answers.case_id)
        self.db = open_reference_db(reference)
        self.stream = random.Random(f"{seed}:queries")
        warm = guard.validate_pipeline("SELECT COUNT(*) AS n FROM cells", self.manifest)
        executor.execute(warm, self.bundle)

    def close(self) -> None:
        super().close()
        self.db.close()

    def _query(self, item):
        outcome = guard.validate_pipeline(item.text, self.manifest)
        if isinstance(outcome, guard.GuardRejection):
            return outcome, None
        return outcome, executor.execute(outcome, self.bundle)

    def _check(self, item, outcome_and_result) -> list[str]:
        return check_query(item, *outcome_and_result, self.db)

    def round(self, index: int) -> list[Op]:
        return [Op(1, partial(self._query, item), partial(self._check, item))
                for item in query_round(self.stream, index)]


class _Batch(Workload):
    """``batch_eval`` over a generated dataset; one operation is one batch."""

    sizes: list[int] = []
    cnn_error_share = 0.0
    violation_share = 0.0

    def backend_config(self) -> BackendConfig:
        return BackendConfig()

    def setup(self, root: Path, seed: int) -> None:
        self.dataset = root / "dataset"
        self.answers = generate_in_child(self.dataset, seed, self.sizes, shuffle=True,
                                         cnn_error_share=self.cnn_error_share,
                                         violation_share=self.violation_share)
        questions_path, ranges_path = write_run_inputs(root)
        self.questions = pipeline.load_questions(questions_path)
        self.config = pipeline.RunConfig(MANIFEST_PATH, str(root / "out"),
                                         ranges_path=str(ranges_path),
                                         backend=self.backend_config())
        self.clock = CaseClock()
        self.clock.install()
        self._warm_up(root)

    def _warm_up(self, root: Path) -> None:
        """One case through the pipeline with the template backend, which
        loads every code path a batch uses without backend delays."""
        warm = root / "warm"
        valid = next(a for a in self.answers if not a.domain_violation)
        shutil.copytree(self.dataset / valid.case_id, warm / "dataset" / valid.case_id)
        config = pipeline.RunConfig(MANIFEST_PATH, str(warm / "out"),
                                    ranges_path=self.config.ranges_path)
        pipeline.batch_eval(config, warm / "dataset", self.questions, backend=TemplateBackend())
        self.clock.starts.clear()

    def _batch(self):
        self.clock.starts.clear()
        return pipeline.batch_eval(self.config, self.dataset, self.questions, backend=self.backend)

    def _check(self, _returned_summary) -> list[str]:
        """Checks the summary as written to disk, plus each case's artifacts."""
        out = Path(self.config.out_dir)
        problems = check_summary(json.loads((out / "summary.json").read_text(encoding="utf-8")),
                                 self.answers)
        valid = [a.case_id for a in self.answers if not a.domain_violation]
        return problems + self._record_artifacts(out, valid, len(self.answers))

    def round(self, index: int) -> list[Op]:
        return [Op(len(self.answers), self._batch, self._check)]


class CohortBatch(_Batch):
    """Many patch-sized cases, some with a seeded out-of-domain cell type."""

    name = "cohort_batch"
    sizes = log_spaced_sizes(100, 1_000, 40)
    cnn_error_share = 0.1
    violation_share = 0.05


class HostedBatch(_Batch):
    """A dozen ~10^3-cell cases against a backend that waits 20 ms per call."""

    name = "hosted_batch"
    sizes = log_spaced_sizes(900, 1_100, 12)

    def __init__(self):
        super().__init__()
        self.backend = LatencyBackend()

    def backend_config(self) -> BackendConfig:
        return BackendConfig(kind="remote")


WORKLOADS = {w.name: w for w in (SlideAsk, SlideQuery, CohortBatch, HostedBatch)}
