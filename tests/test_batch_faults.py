"""Per-case fault isolation in ``batch_eval``, as a property over seeded
faults and worker counts.

A remote-kind backend answers like the template backend, but per prompt,
keyed on the sha256 of the example's seed and the prompt, it may raise
``BackendError``, reply empty, reply ``DECLINE``, reply garbage, or wait
0–3 ms first. Faults are keyed on the prompt, not on the order calls
arrive in, so every schedule meets the same faults, and each case's
outcome must be the one it has when run alone.
"""

import gc
import hashlib
import json
import shutil
import threading
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest

from evidencesql.backends import (
    DECLINE_RESPONSE,
    TASK_NARRATIVE,
    TASK_RANGES,
    BackendConfig,
    LlmBackendPort,
    TemplateBackend,
)
from evidencesql import pipeline
from evidencesql.errors import BackendError, EvidenceSqlError
from evidencesql.feature_store import ingest_case_dir
from evidencesql.pipeline import (
    RunConfig,
    batch_eval,
    load_questions,
    run_case,
    select_question,
    write_case_outputs,
)

from datasets import PAPILLARY

FAULTS = ("raise", "empty", "decline", "garbage", "sleep")
GARBAGE = "}{ ```sq\nSELEKT FORM ;; ``"


def _task(system_prompt: str) -> str:
    return system_prompt.split("\n", 1)[0].removeprefix("Task:").strip()


class FaultyBackend(LlmBackendPort):
    """Template replies for the agents, a fixed interval per option for
    range prompts and a one-line narrative, with a fault drawn per prompt
    for a ``share`` of prompts. ``asks`` counts calls by prompt, and
    ``faulted`` holds the prompts whose fault changed their reply."""

    name = "faulty"

    def __init__(self, seed: int, share: float):
        self.seed = seed
        self.share = share
        self.asks: Counter[tuple[str, str]] = Counter()
        self.faulted: set[tuple[str, str]] = set()
        self._template = TemplateBackend()
        self._lock = threading.Lock()

    def fault(self, system_prompt: str, user_prompt: str) -> tuple[str | None, float]:
        """The prompt's fault, or None, and the pause before a slow reply."""
        digest = hashlib.sha256(
            f"{self.seed}\n{system_prompt}\n{user_prompt}".encode("utf-8")).digest()
        if int.from_bytes(digest[:4], "big") >= self.share * 2**32:
            return None, 0.0
        return FAULTS[digest[4] % len(FAULTS)], (digest[5] % 4) / 1000

    def complete(self, system_prompt, user_prompt, temperature, timeout):
        prompt = (system_prompt, user_prompt)
        kind, pause = self.fault(*prompt)
        with self._lock:
            self.asks[prompt] += 1
            if kind not in (None, "sleep"):
                self.faulted.add(prompt)
        time.sleep(pause)
        if kind == "raise":
            raise BackendError(f"injected fault for a {_task(system_prompt)} prompt")
        if kind == "empty":
            return ""
        if kind == "decline":
            return DECLINE_RESPONSE
        if kind == "garbage":
            return GARBAGE
        task = _task(system_prompt)
        if task == TASK_NARRATIVE:
            return f"A narrative over {len(user_prompt)} characters of report."
        if task == TASK_RANGES:
            if user_prompt.endswith(PAPILLARY):
                return '{"low": 0.5, "high": 1000.0}'
            return '{"low": 0.0, "high": 0.5}'
        return self._template.complete(system_prompt, user_prompt, temperature, timeout)


def _case_files(out: Path, case_id: str) -> dict[str, bytes]:
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in (out / "reports" / f"{case_id}.json", out / "reports" / f"{case_id}.md",
                      out / "transcripts" / f"{case_id}.json") if p.exists()}


def _run_alone(manifest, cases: Path, questions, config, seed, share, out: Path):
    """Each case run on its own, with a backend of its own: per case, its
    files or its failure message, the prompts it asked, and whether a
    fault changed any of its replies."""
    outcomes = {}
    for case_dir in sorted(cases.iterdir()):
        backend = FaultyBackend(seed, share)
        try:
            bundle = ingest_case_dir(manifest, case_dir)
            result = run_case(manifest, bundle, select_question(questions, case_dir.name),
                              config, backend)
            write_case_outputs(out, result)
            outcome = _case_files(out, case_dir.name)
        except EvidenceSqlError as exc:
            outcome = str(exc)
        outcomes[case_dir.name] = (outcome, backend.asks, bool(backend.faulted))
    return outcomes


@pytest.fixture(scope="module")
def cases(eval_dataset, tmp_path_factory):
    """Three eval cases in a dataset directory of their own."""
    dataset = tmp_path_factory.mktemp("faults") / "dataset"
    for case_dir in sorted(eval_dataset["dataset"].iterdir())[:3]:
        shutil.copytree(case_dir, dataset / case_dir.name)
    return dataset


def test_batch_outcomes_under_seeded_faults_match_each_case_run_alone(
        manifest, manifest_path, eval_dataset, cases, tmp_path):
    """Under any seeded faults and at one, two or three workers:
    ``summary.json`` is written and reads every case; each case appears
    once, with the files or the failure message it has when run alone; a
    case no fault reached has its fault-free bytes; a prompt that got a
    reply is asked once; and a prompt that raised, narratives aside, is
    asked at most once per case that sends it, and at least once per twelve
    such cases per worker, since no more cases are in flight at once; an
    agent's prompt, at least once per three such cases per worker, since
    the agents ask only while a case holds its tables, and no more cases
    hold them at once."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    questions = load_questions(eval_dataset["questions"])
    remote = BackendConfig(kind="remote")
    clean_out = tmp_path / "clean"
    batch_eval(RunConfig(str(manifest_path), str(clean_out), backend=remote), cases,
               questions, backend=FaultyBackend(0, 0.0))
    names = sorted(d.name for d in cases.iterdir())
    clean = {name: _case_files(clean_out, name) for name in names}
    assert all(len(files) == 3 for files in clean.values())

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), share=st.sampled_from([0.05, 0.2, 0.5]),
           workers=st.sampled_from([1, 2, 3]))
    def check(seed, share, workers):
        out, alone_out = tmp_path / "batch", tmp_path / "alone"
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(alone_out, ignore_errors=True)
        config = RunConfig(str(manifest_path), str(out), backend=remote, workers=workers)
        backend = FaultyBackend(seed, share)
        summary = batch_eval(config, cases, questions, backend=backend)
        alone = _run_alone(manifest, cases, questions, config, seed, share, alone_out)

        failures = {name: outcome for name, (outcome, _, _) in alone.items()
                    if isinstance(outcome, str)}
        assert json.loads((out / "summary.json").read_text(encoding="utf-8")) == (
            summary.to_json_dict())
        assert summary.failures == [{"case_id": name, "error": failures[name]}
                                    for name in sorted(failures)]
        assert summary.n_cases == len(names) - len(failures)
        for name, (outcome, _, faulted) in alone.items():
            files = _case_files(out, name)
            assert files == ({} if name in failures else outcome), name
            if not faulted:
                assert files == clean[name], name

        replied = {p for p in backend.asks if backend.fault(*p)[0] != "raise"}
        assert all(backend.asks[p] == 1 for p in replied)
        sent = sum((asks for _, asks, _ in alone.values()), Counter())
        raised, raised_sent = ({p: n for p, n in asks.items()
                                if p not in replied and _task(p[0]) != TASK_NARRATIVE}
                               for asks in (backend.asks, sent))
        assert raised.keys() == raised_sent.keys()
        sharing = {p: (12 if _task(p[0]) == TASK_RANGES else 3) * workers for p in raised}
        assert all(-(-raised_sent[p] // sharing[p]) <= n <= raised_sent[p]
                   for p, n in raised.items()), (raised, raised_sent)

    check()


class DownBackend(LlmBackendPort):
    """A remote backend that fails every call."""

    name = "down"

    def complete(self, system_prompt, user_prompt, temperature, timeout):
        raise BackendError("backend unreachable")


def test_failed_cases_free_their_bundles_without_the_cyclic_collector(
        manifest_path, eval_dataset, cases, tmp_path, monkeypatch, collections_in):
    """A case that fails on its backend leaves no reference cycle through
    its exception: with the cyclic collector off, every ingested bundle is
    freed by the time the full collection that ends the batch starts, and
    that collection finds nothing."""
    bundles = []

    def ingest(manifest, case_dir):
        bundle = ingest_case_dir(manifest, case_dir)
        bundles.append(weakref.ref(bundle))
        return bundle

    monkeypatch.setattr(pipeline, "ingest_case_dir", ingest)
    config = RunConfig(str(manifest_path), str(tmp_path), backend=BackendConfig(kind="remote"))
    questions = load_questions(eval_dataset["questions"])
    with collections_in(lambda: [i for i, ref in enumerate(bundles) if ref() is not None]) as seen:
        summary = batch_eval(config, cases, questions, backend=DownBackend())
    assert len(summary.failures) == len(bundles) == 3
    assert seen == [[2, [], 0, 0]]


def test_failed_run_case_leaves_no_garbage_cycle(manifest, manifest_path, eval_dataset, cases,
                                                 tmp_path):
    """``run_case`` re-raises a case's exception without keeping it, so
    the cyclic collector has nothing to find once the caller drops it."""
    case_dir = sorted(cases.iterdir())[0]
    bundle = ingest_case_dir(manifest, case_dir)
    question = select_question(load_questions(eval_dataset["questions"]), case_dir.name)
    config = RunConfig(str(manifest_path), str(tmp_path), backend=BackendConfig(kind="remote"))
    gc.collect()
    gc.disable()
    try:
        try:
            run_case(manifest, bundle, question, config, DownBackend())
        except BackendError:
            pass
        else:
            pytest.fail("run_case returned on a backend that fails every call")
        assert gc.collect() == 0
    finally:
        gc.enable()
