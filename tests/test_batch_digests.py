"""``tools/batch_digests.py``: one digest per workload, seed and worker
count, each batch's backend calls by task where its backend counts them,
and a failing exit status when worker counts disagree."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "batch_digests.py"
_spec = importlib.util.spec_from_file_location("batch_digests", TOOL)
batch_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(batch_digests)


def test_cohort_batch_outputs_match_at_one_and_two_workers():
    import evidencesql.pipeline as pipeline

    ingest = pipeline.ingest_case_dir
    runs = batch_digests.workload_digests(batch_digests.CohortBatch, 1, [1, 2])
    digests = [digest for digest, _ in runs]
    assert pipeline.ingest_case_dir is ingest  # the workload's case clock is uninstalled
    assert digests[0] == digests[1] and len(digests[0]) == 64
    assert [calls for _, calls in runs] == [None, None]  # the template backend counts none


def test_hosted_batch_makes_the_same_calls_at_one_and_four_workers():
    """A 12-case ``hosted_batch`` asks the global agent once, each case's
    local agent and narrative once, and 22 ranges, at any worker count."""
    runs = batch_digests.workload_digests(batch_digests.HostedBatch, 1, [1, 4])
    assert runs[0] == runs[1]
    assert runs[0][1] == {"global": 1, "local": 12, "ranges": 22, "narrative": 12}


def test_worker_counts_that_disagree_fail(capsys, monkeypatch):
    monkeypatch.setattr(batch_digests, "workload_digests",
                        lambda kind, seed, workers: [(f"d{count}", None) for count in workers])
    assert batch_digests.main(["7", "--workers", "1", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["cohort_batch 7 1 d1", "cohort_batch 7 3 d3",
                                         "hosted_batch 7 1 d1", "hosted_batch 7 3 d3"]
    for name in ("cohort_batch", "hosted_batch"):
        assert f"{name} seed 7: outputs differ across worker counts" in captured.err


def test_a_calls_line_follows_each_digest_and_calls_that_disagree_fail(capsys, monkeypatch):
    def runs(kind, seed, workers):
        if kind is batch_digests.CohortBatch:
            return [("d", None) for _ in workers]
        return [("d", {"global": 1, "local": count, "ranges": 22, "narrative": 12})
                for count in workers]

    monkeypatch.setattr(batch_digests, "workload_digests", runs)
    assert batch_digests.main(["7", "--workers", "1", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "cohort_batch 7 1 d", "cohort_batch 7 3 d",
        "hosted_batch 7 1 d", "hosted_batch 7 1 calls global=1 local=1 ranges=22 narrative=12",
        "hosted_batch 7 3 d", "hosted_batch 7 3 calls global=1 local=3 ranges=22 narrative=12"]
    assert captured.err.splitlines() == [
        "hosted_batch seed 7: backend calls differ across worker counts"]


def test_worker_counts_that_agree_pass(capsys, monkeypatch):
    calls = {"global": 1, "local": 12, "ranges": 22, "narrative": 12}
    monkeypatch.setattr(batch_digests, "workload_digests",
                        lambda kind, seed, workers: [("d", dict(calls)) for _ in workers])
    assert batch_digests.main(["7", "--workers", "1", "4"]) == 0
    assert capsys.readouterr().err == ""
