"""``tools/batch_digests.py``: one digest per workload, seed and worker
count, and a failing exit status when worker counts disagree."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "batch_digests.py"
_spec = importlib.util.spec_from_file_location("batch_digests", TOOL)
batch_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(batch_digests)


def test_cohort_batch_outputs_match_at_one_and_two_workers():
    import evidencesql.pipeline as pipeline

    ingest = pipeline.ingest_case_dir
    digests = batch_digests.workload_digests(batch_digests.CohortBatch, 1, [1, 2])
    assert pipeline.ingest_case_dir is ingest  # the workload's case clock is uninstalled
    assert digests[0] == digests[1] and len(digests[0]) == 64


def test_worker_counts_that_disagree_fail(capsys, monkeypatch):
    monkeypatch.setattr(batch_digests, "workload_digests",
                        lambda kind, seed, workers: [f"d{count}" for count in workers])
    assert batch_digests.main(["7", "--workers", "1", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["cohort_batch 7 1 d1", "cohort_batch 7 3 d3",
                                         "hosted_batch 7 1 d1", "hosted_batch 7 3 d3"]
    for name in ("cohort_batch", "hosted_batch"):
        assert f"{name} seed 7: outputs differ across worker counts" in captured.err
