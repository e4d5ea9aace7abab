"""The benchmark's tracer must still find every pipeline attribute it wraps:
a renamed or deleted name would crash ``perfbench/run.py --trace 1`` while
every other test passes."""

import shutil
import sys
from collections import Counter
from pathlib import Path

from evidencesql import pipeline
from evidencesql.backends import BackendConfig, TemplateBackend

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracing import _PATCHES, ATTRS, NAME, Tracer  # noqa: E402


def test_tracer_install_wraps_and_uninstall_restores():
    backend = TemplateBackend()
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in _PATCHES]
    tracer = Tracer()
    tracer.install(backend)
    try:
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in originals)
        assert "complete" in vars(backend)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)
    assert "complete" not in vars(backend)


def test_tracer_sees_each_case_render_write_and_narrative(manifest_path, eval_dataset,
                                                          tmp_path):
    """``batch_eval`` renders and writes a case after the next case's
    analysis, outside ``run_case``: the tracer still records one markdown
    render, one write and one narrative call per case of a remote-kind
    batch."""
    dataset = tmp_path / "three"
    for case_dir in sorted(eval_dataset["dataset"].iterdir())[:3]:
        shutil.copytree(case_dir, dataset / case_dir.name)
    questions = pipeline.load_questions(eval_dataset["questions"])
    # the ranges give each case its own findings, so its own narrative prompt
    config = pipeline.RunConfig(str(manifest_path), str(tmp_path / "out"),
                                ranges_path=str(eval_dataset["ranges"]),
                                backend=BackendConfig(kind="remote"))
    backend = TemplateBackend()
    tracer = Tracer()
    tracer.install(backend)
    try:
        summary = tracer.operation(
            3, lambda: pipeline.batch_eval(config, dataset, questions, backend))
    finally:
        tracer.uninstall()
    assert summary.n_cases == 3 and summary.failures == []
    names = Counter(span[NAME] for span in tracer.spans)
    tasks = Counter(span[ATTRS]["task"] for span in tracer.spans if span[NAME] == "complete")
    assert names["render_md"] == names["write"] == tasks["narrative"] == 3
