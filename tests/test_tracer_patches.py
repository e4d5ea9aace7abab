"""The benchmark's tracer must still find every pipeline attribute it wraps:
a renamed or deleted name would crash ``perfbench/run.py --trace 1`` while
every other test passes."""

import sys
from pathlib import Path

from evidencesql.backends import TemplateBackend

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracing import _PATCHES, Tracer  # noqa: E402


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
