import gc
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from evidencesql.feature_store import canonical_manifest, ingest_case_dir

FIXTURES = Path(__file__).parent / "fixtures"


def pytest_collection_finish(session):
    """Freeze what collection left alive (pytest's and hypothesis's heap),
    so the full collection each ``batch_eval`` ends with does not traverse
    it again; objects made after this are collected as before."""
    gc.collect()
    gc.freeze()


@pytest.fixture
def collections_in():
    """``with collections_in(at_start) as seen:`` runs its block with the
    cyclic collector off, after one collection, and records in ``seen``
    each collection that runs in it: its generation, what ``at_start()``
    returned as it started, and how many objects it found collectable and
    uncollectable. With the collector off, only an explicit
    ``gc.collect()`` runs one."""

    @contextmanager
    def recording(at_start=lambda: None):
        seen = []

        def record(phase, info):
            if phase == "start":
                seen.append([info["generation"], at_start()])
            else:
                seen[-1] += [info["collected"], info["uncollectable"]]

        gc.collect()
        gc.disable()
        gc.callbacks.append(record)
        try:
            yield seen
        finally:
            gc.callbacks.remove(record)
            gc.enable()

    return recording


@pytest.fixture(scope="session")
def manifest():
    return canonical_manifest()


@pytest.fixture(scope="session")
def demo_case_dir():
    return FIXTURES / "demo_case"


@pytest.fixture(scope="session")
def demo_bundle(manifest, demo_case_dir):
    return ingest_case_dir(manifest, demo_case_dir)


@pytest.fixture(scope="session")
def manifest_path():
    import evidencesql.fixtures

    return Path(evidencesql.fixtures.__path__[0]) / "manifest.json"


@pytest.fixture(scope="session")
def eval_dataset(tmp_path_factory):
    from datasets import build_eval_dataset

    root = tmp_path_factory.mktemp("eval_fixture")
    return build_eval_dataset(root)


@pytest.fixture(scope="session")
def training_split(tmp_path_factory):
    from datasets import build_training_split

    root = tmp_path_factory.mktemp("training_fixture")
    return build_training_split(root)
