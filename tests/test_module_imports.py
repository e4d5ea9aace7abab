"""Each module under ``src/evidencesql/`` imports on its own. The package
``__init__`` files import nothing, so a circular import between two modules
shows only when one of them is imported first; this imports each one first."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(
    ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
    for path in (SRC / "evidencesql").rglob("*.py")
)

# Run in one interpreter to keep the test fast; forgetting every evidencesql
# module before each import makes each one the first imported.
IMPORT_EACH = """
import importlib, sys
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "evidencesql"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        print(f"{name}: {type(exc).__name__}: {exc}")
"""


def test_each_module_imports_on_its_own():
    assert "evidencesql.sql.guard" in MODULES and "evidencesql" in MODULES
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-W", "error", "-c", IMPORT_EACH, *MODULES],
                         env=env, capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "")
