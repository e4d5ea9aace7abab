"""Canonical JSON: sorted keys, floats fixed at 6 decimal places.

Every serialized artifact (hypotheses, reports, transcripts, summaries) goes
through here so identical inputs always produce identical bytes. Floats are
quantized with round-half-even at 6 decimals before dumping; quantized
values survive a JSON round-trip exactly.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path


def quantize_float(x: float) -> float:
    if not math.isfinite(x):
        raise ValueError(f"non-finite float {x!r} cannot be serialized")
    q = round(x, 6)
    return 0.0 if q == 0 else q  # normalize -0.0


def quantize_tree(obj):
    """Copy ``obj`` with every float quantized; containers recursed."""
    if isinstance(obj, float):
        return quantize_float(obj)
    if isinstance(obj, dict):
        return {k: quantize_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [quantize_tree(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    return json.dumps(quantize_tree(obj), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` via a temp file + rename so readers never see a
    half-written artifact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str | Path, obj) -> None:
    write_text_atomic(path, canonical_json(obj))
