"""The two-pass canonical encoder that ``evidencesql.serialize`` replaced
with a one-walk writer, kept as the reference the encoder property test
compares against: copy the tree with every float quantized, then dump it
with the standard library's indenting encoder."""

from __future__ import annotations

import json

from evidencesql.serialize import quantize_float


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
