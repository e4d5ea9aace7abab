"""Canonical JSON: sorted keys, floats fixed at 6 decimal places.

Every serialized artifact (hypotheses, reports, transcripts, summaries) goes
through here so identical inputs always produce identical bytes. For every
tree whose dict keys are strings, the text is that of ``json.dumps(...,
sort_keys=True, indent=2, ensure_ascii=False)``, written in one walk that
quantizes each float value with round-half-even at 6 decimals as it goes;
quantized values survive a JSON round-trip exactly. Any other key is a
TypeError.

Input files (manifest, sidecar, questions, ranges, backend config, query)
are read here too, so every unreadable one fails with the same message;
``json_field`` checks the type of a manifest, questions, ranges or
backend-config field.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
from pathlib import Path


def quantize_float(x: float) -> float:
    if not math.isfinite(x):
        raise ValueError(f"non-finite float {x!r} cannot be serialized")
    q = round(x, 6)
    return 0.0 if q == 0 else q  # normalize -0.0


# json's own choices: the base types' repr, so a subclass (an IntEnum) is
# written as its number, not its own repr
_encode_str = json.encoder.encode_basestring
_float_text = float.__repr__
_int_text = int.__repr__


def _encode(obj, out: list[str], newline: str) -> None:
    """Append the JSON text of ``obj`` to ``out``; ``newline`` is a line
    break plus the indent of the line ``obj`` starts on."""
    if isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(_int_text(obj))
    elif isinstance(obj, float):
        out.append(_float_text(quantize_float(obj)))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in obj:
            out.append(separator)
            _encode(item, out, inner)
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(separator + _encode_str(key) + ": ")
            _encode(value, out, inner)
            separator = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)``
    plus a final newline, with every float value quantized, in one walk,
    for every tree whose dict keys are strings.

    The first fault met in walk order raises: a ValueError for a
    non-finite float or an int too long to print, a TypeError for a value
    json cannot write or a key that is not a string.
    """
    out: list[str] = []
    _encode(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def read_text_file(path: str | Path, what: str, error: type[Exception]) -> str:
    """The UTF-8 text of an input file; a file that cannot be read is an
    ``error`` naming ``what`` and the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def read_json_file(path: str | Path, what: str, error: type[Exception]) -> object:
    """The parsed content of a JSON input file; a file that cannot be read
    or parsed is an ``error`` naming ``what`` and the path."""
    text = read_text_file(path, what, error)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def malformed(source: str, exc: Exception, error: type[Exception]) -> Exception:
    """An ``error`` for a document from ``source`` whose shape or field
    types ``exc`` rejected, naming the source and the exception."""
    return error(f"malformed {source}: {type(exc).__name__}: {exc}")


def json_field(value, what: str, kind: type = str, nullable: bool = False):
    """``value`` when it is a JSON ``kind`` (str, list, int: a whole number
    but a bool, or float: any number but a bool, returned as a float), or
    null where ``nullable``; else a TypeError naming ``what``. Input-file
    readers check fields with it instead of coercing."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, accepted) and not isinstance(value, bool):
        return float(value) if kind is float else value
    if nullable and value is None:
        return value
    wanted = {str: "a string", list: "a JSON list", int: "an integer", float: "a number"}[kind]
    raise TypeError(f"{what} must be {wanted}{' or null' if nullable else ''}, "
                    f"not {type(value).__name__}")


# One counter for the process: with the pid and the thread, it makes every
# temp file name unique, even for two writes from one thread.
_TEMP_NUMBERS = itertools.count()


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` via a temp file + rename so readers never see a
    half-written artifact.

    The temp file is created beside ``path`` with ``O_EXCL`` and mode 0600
    (less the umask, as ``mkstemp`` makes it), under a name no other thread
    or process of this run can take: the pid, the thread and a counter.
    The parent directory is made, with its own parents, only when creating
    the temp file fails for want of it.
    """
    path = os.fspath(path)
    data = memoryview(text.encode("utf-8"))
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.{next(_TEMP_NUMBERS)}.tmp"
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    try:
        fd = os.open(tmp, flags, 0o600)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(tmp), exist_ok=True)
        fd = os.open(tmp, flags, 0o600)
    try:
        try:
            while data:  # a write may take only part of what it is given
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str | Path, obj) -> None:
    write_text_atomic(path, canonical_json(obj))
