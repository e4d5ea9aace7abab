"""Typed cell values and dtype coercion shared by the store and the engine.

A cell value is a plain Python object: ``int``, ``float``, ``str`` or ``None``
for null. Finite-ness is enforced at every boundary — a ``float`` value inside
a loaded table or query result is never NaN or infinite.
"""

from __future__ import annotations

import enum
import math

from evidencesql.errors import TypeMismatch

Value = int | float | str | None


class Dtype(enum.Enum):
    INTEGER = "integer"
    REAL = "real"
    TEXT = "text"


def coerce(text: str, dtype: Dtype) -> Value:
    """Convert a raw CSV field to a typed value. Empty string means null.

    Raises:
        TypeMismatch: the field cannot be represented under ``dtype``
            (including non-finite reals).
    """
    if text == "":
        return None
    if dtype is Dtype.TEXT:
        return text
    if dtype is Dtype.INTEGER:
        try:
            return int(text)
        except ValueError:
            raise TypeMismatch(f"{text!r} is not an integer") from None
    try:
        value = float(text)
    except ValueError:
        raise TypeMismatch(f"{text!r} is not a real number") from None
    if not math.isfinite(value):
        raise TypeMismatch(f"{text!r} is not finite")
    return value


def render_value(value: Value) -> str:
    """Canonical text form used for CSV round-trips and result display."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)
