"""Byte-stable JSON emission and the scalar codecs shared by CLI and specs.

Reports must be byte-identical across runs with identical inputs, so
floats are always rendered with 17 significant digits and dict key order
follows construction order (never sorted, never locale dependent).
"""

from __future__ import annotations

import cmath
import json

import numpy as np

__all__ = ["dumps_stable", "complex_to_json", "complex_from_json", "int_from_json"]


def _fmt_float(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError("non-finite float in report")
    return "%.17g" % v


def dumps_stable(obj) -> str:
    """Serialize to JSON with deterministic float formatting and key order."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ",".join(f"{json.dumps(str(k))}:{dumps_stable(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_stable(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def complex_to_json(z) -> dict:
    z = complex(z)
    return {"re": float(z.real), "im": float(z.imag)}


def complex_from_json(d) -> complex:
    """Decode a number or {"re", "im"} of numbers; a boolean or string part, a non-finite part
    (1e400, NaN, Infinity) or an integer too large for a float is a ValueError."""
    parts = (d["re"], d["im"]) if isinstance(d, dict) and "re" in d and "im" in d else (d, 0.0)
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
        raise ValueError(f"complex JSON must be a number or an object with numeric re/im, got {d!r}")
    try:
        z = complex(float(parts[0]), float(parts[1]))
    except OverflowError as exc:
        raise ValueError(f"complex JSON value is not a float: {exc}") from None
    if not cmath.isfinite(z):
        raise ValueError(f"complex JSON value {z} is not finite")
    return z


def int_from_json(v) -> int:
    """Decode an integer field: an int, or a float with an integral (so finite) value; else a ValueError."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise ValueError(f"expected an integer, got {v!r}")
