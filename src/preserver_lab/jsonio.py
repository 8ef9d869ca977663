"""The JSON wire format: byte-stable emission and every codec.

Reports must be byte-identical across runs with identical inputs, so
floats are always rendered with 17 significant digits and dict key order
follows construction order (never sorted, never locale dependent).

This module owns every ``*_to_json`` / ``*_from_json`` codec, and one number
rule decodes both complex scalars and matrix entries (:func:`_floats`).
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

__all__ = ["dumps_stable", "complex_to_json", "complex_from_json", "int_from_json",
           "matrix_to_json", "matrix_from_json"]


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


def _floats(values: list, message: str) -> np.ndarray:
    """A flat list of JSON numbers as a float array, else a ValueError with ``message``.

    The one number rule: an int or float, never a bool (checked by exact type) or a string,
    that fits in a float and is finite, so not 1e400, NaN, Infinity or a 400-digit integer.
    """
    if set(map(type, values)) <= {int, float}:
        try:
            a = np.array(values, dtype=float)
        except OverflowError:  # an integer beyond the float range
            pass
        else:
            if np.isfinite(a).all():
                return a
    raise ValueError(message)


def complex_from_json(d) -> complex:
    """Decode a number or {"re", "im"} of numbers under the number rule of :func:`_floats`."""
    parts = [d["re"], d["im"]] if isinstance(d, dict) and "re" in d and "im" in d else [d, 0.0]
    re, im = _floats(parts, "complex JSON must be a finite number or an object with finite numeric "
                            f"re/im, got {d!r}")
    return complex(re, im)


def int_from_json(v) -> int:
    """Decode an integer field: an int, or a float with an integral (so finite) value; else a ValueError."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise ValueError(f"expected an integer, got {v!r}")


def matrix_to_json(a) -> dict:
    """Encode a square matrix as the repo-wide JSON object {"n", "re", "im"}."""
    m = np.asarray(a, dtype=complex)
    return {"n": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from_json(d, n: int) -> np.ndarray:
    """Decode the {"n", "re", "im"} encoding of an ``n`` x ``n`` matrix; anything else is a ValueError."""
    if not isinstance(d, dict) or not {"n", "re", "im"} <= d.keys():
        raise ValueError("matrix JSON must be an object with keys n, re, im")
    square = all(isinstance(a, list) and len(a) == n and all(isinstance(r, list) and len(r) == n for r in a)
                 for a in (d["re"], d["im"]))
    if int_from_json(d["n"]) != n or not square:
        raise ValueError(f"matrix JSON must have n = {n} and two {n} x {n} arrays")
    re, im = _floats([*chain(*d["re"], *d["im"])], "matrix JSON entries must be finite numbers").reshape(2, n, n)
    return re + 1j * im
