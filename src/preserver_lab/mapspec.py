"""Declarative JSON map specs and their realization as callables.

A map spec is an object with a string ``kind`` key:

* the four canonical kinds ``pn-congruence`` / ``sn-congruence`` /
  ``mn-two-sided`` / ``tn-diagonal`` carry the form parameters
  (``alpha``, ``M``, ``N``, boolean ``transpose``, arrays ``sigma`` (1-based)
  and ``lambdas`` of length n, optional ``offdiag_seed``);
* ``linear-rep`` carries an n^2 x n^2 matrix under the global row-major
  vectorization convention, which is how arbitrary external linear maps
  are submitted; it is realized as a :class:`LinearRep`;
* ``remark1`` and ``pinching`` take no parameters.

Every matrix is decoded at the requested n (n^2 for ``rep``) by
:func:`jsonio.matrix_from_json`, which makes the one dimension check.
Gauge constraints are deliberately not enforced on load; loaded specs are
black boxes for the verifiers and the recovery pipeline.
"""

from __future__ import annotations

import numpy as np

from .jsonio import complex_from_json, complex_to_json, int_from_json, matrix_from_json, matrix_to_json
from .preservers import (CanonicalPreserver, LinearRep, PreserverForm, gauge_residual, pinching,
                         remark1_map)

__all__ = [
    "spec_to_preserver",
    "preserver_to_spec",
    "realize_map",
    "recovery_to_json",
]

_CANONICAL_KINDS = {form.value: form for form in PreserverForm}


def spec_to_preserver(spec: dict, n: int) -> CanonicalPreserver:
    kind = spec.get("kind")
    form = _CANONICAL_KINDS.get(kind) if isinstance(kind, str) else None
    if form is None:
        raise ValueError(f"not a canonical map kind: {kind!r}")
    alpha = complex_from_json(spec["alpha"]) if "alpha" in spec else 1.0 + 0.0j
    transpose = spec.get("transpose", False)
    if not isinstance(transpose, bool):
        raise ValueError(f"transpose must be true or false, got {transpose!r}")
    if form is PreserverForm.TN_DIAGONAL:
        sigma_raw = spec.get("sigma")
        lambdas_raw = spec.get("lambdas")
        if not (isinstance(sigma_raw, list) and isinstance(lambdas_raw, list)):
            raise ValueError("tn-diagonal spec needs sigma and lambdas as arrays")
        sigma = tuple(int_from_json(s) - 1 for s in sigma_raw)  # wire format is 1-based
        lambdas = np.array([complex_from_json(z) for z in lambdas_raw], dtype=complex)
        return CanonicalPreserver(form, n, alpha, sigma=sigma, lambdas=lambdas, transpose=transpose,
                                  offdiag_seed=int_from_json(spec.get("offdiag_seed", 0)))
    m = matrix_from_json(spec.get("M"), n)
    right = matrix_from_json(spec.get("N"), n) if form is PreserverForm.MN_TWO_SIDED else None
    return CanonicalPreserver(form, n, alpha, M=m, N=right, transpose=transpose)


def preserver_to_spec(p: CanonicalPreserver) -> dict:
    spec: dict = {"kind": p.form.value, "alpha": complex_to_json(p.alpha)}
    if p.form is PreserverForm.TN_DIAGONAL:
        spec["sigma"] = [int(s) + 1 for s in p.sigma]
        spec["lambdas"] = [complex_to_json(z) for z in np.asarray(p.lambdas)]
        spec["offdiag_seed"] = int(p.offdiag_seed)
    else:
        spec["M"] = matrix_to_json(p.M)
        if p.form is PreserverForm.MN_TWO_SIDED:
            spec["N"] = matrix_to_json(p.N)
    spec["transpose"] = bool(p.transpose)
    return spec


def realize_map(spec: dict, n: int):
    """Turn a map spec into a callable on n x n complex arrays."""
    if not isinstance(spec, dict) or not isinstance(spec.get("kind"), str):
        raise ValueError("map spec must be a JSON object with a string 'kind'")
    kind = spec["kind"]
    if kind in _CANONICAL_KINDS:
        return spec_to_preserver(spec, n)
    if kind == "linear-rep":
        return LinearRep(n, matrix_from_json(spec.get("rep"), n * n))
    if kind == "remark1":
        return remark1_map
    if kind == "pinching":
        return pinching
    raise ValueError(f"unknown map kind {kind!r}")


def recovery_to_json(p: CanonicalPreserver, residual: float) -> dict:
    """Machine-readable recovery result (form, branch, parameters, gauges)."""
    out: dict = {
        "form": p.form.value,
        "branch": "transpose" if p.transpose else "plain",
        "alpha": complex_to_json(p.alpha),
    }
    if p.form is PreserverForm.PN_CONGRUENCE:
        out["M"] = matrix_to_json(p.M)
    elif p.form is PreserverForm.MN_TWO_SIDED:
        out["M"] = matrix_to_json(p.M)
        out["N"] = matrix_to_json(p.N)
    elif p.form is PreserverForm.SN_CONGRUENCE:
        out["P"] = matrix_to_json(p.M)
    else:
        out["sigma"] = [int(s) + 1 for s in p.sigma]
        out["lambdas"] = [complex_to_json(z) for z in np.asarray(p.lambdas)]
    out["residual"] = float(residual)
    out["constraint_residuals"] = {"det_gauge": float(gauge_residual(p))}
    return out
