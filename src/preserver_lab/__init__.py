"""Canonical determinant/trace preserving matrix maps.

Library + CLI for the matrix-preserver tool chain: canonical map forms on
the classical matrix classes, seeded numerical verification of the
determinant/trace identities they satisfy, supporting oracles
(Minkowski determinant inequality, adjugate derivative formula,
Kadison/Choi operator inequalities, trace dual witnesses), and recovery
of canonical parameters from black-box maps.

Exports are lazy (PEP 562): ``import preserver_lab`` loads no numpy; each
name below, and each submodule, is imported on first use and then kept.
"""

from importlib import import_module as _import_module

_EXPORTS = {name: module for module, names in {
    "core_linalg": ("adjugate", "determinant", "inverse", "matrix_residual", "principal_root", "scalar_residual"),
    "domains": ("MatrixClass", "contains", "dual_witness", "mix_seed", "sample", "sample_batch", "sample_invertible"),
    "errors": ("DegenerateUnit", "DimensionMismatch", "NotCanonical", "NotLinear", "NotPositiveDefinite",
               "NotRankOne", "NotStarForm", "NotUnital", "PreserverLabError", "SingularUnit", "WitnessNotFound",
               "ZeroInput"),
    "jsonio": ("matrix_from_json", "matrix_to_json"),
    "mapspec": ("preserver_to_spec", "realize_map", "recovery_to_json", "spec_to_preserver"),
    "preservers": ("CanonicalPreserver", "LinearRep", "NormConjugation", "PreserverForm", "apply_preserver",
                   "gauge_residual", "pinching", "random_canonical", "remark1_map"),
    "recovery": ("build_linear_rep", "rank_one_split", "recover", "roundtrip_residual"),
    "verifiers": ("JacobiCheck", "KadisonChoiReport", "MinkowskiCheck", "VerificationReport",
                  "check_homogeneity_additivity", "check_jacobi", "check_kadison_choi", "check_minkowski",
                  "oracle_dual_witness", "oracle_jacobi", "oracle_kadison_choi", "oracle_minkowski",
                  "unitalize", "verify_det_identity", "verify_trace_identity"),
}.items() for name in names}

__all__ = [*_EXPORTS, *dict.fromkeys(_EXPORTS.values())]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{_EXPORTS.get(name, name)}")
    globals()[name] = value = getattr(module, name) if name in _EXPORTS else module
    return value


def __dir__():
    return sorted({*globals(), *__all__})
