"""Canonical determinant/trace preserving matrix maps.

Library + CLI for the matrix-preserver tool chain: canonical map forms on
the classical matrix classes, seeded numerical verification of the
determinant/trace identities they satisfy, supporting oracles
(Minkowski determinant inequality, adjugate derivative formula,
Kadison/Choi operator inequalities, trace dual witnesses), and recovery
of canonical parameters from black-box maps.
"""

from .core_linalg import adjugate, determinant, inverse, matrix_residual, principal_root, scalar_residual
from .domains import (
    MatrixClass,
    contains,
    dual_witness,
    mix_seed,
    sample,
    sample_batch,
    sample_invertible,
)
from .errors import (
    DegenerateUnit,
    DimensionMismatch,
    NotCanonical,
    NotLinear,
    NotPositiveDefinite,
    NotRankOne,
    NotStarForm,
    NotUnital,
    PreserverLabError,
    SingularUnit,
    WitnessNotFound,
    ZeroInput,
)
from .jsonio import matrix_from_json, matrix_to_json
from .mapspec import preserver_to_spec, realize_map, recovery_to_json, spec_to_preserver
from .preservers import (
    CanonicalPreserver,
    LinearRep,
    NormConjugation,
    PreserverForm,
    apply_preserver,
    gauge_residual,
    pinching,
    random_canonical,
    remark1_map,
)
from .recovery import build_linear_rep, rank_one_split, recover, roundtrip_residual
from .verifiers import (
    JacobiCheck,
    KadisonChoiReport,
    MinkowskiCheck,
    VerificationReport,
    check_homogeneity_additivity,
    check_jacobi,
    check_kadison_choi,
    check_minkowski,
    oracle_dual_witness,
    oracle_jacobi,
    oracle_kadison_choi,
    oracle_minkowski,
    unitalize,
    verify_det_identity,
    verify_trace_identity,
)

__version__ = "0.1.0"
