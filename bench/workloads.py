"""The three benchmark workloads as lists of operations with expected outcomes.

Every map, spec, spec file and argv is generated here from the workload
seed with the benchmark's own numpy Generator, so a library change that
alters ``random_canonical`` or the samplers does not change the inputs.
The library only ever receives the generated inputs.

One op is one unit of work a user waits for: one verifier battery, one
``recover`` call, or one CLI subprocess.  Each op carries the outcome the
documented contract promises (README exit codes, ROADMAP item 2), not the
outcome the current code happens to produce.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from preserver_lab import cli, recovery, verifiers
from preserver_lab.domains import MatrixClass
from preserver_lab.errors import RECOVERY_ERRORS
from preserver_lab.jsonio import dumps_stable
from preserver_lab.mapspec import realize_map, recovery_to_json
from preserver_lab.preservers import CanonicalPreserver, PreserverForm, pinching, remark1_map

TOL = 1e-8
CONVEX = [(complex(t), complex(1.0 - t)) for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
DET_SUM = [(1.0 + 0.0j, 1.0 + 0.0j)]

# ROADMAP item 2: NaN/inf residuals are dropped by max(), so these report
# success today.  They stay in the mix so the defect shows in wrong_frac.
OVERFLOW_DEFECT = "ROADMAP item 2: overflowing map, non-finite residual must fail"
NAN_BOX_DEFECT = "ROADMAP item 2: NaN-off-units box, non-finite residual must raise NotLinear"

FORM_CLASS = {
    PreserverForm.PN_CONGRUENCE: MatrixClass.PD,
    PreserverForm.SN_CONGRUENCE: MatrixClass.SYMMETRIC,
    PreserverForm.MN_TWO_SIDED: MatrixClass.FULL,
    PreserverForm.TN_DIAGONAL: MatrixClass.UPPER_TRIANGULAR,
}
_BRANCHABLE = (PreserverForm.PN_CONGRUENCE, PreserverForm.MN_TWO_SIDED)


@dataclass
class Op:
    """One benchmark operation.

    ``call(map_fn)`` runs the op on the (possibly traced) map and returns
    its raw output; ``classify(raw)`` turns that output into
    ``(observed, text)``: the outcome compared with ``expected`` and the
    bytes that must repeat exactly whenever the op is re-run.
    """

    name: str
    call: Callable
    classify: Callable
    expected: str
    map_fn: Callable | None = None
    known_defect: str | None = None
    argv: list[str] | None = None  # cli-cold: the CLI arguments the op runs


def _conditioned_gaussian(rng, n):
    while True:
        g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
        s = np.linalg.svd(g, compute_uv=False)
        if s[-1] > 1e-2 * s[0]:
            return g


def canonical_map(rng, form: PreserverForm, n: int, transpose: bool = False) -> CanonicalPreserver:
    """A gauge-normalized canonical map drawn from the benchmark's own stream."""
    alpha = complex(rng.uniform(0.5, 2.0))
    if form is PreserverForm.TN_DIAGONAL:
        lam = rng.uniform(0.5, 2.0, size=n).astype(complex)
        lam[-1] = 1.0 / np.prod(lam[:-1])
        return CanonicalPreserver(form, n, alpha, sigma=tuple(int(i) for i in rng.permutation(n)),
                                  lambdas=lam, offdiag_seed=int(rng.integers(1 << 31)))
    m = _conditioned_gaussian(rng, n)
    if form is PreserverForm.PN_CONGRUENCE:
        m = m * abs(np.linalg.det(m)) ** (-1.0 / n)
        return CanonicalPreserver(form, n, alpha, M=m, transpose=transpose)
    if form is PreserverForm.SN_CONGRUENCE:
        return CanonicalPreserver(form, n, alpha, M=m * complex(np.linalg.det(m)) ** (-1.0 / n))
    right = _conditioned_gaussian(rng, n)
    s = complex(np.linalg.det(m @ right)) ** (-0.5 / n)
    return CanonicalPreserver(form, n, alpha, M=m * s, N=right * s, transpose=transpose)


def overflow_map(n: int = 2) -> CanonicalPreserver:
    """ROADMAP item 2's mn-two-sided map with alpha = 1e200, M = 1e200 I."""
    eye = np.eye(n, dtype=complex)
    return CanonicalPreserver(PreserverForm.MN_TWO_SIDED, n, 1e200 + 0.0j, M=1e200 * eye, N=eye)


def nan_off_units_box(a):
    """Identity on matrix units, NaN on every other input (ROADMAP item 2)."""
    m = np.asarray(a, dtype=complex)
    if np.count_nonzero(m) == 1 and np.max(np.abs(m)) == 1.0:
        return m.copy()
    return np.full(m.shape, np.nan, dtype=complex)


def linear_rep_of(p: CanonicalPreserver) -> np.ndarray:
    """Row-major n^2 x n^2 matrix of a plain mn-two-sided map X -> alpha M X N."""
    return p.alpha * np.kron(p.M, p.N.T)


# -- JSON encodings of the wire format (README "JSON formats") ---------------

def _cjson(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _mjson(a) -> dict:
    a = np.asarray(a, dtype=complex)
    return {"n": a.shape[0], "re": a.real.tolist(), "im": a.imag.tolist()}


def map_spec(p: CanonicalPreserver) -> dict:
    spec = {"kind": p.form.value, "alpha": _cjson(p.alpha), "M": _mjson(p.M)}
    if p.form is PreserverForm.MN_TWO_SIDED:
        spec["N"] = _mjson(p.N)
    spec["transpose"] = p.transpose
    return spec


# -- outcome classification ----------------------------------------------------

def classify_verify(raw):
    try:
        text = dumps_stable(raw.to_dict())
    except ValueError as exc:  # a report that does not serialize breaks the CLI contract
        return f"unserializable ({exc})", repr(exc)
    return ("pass" if raw.passed else "fail"), text


def classify_recover(raw):
    if isinstance(raw, RECOVERY_ERRORS):
        return type(raw).__name__, f"{type(raw).__name__}: {raw}"
    p, residual = raw
    observed = f"{p.form.value}/{'transpose' if p.transpose else 'plain'}"
    if not residual <= TOL:
        observed += "/residual>tol"
    try:
        return observed, dumps_stable(recovery_to_json(p, residual))
    except ValueError as exc:  # non-finite parameters: the CLI could not emit this
        return f"unserializable ({exc})", repr(exc)


def classify_cli(raw):
    code, stdout = raw
    return f"exit {code}", stdout


# -- verify-battery ----------------------------------------------------------

def _verify_op(name, map_fn, cls, n, identity, samples, seed, expected, known_defect=None):
    if identity.startswith("det-"):
        weights = CONVEX if identity == "det-convex" else DET_SUM

        def call(fn):
            return verifiers.verify_det_identity(fn, cls, n, weights, samples, seed, TOL,
                                                 identity=identity)
    else:
        kind, power = identity.removeprefix("trace-"), 2
        if kind.startswith("power-"):
            kind, power = "power", int(kind.split("-")[1])

        def call(fn):
            return verifiers.verify_trace_identity(fn, cls, n, kind, samples, seed, TOL,
                                                   power=power)
    return Op(name=f"verify {identity} {name} n={n}", call=call, classify=classify_verify,
              expected=expected, map_fn=map_fn, known_defect=known_defect)


def verify_battery(seed: int, work_dir: str) -> list[Op]:
    """Criterion-1 batteries plus a trace-product slice and two expected failures."""
    rng = np.random.default_rng([seed, 1])
    ops = []
    for form, cls in FORM_CLASS.items():
        for n in (2, 3, 5):
            p = canonical_map(rng, form, n, transpose=form in _BRANCHABLE and n == 3)
            label = f"{form.value}/{cls.value}"
            for identity in ("det-convex", "trace-inverse"):
                ops.append(_verify_op(label, p, cls, n, identity, 200,
                                      int(rng.integers(1 << 31)), "pass"))
    # unitalize goes through takagi_factor on the symmetric class and pd_sqrt on PD
    for form, n, identity in ((PreserverForm.SN_CONGRUENCE, 2, "trace-product"),
                              (PreserverForm.SN_CONGRUENCE, 3, "trace-product"),
                              (PreserverForm.SN_CONGRUENCE, 3, "trace-power-3"),
                              (PreserverForm.PN_CONGRUENCE, 3, "trace-product")):
        cls = FORM_CLASS[form]
        ops.append(_verify_op(f"{form.value}/{cls.value}", canonical_map(rng, form, n), cls, n,
                              identity, 50, int(rng.integers(1 << 31)), "pass"))
    ops.append(_verify_op("remark1/full", remark1_map, MatrixClass.FULL, 3, "det-sum", 200,
                          int(rng.integers(1 << 31)), "fail"))
    ops.append(_verify_op("overflow-mn/full", overflow_map(2), MatrixClass.FULL, 2, "det-sum", 200,
                          int(rng.integers(1 << 31)), "fail", known_defect=OVERFLOW_DEFECT))
    return ops


# -- recover-sweep -----------------------------------------------------------

_RECOVER_VARIANTS = (
    (PreserverForm.PN_CONGRUENCE, False),
    (PreserverForm.PN_CONGRUENCE, True),
    (PreserverForm.SN_CONGRUENCE, False),
    (PreserverForm.MN_TWO_SIDED, False),
    (PreserverForm.MN_TWO_SIDED, True),
    (PreserverForm.TN_DIAGONAL, False),
)
# Two-sided n = 16 recoveries are dominated by the 256 x 256 Choi SVD.  Four
# of each per cycle puts them at 16 of 51 ops (31%).  p50 then falls inside
# the small-n cluster, 5 ops into its slower pn/tn half rather than on the
# step below it, and p90 falls inside the n = 16 cluster, within one variant.
_LARGE_VARIANTS = (
    (PreserverForm.PN_CONGRUENCE, False),
    (PreserverForm.PN_CONGRUENCE, True),
    (PreserverForm.MN_TWO_SIDED, False),
    (PreserverForm.MN_TWO_SIDED, True),
)
_LARGE_N, _LARGE_REPEATS = 16, 4


def _recover_op(name, map_fn, cls, n, expected, known_defect=None):
    def call(fn):
        try:
            return recovery.recover(fn, cls, n, tol=TOL)
        except RECOVERY_ERRORS as exc:
            return exc
    return Op(name=f"recover {name} n={n}", call=call, classify=classify_recover,
              expected=expected, map_fn=map_fn, known_defect=known_defect)


def _expected_recovery(form, transpose):
    return f"{form.value}/{'transpose' if transpose else 'plain'}"


def recover_sweep(seed: int, work_dir: str) -> list[Op]:
    """Criterion-2 variants at n = 2..6 and 16, a linear-rep box and negative boxes."""
    rng = np.random.default_rng([seed, 2])
    ops = []
    for form, tr in _RECOVER_VARIANTS:
        cls = FORM_CLASS[form]
        for n in range(2, 7):
            ops.append(_recover_op(f"{form.value}/{cls.value}/{'T' if tr else 'P'}",
                                   canonical_map(rng, form, n, tr), cls, n,
                                   _expected_recovery(form, tr)))
    for _ in range(_LARGE_REPEATS):
        for form, tr in _LARGE_VARIANTS:
            cls = FORM_CLASS[form]
            ops.append(_recover_op(f"{form.value}/{cls.value}/{'T' if tr else 'P'}",
                                   canonical_map(rng, form, _LARGE_N, tr), cls, _LARGE_N,
                                   _expected_recovery(form, tr)))
    for n in (3, 4):
        hidden = canonical_map(rng, PreserverForm.MN_TWO_SIDED, n)
        box = realize_map({"kind": "linear-rep", "rep": _mjson(linear_rep_of(hidden))}, n)
        ops.append(_recover_op("linear-rep/full", box, MatrixClass.FULL, n,
                               _expected_recovery(PreserverForm.MN_TWO_SIDED, False)))
    ops.append(_recover_op("remark1/full", remark1_map, MatrixClass.FULL, 3, "NotLinear"))
    ops.append(_recover_op("pinching/full", pinching, MatrixClass.FULL, 3, "NotCanonical"))
    ops.append(_recover_op("nan-off-units/full", nan_off_units_box, MatrixClass.FULL, 3,
                           "NotLinear", known_defect=NAN_BOX_DEFECT))
    return ops


# -- cli-cold ----------------------------------------------------------------

def _write_spec(work_dir, name, spec) -> str:
    path = os.path.join(work_dir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return path


def _cli_op(argv, expected, known_defect=None):
    def call(_fn):
        return cli_in_process(argv)
    return Op(name="cli " + " ".join(a for a in argv if not a.endswith(".json")), call=call,
              classify=classify_cli, expected=expected, known_defect=known_defect, argv=argv)


def cli_in_process(argv):
    """Run ``preserver_lab.cli.main`` in this process, capturing stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def cli_cold(seed: int, work_dir: str) -> list[Op]:
    """Six CLI calls that should succeed and two with documented non-zero exits."""
    rng = np.random.default_rng([seed, 3])
    full = canonical_map(rng, PreserverForm.MN_TWO_SIDED, 3)
    sym = canonical_map(rng, PreserverForm.SN_CONGRUENCE, 3)
    rep = canonical_map(rng, PreserverForm.MN_TWO_SIDED, 3)
    specs = {
        "full": _write_spec(work_dir, "full", map_spec(full)),
        "sym": _write_spec(work_dir, "sym", map_spec(sym)),
        "rep": _write_spec(work_dir, "rep", {"kind": "linear-rep", "rep": _mjson(linear_rep_of(rep))}),
        "remark1": _write_spec(work_dir, "remark1", {"kind": "remark1"}),
        "overflow": _write_spec(work_dir, "overflow", map_spec(overflow_map(3))),
    }
    seeds = [str(int(s)) for s in rng.integers(1 << 31, size=8)]
    plan = [
        (["verify", "--identity", "det-sum", "--class", "full", "--n", "3", "--samples", "50",
          "--map", specs["full"]], "exit 0", None),
        (["verify", "--identity", "trace-product", "--class", "symmetric", "--n", "3",
          "--samples", "50", "--map", specs["sym"]], "exit 0", None),
        (["recover", "--class", "full", "--n", "3", "--map", specs["rep"]], "exit 0", None),
        (["oracle", "kadison-choi", "--n", "3", "--samples", "20"], "exit 0", None),
        (["oracle", "minkowski", "--n", "3", "--samples", "50"], "exit 0", None),
        (["counterexample", "--n", "2", "--samples", "50"], "exit 0", None),
        (["recover", "--class", "full", "--n", "3", "--map", specs["remark1"]], "exit 3", None),
        # README: exit 2 is a verification failure; today the report does not
        # serialize and the CLI exits 1 ("input error").
        (["verify", "--identity", "trace-product", "--class", "full", "--n", "3",
          "--samples", "20", "--map", specs["overflow"]], "exit 2", OVERFLOW_DEFECT),
    ]
    return [_cli_op(argv + ["--seed", s], expected, defect)
            for (argv, expected, defect), s in zip(plan, seeds)]


BUILDERS = {
    "verify-battery": verify_battery,
    "recover-sweep": recover_sweep,
    "cli-cold": cli_cold,
}
