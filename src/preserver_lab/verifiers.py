"""Seeded sampling verification of the determinant and trace identities.

Determinant identities compare det(s phi(A) + t phi(B)) against
alpha^n det(sA + tB) with alpha^n recomputed as det(phi(I)), which keeps
the check black-box.  The trace identities with kinds ``product``,
``square`` and ``power`` hold in the unital gauge, so those kinds are
evaluated on the unitalized companion map (phi conjugated by its unit
image per domain class); the ``inverse`` kind needs no gauge and runs on
the raw map.  All residuals are scale-aware.

Each battery draws its samples as two stacks, A = ``sample_batch(cls, n,
mix_seed(seed, 0), samples)`` and B from ``mix_seed(seed, 1)``, evaluates
the map once over the stack and reduces with stacked determinants,
inverses, powers and traces.  Only a :class:`CanonicalPreserver` is called
on a whole stack; any other map is a black box queried once per matrix.
A non-finite residual counts as the singular sentinel 1e100, so it fails.

For the upper-triangular and diagonal classes only diagonal data enters:
determinants become diagonal products and traces of triangular products
reduce to diagonal sums, matching the diagonal-only contract of those
maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core_linalg import (
    adjugate,
    determinant,
    frob,
    matrix_residual,
    pd_sqrt,
    scalar_residual,
    takagi_factor,
)
from .domains import MatrixClass, mix_seed, sample, sample_batch
from .errors import DegenerateUnit, NotLinear, NotPositiveDefinite, NotUnital
from .preservers import CanonicalPreserver

__all__ = [
    "VerificationReport",
    "verify_det_identity",
    "verify_trace_identity",
    "unitalize",
    "MinkowskiCheck",
    "check_minkowski",
    "JacobiCheck",
    "check_jacobi",
    "KadisonChoiReport",
    "check_kadison_choi",
    "check_homogeneity_additivity",
]

_SINGULAR_SENTINEL = 1e100
_INVERTIBLE_DET = 1e-6


@dataclass
class VerificationReport:
    identity: str
    class_name: str
    n: int
    samples: int
    tol: float
    max_residual: float
    mean_residual: float
    passed: bool
    failures: list = field(default_factory=list)  # [(index, residual)], capped at 10

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "class": self.class_name,
            "n": self.n,
            "samples": self.samples,
            "tol": self.tol,
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "pass": self.passed,
            "failures": [{"index": int(i), "residual": float(r)} for i, r in self.failures],
        }


def _report(identity, cls, n, tol, residuals) -> VerificationReport:
    r = np.where(np.isfinite(residuals), residuals, _SINGULAR_SENTINEL)
    mx = float(np.max(r))
    return VerificationReport(
        identity=identity,
        class_name=cls.value,
        n=n,
        samples=r.size,
        tol=tol,
        max_residual=mx,
        mean_residual=float(np.mean(r)),
        passed=mx <= tol,
        failures=[(int(i), float(r[i])) for i in np.flatnonzero(r > tol)[:10]],
    )


def _images(map_fn, x) -> np.ndarray:
    """The map on one matrix or on every member of a (count, n, n) stack.

    Canonical maps (and their unitalized companions) take the stack in one
    call; any other callable is a black box and is queried once per member.
    """
    if x.ndim == 2 or isinstance(map_fn, (CanonicalPreserver, _Unitalized)):
        return np.asarray(map_fn(x), dtype=complex)
    return np.stack([np.asarray(map_fn(m), dtype=complex) for m in x])


@dataclass(frozen=True, eq=False)
class _Unitalized:
    """X -> left @ phi(X) (@ right); stack-capable exactly when phi is."""

    map_fn: object
    left: np.ndarray
    right: np.ndarray | None = None

    def __call__(self, a):
        out = self.left @ _images(self.map_fn, np.asarray(a, dtype=complex))
        return out if self.right is None else out @ self.right


def verify_det_identity(map_fn, cls: MatrixClass, n: int, weights, samples: int,
                        seed: int, tol: float, identity: str = "det") -> VerificationReport:
    """Check det(s phi(A) + t phi(B)) = det(phi(I)) det(sA + tB) over samples.

    ``weights`` is a nonempty list of (s, t) scalar pairs: (1, 1) for the
    sum identity, (t, 1-t) for convex combinations, (1, lambda) with complex
    lambda for the pencil variant.
    """
    if not weights:
        raise ValueError("weights must be nonempty")
    unit_det = determinant(map_fn(np.eye(n, dtype=complex)), cls.triangular)
    if abs(unit_det) <= 1e-12:
        raise DegenerateUnit("det(map(I)) vanishes; alpha is undefined")
    a = sample_batch(cls, n, mix_seed(seed, 0), samples)
    b = sample_batch(cls, n, mix_seed(seed, 1), samples)
    fa, fb = np.split(_images(map_fn, np.concatenate([a, b])), 2)
    worst = np.zeros(samples)
    for s_, t_ in weights:
        lhs = determinant(s_ * fa + t_ * fb, cls.triangular)
        rhs = unit_det * determinant(s_ * a + t_ * b, cls.triangular)
        worst = np.maximum(worst, scalar_residual(lhs, rhs))
    return _report(identity, cls, n, tol, worst)


def unitalize(map_fn, cls: MatrixClass, n: int):
    """Conjugate the map by its unit image so that the result fixes I.

    PD/PSD/Hermitian classes use phi(I)^{-1/2} (.) phi(I)^{-1/2}; the
    symmetric class uses Q^{-1} (.) Q^{-t} with Q Q^t = phi(I); the
    remaining classes use phi(I)^{-1} (.).  Already-unital maps are
    returned untouched.  The result takes one matrix, or a whole
    (count, n, n) stack when the map is a :class:`CanonicalPreserver`.
    """
    eye = np.eye(n, dtype=complex)
    unit = map_fn(eye)
    if matrix_residual(unit, eye) <= 1e-12:
        return map_fn
    if cls in (MatrixClass.PD, MatrixClass.PSD, MatrixClass.HERMITIAN):
        w = np.linalg.inv(pd_sqrt(unit))
        return _Unitalized(map_fn, w, w)
    if cls is MatrixClass.SYMMETRIC:
        qi = np.linalg.inv(takagi_factor(unit))
        return _Unitalized(map_fn, qi, qi.T)
    if abs(determinant(unit)) <= 1e-12:
        raise DegenerateUnit("map(I) is singular")
    return _Unitalized(map_fn, np.linalg.inv(unit))


def _inverse(y) -> np.ndarray:
    """Stacked inverse; only a singular member itself comes out as NaN."""
    try:
        return np.linalg.inv(y)
    except np.linalg.LinAlgError:
        out = np.full_like(y, np.nan)
        for i, m in enumerate(y):
            try:
                out[i] = np.linalg.inv(m)
            except np.linalg.LinAlgError:
                pass
        return out


def _traces(cls, x, y, kind, k) -> np.ndarray:
    """Either side's trace functional per stack member; diagonal sums for triangular classes."""
    if cls.triangular:
        dx = np.diagonal(x, axis1=-2, axis2=-1)
        dy = np.diagonal(y, axis1=-2, axis2=-1)
        if kind == "inverse":
            return np.sum(dx / dy, axis=-1)
        if kind == "product":
            return np.sum(dx * dy, axis=-1)
        return np.sum(dx * dy**k, axis=-1)
    if kind == "inverse":
        y = _inverse(y)
    elif kind == "power":
        y = np.linalg.matrix_power(y, k)
    return np.trace(x @ y, axis1=-2, axis2=-1)


def verify_trace_identity(map_fn, cls: MatrixClass, n: int, kind: str, samples: int,
                          seed: int, tol: float, power: int = 2) -> VerificationReport:
    """Check one of the trace identities over sampled pairs.

    ``kind`` is one of ``inverse`` (tr(phi(A) phi(B)^{-1}) = tr(A B^{-1}),
    B redrawn until |det B| > 1e-6), ``product``, ``power`` (with exponent
    ``power``) or ``square`` (single samples).  See the module docstring
    for the gauge convention of the last three.
    """
    if kind not in ("inverse", "product", "power", "square"):
        raise ValueError(f"unknown trace identity kind {kind!r}")
    if kind == "power" and power < 1:
        raise ValueError("power must be >= 1")
    fn = map_fn if kind == "inverse" else unitalize(map_fn, cls, n)
    k = power if kind == "power" else 2
    label = {"inverse": "trace-inverse", "product": "trace-product",
             "square": "trace-square", "power": f"trace-power-{power}"}[kind]
    a = sample_batch(cls, n, mix_seed(seed, 0), samples)
    if kind == "square":
        fa = _images(fn, a)
        lhs = _traces(cls, fa, fa, "product", k)
        rhs = _traces(cls, a, a, "product", k)
    else:
        b = sample_batch(cls, n, mix_seed(seed, 1), samples,
                         _INVERTIBLE_DET if kind == "inverse" else None)
        fa, fb = np.split(_images(fn, np.concatenate([a, b])), 2)
        lhs = _traces(cls, fa, fb, kind, k)
        rhs = _traces(cls, a, b, kind, k)
    return _report(label, cls, n, tol, scalar_residual(lhs, rhs))


@dataclass
class MinkowskiCheck:
    lhs: float
    rhs: float
    proportional: bool
    equality: bool


def _require_pd(a, name):
    m = np.asarray(a, dtype=complex)
    if np.linalg.norm(m - m.conj().T) > 1e-10 * (1.0 + frob(m)):
        raise NotPositiveDefinite(f"{name} is not Hermitian")
    if np.linalg.eigvalsh(m)[0] <= 1e-10:
        raise NotPositiveDefinite(f"{name} is not positive definite")
    return m


def check_minkowski(a, b) -> MinkowskiCheck:
    """det(A+B)^{1/n} against det(A)^{1/n} + det(B)^{1/n} for PD A, B.

    ``proportional`` tests B = lambda A with lambda = tr(A^* B)/tr(A^* A);
    ``equality`` flags lhs - rhs <= 1e-8 lhs.  For PD input lhs >= rhs
    always holds (up to 1e-10) with equality exactly on proportional pairs.
    """
    a = _require_pd(a, "A")
    b = _require_pd(b, "B")
    n = a.shape[0]
    lhs = float(determinant(a + b).real) ** (1.0 / n)
    rhs = float(determinant(a).real) ** (1.0 / n) + float(determinant(b).real) ** (1.0 / n)
    lam = complex(np.trace(a.conj().T @ b) / np.trace(a.conj().T @ a))
    proportional = frob(b - lam * a) <= 1e-8 * frob(b)
    equality = (lhs - rhs) <= 1e-8 * lhs
    return MinkowskiCheck(lhs=lhs, rhs=rhs, proportional=proportional, equality=equality)


@dataclass
class JacobiCheck:
    formula: complex
    finite_diff: complex
    residual: float


def check_jacobi(a0, adir, t0: float, h: float) -> JacobiCheck:
    """Derivative of det along A(t) = A0 + t Adir: adjugate trace vs central difference."""
    if not 0.0 < h <= 0.1:
        raise ValueError("h must lie in (0, 0.1]")
    a0 = np.asarray(a0, dtype=complex)
    adir = np.asarray(adir, dtype=complex)
    formula = complex(np.trace(adjugate(a0 + t0 * adir) @ adir))
    fd = (determinant(a0 + (t0 + h) * adir) - determinant(a0 + (t0 - h) * adir)) / (2.0 * h)
    return JacobiCheck(formula=formula, finite_diff=fd, residual=scalar_residual(formula, fd))


@dataclass
class KadisonChoiReport:
    n: int
    samples: int
    tol: float
    min_eig_kadison: float
    min_eig_choi: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "samples": self.samples,
            "tol": self.tol,
            "min_eig_kadison": self.min_eig_kadison,
            "min_eig_choi": self.min_eig_choi,
            "pass": self.passed,
        }


def check_kadison_choi(map_fn, n: int, samples: int, seed: int, tol: float = 1e-8) -> KadisonChoiReport:
    """Operator inequalities phi(A)^2 <= phi(A^2), phi(A)^{-1} <= phi(A^{-1}).

    The caller asserts the map is unital positive linear; unitality and
    linearity are spot-checked first (the squared-trace counterexample is
    unital but nonlinear, and the inequalities are stated for linear maps).
    Reports the worst lower eigenvalue of each gap over PD samples.
    """
    eye = np.eye(n, dtype=complex)
    if frob(map_fn(eye) - eye) > 1e-9:
        raise NotUnital("map(I) differs from I by more than 1e-9")
    for t in range(5):
        x = sample(MatrixClass.HERMITIAN, n, mix_seed(seed, 0x11AEA, t, 0))
        y = sample(MatrixClass.HERMITIAN, n, mix_seed(seed, 0x11AEA, t, 1))
        rng = np.random.default_rng(mix_seed(seed, 0x11AEA, t, 2))
        c0, c1 = rng.uniform(-2.0, 2.0, size=2)
        if matrix_residual(map_fn(c0 * x + c1 * y), c0 * map_fn(x) + c1 * map_fn(y)) > 1e-8:
            raise NotLinear("map failed the linear-combination spot check")
    min_kad = np.inf
    min_choi = np.inf
    for t in range(samples):
        a = sample(MatrixClass.PD, n, mix_seed(seed, t))
        fa = map_fn(a)
        g1 = map_fn(a @ a) - fa @ fa
        g2 = map_fn(np.linalg.inv(a)) - np.linalg.inv(fa)
        min_kad = min(min_kad, float(np.linalg.eigvalsh(0.5 * (g1 + g1.conj().T))[0]))
        min_choi = min(min_choi, float(np.linalg.eigvalsh(0.5 * (g2 + g2.conj().T))[0]))
    return KadisonChoiReport(
        n=n,
        samples=samples,
        tol=tol,
        min_eig_kadison=float(min_kad),
        min_eig_choi=float(min_choi),
        passed=min_kad >= -tol and min_choi >= -tol,
    )


_HOMOGENEITY_SCALES = (0.5, 2.0, 7.25)


def check_homogeneity_additivity(map_fn, cls: MatrixClass, n: int, samples: int,
                                 seed: int, tol: float) -> VerificationReport:
    """Residuals of phi(lambda A) - lambda phi(A) and phi(A+B) - phi(A) - phi(B)."""
    a = sample_batch(cls, n, mix_seed(seed, 0), samples)
    b = sample_batch(cls, n, mix_seed(seed, 1), samples)
    inputs = [a, b, a + b] + [lam * a for lam in _HOMOGENEITY_SCALES]
    fa, fb, fab, *scaled = np.split(_images(map_fn, np.concatenate(inputs)), len(inputs))
    worst = matrix_residual(fab, fa + fb, axis=(-2, -1))
    for lam, flam in zip(_HOMOGENEITY_SCALES, scaled):
        worst = np.maximum(worst, matrix_residual(flam, lam * fa, axis=(-2, -1)))
    return _report("homogeneity-additivity", cls, n, tol, worst)
