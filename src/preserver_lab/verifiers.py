"""Seeded sampling verification of the determinant and trace identities.

Each map battery is a reduction over one front end, :class:`_Battery`.  It draws A =
``sample_batch(cls, n, mix_seed(seed, 0), samples)`` first, so the sampler's ``samples`` check precedes
every query; B (``mix_seed(seed, 1)``), phi(I) and the images of A and B are computed once, on first use.
phi(I) is read by :func:`_lifted`, which lifts the map to 2^k phi, k the :func:`core_linalg._binade`
exponent taking max |phi(I)_ij| into [1, 2) from any scale, so a report on c phi (c = 2^k) is the report
on phi while the images stay finite and normal.  The det identities, det(s phi(A) + t phi(B)) against
det(phi(I)) det(sA + tB) with :func:`_unit_det` refusing a degenerate phi(I), and homogeneity-additivity
compare lifted images; the trace kinds ``product``, ``square`` and ``power`` hold in the unital gauge, so
they pass the lifted images through :func:`_gauge`'s factors.  Only ``inverse`` reads no phi(I):
tr(phi(A) phi(B)^{-1}) is the same for c phi, so it queries the raw map and pays for no lift.
``counterexample`` runs trace-square, homogeneity-additivity and det-sum on one battery: a per-matrix box
is queried 1 + 6 samples times (phi(I), A, B, A + B, three lambda A), not 3 + 9 samples.

:func:`_images` alone decides how a map is called: a :class:`CanonicalPreserver`, a :class:`LinearRep`,
a :class:`NormConjugation` or the lifted map's wrapper (which hands the stack on to its map by the same
rule) takes a whole stack in one call, also behind a wrapper that sets ``__wrapped__`` (the
:func:`functools.wraps` convention); any other map is a black box queried once per matrix; an image
that is not a numeric matrix of its input's shape raises DimensionMismatch.  The Minkowski, Jacobi and
dual-witness oracles take no map and draw their own stacks.  A non-finite residual counts as the failing
sentinel 1e100 (-1e100 for the Kadison/Choi eigenvalue minima), and fails without a warning.

For the upper-triangular and diagonal classes only diagonal data enters: determinants become
diagonal products, traces of triangular products reduce to diagonal sums and images are compared on
their diagonals (:func:`_residuals`, for homogeneity-additivity and recovery), matching the
diagonal-only contract of those maps.
"""

from __future__ import annotations

import inspect
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from .core_linalg import (
    SENTINEL,
    _binade,
    _is_pd,
    _is_singular,
    adjugate,
    determinant,
    finite_or,
    frob,
    inverse,
    is_pd,
    is_singular,
    ldexp,
    matrix_residual,
    sandwich,
    scalar_residual,
    trace_product,
    unit_scaled,
)
from .domains import _MIN_ABS_DET, MatrixClass, dual_witness, mix_seed, sample_batch
from .errors import DegenerateUnit, DimensionMismatch, NotLinear, NotPositiveDefinite, NotUnital
from .preservers import CanonicalPreserver, LinearRep, NormConjugation, PreserverForm, pinching

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
    "oracle_minkowski",
    "oracle_jacobi",
    "oracle_kadison_choi",
    "oracle_dual_witness",
]

# Non-finite values become the failing sentinel, so their warnings are noise.
_QUIET = {"over": "ignore", "invalid": "ignore"}
_CHUNK_BYTES = 1 << 16  # under glibc's 128 KiB mmap threshold: 5 weight pairs at n = 2, 200 samples, 1 at n = 5
# the linearity probe's consistency samples, also recovery.build_linear_rep's
_CONSISTENCY_TAG = 0xC0451
_CONSISTENCY_SAMPLES = 20


@dataclass(slots=True)
class VerificationReport:
    """One battery's verdict.  It stores only what it cannot derive, since a caller may keep many
    reports: ``passed`` is ``max_residual <= tol``, and the failures are packed as float64
    (index, residual) pairs."""

    identity: str
    class_name: str
    n: int
    samples: int
    tol: float
    max_residual: float
    mean_residual: float
    _failed: bytes = field(default=b"", repr=False)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol

    @property
    def failures(self) -> tuple:
        """((index, residual), ...) of the first failing samples, at most 10; () when it passes."""
        return tuple((int(i), float(r)) for i, r in np.frombuffer(self._failed).reshape(-1, 2))

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
            "failures": [{"index": i, "residual": r} for i, r in self.failures],
        }


def _report(identity, cls, n, tol, residuals) -> VerificationReport:
    bad = np.flatnonzero(residuals > tol)[:10]
    return VerificationReport(
        identity=identity,
        class_name=cls.value,
        n=n,
        samples=residuals.size,
        tol=tol,
        max_residual=float(np.max(residuals)),
        mean_residual=float(np.mean(residuals)),
        _failed=np.column_stack([bad, residuals[bad]]).tobytes() if bad.size else b"",
    )


def _images(map_fn, x) -> np.ndarray:
    """The map on one matrix or on every member of a (count, n, n) stack (see the module doc).

    Every image must be a numeric matrix of its input's shape; any other image (a scalar, a matrix
    of another size, a string) raises DimensionMismatch."""
    if x.ndim == 2 or isinstance(inspect.unwrap(map_fn),
                                 (CanonicalPreserver, LinearRep, _Unitalized, NormConjugation)):
        out = map_fn(x)
    else:
        out = [map_fn(m) for m in x]
    try:
        imgs = np.asarray(out, dtype=complex)
        if imgs.shape == x.shape:
            return imgs
    except (TypeError, ValueError):
        pass
    raise DimensionMismatch(f"the map must send each {x.shape[-2]}x{x.shape[-1]} matrix "
                            "to a numeric matrix of that size")


def _residuals(cls: MatrixClass, x, y) -> np.ndarray:
    """Per-member matrix_residual of two image stacks; of their diagonals alone where cls.triangular holds."""
    if not cls.triangular:
        return matrix_residual(x, y, axis=(-2, -1))
    return matrix_residual(np.diagonal(x, axis1=-2, axis2=-1), np.diagonal(y, axis1=-2, axis2=-1), axis=-1)


def _require_linear(map_fn, cls: MatrixClass, n: int, tol: float) -> None:
    """Raise :class:`NotLinear` unless phi(x_k + c x_{k+1}) = phi(x_k) + c phi(x_{k+1}) within ``tol``
    (:func:`_residuals`), x the first 11 consistency samples of ``cls``: 21 queries.  c = 0.5 on
    PD/PSD/Hermitian, which only real combinations keep, else 0.5i: a conjugate-linear map fails.  Its
    maps (recovery's lifted one, Kadison/Choi's unital one) have max |phi(I)_ij| in [1, 2), so it is
    relative to phi(I)'s scale, not to that of images far below it."""
    x = sample_batch(cls, n, mix_seed(_CONSISTENCY_TAG, n), 11)  # the first 11 of build_linear_rep's 20
    c = 0.5 if cls in (MatrixClass.PD, MatrixClass.PSD, MatrixClass.HERMITIAN) else 0.5j
    combo, fx = _images(map_fn, x[:-1] + c * x[1:]), _images(map_fn, x)
    worst = float(np.max(_residuals(cls, combo, fx[:-1] + c * fx[1:])))
    if not worst <= tol:
        raise NotLinear(f"phi(A + cB) misses phi(A) + c phi(B) by {worst:.3e} > {tol:.1e}")


@dataclass(frozen=True, eq=False)
class _Unitalized:
    """X -> 2^k phi(X), or left @ 2^k phi(X) (@ right) given ``left``; stack-capable when phi is."""

    map_fn: object
    k: int
    left: np.ndarray | None = None
    right: np.ndarray | None = None

    def __call__(self, a):
        imgs = ldexp(_images(self.map_fn, np.asarray(a, dtype=complex)), self.k)
        return imgs if self.left is None else sandwich(self.left, imgs, self.right)


def _lifted(map_fn, cls: MatrixClass, n: int):
    """(k, 2^k phi(I), 2^k phi) from the one query of phi(I) of a battery or recovery, k its ``_binade`` exponent."""
    unit, k = _binade(_images(map_fn, np.eye(n, dtype=complex)))
    return k.item(), unit, _Unitalized(map_fn, k.item())


def _unit_det(cls: MatrixClass, unit, error: Exception) -> complex:
    """det of :func:`_lifted`'s unit image, raising ``error`` where it is 0 or :func:`is_singular` holds."""
    unit_det = determinant(unit, cls.triangular)
    if unit_det == 0 or _is_singular(unit, cls.triangular):
        raise error
    return unit_det


def _gauge(cls: MatrixClass, n: int, unit):
    """:func:`unitalize`'s (left, right) factors of :func:`_lifted`'s unit image; right may be None."""
    if not np.isfinite(unit).all():
        return np.full((n, n), np.nan), None
    c = 0.5 * (unit + unit.T) if cls is MatrixClass.SYMMETRIC else unit
    if cls in (MatrixClass.PD, MatrixClass.PSD, MatrixClass.HERMITIAN):
        if not _is_pd(unit):
            raise NotPositiveDefinite("map(I) is not certified positive definite")
    elif is_singular(c) if cls is MatrixClass.SYMMETRIC else _is_singular(unit, cls.triangular):
        raise DegenerateUnit("map(I) is singular")
    if cls.triangular:
        return np.diag(1 / np.diagonal(unit)), None
    u, s, vh = np.linalg.svd(c)
    return u.conj().T / np.sqrt(s)[:, None], vh.conj().T / np.sqrt(s)


class _Battery:
    """What a battery's reductions share: A, drawn first; B, phi(I) (:func:`_lifted`), 2^k phi(A), 2^k phi(B) once."""

    def __init__(self, map_fn, cls: MatrixClass, n: int, seed: int, samples: int):
        self.map_fn, self.cls, self.n, self.seed, self.samples = map_fn, cls, n, seed, samples
        self.a = sample_batch(cls, n, mix_seed(seed, 0), samples)

    @cached_property
    def b(self):
        return sample_batch(self.cls, self.n, mix_seed(self.seed, 1), self.samples)

    @cached_property
    def unit(self):
        return _lifted(self.map_fn, self.cls, self.n)

    @cached_property
    def fa(self):
        return _images(self.unit[2], self.a)

    @cached_property
    def fb(self):
        return _images(self.unit[2], self.b)

    def det(self, weights, tol: float, identity: str) -> VerificationReport:
        cls, a, w = self.cls, self.a, np.asarray(weights, dtype=complex).reshape(-1, 2)
        with np.errstate(**_QUIET):
            unit_det = _unit_det(cls, self.unit[1], DegenerateUnit("det(map(I)) vanishes; alpha is undefined"))
            x, y, fx, fy = a, self.b, self.fa, self.fb
            if cls.triangular:
                x, y, fx, fy = (np.diagonal(m, axis1=-2, axis2=-1) for m in (x, y, fx, fy))
            s, t = unit_scaled(w[:, None, :])[:, 0].T.reshape(2, -1, *(1,) * x.ndim)
            lhs, rhs = np.empty((2, len(w), self.samples), dtype=complex)
            step = max(1, _CHUNK_BYTES // a.nbytes)
            for c in (slice(i, i + step) for i in range(0, len(w), step)):
                for out, (u, v) in ((lhs, (fx, fy)), (rhs, (x, y))):
                    m = s[c] * u
                    m += t[c] * v  # in place: one temporary less on the stack
                    out[c] = np.prod(m, axis=-1) if cls.triangular else determinant(m)
            worst = np.max(scalar_residual(lhs, unit_det * rhs), axis=0)
        return _report(identity, cls, self.n, tol, worst)

    def trace(self, kind: str, tol: float, power: int = 2) -> VerificationReport:
        invert, k = kind == "inverse", power if kind == "power" else 1
        label = f"trace-power-{power}" if kind == "power" else f"trace-{kind}"
        with np.errstate(**_QUIET):
            if invert:  # tr(phi(A) phi(B)^-1) is scale-free: the raw map, and no read of phi(I)
                b = sample_batch(self.cls, self.n, mix_seed(self.seed, 1), self.samples, _MIN_ABS_DET)
                fa, fb = _images(self.map_fn, self.a), _images(self.map_fn, b)
            else:  # unitalize's gauge, applied to the images fa and fb
                left, right = _gauge(self.cls, self.n, self.unit[1])
                fa = sandwich(left, self.fa, right)
                b, fb = (self.a, fa) if kind == "square" else (self.b, sandwich(left, self.fb, right))
            residuals = scalar_residual(_traces(self.cls, fa, fb, invert, k), _traces(self.cls, self.a, b, invert, k))
        return _report(label, self.cls, self.n, tol, residuals)

    def homogeneity(self, tol: float) -> VerificationReport:
        with np.errstate(**_QUIET):
            fa, fb = self.fa, self.fb
            worst = _residuals(self.cls, _images(self.unit[2], self.a + self.b), fa + fb)
            for lam in _HOMOGENEITY_SCALES:
                worst = np.maximum(worst, _residuals(self.cls, _images(self.unit[2], lam * self.a), lam * fa))
        return _report("homogeneity-additivity", self.cls, self.n, tol, worst)


def verify_det_identity(map_fn, cls: MatrixClass, n: int, weights, samples: int,
                        seed: int, tol: float, identity: str = "det") -> VerificationReport:
    """Check det(s phi(A) + t phi(B)) = det(phi(I)) det(sA + tB) over samples.

    ``weights`` is a nonempty list of (s, t) scalar pairs: (1, 1) for the
    sum identity, (t, 1-t) for convex combinations, (1, lambda) with complex
    lambda for the pencil variant.  A (0, 0) pair (both sides det(0)) or a non-finite
    component is a ValueError.  Both sides are homogeneous of degree n in (s, t), so each pair is
    taken into [1, 2) exactly by :func:`core_linalg.unit_scaled`, from a subnormal scale up: its scale can
    neither overflow nor pass.  The pairs run stacked, one determinant per side per chunk of ``_CHUNK_BYTES``
    of (samples, n, n) stack (at least one pair); the triangular classes combine diagonals alone, as views.
    """
    w = np.asarray(weights, dtype=complex).reshape(-1, 2)
    if not w.size or not np.isfinite(w).all() or (w == 0).all(axis=1).any():
        raise ValueError("weights must be a nonempty list of finite (s, t) pairs, not both zero")
    return _Battery(map_fn, cls, n, seed, samples).det(w, tol, identity)


def unitalize(map_fn, cls: MatrixClass, n: int):
    """Gauge the lifted map's wrapper (:func:`_lifted`) by its unit image so that the result fixes I.

    One SVD, phi(I) = U diag(s) V^*, gives the gauge diag(s)^{-1/2} U^* (.) V diag(s)^{-1/2}; for
    phi(X) = M X N the companion is the similarity S^{-1} X S with S = N V diag(s)^{-1/2}, so every
    trace of products is kept.  PD/PSD/Hermitian classes factor phi(I) once :func:`core_linalg.is_pd`
    accepts it (else :class:`NotPositiveDefinite`); the symmetric class factors C, the symmetric part
    of phi(I), whose SVD is a Takagi factorization up to diagonal phases; the triangular classes
    scale by diag(phi(I))^{-1} alone, the diagonal-only contract of their batteries.  A singular
    phi(I) (C on the symmetric class, by :func:`core_linalg.is_singular`) raises
    :class:`DegenerateUnit`; a non-finite one gives a companion whose every image is NaN, so every
    residual on it fails; the SVD of I is (I, 1, I), so an exactly unital map keeps its images.  c phi
    (c = 2^k) gets the companion of phi, which takes a whole stack where the map does (:func:`_images`).
    """
    _, unit, fn = _lifted(map_fn, cls, n)
    left, right = _gauge(cls, n, unit)
    return replace(fn, left=left, right=right)


def _traces(cls, x, y, invert: bool, k: int) -> np.ndarray:
    """tr(X Y^-1), or tr(X Y^k), per stack member; diagonal sums for triangular classes."""
    if cls.triangular:
        dx = np.diagonal(x, axis1=-2, axis2=-1)
        dy = np.diagonal(y, axis1=-2, axis2=-1)
        return np.sum(dx / dy if invert else dx * dy**k, axis=-1)
    return trace_product(x, inverse(y) if invert else np.linalg.matrix_power(y, k))


def verify_trace_identity(map_fn, cls: MatrixClass, n: int, kind: str, samples: int,
                          seed: int, tol: float, power: int = 2) -> VerificationReport:
    """Check one of the trace identities over sampled pairs.

    ``kind`` is one of ``inverse`` (tr(phi(A) phi(B)^{-1}) = tr(A B^{-1}),
    B redrawn until |det B| > 1e-6), ``product``, ``power`` (exponent ``power``
    in [1, 64], else a ValueError) or ``square`` (B = A); ``product`` and
    ``square`` are ``power`` at k = 1.  See the module docstring for the gauge
    convention of the last three.
    """
    if kind not in ("inverse", "product", "power", "square"):
        raise ValueError(f"unknown trace identity kind {kind!r}")
    if kind == "power" and not 1 <= power <= 64:  # above 64, A^k and phi(A)^k can overflow together
        raise ValueError("power must lie in [1, 64]")
    return _Battery(map_fn, cls, n, seed, samples).trace(kind, tol, power)


@dataclass
class MinkowskiCheck:
    lhs: float
    rhs: float
    proportional: bool
    equality: bool


def _real_root(d, n: int):
    """Real n-th root of the real part of ``d``, keeping its sign (never complex)."""
    return np.sign(d.real) * np.abs(d.real) ** (1.0 / n)


def _minkowski(a, b):
    """(lhs, rhs, proportional, equality) of :func:`check_minkowski` per member of two complex stacks."""
    if not (is_pd(a) and is_pd(b)):
        raise NotPositiveDefinite("A and B must be certified positive definite")
    n = a.shape[-1]
    lhs = _real_root(determinant(a + b), n)
    rhs = _real_root(determinant(a), n) + _real_root(determinant(b), n)
    ah = a.conj().swapaxes(-1, -2)
    lam = np.trace(ah @ b, axis1=-2, axis2=-1) / np.trace(ah @ a, axis1=-2, axis2=-1)
    gap = np.linalg.norm(b - lam[:, None, None] * a, axis=(-2, -1))
    proportional = gap <= 1e-8 * np.linalg.norm(b, axis=(-2, -1))
    return lhs, rhs, proportional, (lhs - rhs) <= 1e-8 * lhs


def check_minkowski(a, b) -> MinkowskiCheck:
    """det(A+B)^{1/n} against det(A)^{1/n} + det(B)^{1/n} for PD A, B.

    ``proportional`` tests B = lambda A with lambda = tr(A^* B)/tr(A^* A);
    ``equality`` flags lhs - rhs <= 1e-8 lhs.  For PD input lhs >= rhs
    always holds (up to 1e-10) with equality exactly on proportional pairs.
    The n-th roots are real and keep the sign of a (rounding-)negative det.
    """
    lhs, rhs, proportional, equality = _minkowski(*(np.asarray(m, dtype=complex)[None] for m in (a, b)))
    return MinkowskiCheck(lhs=float(lhs[0]), rhs=float(rhs[0]), proportional=bool(proportional[0]),
                          equality=bool(equality[0]))


@dataclass
class JacobiCheck:
    formula: complex
    finite_diff: complex
    residual: float


def _jacobi(a0, adir, t0, h):
    """(formula, finite difference) of :func:`check_jacobi` per member of stacked paths."""
    if not 0.0 < h <= 0.1:
        raise ValueError("h must lie in (0, 0.1]")
    a0 = np.asarray(a0, dtype=complex)
    adir = np.asarray(adir, dtype=complex)
    t0 = np.asarray(t0)[:, None, None]
    formula = np.trace(adjugate(a0 + t0 * adir) @ adir, axis1=-2, axis2=-1)
    fd = (determinant(a0 + (t0 + h) * adir) - determinant(a0 + (t0 - h) * adir)) / (2.0 * h)
    return formula, fd


def check_jacobi(a0, adir, t0: float, h: float) -> JacobiCheck:
    """Derivative of det along A(t) = A0 + t Adir: adjugate trace vs central difference."""
    formula, fd = _jacobi(np.asarray(a0)[None], np.asarray(adir)[None], [t0], h)
    formula, fd = complex(formula[0]), complex(fd[0])
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
        return {"pass" if key == "passed" else key: value for key, value in asdict(self).items()}


def _lowest_eigenvalues(g) -> np.ndarray:
    """Lowest eigenvalue of each member's Hermitian part; -SENTINEL where it is not finite."""
    h = 0.5 * (g + g.conj().swapaxes(-1, -2))
    finite = np.isfinite(h).all(axis=(-2, -1))
    low = np.full(len(h), -SENTINEL)
    low[finite] = np.linalg.eigvalsh(h[finite])[:, 0]
    return low


def check_kadison_choi(map_fn, n: int, samples: int, seed: int, tol: float = 1e-8) -> KadisonChoiReport:
    """Operator inequalities phi(A)^2 <= phi(A^2), phi(A)^{-1} <= phi(A^{-1}).

    The caller asserts the map is unital positive linear; unitality and
    linearity are checked first (the squared-trace counterexample is
    unital but nonlinear, and the inequalities are stated for linear maps):
    ||phi(I) - I||_F <= 1e-9 on the unlifted map (:func:`_lifted` would take 2 phi, not unital, to
    phi), then recovery's probe, :func:`_require_linear` on the Hermitian class at 1e-8.
    Reports the worst lower eigenvalue of each gap over the PD stack from
    ``mix_seed(seed, 0)``; a non-finite gap counts as -1e100 and fails.
    """
    a = _Battery(map_fn, MatrixClass.PD, n, seed, samples).a  # phi(I) is read raw below, not lifted
    eye = np.eye(n, dtype=complex)
    with np.errstate(**_QUIET):
        if finite_or(frob(_images(map_fn, eye) - eye)) > 1e-9:
            raise NotUnital("map(I) differs from I by more than 1e-9")
        _require_linear(map_fn, MatrixClass.HERMITIAN, n, 1e-8)
        fa = _images(map_fn, a)
        min_kad = float(np.min(_lowest_eigenvalues(_images(map_fn, a @ a) - fa @ fa)))
        min_choi = float(np.min(_lowest_eigenvalues(_images(map_fn, inverse(a)) - inverse(fa))))
    return KadisonChoiReport(
        n=n,
        samples=samples,
        tol=tol,
        min_eig_kadison=min_kad,
        min_eig_choi=min_choi,
        passed=min_kad >= -tol and min_choi >= -tol,
    )


_HOMOGENEITY_SCALES = (0.5, 2.0, 7.25)


def check_homogeneity_additivity(map_fn, cls: MatrixClass, n: int, samples: int,
                                 seed: int, tol: float) -> VerificationReport:
    """Residuals of phi(lambda A) - lambda phi(A) and phi(A+B) - phi(A) - phi(B) of the lifted map
    (:func:`_lifted`), relative to phi(I)'s scale (max |2^k phi(I)_ij| in [1, 2)), not to that of
    images far below it; of the diagonals alone on the triangular classes (:func:`_residuals`)."""
    return _Battery(map_fn, cls, n, seed, samples).homogeneity(tol)


def oracle_minkowski(n: int, samples: int, seed: int) -> dict:
    """:func:`check_minkowski` on PD pairs and on proportional pairs.

    Pair i is member i of the PD stacks from ``mix_seed(seed, 0)`` and
    ``(seed, 1)``; proportional pair i is member i of ``(seed, 2)`` against
    itself scaled by 0.25 + 3 (i mod 7) / 7, for i < max(1, samples // 10).
    """
    a, b = (sample_batch(MatrixClass.PD, n, mix_seed(seed, k), samples) for k in (0, 1))
    c = sample_batch(MatrixClass.PD, n, mix_seed(seed, 2), max(1, samples // 10))
    lhs, rhs, proportional, equality = _minkowski(a, b)
    scale = 0.25 + 3.0 * (np.arange(len(c)) % 7) / 7.0
    c_lhs, c_rhs, c_proportional, c_equality = _minkowski(c, scale[:, None, None] * c)
    violation = float(np.max(finite_or(rhs - lhs), initial=0.0))
    gap = float(np.max(finite_or(np.abs(c_lhs - c_rhs) / np.maximum(c_lhs, 1e-30))))
    false_equalities = int(np.count_nonzero(equality & ~proportional)
                           + np.count_nonzero(~(c_equality & c_proportional)))
    return {"oracle": "minkowski", "n": n, "samples": samples, "proportional_pairs": len(c),
            "max_direction_violation": violation, "max_equality_gap": gap,
            "false_equalities": false_equalities,
            "pass": violation <= 1e-10 and false_equalities == 0 and gap <= 1e-8}


def oracle_jacobi(n: int, samples: int, seed: int) -> dict:
    """:func:`check_jacobi` with h = 1e-4 along A0 + t Adir.

    A0 and Adir (normalized) are the full stacks from ``mix_seed(seed, 0)``
    and ``(seed, 1)``; t0 is uniform in [0, 1) from ``default_rng(mix_seed(seed, 2))``.
    """
    h = 1e-4
    a0, adir = (sample_batch(MatrixClass.FULL, n, mix_seed(seed, k), samples) for k in (0, 1))
    adir /= np.linalg.norm(adir, axis=(-2, -1), keepdims=True)
    t0 = np.random.default_rng(mix_seed(seed, 2)).uniform(0.0, 1.0, samples)
    r = scalar_residual(*_jacobi(a0, adir, t0, h))
    worst = float(np.max(r))
    return {"oracle": "jacobi", "n": n, "samples": samples, "h": h, "max_residual": worst,
            "mean_residual": float(np.mean(r)), "pass": worst <= 1e-6}


def oracle_kadison_choi(n: int, samples: int, seed: int, tol: float = 1e-8) -> dict:
    """:func:`check_kadison_choi` on a seeded unitary congruence and on the pinching."""
    rng = np.random.default_rng(mix_seed(seed, 0xF1A9))
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    maps = {"unitary-congruence": CanonicalPreserver(PreserverForm.PN_CONGRUENCE, n, M=u),
            "pinching": pinching}
    reports = {name: check_kadison_choi(fn, n, samples, seed, tol=tol).to_dict()
               for name, fn in maps.items()}
    ok = all(r["pass"] for r in reports.values())
    return {"oracle": "kadison-choi", "n": n, "samples": samples, "maps": reports, "pass": ok}


def oracle_dual_witness(cls: MatrixClass, n: int, samples: int, seed: int) -> dict:
    """:func:`dual_witness` margins |tr(AB)| / ||A||_F over the class stack from ``mix_seed(seed, 0)``."""
    a = sample_batch(cls, n, mix_seed(seed, 0), samples)
    b = dual_witness(a, cls)
    margin = float(np.min(finite_or(np.abs(trace_product(a, b)) / np.linalg.norm(a, axis=(-2, -1)),
                                    -SENTINEL)))
    return {"oracle": "dual-witness", "class": cls.value, "n": n, "samples": samples,
            "found": len(b), "min_margin": margin, "pass": margin >= 1e-6}
