"""Seeded sampling verification of the determinant and trace identities.

Determinant identities compare det(s phi(A) + t phi(B)) against alpha^n det(sA + tB),
alpha^n = det(phi(I)).  :func:`_lifted` reads phi(I) once for every battery and recovery, takes
max |phi(I)_ij| into [1, 2) by an exact power of two and refuses a singular phi(I) or a zero
determinant, so a report on c phi (c = 2^k) is the report on phi while the images stay finite and
normal.  The trace identities with kinds ``product``, ``square`` and ``power`` hold in the unital
gauge, so those kinds run on the unitalized companion of the lifted map (conjugated by its unit image
per domain class); the ``inverse`` kind needs no gauge and runs on the raw map, equivariant as it
is.  All residuals are scale-aware.

Every battery, the oracle batteries included, draws its samples as
stacks, A = ``sample_batch(cls, n, mix_seed(seed, 0), samples)`` and B from
``mix_seed(seed, 1)``, evaluates the map through :func:`_images` and
reduces with the stacked kernels of :mod:`core_linalg`.  :func:`_images`
alone decides how a map is called: a :class:`CanonicalPreserver`, a
:class:`LinearRep`, a :class:`NormConjugation` or a unitalized companion
takes a whole stack in one call, also behind a wrapper that sets
``__wrapped__`` (the :func:`functools.wraps` convention); any other map is
a black box queried once per matrix; an image that is not a numeric matrix
of its input's shape raises DimensionMismatch.  The Minkowski and Jacobi oracles run
as one stacked computation each, of which :func:`check_minkowski` and
:func:`check_jacobi` are the one-pair views, and the dual-witness oracle
is one :func:`domains.dual_witness` call on the drawn stack.  Minkowski's
PD gate and the PD unitalization are views of :func:`core_linalg.is_pd`.
A non-finite residual counts as the failing sentinel 1e100 (-1e100 for
the Kadison/Choi eigenvalue minima), so it fails; numpy's overflow and
invalid-value warnings are silenced inside the batteries for that reason.

For the upper-triangular and diagonal classes only diagonal data enters:
determinants become diagonal products, traces of triangular products
reduce to diagonal sums and images are compared on their diagonals
(:func:`_residuals`, for homogeneity-additivity and recovery), matching the
diagonal-only contract of those maps.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from .core_linalg import (
    SENTINEL,
    adjugate,
    determinant,
    finite_or,
    frob,
    inverse,
    is_pd,
    is_singular,
    matrix_residual,
    sandwich,
    scalar_residual,
    trace_product,
    unit_lift,
)
from .domains import MatrixClass, dual_witness, mix_seed, sample_batch
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

_INVERTIBLE_DET = 1e-6
# Non-finite values become the failing sentinel, so their warnings are noise.
_QUIET = {"over": "ignore", "invalid": "ignore"}


def _require_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError("samples must be >= 1")


@dataclass(slots=True)
class VerificationReport:
    identity: str
    class_name: str
    n: int
    samples: int
    tol: float
    max_residual: float
    mean_residual: float
    passed: bool
    # ((index, residual), ...), capped at 10; a passing report shares the empty tuple
    failures: tuple = ()

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
    mx = float(np.max(residuals))
    return VerificationReport(
        identity=identity,
        class_name=cls.value,
        n=n,
        samples=residuals.size,
        tol=tol,
        max_residual=mx,
        mean_residual=float(np.mean(residuals)),
        passed=mx <= tol,
        failures=tuple((int(i), float(residuals[i])) for i in np.flatnonzero(residuals > tol)[:10]),
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


def _linearity_residual(map_fn, cls: MatrixClass, x, s, t, lag: int) -> float:
    """Worst :func:`_residuals` of phi(s x_k + t x_{k+lag}) against s phi(x_k) + t phi(x_{k+lag})."""
    combo, fx = _images(map_fn, s * x[:-lag] + t * x[lag:]), _images(map_fn, x)
    return float(np.max(_residuals(cls, combo, s * fx[:-lag] + t * fx[lag:])))


@dataclass(frozen=True, eq=False)
class _Unitalized:
    """X -> left @ phi(X) (@ right), or left * phi(X) for a scalar left; stack-capable when phi is."""

    map_fn: object
    left: np.ndarray | float
    right: np.ndarray | None = None

    def __call__(self, a):
        imgs = _images(self.map_fn, np.asarray(a, dtype=complex))
        return self.left * imgs if np.ndim(self.left) == 0 else sandwich(self.left, imgs, self.right)


def _lifted(map_fn, cls: MatrixClass, n: int, singular: Exception | None = None):
    """(lift, lift phi(I), det(lift phi(I)), lift phi), lift = :func:`core_linalg.unit_lift` of phi(I),
    from the one query of phi(I) of a battery or recovery; at lift 1, phi(I) and ``map_fn`` as they are.
    Given ``singular``, the determinant is taken and ``singular`` raised where :func:`core_linalg.is_singular`
    holds or it is exactly 0 (never if not finite)."""
    unit = _images(map_fn, np.eye(n, dtype=complex))
    lift = unit_lift(unit)
    unit, fn = (unit, map_fn) if lift == 1.0 else (lift * unit, _Unitalized(map_fn, lift))
    unit_det = None if singular is None else determinant(unit, cls.triangular)
    if singular is not None and (unit_det == 0 or is_singular(unit, cls.triangular)):
        raise singular
    return lift, unit, unit_det, fn


def verify_det_identity(map_fn, cls: MatrixClass, n: int, weights, samples: int,
                        seed: int, tol: float, identity: str = "det") -> VerificationReport:
    """Check det(s phi(A) + t phi(B)) = det(phi(I)) det(sA + tB) over samples.

    ``weights`` is a nonempty list of (s, t) scalar pairs: (1, 1) for the
    sum identity, (t, 1-t) for convex combinations, (1, lambda) with complex
    lambda for the pencil variant.  A (0, 0) pair (both sides det(0)) or a non-finite
    component is a ValueError.
    """
    w = np.asarray(weights, dtype=complex).reshape(-1, 2)
    if not w.size or not np.isfinite(w).all() or (w == 0).all(axis=1).any():
        raise ValueError("weights must be a nonempty list of finite (s, t) pairs, not both zero")
    _require_samples(samples)
    with np.errstate(**_QUIET):
        _, _, unit_det, fn = _lifted(map_fn, cls, n, DegenerateUnit("det(map(I)) vanishes; alpha is undefined"))
        a = sample_batch(cls, n, mix_seed(seed, 0), samples)
        b = sample_batch(cls, n, mix_seed(seed, 1), samples)
        fa, fb = _images(fn, a), _images(fn, b)
        worst = np.zeros(samples)
        for s_, t_ in weights:
            lhs = determinant(s_ * fa + t_ * fb, cls.triangular)
            rhs = unit_det * determinant(s_ * a + t_ * b, cls.triangular)
            worst = np.maximum(worst, scalar_residual(lhs, rhs))
    return _report(identity, cls, n, tol, worst)


def unitalize(map_fn, cls: MatrixClass, n: int):
    """Conjugate the lifted map (:func:`_lifted`) by its unit image so that the result fixes I.

    Each gauge factor comes from one ``eigh``.  PD/PSD/Hermitian classes use
    W (.) W with W = V diag(w)^{-1/2} V^* from phi(I) = V diag(w) V^*, once
    :func:`core_linalg.is_pd` accepts phi(I) (else :class:`NotPositiveDefinite`).
    The symmetric class uses Q^{-1} (.) Q^{-t} with Q Q^t = C, the symmetric
    part of phi(I): the eigenvectors [x; y] of the n positive eigenvalues t
    of [[Re C, Im C], [Im C, -Re C]] give a unitary U = x + iy with
    C = U diag(t) U^t, so Q^{-1} = diag(t)^{-1/2} U^*.  The remaining classes
    use phi(I)^{-1} (.).  A singular phi(I) (C on the symmetric class, by
    :func:`core_linalg.is_singular`) raises :class:`DegenerateUnit`; a non-finite one gives a
    companion whose every image is NaN, so every residual on it fails; an already-unital map is
    returned untouched.  c phi (c = 2^k) gets the companion of phi, which takes a whole
    (count, n, n) stack where the map does (see :func:`_images`).
    """
    _, unit, _, fn = _lifted(map_fn, cls, n)
    if not np.isfinite(unit).all():
        return _Unitalized(fn, np.full((n, n), np.nan))
    if matrix_residual(unit, np.eye(n)) <= 1e-12:
        return fn
    if cls in (MatrixClass.PD, MatrixClass.PSD, MatrixClass.HERMITIAN):
        if not is_pd(unit):
            raise NotPositiveDefinite("map(I) is not certified positive definite")
        w, v = np.linalg.eigh(unit)
        left = (v / np.sqrt(w)) @ v.conj().T
        return _Unitalized(fn, left, left)
    c = 0.5 * (unit + unit.T) if cls is MatrixClass.SYMMETRIC else unit
    if is_singular(c, cls.triangular):
        raise DegenerateUnit("map(I) is singular")
    if cls is MatrixClass.SYMMETRIC:
        t, v = np.linalg.eigh(np.block([[c.real, c.imag], [c.imag, -c.real]]))
        qi = (v[:n, n:] - 1j * v[n:, n:]).T / np.sqrt(t[n:, None])
        return _Unitalized(fn, qi, qi.T)
    return _Unitalized(fn, inverse(unit))


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
    _require_samples(samples)
    invert, k = kind == "inverse", power if kind == "power" else 1
    label = {"inverse": "trace-inverse", "product": "trace-product",
             "square": "trace-square", "power": f"trace-power-{power}"}[kind]
    with np.errstate(**_QUIET):
        fn = map_fn if invert else unitalize(map_fn, cls, n)
        a = sample_batch(cls, n, mix_seed(seed, 0), samples)
        fa = _images(fn, a)
        if kind == "square":
            b, fb = a, fa
        else:
            b = sample_batch(cls, n, mix_seed(seed, 1), samples, _INVERTIBLE_DET if invert else None)
            fb = _images(fn, b)
        residuals = scalar_residual(_traces(cls, fa, fb, invert, k), _traces(cls, a, b, invert, k))
    return _report(label, cls, n, tol, residuals)


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
        return {
            "n": self.n,
            "samples": self.samples,
            "tol": self.tol,
            "min_eig_kadison": self.min_eig_kadison,
            "min_eig_choi": self.min_eig_choi,
            "pass": self.passed,
        }


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
    linearity are spot-checked first (the squared-trace counterexample is
    unital but nonlinear, and the inequalities are stated for linear maps).
    Reports the worst lower eigenvalue of each gap over the PD stack from
    ``mix_seed(seed, 0)``; a non-finite gap counts as -1e100 and fails.
    """
    _require_samples(samples)
    eye = np.eye(n, dtype=complex)
    with np.errstate(**_QUIET):
        if finite_or(frob(map_fn(eye) - eye)) > 1e-9:
            raise NotUnital("map(I) differs from I by more than 1e-9")
        x = np.concatenate([sample_batch(MatrixClass.HERMITIAN, n, mix_seed(seed, 0x11AEA, k), 5)
                            for k in (0, 1)])
        c = np.random.default_rng(mix_seed(seed, 0x11AEA, 2)).uniform(-2.0, 2.0, size=(2, 5, 1, 1))
        if _linearity_residual(map_fn, MatrixClass.HERMITIAN, x, c[0], c[1], 5) > 1e-8:
            raise NotLinear("map failed the linear-combination spot check")
        a = sample_batch(MatrixClass.PD, n, mix_seed(seed, 0), samples)
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
    """Residuals of phi(lambda A) - lambda phi(A) and phi(A+B) - phi(A) - phi(B), after the unit lift;
    of the diagonals alone on the triangular classes (:func:`_residuals`)."""
    _require_samples(samples)
    a = sample_batch(cls, n, mix_seed(seed, 0), samples)
    b = sample_batch(cls, n, mix_seed(seed, 1), samples)
    with np.errstate(**_QUIET):
        fn = _lifted(map_fn, cls, n)[3]
        fa, fb = _images(fn, a), _images(fn, b)
        worst = _residuals(cls, _images(fn, a + b), fa + fb)
        for lam in _HOMOGENEITY_SCALES:
            worst = np.maximum(worst, _residuals(cls, _images(fn, lam * a), lam * fa))
    return _report("homogeneity-additivity", cls, n, tol, worst)


def oracle_minkowski(n: int, samples: int, seed: int) -> dict:
    """:func:`check_minkowski` on PD pairs and on proportional pairs.

    Pair i is member i of the PD stacks from ``mix_seed(seed, 0)`` and
    ``(seed, 1)``; proportional pair i is member i of ``(seed, 2)`` against
    itself scaled by 0.25 + 3 (i mod 7) / 7, for i < max(1, samples // 10).
    """
    _require_samples(samples)
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
    _require_samples(samples)
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
    _require_samples(samples)
    a = sample_batch(cls, n, mix_seed(seed, 0), samples)
    b = dual_witness(a, cls)
    margin = float(np.min(finite_or(np.abs(trace_product(a, b)) / np.linalg.norm(a, axis=(-2, -1)),
                                    -SENTINEL)))
    return {"oracle": "dual-witness", "class": cls.value, "n": n, "samples": samples,
            "found": len(b), "min_margin": margin, "pass": margin >= 1e-6}
