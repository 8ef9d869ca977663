"""Canonical preserver forms and auxiliary maps.

Four parametric families cover the characterizations handled by this
project:

* ``pn-congruence``   A -> alpha M^* A M          (optionally A^t first)
* ``sn-congruence``   A -> alpha P A P^t
* ``mn-two-sided``    A -> alpha M A N            (optionally A^t first)
* ``tn-diagonal``     upper triangular output, [phi(A)]_ii = alpha lambda_i A_{sigma(i) sigma(i)}

plus the norm-dependent unitary conjugation counterexample
(:class:`NormConjugation`, shipped as ``remark1_map``) and the diagonal
pinching (a unital positive linear non-congruence map).
:class:`LinearRep` holds any linear map as its explicit n^2 x n^2 matrix.
:class:`CanonicalPreserver`, :class:`LinearRep` and
:class:`NormConjugation` take whole (..., n, n) stacks; ``pinching``
takes one matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cache

import numpy as np

from .core_linalg import determinant, principal_root, sandwich
from .domains import mix_seed
from .errors import DimensionMismatch

__all__ = [
    "PreserverForm",
    "CanonicalPreserver",
    "LinearRep",
    "apply_preserver",
    "random_canonical",
    "NormConjugation",
    "remark1_map",
    "pinching",
    "gauge_residual",
]


class PreserverForm(Enum):
    PN_CONGRUENCE = "pn-congruence"
    SN_CONGRUENCE = "sn-congruence"
    MN_TWO_SIDED = "mn-two-sided"
    TN_DIAGONAL = "tn-diagonal"


_FORM_TAG = {form: 0x50 + i for i, form in enumerate(PreserverForm)}


@dataclass(frozen=True, eq=False)
class CanonicalPreserver:
    """Parameters of one canonical map; callable on n x n arrays.

    The gauge det phi(I) = alpha^n (det(M^* M), det(P P^t), det(MN) or
    prod lambda_i = 1) is guaranteed for :func:`random_canonical` output
    but deliberately not enforced at construction: loaded map specs act as
    black boxes and may be off-gauge.  ``sigma`` is stored 0-based.
    """

    form: PreserverForm
    n: int
    alpha: complex = 1.0 + 0.0j
    M: np.ndarray | None = None
    N: np.ndarray | None = None
    transpose: bool = False
    sigma: tuple[int, ...] | None = None
    lambdas: np.ndarray | None = None
    offdiag_seed: int = 0

    def __post_init__(self):
        if self.transpose and self.form in (PreserverForm.SN_CONGRUENCE, PreserverForm.TN_DIAGONAL):
            raise ValueError(f"{self.form.value} has no transpose branch")
        if self.form is PreserverForm.TN_DIAGONAL:
            if self.sigma is None or self.lambdas is None:
                raise ValueError("tn-diagonal needs sigma and lambdas")
            if sorted(self.sigma) != list(range(self.n)):
                raise ValueError("sigma must be a permutation of 0..n-1")
            if len(self.lambdas) != self.n:
                raise ValueError(f"lambdas must have n = {self.n} entries, got {len(self.lambdas)}")
        elif self.M is None or self.M.shape != (self.n, self.n):
            raise ValueError("form needs an n x n matrix parameter")
        if self.form is PreserverForm.MN_TWO_SIDED:
            if self.N is None or self.N.shape != (self.n, self.n):
                raise ValueError("mn-two-sided needs an n x n right factor")

    def __call__(self, a):
        return apply_preserver(self, a)


@dataclass(frozen=True, eq=False)
class LinearRep:
    """A linear map on n x n matrices as its n^2 x n^2 matrix; takes (..., n, n) stacks.

    ``rep`` acts on row-major vectorized matrices: vec(L(X)) = rep @ vec(X)
    with vec index (i, a) -> i*n + a.
    """

    n: int
    rep: np.ndarray

    def __call__(self, a):
        m = _square_stack(a, self.n)
        return (m.reshape(*m.shape[:-2], -1) @ self.rep.T).reshape(m.shape)


def _square_stack(a, n: int) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.shape[-2:] != (n, n):
        raise DimensionMismatch(f"expected shape (..., {n}, {n}), got {m.shape}")
    return m


@cache
def _tn_tables(n: int, seed: int, sigma: tuple) -> tuple:
    """Row-major positions of the diagonal, of it permuted by sigma and of the strict upper triangle, and the
    transposed filler: the diagonal theorem leaves the off-diagonal action free, this fixed map makes phi total."""
    m = n * (n - 1) // 2
    rng = np.random.default_rng(mix_seed(0x7F11E12, n, seed))
    filler = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    diag = np.arange(n) * (n + 1)
    rows, cols = np.triu_indices(n, 1)
    return diag, diag[list(sigma)], rows * n + cols, filler.T


def apply_preserver(p: CanonicalPreserver, a) -> np.ndarray:
    """Evaluate the canonical map on one n x n matrix or a (..., n, n) stack."""
    m = _square_stack(a, p.n)
    x = m.swapaxes(-1, -2) if p.transpose else m
    if p.form is PreserverForm.PN_CONGRUENCE:
        return p.alpha * sandwich(p.M.conj().T, x, p.M)
    if p.form is PreserverForm.SN_CONGRUENCE:
        return p.alpha * sandwich(p.M, m, p.M.T)
    if p.form is PreserverForm.MN_TWO_SIDED:
        return p.alpha * sandwich(p.M, x, p.N)
    n = p.n
    flat = m.reshape(*m.shape[:-2], n * n)
    out = np.zeros(flat.shape, dtype=complex)
    diag, perm, upper, filler = _tn_tables(n, p.offdiag_seed, tuple(p.sigma))
    out[..., diag] = p.alpha * np.asarray(p.lambdas) * flat[..., perm]
    if n > 1:
        out[..., upper] = flat[..., upper] @ filler
    return out.reshape(m.shape)


def _conditioned_gaussian(rng, n: int, min_sv_ratio: float = 1e-3) -> np.ndarray:
    # Plain complex Gaussian; redraw the (measure-tiny) draws whose smallest
    # singular value would make the gauge normalization ill-conditioned.
    while True:
        g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
        s = np.linalg.svd(g, compute_uv=False)
        if s[-1] > min_sv_ratio * s[0]:
            return g


def random_canonical(form: PreserverForm, n: int, seed: int, transpose: bool = False) -> CanonicalPreserver:
    """Seeded canonical preserver with its gauge det phi(I) = alpha^n normalized exactly.

    Gaussian factors (M; P; M and N) are rescaled by the principal 2n-th root of 1 / det phi(I) at
    alpha = 1 (:func:`gauge_residual`); the tn-diagonal form gets lambda_i in [0.5, 2] with the last
    one the reciprocal of the rest.  alpha is drawn uniformly from [0.5, 2].  ``transpose`` on a form
    without a transpose branch is the constructor's ValueError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(mix_seed(_FORM_TAG[form], n, seed, int(transpose)))
    alpha = complex(rng.uniform(0.5, 2.0))
    if form is PreserverForm.TN_DIAGONAL:
        sigma = tuple(int(i) for i in rng.permutation(n))
        lam = rng.uniform(0.5, 2.0, size=n).astype(complex)
        lam[-1] = 1.0 / np.prod(lam[:-1])
        return CanonicalPreserver(form, n, alpha, sigma=sigma, lambdas=lam, transpose=transpose,
                                  offdiag_seed=int(seed) & 0x7FFFFFFF)
    m = _conditioned_gaussian(rng, n)
    right = _conditioned_gaussian(rng, n) if form is PreserverForm.MN_TWO_SIDED else None
    raw = CanonicalPreserver(form, n, alpha, M=m, N=right, transpose=transpose)
    s = principal_root(1.0 / _unit_det(raw), 2 * n)
    return replace(raw, M=m * s, N=None if right is None else right * s)


@dataclass(frozen=True, eq=False)
class NormConjugation:
    """Unitary conjugation U(s) A U(s)^* with s = scale ||A||_F; takes (..., n, n) stacks.

    U(s) = exp(i s H0) with the fixed Hermitian generator H0 = E_12 + E_21
    (zero-padded), so every value is unitarily similar to its input: the
    squared-trace identity and all spectra survive, but the map is not
    additive.  Each stack member gets its own U from its own norm, and its
    image is bit-identical to the single-matrix one.  ``generator_scale=0``
    collapses it to the identity map.
    """

    generator_scale: float = 1.0

    def __call__(self, a):
        m = np.asarray(a, dtype=complex)
        n = m.shape[-1]
        if n < 2 or self.generator_scale == 0.0:
            return m.copy()
        # Each member's squares summed along one contiguous row, so the
        # summation order does not depend on the stack size or layout.
        squares = (m.real * m.real + m.imag * m.imag).reshape(*m.shape[:-2], n * n)
        theta = self.generator_scale * np.sqrt(squares.sum(axis=-1))
        u = np.broadcast_to(np.eye(n, dtype=complex), m.shape).copy()
        u[..., 0, 0] = u[..., 1, 1] = np.cos(theta)
        u[..., 0, 1] = u[..., 1, 0] = 1j * np.sin(theta)
        return u @ m @ u.conj().swapaxes(-1, -2)


remark1_map = NormConjugation()


def pinching(a) -> np.ndarray:
    """Diagonal part of A as a diagonal matrix; unital, positive, linear."""
    m = np.asarray(a, dtype=complex)
    return np.diag(np.diagonal(m)).copy()


def _unit_det(p: CanonicalPreserver) -> complex:
    """det phi(I) at alpha = 1: det(M^* M), det(P P^t), det(MN) or prod lambda_i, the product of the
    diagonal on tn-diagonal, whose image of I is diagonal."""
    unit = apply_preserver(replace(p, alpha=1.0), np.eye(p.n, dtype=complex))
    return determinant(unit, triangular=p.form is PreserverForm.TN_DIAGONAL)


def gauge_residual(p: CanonicalPreserver) -> float:
    """|det phi(I) / alpha^n - 1|: the deviation of the form's one determinant gauge from 1."""
    return abs(_unit_det(p) - 1.0)
