"""Canonical preserver forms and auxiliary maps.

Four parametric families cover the characterizations handled by this
project:

* ``pn-congruence``   A -> alpha M^* A M          (optionally A^t first)
* ``sn-congruence``   A -> alpha P A P^t
* ``mn-two-sided``    A -> alpha M A N            (optionally A^t first)
* ``tn-diagonal``     upper triangular output, [phi(A)]_ii = alpha lambda_i A_{sigma(i) sigma(i)}

plus the norm-dependent unitary conjugation counterexample and the
diagonal pinching (a unital positive linear non-congruence map).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core_linalg import determinant, frob, principal_root, sandwich
from .domains import mix_seed
from .errors import DimensionMismatch

__all__ = [
    "PreserverForm",
    "CanonicalPreserver",
    "apply_preserver",
    "random_canonical",
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

    Gauge normalizations (det(M^* M) = 1, (det P)^2 = 1, det(MN) = 1,
    prod lambda_i = 1) are guaranteed for :func:`random_canonical` output
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
        elif self.M is None or self.M.shape != (self.n, self.n):
            raise ValueError("form needs an n x n matrix parameter")
        if self.form is PreserverForm.MN_TWO_SIDED:
            if self.N is None or self.N.shape != (self.n, self.n):
                raise ValueError("mn-two-sided needs an n x n right factor")

    def __call__(self, a):
        return apply_preserver(self, a)


_FILLER_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _tn_filler(n: int, seed: int) -> np.ndarray:
    # Fixed seeded linear map on the strict upper entries; the diagonal
    # theorem leaves the off-diagonal action free, this makes phi total.
    key = (n, seed)
    got = _FILLER_CACHE.get(key)
    if got is None:
        m = n * (n - 1) // 2
        rng = np.random.default_rng(mix_seed(0x7F11E12, n, seed))
        got = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
        _FILLER_CACHE[key] = got
    return got


def apply_preserver(p: CanonicalPreserver, a) -> np.ndarray:
    """Evaluate the canonical map on one n x n matrix or a (..., n, n) stack."""
    m = np.asarray(a, dtype=complex)
    if m.shape[-2:] != (p.n, p.n):
        raise DimensionMismatch(f"expected shape (..., {p.n}, {p.n}), got {m.shape}")
    x = m.swapaxes(-1, -2) if p.transpose else m
    if p.form is PreserverForm.PN_CONGRUENCE:
        return p.alpha * sandwich(p.M.conj().T, x, p.M)
    if p.form is PreserverForm.SN_CONGRUENCE:
        return p.alpha * sandwich(p.M, m, p.M.T)
    if p.form is PreserverForm.MN_TWO_SIDED:
        return p.alpha * sandwich(p.M, x, p.N)
    n = p.n
    out = np.zeros(m.shape, dtype=complex)
    diag = np.arange(n)
    perm = np.asarray(p.sigma, dtype=int)
    out[..., diag, diag] = p.alpha * np.asarray(p.lambdas) * m[..., perm, perm]
    if n > 1:
        iu, ju = np.triu_indices(n, 1)
        out[..., iu, ju] = m[..., iu, ju] @ _tn_filler(n, p.offdiag_seed).T
    return out


def _conditioned_gaussian(rng, n: int, min_sv_ratio: float = 1e-3) -> np.ndarray:
    # Plain complex Gaussian; redraw the (measure-tiny) draws whose smallest
    # singular value would make the gauge normalization ill-conditioned.
    while True:
        g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
        s = np.linalg.svd(g, compute_uv=False)
        if s[-1] > min_sv_ratio * s[0]:
            return g


def random_canonical(form: PreserverForm, n: int, seed: int, transpose: bool = False) -> CanonicalPreserver:
    """Seeded canonical preserver with its gauge constraint normalized exactly.

    Gaussian factors are rescaled by the principal root that makes
    det(M^* M) = 1 / (det P)^2 = 1 / det(MN) = 1; the tn-diagonal form gets
    lambda_i in [0.5, 2] with the last one the reciprocal of the rest.
    alpha is drawn uniformly from [0.5, 2].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(mix_seed(_FORM_TAG[form], n, seed, int(transpose)))
    alpha = complex(rng.uniform(0.5, 2.0))
    if form is PreserverForm.PN_CONGRUENCE:
        m = _conditioned_gaussian(rng, n)
        m = m * abs(determinant(m)) ** (-1.0 / n)  # det(M^* M) = |det M|^2 = 1
        return CanonicalPreserver(form, n, alpha, M=m, transpose=transpose)
    if form is PreserverForm.SN_CONGRUENCE:
        m = _conditioned_gaussian(rng, n)
        s = principal_root(determinant(m) ** -2.0, 2 * n)
        return CanonicalPreserver(form, n, alpha, M=m * s)
    if form is PreserverForm.MN_TWO_SIDED:
        m = _conditioned_gaussian(rng, n)
        nn = _conditioned_gaussian(rng, n)
        c = principal_root(1.0 / determinant(m @ nn), 2 * n)
        return CanonicalPreserver(form, n, alpha, M=m * c, N=nn * c, transpose=transpose)
    if form is PreserverForm.TN_DIAGONAL:
        sigma = tuple(int(i) for i in rng.permutation(n))
        lam = rng.uniform(0.5, 2.0, size=n).astype(complex)
        if n == 1:
            lam[0] = 1.0
        else:
            lam[-1] = 1.0 / np.prod(lam[:-1])
        return CanonicalPreserver(form, n, alpha, sigma=sigma, lambdas=lam,
                                  offdiag_seed=int(seed) & 0x7FFFFFFF)
    raise ValueError(f"unknown form {form}")


def remark1_map(a, generator_scale: float = 1.0) -> np.ndarray:
    """Norm-dependent unitary conjugation U(s) A U(s)^*, s = ||A||_F.

    U(s) = exp(i s H0) with the fixed Hermitian generator H0 = E_12 + E_21
    (zero-padded), so every value is unitarily similar to its input: the
    squared-trace identity and all spectra survive, but the map is not
    additive.  ``generator_scale=0`` collapses it to the identity map.
    """
    m = np.asarray(a, dtype=complex)
    n = m.shape[0]
    if n < 2 or generator_scale == 0.0:
        return m.copy()
    theta = generator_scale * frob(m)
    u = np.eye(n, dtype=complex)
    u[0, 0] = u[1, 1] = np.cos(theta)
    u[0, 1] = u[1, 0] = 1j * np.sin(theta)
    return u @ m @ u.conj().T


def pinching(a) -> np.ndarray:
    """Diagonal part of A as a diagonal matrix; unital, positive, linear."""
    m = np.asarray(a, dtype=complex)
    return np.diag(np.diagonal(m)).copy()


def gauge_residual(p: CanonicalPreserver) -> float:
    """Deviation of the form's determinant gauge constraint from 1."""
    if p.form is PreserverForm.PN_CONGRUENCE:
        return abs(determinant(p.M.conj().T @ p.M) - 1.0)
    if p.form is PreserverForm.SN_CONGRUENCE:
        return abs(determinant(p.M) ** 2 - 1.0)
    if p.form is PreserverForm.MN_TWO_SIDED:
        return abs(determinant(p.M @ p.N) - 1.0)
    return abs(complex(np.prod(np.asarray(p.lambdas))) - 1.0)
