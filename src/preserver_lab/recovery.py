"""Recovery of canonical parameters from a black-box map.

The pipeline realizes the constructive direction of the characterizations:

1. ``build_linear_rep`` samples the black box on a class basis and
   assembles the explicit n^2 x n^2 matrix acting on row-major vectorized
   input.  For the positive definite class the box is only ever evaluated
   on PD matrices (the shifted Hermitian basis); the action on matrix
   units is rebuilt by real-linear combination and complexified through
   X = H1 + i H2.  Linearity is not assumed: the representation must
   reproduce the box on fresh samples or :class:`NotLinear` is raised.

2. ``LinearRep.choi`` reshuffles the representation into the Choi layout
   J[(i,a),(j,b)] = [L(E_ij)]_{ab}.  J has numeric rank one exactly for
   two-sided multiplications X -> M X N, which is what ``recover`` exploits
   for the full and PD classes (precomposing with transpose to find the
   other branch).  The symmetric class instead extracts congruence columns
   from the rank-one images of E_ii, and the triangular classes match the
   diagonals of phi(I)^{-1} phi(E_kk) to standard basis vectors.

The composite index (i, a) -> i*n + a (0-based) is fixed globally; the
reshaping rules M0[a, i] = u[(i, a)], N0[j, b] = w[(j, b)] depend on it.

Basis images and the consistency and round-trip probes are one stack each,
evaluated through :func:`verifiers._images`: a canonical map or a
:class:`LinearRep` takes each stack in one call, and a black box queried one
matrix at a time is queried n^2 + 71 times for the full and PD classes
(basis, 20 consistency probes, the unit, 50 round-trip probes).
"""

from __future__ import annotations

import numpy as np

from .core_linalg import (
    determinant,
    frob,
    matrix_residual,
    numeric_rank,
    principal_root,
)
from .domains import MatrixClass, basis, mix_seed, sample_batch
from .errors import (
    NotCanonical,
    NotLinear,
    NotRankOne,
    NotStarForm,
    SingularUnit,
)
from .preservers import CanonicalPreserver, LinearRep, PreserverForm, apply_preserver
from .verifiers import _QUIET, _images

__all__ = [
    "build_linear_rep",
    "rank_one_split",
    "recover",
    "roundtrip_residual",
]

RANK_RATIO_TOL = 1e-7  # an order below the 1e-8 identity tolerance
_CONSISTENCY_SAMPLES = 20
_RESIDUAL_SAMPLES = 50
_CONSISTENCY_TAG = 0xC0451
_ROUNDTRIP_TAG = 0x407A11


def build_linear_rep(map_fn, cls: MatrixClass, n: int, tol: float) -> LinearRep:
    """Sample the black box on a class basis and assemble its linear rep.

    Raises :class:`NotLinear` when the assembled representation deviates
    from the box by more than ``tol`` on 20 fresh class samples (e.g. for
    the norm-dependent conjugation counterexample, or a box that returns
    non-finite values).  For the symmetric class the rep is the symmetrized
    extension L(E_ij) = L(D_ij)/2; for the triangular class strict-lower
    units map to zero.
    """
    if cls not in (MatrixClass.FULL, MatrixClass.SYMMETRIC, MatrixClass.UPPER_TRIANGULAR,
                   MatrixClass.PD):
        raise ValueError(f"linear rep not defined for class {cls.value}")
    with np.errstate(**_QUIET):
        # cols[j, b] = L(E_jb); the class bases list their elements row-major
        imgs = _images(map_fn, basis(cls, n))
        cols = np.zeros((n, n, n, n), dtype=complex)
        diag, upper = (np.arange(n), np.arange(n)), np.triu_indices(n, 1)
        if cls is MatrixClass.FULL:
            cols[:] = imgs.reshape(cols.shape)
        elif cls is MatrixClass.UPPER_TRIANGULAR:
            cols[np.triu_indices(n)] = imgs
        elif cls is MatrixClass.SYMMETRIC:
            cols[diag] = imgs[:n]
            cols[upper] = cols[upper[::-1]] = 0.5 * imgs[n:]
        else:
            # The PD basis is the Hermitian one shifted by 2I, and
            # sum_i (E_ii + 2I) = (2n + 1) I pins the extension at the identity.
            himgs = imgs - 2.0 * (imgs[:n].sum(axis=0) / (2.0 * n + 1.0))
            d_img, k_img = np.split(himgs[n:], 2)
            cols[diag] = himgs[:n]
            cols[upper] = 0.5 * (d_img - 1j * k_img)
            cols[upper[::-1]] = 0.5 * (d_img + 1j * k_img)
        lin = LinearRep(n, cols.reshape(n * n, n * n).T)
        x = sample_batch(cls, n, mix_seed(_CONSISTENCY_TAG, n), _CONSISTENCY_SAMPLES)
        worst = float(np.max(matrix_residual(lin(x), _images(map_fn, x), axis=(-2, -1))))
    if worst > tol:
        raise NotLinear(f"linear rep misses the black box by {worst:.3e} > {tol:.1e}")
    return lin


def rank_one_split(j, ratio_tol: float):
    """Balanced factors (u, w) with J = u w^T for a numerically rank-one J, from one SVD."""
    if not 0.0 < ratio_tol < 1.0:
        raise ValueError(f"ratio_tol must lie in (0, 1), got {ratio_tol}")
    m = np.asarray(j, dtype=complex)
    uu, ss, vh = np.linalg.svd(m)
    if np.count_nonzero(ss > ratio_tol * ss[0]) != 1:
        raise NotRankOne("matrix does not have numeric rank one")
    root = np.sqrt(ss[0])
    u = root * uu[:, 0]
    w = root * vh[0, :]
    if float(np.linalg.norm(m - np.outer(u, w))) > ratio_tol * float(np.linalg.norm(m)):
        raise NotRankOne("rank-one reconstruction residual too large")
    return u, w


def roundtrip_residual(map_fn, p: CanonicalPreserver, cls: MatrixClass, n: int,
                       samples: int, seed: int) -> float:
    """Worst scale-aware deviation between the box and the canonical map.

    The probes are ``sample_batch(cls, n, seed, samples)``.  Diagonal-restricted
    for the tn-diagonal form, whose off-diagonal completion is not part of
    the characterization.
    """
    x = sample_batch(cls, n, seed, samples)
    with np.errstate(**_QUIET):
        y1 = _images(map_fn, x)
        y2 = apply_preserver(p, x)
        if p.form is PreserverForm.TN_DIAGONAL:
            r = matrix_residual(np.diagonal(y1, axis1=-2, axis2=-1),
                                np.diagonal(y2, axis1=-2, axis2=-1), axis=-1)
        else:
            r = matrix_residual(y1, y2, axis=(-2, -1))
    return float(np.max(r))


def _phase_canonical(m):
    """Rotate a global phase so the largest-modulus entry is positive real."""
    idx = int(np.argmax(np.abs(m)))
    z = m.reshape(-1)[idx]
    if abs(z) == 0.0:
        return m, 1.0 + 0.0j
    ph = z / abs(z)
    return m * np.conj(ph), np.conj(ph)


def _sign_canonical(m):
    """Flip the sign so the largest-modulus entry has positive real part."""
    idx = int(np.argmax(np.abs(m)))
    z = m.reshape(-1)[idx]
    if z.real < 0.0 or (z.real == 0.0 and z.imag < 0.0):
        return -m
    return m


def _unit_determinant(map_fn, cls, n):
    unit = np.asarray(map_fn(np.eye(n, dtype=complex)), dtype=complex)
    d = determinant(unit, cls.triangular)
    if abs(d) <= 1e-12:
        raise SingularUnit("map(I) is not invertible")
    return unit, d


def _recover_two_sided(map_fn, cls, n, tol, rank_tol):
    lin = build_linear_rep(map_fn, cls, n, tol)
    transpose = False
    try:
        u, w = rank_one_split(lin.choi(), rank_tol)
    except NotRankOne:
        # L composed with transpose: rep[(a, b), (i, j)] -> rep[(a, b), (j, i)]
        flipped = lin.rep.reshape(n, n, n, n).transpose(0, 1, 3, 2).reshape(n * n, n * n)
        try:
            u, w = rank_one_split(LinearRep(n, flipped).choi(), rank_tol)
        except NotRankOne:
            raise NotCanonical("neither Choi branch has rank one") from None
        transpose = True
    m0 = u.reshape(n, n).T
    n0 = w.reshape(n, n)

    _, unit_det = _unit_determinant(map_fn, cls, n)
    if cls is MatrixClass.PD:
        if unit_det.real <= 0.0 or abs(unit_det.imag) > 1e-8 * (1.0 + abs(unit_det)):
            raise NotCanonical("det(map(I)) is not positive real on the PD class")
        alpha = complex(unit_det.real ** (1.0 / n))
    else:
        alpha = principal_root(unit_det, n)
    s = principal_root(1.0 / alpha, 2)
    left = s * m0
    right = s * n0

    if cls is MatrixClass.PD:
        # alpha M^* X M pairing: the left factor must be the conjugate
        # transpose of the right one (balanced split makes the scale 1).
        if frob(left - right.conj().T) > max(tol, 1e-8) * max(frob(left), 1e-30):
            raise NotStarForm("recovered factors are not a *-congruence pair")
        mp, _ = _phase_canonical(right)
        p = CanonicalPreserver(PreserverForm.PN_CONGRUENCE, n, alpha, M=mp, transpose=transpose)
    else:
        mp, ph = _phase_canonical(left)
        p = CanonicalPreserver(PreserverForm.MN_TWO_SIDED, n, alpha,
                               M=mp, N=right / ph, transpose=transpose)
    return p


def _extract_rank_one_symmetric(c1):
    """q with q q^T = C1 for a rank-one complex symmetric C1 (sign free)."""
    norms = np.linalg.norm(c1, axis=0)
    kstar = int(np.argmax(norms))
    anchor = c1[kstar, kstar]
    if abs(anchor) >= 1e-8 * frob(c1):
        return c1[:, kstar] / anchor**0.5
    # isotropic-anchor fallback: leading singular vector with the phase
    # fixed so the squared entry matches the diagonal of C1
    uu, ss, _ = np.linalg.svd(c1)
    u0 = uu[:, 0]
    midx = int(np.argmax(np.abs(u0)))
    phase_sq = c1[midx, midx] / (ss[0] * u0[midx] ** 2)
    q = np.sqrt(ss[0]) * u0 * phase_sq**0.5
    if matrix_residual(np.outer(q, q), c1) > 1e-6:
        raise NotCanonical("image of a diagonal unit is not symmetric rank one")
    return q


def _recover_symmetric(map_fn, n, tol, rank_tol):
    lin = build_linear_rep(map_fn, MatrixClass.SYMMETRIC, n, tol)
    r4 = lin.rep.reshape(n, n, n, n)  # r4[:, :, i, j] = L(E_ij)
    diag = np.arange(n)
    bad = np.flatnonzero(numeric_rank(np.moveaxis(r4[:, :, diag, diag], -1, 0), rank_tol) != 1)
    if bad.size:
        raise NotCanonical(f"image of E_{bad[0]}{bad[0]} does not have rank one")
    q1 = _extract_rank_one_symmetric(r4[:, :, 0, 0])
    widx = int(np.argmax(np.abs(q1)))
    if abs(q1[widx]) < 1e-10 * np.linalg.norm(q1):
        raise NotCanonical("anchor vector is numerically isotropic")
    beta = q1[widx]
    y = r4[:, widx, 0, 1:] + r4[:, widx, 1:, 0]  # y[:, j - 1] = column widx of L(E_0j + E_j0)
    gamma = y[widx] / (2.0 * beta)
    q = np.column_stack([q1, (y - gamma * q1[:, None]) / beta])

    _, unit_det = _unit_determinant(map_fn, MatrixClass.SYMMETRIC, n)
    alpha = principal_root(unit_det, n)
    p_mat = principal_root(1.0 / alpha, 2) * q
    p_mat = _sign_canonical(p_mat)
    return CanonicalPreserver(PreserverForm.SN_CONGRUENCE, n, alpha, M=p_mat)


def _recover_diagonal(map_fn, cls, n, tol):
    unit, unit_det = _unit_determinant(map_fn, cls, n)
    du = np.diagonal(unit)
    if np.min(np.abs(du)) <= 1e-12:
        raise SingularUnit("map(I) has a vanishing diagonal entry")
    imgs = _images(map_fn, basis(MatrixClass.DIAGONAL, n))
    model = (np.diagonal(imgs, axis1=-2, axis2=-1) / du).T  # model[i, k] = [psi(E_kk)]_ii
    x = sample_batch(cls, n, mix_seed(_CONSISTENCY_TAG, n), _CONSISTENCY_SAMPLES)
    predicted = du * (np.diagonal(x, axis1=-2, axis2=-1) @ model.T)
    got = np.diagonal(_images(map_fn, x), axis1=-2, axis2=-1)
    if np.max(matrix_residual(got, predicted, axis=-1)) > tol:
        raise NotLinear("diagonal action is not linear in the input diagonal")

    sigma = [-1] * n
    for k in range(n):
        col = model[:, k]
        m = int(np.argmax(np.abs(col)))
        rest = np.abs(np.delete(col, m))
        if abs(col[m] - 1.0) > max(tol, 1e-10) or (rest.size and float(np.max(rest)) > max(tol, 1e-10)):
            raise NotCanonical(f"psi(E_{k}{k}) diagonal does not match a standard basis vector")
        if sigma[m] != -1:
            raise NotCanonical("diagonal matching is not a permutation")
        sigma[m] = k
    alpha = principal_root(unit_det, n)
    lambdas = du / alpha
    return CanonicalPreserver(PreserverForm.TN_DIAGONAL, n, alpha,
                              sigma=tuple(sigma), lambdas=lambdas, offdiag_seed=0)


def recover(map_fn, cls: MatrixClass, n: int, tol: float = 1e-8,
            rank_ratio_tol: float = RANK_RATIO_TOL):
    """Recover canonical parameters of a black-box map on the given class.

    Returns ``(preserver, residual)`` where ``residual`` is the worst
    scale-aware deviation between the box and the recovered map on 50
    fresh class samples (diagonal-restricted for the triangular classes).
    Raises :class:`NotLinear` / :class:`NotCanonical` / :class:`NotStarForm`
    / :class:`SingularUnit` when the box falls outside the characterized
    family.
    """
    with np.errstate(**_QUIET):
        if cls in (MatrixClass.FULL, MatrixClass.PD):
            p = _recover_two_sided(map_fn, cls, n, tol, rank_ratio_tol)
        elif cls is MatrixClass.SYMMETRIC:
            p = _recover_symmetric(map_fn, n, tol, rank_ratio_tol)
        elif cls in (MatrixClass.UPPER_TRIANGULAR, MatrixClass.DIAGONAL):
            p = _recover_diagonal(map_fn, cls, n, tol)
        else:
            raise ValueError(f"recovery not defined for class {cls.value}")
    residual = roundtrip_residual(map_fn, p, cls, n, _RESIDUAL_SAMPLES,
                                  mix_seed(_ROUNDTRIP_TAG, n))
    if residual > tol:
        raise NotCanonical(f"round-trip residual {residual:.3e} exceeds {tol:.1e}")
    return p, residual
