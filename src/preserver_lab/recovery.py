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
   for the full and PD classes (the transpose branch reshuffles J).  The
   symmetric class runs one stacked rank test on the images of E_ii and
   takes congruence columns from its factors; :func:`rank_one_split` is the
   one rank decision.  The triangular classes match the diagonals of
   phi(I)^{-1} phi(E_kk) to standard basis vectors.

The composite index (i, a) -> i*n + a (0-based) is fixed globally; the
reshaping rules M0[a, i] = u[(i, a)], N0[j, b] = w[(j, b)] depend on it.

Basis images and the consistency and round-trip probes are one stack each,
evaluated through :func:`verifiers._images`: a canonical map or a
:class:`LinearRep` takes each stack in one call, and a black box queried one
matrix at a time is queried n^2 + 71 times for the full and PD classes
(basis, 20 consistency probes, the unit, 50 round-trip probes).
"""

from __future__ import annotations

from dataclasses import replace
from functools import wraps

import numpy as np

from .core_linalg import determinant, frob, is_singular, matrix_residual, principal_root, unit_lift
from .domains import MatrixClass, basis, mix_seed, sample_batch
from .errors import NotCanonical, NotLinear, NotRankOne, NotStarForm, SingularUnit
from .preservers import CanonicalPreserver, LinearRep, PreserverForm, apply_preserver
from .verifiers import _QUIET, _images

__all__ = [
    "build_linear_rep",
    "rank_one_split",
    "recover",
    "roundtrip_residual",
]

RANK_RATIO_TOL = 1e-7  # the one rank tolerance, an order above the 1e-8 identity tolerance
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
    if not worst <= tol:
        raise NotLinear(f"linear rep misses the black box by {worst:.3e} > {tol:.1e}")
    return lin


def rank_one_split(j):
    """Balanced factors (u, w) with J = u w^T, for one matrix or each member of a stack, from one SVD.

    A member passes iff sigma_1 > 0 and ||(sigma_2, sigma_3, ...)|| <= RANK_RATIO_TOL sigma_1: its
    distance to the best rank-one approximation (Eckart-Young).  The first failing member raises
    :class:`NotRankOne`; u and w keep the input's leading shape.
    """
    uu, ss, vh = np.linalg.svd(np.asarray(j, dtype=complex))
    s1 = ss[..., 0]
    bad = np.flatnonzero(~((s1 > 0.0) & (np.linalg.norm(ss[..., 1:], axis=-1) <= RANK_RATIO_TOL * s1)))
    if bad.size:
        where = f"stack member {bad[0]}" if ss.ndim > 1 else "matrix"
        raise NotRankOne(f"{where} does not have numeric rank one", int(bad[0]))
    root = np.sqrt(s1)[..., None]
    return root * uu[..., :, 0], root * vh[..., 0, :]


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


def _recover_two_sided(map_fn, unit_det, cls, n, tol):
    j = build_linear_rep(map_fn, cls, n, tol).choi()
    transpose = False
    try:
        u, w = rank_one_split(j)
    except NotRankOne:
        # L composed with transpose: J'[(i, a), (j, b)] = J[(j, a), (i, b)]
        try:
            u, w = rank_one_split(j.reshape(n, n, n, n).transpose(2, 1, 0, 3).reshape(n * n, n * n))
        except NotRankOne:
            raise NotCanonical("neither Choi branch has rank one") from None
        transpose = True
    m0 = u.reshape(n, n).T
    n0 = w.reshape(n, n)

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
        if not frob(left - right.conj().T) <= max(tol, 1e-8) * max(frob(left), 1e-30):
            raise NotStarForm("recovered factors are not a *-congruence pair")
        mp, _ = _phase_canonical(right)
        p = CanonicalPreserver(PreserverForm.PN_CONGRUENCE, n, alpha, M=mp, transpose=transpose)
    else:
        mp, ph = _phase_canonical(left)
        p = CanonicalPreserver(PreserverForm.MN_TWO_SIDED, n, alpha,
                               M=mp, N=right / ph, transpose=transpose)
    return p


def _recover_symmetric(map_fn, unit_det, n, tol):
    r4 = build_linear_rep(map_fn, MatrixClass.SYMMETRIC, n, tol).rep.reshape(n, n, n, n)
    diag = np.arange(n)  # r4[:, :, i, j] = L(E_ij)
    try:
        u, w = rank_one_split(np.moveaxis(r4[:, :, diag, diag], -1, 0))
    except NotRankOne as exc:
        raise NotCanonical(f"image of E_{exc.member}{exc.member} does not have rank one") from None
    # u[0] and w[0] are both multiples of q_1, with L(E_00) = q_1 q_1^T = u[0] w[0]^T
    k = int(np.argmax(np.abs(u[0])))
    q1 = np.sqrt(w[0, k] / u[0, k]) * u[0]
    beta = q1[k]
    y = r4[:, k, 0, 1:] + r4[:, k, 1:, 0]  # y[:, j - 1] = column k of L(E_0j + E_j0)
    gamma = y[k] / (2.0 * beta)
    q = np.column_stack([q1, (y - gamma * q1[:, None]) / beta])

    alpha = principal_root(unit_det, n)
    p_mat = principal_root(1.0 / alpha, 2) * q
    p_mat = _sign_canonical(p_mat)
    return CanonicalPreserver(PreserverForm.SN_CONGRUENCE, n, alpha, M=p_mat)


def _recover_diagonal(map_fn, unit, unit_det, cls, n, tol):
    du = np.diagonal(unit)
    imgs = _images(map_fn, basis(MatrixClass.DIAGONAL, n))
    model = (np.diagonal(imgs, axis1=-2, axis2=-1) / du).T  # model[i, k] = [psi(E_kk)]_ii
    x = sample_batch(cls, n, mix_seed(_CONSISTENCY_TAG, n), _CONSISTENCY_SAMPLES)
    predicted = du * (np.diagonal(x, axis1=-2, axis2=-1) @ model.T)
    got = np.diagonal(_images(map_fn, x), axis1=-2, axis2=-1)
    if not np.max(matrix_residual(got, predicted, axis=-1)) <= tol:
        raise NotLinear("diagonal action is not linear in the input diagonal")

    sigma = [-1] * n
    for k in range(n):
        col = model[:, k]
        m = int(np.argmax(np.abs(col)))
        # fail-closed: a NaN entry or tolerance never matches
        if not np.all(np.abs(col - np.eye(n)[m]) <= max(tol, 1e-10)):
            raise NotCanonical(f"psi(E_{k}{k}) diagonal does not match a standard basis vector")
        if sigma[m] != -1:
            raise NotCanonical("diagonal matching is not a permutation")
        sigma[m] = k
    alpha = principal_root(unit_det, n)
    lambdas = du / alpha
    return CanonicalPreserver(PreserverForm.TN_DIAGONAL, n, alpha,
                              sigma=tuple(sigma), lambdas=lambdas, offdiag_seed=0)


def recover(map_fn, cls: MatrixClass, n: int, tol: float = 1e-8):
    """Recover canonical parameters of a black-box map on the given class.

    Returns ``(preserver, residual)`` where ``residual`` is the worst
    scale-aware deviation between the box and the recovered map on 50
    fresh class samples (diagonal-restricted for the triangular classes).
    Raises :class:`NotLinear` / :class:`NotCanonical` / :class:`NotStarForm`
    / :class:`SingularUnit` when the box falls outside the characterized
    family.  A box below unit scale is recovered as lift * box (lift from
    :func:`core_linalg.unit_lift`, exact), and ``residual`` is the lifted one.
    """
    with np.errstate(**_QUIET):
        unit = np.asarray(map_fn(np.eye(n, dtype=complex)), dtype=complex)
        if is_singular(unit, cls.triangular):
            raise SingularUnit("map(I) is not invertible")
        lift = unit_lift(unit)  # wraps keeps the box stack-capable where it is (verifiers._images)
        fn = map_fn if lift == 1.0 else wraps(map_fn)(lambda a: lift * np.asarray(map_fn(a), dtype=complex))
        unit_det = determinant(lift * unit, cls.triangular)
        if cls in (MatrixClass.FULL, MatrixClass.PD):
            p = _recover_two_sided(fn, unit_det, cls, n, tol)
        elif cls is MatrixClass.SYMMETRIC:
            p = _recover_symmetric(fn, unit_det, n, tol)
        elif cls in (MatrixClass.UPPER_TRIANGULAR, MatrixClass.DIAGONAL):
            p = _recover_diagonal(fn, lift * unit, unit_det, cls, n, tol)
        else:
            raise ValueError(f"recovery not defined for class {cls.value}")
    residual = roundtrip_residual(fn, p, cls, n, _RESIDUAL_SAMPLES,
                                  mix_seed(_ROUNDTRIP_TAG, n))
    if not residual <= tol:
        raise NotCanonical(f"round-trip residual {residual:.3e} exceeds {tol:.1e}")
    return replace(p, alpha=p.alpha / lift), residual
