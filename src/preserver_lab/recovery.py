"""Recovery of canonical parameters from a black-box map.

The canonical forms are the linear maps that send rank-one matrices to
rank-one ones, and recovery reads them off O(n) images of matrix units, which
:func:`_unit_images` queries under each class's extension rule (it also feeds
:func:`build_linear_rep`).  For X -> M X N, phi(E_ij) = m_i r_j (column i of
M, row j of N), and m_j r_i for X -> M X^t N: the E_i0 images, stacked
row-wise into an n^2 x n matrix, have rank one on the plain branch, the E_0j
images on the transpose one.  M comes from that split and N from projecting
the other set onto M's first column.  The symmetric class splits the E_ii
images in one stack and takes the other congruence columns from the E_0j
images; :func:`rank_one_split` is the one rank decision.  The triangular
classes match the diagonals of phi(I)^{-1} phi(E_kk) to standard basis vectors.

:func:`recover` and :func:`build_linear_rep` read phi(I) only through :func:`verifiers._lifted`,
query the lifted map 2^k phi and scale their results back by 2^-k (a box with subnormal images has
lost bits before that and may fail).  Linearity is not assumed: before any factor is extracted,
phi(A + cB) must equal phi(A) + c phi(B) on 10 pairs of consistency samples
(:func:`verifiers._require_linear`), else :class:`NotLinear`; the triangular classes compare
diagonals here and in the round trip (:func:`verifiers._residuals`).  On PD, :func:`core_linalg.is_pd`
must accept phi(I), else :class:`NotCanonical`.  Then alpha is derived once, the principal n-th root
of det(phi(I)).  A canonical map or a :class:`LinearRep` takes each probe stack in one call
(:func:`verifiers._images`); a box queried one matrix at a time is queried 2n + 71 times on the
full, PD and symmetric classes (phi(I), 2n - 1 unit images, 21 linearity probes, 50 round-trip
probes), n + 72 on the triangular ones.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .core_linalg import _is_pd, frob, ldexp, matrix_residual, principal_root
from .domains import MatrixClass, mix_seed, sample_batch
from .errors import NotCanonical, NotLinear, NotRankOne, NotStarForm, SingularUnit
from .preservers import CanonicalPreserver, LinearRep, PreserverForm, apply_preserver
from .verifiers import (_CONSISTENCY_SAMPLES, _CONSISTENCY_TAG, _QUIET, _images, _lifted, _require_linear, _residuals,
                        _unit_det)

__all__ = [
    "build_linear_rep",
    "rank_one_split",
    "recover",
    "roundtrip_residual",
]

RANK_RATIO_TOL = 1e-7  # the one rank tolerance, an order above the 1e-8 identity tolerance
_RESIDUAL_SAMPLES = 50
_ROUNDTRIP_TAG = 0x407A11


def _unit_images(map_fn, cls: MatrixClass, n: int, rows, cols, unit=None):
    """(phi(E_ij), phi(E_ji)) for the index pairs i = rows[k] <= j = cols[k], in one stacked query.

    Full queries E_ij and E_ji; upper triangular E_ij, with phi(E_ji) = 0 below the diagonal;
    symmetric E_ii and D_ij = E_ij + E_ji, with phi(E_ij) = phi(E_ji) = phi(D_ij)/2.  PD queries
    only 2I + H and 2I + K, H = (E_ij + E_ji)/2 and K = i(E_ij - E_ji)/2, subtracts 2 phi(I)
    (``unit``) and complexifies: E_ij = H - iK, E_ji = H + iK.
    """
    units = np.eye(n * n, dtype=complex).reshape(n, n, n, n)  # units[i, j] = E_ij
    e_ij, e_ji, off = units[rows, cols], units[cols, rows], np.asarray(rows) < cols
    if cls is MatrixClass.SYMMETRIC:
        imgs = _images(map_fn, np.where(off[:, None, None], e_ij + e_ji, e_ij))
        imgs[off] *= 0.5
        return imgs, imgs
    if cls is MatrixClass.UPPER_TRIANGULAR:
        imgs = _images(map_fn, e_ij)
        return imgs, np.where(off[:, None, None], 0.0, imgs)
    pd = cls is MatrixClass.PD
    if pd:
        e_ij, e_ji = 2.0 * np.eye(n) + 0.5 * (e_ij + e_ji), 2.0 * np.eye(n) + 0.5j * (e_ij - e_ji)
    imgs = _images(map_fn, np.concatenate([e_ij, e_ji[off]])) - (2.0 * unit if pd else 0.0)
    first, second = imgs[:len(off)], np.zeros_like(e_ij)
    second[off] = imgs[len(off):]
    if pd:
        return first - 1j * second, first + 1j * second
    return first, np.where(off[:, None, None], second, first)


def build_linear_rep(map_fn, cls: MatrixClass, n: int, tol: float) -> LinearRep:
    """The whole linear map's rep, from the unit images (:func:`_unit_images`) of 2^k box.

    k is :func:`verifiers._lifted`'s exponent and the rep is scaled back by 2^-k, so c phi (c = 2^j)
    gets c times phi's rep, bit for bit, while the images stay finite and normal.  Raises
    :class:`NotLinear` when the rep misses the lifted box by more than ``tol`` on 20 fresh class
    samples, as whole matrices (e.g. the norm conjugation, non-finite values, 1e-30 (A + det(A) I)),
    relative to phi(I)'s scale (max |2^k phi(I)_ij| in [1, 2)), not to that of images far below it.
    """
    if cls not in (MatrixClass.FULL, MatrixClass.SYMMETRIC, MatrixClass.UPPER_TRIANGULAR,
                   MatrixClass.PD):
        raise ValueError(f"linear rep not defined for class {cls.value}")
    with np.errstate(**_QUIET):
        k, unit, fn = _lifted(map_fn, cls, n)
        rows, cols = np.triu_indices(n)
        r4 = np.empty((n, n, n, n), dtype=complex)  # r4[i, j] = L(E_ij)
        r4[rows, cols], r4[cols, rows] = _unit_images(fn, cls, n, rows, cols, unit)
        lin = LinearRep(n, r4.reshape(n * n, n * n).T)
        x = sample_batch(cls, n, mix_seed(_CONSISTENCY_TAG, n), _CONSISTENCY_SAMPLES)
        worst = float(np.max(matrix_residual(lin(x), _images(fn, x), axis=(-2, -1))))
    if not worst <= tol:
        raise NotLinear(f"linear rep misses the black box by {worst:.3e} > {tol:.1e}")
    return LinearRep(n, ldexp(lin.rep, -k))


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

    The probes are ``sample_batch(cls, n, seed, samples)``, and ``map_fn`` is compared as given: the
    lifted map from :func:`recover`, so relative to phi(I)'s scale, not to that of images far below it.
    On the triangular classes only the diagonals are compared (:func:`verifiers._residuals`): the
    off-diagonal completion of a tn-diagonal map is not part of the characterization.
    """
    x = sample_batch(cls, n, seed, samples)
    with np.errstate(**_QUIET):
        return float(np.max(_residuals(cls, _images(map_fn, x), apply_preserver(p, x))))


def _phase_canonical(m):
    """Rotate a global phase so the largest-modulus entry is positive real."""
    z = m.flat[np.argmax(np.abs(m))]
    if abs(z) == 0.0:
        return m, 1.0 + 0.0j
    ph = z / abs(z)
    return m * np.conj(ph), np.conj(ph)


def _sign_canonical(m):
    """Flip the sign so the largest-modulus entry has positive real part."""
    z = m.flat[np.argmax(np.abs(m))]
    if z.real < 0.0 or (z.real == 0.0 and z.imag < 0.0):
        return -m
    return m


def _recover_two_sided(map_fn, unit, alpha, cls, n, tol):
    e0j, ej0 = _unit_images(map_fn, cls, n, np.zeros(n, dtype=int), np.arange(n), unit)
    transpose, other = False, e0j
    try:  # row (i, a) of the stack is row a of phi(E_i0) = m_i r_0 on the plain branch
        u, _ = rank_one_split(ej0.reshape(n * n, n))
    except NotRankOne:
        try:  # phi(E_0j) = m_j r_0 on the transpose branch
            u, _ = rank_one_split(e0j.reshape(n * n, n))
        except NotRankOne:
            raise NotCanonical("neither the E_i0 nor the E_0j images have rank one") from None
        transpose, other = True, ej0
    m0 = u.reshape(n, n).T
    n0 = m0[:, 0].conj() @ other / np.vdot(m0[:, 0], m0[:, 0])  # row j: r_j, from other[j] = m_0 r_j
    t = np.sqrt(frob(n0) / frob(m0))  # balanced, ||M0|| = ||N0||, as one split of the whole map
    s = principal_root(1.0 / alpha, 2)
    left, right = s * (t * m0), s * (n0 / t)

    if cls is MatrixClass.PD:
        # alpha M^* X M: the left factor is the conjugate transpose of the right one (balanced)
        if not frob(left - right.conj().T) <= max(tol, 1e-8) * max(frob(left), 1e-30):
            raise NotStarForm("recovered factors are not a *-congruence pair")
        mp, _ = _phase_canonical(right)
        return CanonicalPreserver(PreserverForm.PN_CONGRUENCE, n, alpha, M=mp, transpose=transpose)
    mp, ph = _phase_canonical(left)
    return CanonicalPreserver(PreserverForm.MN_TWO_SIDED, n, alpha, M=mp, N=right / ph, transpose=transpose)


def _recover_symmetric(map_fn, unit, alpha, cls, n, tol):
    idx = np.arange(n)  # the E_ii, then the E_0j for j >= 1
    ij, ji = _unit_images(map_fn, MatrixClass.SYMMETRIC, n, np.r_[idx, 0 * idx[1:]], np.r_[idx, idx[1:]])
    try:
        u, w = rank_one_split(ij[:n])
    except NotRankOne as exc:
        raise NotCanonical(f"image of E_{exc.member}{exc.member} does not have rank one") from None
    # u[0] and w[0] are both multiples of q_1, with L(E_00) = q_1 q_1^T = u[0] w[0]^T
    k = int(np.argmax(np.abs(u[0])))
    q1 = np.sqrt(w[0, k] / u[0, k]) * u[0]
    beta = q1[k]
    y = (ij[n:, :, k] + ji[n:, :, k]).T  # y[:, j - 1] = column k of L(E_0j + E_j0)
    gamma = y[k] / (2.0 * beta)
    q = np.column_stack([q1, (y - gamma * q1[:, None]) / beta])
    return CanonicalPreserver(PreserverForm.SN_CONGRUENCE, n, alpha,
                              M=_sign_canonical(principal_root(1.0 / alpha, 2) * q))


def _recover_diagonal(map_fn, unit, alpha, cls, n, tol):
    """sigma and lambdas from the n images phi(E_kk) alone; linearity is :func:`recover`'s probe,
    and a diagonal that reads other entries fails its round trip."""
    du = np.diagonal(unit)
    imgs, _ = _unit_images(map_fn, cls, n, np.arange(n), np.arange(n))
    model = (np.diagonal(imgs, axis1=-2, axis2=-1) / du).T  # model[i, k] = [psi(E_kk)]_ii
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
    return CanonicalPreserver(PreserverForm.TN_DIAGONAL, n, alpha,
                              sigma=tuple(sigma), lambdas=du / alpha, offdiag_seed=0)


# recovery's classes (the CLI's recover choices), each to (lifted map, lifted phi(I), alpha, cls, n, tol) -> p
_EXTRACTORS = {MatrixClass.FULL: _recover_two_sided, MatrixClass.PD: _recover_two_sided,
               MatrixClass.SYMMETRIC: _recover_symmetric, MatrixClass.UPPER_TRIANGULAR: _recover_diagonal,
               MatrixClass.DIAGONAL: _recover_diagonal}


def recover(map_fn, cls: MatrixClass, n: int, tol: float = 1e-8):
    """Recover canonical parameters of a black-box map on the given class.

    Returns ``(preserver, residual)`` where ``residual`` is the worst
    scale-aware deviation between the box and the recovered map on 50
    fresh class samples (diagonal-restricted for the triangular classes).
    Raises :class:`NotLinear` / :class:`NotCanonical` / :class:`NotStarForm`
    / :class:`SingularUnit` when the box falls outside the characterized
    family, and ``ValueError``, before any query, for a class without an extractor.  The box
    is recovered as 2^k box, k the exponent from :func:`verifiers._lifted`, the one read of
    phi(I); alpha is scaled back by 2^-k and ``residual`` is the lifted one.
    """
    if cls not in _EXTRACTORS:
        raise ValueError(f"recovery not defined for class {cls.value}")
    with np.errstate(**_QUIET):
        k, unit, fn = _lifted(map_fn, cls, n)
        unit_det = _unit_det(cls, unit, SingularUnit("map(I) is not invertible"))
        _require_linear(fn, cls, n, tol)
        pd = cls is MatrixClass.PD
        if pd and not _is_pd(unit):
            raise NotCanonical("map(I) is not certified positive definite on the PD class")
        alpha = principal_root(unit_det.real if pd else unit_det, n)  # alpha^n = det phi(I)
        p = _EXTRACTORS[cls](fn, unit, alpha, cls, n, tol)
    residual = roundtrip_residual(fn, p, cls, n, _RESIDUAL_SAMPLES,
                                  mix_seed(_ROUNDTRIP_TAG, n))
    if not residual <= tol:
        raise NotCanonical(f"round-trip residual {residual:.3e} exceeds {tol:.1e}")
    return replace(p, alpha=complex(ldexp(p.alpha, -k))), residual
