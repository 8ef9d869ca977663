"""Recovery of canonical parameters from a black-box map.

The pipeline realizes the constructive direction of the characterizations:

1. ``build_linear_rep`` samples the black box on a class basis and
   assembles the explicit n^2 x n^2 matrix acting on row-major vectorized
   input.  For the positive definite class the box is only ever evaluated
   on PD matrices (the shifted Hermitian basis); the action on matrix
   units is rebuilt by real-linear combination and complexified through
   X = H1 + i H2.  Linearity is not assumed: the representation must
   reproduce the box on fresh samples or :class:`NotLinear` is raised.

2. ``choi_matrix`` reshuffles the representation into the Choi layout
   J[(i,a),(j,b)] = [L(E_ij)]_{ab}.  J has numeric rank one exactly for
   two-sided multiplications X -> M X N, which is what ``recover`` exploits
   for the full and PD classes (precomposing with transpose to find the
   other branch).  The symmetric class instead extracts congruence columns
   from the rank-one images of E_ii, and the triangular classes match the
   diagonals of phi(I)^{-1} phi(E_kk) to standard basis vectors.

The composite index (i, a) -> i*n + a (0-based) is fixed globally; the
reshaping rules M0[a, i] = u[(i, a)], N0[j, b] = w[(j, b)] depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core_linalg import (
    determinant,
    frob,
    matrix_residual,
    numeric_rank,
    principal_root,
)
from .domains import MatrixClass, _unit, basis, mix_seed, sample
from .errors import (
    NotCanonical,
    NotLinear,
    NotRankOne,
    NotStarForm,
    SingularUnit,
)
from .preservers import CanonicalPreserver, PreserverForm, apply_preserver

__all__ = [
    "LinearRep",
    "build_linear_rep",
    "choi_matrix",
    "rank_one_split",
    "recover",
    "roundtrip_residual",
]

RANK_RATIO_TOL = 1e-7  # an order below the 1e-8 identity tolerance
_CONSISTENCY_SAMPLES = 20
_RESIDUAL_SAMPLES = 50
_CONSISTENCY_TAG = 0xC0451
_ROUNDTRIP_TAG = 0x407A11


@dataclass(eq=False)
class LinearRep:
    """Explicit matrix representation of a linear map on n x n matrices.

    ``rep`` acts on row-major vectorized matrices: vec(L(X)) = rep @ vec(X)
    with vec index (i, a) -> i*n + a.  ``consistency_residual`` is the
    largest deviation of the representation from the black box on fresh
    class samples.
    """

    n: int
    rep: np.ndarray
    consistency_residual: float
    source_class: MatrixClass

    def apply(self, x) -> np.ndarray:
        m = np.asarray(x, dtype=complex)
        return (self.rep @ m.reshape(-1)).reshape(self.n, self.n)

    def choi(self) -> np.ndarray:
        r4 = self.rep.reshape(self.n, self.n, self.n, self.n)
        # J4[i,a,j,b] = L(E_ij)[a,b] = R4[a,b,i,j]
        return r4.transpose(2, 0, 3, 1).reshape(self.n * self.n, self.n * self.n)

    def hermiticity_residual(self) -> float:
        """How far L is from commuting with conjugation (Choi Hermiticity)."""
        j = self.choi()
        return matrix_residual(j, j.conj().T)


def _columns_from_pd_basis(map_fn, n):
    """Action on matrix units from evaluations on the shifted PD basis."""
    hbasis = basis(MatrixClass.HERMITIAN, n)
    imgs = [np.asarray(map_fn(h + 2.0 * np.eye(n)), dtype=complex) for h in hbasis]
    # sum_i (E_ii + 2I) = (2n + 1) I pins the extension at the identity
    unit_img = sum(imgs[:n]) / (2.0 * n + 1.0)
    himgs = [img - 2.0 * unit_img for img in imgs]

    m = n * (n - 1) // 2
    off_index = {}
    pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            off_index[(i, j)] = pos
            pos += 1

    cols = {}
    for i in range(n):
        cols[(i, i)] = himgs[i]
    for (i, j), p in off_index.items():
        d_img = himgs[n + p]
        k_img = himgs[n + m + p]
        cols[(i, j)] = 0.5 * (d_img - 1j * k_img)
        cols[(j, i)] = 0.5 * (d_img + 1j * k_img)
    return cols


def build_linear_rep(map_fn, cls: MatrixClass, n: int, tol: float) -> LinearRep:
    """Sample the black box on a class basis and assemble its linear rep.

    Raises :class:`NotLinear` when the assembled representation deviates
    from the box by more than ``tol`` on 20 fresh class samples (e.g. for
    the norm-dependent conjugation counterexample).  For the symmetric
    class the rep is the symmetrized extension L(E_ij) = L(D_ij)/2; for
    the triangular class strict-lower units map to zero.
    """
    if cls is MatrixClass.FULL:
        cols = {(i, j): np.asarray(map_fn(_unit(n, i, j)), dtype=complex)
                for i in range(n) for j in range(n)}
    elif cls is MatrixClass.SYMMETRIC:
        cols = {}
        for i in range(n):
            cols[(i, i)] = np.asarray(map_fn(_unit(n, i, i)), dtype=complex)
        for i in range(n):
            for j in range(i + 1, n):
                d_img = np.asarray(map_fn(_unit(n, i, j) + _unit(n, j, i)), dtype=complex)
                cols[(i, j)] = 0.5 * d_img
                cols[(j, i)] = 0.5 * d_img
    elif cls is MatrixClass.UPPER_TRIANGULAR:
        zero = np.zeros((n, n), dtype=complex)
        cols = {}
        for i in range(n):
            for j in range(n):
                cols[(i, j)] = (np.asarray(map_fn(_unit(n, i, j)), dtype=complex)
                                if i <= j else zero)
    elif cls is MatrixClass.PD:
        cols = _columns_from_pd_basis(map_fn, n)
    else:
        raise ValueError(f"linear rep not defined for class {cls.value}")

    rep = np.zeros((n * n, n * n), dtype=complex)
    for (j, b), img in cols.items():
        rep[:, j * n + b] = img.reshape(-1)

    lin = LinearRep(n=n, rep=rep, consistency_residual=0.0, source_class=cls)
    worst = 0.0
    for t in range(_CONSISTENCY_SAMPLES):
        x = sample(cls, n, mix_seed(_CONSISTENCY_TAG, n, t))
        worst = max(worst, matrix_residual(lin.apply(x), map_fn(x)))
    lin.consistency_residual = worst
    if worst > tol:
        raise NotLinear(f"linear rep misses the black box by {worst:.3e} > {tol:.1e}")
    return lin


def choi_matrix(lin: LinearRep) -> np.ndarray:
    """Choi layout J[(i,a),(j,b)] = [L(E_ij)]_{ab} of a linear rep."""
    return lin.choi()


def rank_one_split(j, ratio_tol: float):
    """Balanced factors (u, w) with J = u w^T for a numerically rank-one J."""
    m = np.asarray(j, dtype=complex)
    if numeric_rank(m, ratio_tol) != 1:
        raise NotRankOne("matrix does not have numeric rank one")
    uu, ss, vh = np.linalg.svd(m)
    root = np.sqrt(ss[0])
    u = root * uu[:, 0]
    w = root * vh[0, :]
    if float(np.linalg.norm(m - np.outer(u, w))) > ratio_tol * float(np.linalg.norm(m)):
        raise NotRankOne("rank-one reconstruction residual too large")
    return u, w


def roundtrip_residual(map_fn, p: CanonicalPreserver, cls: MatrixClass, n: int,
                       samples: int, seed: int) -> float:
    """Worst scale-aware deviation between the box and the canonical map.

    Diagonal-restricted for the tn-diagonal form, whose off-diagonal
    completion is not part of the characterization.
    """
    worst = 0.0
    diag_only = p.form is PreserverForm.TN_DIAGONAL
    for t in range(samples):
        x = sample(cls, n, mix_seed(seed, t))
        y1 = np.asarray(map_fn(x), dtype=complex)
        y2 = apply_preserver(p, x)
        if diag_only:
            worst = max(worst, matrix_residual(np.diagonal(y1), np.diagonal(y2)))
        else:
            worst = max(worst, matrix_residual(y1, y2))
    return worst


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
    j = lin.choi()
    transpose = False
    if n >= 2 and numeric_rank(j, rank_tol) != 1:
        # L composed with transpose: rep[(a, b), (i, j)] -> rep[(a, b), (j, i)]
        flipped = lin.rep.reshape(n, n, n, n).transpose(0, 1, 3, 2).reshape(n * n, n * n)
        jt = replace(lin, rep=flipped).choi()
        if numeric_rank(jt, rank_tol) != 1:
            raise NotCanonical("neither Choi branch has rank one")
        j = jt
        transpose = True
    u, w = rank_one_split(j, rank_tol)
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


def _extract_rank_one_symmetric(c1, rank_tol):
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
    r4 = lin.rep.reshape(n, n, n, n)

    def img(i, j):  # L(E_ij)
        return r4[:, :, i, j]

    c_diag = [img(i, i) for i in range(n)]
    for i, c in enumerate(c_diag):
        if numeric_rank(c, rank_tol) != 1:
            raise NotCanonical(f"image of E_{i}{i} does not have rank one")
    q1 = _extract_rank_one_symmetric(c_diag[0], rank_tol)
    widx = int(np.argmax(np.abs(q1)))
    if abs(q1[widx]) < 1e-10 * np.linalg.norm(q1):
        raise NotCanonical("anchor vector is numerically isotropic")
    beta = q1[widx]
    cols = [q1]
    for jcol in range(1, n):
        c1j = img(0, jcol) + img(jcol, 0)  # = L(D_{1j})
        y = c1j[:, widx]
        gamma = y[widx] / (2.0 * beta)
        cols.append((y - gamma * q1) / beta)
    q = np.column_stack(cols)

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
    model = np.empty((n, n), dtype=complex)  # model[i, k] = [psi(E_kk)]_ii
    for k in range(n):
        img = np.asarray(map_fn(_unit(n, k, k)), dtype=complex)
        model[:, k] = np.diagonal(img) / du
    for t in range(_CONSISTENCY_SAMPLES):
        x = sample(cls, n, mix_seed(_CONSISTENCY_TAG, n, t))
        predicted = du * (model @ np.diagonal(x))
        got = np.diagonal(np.asarray(map_fn(x), dtype=complex))
        if matrix_residual(got, predicted) > tol:
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
