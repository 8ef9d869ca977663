"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's own code paths: the determinant
oracle is a literal cofactor expansion, the positive-definiteness test is
exact rational LDL^T, the singular values are 50-digit mpmath ones, and the
dual witness is the per-matrix candidate cascade scored by np.trace(A @ B).
The one exception is the determinant battery's per-pair loop, a bit-for-bit
reference for the stacked pass: it runs the library's kernels one weight pair
at a time on full matrices, as the battery did before it stacked the pairs.
"""

from fractions import Fraction

import mpmath
import numpy as np


def det_cofactor(a):
    """Determinant by first-row cofactor expansion (exponential, n <= 6)."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n == 1:
        return complex(a[0, 0])
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(a[1:, :], j, axis=1)
        total += (-1) ** j * complex(a[0, j]) * det_cofactor(minor)
    return total


def exact_pd(h, shift=Fraction(0)):
    """Whether the stored Hermitian H - shift I is positive definite, in exact arithmetic.

    LDL^T without pivoting in ``Fraction`` on the real symmetric embedding
    [[Re H, -Im H], [Im H, Re H]], which is PD exactly when H is: PD iff
    every pivot is positive.  Every float entry converts to a Fraction
    exactly, so the verdict is about the matrix as stored.
    """
    h = np.asarray(h, dtype=complex)
    e = [[Fraction(float(x)) for x in row]
         for row in np.block([[h.real, -h.imag], [h.imag, h.real]])]
    size = len(e)
    for i in range(size):
        e[i][i] -= shift
    for k in range(size):
        if e[k][k] <= 0:
            return False
        for i in range(k + 1, size):
            f = e[i][k] / e[k][k]
            for j in range(k + 1, size):
                e[i][j] -= f * e[k][j]
    return True


def singular_values_mp(a, dps=50):
    """Singular values of the stored matrix, largest first, as mpmath numbers at ``dps`` digits."""
    a = np.asarray(a, dtype=complex)
    with mpmath.workdps(dps):
        m = mpmath.matrix([[mpmath.mpc(float(z.real), float(z.imag)) for z in row] for row in a])
        return sorted(mpmath.svd_c(m, compute_uv=False), reverse=True)


def dual_witness_cascade(a, cls):
    """Dual witness of one matrix: the first candidate B, in the order
    lambda in (2, 3, 5) then candidate, with |tr(AB)| >= 1e-6 ||A||_F.

    Candidates are lambda I plus matrix units at the largest-modulus entry
    (j, k) of A (of its diagonal for the diagonal class); raises
    ``LookupError`` when none separates A.
    """
    from preserver_lab import MatrixClass

    m = np.asarray(a, dtype=complex)
    n = m.shape[0]
    if cls is MatrixClass.DIAGONAL:
        j = k = int(np.argmax(np.abs(np.diagonal(m))))
    else:
        j, k = (int(i) for i in np.unravel_index(int(np.argmax(np.abs(m))), m.shape))
    for lam in (2.0, 3.0, 5.0):
        cands = []
        if cls is MatrixClass.FULL:
            cands.append({(k, j): 1.0})
        elif cls is MatrixClass.DIAGONAL or (cls is MatrixClass.HERMITIAN and j == k):
            cands.append({(j, j): 1.0})
        elif cls is MatrixClass.SYMMETRIC:
            cands.append({(j, k): 1.0, (k, j): 1.0} if j != k else {(j, j): 2.0})
        elif cls is MatrixClass.HERMITIAN:
            cands += [{(j, k): 1.0, (k, j): 1.0}, {(j, k): 1j, (k, j): -1j}]
        for entries in cands:
            b = lam * np.eye(n, dtype=complex)
            for (r, c), x in entries.items():
                b[r, c] += x
            if abs(np.trace(m @ b)) >= 1e-6 * np.linalg.norm(m):
                return b
    raise LookupError("no candidate separates the input")


def det_battery_residuals(map_fn, cls, n, weights, samples, seed):
    """Per-sample worst residual of ``verify_det_identity``, one (s, t) pair at a time:

    for each pair taken into [1, 2), |det(s phi(A) + t phi(B)) - det phi(I) det(sA + tB)| /
    (1 + |lhs| + |rhs|) on the whole matrices (the triangular determinant reads their diagonals),
    folded by a running maximum."""
    from preserver_lab.core_linalg import determinant, scalar_residual, unit_scaled
    from preserver_lab.domains import mix_seed, sample_batch
    from preserver_lab.verifiers import _images, _lifted, _unit_det

    w = np.asarray(weights, dtype=complex).reshape(-1, 2)
    a = sample_batch(cls, n, mix_seed(seed, 0), samples)
    b = sample_batch(cls, n, mix_seed(seed, 1), samples)
    with np.errstate(over="ignore", invalid="ignore"):
        _, unit, fn = _lifted(map_fn, cls, n)
        unit_det = _unit_det(cls, unit, ValueError("singular phi(I)"))
        fa, fb = _images(fn, a), _images(fn, b)
        worst = np.zeros(samples)
        for s, t in unit_scaled(w[:, None, :])[:, 0]:
            lhs = determinant(s * fa + t * fb, cls.triangular)
            rhs = unit_det * determinant(s * a + t * b, cls.triangular)
            worst = np.maximum(worst, scalar_residual(lhs, rhs))
    return worst
