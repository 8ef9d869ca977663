"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's own code paths: the determinant
oracle is a literal cofactor expansion, the Gram test works entrywise,
the projection test solves the normal equations directly, the
positive-definiteness test is exact rational LDL^T, and the dual witness
is the per-matrix candidate cascade scored by np.trace(A @ B).
"""

from fractions import Fraction

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


def real_gram(mats):
    """Gram matrix under the real inner product <X, Y> = Re tr(X^* Y)."""
    k = len(mats)
    g = np.empty((k, k), dtype=float)
    for i in range(k):
        for j in range(k):
            g[i, j] = float(np.trace(mats[i].conj().T @ mats[j]).real)
    return g


def project_real_span(mats, target):
    """Best real-linear combination of ``mats`` approximating ``target``."""
    g = real_gram(mats)
    b = np.array([float(np.trace(m.conj().T @ target).real) for m in mats])
    coeff = np.linalg.solve(g, b)
    out = np.zeros_like(np.asarray(target, dtype=complex))
    for c, m in zip(coeff, mats):
        out = out + c * m
    return out


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
