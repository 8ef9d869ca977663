"""Matrix classes, membership predicates, seeded samplers, canonical bases
and the trace dual-witness construction."""

from __future__ import annotations

from enum import Enum

import numpy as np

from .core_linalg import determinant, frob
from .errors import WitnessNotFound, ZeroInput

__all__ = [
    "MatrixClass",
    "mix_seed",
    "contains",
    "sample",
    "sample_batch",
    "sample_invertible",
    "basis",
    "dual_witness",
]

_MASK = (1 << 64) - 1


def mix_seed(*parts) -> int:
    """Deterministically mix integers into one 64-bit seed (splitmix-style)."""
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h = ((h ^ (int(p) & _MASK)) * 0xBF58476D1CE4E5B9) & _MASK
        h = ((h ^ (h >> 31)) * 0x94D049BB133111EB) & _MASK
        h ^= h >> 29
    return h


class MatrixClass(Enum):
    FULL = "full"
    HERMITIAN = "hermitian"
    PSD = "psd"
    PD = "pd"
    SYMMETRIC = "symmetric"
    UPPER_TRIANGULAR = "upper-triangular"
    DIAGONAL = "diagonal"

    @property
    def triangular(self) -> bool:
        """Upper-triangular and diagonal classes, where only diagonal data enters."""
        return self in (MatrixClass.UPPER_TRIANGULAR, MatrixClass.DIAGONAL)


_CLASS_TAG = {cls: i + 1 for i, cls in enumerate(MatrixClass)}


def contains(cls: MatrixClass, a, tol: float) -> bool:
    """Structural membership predicate within a scale-aware tolerance."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    m = np.asarray(a, dtype=complex)
    scale = 1.0 + frob(m)
    if cls is MatrixClass.FULL:
        return True
    if cls is MatrixClass.HERMITIAN:
        return float(np.linalg.norm(m - m.conj().T)) <= tol * scale
    if cls is MatrixClass.SYMMETRIC:
        return float(np.linalg.norm(m - m.T)) <= tol * scale
    if cls is MatrixClass.PD:
        if float(np.linalg.norm(m - m.conj().T)) > tol * scale:
            return False
        return float(np.linalg.eigvalsh(m)[0]) > tol
    if cls is MatrixClass.PSD:
        if float(np.linalg.norm(m - m.conj().T)) > tol * scale:
            return False
        return float(np.linalg.eigvalsh(m)[0]) >= -tol * scale
    if cls is MatrixClass.UPPER_TRIANGULAR:
        lower = np.tril(m, -1)
        return float(np.max(np.abs(lower), initial=0.0)) <= tol * scale
    if cls is MatrixClass.DIAGONAL:
        off = m - np.diag(np.diagonal(m))
        return float(np.max(np.abs(off), initial=0.0)) <= tol * scale
    raise ValueError(f"unknown class {cls}")


def _gaussian(rng, shape) -> np.ndarray:
    # Same values as (x + 1j * y) / sqrt(2), without the complex temporaries.
    g = np.empty(shape, dtype=complex)
    g.real = rng.standard_normal(shape)
    g.imag = rng.standard_normal(shape)
    g /= np.sqrt(2.0)
    return g


def _haar_unitaries(rng, count: int, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(rng, (count, n, n)))
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[np.abs(d) < 1e-300] = 1.0
    return q * (d / np.abs(d))[:, None, :]


def _invertible_diags(rng, count: int, n: int) -> np.ndarray:
    mod = rng.uniform(0.1, 10.0, size=(count, n))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(count, n))
    return mod * np.exp(1j * phase)


def _draw(cls: MatrixClass, rng, n: int, count: int) -> np.ndarray:
    """``count`` class members from ``rng``, stacked as (count, n, n)."""
    if cls is MatrixClass.PD or cls is MatrixClass.PSD:
        v = _haar_unitaries(rng, count, n)
        lo = 0.1 if cls is MatrixClass.PD else 0.0
        lam = rng.uniform(lo, 10.0, size=(count, n))
        a = (v * lam[:, None, :]) @ v.conj().swapaxes(-1, -2)
        return 0.5 * (a + a.conj().swapaxes(-1, -2))
    if cls is MatrixClass.HERMITIAN:
        g = _gaussian(rng, (count, n, n))
        return 0.5 * (g + g.conj().swapaxes(-1, -2))
    if cls is MatrixClass.SYMMETRIC:
        g = _gaussian(rng, (count, n, n))
        return 0.5 * (g + g.swapaxes(-1, -2))
    if cls is MatrixClass.UPPER_TRIANGULAR:
        g = np.triu(_gaussian(rng, (count, n, n)), 1)
        g[:, np.arange(n), np.arange(n)] = _invertible_diags(rng, count, n)
        return g
    if cls is MatrixClass.DIAGONAL:
        g = np.zeros((count, n, n), dtype=complex)
        g[:, np.arange(n), np.arange(n)] = _invertible_diags(rng, count, n)
        return g
    if cls is MatrixClass.FULL:
        return _gaussian(rng, (count, n, n))
    raise ValueError(f"unknown class {cls}")


_FULL_MIN_ABS_DET = 1e-6
_MAX_REDRAWS = 64


def sample_batch(cls: MatrixClass, n: int, seed: int, count: int,
                 min_abs_det: float | None = None) -> np.ndarray:
    """``count`` deterministic class samples for (class, n, seed), as (count, n, n).

    All members come from one counter-based Philox stream whose key is
    ``mix_seed(class tag, n, seed)``, so member ``i`` is reproduced by the
    same call and index.  PD/PSD samples come from a Haar-like unitary recombination with
    eigenvalues in [0.1, 10] (resp. [0, 10]), which caps the PD condition
    number at 100.  Members with |det| <= ``min_abs_det`` (always
    |det| <= 1e-6 for the full class) are redrawn in place from the same
    stream, at most 64 times.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=mix_seed(_CLASS_TAG[cls], n, seed)))
    out = _draw(cls, rng, n, count)
    if cls is MatrixClass.FULL:
        min_abs_det = max(min_abs_det or 0.0, _FULL_MIN_ABS_DET)
    if min_abs_det is None:
        return out
    bad = np.flatnonzero(np.abs(determinant(out, cls.triangular)) <= min_abs_det)
    for _ in range(_MAX_REDRAWS):
        if bad.size == 0:
            break
        out[bad] = _draw(cls, rng, n, bad.size)
        bad = bad[np.abs(determinant(out[bad], cls.triangular)) <= min_abs_det]
    if bad.size:
        raise RuntimeError("could not draw an invertible sample")
    return out


def sample(cls: MatrixClass, n: int, seed: int) -> np.ndarray:
    """One deterministic class sample: ``sample_batch(cls, n, seed, 1)[0]``."""
    return sample_batch(cls, n, seed, 1)[0]


def sample_invertible(cls: MatrixClass, n: int, seed: int, min_abs_det: float = 1e-6) -> np.ndarray:
    """Class sample with |det| > min_abs_det: ``sample_batch(..., 1, min_abs_det)[0]``."""
    return sample_batch(cls, n, seed, 1, min_abs_det)[0]


def _unit(n: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def basis(cls: MatrixClass, n: int) -> list[np.ndarray]:
    """Standard basis of the class (real basis for Hermitian / PD).

    Hermitian order: E_ii, then D_ij = E_ij + E_ji (i < j), then
    i(E_ij - E_ji) (i < j).  The PD basis shifts each Hermitian element by
    2I; the shifted elements are PD with minimum eigenvalue >= 1 and stay
    real-linearly independent with real span H_n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if cls is MatrixClass.FULL:
        return [_unit(n, i, j) for i in range(n) for j in range(n)]
    if cls is MatrixClass.HERMITIAN:
        out = [_unit(n, i, i) for i in range(n)]
        out += [_unit(n, i, j) + _unit(n, j, i) for i in range(n) for j in range(i + 1, n)]
        out += [1j * (_unit(n, i, j) - _unit(n, j, i)) for i in range(n) for j in range(i + 1, n)]
        return out
    if cls is MatrixClass.SYMMETRIC:
        out = [_unit(n, i, i) for i in range(n)]
        out += [_unit(n, i, j) + _unit(n, j, i) for i in range(n) for j in range(i + 1, n)]
        return out
    if cls is MatrixClass.UPPER_TRIANGULAR:
        return [_unit(n, i, j) for i in range(n) for j in range(i, n)]
    if cls is MatrixClass.DIAGONAL:
        return [_unit(n, i, i) for i in range(n)]
    if cls is MatrixClass.PD:
        eye2 = 2.0 * np.eye(n, dtype=complex)
        return [h + eye2 for h in basis(MatrixClass.HERMITIAN, n)]
    raise ValueError(f"no canonical basis implemented for class {cls.value}")


_WITNESS_LAMBDAS = (2.0, 3.0, 5.0)
_WITNESS_FLOOR = 1e-6


def dual_witness(a, cls: MatrixClass) -> np.ndarray:
    """Invertible B in the class with |tr(AB)| >= 1e-6 ||A||_F.

    Candidates follow the lambda*I + (matrix unit combination) pattern
    targeting the largest-modulus entry of A; lambda runs over {2, 3, 5},
    which avoids every excluded value of the underlying constructions.
    The first candidate clearing the margin is returned.
    """
    m = np.asarray(a, dtype=complex)
    n = m.shape[0]
    anorm = frob(m)
    if anorm <= 1e-12:
        raise ZeroInput("witness construction needs a nonzero matrix")

    if cls is MatrixClass.DIAGONAL:
        j = int(np.argmax(np.abs(np.diagonal(m))))
        k = j
    else:
        j, k = np.unravel_index(int(np.argmax(np.abs(m))), m.shape)
        j, k = int(j), int(k)

    eye = np.eye(n, dtype=complex)
    for lam in _WITNESS_LAMBDAS:
        cands = []
        if cls is MatrixClass.FULL:
            b = lam * eye.copy()
            b[k, j] += 1.0  # tr(A B) = lam tr A + a_jk
            cands.append(b)
        elif cls is MatrixClass.SYMMETRIC:
            b = lam * eye.copy()
            b[j, k] += 1.0
            b[k, j] += 1.0
            cands.append(b)
        elif cls is MatrixClass.DIAGONAL:
            b = lam * eye.copy()
            b[j, j] += 1.0
            cands.append(b)
        elif cls is MatrixClass.HERMITIAN:
            if j == k:
                b = lam * eye.copy()
                b[j, j] += 1.0
                cands.append(b)
            else:
                b1 = lam * eye.copy()
                b1[j, k] += 1.0
                b1[k, j] += 1.0  # picks up 2 Re a_jk
                b2 = lam * eye.copy()
                b2[j, k] += 1j
                b2[k, j] += -1j  # Hermitian element picking up 2 Im a_jk
                cands.extend([b1, b2])
        else:
            raise ValueError(f"dual witness not defined for class {cls.value}")
        for b in cands:
            if abs(np.trace(m @ b)) >= _WITNESS_FLOOR * anorm:
                return b
    raise WitnessNotFound("no candidate separated the input (should be unreachable)")
