"""Matrix classes, membership predicates, seeded samplers as (count, n, n)
stacks, and the trace dual witness of one matrix or a stack."""

from __future__ import annotations

from enum import Enum

import numpy as np

from .core_linalg import determinant, frob, hermitian_defect, is_pd, unit_scaled
from .errors import WitnessNotFound, ZeroInput

__all__ = [
    "MatrixClass",
    "mix_seed",
    "contains",
    "sample",
    "sample_batch",
    "sample_invertible",
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
    """Structural membership within ``tol`` relative to ||A||_F; PD is :func:`is_pd` of the Hermitian part.

    A matrix with a NaN or infinite entry is a member of no class.  It is decided on
    :func:`core_linalg.unit_scaled` A, so A and 2^k A are members of the same classes.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    m = unit_scaled(np.asarray(a, dtype=complex))
    if not np.isfinite(m).all():
        return False
    scale = frob(m)
    if cls is MatrixClass.FULL:
        return True
    if cls is MatrixClass.HERMITIAN:
        return hermitian_defect(m) <= tol
    if cls is MatrixClass.SYMMETRIC:
        return frob(m - m.T) <= tol * scale
    if cls is MatrixClass.PD:
        return hermitian_defect(m) <= tol and is_pd(0.5 * (m + m.conj().T))
    if cls is MatrixClass.PSD:
        return hermitian_defect(m) <= tol and float(np.linalg.eigvalsh(m)[0]) >= -tol * scale
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


def _invertible_diags(rng, count: int, n: int) -> np.ndarray:
    mod = rng.uniform(0.1, 10.0, size=(count, n))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(count, n))
    return mod * np.exp(1j * phase)


def _draw(cls: MatrixClass, rng, n: int, count: int) -> np.ndarray:
    """``count`` class members from ``rng``, stacked as (count, n, n)."""
    if cls is MatrixClass.PD or cls is MatrixClass.PSD:
        # V diag(lam) V^* is unchanged by V -> V D for diagonal unitary D, so
        # the unitary factor of the QR needs no phase correction.
        v = np.linalg.qr(_gaussian(rng, (count, n, n)))[0]
        lo = 0.1 if cls is MatrixClass.PD else 0.0
        lam = rng.uniform(lo, 10.0, size=(count, n))
        a = (v * lam[:, None, :]) @ v.conj().swapaxes(-1, -2)
        a += a.conj().swapaxes(-1, -2)
        a *= 0.5
        return a
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


_MIN_ABS_DET = 1e-6  # the invertible-sample threshold: every full draw, and trace-inverse's B
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
    stream, at most 64 times.  A ``count`` below 1 is a ValueError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if count < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=mix_seed(_CLASS_TAG[cls], n, seed)))
    out = _draw(cls, rng, n, count)
    if cls is MatrixClass.FULL:
        min_abs_det = max(min_abs_det or 0.0, _MIN_ABS_DET)
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


def sample_invertible(cls: MatrixClass, n: int, seed: int, min_abs_det: float = _MIN_ABS_DET) -> np.ndarray:
    """Class sample with |det| > min_abs_det: ``sample_batch(..., 1, min_abs_det)[0]``."""
    return sample_batch(cls, n, seed, 1, min_abs_det)[0]


_WITNESS_LAMBDAS = np.array([2.0, 3.0, 5.0])
_WITNESS_FLOOR = 1e-6
# (v, w) per candidate lambda I + v E_jk + w E_kj; a Hermitian diagonal pivot uses E_jj alone.
_WITNESS_UNITS = {
    MatrixClass.FULL: [(0, 1)],
    MatrixClass.DIAGONAL: [(1, 0)],
    MatrixClass.SYMMETRIC: [(1, 1)],  # lambda + 2 on a diagonal pivot
    MatrixClass.HERMITIAN: [(1, 1), (1j, -1j)],  # picks up 2 Re a_jk, then 2 Im a_jk
}


def dual_witness(a, cls: MatrixClass) -> np.ndarray:
    """Invertible B in the class with |tr(AB)| >= 1e-6 ||A||_F, for one matrix or each stack member.

    Candidates are lambda I + v E_jk + w E_kj, pivoting on the
    largest-modulus entry a_jk of each member (the largest diagonal entry
    for the diagonal class), so tr(AB) = lambda tr A + v a_kj + w a_jk in
    closed form.  lambda runs over {2, 3, 5}, which avoids every excluded
    value of the underlying constructions, and each member gets the first
    candidate clearing the margin.  B has the shape of ``a``.  Every nonzero
    class member is separated, at any scale; a zero member raises :class:`ZeroInput`,
    and a non-member that no candidate separates :class:`WitnessNotFound`, which names it.
    """
    m = np.asarray(a, dtype=complex)
    n = m.shape[-1]
    x = unit_scaled(m.reshape(-1, n, n))  # the margins and B are the same for A and 2^k A
    anorm = frob(x, (-2, -1))
    if np.any(anorm == 0.0):
        raise ZeroInput("witness construction needs a nonzero matrix")
    if cls not in _WITNESS_UNITS:
        raise ValueError(f"dual witness not defined for class {cls.value}")

    rows = np.arange(len(x))
    if cls is MatrixClass.DIAGONAL:
        j = k = np.argmax(np.abs(np.diagonal(x, axis1=-2, axis2=-1)), axis=-1)
    else:
        j, k = np.unravel_index(np.argmax(np.abs(x).reshape(len(x), n * n), axis=-1), (n, n))
    pairs = np.array(_WITNESS_UNITS[cls], dtype=complex)
    v, w = np.broadcast_to(pairs.T[:, None, :], (2, len(x), len(pairs)))
    if cls is MatrixClass.HERMITIAN:
        on_diag = (j == k)[:, None]
        v, w = np.where(on_diag, 1, v), np.where(on_diag, 0, w)
    margin = (_WITNESS_LAMBDAS[:, None, None] * np.trace(x, axis1=-2, axis2=-1)[:, None]
              + v * x[rows, k, j][:, None] + w * x[rows, j, k][:, None])
    # each member's (lambda, candidate) flags in cascade order; argmax takes the first that passes
    passed = (np.abs(margin) >= _WITNESS_FLOOR * anorm[:, None]).swapaxes(0, 1).reshape(len(x), -1)
    unseparated = np.flatnonzero(~passed.any(axis=-1))
    if unseparated.size:
        # only a non-member can get here: its class's witnesses read too little of it
        read = "diagonal" if cls is MatrixClass.DIAGONAL else "trace and pivot pair"
        raise WitnessNotFound(f"member {unseparated[0]} is not a {cls.value} matrix: its {read} "
                              "is below the 1e-6 ||A||_F floor for every candidate")
    lam, cand = np.divmod(np.argmax(passed, axis=-1), len(pairs))
    b = _WITNESS_LAMBDAS[lam, None, None] * np.eye(n, dtype=complex)
    b[rows, j, k] += v[rows, cand]
    b[rows, k, j] += w[rows, cand]
    return b.reshape(m.shape)
