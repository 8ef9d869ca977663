"""Matrix classes, membership predicates, seeded samplers as (count, n, n)
stacks, and the trace dual witness of one matrix or a stack.

Member i of a sampled stack depends only on (class, n, seed, i): each field
of a member is read from its own counter-based Philox substream (Salmon et
al., SC'11), so a shorter stack is a prefix of a longer one, bit for bit."""

from __future__ import annotations

import functools
import threading
from enum import Enum

import numpy as np

from .core_linalg import _hermitian_defect, determinant, frob, is_pd, unit_scaled
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
    """Structural membership of one n x n matrix within ``tol`` relative to ||A||_F; PD is :func:`is_pd`
    of the Hermitian part.

    A matrix with a NaN or infinite entry is a member of no class; any other shape is a ValueError.  It is
    decided on :func:`core_linalg.unit_scaled` A, so A and 2^k A are members of the same classes.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"contains takes one n x n matrix, got shape {m.shape}")
    m = unit_scaled(m)
    if not np.isfinite(m).all():
        return False
    scale = float(np.linalg.norm(m))  # frob's value, m being in the binade [1, 2) already
    if cls in (MatrixClass.HERMITIAN, MatrixClass.PD, MatrixClass.PSD) and not _hermitian_defect(m) <= tol:
        return False
    if cls in (MatrixClass.FULL, MatrixClass.HERMITIAN):
        return True
    if cls is MatrixClass.SYMMETRIC:
        return frob(m - m.T) <= tol * scale
    if cls is MatrixClass.PD:
        return is_pd(0.5 * (m + m.conj().T))
    if cls is MatrixClass.PSD:
        return float(np.linalg.eigvalsh(m)[0]) >= -tol * scale
    if cls is MatrixClass.UPPER_TRIANGULAR:
        lower = np.tril(m, -1)
        return float(np.max(np.abs(lower), initial=0.0)) <= tol * scale
    if cls is MatrixClass.DIAGONAL:
        off = m - np.diag(np.diagonal(m))
        return float(np.max(np.abs(off), initial=0.0)) <= tol * scale
    raise ValueError(f"unknown class {cls}")


# Field substreams: the high word of the Philox key names the field, and a redraw of member i at
# attempt a >= 1 reads its field from counter (0, 0, i, a); attempt 0 is one member-major block
# for the whole stack, so member i depends only on (class, n, seed, i).
_NORMALS, _UNIFORMS = 1, 2
_SQRT_HALF = np.sqrt(0.5)
_local = threading.local()


def _stream(key: int, field: int, member: int = 0, attempt: int = 0) -> np.random.Generator:
    """This thread's Generator, re-keyed to ``Philox(counter=(0, 0, member, attempt), key=key + 2^64 field)``.

    Setting the state builds no BitGenerator and draws no OS entropy."""
    if not hasattr(_local, "gen"):
        _local.gen = np.random.Generator(np.random.Philox(key=0))
        _local.state = _local.gen.bit_generator.state  # counter 0, empty buffer
    state = _local.state
    state["state"]["counter"][2:] = member, attempt
    state["state"]["key"][:] = key, field
    _local.gen.bit_generator.state = state
    return _local.gen


def _normals(key: int, member: int, attempt: int, count: int, width: int) -> np.ndarray:
    """(count, width) standard normals from the Gaussian substream, member-major."""
    z = np.empty((count, width))
    _stream(key, _NORMALS, member, attempt).standard_normal(out=z)
    return z


@functools.cache
def _layout(cls: MatrixClass, n: int) -> np.ndarray:
    """Where each entry of an n x n member of a Hermitian, symmetric or triangular class comes from,
    row-major, as an index into its free entries: the strict upper triangle, then its conjugate (on
    the Hermitian class), then the diagonal, then one zero (on the triangular classes)."""
    rows, cols = np.triu_indices(n, 1)
    upper = np.arange(0 if cls is MatrixClass.DIAGONAL else rows.size)
    first_diag = 2 * upper.size if cls is MatrixClass.HERMITIAN else upper.size
    index = np.full((n, n), first_diag + n, dtype=np.intp)  # the zero slot
    if upper.size:
        index[rows, cols] = upper
        if cls is MatrixClass.SYMMETRIC:
            index[cols, rows] = upper
        elif cls is MatrixClass.HERMITIAN:
            index[cols, rows] = upper.size + upper
    diag = np.arange(n)
    index[diag, diag] = first_diag + diag
    return index.ravel()


def _haar_spectrum(g, lam) -> np.ndarray:
    """V diag(lam) V^* per member, V Haar unitary: lam_n I + sum_{j<n} (lam_j - lam_n) q_j q_j^*,
    q_j the orthonormalized columns of the (count, n, n - 1) Ginibre stack ``g``.

    V diag(lam) V^* does not depend on column phases, so the columns come from LAPACK's QR for
    n >= 4 and from Gram-Schmidt twice (Giraud et al. 2005) for n <= 3, with no LAPACK or BLAS call,
    so those bytes do not depend on the BLAS kernel.  Every intermediate is named: numpy reuses a
    temporary operand in place above 256 KiB, which would change the last bits on large stacks.
    """
    count, n = lam.shape
    last = lam[:, -1]
    weight = lam[:, :-1] - last[:, None]
    a = np.zeros((count, n, n), dtype=complex)
    a[:, np.arange(n), np.arange(n)] = last[:, None]
    if n >= 4:
        q = np.linalg.qr(g)[0]
        qw = q * weight[:, None, :]
        a += qw @ q.conj().swapaxes(-1, -2)
    else:
        done = []  # (q, q^*) of each orthonormalized column
        for j in range(n - 1):
            v = g[:, :, j]
            for _ in range(2):  # "twice is enough"
                for q, qc in done:
                    p = qc * v
                    dot = p[:, 0]
                    for k in range(1, n):
                        dot = dot + p[:, k]
                    proj = q * dot[:, None]
                    v = v - proj
            re, im = v.real, v.imag
            sq = re * re
            sq += im * im
            nsq = sq[:, 0]
            for k in range(1, n):
                nsq = nsq + sq[:, k]
            scale = 1.0 / np.sqrt(nsq)
            q = v * scale[:, None]
            qc = q.conj()
            done.append((q, qc))
            outer = q[:, :, None] * qc[:, None, :]
            term = outer * weight[:, j, None, None]
            a += term
    a += a.conj().swapaxes(-1, -2)
    a *= 0.5
    return a


def _draw(cls: MatrixClass, n: int, key: int, count: int, member: int = 0, attempt: int = 0) -> np.ndarray:
    """``count`` class members, stacked as (count, n, n), from the field substreams of ``key``.

    Only free entries are drawn: n^2 complex Gaussians on the full class, the first n - 1 Ginibre
    columns on PD/PSD, the upper triangle on the Hermitian and symmetric classes (real diagonal on
    the Hermitian one) and the strict upper triangle on the upper-triangular class; the uniform field
    holds the PD/PSD eigenvalues or the diagonal moduli and phases.  Each entry has the distribution
    of a complex Gaussian of unit variance symmetrized as 0.5 (G + G^*) or 0.5 (G + G^t).
    """
    if cls is MatrixClass.FULL:
        z = _normals(key, member, attempt, count, 2 * n * n)
        z *= _SQRT_HALF
        return z.view(complex).reshape(count, n, n)
    if cls is MatrixClass.PD or cls is MatrixClass.PSD:  # the columns are normalized: no scaling
        z = _normals(key, member, attempt, count, 2 * n * (n - 1))
        lo = 0.1 if cls is MatrixClass.PD else 0.0
        lam = _stream(key, _UNIFORMS, member, attempt).random((count, n))
        lam *= 10.0 - lo
        lam += lo
        return _haar_spectrum(z.view(complex).reshape(count, n, n - 1), lam)
    m = n * (n - 1)  # reals of the strict upper triangle
    if cls is MatrixClass.HERMITIAN:
        z = _normals(key, member, attempt, count, m + n)
        z[:, :m] *= 0.5
        z[:, m:] *= _SQRT_HALF
        upper = z[:, :m].view(complex)
        free = np.concatenate([upper, upper.conj(), z[:, m:]], axis=1)
    elif cls is MatrixClass.SYMMETRIC:
        z = _normals(key, member, attempt, count, m + 2 * n)
        z[:, :m] *= 0.5
        z[:, m:] *= _SQRT_HALF
        free = z.view(complex)
    else:
        z = _normals(key, member, attempt, count, 0 if cls is MatrixClass.DIAGONAL else m)
        z *= _SQRT_HALF
        u = _stream(key, _UNIFORMS, member, attempt).random((count, 2 * n))
        diagonal = (0.1 + 9.9 * u[:, :n]) * np.exp(2j * np.pi * u[:, n:])
        free = np.concatenate([z.view(complex), diagonal, np.zeros((count, 1), dtype=complex)], axis=1)
    return free[:, _layout(cls, n)].reshape(count, n, n)


_MIN_ABS_DET = 1e-6  # the invertible-sample threshold: every full draw, and trace-inverse's B
_MAX_REDRAWS = 64


def sample_batch(cls: MatrixClass, n: int, seed: int, count: int,
                 min_abs_det: float | None = None) -> np.ndarray:
    """``count`` deterministic class samples for (class, n, seed), as (count, n, n).

    Member ``i`` depends only on (class, n, seed, i), so ``sample_batch(..., count)[:k]`` equals
    ``sample_batch(..., k)`` bit for bit.  The key is ``mix_seed(class tag, n, seed)``, and each
    field (the Gaussian entries; the PD/PSD eigenvalues or the triangular diagonals) is its own Philox
    substream, drawn member-major.  PD/PSD samples are V diag(lam) V^* with V Haar unitary and
    eigenvalues in [0.1, 10] (resp. [0, 10]), which caps the PD condition number at 100; at n <= 3
    they are formed without LAPACK or BLAS.  Members with |det| <= ``min_abs_det`` (always
    |det| <= 1e-6 for the full class) are redrawn, at most 64 times; attempt ``a`` of member ``i`` is
    keyed by (i, a) alone.  A ``count`` below 1 is a ValueError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if count < 1:
        raise ValueError("samples must be >= 1")
    key = mix_seed(_CLASS_TAG[cls], n, seed)
    out = _draw(cls, n, key, count)
    if cls is MatrixClass.FULL:
        min_abs_det = max(min_abs_det or 0.0, _MIN_ABS_DET)
    if min_abs_det is None:
        return out
    bad = np.flatnonzero(np.abs(determinant(out, cls.triangular)) <= min_abs_det)
    for attempt in range(1, _MAX_REDRAWS + 1):
        if bad.size == 0:
            break
        out[bad] = np.concatenate([_draw(cls, n, key, 1, int(i), attempt) for i in bad])
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
    class member is separated, at any scale; a zero member raises :class:`ZeroInput`, a non-member
    that no candidate separates :class:`WitnessNotFound` (naming it), and a non-square shape ValueError.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"dual_witness takes an n x n matrix or a stack of them, got shape {m.shape}")
    n = m.shape[-1]
    x = unit_scaled(m.reshape(-1, n, n))  # the margins and B are the same for A and 2^k A
    anorm = np.linalg.norm(x, axis=(-2, -1))  # frob's value, x being in the binade [1, 2) already
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
