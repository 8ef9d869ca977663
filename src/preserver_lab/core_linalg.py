"""Dense complex matrix kernel for desk-scale (n <= 16) matrices.

Everything operates on plain numpy ``complex128`` arrays and is a pure
function of its arguments.  The stacked small-matrix kernels take one
n x n matrix or any (..., n, n) stack:

* ``sandwich`` forms left @ X @ right as two flat gemms over the whole
  stack instead of one tiny gemm per member;
* ``trace_product`` contracts tr(XY) without forming the product stack;
* ``determinant`` uses the explicit formulas for n <= 3 and LAPACK's LU
  above, and ``inverse`` the closed-form adjugate over that determinant for
  n <= 3 and LAPACK above; a stack member's value is bit-identical to the
  single-matrix one at any stack size;
* ``adjugate`` is that closed form for n <= 3 and Stewart's SVD formula
  above, which stays well defined at (near-)singular input, where
  det(A) * inv(A) does not;
* ``scalar_residual`` and ``matrix_residual`` reduce per member, and every
  non-finite residual becomes the failing sentinel ``SENTINEL``.

``hermitian_defect`` is the one Hermitian measure and ``is_pd`` the one
positive-definiteness decision; factorizations are LAPACK's, through numpy.
"""

from __future__ import annotations

import numpy as np

from .errors import FactorizationError, NotHermitian, NotPositiveDefinite

__all__ = [
    "as_square_matrix",
    "SENTINEL",
    "finite_or",
    "frob",
    "scalar_residual",
    "matrix_residual",
    "sandwich",
    "trace_product",
    "determinant",
    "inverse",
    "adjugate",
    "hermitian_defect",
    "is_pd",
    "hermitian_eig",
    "pd_sqrt",
    "numeric_rank",
    "principal_root",
    "takagi_factor",
    "matrix_to_json",
    "matrix_from_json",
]


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and coerce ``a`` to a finite square complex128 array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"{name} must be a square n x n array, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def frob(a) -> float:
    return float(np.linalg.norm(a))


# A non-finite residual, gap or margin stands for a failed check: it is
# replaced by this value (by -SENTINEL where small values fail), so it fails
# every tolerance, survives max/min folds and serializes.
SENTINEL = 1e100


def finite_or(x, fill: float = SENTINEL):
    """``x`` with every NaN or infinity replaced by ``fill``.

    A float for scalars, an array of the same shape otherwise.
    """
    r = np.where(np.isfinite(x), x, fill)
    return float(r) if r.ndim == 0 else r


def scalar_residual(x, y):
    """Scale-aware scalar deviation |x - y| / (1 + |x| + |y|), ``SENTINEL`` if not finite.

    A float for scalars; elementwise on arrays.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return finite_or(np.abs(x - y) / (1.0 + np.abs(x) + np.abs(y)))


def matrix_residual(x, y, axis=None):
    """Scale-aware Frobenius deviation ||X - Y|| / (1 + ||X|| + ||Y||), ``SENTINEL`` if not finite.

    ``axis=None`` takes the norm over all entries and returns a float;
    ``axis=(-2, -1)`` gives one residual per member of a stack.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    return finite_or(np.linalg.norm(x - y, axis=axis) / (
        1.0 + np.linalg.norm(x, axis=axis) + np.linalg.norm(y, axis=axis)))


def sandwich(left, x, right=None) -> np.ndarray:
    """left @ X @ right (or left @ X) for one n x n matrix or every member of a stack.

    Both products run as one flat gemm over the (-1, n) rows of the whole
    stack; the left one as (X^T left^T)^T.  The result may be a transposed
    view.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    if right is not None:
        x = (x.reshape(-1, n) @ right).reshape(x.shape)
    y = x.swapaxes(-1, -2).reshape(-1, n) @ left.T
    return y.reshape(x.shape).swapaxes(-1, -2)


def trace_product(x, y):
    """tr(XY) per member, contracted without forming the product stack."""
    return np.einsum("...ij,...ji->...", x, y)


def _det2(m):
    a, b = m[..., 0, 0], m[..., 0, 1]
    c, d = m[..., 1, 0], m[..., 1, 1]
    ad = a * d
    bc = b * c
    return ad - bc


def _det3(m):
    # Every intermediate is named: numpy reuses a temporary operand in place
    # above 256 KiB, which changes the last bits of e.g. a * (e * i - f * h)
    # on large stacks and breaks stack/single-matrix bit equality.
    a, b, c = m[..., 0, 0], m[..., 0, 1], m[..., 0, 2]
    d, e, f = m[..., 1, 0], m[..., 1, 1], m[..., 1, 2]
    g, h, i = m[..., 2, 0], m[..., 2, 1], m[..., 2, 2]
    ei, fh = e * i, f * h
    di, fg = d * i, f * g
    dh, eg = d * h, e * g
    c0, c1, c2 = ei - fh, di - fg, dh - eg
    t0, t1, t2 = a * c0, b * c1, c * c2
    s = t0 - t1
    return s + t2


def determinant(a, triangular: bool = False):
    """Determinant: explicit formulas for n <= 3, LAPACK's partially pivoted LU above.

    ``triangular`` takes the product of the diagonal instead, which is exact
    for triangular input and reads only diagonal data.  A complex for one
    n x n matrix, an array of shape ``a.shape[:-2]`` for a stack; every
    member's value is bit-identical to the single-matrix one.
    """
    m = np.asarray(a, dtype=complex)
    n = m.shape[-1]
    if triangular or n == 1:
        d = np.prod(np.diagonal(m, axis1=-2, axis2=-1), axis=-1)
    elif n == 2:
        d = _det2(m)
    elif n == 3:
        d = _det3(m)
    else:
        d = np.linalg.det(m)
    return complex(d) if m.ndim == 2 else d


def _adjugate_small(m: np.ndarray) -> np.ndarray:
    """Adjugate of one matrix or of every stack member for n <= 3, in closed form.

    For n = 3 the cofactor of entry (j, i) is the 2 x 2 minor on the cyclic
    successors of j and of i, which carries its own sign.  Every operand is
    named, for the reason given in :func:`_det3`.
    """
    n = m.shape[-1]
    if n == 1:
        return np.ones_like(m)
    if n == 2:
        return m[..., ::-1, ::-1].swapaxes(-1, -2) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    s1, s2 = np.array([[1], [2], [0]]), np.array([[2], [0], [1]])
    w, x = m[..., s1, s1.T], m[..., s2, s2.T]
    y, z = m[..., s1, s2.T], m[..., s2, s1.T]
    wx = w * x
    yz = y * z
    cofactors = wx - yz
    return cofactors.swapaxes(-1, -2)


def inverse(a) -> np.ndarray:
    """Inverse of one n x n matrix or of every member of a stack.

    For n <= 3 it is the closed-form adjugate over the closed-form
    determinant, so a member's inverse is bit-identical to the single-matrix
    one at any stack size; above, LAPACK's LU.  A singular member comes out
    non-finite, and only that member, without a numpy warning.
    """
    m = np.asarray(a, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        if m.shape[-1] <= 3:
            adj = _adjugate_small(m)
            d = np.asarray(determinant(m))[..., None, None]
            return adj / d
        try:
            return np.linalg.inv(m)
        except np.linalg.LinAlgError:
            if m.ndim == 2:
                return np.full_like(m, np.nan)
            return np.stack([inverse(member) for member in m])


def adjugate(a) -> np.ndarray:
    """Adjugate Adj(A) with A @ Adj(A) = det(A) I, for one matrix or a stack.

    Closed form for n <= 3.  Above, with A = U diag(sigma) V^H, Stewart's
    formula Adj(A) = det(U V^H) V diag(prod_{j != i} sigma_j) U^H, the
    products taken from prefix and suffix products without division, so it
    holds at any rank (G. W. Stewart, "On the adjugate matrix", LAA 1998).
    A member with a non-finite entry gets an all-NaN adjugate.
    """
    m = np.asarray(a, dtype=complex)
    if m.shape[-1] <= 3:
        return _adjugate_small(m)
    bad = ~np.isfinite(m).all(axis=(-2, -1))[..., None, None]
    u, s, vh = np.linalg.svd(np.where(bad, 0.0, m))
    ones = np.ones_like(s[..., :1])
    before = np.cumprod(np.concatenate([ones, s[..., :-1]], axis=-1), axis=-1)
    after = np.cumprod(np.concatenate([ones, s[..., :0:-1]], axis=-1), axis=-1)[..., ::-1]
    phase = np.asarray(determinant(u @ vh))[..., None, None]
    v_scaled = vh.conj().swapaxes(-1, -2) * (before * after)[..., None, :]
    return np.where(bad, np.nan, phase * v_scaled @ u.conj().swapaxes(-1, -2))


def hermitian_defect(a):
    """||A - A^*||_F / (1 + ||A||_F) per member (a float for one matrix); inf where not finite."""
    m = np.asarray(a, dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):
        d = np.linalg.norm(m - m.conj().swapaxes(-1, -2), axis=(-2, -1)) / (
            1.0 + np.linalg.norm(m, axis=(-2, -1)))
    return finite_or(d, np.inf)


def is_pd(a) -> bool:
    """True only when every member is finite, Hermitian within 1e-10 and passes Cholesky of A - cI.

    With c = (n + 2) eps tr(A), that success proves A positive definite at any scale (S. M. Rump,
    "Verification of positive definiteness", BIT 46, 2006).
    """
    m = np.asarray(a, dtype=complex)
    if not np.isfinite(m).all() or np.any(hermitian_defect(m) > 1e-10):
        return False
    c = (m.shape[-1] + 2) * np.finfo(float).eps * np.trace(m, axis1=-2, axis2=-1).real
    try:
        np.linalg.cholesky(m - c[..., None, None] * np.eye(m.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def hermitian_eig(a):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` real ascending and ``v``
    unitary, so that A = v @ diag(w) @ v^*.  Raises :class:`NotHermitian`
    when the :func:`hermitian_defect` exceeds 1e-10.
    """
    if hermitian_defect(a) > 1e-10:
        raise NotHermitian("input is not Hermitian within tolerance 1e-10")
    return np.linalg.eigh(np.asarray(a, dtype=complex))


def pd_sqrt(a) -> np.ndarray:
    """Unique positive definite square root of a matrix that :func:`is_pd` accepts."""
    if not is_pd(a):
        raise NotPositiveDefinite("matrix is not certified positive definite")
    w, v = np.linalg.eigh(np.asarray(a, dtype=complex))
    s = (v * np.sqrt(w)) @ v.conj().T
    return 0.5 * (s + s.conj().T)


def numeric_rank(a, ratio_tol: float):
    """Singular values above ratio_tol * sigma_max, 0 for a zero matrix; an int or one per member."""
    if not 0.0 < ratio_tol < 1.0:
        raise ValueError(f"ratio_tol must lie in (0, 1), got {ratio_tol}")
    s = np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)
    r = np.count_nonzero(s > ratio_tol * s[..., :1], axis=-1)
    return int(r) if np.ndim(r) == 0 else r


def principal_root(z, k: int) -> complex:
    """Principal k-th root of a nonzero complex number.

    Positive real input gives the positive real root exactly.
    """
    z = complex(z)
    if z == 0:
        raise ValueError("principal root of zero is undefined here")
    if z.imag == 0.0 and z.real > 0.0:
        return complex(z.real ** (1.0 / k))
    return z ** (1.0 / k)


def takagi_factor(c, tol: float = 1e-8) -> np.ndarray:
    """Factor an invertible complex symmetric C as Q @ Q^T.

    Uses the real symmetric embedding E = [[Re C, Im C], [Im C, -Re C]]:
    E [x; y] = w [x; y] is C conj(u) = w u for u = x + i y, the spectrum of
    E is {+-sigma_k} with sigma_k the Takagi values, and the eigenvectors of
    the n positive eigenvalues give a unitary U with C = U diag(w) U^T, so
    Q = U diag(w)^{1/2}.  Raises :class:`FactorizationError` if C is
    numerically singular or the reconstruction misses by more than ``tol``.
    """
    m = as_square_matrix(c, "symmetric factor input")
    m = 0.5 * (m + m.T)
    n = m.shape[0]
    w, v = np.linalg.eigh(np.block([[m.real, m.imag], [m.imag, -m.real]]))
    if w[n] <= 1e-12 * max(w[-1], 1.0):
        raise FactorizationError("matrix is numerically singular")
    q = (v[:n, n:] + 1j * v[n:, n:]) * np.sqrt(w[n:])
    if matrix_residual(q @ q.T, m) > tol:
        raise FactorizationError("Takagi reconstruction residual exceeds tolerance")
    return q


def matrix_to_json(a) -> dict:
    """Encode a matrix as the repo-wide JSON object {"n", "re", "im"}."""
    m = as_square_matrix(a)
    return {"n": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from_json(d) -> np.ndarray:
    """Decode the {"n", "re", "im"} JSON matrix encoding."""
    if not isinstance(d, dict) or "n" not in d or "re" not in d or "im" not in d:
        raise ValueError("matrix JSON must be an object with keys n, re, im")
    n = int(d["n"])
    re = np.asarray(d["re"], dtype=float)
    im = np.asarray(d["im"], dtype=float)
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(f"matrix JSON arrays must both be {n} x {n}")
    return as_square_matrix(re + 1j * im)
