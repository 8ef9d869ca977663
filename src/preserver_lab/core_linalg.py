"""Dense complex matrix kernel for desk-scale (n <= 16) matrices.

Everything operates on plain numpy ``complex128`` arrays and is a pure
function of its arguments.  It is linear algebra only: it imports no other
module of the package, and the JSON wire format lives in :mod:`jsonio`.
The stacked small-matrix kernels take one n x n matrix or any (..., n, n)
stack:

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

``hermitian_defect`` is the one Hermitian measure, ``is_pd`` the one positive-definiteness
decision and ``is_singular`` the one singularity test of a unit image phi(I); each decides on
``unit_scaled`` input (its underscored body on input already scaled), so A and 2^k A agree, and
``frob`` is the Frobenius norm at any finite scale.
``_binade``'s exponent k is the package's one power-of-two rescale (of these inputs, of weight pairs
and of phi(I) in :func:`verifiers._lifted`), applied exactly by ``ldexp`` at any k; factorizations
are LAPACK's, through numpy.  The gauge factors come from one SVD of phi(I), in
:func:`verifiers._gauge`; the one rank decision is :func:`recovery.rank_one_split`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SENTINEL",
    "finite_or",
    "unit_scaled",
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
    "is_singular",
    "ldexp",
    "principal_root",
]


def ldexp(a, k):
    """A 2^k (k an integer or an array broadcast into A's shape), ``np.ldexp`` on the real and imaginary parts:
    exact unless a result overflows or falls below the normal range; at k = 0 a float or complex A is not copied."""
    m = np.asarray(a)
    if (k if isinstance(k, int) else np.any(k)) or m.dtype.kind not in "fc":
        m = m.astype(np.result_type(m, 1.0))
        for part in (m.real, m.imag) if np.iscomplexobj(m) else (m,):
            np.ldexp(part, k, out=part)
    return m


def _binade(a, axis=None):
    """(2^k A, k), 2^k taking the largest modulus of each member over ``axis`` into [1, 2) (k kept as
    size-1 axes) from any finite nonzero scale, subnormal included; k = 0 for a zero or non-finite
    member.  k is the package's one power-of-two rescale, applied by :func:`ldexp`."""
    m = np.asarray(a)
    peak = np.max(np.abs(m), axis=axis, keepdims=True, initial=0.0)
    k = np.where((peak > 0.0) & (peak < np.inf), 1 - np.frexp(peak)[1], 0)
    return ldexp(m, k), k


def unit_scaled(a) -> np.ndarray:
    """Each member in the binade [1, 2): the input of every class decision, so A and 2^k A agree."""
    return _binade(a, (-2, -1))[0]


def frob(a, axis=None):
    """||A||_F (a float), or per member with ``axis=(-2, -1)``, taken in the binade [1, 2): it neither
    overflows nor underflows, and equals ``np.linalg.norm`` bit for bit where the squares stay normal."""
    m, k = _binade(a, axis)
    r = ldexp(np.linalg.norm(m, axis=axis), -np.squeeze(k, axis))
    return float(r) if axis is None else r


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
    one at any stack size; a member with |det| outside [2^-512, 2^512] is inverted
    in the binade [1, 2) and scaled back, so c X (c = 2^k) gets X's inverse / c,
    bit for bit.  Above, LAPACK's LU.  A singular member comes out non-finite,
    and only that member, without a numpy warning.
    """
    m = np.asarray(a, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if m.shape[-1] <= 3:
            d = np.asarray(determinant(m))[..., None, None]
            inv, r = _adjugate_small(m) / d, np.abs(d)
            if 2.0**-512 <= r.min() and r.max() <= 2.0**512:  # the products and 1 / det stay normal
                return inv
            x, k = _binade(m, (-2, -1))
            scaled = ldexp(_adjugate_small(x) / np.asarray(determinant(x))[..., None, None], k)
            return np.where((2.0**-512 <= r) & (r <= 2.0**512), inv, scaled)
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
    """||A - A^*||_F / ||A||_F of each :func:`unit_scaled` member (a float for one matrix); 0 for a zero
    member, inf if not finite."""
    with np.errstate(invalid="ignore", over="ignore"):
        return finite_or(_hermitian_defect(unit_scaled(np.asarray(a, dtype=complex))), np.inf)


def _hermitian_defect(m):
    norm = np.linalg.norm(m, axis=(-2, -1))
    return np.linalg.norm(m - m.conj().swapaxes(-1, -2), axis=(-2, -1)) / np.where(norm == 0.0, 1.0, norm)


def is_pd(a) -> bool:
    """True only when every member is finite, Hermitian within 1e-10 and passes Cholesky of A - cI.

    With c = (n + 2) eps tr(A), that success proves A positive definite at any scale (S. M. Rump,
    "Verification of positive definiteness", BIT 46, 2006).  It is decided on :func:`unit_scaled` members.
    """
    return _is_pd(unit_scaled(np.asarray(a, dtype=complex)))


def _is_pd(m) -> bool:
    if not np.isfinite(m).all() or np.any(_hermitian_defect(m) > 1e-10):
        return False
    c = (m.shape[-1] + 2) * np.finfo(float).eps * np.trace(m, axis1=-2, axis2=-1).real
    try:
        np.linalg.cholesky(m - c[..., None, None] * np.eye(m.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def is_singular(a, triangular: bool = False) -> bool:
    """min |r_ii| <= 1e-12 max |r_ii| over A = QR (A's own diagonal if ``triangular``), for some finite
    member of a stack; False if none is finite.

    sigma_min <= |r_ii| <= sigma_max of :func:`unit_scaled` A: condition below 1e12 is never singular,
    at any scale or n.
    """
    return _is_singular(unit_scaled(np.asarray(a, dtype=complex)), triangular)


def _is_singular(m, triangular: bool = False) -> bool:
    finite = np.isfinite(m).all(axis=(-2, -1))
    if m.ndim > 2:
        m = m[finite]  # a stack: its finite members
    elif not finite:
        return False
    r = np.abs(np.diagonal(m if triangular else np.linalg.qr(m, mode="raw")[0], axis1=-2, axis2=-1))
    return bool((r.min(-1) <= 1e-12 * r.max(-1)).any())


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
