"""Tests for the dense matrix kernel."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preserver_lab import (
    NotHermitian,
    NotPositiveDefinite,
    FactorizationError,
    adjugate,
    determinant,
    hermitian_eig,
    inverse,
    matrix_from_json,
    matrix_residual,
    matrix_to_json,
    numeric_rank,
    pd_sqrt,
    principal_root,
    takagi_factor,
)
from preserver_lab.core_linalg import hermitian_defect, is_pd
from preserver_lab.domains import MatrixClass, sample, sample_batch

from oracles import det_cofactor, exact_pd

# Indefinite, with exact det -1002.7 as stored, but eigvalsh puts its lowest
# eigenvalue at +2.4e-7: an absolute eigenvalue threshold calls it PD.
INDEFINITE_PAST_EIGVALSH = np.array(
    [[3433196802.4556975, 2022615014.5701785 + 2057734377.0118203j],
     [2022615014.5701785 - 2057734377.0118203j, 2424924273.9437675]])
NON_FINITE = [np.full((2, 2), np.nan), np.diag([np.inf, 1.0]),
              np.array([[1.0, np.inf], [0.0, 1.0]]), np.array([[1.0, np.nan], [np.nan, 1.0]])]


def _rand_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestDeterminant:
    def test_identity(self):
        assert determinant(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal_product(self):
        assert determinant(np.diag([1.0, 2.0])) == pytest.approx(2.0)

    def test_matches_cofactor_oracle(self):
        rng = np.random.default_rng(42)
        a = _rand_complex(rng, 4)
        expected = det_cofactor(a)
        assert abs(determinant(a) - expected) <= 1e-10 * abs(expected)

    def test_exact_for_n1(self):
        z = 3.25 - 1.5j
        assert determinant(np.array([[z]])) == z

    def test_triangular_is_diagonal_product(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            t = np.triu(_rand_complex(rng, n))
            expected = complex(np.prod(np.diagonal(t)))
            assert abs(determinant(t) - expected) <= 1e-10 * (1 + abs(expected))


    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3, 5):
            stack = rng.standard_normal((4, 3, n, n)) + 1j * rng.standard_normal((4, 3, n, n))
            got = determinant(stack)
            assert got.shape == (4, 3)
            assert np.array_equal(got, [[determinant(m) for m in row] for row in stack])
        # past numpy's 256 KiB temporary-elision threshold (16384 members)
        for n in (2, 3):
            stack = rng.standard_normal((20000, n, n)) + 1j * rng.standard_normal((20000, n, n))
            assert np.array_equal(determinant(stack), [determinant(m) for m in stack])

    def test_triangular_reads_only_the_diagonal(self):
        rng = np.random.default_rng(9)
        stack = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
        got = determinant(stack, triangular=True)
        assert np.array_equal(got, np.prod(np.diagonal(stack, axis1=1, axis2=2), axis=1))
        assert determinant(stack[0], triangular=True) == complex(got[0])


class TestAdjugate:
    def test_identity(self):
        for n in (1, 2, 5):
            assert np.allclose(adjugate(np.eye(n)), np.eye(n))

    def test_diag_example(self):
        b = np.diag([1.0, 2.0])
        adj = adjugate(b)
        assert np.allclose(adj, np.diag([2.0, 1.0]))
        # tr(B Adj B) = n det B
        assert np.trace(b @ adj) == pytest.approx(4.0)

    def test_product_check_random(self):
        rng = np.random.default_rng(3)
        a = _rand_complex(rng, 5)
        d = determinant(a)
        res = np.linalg.norm(a @ adjugate(a) - d * np.eye(5)) / abs(d)
        assert res <= 1e-9

    def test_product_invariant_including_singular(self):
        rng = np.random.default_rng(11)
        for k in range(30):
            n = int(rng.integers(1, 8))
            a = _rand_complex(rng, n)
            if k % 5 == 0 and n >= 2:
                a[:, -1] = a[:, 0]  # force singularity
            d = determinant(a)
            res = np.linalg.norm(a @ adjugate(a) - d * np.eye(n))
            assert res <= 1e-9 * (1.0 + np.linalg.norm(a) ** n)

    @pytest.mark.parametrize("n", [4, 5, 8, 16])
    def test_product_invariant_by_rank(self, n):
        rng = np.random.default_rng(n)
        for rank in (n, n - 1, n - 2):
            a = _rand_complex(rng, n)[:, :rank] @ _rand_complex(rng, n)[:rank]
            scale = (1.0 + np.linalg.norm(a)) ** n
            res = np.linalg.norm(a @ adjugate(a) - determinant(a) * np.eye(n))
            assert res <= 1e-13 * scale, rank
            sv = np.linalg.svd(adjugate(a), compute_uv=False)
            if rank == n - 1:  # the adjugate has rank one
                assert sv[1] <= 1e-12 * sv[0]
            elif rank == n - 2:  # and vanishes below
                assert np.linalg.norm(sv) <= 1e-13 * (1.0 + np.linalg.norm(a)) ** (n - 1)

    def test_matches_cofactor_oracle(self):
        rng = np.random.default_rng(6)
        for n in (4, 5, 6):
            for rank in (n, n - 1, n - 2):
                a = _rand_complex(rng, n)[:, :rank] @ _rand_complex(rng, n)[:rank]
                ref = np.array([[(-1) ** (i + j) * det_cofactor(np.delete(np.delete(a, j, 0), i, 1))
                                 for j in range(n)] for i in range(n)])
                assert np.linalg.norm(adjugate(a) - ref) <= 1e-13 * (1.0 + np.linalg.norm(a)) ** (n - 1)

    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 5):
            stack = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
            got = adjugate(stack)
            for x, y in zip(stack, got):
                np.testing.assert_allclose(y, adjugate(x), rtol=1e-14, atol=1e-14)

    def test_non_finite_member_is_nan(self):
        stack = np.stack([np.eye(5), np.eye(5)]).astype(complex)
        stack[1, 2, 3] = np.inf
        got = adjugate(stack)
        assert np.allclose(got[0], np.eye(5))
        assert np.isnan(got[1]).all()


class TestInverse:
    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 3, 5):
            stack = rng.standard_normal((4, 3, n, n)) + 1j * rng.standard_normal((4, 3, n, n))
            got = inverse(stack)
            assert got.shape == stack.shape
            assert np.array_equal(got, [[inverse(m) for m in row] for row in stack])
            assert np.allclose(stack @ got, np.eye(n), atol=1e-12)
        # past numpy's 256 KiB temporary-elision threshold; every 5th member
        for n in (2, 3):
            stack = rng.standard_normal((20000, n, n)) + 1j * rng.standard_normal((20000, n, n))
            assert np.array_equal(inverse(stack)[::5], [inverse(m) for m in stack[::5]])

    def test_singular_member_is_non_finite_only_at_its_index(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 3, 5):
            stack = rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))
            stack[2, -1] = 0.0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = inverse(stack)
                single = inverse(stack[2])
            finite = np.isfinite(got).all(axis=(1, 2))
            assert finite.tolist() == [True, True, False, True, True, True], n
            assert not np.isfinite(single).all()


class TestHermitianEig:
    def test_identity(self):
        w, v = hermitian_eig(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])
        assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)

    def test_swap_unit_spectrum(self):
        d12 = np.array([[0.0, 1.0], [1.0, 0.0]])
        w, _ = hermitian_eig(d12)
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction(self):
        a = sample(MatrixClass.HERMITIAN, 6, 5)
        w, v = hermitian_eig(a)
        assert np.all(np.diff(w) >= 0)
        assert np.linalg.norm((v * w) @ v.conj().T - a) <= 1e-9
        assert np.linalg.norm(v.conj().T @ v - np.eye(6)) <= 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestHermitianDefect:
    def test_values(self):
        assert hermitian_defect(sample(MatrixClass.PD, 4, 2)) == 0.0
        assert hermitian_defect(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(np.sqrt(2.0) / 2.0)

    def test_stack_is_per_member(self):
        stack = np.stack([sample(MatrixClass.HERMITIAN, 3, 1), sample(MatrixClass.FULL, 3, 1)])
        got = hermitian_defect(stack)
        assert got.shape == (2,)
        assert got.tolist() == [hermitian_defect(m) for m in stack]

    @pytest.mark.parametrize("a", NON_FINITE)
    def test_non_finite_is_infinite(self, a):
        assert hermitian_defect(a) == np.inf


def _rotated(n, seed, log_norm, log_cond, sign):
    """Q diag(lam) Q^* with ||A|| ~ 10^log_norm, condition 10^log_cond, lam[0] of the given sign."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(_rand_complex(rng, n))[0]
    lam = 10.0 ** log_norm * 10.0 ** (-log_cond * np.linspace(1.0, 0.0, n))
    lam[0] *= sign
    a = (q * lam) @ q.conj().T
    return 0.5 * (a + a.conj().T)  # exactly Hermitian as stored


class TestIsPd:
    def test_accepts_sampled_pd_stacks(self):
        for n in (1, 2, 3, 5, 16):
            stack = sample_batch(MatrixClass.PD, n, 7, 50)
            assert is_pd(stack)
            assert is_pd(stack[0])

    def test_every_member_must_pass(self):
        stack = sample_batch(MatrixClass.PD, 3, 7, 5)
        stack[3] = np.diag([1.0, -1.0, 1.0])
        assert not is_pd(stack)
        assert is_pd(np.delete(stack, 3, axis=0))

    @pytest.mark.parametrize("a", [np.zeros((2, 2)), np.diag([1.0, -1.0]), np.diag([1.0, 0.0]),
                                   np.array([[2.0, 1.0], [0.0, 2.0]]), INDEFINITE_PAST_EIGVALSH])
    def test_rejects(self, a):
        assert not is_pd(a)

    @pytest.mark.parametrize("a", NON_FINITE)
    def test_rejects_non_finite(self, a):
        assert not is_pd(a)
        assert not is_pd(np.stack([np.eye(2), a]))

    def test_pinned_matrix_is_exactly_indefinite(self):
        assert np.linalg.eigvalsh(INDEFINITE_PAST_EIGVALSH)[0] > 1e-10
        assert not exact_pd(INDEFINITE_PAST_EIGVALSH)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), log_norm=st.floats(0.0, 10.0),
           log_cond=st.floats(0.0, 16.0), sign=st.sampled_from([1.0, -1.0]))
    def test_agrees_with_exact_arithmetic(self, n, seed, log_norm, log_cond, sign):
        # (a) acceptance proves PD; (b) a margin of 4 (n + 2) eps tr(A) is always enough
        a = _rotated(n, seed, log_norm, log_cond, sign)
        accepted = is_pd(a)
        if accepted:
            assert exact_pd(a)
        trace = sum(Fraction(float(x)) for x in np.diagonal(a).real)
        if exact_pd(a, 4 * (n + 2) * Fraction(np.finfo(float).eps) * trace):
            assert accepted


class TestPdSqrt:
    def test_scalar_multiple(self):
        assert np.allclose(pd_sqrt(4.0 * np.eye(3)), 2.0 * np.eye(3))

    def test_diagonal(self):
        assert np.allclose(pd_sqrt(np.diag([1.0, 4.0, 9.0])), np.diag([1.0, 2.0, 3.0]))

    def test_squares_back(self):
        a = sample(MatrixClass.PD, 5, 9)
        s = pd_sqrt(a)
        assert np.linalg.norm(s @ s - a) / np.linalg.norm(a) <= 1e-9
        assert np.linalg.norm(s - s.conj().T) <= 1e-10 * (1 + np.linalg.norm(s))
        assert np.linalg.eigvalsh(s)[0] > 0

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            pd_sqrt(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("a", NON_FINITE)
    def test_rejects_non_finite(self, a):
        with pytest.raises(NotPositiveDefinite):
            pd_sqrt(a)


class TestNumericRank:
    def test_zero(self):
        assert numeric_rank(np.zeros((3, 3)), 1e-7) == 0

    def test_outer_product(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert numeric_rank(np.outer(u, w), 1e-7) == 1

    def test_swap_operator_full_rank(self):
        # J[(i,a),(j,b)] = delta_{aj} delta_{bi} on n=2: a 4x4 permutation
        n = 2
        j = np.zeros((n * n, n * n))
        for i in range(n):
            for a in range(n):
                for jj in range(n):
                    for b in range(n):
                        if a == jj and b == i:
                            j[i * n + a, jj * n + b] = 1.0
        sv = np.linalg.svd(j, compute_uv=False)
        assert np.allclose(sv, 1.0)  # permutation matrix: all singular values 1
        assert numeric_rank(j, 1e-7) == 4

    def test_ratio_tol_validation(self):
        with pytest.raises(ValueError):
            numeric_rank(np.eye(2), 0.0)
        with pytest.raises(ValueError):
            numeric_rank(np.eye(2), 1.0)
        with pytest.raises(ValueError):
            numeric_rank(np.stack([np.eye(2)] * 3), 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_stack_equals_member_calls(self, n):
        rng = np.random.default_rng(n)
        g = rng.standard_normal((n + 2, n, n)) + 1j * rng.standard_normal((n + 2, n, n))
        # member r has rank min(r, n); the last member is zero
        stack = np.stack([g[r, :, :min(r, n)] @ g[r + 1, :min(r, n), :] for r in range(n + 1)]
                         + [np.zeros((n, n))])
        got = numeric_rank(stack, 1e-7)
        assert isinstance(got, np.ndarray) and got.shape == (n + 2,)
        members = [numeric_rank(m, 1e-7) for m in stack]
        assert all(type(r) is int for r in members)
        assert got.tolist() == members == [min(r, n) for r in range(n + 1)] + [0]


class TestPrincipalRoot:
    def test_positive_real(self):
        r = principal_root(32.0, 5)
        assert r.imag == 0.0
        assert r.real == pytest.approx(2.0)

    def test_root_power_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            z = complex(rng.standard_normal(), rng.standard_normal())
            k = int(rng.integers(2, 7))
            assert abs(principal_root(z, k) ** k - z) <= 1e-12 * (1 + abs(z))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            principal_root(0.0, 3)


class TestTakagiFactor:
    def test_identity(self):
        q = takagi_factor(np.eye(3))
        assert np.linalg.norm(q @ q.T - np.eye(3)) <= 1e-10

    def test_offdiagonal_unit(self):
        c = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        q = takagi_factor(c)
        assert np.linalg.norm(q @ q.T - c) <= 1e-10

    def test_random_symmetric(self):
        rng = np.random.default_rng(6)
        for k in range(25):
            n = int(rng.integers(1, 7))
            g = _rand_complex(rng, n)
            c = g + g.T
            if abs(determinant(c)) < 1e-6:
                continue
            q = takagi_factor(c)
            assert np.linalg.norm(q @ q.T - c) <= 1e-8 * (1 + np.linalg.norm(c))


    def test_diagonal_n16(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            d = rng.uniform(0.1, 10.0, 16) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 16))
            c = np.diag(d)
            q = takagi_factor(c)
            assert matrix_residual(q @ q.T, c) <= 1e-13

    def test_degenerate_takagi_values_n16(self):
        # C = U diag(sigma) U^T with repeated sigma, including sigma all equal
        rng = np.random.default_rng(13)
        for sigma in (np.ones(16), np.repeat([0.5, 2.0, 7.0, 7.0], 4), np.repeat([1.0, 3.0], 8)):
            u, _ = np.linalg.qr(_rand_complex(rng, 16))
            c = (u * sigma) @ u.T
            q = takagi_factor(c)
            assert matrix_residual(q @ q.T, c) <= 1e-13

    def test_singular_rejected(self):
        with pytest.raises(FactorizationError):
            takagi_factor(np.diag([1.0, 0.0]).astype(complex))


class TestMatrixJson:
    def test_roundtrip(self):
        a = sample(MatrixClass.FULL, 4, 0)
        assert np.array_equal(matrix_from_json(matrix_to_json(a)), a)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            matrix_from_json({"n": 2, "re": [[1.0]], "im": [[0.0]]})
        with pytest.raises(ValueError):
            matrix_from_json({"n": 2, "re": [[1.0, 0.0], [0.0, 1.0]]})
