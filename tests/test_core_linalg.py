"""Tests for the dense matrix kernel."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preserver_lab import (
    adjugate,
    determinant,
    inverse,
    matrix_from_json,
    matrix_to_json,
    principal_root,
)
from preserver_lab.core_linalg import _binade, hermitian_defect, is_pd, is_singular, ldexp
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
        # bit for bit at every n: the closed form at n <= 3; above, numpy's stacked SVD, LU and matmul
        # make the same LAPACK/BLAS call on each member as on that matrix alone
        rng = np.random.default_rng(8)
        for n in (2, 3, 5, 8, 16):
            stack = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
            got = adjugate(stack)
            for x, y in zip(stack, got):
                assert np.array_equal(y, adjugate(x)), n

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

    @pytest.mark.parametrize("k", [-1000, -900, -400, -341, -340, -300, 300, 340, 341, 400, 900, 1000])
    def test_power_of_two_scale_is_exact(self, k):
        # the closed form's det(2^k X) and 1 / det leave the normal range near |k| = 340 at n = 3;
        # such members are inverted in [1, 2), the others keep the closed form and its bits
        rng = np.random.default_rng(14)
        for n in (1, 2, 3, 4):
            stack = rng.standard_normal((300, n, n)) + 1j * rng.standard_normal((300, n, n))
            got = inverse(2.0**k * stack)
            assert np.array_equal(got, ldexp(inverse(stack), -k)), n
            assert np.array_equal(got[::29], [inverse(m) for m in 2.0**k * stack[::29]]), n

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


class TestHermitianDefect:
    def test_values(self):
        assert hermitian_defect(sample(MatrixClass.PD, 4, 2)) == 0.0
        assert hermitian_defect(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(np.sqrt(2.0))
        assert hermitian_defect(np.zeros((2, 2))) == 0.0

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


class TestIsSingular:
    @pytest.mark.parametrize("a", [np.zeros((3, 3)), np.diag([1.0, 1.0, 0.0]),
                                   np.array([[1.0, 2.0], [2.0, 4.0]])])
    def test_exactly_singular(self, a):
        assert is_singular(a)
        assert is_singular(a * 1e-30) and is_singular(a * 1e200)

    @pytest.mark.parametrize("n", [3, 5, 16])
    def test_rounded_rank_deficiency(self, n):
        # a dense rank n - 1 product: its determinant is rounding noise, not zero
        rng = np.random.default_rng(n)
        a = _rand_complex(rng, n)[:, :n - 1] @ _rand_complex(rng, n)[:n - 1, :]
        assert is_singular(a)

    @pytest.mark.parametrize("scale,n", [(1e-3, 5), (1e-30, 16), (1e200, 16)])
    def test_scale_free(self, scale, n):
        # |det(1e-3 I_5)| = 1e-15 failed an absolute 1e-12 test; det(1e-30 I_16) underflows
        assert not is_singular(scale * np.eye(n))
        assert not is_singular(scale * sample(MatrixClass.PD, n, 3))

    @pytest.mark.parametrize("n", [12, 16])
    def test_well_conditioned_at_large_n(self, n):
        # det(A / max|a_ij|) of a well-conditioned Gram matrix sinks below 1e-12 at n = 16
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = _rand_complex(rng, n)
            assert not is_singular(m @ m.conj().T)

    def test_condition_bound(self):
        # sigma_min <= |r_ii| <= sigma_max: condition 1e11 is never called singular
        rng = np.random.default_rng(4)
        for n in (2, 3, 5, 8, 16):
            q1 = np.linalg.qr(_rand_complex(rng, n))[0]
            q2 = np.linalg.qr(_rand_complex(rng, n))[0]
            assert not is_singular((q1 * np.logspace(0, -11, n)) @ q2)

    def test_triangular_reads_the_diagonal(self):
        a = np.array([[1.0, 5.0], [0.0, 0.0]])
        assert is_singular(a, triangular=True)
        assert not is_singular(np.diag([1e-3, 1e-3]), triangular=True)
        assert not is_singular(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert is_singular(np.array([[0.0, 1.0], [1.0, 0.0]]), triangular=True)

    @pytest.mark.parametrize("triangular", [False, True])
    def test_stack_is_singular_where_some_finite_member_is(self, triangular):
        # the diagonal of each member, not np.diagonal's default axes (0, 1) across the stack;
        # a non-finite member is never singular, the dual of is_pd's every-member rule
        rng = np.random.default_rng(7)
        members = [np.eye(3), np.triu(_rand_complex(rng, 3)), np.diag([1.0, 1.0, 0.0]),
                   np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
                   np.full((3, 3), np.nan), np.diag([1.0, np.inf, 0.0])]
        for picks in ([0, 0], [0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [4, 5], [0, 1, 2, 3, 4, 5]):
            stack = np.stack([members[i] for i in picks])
            expected = any(is_singular(m, triangular) for m in stack)
            assert is_singular(stack, triangular) is expected, picks
            assert is_singular(stack.reshape(1, *stack.shape), triangular) is expected, picks

    @pytest.mark.parametrize("a", NON_FINITE)
    def test_non_finite_is_not_singular(self, a):
        # the callers' non-finite path (failing sentinel, NaN companion) decides
        assert not is_singular(a)
        assert not is_singular(a, triangular=True)


class TestBinadeExponent:
    # max |a_ij| of scale * diag(1, -0.5j) is scale; the target binade is [1, 2)
    @pytest.mark.parametrize("scale", [1e-3, 1e-30, 0.3, 2.0**-1000, 1e-310, 1e-320, 2e-323, 5e-324,
                                       0.5, 0.999, 2.0, 1e30, 1e200, 2.0**1000, np.finfo(float).max])
    def test_every_scale_lands_in_unit_range(self, scale):
        # subnormal scales included: k is not capped, and ldexp applies it exactly
        a = scale * np.diag([1.0, -0.5j])
        m, k = _binade(a)
        k = k.item()
        assert k != 0 and 1.0 <= np.max(np.abs(m)) < 2.0
        assert np.array_equal(m, ldexp(a, k)) and np.array_equal(ldexp(m, -k), a)

    @pytest.mark.parametrize("a", [1.5 * np.eye(2), np.eye(3), np.nextafter(2.0, 0.0) * np.eye(2),
                                   np.zeros((2, 2))] + NON_FINITE)
    def test_no_rescale(self, a):
        # already in [1, 2), zero or non-finite: k = 0, and the input comes back uncopied
        m, k = _binade(a)
        assert k.item() == 0 and m is a

    def test_per_member_exponents(self):
        a = np.stack([2.0**-1070 * np.eye(2), np.eye(2), 2.0**1000 * np.eye(2)])
        m, k = _binade(a, (-2, -1))
        assert k.ravel().tolist() == [1070, 0, -1000]
        assert np.array_equal(m, np.stack([np.eye(2)] * 3))


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


class TestMatrixJson:
    def test_roundtrip(self):
        a = sample(MatrixClass.FULL, 4, 0)
        assert np.array_equal(matrix_from_json(matrix_to_json(a), 4), a)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            matrix_from_json({"n": 2, "re": [[1.0]], "im": [[0.0]]}, 2)
        with pytest.raises(ValueError):
            matrix_from_json({"n": 2, "re": [[1.0, 0.0], [0.0, 1.0]]}, 2)
