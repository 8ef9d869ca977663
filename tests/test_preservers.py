"""Tests for the canonical map forms and auxiliary maps."""

import numpy as np
import pytest

from preserver_lab import (
    CanonicalPreserver,
    DimensionMismatch,
    LinearRep,
    MatrixClass,
    NormConjugation,
    PreserverForm,
    apply_preserver,
    build_linear_rep,
    determinant,
    gauge_residual,
    pinching,
    random_canonical,
    realize_map,
    remark1_map,
    sample,
)
from preserver_lab.jsonio import matrix_to_json

from oracles import det_cofactor

ALL_FORMS = list(PreserverForm)
BRANCHABLE = (PreserverForm.PN_CONGRUENCE, PreserverForm.MN_TWO_SIDED)


class TestApply:
    def test_identity_congruence(self):
        p = CanonicalPreserver(PreserverForm.PN_CONGRUENCE, 3, 1.0, M=np.eye(3, dtype=complex))
        a = sample(MatrixClass.PD, 3, 2)
        assert np.allclose(p(a), a)

    def test_alpha_scales_unit(self):
        p = CanonicalPreserver(PreserverForm.PN_CONGRUENCE, 3, 4.0, M=np.eye(3, dtype=complex))
        out = p(np.eye(3))
        assert np.allclose(out, 4.0 * np.eye(3))
        assert determinant(out).real ** (1.0 / 3.0) == pytest.approx(4.0)

    def test_tn_diagonal_example(self):
        # sigma = (2, 1) one-based, lambdas = (2, 1/2), alpha = 1
        p = CanonicalPreserver(PreserverForm.TN_DIAGONAL, 2, 1.0,
                               sigma=(1, 0), lambdas=np.array([2.0, 0.5], dtype=complex))
        out = p(np.diag([3.0, 5.0]).astype(complex))
        assert out[0, 0] == pytest.approx(10.0)
        assert out[1, 1] == pytest.approx(1.5)

    def test_dimension_mismatch(self):
        p = CanonicalPreserver(PreserverForm.PN_CONGRUENCE, 3, 1.0, M=np.eye(3, dtype=complex))
        with pytest.raises(DimensionMismatch):
            p(np.eye(4))

    @pytest.mark.parametrize("form", ALL_FORMS, ids=lambda f: f.value)
    def test_stack_matches_per_matrix(self, form):
        branches = (False,) if form in (PreserverForm.SN_CONGRUENCE,
                                        PreserverForm.TN_DIAGONAL) else (False, True)
        for transpose in branches:
            for n in (1, 2, 4):
                p = random_canonical(form, n, 6, transpose=transpose)
                stack = np.stack([sample(MatrixClass.FULL, n, seed) for seed in range(9)])
                got = apply_preserver(p, stack)
                assert got.shape == stack.shape
                for x, y in zip(stack, got):
                    # tn-diagonal's filler is a vector product one by one and a
                    # matrix product on the stack, so the last bits may differ
                    np.testing.assert_allclose(y, p(x), rtol=1e-13, atol=1e-13)
                nested = apply_preserver(p, stack.reshape(3, 3, n, n))
                assert np.array_equal(nested.reshape(stack.shape), got)

    def test_stack_dimension_mismatch(self):
        p = CanonicalPreserver(PreserverForm.PN_CONGRUENCE, 3, 1.0, M=np.eye(3, dtype=complex))
        with pytest.raises(DimensionMismatch):
            p(np.zeros((5, 3, 4)))

    def test_no_transpose_branch_for_sn_tn(self):
        with pytest.raises(ValueError):
            CanonicalPreserver(PreserverForm.SN_CONGRUENCE, 2, 1.0,
                               M=np.eye(2, dtype=complex), transpose=True)


class TestLinearRep:
    def test_stack_matches_per_matrix(self):
        p = random_canonical(PreserverForm.MN_TWO_SIDED, 3, 5, transpose=True)
        lin = build_linear_rep(p, MatrixClass.FULL, 3, 1e-8)
        stack = np.stack([sample(MatrixClass.FULL, 3, seed) for seed in range(6)])
        got = lin(stack.reshape(2, 3, 3, 3))
        assert got.shape == (2, 3, 3, 3)
        for x, y in zip(stack, got.reshape(stack.shape)):
            np.testing.assert_allclose(y, lin(x), rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(y, p(x), rtol=1e-12, atol=1e-12)

    def test_realized_spec_is_a_linear_rep(self):
        rep = np.arange(16.0).reshape(4, 4) + 0j
        lin = realize_map({"kind": "linear-rep", "rep": matrix_to_json(rep)}, 2)
        assert isinstance(lin, LinearRep)
        assert np.array_equal(lin.rep, rep)

    @pytest.mark.parametrize("shape", [(3, 3), (4,), (5, 2, 3)])
    def test_dimension_mismatch(self, shape):
        lin = LinearRep(2, np.eye(4, dtype=complex))
        with pytest.raises(DimensionMismatch):
            lin(np.zeros(shape))


class TestRandomCanonical:
    @pytest.mark.parametrize("form", ALL_FORMS, ids=lambda f: f.value)
    def test_gauge_constraints(self, form):
        tol = 1e-12 if form is PreserverForm.TN_DIAGONAL else 1e-11
        for n in (1, 2, 3, 5, 16):
            for transpose in (False, True) if form in BRANCHABLE else (False,):
                for seed in range(10):
                    p = random_canonical(form, n, seed, transpose=transpose)
                    assert gauge_residual(p) <= tol, (form, n, transpose, seed)

    @pytest.mark.parametrize("form", ALL_FORMS, ids=lambda f: f.value)
    def test_off_gauge_residual_is_det_phi_of_i(self, form):
        # M = 2I, P = 2I, M = N = 2I or lambda_i = 2: det phi(I) / alpha^n = 4^n (2^n on tn)
        for n in (1, 2, 3, 5):
            two = 2.0 * np.eye(n, dtype=complex)
            if form is PreserverForm.TN_DIAGONAL:
                factors = {"sigma": tuple(range(n)), "lambdas": np.full(n, 2.0, dtype=complex)}
            else:
                factors = {"M": two, "N": two if form is PreserverForm.MN_TWO_SIDED else None}
            p = CanonicalPreserver(form, n, 0.75, **factors)
            expected = det_cofactor(p(np.eye(n)) / 0.75) - 1.0
            assert expected == (2.0 if form is PreserverForm.TN_DIAGONAL else 4.0) ** n - 1.0
            assert gauge_residual(p) == pytest.approx(abs(expected), rel=1e-14)

    @pytest.mark.parametrize("form", [PreserverForm.SN_CONGRUENCE, PreserverForm.TN_DIAGONAL],
                             ids=lambda f: f.value)
    def test_no_transpose_branch(self, form):
        # not a differently seeded map that ignores transpose
        with pytest.raises(ValueError, match="has no transpose branch"):
            random_canonical(form, 3, 0, transpose=True)

    def test_deterministic(self):
        p1 = random_canonical(PreserverForm.MN_TWO_SIDED, 4, 7)
        p2 = random_canonical(PreserverForm.MN_TWO_SIDED, 4, 7)
        assert np.array_equal(p1.M, p2.M) and np.array_equal(p1.N, p2.N)
        assert p1.alpha == p2.alpha

    def test_pn_maps_pd_to_pd(self):
        for seed in range(10):
            p = random_canonical(PreserverForm.PN_CONGRUENCE, 3, seed,
                                 transpose=seed % 2 == 1)
            for t in range(10):
                out = p(sample(MatrixClass.PD, 3, 100 * seed + t))
                assert np.linalg.eigvalsh(0.5 * (out + out.conj().T))[0] > 0

    def test_sn_maps_symmetric_to_symmetric(self):
        for seed in range(10):
            p = random_canonical(PreserverForm.SN_CONGRUENCE, 4, seed)
            a = sample(MatrixClass.SYMMETRIC, 4, seed)
            out = p(a)
            scale = 1.0 + np.linalg.norm(out)
            assert np.linalg.norm(out - out.T) <= 1e-12 * scale

    def test_tn_maps_triangular_to_triangular(self):
        for seed in range(10):
            p = random_canonical(PreserverForm.TN_DIAGONAL, 4, seed)
            out = p(sample(MatrixClass.UPPER_TRIANGULAR, 4, seed))
            assert np.linalg.norm(np.tril(out, -1)) == 0.0

    def test_determinant_transport(self):
        # det(phi(A)) = alpha^n det(A) for the plain branches
        cases = [
            (PreserverForm.PN_CONGRUENCE, MatrixClass.PD),
            (PreserverForm.SN_CONGRUENCE, MatrixClass.SYMMETRIC),
            (PreserverForm.MN_TWO_SIDED, MatrixClass.FULL),
        ]
        for form, cls in cases:
            for seed in range(10):
                p = random_canonical(form, 3, seed)
                a = sample(cls, 3, seed + 1000)
                lhs = determinant(p(a))
                rhs = p.alpha ** 3 * determinant(a)
                assert abs(lhs - rhs) <= 1e-8 * (1 + abs(lhs) + abs(rhs))


class TestRemark1:
    def test_zero_to_zero(self):
        assert np.allclose(remark1_map(np.zeros((3, 3))), 0.0)

    def test_trace_square_preserved(self):
        for seed in range(20):
            a = sample(MatrixClass.HERMITIAN, 3, seed)
            lhs = np.trace(remark1_map(a) @ remark1_map(a))
            rhs = np.trace(a @ a)
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))

    def test_eigenvalues_preserved(self):
        for seed in range(20):
            a = sample(MatrixClass.HERMITIAN, 4, seed)
            w1 = np.linalg.eigvalsh(a)
            out = remark1_map(a)
            w2 = np.linalg.eigvalsh(0.5 * (out + out.conj().T))
            assert np.max(np.abs(w1 - w2)) <= 1e-9

    def test_additivity_failure_margin(self):
        # A = I (s = sqrt 2), B = E_11 (s = 1) on n = 2
        a = np.eye(2, dtype=complex)
        b = np.zeros((2, 2), dtype=complex)
        b[0, 0] = 1.0
        gap = np.linalg.norm(remark1_map(a + b) - remark1_map(a) - remark1_map(b))
        assert gap > 0.01

    def test_zero_generator_is_identity(self):
        a = sample(MatrixClass.FULL, 3, 5)
        assert np.array_equal(NormConjugation(0.0)(a), a)

    def test_preserves_pd(self):
        for seed in range(10):
            a = sample(MatrixClass.PD, 3, seed)
            out = remark1_map(a)
            assert np.linalg.eigvalsh(0.5 * (out + out.conj().T))[0] > 0

    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(21)
        for scale in (0.0, 1.0):
            fn = NormConjugation(scale)
            for n in (1, 2, 3, 5):
                stack = rng.standard_normal((4, 3, n, n)) + 1j * rng.standard_normal((4, 3, n, n))
                got = fn(stack)
                assert got.shape == stack.shape
                assert np.array_equal(got, [[fn(m) for m in row] for row in stack])
        # past numpy's 256 KiB temporary-elision threshold; every 5th member
        stack = rng.standard_normal((20000, 3, 3)) + 1j * rng.standard_normal((20000, 3, 3))
        assert np.array_equal(remark1_map(stack)[::5], [remark1_map(m) for m in stack[::5]])

    def test_non_finite_member_is_nan_only_at_its_index(self):
        rng = np.random.default_rng(22)
        stack = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
        stack[2, 1, 0] = np.nan
        got = remark1_map(stack)
        assert np.isnan(got).any(axis=(1, 2)).tolist() == [False, False, True, False, False, False]
        assert np.array_equal(got[[0, 1, 3, 4, 5]], remark1_map(stack[[0, 1, 3, 4, 5]]))

    def test_realized_spec_is_the_shipped_map(self):
        assert realize_map({"kind": "remark1"}, 3) is remark1_map
        assert isinstance(remark1_map, NormConjugation) and remark1_map.generator_scale == 1.0


class TestPinching:
    def test_unital(self):
        assert np.allclose(pinching(np.eye(3)), np.eye(3))

    def test_kadison_gap_example(self):
        a = np.ones((2, 2), dtype=complex)
        gap = pinching(a @ a) - pinching(a) @ pinching(a)
        assert np.allclose(gap, np.eye(2))

    def test_pd_to_pd(self):
        for seed in range(10):
            a = sample(MatrixClass.PD, 4, seed)
            assert np.linalg.eigvalsh(pinching(a))[0] > 0
