"""Tests for linear representations, Choi analysis and parameter recovery."""

import numpy as np
import pytest

from preserver_lab import (
    MatrixClass,
    NotCanonical,
    NotLinear,
    NotRankOne,
    PreserverForm,
    build_linear_rep,
    gauge_residual,
    numeric_rank,
    random_canonical,
    rank_one_split,
    recover,
    remark1_map,
    roundtrip_residual,
    sample,
)
from preserver_lab import recovery
from preserver_lab.core_linalg import hermitian_defect

identity_map = lambda a: a.copy()  # noqa: E731
transpose_map = lambda a: a.T.copy()  # noqa: E731


def _unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def _swap_operator(n):
    j = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for a in range(n):
            j[i * n + a, a * n + i] = 1.0
    return j


class TestBuildLinearRep:
    def test_identity_rep_is_identity_matrix(self):
        # tol 1e-12: the build raises NotLinear unless the rep reproduces the box to 1e-12
        lin = build_linear_rep(identity_map, MatrixClass.PD, 3, 1e-12)
        assert np.linalg.norm(lin.rep - np.eye(9)) <= 1e-12

    def test_transpose_rep_is_swap(self):
        n = 3
        lin = build_linear_rep(transpose_map, MatrixClass.PD, n, 1e-8)
        # vec-action matrix of the transpose has entries delta_{aj} delta_{bi}
        expected = np.zeros((n * n, n * n), dtype=complex)
        for i in range(n):
            for a in range(n):
                for jj in range(n):
                    for b in range(n):
                        if a == jj and b == i:
                            expected[i * n + a, jj * n + b] = 1.0
        assert np.linalg.norm(lin.rep - expected) <= 1e-12

    def test_remark1_not_linear(self):
        with pytest.raises(NotLinear):
            build_linear_rep(remark1_map, MatrixClass.PD, 3, 1e-8)

    def test_pd_route_only_evaluates_on_pd(self):
        seen = []

        def guarded(a):
            w = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
            seen.append(w[0])
            assert w[0] > 0, "black box evaluated outside the PD cone"
            return a.copy()

        build_linear_rep(guarded, MatrixClass.PD, 3, 1e-8)
        assert seen

    def test_hermiticity_of_pd_born_rep(self):
        for seed in range(5):
            p = random_canonical(PreserverForm.PN_CONGRUENCE, 3, seed,
                                 transpose=seed % 2 == 1)
            lin = build_linear_rep(p, MatrixClass.PD, 3, 1e-8)
            assert hermitian_defect(lin.choi()) <= 1e-8

    def test_full_class_matches_map(self):
        p = random_canonical(PreserverForm.MN_TWO_SIDED, 3, 4)
        lin = build_linear_rep(p, MatrixClass.FULL, 3, 1e-8)
        x = sample(MatrixClass.FULL, 3, 9)
        assert np.linalg.norm(lin(x) - p(x)) <= 1e-10


class TestChoiMatrix:
    def test_identity_choi_rank_one(self):
        lin = build_linear_rep(identity_map, MatrixClass.PD, 3, 1e-8)
        j = lin.choi()
        u = np.eye(3, dtype=complex).reshape(-1)
        assert np.linalg.norm(j - np.outer(u, u)) <= 1e-12
        assert numeric_rank(j, 1e-7) == 1

    def test_transpose_choi_is_swap(self):
        n = 3
        lin = build_linear_rep(transpose_map, MatrixClass.PD, n, 1e-8)
        assert np.linalg.norm(lin.choi() - _swap_operator(n)) <= 1e-12
        assert numeric_rank(lin.choi(), 1e-7) == n * n

    def test_two_sided_choi_factors(self):
        n = 3
        rng = np.random.default_rng(12)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        nn = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lin = build_linear_rep(lambda a: m @ a @ nn, MatrixClass.FULL, n, 1e-8)
        j = lin.choi()
        assert numeric_rank(j, 1e-7) == 1
        for i in range(n):
            for a in range(n):
                for jj in range(n):
                    for b in range(n):
                        assert abs(j[i * n + a, jj * n + b] - m[a, i] * nn[jj, b]) <= 1e-10


class TestRankOneSplit:
    def test_vec_identity(self):
        u0 = np.eye(3, dtype=complex).reshape(-1)
        u, w = rank_one_split(np.outer(u0, u0), 1e-7)
        # equal up to a common unimodular phase
        assert abs(abs(np.vdot(u, u0)) - np.linalg.norm(u) * np.linalg.norm(u0)) <= 1e-10
        assert np.linalg.norm(np.outer(u, w) - np.outer(u0, u0)) <= 1e-10

    def test_random_outer(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        j = np.outer(a, b)
        u, w = rank_one_split(j, 1e-7)
        assert np.linalg.norm(j - np.outer(u, w)) <= 1e-10 * np.linalg.norm(j)
        assert np.linalg.norm(u) == pytest.approx(np.linalg.norm(w))

    def test_identity_not_rank_one(self):
        with pytest.raises(NotRankOne):
            rank_one_split(np.eye(4), 1e-7)

    def test_ratio_tol_validation(self):
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                rank_one_split(np.eye(1), bad)


class TestRecover:
    def test_identity_all_classes(self):
        for cls in (MatrixClass.PD, MatrixClass.FULL, MatrixClass.SYMMETRIC,
                    MatrixClass.UPPER_TRIANGULAR, MatrixClass.DIAGONAL):
            p, res = recover(identity_map, cls, 3)
            assert res <= 1e-10
            assert not p.transpose
            assert abs(p.alpha - 1.0) <= 1e-10
            if p.form in (PreserverForm.PN_CONGRUENCE, PreserverForm.SN_CONGRUENCE):
                assert np.linalg.norm(np.abs(p.M) - np.eye(3)) <= 1e-8

    def test_pd_round_trip_both_branches(self):
        for tr in (False, True):
            for seed in range(5):
                hidden = random_canonical(PreserverForm.PN_CONGRUENCE, 4, seed, transpose=tr)
                p, res = recover(hidden, MatrixClass.PD, 4)
                assert p.transpose == tr
                assert res <= 1e-8
                assert abs(p.alpha.imag) <= 1e-10 and p.alpha.real > 0
                assert gauge_residual(p) <= 1e-8

    def test_mn_round_trip_transpose_example(self):
        hidden = random_canonical(PreserverForm.MN_TWO_SIDED, 3, 17, transpose=True)
        p, res = recover(hidden, MatrixClass.FULL, 3)
        assert p.transpose
        assert res <= 1e-8
        fresh = roundtrip_residual(hidden, p, MatrixClass.FULL, 3, 50, 12345)
        assert fresh <= 1e-8

    def test_sn_round_trip(self):
        for seed in range(5):
            hidden = random_canonical(PreserverForm.SN_CONGRUENCE, 4, seed)
            p, res = recover(hidden, MatrixClass.SYMMETRIC, 4)
            assert res <= 1e-8
            assert gauge_residual(p) <= 1e-8

    def test_tn_exact_example(self):
        # sigma = (2, 3, 1) one-based, lambdas = (2, 1/2, 1), alpha = 1
        hidden = random_canonical(PreserverForm.TN_DIAGONAL, 3, 0)
        hidden = type(hidden)(PreserverForm.TN_DIAGONAL, 3, 1.0,
                              sigma=(1, 2, 0),
                              lambdas=np.array([2.0, 0.5, 1.0], dtype=complex),
                              offdiag_seed=7)
        p, res = recover(hidden, MatrixClass.UPPER_TRIANGULAR, 3)
        assert p.sigma == (1, 2, 0)
        assert np.max(np.abs(np.asarray(p.lambdas) - np.asarray(hidden.lambdas))) <= 1e-10
        assert abs(p.alpha - 1.0) <= 1e-10
        assert res <= 1e-10

    def test_diagonal_class_round_trip(self):
        hidden = random_canonical(PreserverForm.TN_DIAGONAL, 4, 5)
        p, res = recover(hidden, MatrixClass.DIAGONAL, 4)
        assert p.sigma == hidden.sigma
        assert res <= 1e-8

    def test_branch_exclusivity(self):
        for n in (2, 3):
            for tr in (False, True):
                hidden = random_canonical(PreserverForm.MN_TWO_SIDED, n, 3, transpose=tr)
                lin = build_linear_rep(hidden, MatrixClass.FULL, n, 1e-8)
                j = lin.choi()
                r4t = lin.rep.reshape(n, n, n, n).transpose(0, 1, 3, 2)
                jt = r4t.transpose(2, 0, 3, 1).reshape(n * n, n * n)
                ranks = (numeric_rank(j, 1e-7) == 1, numeric_rank(jt, 1e-7) == 1)
                assert ranks == (not tr, tr)

    def test_n1_reports_plain_branch(self):
        p, res = recover(lambda a: 2.5 * a, MatrixClass.PD, 1)
        assert not p.transpose
        assert abs(p.alpha - 2.5) <= 1e-10
        assert res <= 1e-12

    def test_remark1_not_linear(self):
        with pytest.raises(NotLinear):
            recover(remark1_map, MatrixClass.PD, 3)

    def test_nonlinear_bump_fails(self):
        hidden = random_canonical(PreserverForm.PN_CONGRUENCE, 3, 2)

        def bump(a):
            e = np.zeros((3, 3), dtype=complex)
            e[0, 0] = 1.0
            return hidden(a) + 1e-3 * np.linalg.norm(a) * e

        with pytest.raises((NotLinear, NotCanonical)):
            recover(bump, MatrixClass.PD, 3)

    def test_star_form_enforced_on_pd(self):
        # rank-one Choi with positive-real unit determinant but a right
        # factor that is not the conjugate transpose of the left one
        from preserver_lab import NotStarForm

        m = np.diag([2.0, 0.5, 1.0]).astype(complex)
        with pytest.raises(NotStarForm):
            recover(lambda a: m @ a, MatrixClass.PD, 3)

    def test_singular_unit(self):
        from preserver_lab import SingularUnit

        proj = np.diag([1.0, 1.0, 0.0]).astype(complex)
        with pytest.raises(SingularUnit):
            recover(lambda a: proj @ a @ proj, MatrixClass.FULL, 3)

    def test_trace_map_not_canonical_on_symmetric(self):
        fn = lambda a: np.trace(a) * np.eye(a.shape[0], dtype=complex)  # noqa: E731
        with pytest.raises(NotCanonical):
            recover(fn, MatrixClass.SYMMETRIC, 3)

    @pytest.mark.parametrize("cls", [MatrixClass.FULL, MatrixClass.PD, MatrixClass.SYMMETRIC,
                                     MatrixClass.UPPER_TRIANGULAR, MatrixClass.DIAGONAL],
                             ids=lambda c: c.value)
    def test_non_finite_box_is_not_linear(self, cls):
        # identity on matrix units, NaN everywhere else: the NaN consistency
        # residuals must fail instead of vanishing in a max()
        def box(a):
            m = np.asarray(a, dtype=complex)
            if np.count_nonzero(m) == 1 and np.max(np.abs(m)) == 1.0:
                return m.copy()
            return np.full(m.shape, np.nan, dtype=complex)

        with pytest.raises(NotLinear):
            recover(box, cls, 3)

    @pytest.mark.parametrize("form,cls", [(PreserverForm.MN_TWO_SIDED, MatrixClass.FULL),
                                          (PreserverForm.PN_CONGRUENCE, MatrixClass.PD)],
                             ids=["full", "pd"])
    def test_query_count(self, form, cls):
        # n^2 basis images, 20 consistency probes, the unit, 50 round-trip probes
        for n in (2, 3):
            hidden = random_canonical(form, n, 6)
            queries = []

            def box(a):
                queries.append(a)
                return hidden(a)

            recover(box, cls, n)
            assert len(queries) == n * n + 71

    def test_swap_map_not_canonical_on_full(self):
        # X -> diag-swapped non-two-sided linear map: rank of both Choi
        # branches exceeds one, recovery must refuse
        n = 2

        def shuffle(a):
            out = a.copy()
            out[0, 0], out[1, 1] = a[1, 1], a[0, 0]
            return out + a.T

        with pytest.raises(NotCanonical, match="neither Choi branch has rank one"):
            recover(shuffle, MatrixClass.FULL, n)

    @pytest.mark.parametrize("form,cls", [(PreserverForm.MN_TWO_SIDED, MatrixClass.FULL),
                                          (PreserverForm.PN_CONGRUENCE, MatrixClass.PD)],
                             ids=["full", "pd"])
    def test_one_svd_per_choi_branch(self, form, cls, monkeypatch):
        # the plain branch costs one SVD; the transpose branch adds one more
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        for tr, count in ((False, 1), (True, 2)):
            hidden = random_canonical(form, 3, 4, transpose=tr)
            calls.clear()
            p, _ = recover(hidden, cls, 3)
            assert p.transpose == tr
            assert calls == [(9, 9)] * count


class TestSnStructure:
    @pytest.mark.parametrize("n", [1, 4])
    def test_one_rank_call_on_the_diagonal_images(self, n, monkeypatch):
        calls = []
        rank = recovery.numeric_rank

        def counting_rank(a, ratio_tol):
            calls.append(np.shape(a))
            return rank(a, ratio_tol)

        monkeypatch.setattr(recovery, "numeric_rank", counting_rank)
        hidden = random_canonical(PreserverForm.SN_CONGRUENCE, n, 5)
        recover(hidden, MatrixClass.SYMMETRIC, n)
        assert calls == [(n, n, n)]

    def test_first_rank_failure_is_named(self):
        # phi(E_11) = E_11 + E_22 has rank two; phi(E_00) is rank one
        n = 3

        def box(a):
            a = np.asarray(a)
            b = a.copy()
            b[..., 2, 2] += a[..., 1, 1]
            return b

        with pytest.raises(NotCanonical, match="image of E_11 does not have rank one"):
            recover(box, MatrixClass.SYMMETRIC, n)

    def test_diag_rank_one_offdiag_rank_two(self):
        n = 4
        hidden = random_canonical(PreserverForm.SN_CONGRUENCE, n, 8)
        for i in range(n):
            assert numeric_rank(hidden(_unit(n, i, i)), 1e-7) == 1
        for i in range(n):
            for j in range(i + 1, n):
                d = _unit(n, i, j) + _unit(n, j, i)
                assert numeric_rank(hidden(d), 1e-7) == 2

    def test_trace_power_transport(self):
        n = 4
        hidden = random_canonical(PreserverForm.SN_CONGRUENCE, n, 21)
        p, _ = recover(hidden, MatrixClass.SYMMETRIC, n)
        # transport through the unital gauge: psi(A) = Q^{-1} phi(A) Q^{-t}
        from preserver_lab import unitalize

        psi = unitalize(hidden, MatrixClass.SYMMETRIC, n)
        for k in (1, 2, 3):
            for t in range(50):
                a = sample(MatrixClass.SYMMETRIC, n, 3 * t)
                b = sample(MatrixClass.SYMMETRIC, n, 3 * t + 1)
                lhs = np.trace(psi(a) @ np.linalg.matrix_power(psi(b), k))
                rhs = np.trace(a @ np.linalg.matrix_power(b, k))
                assert abs(lhs - rhs) / (1 + abs(lhs) + abs(rhs)) <= 1e-7

    def test_cubed_trace_values(self):
        # tr((D_12 + D_13 + D_23)^3) = 6 and the sign-flipped image gives -6
        n = 3
        d = (_unit(n, 0, 1) + _unit(n, 1, 0)
             + _unit(n, 0, 2) + _unit(n, 2, 0)
             + _unit(n, 1, 2) + _unit(n, 2, 1))
        assert abs(np.trace(np.linalg.matrix_power(d, 3)) - 6.0) <= 1e-12
        flipped = d - 2.0 * (_unit(n, 1, 2) + _unit(n, 2, 1))
        assert abs(np.trace(np.linalg.matrix_power(flipped, 3)) + 6.0) <= 1e-12


class TestRoundtripResidual:
    def test_identity_pair(self):
        p, _ = recover(identity_map, MatrixClass.PD, 3)
        assert roundtrip_residual(identity_map, p, MatrixClass.PD, 3, 25, 1) <= 1e-12

    def test_remark1_never_matches(self):
        p = random_canonical(PreserverForm.PN_CONGRUENCE, 3, 1)
        assert roundtrip_residual(remark1_map, p, MatrixClass.PD, 3, 25, 1) > 1e-3
