"""Tests for linear representations, rank-one unit images and parameter recovery."""

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from preserver_lab import (
    MatrixClass,
    NotCanonical,
    NotLinear,
    NotRankOne,
    PreserverForm,
    build_linear_rep,
    gauge_residual,
    random_canonical,
    rank_one_split,
    recover,
    remark1_map,
    roundtrip_residual,
    sample,
)
from preserver_lab.core_linalg import hermitian_defect, is_pd
from preserver_lab.recovery import RANK_RATIO_TOL

from oracles import singular_values_mp

identity_map = lambda a: a.copy()  # noqa: E731
transpose_map = lambda a: a.T.copy()  # noqa: E731


def _unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def _rank(a):
    """Singular values above 1e-7 sigma_max, per member: the count the tests read as a rank."""
    s = np.linalg.svd(a, compute_uv=False)
    return np.count_nonzero(s > 1e-7 * s[..., :1], axis=-1)


def _choi(rep, n):
    """Choi reshuffle J[(i, a), (j, b)] = [L(E_ij)]_ab of a row-major vec-action matrix."""
    return rep.reshape(n, n, n, n).transpose(2, 0, 3, 1).reshape(n * n, n * n)


def _unit_image_stacks(fn, n):
    """The images of E_i0 and of E_0j, each stacked row-wise into an n^2 x n matrix."""
    units = np.eye(n * n, dtype=complex).reshape(n, n, n, n)
    return (np.stack([fn(e) for e in units[:, 0]]).reshape(n * n, n),
            np.stack([fn(e) for e in units[0, :]]).reshape(n * n, n))


_REP_FORMS = {MatrixClass.FULL: PreserverForm.MN_TWO_SIDED, MatrixClass.SYMMETRIC: PreserverForm.SN_CONGRUENCE,
              MatrixClass.UPPER_TRIANGULAR: PreserverForm.TN_DIAGONAL, MatrixClass.PD: PreserverForm.PN_CONGRUENCE}
_REP_CLASSES = list(_REP_FORMS)


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
        # build_linear_rep, and recover in every stage: unit images, linearity check, round trip
        seen = []

        def guard(fn):
            def guarded(a):
                w = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
                seen.append(w[0])
                assert w[0] > 0 and is_pd(a), "black box evaluated outside the PD cone"
                return fn(a)
            return guarded

        build_linear_rep(guard(identity_map), MatrixClass.PD, 3, 1e-8)
        assert len(seen) == 1 + 9 + 20  # phi(I), the unit images, the consistency samples
        for tr in (False, True):
            p, _ = recover(guard(random_canonical(PreserverForm.PN_CONGRUENCE, 3, 2, tr)),
                           MatrixClass.PD, 3)
            assert p.transpose == tr
        assert len(seen) == 30 + 2 * (2 * 3 + 71)

    def test_hermiticity_of_pd_born_rep(self):
        for seed in range(5):
            p = random_canonical(PreserverForm.PN_CONGRUENCE, 3, seed,
                                 transpose=seed % 2 == 1)
            lin = build_linear_rep(p, MatrixClass.PD, 3, 1e-8)
            assert hermitian_defect(_choi(lin.rep, 3)) <= 1e-8

    @pytest.mark.parametrize("form,cls", [(PreserverForm.MN_TWO_SIDED, MatrixClass.FULL),
                                          (PreserverForm.PN_CONGRUENCE, MatrixClass.PD)],
                             ids=["full", "pd"])
    def test_two_sided_rep_is_kron(self, form, cls):
        # vec(alpha M X N) = alpha (M kron N^T) vec(X) row-major; pn has M^* on the left
        for n in (1, 2, 3):
            for tr in (False, True):
                p = random_canonical(form, n, 12, transpose=tr)
                left, right = (p.M, p.N) if form is PreserverForm.MN_TWO_SIDED else (p.M.conj().T, p.M)
                expected = p.alpha * np.kron(left, right.T)
                if tr:  # X -> X^t first: permute the columns (i, a) -> (a, i)
                    expected = expected.reshape(n * n, n, n).transpose(0, 2, 1).reshape(n * n, n * n)
                lin = build_linear_rep(p, cls, n, 1e-8)
                assert np.linalg.norm(lin.rep - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_full_class_matches_map(self):
        p = random_canonical(PreserverForm.MN_TWO_SIDED, 3, 4)
        lin = build_linear_rep(p, MatrixClass.FULL, 3, 1e-8)
        x = sample(MatrixClass.FULL, 3, 9)
        assert np.linalg.norm(lin(x) - p(x)) <= 1e-10

    @pytest.mark.parametrize("cls", _REP_CLASSES, ids=lambda c: c.value)
    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-30])
    def test_small_non_linear_box_is_not_linear(self, cls, scale):
        # A + det(A) I: without the unit lift every residual of the 1e-30 box sat below the floor of 1
        def fn(a):
            return scale * (a + np.linalg.det(a) * np.eye(3))

        with pytest.raises(NotLinear):
            build_linear_rep(fn, cls, 3, 1e-8)

    @pytest.mark.parametrize("cls", _REP_CLASSES, ids=lambda c: c.value)
    def test_rep_is_scale_equivariant_bit_for_bit(self, cls):
        p = random_canonical(_REP_FORMS[cls], 3, 7)
        rep = build_linear_rep(lambda a: p(a), cls, 3, 1e-8).rep
        scaled = build_linear_rep(lambda a: 2.0**37 * p(a), cls, 3, 1e-8).rep
        assert np.array_equal(scaled, 2.0**37 * rep)

    @pytest.mark.parametrize("cls", _REP_CLASSES, ids=lambda c: c.value)
    def test_query_count(self, cls):
        # phi(I), the unit images (n^2, or n(n + 1)/2 where the class fixes the rest), 20 probes
        for n in (1, 2, 3):
            hidden = random_canonical(_REP_FORMS[cls], n, 6)
            queries = []

            def box(a):
                queries.append(a)
                return hidden(a)

            build_linear_rep(box, cls, n, 1e-8)
            units = n * (n + 1) // 2 if cls in (MatrixClass.SYMMETRIC, MatrixClass.UPPER_TRIANGULAR) else n * n
            assert len(queries) == 1 + units + 20


class TestRankOneSplit:
    def test_vec_identity(self):
        u0 = np.eye(3, dtype=complex).reshape(-1)
        u, w = rank_one_split(np.outer(u0, u0))
        # equal up to a common unimodular phase
        assert abs(abs(np.vdot(u, u0)) - np.linalg.norm(u) * np.linalg.norm(u0)) <= 1e-10
        assert np.linalg.norm(np.outer(u, w) - np.outer(u0, u0)) <= 1e-10

    def test_random_outer(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        j = np.outer(a, b)
        u, w = rank_one_split(j)
        assert np.linalg.norm(j - np.outer(u, w)) <= 1e-10 * np.linalg.norm(j)
        assert np.linalg.norm(u) == pytest.approx(np.linalg.norm(w))

    def test_identity_not_rank_one(self):
        with pytest.raises(NotRankOne):
            rank_one_split(np.eye(4))

    def test_zero_member_raises(self):
        with pytest.raises(NotRankOne, match="^matrix does not"):
            rank_one_split(np.zeros((3, 3)))
        stack = np.stack([np.outer(np.arange(1.0, 4.0), np.ones(3))] * 3)
        stack[1] = 0.0
        with pytest.raises(NotRankOne, match="stack member 1 does not") as info:
            rank_one_split(stack)
        assert info.value.member == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16])
    def test_stack_equals_member_calls(self, n):
        rng = np.random.default_rng(n)
        g = rng.standard_normal((2, n + 2, n)) + 1j * rng.standard_normal((2, n + 2, n))
        stack = g[0][:, :, None] * g[1][:, None, :]  # n + 2 rank-one members
        u, w = rank_one_split(stack)
        assert u.shape == w.shape == (n + 2, n)
        for k, m in enumerate(stack):
            uk, wk = rank_one_split(m)
            assert np.array_equal(u[k], uk) and np.array_equal(w[k], wk)
        # the first failing member is named; at n = 1 only the zero member fails
        stack[1] += np.eye(n) if n > 1 else 0.0
        stack[2] = 0.0
        with pytest.raises(NotRankOne, match=f"stack member {1 if n > 1 else 2} "):
            rank_one_split(stack)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(m=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), log_ratio=st.floats(-9.0, -5.0))
    def test_decision_matches_exact_singular_values(self, m, seed, log_ratio):
        # rank one plus a perturbation: tail ratio ||(s_2, s_3, ...)|| / s_1 up to 10^log_ratio
        rng = np.random.default_rng(seed)
        u0, w0 = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
        e = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        top = np.outer(u0, w0)
        j = top + 10.0 ** log_ratio * np.linalg.norm(top) / np.linalg.norm(e) * e
        s = singular_values_mp(j)
        with mpmath.workdps(50):
            ratio = float(mpmath.sqrt(sum(x**2 for x in s[1:])) / s[0])
        assume(abs(ratio / RANK_RATIO_TOL - 1.0) > 0.01)
        try:
            rank_one_split(np.stack([top, j]))
            accepted = True
        except NotRankOne as exc:
            assert exc.member == 1
            accepted = False
        assert accepted == (ratio <= RANK_RATIO_TOL)


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
        # phi(E_ij) = m_i r_j on the plain branch and m_j r_i on the transpose one: exactly one
        # of the E_i0 and E_0j image stacks has rank one
        for form in (PreserverForm.MN_TWO_SIDED, PreserverForm.PN_CONGRUENCE):
            for n in (2, 3):
                for tr in (False, True):
                    hidden = random_canonical(form, n, 3, transpose=tr)
                    ranks = tuple(_rank(m) == 1 for m in _unit_image_stacks(hidden, n))
                    assert ranks == (not tr, tr)
                    p, _ = recover(hidden, MatrixClass.FULL, n)
                    assert p.transpose == tr

    def test_n1_reports_plain_branch(self):
        p, res = recover(lambda a: 2.5 * a, MatrixClass.PD, 1)
        assert not p.transpose
        assert abs(p.alpha - 2.5) <= 1e-10
        assert res <= 1e-12

    def test_remark1_not_linear(self):
        with pytest.raises(NotLinear):
            recover(remark1_map, MatrixClass.PD, 3)

    @pytest.mark.parametrize("cls", [MatrixClass.FULL, MatrixClass.SYMMETRIC], ids=lambda c: c.value)
    @pytest.mark.parametrize("fn", [np.conj, lambda a: np.conj(a).swapaxes(-1, -2)], ids=["conj", "conj-T"])
    def test_conjugate_linear_is_not_linear(self, fn, cls):
        # real-linear and rank-one preserving, but phi(iA) = -i phi(A): the non-real c catches it
        with pytest.raises(NotLinear):
            recover(fn, cls, 3)

    @pytest.mark.parametrize("fn", [remark1_map, identity_map], ids=["remark1", "identity"])
    def test_nan_tolerance_never_passes(self, fn):
        for cls in (MatrixClass.FULL, MatrixClass.PD, MatrixClass.SYMMETRIC, MatrixClass.DIAGONAL):
            with pytest.raises(NotLinear):
                recover(fn, cls, 3, tol=float("nan"))

    @pytest.mark.parametrize("scale,n", [(1e-3, 5), (1e-30, 16)], ids=["1e-3-n5", "1e-30-n16"])
    def test_small_scalar_multiple_is_recovered(self, scale, n):
        # det(phi(I)) = 1e-15 failed an absolute 1e-12 singularity test; det(1e-30 I_16) underflows
        for cls in (MatrixClass.FULL, MatrixClass.PD, MatrixClass.SYMMETRIC,
                    MatrixClass.UPPER_TRIANGULAR, MatrixClass.DIAGONAL):
            p, res = recover(lambda a: scale * np.asarray(a), cls, n)
            assert abs(p.alpha - scale) <= 1e-12 * scale and res <= 1e-10

    @pytest.mark.parametrize("scale,n", [(1e-3, 5), (1e-30, 16)], ids=["1e-3-n5", "1e-30-n16"])
    def test_small_non_canonical_is_refused(self, scale, n):
        # A + det(A) I agrees with the identity on every matrix unit, and at 1e-30 every
        # residual would sit below the floor of 1 without the unit lift
        def fn(a):
            return scale * (a + np.linalg.det(a) * np.eye(n))

        for cls in (MatrixClass.FULL, MatrixClass.SYMMETRIC):
            with pytest.raises(NotLinear):
                recover(fn, cls, n)

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

    def test_pd_unit_determinant_must_be_positive_real(self):
        # phi(I) = -I is not PD at any n, though det(-I) = 1 at even n: core_linalg.is_pd is the gate
        for n in (2, 3, 4):
            with pytest.raises(NotCanonical, match=r"^map\(I\) is not certified positive definite on the PD class$"):
                recover(lambda a: -a, MatrixClass.PD, n)
        # the linearity probe is judged first: det(phi(I)) = -1.331 here as well
        with pytest.raises(NotLinear):
            recover(lambda a: -a - 0.1 * a @ a, MatrixClass.PD, 3)

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
                                          (PreserverForm.PN_CONGRUENCE, MatrixClass.PD),
                                          (PreserverForm.SN_CONGRUENCE, MatrixClass.SYMMETRIC),
                                          (PreserverForm.TN_DIAGONAL, MatrixClass.UPPER_TRIANGULAR),
                                          (PreserverForm.TN_DIAGONAL, MatrixClass.DIAGONAL)],
                             ids=["full", "pd", "symmetric", "upper-triangular", "diagonal"])
    def test_query_count(self, form, cls):
        # the unit, 2n - 1 unit images (n on the triangular classes), 11 + 10 linearity probes,
        # 50 round-trip probes
        for n in (1, 2, 3, 4, 16):
            hidden = random_canonical(form, n, 6)
            queries = []

            def box(a):
                queries.append(a)
                return hidden(a)

            recover(box, cls, n)
            assert len(queries) == (n + 72 if cls.triangular else 2 * n + 71)

    def test_unhandled_class_raises_before_any_query(self):
        queries = []
        with pytest.raises(ValueError, match="^recovery not defined for class hermitian$"):
            recover(lambda a: queries.append(a) or a, MatrixClass.HERMITIAN, 3)
        assert queries == []

    def test_diagonal_reading_an_off_diagonal_entry_fails_the_round_trip(self):
        # linear, so the linearity probe passes; [phi(A)]_00 reads A_01, which the round trip sees
        tn = random_canonical(PreserverForm.TN_DIAGONAL, 3, 0)
        with pytest.raises(NotCanonical, match="^round-trip residual .* exceeds 1.0e-08$"):
            recover(lambda a: tn(a) + a[0, 1] * _unit(3, 0, 0), MatrixClass.UPPER_TRIANGULAR, 3)

    @pytest.mark.parametrize("cls", [MatrixClass.UPPER_TRIANGULAR, MatrixClass.DIAGONAL],
                             ids=lambda c: c.value)
    def test_diagonal_image_off_a_basis_vector_is_not_canonical(self, cls):
        # keeps triu(A), but [phi(A)]_00 = A_00 + A_11, so psi(E_00) has diagonal (1/2, 0, 0)
        def box(a):
            out = np.triu(a).astype(complex)
            out[0, 0] = a[0, 0] + a[1, 1]
            return out

        with pytest.raises(NotCanonical, match="^psi\\(E_00\\) diagonal does not match a standard basis vector$"):
            recover(box, cls, 3)

    @pytest.mark.parametrize("cls", [MatrixClass.UPPER_TRIANGULAR, MatrixClass.DIAGONAL],
                             ids=lambda c: c.value)
    def test_repeated_diagonal_match_is_not_a_permutation(self, cls):
        # diag(A_00 + A_11, 0), but I on I: psi(E_00) and psi(E_11) both match e_0
        def box(a):
            if np.array_equal(a, np.eye(2)):
                return np.eye(2, dtype=complex)
            return np.diag([a[0, 0] + a[1, 1], 0.0]).astype(complex)

        with pytest.raises(NotCanonical, match="^diagonal matching is not a permutation$"):
            recover(box, cls, 2)

    def test_swap_map_not_canonical_on_full(self):
        # X -> diag-swapped non-two-sided linear map: neither the E_i0 nor the E_0j
        # images have rank one, recovery must refuse
        n = 2

        def shuffle(a):
            out = a.copy()
            out[0, 0], out[1, 1] = a[1, 1], a[0, 0]
            return out + a.T

        with pytest.raises(NotCanonical, match="neither the E_i0 nor the E_0j images have rank one"):
            recover(shuffle, MatrixClass.FULL, n)

    @pytest.mark.parametrize("form,cls", [(PreserverForm.MN_TWO_SIDED, MatrixClass.FULL),
                                          (PreserverForm.PN_CONGRUENCE, MatrixClass.PD)],
                             ids=["full", "pd"])
    def test_svd_shapes_per_branch(self, form, cls, monkeypatch):
        # one n^2 x n SVD of the E_i0 images; the transpose branch adds one of the E_0j images
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
            assert calls == [(9, 3)] * count


class TestSnStructure:
    @pytest.mark.parametrize("n", [1, 4])
    def test_one_rank_call_on_the_diagonal_images(self, n, monkeypatch):
        # one stacked SVD decides all n images of E_ii and yields q_1
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        hidden = random_canonical(PreserverForm.SN_CONGRUENCE, n, 5)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
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
            assert _rank(hidden(_unit(n, i, i))) == 1
        for i in range(n):
            for j in range(i + 1, n):
                d = _unit(n, i, j) + _unit(n, j, i)
                assert _rank(hidden(d)) == 2

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
