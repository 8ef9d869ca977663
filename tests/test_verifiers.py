"""Tests for the identity verifiers and oracle checks."""

import functools
import gc
import json
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preserver_lab import (
    CanonicalPreserver,
    DegenerateUnit,
    DimensionMismatch,
    LinearRep,
    MatrixClass,
    NotLinear,
    NotPositiveDefinite,
    NotUnital,
    PreserverForm,
    PreserverLabError,
    VerificationReport,
    build_linear_rep,
    check_homogeneity_additivity,
    check_jacobi,
    check_kadison_choi,
    check_minkowski,
    contains,
    determinant,
    mix_seed,
    oracle_dual_witness,
    oracle_jacobi,
    oracle_kadison_choi,
    oracle_minkowski,
    pinching,
    random_canonical,
    realize_map,
    recover,
    recovery_to_json,
    remark1_map,
    sample,
    scalar_residual,
    unitalize,
    verify_det_identity,
    verify_trace_identity,
)
from preserver_lab import cli, core_linalg, verifiers
from preserver_lab.cli import _default_weights
from preserver_lab.core_linalg import ldexp
from preserver_lab.domains import sample_batch
from preserver_lab.jsonio import dumps_stable, matrix_to_json
from preserver_lab.verifiers import _lifted

from oracles import det_battery_residuals, dual_witness_cascade

CONVEX = [(t, 1.0 - t) for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
PENCIL = [(1.0, lam) for lam in (1.0, -1.0, 1j, 2.0 + 1j)]
SUM = [(1.0, 1.0)]

identity_map = lambda a: a.copy()  # noqa: E731


def _cayley_orthogonal(n, seed):
    """Complex orthogonal O = (I - K)(I + K)^{-1} from a complex skew-symmetric K."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = 0.5 * (g - g.T)
    return (np.eye(n) - k) @ np.linalg.inv(np.eye(n) + k)


def _conditioned(n, kappa, seed):
    """U diag(1 ... 1/kappa) V with seeded unitary U, V: condition number kappa."""
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            for _ in range(2))
    return (u * np.logspace(0.0, -np.log10(kappa), n)) @ v


affine_map = lambda a: a + np.eye(a.shape[0])  # noqa: E731


class TestDetIdentity:
    def test_identity_map_trivial(self):
        for cls in (MatrixClass.PD, MatrixClass.SYMMETRIC, MatrixClass.FULL,
                    MatrixClass.UPPER_TRIANGULAR):
            rep = verify_det_identity(identity_map, cls, 3, SUM, 50, 1, 1e-8)
            assert rep.passed and rep.max_residual <= 1e-12

    def test_canonical_congruence_passes(self):
        p = random_canonical(PreserverForm.PN_CONGRUENCE, 3, 0)
        rep = verify_det_identity(p, MatrixClass.PD, 3, CONVEX, 100, 7, 1e-8,
                                  identity="det-convex")
        assert rep.passed
        assert rep.failures == ()

    def test_affine_shift_fails(self):
        # worked instance: alpha^n = det(2I) so at A = B = I both sides are 4^n,
        # but at A = B = 2I the left side is 6^n against 8^n on the right
        n = 3
        unit_det = float(np.linalg.det(2.0 * np.eye(n)))
        assert np.linalg.det(4.0 * np.eye(n)) == pytest.approx(unit_det * np.linalg.det(2.0 * np.eye(n)))
        lhs = np.linalg.det(6.0 * np.eye(n))
        rhs = unit_det * np.linalg.det(4.0 * np.eye(n))
        assert abs(lhs - rhs) > 1.0
        rep = verify_det_identity(affine_map, MatrixClass.PD, n, SUM, 100, 3, 1e-8,
                                  identity="det-sum")
        assert not rep.passed
        assert rep.failures and len(rep.failures) <= 10

    @pytest.mark.parametrize("weights", [[(0.0, 0.0)], [(1.0, 1.0), (0.0, 0.0)], [(np.nan, 1.0)],
                                         [(1.0, np.inf)], [(1.0, complex(0.0, np.nan))], []],
                             ids=["zero", "zero-second", "nan", "inf", "nan-imag", "empty"])
    def test_degenerate_weights_are_rejected(self, weights):
        # a (0, 0) pair compares det(0) with det(0) and passes any map
        with pytest.raises(ValueError, match="weights"):
            verify_det_identity(pinching, MatrixClass.FULL, 3, weights, 10, 1, 1e-8)

    def test_pencil_weights_complex(self):
        p = random_canonical(PreserverForm.MN_TWO_SIDED, 3, 4, transpose=True)
        rep = verify_det_identity(p, MatrixClass.FULL, 3, PENCIL, 100, 2, 1e-8,
                                  identity="det-pencil")
        assert rep.passed

    def test_degenerate_unit(self):
        with pytest.raises(DegenerateUnit):
            verify_det_identity(lambda a: np.zeros_like(a), MatrixClass.PD, 2,
                                SUM, 10, 0, 1e-8)

    @pytest.mark.parametrize("scale,n", [(1e-3, 5), (1e-30, 16)], ids=["1e-3-n5", "1e-30-n16"])
    def test_small_scalar_multiple_is_regular(self, scale, n):
        # det(phi(I)) = 1e-15 (and an underflowed 0 at n = 16) is not singular: phi is canonical
        for cls in (MatrixClass.FULL, MatrixClass.PD, MatrixClass.SYMMETRIC,
                    MatrixClass.UPPER_TRIANGULAR):
            fn = lambda a: scale * np.asarray(a)  # noqa: E731
            assert verify_det_identity(fn, cls, n, SUM, 20, 1, 1e-8).passed
            assert verify_trace_identity(fn, cls, n, "product", 20, 1, 1e-8).passed

    @pytest.mark.parametrize("scale,n", [(1e-3, 5), (1e-30, 16)], ids=["1e-3-n5", "1e-30-n16"])
    def test_small_non_preserver_fails(self, scale, n):
        # both sides of the identity sit far below the residual floor of 1 at this scale,
        # so without the unit lift A -> scale A^2 would pass
        fn = lambda a: scale * (np.asarray(a) @ np.asarray(a))  # noqa: E731
        for cls in (MatrixClass.FULL, MatrixClass.PD, MatrixClass.SYMMETRIC,
                    MatrixClass.UPPER_TRIANGULAR):
            assert not verify_det_identity(fn, cls, n, SUM, 20, 1, 1e-8).passed

    def test_lift_exponent_is_exact(self):
        # max |phi(I)| = 0.75 is lifted by 2^1 and 2^-60 phi by exactly 2^61, the same images
        for fn in (lambda a: 0.75 * a, lambda a: 0.75 * (a @ a)):
            tiny = lambda a, fn=fn: 2.0**-60 * fn(a)  # noqa: E731
            assert [_lifted(f, MatrixClass.FULL, 3)[0] for f in (fn, tiny)] == [1, 61]
            for cls in (MatrixClass.FULL, MatrixClass.UPPER_TRIANGULAR):
                assert (verify_det_identity(tiny, cls, 3, CONVEX, 20, 1, 1e-8).to_dict()
                        == verify_det_identity(fn, cls, 3, CONVEX, 20, 1, 1e-8).to_dict())

    @pytest.mark.parametrize("scale", [1e-310, 1e-320, 2e-323])
    def test_subnormal_non_preserver_fails(self, scale):
        # phi(I) is subnormal; its lift 2^k is exact at every k, so the defect of remark1 shows in
        # full instead of sitting below the residual floor of 1
        fn = lambda a: scale * remark1_map(a)  # noqa: E731
        for weights in (CONVEX, PENCIL):
            rep = verify_det_identity(fn, MatrixClass.FULL, 3, weights, 200, 0, 1e-8)
            assert not rep.passed and rep.max_residual >= 0.5

    def test_subnormal_preserver_passes(self):
        # its images keep about 44 bits at 1e-310, so the lifted comparison is relative and close
        p = random_canonical(PreserverForm.MN_TWO_SIDED, 3, 0)
        rep = verify_det_identity(lambda a: 1e-310 * p(a), MatrixClass.FULL, 3, CONVEX, 200, 0, 1e-8)
        assert rep.passed and rep.max_residual <= 1e-12

    def test_empty_weights_rejected(self):
        with pytest.raises(ValueError):
            verify_det_identity(identity_map, MatrixClass.PD, 2, [], 10, 0, 1e-8)

    def test_report_is_deterministic(self):
        p = random_canonical(PreserverForm.SN_CONGRUENCE, 3, 5)
        r1 = verify_det_identity(p, MatrixClass.SYMMETRIC, 3, CONVEX, 50, 9, 1e-8)
        r2 = verify_det_identity(p, MatrixClass.SYMMETRIC, 3, CONVEX, 50, 9, 1e-8)
        assert r1.to_dict() == r2.to_dict()

    def test_perturbed_rep_discrimination(self):
        # one entry of the map's n^2 x n^2 matrix representation perturbed by
        # 1e-3 ||M||: no longer a two-sided multiplication, det-sum must fail
        n = 3
        for seed in range(5):
            p = random_canonical(PreserverForm.PN_CONGRUENCE, n, seed)
            lin = build_linear_rep(p, MatrixClass.PD, n, 1e-8)
            rep_mat = lin.rep.copy()
            rep_mat[0, 0] += 1e-3 * np.linalg.norm(p.M)
            bad = lambda a, _r=rep_mat: (_r @ a.reshape(-1)).reshape(n, n)  # noqa: E731
            report = verify_det_identity(bad, MatrixClass.PD, n, SUM, 100, seed, 1e-8)
            assert not report.passed
            assert report.max_residual >= 1e-5


    def test_overflowing_map_fails_and_serializes(self):
        # alpha = 1e200 and M = 1e200 I overflow to inf, so every residual is NaN
        eye = np.eye(2, dtype=complex)
        p = CanonicalPreserver(PreserverForm.MN_TWO_SIDED, 2, 1e200 + 0j, M=1e200 * eye, N=eye)
        with np.errstate(all="ignore"):
            rep = verify_det_identity(p, MatrixClass.FULL, 2, SUM, 50, 1, 1e-8,
                                      identity="det-sum")
        report = json.loads(dumps_stable(rep.to_dict()))
        assert report["pass"] is False
        assert report["max_residual"] == 1e100
        assert len(report["failures"]) == 10

    def test_failure_recipe_reproduces_pair(self):
        # README: failure {"index": i} is pair i of the stacks drawn from
        # mix_seed(seed, 0) and mix_seed(seed, 1)
        n, samples, seed = 3, 100, 3
        rep = verify_det_identity(affine_map, MatrixClass.PD, n, SUM, samples, seed, 1e-8,
                                  identity="det-sum")
        failures = rep.to_dict()["failures"]
        assert failures and all(list(f) == ["index", "residual"] for f in failures)
        a_all = sample_batch(MatrixClass.PD, n, mix_seed(seed, 0), samples)
        b_all = sample_batch(MatrixClass.PD, n, mix_seed(seed, 1), samples)
        k = _lifted(affine_map, MatrixClass.PD, n)[0]  # phi(I) = 2I: 2^-1 takes it into [1, 2)
        assert k == -1
        unit_det = determinant(ldexp(affine_map(np.eye(n)), k))
        for f in failures:
            a, b = a_all[f["index"]], b_all[f["index"]]
            lhs = determinant(ldexp(affine_map(a), k) + ldexp(affine_map(b), k))
            assert scalar_residual(lhs, unit_det * determinant(a + b)) == f["residual"]


_CLASS_FORM = {MatrixClass.FULL: PreserverForm.MN_TWO_SIDED, MatrixClass.SYMMETRIC: PreserverForm.SN_CONGRUENCE,
               MatrixClass.UPPER_TRIANGULAR: PreserverForm.TN_DIAGONAL, MatrixClass.DIAGONAL: PreserverForm.TN_DIAGONAL}


def _counting(monkeypatch, module, name, calls):
    """Replace ``module.name`` by a wrapper that appends the shape of its first argument to ``calls``."""
    real = getattr(module, name)

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)
    monkeypatch.setattr(module, name, counted)


class TestStackedDetPass:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("cls", list(MatrixClass), ids=lambda c: c.value)
    def test_equals_the_per_pair_loop_bit_for_bit(self, cls, n, monkeypatch):
        # the default weights of det-sum, det-convex and det-pencil (1, 5 and n + 1 pairs); 2000
        # samples split the pairs into several chunks at every n, 1 and 7 leave them in one
        kept = []
        report = verifiers._report
        monkeypatch.setattr(verifiers, "_report", lambda *args: kept.append(args[-1]) or report(*args))
        p = random_canonical(_CLASS_FORM.get(cls, PreserverForm.PN_CONGRUENCE), n, n)
        for identity in ("det-sum", "det-convex", "det-pencil"):
            weights = _default_weights(identity, n)
            for samples in (1, 7, 200, 2000):
                verify_det_identity(p, cls, n, weights, samples, 4, 1e-8)
                ref = det_battery_residuals(p, cls, n, weights, samples, 4)
                assert kept.pop().tobytes() == ref.tobytes(), (identity, samples)

    def test_non_preserver_equals_the_per_pair_loop(self, monkeypatch):
        # residuals far from 0, including the non-finite sentinel of an overflowing map
        kept = []
        report = verifiers._report
        monkeypatch.setattr(verifiers, "_report", lambda *args: kept.append(args[-1]) or report(*args))
        eye = np.eye(2, dtype=complex)
        overflow = CanonicalPreserver(PreserverForm.MN_TWO_SIDED, 2, 1e200 + 0j, M=1e200 * eye, N=eye)
        for fn, n in ((remark1_map, 3), (affine_map, 4), (overflow, 2)):
            verify_det_identity(fn, MatrixClass.FULL, n, PENCIL, 300, 2, 1e-8)
            assert kept.pop().tobytes() == det_battery_residuals(fn, MatrixClass.FULL, n, PENCIL, 300, 2).tobytes()

    @pytest.mark.parametrize("n,samples,chunks", [(2, 200, 1), (3, 200, 3), (5, 200, 5), (3, 7, 1)])
    def test_one_determinant_per_side_per_chunk(self, n, samples, chunks, monkeypatch):
        # a chunk holds as many pairs as fit in 64 KiB of (samples, n, n) stack, at least one
        dets = []
        _counting(monkeypatch, verifiers, "determinant", dets)
        p = random_canonical(PreserverForm.MN_TWO_SIDED, n, 0)
        assert verify_det_identity(p, MatrixClass.FULL, n, CONVEX, samples, 1, 1e-8).passed
        assert dets[0] == (n, n) and len(dets) == 1 + 2 * chunks  # phi(I), then both sides of every chunk
        assert dets[1::2] == dets[2::2] and sum(shape[0] for shape in dets[1::2]) == len(CONVEX)

    def test_triangular_classes_take_no_full_determinant(self, monkeypatch):
        dets = []
        _counting(monkeypatch, verifiers, "determinant", dets)
        p = random_canonical(PreserverForm.TN_DIAGONAL, 3, 0)
        for cls in (MatrixClass.UPPER_TRIANGULAR, MatrixClass.DIAGONAL):
            assert verify_det_identity(p, cls, 3, CONVEX, 200, 1, 1e-8).passed
        assert dets == [(3, 3), (3, 3)]  # phi(I) alone; the pairs combine diagonals

    def test_unit_image_is_scaled_once(self, monkeypatch):
        # one _binade pass on phi(I) per battery: _lifted's; is_pd, hermitian_defect and
        # is_singular take its output as it is
        unit_passes = []
        for module in (core_linalg, verifiers):
            _counting(monkeypatch, module, "_binade", unit_passes)
        p = random_canonical(PreserverForm.MN_TWO_SIDED, 3, 0)
        assert verify_det_identity(p, MatrixClass.FULL, 3, CONVEX, 200, 1, 1e-8).passed
        assert unit_passes == [(3, 3), (5, 1, 2)]  # phi(I), then the weight pairs
        unit_passes.clear()
        p = random_canonical(PreserverForm.PN_CONGRUENCE, 3, 0)
        assert verify_trace_identity(p, MatrixClass.PD, 3, "product", 50, 1, 1e-8).passed
        assert unit_passes == [(3, 3)]

    @pytest.mark.parametrize("cls", [MatrixClass.FULL, MatrixClass.PD, MatrixClass.UPPER_TRIANGULAR],
                             ids=lambda c: c.value)
    def test_working_set_at_n5(self, cls):
        # at n = 5 and 200 samples one pair fills a chunk, so the peak is the four sample and image
        # stacks and one pair's temporaries: 7.2 stacks traced for the per-pair loop (573 KB), 5.1 to
        # 6.7 for this pass.  A chunk rule that put more pairs in a chunk here would show first.
        stack = 200 * 5 * 5 * 16
        p = random_canonical(_CLASS_FORM.get(cls, PreserverForm.PN_CONGRUENCE), 5, 0)
        run = lambda: verify_det_identity(p, cls, 5, CONVEX, 200, 1, 1e-8)  # noqa: E731
        assert run().passed  # caches and the sampler's thread-local generator are warm
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 7 * stack


class TestTraceIdentity:
    def test_identity_map_trivial(self):
        for kind in ("inverse", "product", "square", "power"):
            rep = verify_trace_identity(identity_map, MatrixClass.PD, 3, kind, 50, 1, 1e-8)
            assert rep.passed and rep.max_residual <= 1e-12

    @pytest.mark.parametrize("k", [-900, -400, 400, 900])
    def test_inverse_of_a_scaled_map_is_exact(self, k):
        # det(2^k X) leaves the normal range at n <= 3, where inverse is in closed form: it takes
        # such a member into [1, 2) first (max_residual was 1e100 at n <= 3 for these k)
        for n in (1, 2, 3, 4):
            rep = verify_trace_identity(lambda a: 2.0**k * a, MatrixClass.FULL, n, "inverse", 20, 1, 1e-8)
            assert rep.max_residual == 0.0, n

    def test_scalar_inverse_exact_for_any_alpha(self):
        for alpha in (0.5, 1.0, 3.25):
            fn = lambda a, _al=alpha: _al * a  # noqa: E731
            rep = verify_trace_identity(fn, MatrixClass.PD, 1, "inverse", 25, 2, 1e-12)
            assert rep.passed

    def test_canonical_trace_inverse(self):
        cases = [
            (PreserverForm.PN_CONGRUENCE, MatrixClass.PD),
            (PreserverForm.SN_CONGRUENCE, MatrixClass.SYMMETRIC),
            (PreserverForm.MN_TWO_SIDED, MatrixClass.FULL),
            (PreserverForm.TN_DIAGONAL, MatrixClass.UPPER_TRIANGULAR),
        ]
        for form, cls in cases:
            p = random_canonical(form, 3, 11)
            rep = verify_trace_identity(p, cls, 3, "inverse", 100, 3, 1e-8)
            assert rep.passed, (form, rep.max_residual)

    def test_nonunital_canonical_product_and_power(self):
        # product/power/square hold in the unital gauge even though the random
        # canonical maps are not unital
        p = random_canonical(PreserverForm.PN_CONGRUENCE, 3, 13)
        assert verify_trace_identity(p, MatrixClass.PD, 3, "product", 50, 5, 1e-8).passed
        assert verify_trace_identity(p, MatrixClass.PD, 3, "square", 50, 5, 1e-8).passed
        s = random_canonical(PreserverForm.SN_CONGRUENCE, 3, 13)
        for k in (1, 2, 3):
            rep = verify_trace_identity(s, MatrixClass.SYMMETRIC, 3, "power", 50, 5, 1e-7, power=k)
            assert rep.passed, (k, rep.max_residual)

    def test_remark1_square_passes_product_fails(self):
        sq = verify_trace_identity(remark1_map, MatrixClass.HERMITIAN, 3, "square", 100, 1, 1e-9)
        assert sq.passed
        pr = verify_trace_identity(remark1_map, MatrixClass.HERMITIAN, 3, "product", 100, 1, 1e-8)
        assert not pr.passed
        assert pr.max_residual > 1e-3

    def test_singular_images_fail_only_their_own_index(self):
        # the box zeroes the last row of inputs with Re a_11 < 0, so the stacked
        # inverse of the B images hits singular members
        n, samples, seed = 3, 40, 8

        def box(a):
            out = np.array(a, dtype=complex)
            if out[0, 0].real < 0:
                out[-1] = 0.0
            return out

        rep = verify_trace_identity(box, MatrixClass.FULL, n, "inverse", samples, seed, 1e-8)
        a_all = sample_batch(MatrixClass.FULL, n, mix_seed(seed, 0), samples)
        b_all = sample_batch(MatrixClass.FULL, n, mix_seed(seed, 1), samples, 1e-6)
        singular = b_all[:, 0, 0].real < 0
        assert 0 < singular.sum() < samples
        expected = []
        for a, b, sing in zip(a_all, b_all, singular):
            if sing:
                expected.append(1e100)
            else:
                lhs = np.trace(box(a) @ np.linalg.inv(box(b)))
                expected.append(scalar_residual(lhs, np.trace(a @ np.linalg.inv(b))))
        failing = [(i, r) for i, r in enumerate(expected) if r > 1e-8][:10]
        assert [i for i, _ in rep.failures] == [i for i, _ in failing]
        assert [r for _, r in rep.failures] == pytest.approx([r for _, r in failing], rel=1e-12)
        assert rep.max_residual == 1e100

    @pytest.mark.parametrize("map_fn,cls,n", [
        (CanonicalPreserver(PreserverForm.SN_CONGRUENCE, 16, 1.5, M=2.0 * _cayley_orthogonal(16, 1)),
         MatrixClass.SYMMETRIC, 16),
        (CanonicalPreserver(PreserverForm.PN_CONGRUENCE, 5, 0.75, M=_conditioned(5, 1e3, 0)),
         MatrixClass.PD, 5),
        (CanonicalPreserver(PreserverForm.SN_CONGRUENCE, 5, 0.75 + 0.5j, M=_conditioned(5, 1e3, 0)),
         MatrixClass.SYMMETRIC, 5),
        (CanonicalPreserver(PreserverForm.MN_TWO_SIDED, 3, 1.25 - 0.5j, M=_conditioned(3, 1e3, 3),
                            N=_conditioned(3, 1e3, 4)), MatrixClass.FULL, 3),
        (CanonicalPreserver(PreserverForm.PN_CONGRUENCE, 3, 0.75, M=_conditioned(3, 1e3, 3)), MatrixClass.FULL, 3),
    ], ids=["sn-equal-takagi-values-n16", "pn-kappa-1e3", "sn-kappa-1e3", "mn-full-kappa-1e3", "pn-full-kappa-1e3"])
    def test_gauge_edge_cases_pass(self, map_fn, cls, n):
        # phi(I) = 6 I for P = 2 x complex orthogonal: every singular value is repeated; on the full
        # class a gauge by phi(I)^{-1} alone loses about kappa^2 eps, the two-sided SVD gauge does not
        for kind in ("product", "square", "power"):
            rep = verify_trace_identity(map_fn, cls, n, kind, 50, 5, 1e-8, power=3)
            assert rep.passed, (kind, rep.max_residual)

    @pytest.mark.parametrize("n", [2, 3])
    def test_triangular_gauge_reads_the_diagonal_alone(self, n):
        # the identity on diagonals, writing tr(A) below the diagonal: phi(I)^{-1} (.) would mix
        # phi(I)'s lower entry into the diagonal; diag(phi(I))^{-1} (.) keeps the diagonal data
        def box(a):
            out = np.array(a, dtype=complex)
            out[-1, 0] += np.trace(a)
            return out

        for kind in ("product", "square", "power"):
            rep = verify_trace_identity(box, MatrixClass.UPPER_TRIANGULAR, n, kind, 50, 5, 1e-8, power=3)
            assert rep.passed, (kind, rep.max_residual)

    @pytest.mark.parametrize("cls,unit,error", [
        (MatrixClass.SYMMETRIC, np.diag([1.0, 0.0]), DegenerateUnit),
        (MatrixClass.FULL, np.diag([1.0, 0.0]), DegenerateUnit),
        (MatrixClass.PD, np.diag([1.0, -1.0]), NotPositiveDefinite),
        (MatrixClass.HERMITIAN, np.array([[1.0, 1.0], [0.0, 1.0]]), NotPositiveDefinite),
    ], ids=["symmetric-singular", "full-singular", "pd-indefinite", "hermitian-not-hermitian"])
    def test_bad_unit_image_raises(self, cls, unit, error):
        with pytest.raises(error):
            verify_trace_identity(lambda a: unit, cls, 2, "product", 10, 0, 1e-8)

    @pytest.mark.parametrize("cls", [MatrixClass.PD, MatrixClass.SYMMETRIC, MatrixClass.FULL],
                             ids=lambda c: c.value)
    @pytest.mark.parametrize("unit", [np.full((2, 2), np.nan), np.array([[1.0, np.inf], [0.0, 1.0]]),
                                      np.array([[1.0, complex(np.inf, 1.0)], [0.0, 1.0]])],
                             ids=["nan", "inf", "complex-inf"])
    def test_non_finite_unit_image_gives_nan_companion(self, cls, unit):
        # called outside the batteries' errstate: a warning here is an error (1.0 * (inf + 0j) is NaN)
        companion = unitalize(lambda a: unit, cls, 2)
        assert np.isnan(companion(np.eye(2))).all()
        assert np.isnan(companion(np.stack([np.eye(2)] * 3))).all()

    @pytest.mark.parametrize("cls", [MatrixClass.FULL, MatrixClass.PD, MatrixClass.SYMMETRIC,
                                     MatrixClass.UPPER_TRIANGULAR], ids=lambda c: c.value)
    def test_exactly_unital_map_keeps_its_images(self, cls):
        # no already-unital shortcut: the SVD of I is (I, 1, I), and the diagonal gauge of I is I, so
        # every image is kept to the last bit (a zero entry may come back as -0)
        for n in range(1, 17):
            x = sample_batch(cls, n, mix_seed(9, n), 7)
            for fn in (identity_map, pinching):
                assert np.array_equal(unitalize(fn, cls, n)(x), [fn(m) for m in x])

    def test_tn_diagonal_power(self):
        p = random_canonical(PreserverForm.TN_DIAGONAL, 4, 3)
        rep = verify_trace_identity(p, MatrixClass.UPPER_TRIANGULAR, 4, "power", 50, 7, 1e-8, power=3)
        assert rep.passed


class TestStackDispatch:
    @staticmethod
    def _batteries(fn):
        cls = MatrixClass.FULL
        return [verify_det_identity(fn, cls, 3, CONVEX, 30, 4, 1e-8, identity="det-convex"),
                verify_trace_identity(fn, cls, 3, "inverse", 30, 4, 1e-8),
                verify_trace_identity(fn, cls, 3, "product", 30, 4, 1e-8)]

    @pytest.mark.parametrize("kind", ["canonical", "linear-rep"])
    def test_transparent_wrapper_keeps_the_stacked_path(self, kind):
        p = random_canonical(PreserverForm.MN_TWO_SIDED, 3, 8)
        if kind == "linear-rep":
            rep = build_linear_rep(p, MatrixClass.FULL, 3, 1e-8).rep
            p = realize_map({"kind": "linear-rep", "rep": matrix_to_json(rep)}, 3)
        shapes = []

        @functools.wraps(p)
        def wrapped(a):
            shapes.append(np.shape(a))
            return p(a)

        got = self._batteries(wrapped)
        # phi(I) (not for trace-inverse), then one call per 30-member stack
        stacks = [(30, 3, 3), (30, 3, 3)]
        assert shapes == [(3, 3), *stacks, *stacks, (3, 3), *stacks]
        for mine, plain in zip(got, self._batteries(p)):
            assert dumps_stable(mine.to_dict()) == dumps_stable(plain.to_dict())
            assert mine.passed

    def test_plain_closure_is_queried_per_matrix(self):
        p = random_canonical(PreserverForm.MN_TWO_SIDED, 3, 8)
        shapes = []

        def box(a):
            shapes.append(np.shape(a))
            return p(a)

        self._batteries(box)
        assert set(shapes) == {(3, 3)}
        assert len(shapes) == 3 * 2 * 30 + 2

    def test_norm_conjugation_takes_stacks_with_per_matrix_values(self):
        shapes = []

        @functools.wraps(remark1_map)
        def wrapped(a):
            shapes.append(np.shape(a))
            return remark1_map(a)

        def batteries(fn):
            cls = MatrixClass.PD
            return [verify_det_identity(fn, cls, 3, SUM, 30, 4, 1e-8, identity="det-sum"),
                    verify_trace_identity(fn, cls, 3, "square", 30, 4, 1e-9),
                    check_homogeneity_additivity(fn, cls, 3, 30, 4, 1e-8)]

        got = batteries(wrapped)
        stack = (30, 3, 3)
        # det-sum costs exactly 3 queries: phi(I) and the two stacks; the map is
        # unital, so trace-square runs on it directly after its phi(I) check;
        # homogeneity-additivity reads phi(I) for its lift, then six stacks
        assert shapes == [(3, 3), stack, stack, (3, 3), stack, (3, 3), *[stack] * 6]
        for mine, plain in zip(got, batteries(lambda a: remark1_map(a))):
            assert dumps_stable(mine.to_dict()) == dumps_stable(plain.to_dict())
        assert [r.passed for r in got] == [False, True, False]

    @pytest.mark.parametrize("scale", [1.0, 1e-3], ids=["unit", "lifted"])
    def test_lift_keeps_the_call_shapes(self, scale):
        # det-sum, homogeneity-additivity and recover read phi(I) once and lift a map below unit
        # scale; lifted, a stack-capable map still takes whole stacks, a per-matrix box keeps its count
        hidden = random_canonical(PreserverForm.MN_TWO_SIDED, 3, 8)
        p = replace(hidden, alpha=scale * hidden.alpha)
        assert (_lifted(p, MatrixClass.FULL, 3)[0] > 0) == (scale < 1.0)
        shapes = []

        def box(a):
            shapes.append(np.shape(a))
            return p(a)

        cls = MatrixClass.FULL
        batteries = [lambda fn: verify_det_identity(fn, cls, 3, SUM, 30, 4, 1e-8, identity="det-sum"),
                     lambda fn: check_homogeneity_additivity(fn, cls, 3, 30, 4, 1e-8),
                     lambda fn: recover(fn, cls, 3)]
        det, homog, (q, _) = [battery(functools.wraps(p)(lambda a: box(a))) for battery in batteries]
        stack = (30, 3, 3)
        # recover: phi(I), 10 + 11 linearity probes, the 2n - 1 unit images, 50 round-trip probes
        assert shapes == [(3, 3), stack, stack, (3, 3), *[stack] * 6,
                          (3, 3), (10, 3, 3), (11, 3, 3), (5, 3, 3), (50, 3, 3)]
        assert det.passed and homog.passed and abs(q.alpha - p.alpha) <= 1e-12 * abs(p.alpha)
        for battery, count in zip(batteries, (1 + 2 * 30, 1 + 6 * 30, 2 * 3 + 71)):
            shapes.clear()
            battery(box)
            assert set(shapes) == {(3, 3)} and len(shapes) == count


    @pytest.mark.parametrize("run", [
        lambda box: verify_det_identity(box, MatrixClass.FULL, 3, SUM, 20, 0, 1e-8, identity="det-sum"),
        lambda box: verify_trace_identity(box, MatrixClass.FULL, 3, "product", 20, 0, 1e-8),
        lambda box: recover(box, MatrixClass.FULL, 3),
        lambda box: check_kadison_choi(box, 3, 20, 0),
    ], ids=["det-sum", "trace-product", "recover", "kadison-choi"])
    @pytest.mark.parametrize("box", [
        lambda a: 1.0,
        lambda a: np.eye(4),
        lambda a: "x",
        lambda a: a if a[0, 0].real > 0 else a[:2, :2],  # right on phi(I), ragged on the stacks
    ], ids=["scalar", "larger-matrix", "string", "ragged"])
    def test_an_image_that_is_no_matrix_of_the_input_shape_is_a_dimension_mismatch(self, run, box):
        with pytest.raises(DimensionMismatch, match="numeric matrix of that size"):
            run(box)


class TestSharedBattery:
    """counterexample's trace-square, homogeneity-additivity and det-sum run on one battery."""

    @staticmethod
    def _public(fn, n, samples, seed):
        cls = MatrixClass.PD
        return [verify_trace_identity(fn, cls, n, "square", samples, seed, 1e-9),
                check_homogeneity_additivity(fn, cls, n, samples, seed, 1e-8),
                verify_det_identity(fn, cls, n, SUM, samples, seed, 1e-8, identity="det-sum")]

    @pytest.mark.parametrize("n,samples,seed", [(2, 50, 1), (3, 30, 4)])
    def test_one_front_end_for_three_reductions(self, n, samples, seed, monkeypatch, capsys):
        queries = []

        def box(a):  # a black box, queried once per matrix
            queries.append(np.array(a))
            return remark1_map(a)

        bat = verifiers._Battery(box, MatrixClass.PD, n, seed, samples)
        shared = [bat.trace("square", 1e-9), bat.homogeneity(1e-8), bat.det(SUM, 1e-8, "det-sum")]
        # phi(I) first, then A, B, A + B and the three lambda A, each once
        assert np.array_equal(queries[0], np.eye(n)) and len(queries) == 1 + 6 * samples
        queries.clear()
        public = self._public(box, n, samples, seed)
        assert len(queries) == 3 + 9 * samples
        for mine, ref in zip(shared, public):
            assert dumps_stable(mine.to_dict()) == dumps_stable(ref.to_dict())

        # the command's report, rebuilt from the three public batteries, and its query count
        queries.clear()
        monkeypatch.setattr(cli, "NormConjugation", lambda scale: box if scale == 1.0 else None)
        argv = ["counterexample", "--n", str(n), "--samples", str(samples), "--seed", str(seed)]
        assert cli.main(argv) == 0 and len(queries) == 1 + 6 * samples
        square, add, det = public
        expected = {"command": "counterexample", "n": n, "samples": samples, "generator": "standard",
                    "signature": {"trace-square": "pass", "additivity": "fail", "det-sum": "fail"},
                    "trace_square_max_residual": square.max_residual,
                    "additivity_max_residual": add.max_residual, "det_sum_max_residual": det.max_residual,
                    "pass": True}
        assert capsys.readouterr().out == dumps_stable(expected) + "\n"

    def test_battery_is_freed_on_return(self):
        # no reference cycle and no report holding it: refcounting frees it with its last reduction
        p = random_canonical(PreserverForm.PN_CONGRUENCE, 3, 0)
        bat = verifiers._Battery(p, MatrixClass.PD, 3, 1, 20)
        reports = [bat.trace("product", 1e-8), bat.homogeneity(1e-8), bat.det(SUM, 1e-8, "det-sum")]
        ref = weakref.ref(bat)
        gc.disable()
        try:
            del bat
            assert ref() is None and all(r.passed for r in reports)
        finally:
            gc.enable()


class TestMinkowski:
    def test_proportional_equality(self):
        a = sample(MatrixClass.PD, 3, 5)
        res = check_minkowski(a, 3.0 * a)
        assert res.equality and res.proportional

    def test_strict_inequality_example(self):
        res = check_minkowski(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]))
        assert res.lhs == pytest.approx(3.0)
        assert res.rhs == pytest.approx(2.0 * np.sqrt(2.0))
        assert not res.equality and not res.proportional

    def test_identity_pair(self):
        res = check_minkowski(np.eye(2), np.eye(2))
        assert res.lhs == pytest.approx(2.0)
        assert res.rhs == pytest.approx(2.0)
        assert res.equality and res.proportional

    def test_direction_over_samples(self):
        for seed in range(200):
            a = sample(MatrixClass.PD, 3, 2 * seed)
            b = sample(MatrixClass.PD, 3, 2 * seed + 1)
            res = check_minkowski(a, b)
            assert res.lhs >= res.rhs - 1e-10
            assert not res.equality  # random pairs are never proportional

    def test_rejects_non_pd(self):
        with pytest.raises(NotPositiveDefinite):
            check_minkowski(np.diag([1.0, -1.0]), np.eye(2))

    def test_indefinite_matrix_past_eigvalsh_is_rejected(self):
        # eigvalsh puts the lowest eigenvalue at +2.4e-7, but the stored A has
        # det -1002.7 exactly: the certified gate rejects it everywhere
        z = 2022615014.5701785 + 2057734377.0118203j
        a = np.array([[3433196802.4556975, z], [z.conjugate(), 2424924273.9437675]])
        with pytest.raises(NotPositiveDefinite):
            check_minkowski(a, np.eye(2))
        with pytest.raises(NotPositiveDefinite):
            unitalize(lambda x: a, MatrixClass.PD, 2)
        assert not contains(MatrixClass.PD, a, 1e-10)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        a = np.eye(2)
        a[1, 1] = bad
        with pytest.raises(NotPositiveDefinite):
            check_minkowski(a, np.eye(2))
        with pytest.raises(NotPositiveDefinite):
            check_minkowski(np.eye(2), a)


class TestJacobi:
    def test_scaling_path(self):
        # A(t) = t I at t0 = 1: derivative of t^n is n
        n = 4
        res = check_jacobi(np.zeros((n, n)), np.eye(n), 1.0, 1e-4)
        assert res.formula == pytest.approx(n)
        assert res.residual <= 1e-8

    def test_diagonal_direction(self):
        res = check_jacobi(np.eye(2), np.diag([1.0, 2.0]), 0.0, 1e-4)
        assert res.formula == pytest.approx(3.0)  # d/dt (1+t)(1+2t) at 0
        assert res.residual <= 1e-8

    def test_random_paths(self):
        for seed in range(100):
            a0 = sample(MatrixClass.FULL, 5, 2 * seed)
            adir = sample(MatrixClass.FULL, 5, 2 * seed + 1)
            adir = adir / np.linalg.norm(adir)
            res = check_jacobi(a0, adir, 0.3, 1e-4)
            assert res.residual <= 1e-6

    def test_h_validation(self):
        with pytest.raises(ValueError):
            check_jacobi(np.eye(2), np.eye(2), 0.0, 0.5)


class TestKadisonChoi:
    def test_unitary_congruence_equality(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(g)
        rep = check_kadison_choi(lambda a: u.conj().T @ a @ u, 3, 100, 1)
        assert rep.passed
        assert rep.min_eig_kadison >= -1e-10
        assert rep.min_eig_choi >= -1e-10

    def test_pinching_example(self):
        a = np.ones((2, 2), dtype=complex)
        gap = pinching(a @ a) - pinching(a) @ pinching(a)
        assert np.linalg.eigvalsh(gap)[0] == pytest.approx(1.0)

    def test_pinching_battery(self):
        rep = check_kadison_choi(pinching, 3, 100, 2)
        assert rep.passed
        assert rep.min_eig_kadison >= -1e-9
        assert rep.min_eig_choi >= -1e-9

    def test_rejects_non_unital(self):
        with pytest.raises(NotUnital):
            check_kadison_choi(lambda a: 2.0 * a, 3, 10, 1)

    def test_rejects_nonlinear(self):
        with pytest.raises(NotLinear):
            check_kadison_choi(remark1_map, 3, 10, 1)

    def test_non_finite_gaps_fail_and_serialize(self):
        # the identity on the unit and the (indefinite) linearity probes, NaN
        # on every other PD input, so every gap is non-finite
        n = 3

        def box(a):
            m = np.array(a, dtype=complex)
            if np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0] > 0 and not np.array_equal(m, np.eye(n)):
                m[:] = np.nan
            return m

        rep = check_kadison_choi(box, n, 20, 1)
        report = json.loads(dumps_stable(rep.to_dict()))
        assert report["pass"] is False
        assert report["min_eig_kadison"] == report["min_eig_choi"] == -1e100

    def test_query_count(self):
        # the unit, 11 + 10 linearity probes, 3 images per PD sample
        queries = []

        def box(a):
            queries.append(a)
            return pinching(a)

        assert check_kadison_choi(box, 3, 20, 1).passed
        assert len(queries) == 82


class TestOracleBatteries:
    def test_all_pass_on_their_contracts(self):
        mk = oracle_minkowski(3, 60, 2)
        assert mk["pass"] and mk["proportional_pairs"] == 6 and mk["false_equalities"] == 0
        assert mk["max_direction_violation"] == 0.0 and mk["max_equality_gap"] <= 1e-8
        jac = oracle_jacobi(4, 40, 2)
        assert jac["pass"] and jac["max_residual"] <= 1e-6
        kc = oracle_kadison_choi(3, 20, 2)
        assert kc["pass"] and list(kc["maps"]) == ["unitary-congruence", "pinching"]
        for cls in (MatrixClass.FULL, MatrixClass.SYMMETRIC, MatrixClass.DIAGONAL,
                    MatrixClass.HERMITIAN):
            dw = oracle_dual_witness(cls, 3, 40, 2)
            assert dw["pass"] and dw["found"] == 40 and dw["min_margin"] >= 1e-6

    @pytest.mark.parametrize("n", [2, 3, 5, 16])
    def test_stacked_oracles_equal_their_one_pair_loops(self, n):
        samples, seed = 40, 3
        a, b = (sample_batch(MatrixClass.PD, n, mix_seed(seed, k), samples) for k in (0, 1))
        c = sample_batch(MatrixClass.PD, n, mix_seed(seed, 2), samples // 10)
        pairs = [check_minkowski(x, y) for x, y in zip(a, b)]
        equal = [check_minkowski(x, (0.25 + 3.0 * (i % 7) / 7.0) * x) for i, x in enumerate(c)]
        mk = oracle_minkowski(n, samples, seed)
        assert mk["max_direction_violation"] == max(0.0, *(r.rhs - r.lhs for r in pairs))
        assert mk["max_equality_gap"] == max(abs(r.lhs - r.rhs) / r.lhs for r in equal)
        assert mk["false_equalities"] == sum(r.equality for r in pairs) == 0
        assert all(r.equality and r.proportional for r in equal)
        a0, adir = (sample_batch(MatrixClass.FULL, n, mix_seed(seed, k), samples) for k in (0, 1))
        adir /= np.linalg.norm(adir, axis=(-2, -1), keepdims=True)
        t0 = np.random.default_rng(mix_seed(seed, 2)).uniform(0.0, 1.0, samples)
        r = [check_jacobi(x, d, t, 1e-4).residual for x, d, t in zip(a0, adir, t0)]
        jac = oracle_jacobi(n, samples, seed)
        assert jac["max_residual"] == max(r) and jac["mean_residual"] == float(np.mean(r))

    def test_dual_witness_margins_come_from_the_drawn_stack(self):
        for cls in (MatrixClass.FULL, MatrixClass.SYMMETRIC, MatrixClass.DIAGONAL,
                    MatrixClass.HERMITIAN):
            a_all = sample_batch(cls, 3, mix_seed(4, 0), 30)
            margins = [abs(np.trace(a @ dual_witness_cascade(a, cls))) / np.linalg.norm(a)
                       for a in a_all]
            got = oracle_dual_witness(cls, 3, 30, 4)
            assert got["min_margin"] == pytest.approx(min(margins), rel=1e-12)
            assert got["found"] == 30 and got["pass"]


class TestHomogeneityAdditivity:
    def test_canonical_maps_linear(self):
        for form, cls in [(PreserverForm.PN_CONGRUENCE, MatrixClass.PD),
                          (PreserverForm.TN_DIAGONAL, MatrixClass.UPPER_TRIANGULAR)]:
            p = random_canonical(form, 3, 2)
            rep = check_homogeneity_additivity(p, cls, 3, 50, 4, 1e-9)
            assert rep.passed

    def test_remark1_fails(self):
        rep = check_homogeneity_additivity(remark1_map, MatrixClass.PD, 2, 100, 1, 1e-8)
        assert not rep.passed
        assert rep.max_residual > 1e-3

    def test_tiny_maps_are_lifted(self):
        # without the unit lift every residual of 1e-30 A^2 sits far below the floor of 1
        for scale in (1e-30, 1e-3):
            sq = check_homogeneity_additivity(lambda a: scale * a @ a, MatrixClass.FULL, 3, 50, 1, 1e-8)
            assert not sq.passed and sq.max_residual > 1e-2
            lin = check_homogeneity_additivity(lambda a: scale * a, MatrixClass.FULL, 3, 50, 1, 1e-8)
            assert lin.passed and lin.max_residual <= 1e-15

    def test_triangular_classes_compare_diagonals(self):
        # a non-linear off-diagonal completion |A_01|^2 E_01 of a tn map, which recover accepts too
        tn = random_canonical(PreserverForm.TN_DIAGONAL, 3, 0)
        e01 = np.zeros((3, 3))
        e01[0, 1] = 1.0

        def box(a):
            return tn(a) + abs(a[0, 1]) ** 2 * e01

        assert check_homogeneity_additivity(box, MatrixClass.UPPER_TRIANGULAR, 3, 100, 0, 1e-8).passed
        assert recover(box, MatrixClass.UPPER_TRIANGULAR, 3)[0].form is PreserverForm.TN_DIAGONAL
        assert check_homogeneity_additivity(box, MatrixClass.FULL, 3, 100, 0, 1e-8).max_residual > 1e-2

    def test_affine_homogeneity_fails(self):
        # phi(2I) = 3I but 2 phi(I) = 4I, so the gap is -I
        gap = np.linalg.norm(affine_map(2.0 * np.eye(2)) - 2.0 * affine_map(np.eye(2)))
        assert gap == pytest.approx(np.sqrt(2.0))
        rep = check_homogeneity_additivity(affine_map, MatrixClass.PD, 2, 50, 1, 1e-8)
        assert not rep.passed


class TestReportShape:
    def test_json_keys(self):
        rep = verify_det_identity(identity_map, MatrixClass.PD, 2, SUM, 10, 1, 1e-8,
                                  identity="det-sum")
        d = rep.to_dict()
        assert list(d) == ["identity", "class", "n", "samples", "tol", "max_residual",
                           "mean_residual", "pass", "failures"]
        assert d["identity"] == "det-sum"
        assert d["class"] == "pd"

    def test_failures_iff_not_pass(self):
        good = verify_det_identity(identity_map, MatrixClass.PD, 2, SUM, 20, 1, 1e-8)
        assert good.passed and good.failures == ()
        bad = verify_det_identity(affine_map, MatrixClass.PD, 2, SUM, 20, 1, 1e-8)
        assert not bad.passed and len(bad.failures) > 0

    @pytest.mark.parametrize("battery", [
        lambda fn, s: verify_det_identity(fn, MatrixClass.PD, 2, SUM, s, 1, 1e-8),
        lambda fn, s: verify_trace_identity(fn, MatrixClass.PD, 2, "inverse", s, 1, 1e-8),
        lambda fn, s: verify_trace_identity(fn, MatrixClass.PD, 2, "product", s, 1, 1e-8),
        lambda fn, s: check_homogeneity_additivity(fn, MatrixClass.PD, 2, s, 1, 1e-8),
        lambda fn, s: check_kadison_choi(fn, 2, s, 1),
        lambda fn, s: oracle_minkowski(2, s, 1),
        lambda fn, s: oracle_jacobi(2, s, 1),
        lambda fn, s: oracle_kadison_choi(2, s, 1),
        lambda fn, s: oracle_dual_witness(MatrixClass.FULL, 2, s, 1),
    ], ids=["det", "trace-inverse", "trace-product", "homogeneity-additivity", "kadison-choi",
            "oracle-minkowski", "oracle-jacobi", "oracle-kadison-choi", "oracle-dual-witness"])
    @pytest.mark.parametrize("samples", [0, -3])
    def test_samples_below_one_rejected(self, battery, samples):
        # the sampler's own check: every battery draws its first stack before its first query
        queries = []

        def box(a):
            queries.append(a)
            return a.copy()

        with pytest.raises(ValueError, match="samples must be >= 1"):
            battery(box, samples)
        assert queries == []


def _times(fn, c: float):
    """c phi, called on whole stacks where phi is (the ``__wrapped__`` convention of :func:`_images`)."""
    def scaled(a):
        return c * np.asarray(fn(a), dtype=complex)
    scaled.__wrapped__ = fn
    return scaled


_TWO_SIDED = (PreserverForm.PN_CONGRUENCE, PreserverForm.MN_TWO_SIDED)


def _equivariance_map(name: str, n: int, seed: int, transpose: bool):
    """(map, class): a canonical form on its class, the pinching, or a perturbed two-sided rep."""
    if name == "pinching":
        return pinching, MatrixClass.PD
    if name == "perturbed-rep":
        p = random_canonical(PreserverForm.MN_TWO_SIDED, n, seed)
        rep = p.alpha * np.kron(p.M, p.N.T)  # row-major vec(M X N) = (M kron N^t) vec(X)
        rep[0, -1] += 1e-3
        return LinearRep(n, rep), MatrixClass.FULL
    form = PreserverForm(name)
    cls = {PreserverForm.PN_CONGRUENCE: MatrixClass.PD, PreserverForm.SN_CONGRUENCE: MatrixClass.SYMMETRIC,
           PreserverForm.MN_TWO_SIDED: MatrixClass.FULL,
           PreserverForm.TN_DIAGONAL: MatrixClass.UPPER_TRIANGULAR}[form]
    return random_canonical(form, n, seed, transpose and form in _TWO_SIDED), cls


_EQUIVARIANCE_BATTERIES = [
    lambda fn, cls, n: verify_det_identity(fn, cls, n, SUM, 12, 5, 1e-8, identity="det-sum"),
    lambda fn, cls, n: verify_det_identity(fn, cls, n, CONVEX, 12, 5, 1e-8, identity="det-convex"),
    lambda fn, cls, n: verify_det_identity(fn, cls, n, [(1.0, 0.5 + 2j)], 12, 5, 1e-8, identity="det-pencil"),
    lambda fn, cls, n: verify_trace_identity(fn, cls, n, "inverse", 12, 5, 1e-8),
    lambda fn, cls, n: verify_trace_identity(fn, cls, n, "product", 12, 5, 1e-8),
    lambda fn, cls, n: verify_trace_identity(fn, cls, n, "power", 12, 5, 1e-8, power=3),
    lambda fn, cls, n: check_homogeneity_additivity(fn, cls, n, 12, 5, 1e-8),
]


def _outcome(call):
    try:
        return call()
    except PreserverLabError as exc:
        return type(exc)


class TestScaleEquivariance:
    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(st.sampled_from([f.value for f in PreserverForm] + ["pinching", "perturbed-rep"]),
           st.integers(1, 3), st.integers(0, 2**16), st.booleans(), st.integers(-900, 900))
    def test_reports_and_recovery_are_bit_equivariant(self, name, n, seed, transpose, k):
        # the nonzero real and imaginary parts of these maps' images lie in [2^-69, 2^7], so at
        # |k| <= 900 they stay finite and normal; trace-inverse's closed-form inverses at n <= 3 take
        # a member whose det(c X) leaves [2^-512, 2^512] into [1, 2) first.  phi(I) is read once,
        # through the exact lift, so every report on c phi is the report on phi, byte for byte
        map_fn, cls = _equivariance_map(name, n, seed, transpose)
        c = 2.0**k
        scaled = _times(map_fn, c)
        for battery in _EQUIVARIANCE_BATTERIES:
            mine, plain = (_outcome(lambda fn=fn: battery(fn, cls, n)) for fn in (scaled, map_fn))
            if isinstance(plain, VerificationReport):
                assert dumps_stable(mine.to_dict()) == dumps_stable(plain.to_dict())
            else:
                assert mine is plain
        mine, plain = (_outcome(lambda fn=fn: recover(fn, cls, n)) for fn in (scaled, map_fn))
        if isinstance(plain, tuple):
            assert mine[0].alpha == c * plain[0].alpha and mine[1] == plain[1]
            assert (dumps_stable(recovery_to_json(replace(mine[0], alpha=plain[0].alpha), mine[1]))
                    == dumps_stable(recovery_to_json(*plain)))
        else:
            assert mine is plain
