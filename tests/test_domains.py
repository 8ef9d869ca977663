"""Tests for matrix classes, samplers, bases and dual witnesses."""

import numpy as np
import pytest

from preserver_lab import (
    MatrixClass,
    WitnessNotFound,
    ZeroInput,
    basis,
    contains,
    determinant,
    dual_witness,
    mix_seed,
    sample,
    sample_invertible,
)
from preserver_lab.domains import sample_batch

from oracles import dual_witness_cascade, project_real_span, real_gram

ALL_CLASSES = list(MatrixClass)
WITNESS_CLASSES = [MatrixClass.FULL, MatrixClass.SYMMETRIC, MatrixClass.DIAGONAL,
                   MatrixClass.HERMITIAN]


class TestContains:
    def test_pd_identity(self):
        assert contains(MatrixClass.PD, np.eye(3), 1e-10)

    def test_antisymmetric_not_symmetric(self):
        a = np.zeros((2, 2), dtype=complex)
        a[0, 1], a[1, 0] = 1.0, -1.0
        assert not contains(MatrixClass.SYMMETRIC, a, 1e-10)

    def test_lower_filled_not_upper_triangular(self):
        rng = np.random.default_rng(4)
        a = np.tril(rng.standard_normal((4, 4)), -1) + np.eye(4)
        assert not contains(MatrixClass.UPPER_TRIANGULAR, a, 1e-10)

    @pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.value)
    def test_non_finite_is_not_a_member(self, cls):
        for bad in (np.inf, np.nan):
            a = np.eye(3, dtype=complex)
            a[0, 0] = bad
            assert not contains(cls, a, 1e-9)
            assert not contains(cls, np.full((3, 3), bad), 1e-9)

    def test_inclusions(self):
        a = sample(MatrixClass.PD, 3, 1)
        assert contains(MatrixClass.HERMITIAN, a, 1e-9)
        assert contains(MatrixClass.PSD, a, 1e-9)
        d = sample(MatrixClass.DIAGONAL, 3, 1)
        assert contains(MatrixClass.UPPER_TRIANGULAR, d, 1e-9)


class TestSample:
    @pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.value)
    def test_membership(self, cls):
        for seed in range(25):
            for n in (1, 2, 3, 5):
                assert contains(cls, sample(cls, n, seed), 1e-9)

    def test_deterministic(self):
        for cls in ALL_CLASSES:
            a = sample(cls, 4, 123)
            b = sample(cls, 4, 123)
            assert np.array_equal(a, b)
            assert not np.array_equal(a, sample(cls, 4, 124))

    def test_symmetric_exact(self):
        a = sample(MatrixClass.SYMMETRIC, 4, 8)
        assert np.linalg.norm(a - a.T) == 0.0

    def test_pd_condition_bounded(self):
        worst = 0.0
        for seed in range(1000):
            w = np.linalg.eigvalsh(sample(MatrixClass.PD, 3, seed))
            worst = max(worst, w[-1] / w[0])
        assert worst <= 100.0

    def test_full_invertible(self):
        for seed in range(50):
            assert abs(determinant(sample(MatrixClass.FULL, 4, seed))) > 1e-6

    def test_sample_invertible(self):
        for cls in (MatrixClass.SYMMETRIC, MatrixClass.HERMITIAN, MatrixClass.PD):
            for seed in range(20):
                a = sample_invertible(cls, 3, seed)
                assert abs(determinant(a)) > 1e-6
                assert contains(cls, a, 1e-9)


class TestSampleBatch:
    @pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.value)
    def test_sample_is_count_one_view(self, cls):
        for n in (1, 2, 3, 5):
            for seed in range(10):
                assert np.array_equal(sample(cls, n, seed), sample_batch(cls, n, seed, 1)[0])
                assert np.array_equal(sample_invertible(cls, n, seed),
                                      sample_batch(cls, n, seed, 1, 1e-6)[0])

    @pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.value)
    def test_members_in_class(self, cls):
        for n in (1, 2, 5, 16):
            stack = sample_batch(cls, n, 77, 60)
            assert stack.shape == (60, n, n)
            assert all(contains(cls, m, 1e-9) for m in stack)
            if cls is MatrixClass.PD:
                w = np.linalg.eigvalsh(stack)
                assert np.max(w[:, -1] / w[:, 0]) <= 100.0
            if cls is MatrixClass.FULL:
                assert np.min(np.abs(np.linalg.det(stack))) > 1e-6

    def test_redraws_in_place_from_the_same_stream(self):
        # PSD eigenvalues start at 0, so a floor of 1 forces redraws of some
        # members; every other member must stay exactly as first drawn
        plain = sample_batch(MatrixClass.PSD, 3, 5, 200)
        redrawn = sample_batch(MatrixClass.PSD, 3, 5, 200, min_abs_det=1.0)
        low = np.abs(np.linalg.det(plain)) <= 1.0
        assert low.any() and not low.all()
        assert np.array_equal(redrawn[~low], plain[~low])
        assert np.min(np.abs(np.linalg.det(redrawn))) > 1.0
        assert all(contains(MatrixClass.PSD, m, 1e-9) for m in redrawn)

    def test_redraw_cap(self):
        with pytest.raises(RuntimeError):
            sample_batch(MatrixClass.DIAGONAL, 2, 0, 3, min_abs_det=1e300)


def _unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def _explicit_basis(cls, n):
    diag = [_unit(n, i, i) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    sym = diag + [_unit(n, i, j) + _unit(n, j, i) for i, j in pairs]
    herm = sym + [1j * (_unit(n, i, j) - _unit(n, j, i)) for i, j in pairs]
    return {
        MatrixClass.FULL: [_unit(n, i, j) for i in range(n) for j in range(n)],
        MatrixClass.UPPER_TRIANGULAR: [_unit(n, i, j) for i in range(n) for j in range(i, n)],
        MatrixClass.DIAGONAL: diag,
        MatrixClass.SYMMETRIC: sym,
        MatrixClass.HERMITIAN: herm,
        MatrixClass.PD: [h + 2.0 * np.eye(n, dtype=complex) for h in herm],
    }[cls]


BASIS_CLASSES = [c for c in MatrixClass if c is not MatrixClass.PSD]


class TestBasis:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("cls", BASIS_CLASSES, ids=lambda c: c.value)
    def test_stack_equals_explicit_sequence(self, cls, n):
        expected = _explicit_basis(cls, n)
        got = basis(cls, n)
        assert isinstance(got, np.ndarray) and got.dtype == complex
        assert got.shape == (len(expected), n, n)
        for g, e in zip(got, expected):
            assert g.tobytes() == e.tobytes()

    def test_no_psd_basis(self):
        with pytest.raises(ValueError):
            basis(MatrixClass.PSD, 2)

    def test_diagonal_n2(self):
        b = basis(MatrixClass.DIAGONAL, 2)
        assert len(b) == 2
        assert np.array_equal(b[0], np.diag([1.0 + 0j, 0.0]))
        assert np.array_equal(b[1], np.diag([0.0, 1.0 + 0j]))

    def test_sizes(self):
        n = 4
        assert len(basis(MatrixClass.FULL, n)) == n * n
        assert len(basis(MatrixClass.HERMITIAN, n)) == n * n
        assert len(basis(MatrixClass.SYMMETRIC, n)) == n * (n + 1) // 2
        assert len(basis(MatrixClass.UPPER_TRIANGULAR, n)) == n * (n + 1) // 2
        assert len(basis(MatrixClass.PD, n)) == n * n

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pd_basis_elements_pd(self, n):
        for s in basis(MatrixClass.PD, n):
            assert np.linalg.eigvalsh(s)[0] >= 1.0 - 1e-12
            assert contains(MatrixClass.PD, s, 1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pd_basis_real_independent(self, n):
        g = real_gram(basis(MatrixClass.PD, n))
        assert abs(np.linalg.det(g)) > 1e-6

    def test_pd_basis_spans_hermitian(self):
        n = 3
        b = basis(MatrixClass.PD, n)
        for seed in range(100):
            h = sample(MatrixClass.HERMITIAN, n, seed)
            rec = project_real_span(b, h)
            assert np.linalg.norm(rec - h) <= 1e-9


def _crafted_members(cls, n, count=12):
    """Pairs (A, lambda): A's candidates at the smaller lambdas fall below the margin.

    The pivot sits at (0, 1) or (0, 0), and the trace is set so that the
    lambda = 2 candidates cancel (for the diagonal class, half the members
    carry off-diagonal mass that leaves lambda = 2 and 3 just under the floor).
    """
    rng = np.random.default_rng([0xCA5C, n, WITNESS_CLASSES.index(cls)])
    out = []
    for t in range(count):
        g = 0.05 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        z = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) if t % 2 else np.exp(0.25j * np.pi)
        if cls is MatrixClass.FULL:
            a, lam = g, 3.0
            np.fill_diagonal(a, -z / (2 * n))  # 2 tr A + a_01 = 0
            a[0, 1] = z
        elif cls is MatrixClass.SYMMETRIC:
            a, lam = g + g.T, 3.0
            if t % 2:
                np.fill_diagonal(a, -z / n)  # 2 tr A + 2 a_01 = 0
                a[0, 1] = a[1, 0] = z
            else:
                np.fill_diagonal(a, -2.0 / (n - 1))  # diagonal pivot: 2 tr A + 2 a_00 = 0
                a[0, 0] = 1.0
        elif cls is MatrixClass.HERMITIAN:
            a = g + g.conj().T
            if t % 3 == 2:
                np.fill_diagonal(a, -1.5 / (n - 1))  # diagonal pivot: 2 tr A + a_00 = 0
                a[0, 0], lam = 1.0, 3.0
            else:
                # 2 tr A + 2 Re a_01 = 0; 2 Im a_01 cancels too at angle pi / 4
                np.fill_diagonal(a, -z.real / n)
                a[0, 1], a[1, 0] = z, np.conj(z)
                lam = 2.0 if t % 2 else 3.0
        elif t % 2:
            a = 50.0 * g  # off-diagonal mass; diagonal x = -4.5 f, tr A = 1.8 f
            f = 1e-6 * np.linalg.norm(a - np.diag(np.diagonal(a)))
            np.fill_diagonal(a, 6.3 * f / (n - 1))
            a[0, 0], lam = -4.5 * f, 5.0
        else:
            a = np.diag(np.full(n, -1.5 / (n - 1)) + 0j)  # 2 tr A + a_00 = 0
            a[0, 0], lam = 1.0, 3.0
        out.append((a, lam))
    return out


class TestDualWitness:
    def test_full_unit_example(self):
        n = 3
        a = np.zeros((n, n), dtype=complex)
        a[0, 1] = 1.0  # E_12
        b = dual_witness(a, MatrixClass.FULL)
        expected = 2.0 * np.eye(n)
        expected[1, 0] = 1.0  # 2I + E_21
        assert np.allclose(b, expected)
        assert np.trace(a @ b) == pytest.approx(1.0)

    def test_diagonal_unit_example(self):
        n = 3
        a = np.zeros((n, n), dtype=complex)
        a[0, 0] = 1.0
        b = dual_witness(a, MatrixClass.DIAGONAL)
        expected = 2.0 * np.eye(n)
        expected[0, 0] = 3.0
        assert np.allclose(b, expected)
        assert np.trace(a @ b) == pytest.approx(3.0)

    def test_identity_any_class(self):
        for cls in WITNESS_CLASSES:
            b = dual_witness(np.eye(3), cls)
            assert abs(np.trace(np.eye(3) @ b)) >= 1e-6 * np.sqrt(3)

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            dual_witness(np.zeros((2, 2)), MatrixClass.FULL)

    @pytest.mark.parametrize("cls", WITNESS_CLASSES, ids=lambda c: c.value)
    def test_property_battery(self, cls):
        n = 3
        members = [sample(cls, n, mix_seed(0xD0A1, seed)) for seed in range(200)]
        for a in members:
            b = dual_witness(a, cls)
            assert abs(np.trace(a @ b)) >= 1e-6 * np.linalg.norm(a)
            assert contains(cls, b, 1e-10)
            assert abs(determinant(b)) > 1e-8
            assert b.tobytes() == dual_witness_cascade(a, cls).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16])
    @pytest.mark.parametrize("cls", WITNESS_CLASSES, ids=lambda c: c.value)
    def test_stack_equals_member_calls(self, cls, n):
        a = sample_batch(cls, n, 7, 40)
        b = dual_witness(a, cls)
        assert b.shape == a.shape
        assert b.tobytes() == np.stack([dual_witness(m, cls) for m in a]).tobytes()

    def test_zero_member_in_stack_rejected(self):
        a = sample_batch(MatrixClass.FULL, 3, 1, 5)
        a[3] = 0.0
        with pytest.raises(ZeroInput):
            dual_witness(a, MatrixClass.FULL)

    @pytest.mark.parametrize("n", [3, 4, 6, 16])
    @pytest.mark.parametrize("cls", WITNESS_CLASSES, ids=lambda c: c.value)
    def test_matches_cascade_where_early_candidates_cancel(self, cls, n):
        members, lams = zip(*_crafted_members(cls, n))
        expected = [dual_witness_cascade(a, cls) for a in members]
        assert [e[-1, -1] for e in expected] == list(lams)
        for a, e in zip(members, expected):
            assert dual_witness(a, cls).tobytes() == e.tobytes()
        assert dual_witness(np.stack(members), cls).tobytes() == np.stack(expected).tobytes()

    def test_unseparated_member_raises(self):
        # off the diagonal class, a zero diagonal leaves the pivot no mass
        a = np.stack([np.eye(2, dtype=complex), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)])
        with pytest.raises(LookupError):
            dual_witness_cascade(a[1], MatrixClass.DIAGONAL)
        with pytest.raises(WitnessNotFound):
            dual_witness(a, MatrixClass.DIAGONAL)

    def test_traceless_hermitian_imaginary_entry(self):
        # witness must separate a matrix whose largest entry is purely imaginary
        a = np.zeros((3, 3), dtype=complex)
        a[0, 1], a[1, 0] = 1j, -1j
        b = dual_witness(a, MatrixClass.HERMITIAN)
        assert abs(np.trace(a @ b)) >= 1e-6 * np.linalg.norm(a)
        assert contains(MatrixClass.HERMITIAN, b, 1e-12)
