"""Tests for matrix classes, samplers and dual witnesses."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preserver_lab import (
    MatrixClass,
    PreserverLabError,
    WitnessNotFound,
    ZeroInput,
    contains,
    determinant,
    dual_witness,
    mix_seed,
    sample,
    sample_invertible,
)
from preserver_lab import core_linalg
from preserver_lab.core_linalg import is_pd, is_singular
from preserver_lab.domains import _CLASS_TAG, _draw, _stream, sample_batch

from oracles import dual_witness_cascade

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

    @pytest.mark.parametrize("cls,a", [
        (MatrixClass.SYMMETRIC, np.stack([np.eye(3)] * 3)),  # was "not symmetric"
        (MatrixClass.PD, np.stack([np.eye(3)] * 3)),  # raised numpy's ambiguous truth value
        (MatrixClass.FULL, np.ones((2, 3))),  # was a member
    ], ids=["symmetric-stack", "pd-stack", "full-2x3"])
    def test_takes_one_square_matrix(self, cls, a):
        with pytest.raises(ValueError, match=rf"shape \({a.shape[0]}, {a.shape[1]}"):
            contains(cls, a, 1e-9)

    @pytest.mark.parametrize("cls,passes", [
        (MatrixClass.FULL, 1), (MatrixClass.UPPER_TRIANGULAR, 1), (MatrixClass.DIAGONAL, 1),
        (MatrixClass.HERMITIAN, 1), (MatrixClass.PSD, 1), (MatrixClass.SYMMETRIC, 2), (MatrixClass.PD, 2),
    ], ids=lambda x: getattr(x, "value", x))
    def test_one_binade_pass_per_matrix(self, monkeypatch, cls, passes):
        # the matrix is scaled once; only m - m^t (symmetric) and the Hermitian part (PD) are new
        # matrices, and those get one pass each
        calls = _count_binade(monkeypatch)
        assert contains(cls, sample(cls, 3, 2), 1e-9)
        assert len(calls) == passes


def _count_binade(monkeypatch):
    """The inputs of every ``core_linalg._binade`` call from here on."""
    calls = []
    binade = core_linalg._binade

    def counting(a, axis=None):
        calls.append(np.shape(a))
        return binade(a, axis)

    monkeypatch.setattr(core_linalg, "_binade", counting)
    return calls


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

    def test_redraws_are_keyed_by_member_and_attempt(self):
        # PSD eigenvalues start at 0, so a floor of 1 forces redraws of some members; every other
        # member stays as first drawn, and a redrawn member depends on nothing but (i, attempt)
        plain = sample_batch(MatrixClass.PSD, 3, 5, 200)
        redrawn = sample_batch(MatrixClass.PSD, 3, 5, 200, min_abs_det=1.0)
        low = np.abs(np.linalg.det(plain)) <= 1.0
        assert low.any() and not low.all()
        assert np.array_equal(redrawn[~low], plain[~low])
        assert np.min(np.abs(np.linalg.det(redrawn))) > 1.0
        assert all(contains(MatrixClass.PSD, m, 1e-9) for m in redrawn)
        for k in (1, 37, 199):
            assert redrawn[:k].tobytes() == sample_batch(MatrixClass.PSD, 3, 5, k, 1.0).tobytes()
        key = mix_seed(_CLASS_TAG[MatrixClass.PSD], 3, 5)
        for i in np.flatnonzero(low):
            attempt = 1
            while abs(determinant(_draw(MatrixClass.PSD, 3, key, 1, int(i), attempt)[0])) <= 1.0:
                attempt += 1
            assert redrawn[i].tobytes() == _draw(MatrixClass.PSD, 3, key, 1, int(i), attempt)[0].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 16])
    @pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.value)
    def test_prefix_property(self, cls, n):
        # member i depends only on (cls, n, seed, i): a shorter stack is a prefix, bit for bit
        full = sample_batch(cls, n, 31, 200)
        for k in (1, 37):
            assert full[:k].tobytes() == sample_batch(cls, n, 31, k).tobytes()

    @pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.value)
    def test_prefix_property_above_the_temporary_elision_threshold(self, cls):
        # 2000 n = 3 members are 288 KB: numpy would reuse an unnamed temporary in place
        big = sample_batch(cls, 3, 8, 2000)
        assert big.nbytes > 256 * 1024
        for k in (1, 37, 200):
            assert big[:k].tobytes() == sample_batch(cls, 3, 8, k).tobytes()

    def test_stream_reproduces_a_fresh_philox(self):
        for key, field, member, attempt in [(0, 1, 0, 0), (2**64 - 1, 2, 0, 0), (123, 1, 17, 3)]:
            gen = _stream(key, field, member, attempt)
            fresh = np.random.Generator(np.random.Philox(counter=[0, 0, member, attempt], key=key + (field << 64)))
            assert gen.standard_normal(7).tobytes() == fresh.standard_normal(7).tobytes()
            assert gen.random(5).tobytes() == fresh.random(5).tobytes()
        assert (_stream(9, 1).standard_normal(3).tobytes()
                == np.random.Generator(np.random.Philox(key=9 + (1 << 64))).standard_normal(3).tobytes())

    def test_stream_is_per_thread(self):
        # four threads re-key their generators between every draw under a 1 us switch interval; a
        # shared generator would hand one thread's state to another
        keys = list(range(40, 48))
        expected = {k: np.random.Generator(np.random.Philox(key=k + (1 << 64))).standard_normal(300).tobytes()
                    for k in keys}
        stacks = {k: sample_batch(MatrixClass.PD, 3, k, 20).tobytes() for k in keys}
        start = threading.Barrier(4)
        mismatches, finished = [], []

        def work(offset):
            start.wait()
            for _ in range(30):
                for k in keys[offset:] + keys[:offset]:
                    if _stream(k, 1).standard_normal(300).tobytes() != expected[k]:
                        mismatches.append(k)
                    if sample_batch(MatrixClass.PD, 3, k, 20).tobytes() != stacks[k]:
                        mismatches.append(k)
            finished.append(offset)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(2 * i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert sorted(finished) == [0, 2, 4, 6] and mismatches == []

    def test_free_entry_distributions(self):
        # every entry keeps the law of 0.5 (G + G^*) / 0.5 (G + G^t), G complex Gaussian of unit variance
        n, count = 3, 20000
        off = np.triu_indices(n, 1)
        diag = np.arange(n)

        def parts(x):
            return np.concatenate([x.real.ravel(), x.imag.ravel()])

        def near(x, mean, var):
            se = np.sqrt(var / x.size)
            return abs(np.mean(x) - mean) < 5 * se and abs(np.var(x) / var - 1) < 5 * np.sqrt(2 / x.size)

        full = sample_batch(MatrixClass.FULL, n, 3, count)
        assert near(parts(full), 0.0, 0.5)
        herm = sample_batch(MatrixClass.HERMITIAN, n, 3, count)
        assert np.all(herm[:, diag, diag].imag == 0) and near(herm[:, diag, diag].real, 0.0, 0.5)
        assert near(parts(herm[:, off[0], off[1]]), 0.0, 0.25)
        sym = sample_batch(MatrixClass.SYMMETRIC, n, 3, count)
        assert near(parts(sym[:, diag, diag]), 0.0, 0.5) and near(parts(sym[:, off[0], off[1]]), 0.0, 0.25)
        upper = sample_batch(MatrixClass.UPPER_TRIANGULAR, n, 3, count)
        assert np.all(upper[:, off[1], off[0]] == 0) and near(parts(upper[:, off[0], off[1]]), 0.0, 0.5)
        for cls in (MatrixClass.UPPER_TRIANGULAR, MatrixClass.DIAGONAL):
            d = sample_batch(cls, n, 3, count)[:, diag, diag]
            mod, phase = np.abs(d), np.angle(d) % (2 * np.pi)
            assert mod.min() >= 0.1 and mod.max() <= 10.0 and near(mod, 5.05, 9.9**2 / 12)
            assert near(phase, np.pi, (2 * np.pi) ** 2 / 12)
        assert np.all(sample_batch(MatrixClass.DIAGONAL, n, 3, count)[:, off[0], off[1]] == 0)
        for cls, lo in ((MatrixClass.PD, 0.1), (MatrixClass.PSD, 0.0)):
            for m in (1, 2, 3, 5):
                w = np.linalg.eigvalsh(sample_batch(cls, m, 3, 4000))
                assert w.min() >= lo - 1e-12 and w.max() <= 10.0 + 1e-12
                assert near(w.ravel(), (lo + 10.0) / 2, (10.0 - lo) ** 2 / 12)

    def test_samplers_build_no_bit_generator(self, monkeypatch):
        sample_batch(MatrixClass.FULL, 2, 0, 1)  # this thread's generator exists from here on
        built = []

        class CountingPhilox(np.random.Philox):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", CountingPhilox)
        for cls in ALL_CLASSES:
            for n in (1, 2, 3, 5):
                sample_batch(cls, n, 4, 20, 1e-3)
        assert built == []
        worker = threading.Thread(target=sample_batch, args=(MatrixClass.FULL, 2, 0, 1))
        worker.start()
        worker.join()
        assert built == [1]  # a new thread builds its one generator: the guard sees constructions

    def test_qr_only_from_n_4(self, monkeypatch):
        qr, sizes = np.linalg.qr, []

        def recording_qr(a, *args, **kwargs):
            sizes.append(np.shape(a)[-2])
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        for cls in ALL_CLASSES:
            for n in (1, 2, 3):
                sample_batch(cls, n, 4, 50, 1e-3)
        assert sizes == []
        sample_batch(MatrixClass.PD, 4, 4, 50)
        sample_batch(MatrixClass.PSD, 16, 4, 50)
        assert sizes == [4, 16]

    def test_redraw_cap(self):
        with pytest.raises(RuntimeError):
            sample_batch(MatrixClass.DIAGONAL, 2, 0, 3, min_abs_det=1e300)

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_rejected(self, count):
        # the one samples check of every battery; count 0 used to return an empty stack
        with pytest.raises(ValueError, match="^samples must be >= 1$"):
            sample_batch(MatrixClass.FULL, 3, 1, count)


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

    def test_one_binade_pass(self, monkeypatch):
        calls = _count_binade(monkeypatch)
        dual_witness(np.stack([sample(MatrixClass.FULL, 3, s) for s in range(4)]), MatrixClass.FULL)
        assert calls == [(4, 3, 3)]

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            dual_witness(np.zeros((2, 2)), MatrixClass.FULL)

    @pytest.mark.parametrize("shape", [(6, 3), (3, 6), (3,)], ids=["6x3", "3x6", "vector"])
    def test_non_square_shape_rejected(self, shape):
        # (6, 3) was read as a stack of two 3 x 3 members, (3, 6) raised numpy's "cannot reshape"
        a = np.arange(float(np.prod(shape))).reshape(shape) + 1
        with pytest.raises(ValueError, match=rf"got shape \({shape[0]},"):
            dual_witness(a, MatrixClass.FULL)

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
        with pytest.raises(WitnessNotFound, match=r"^member 1 is not a diagonal matrix: its diagonal "
                                                  r"is below the 1e-6 \|\|A\|\|_F floor"):
            dual_witness(a, MatrixClass.DIAGONAL)
        # an antisymmetric pivot pair cancels in every symmetric candidate
        with pytest.raises(WitnessNotFound, match=r"^member 0 is not a symmetric matrix: its trace "
                                                  r"and pivot pair is below"):
            dual_witness(np.array([[0.0, 1.0], [-1.0, 0.0]]), MatrixClass.SYMMETRIC)

    def test_traceless_hermitian_imaginary_entry(self):
        # witness must separate a matrix whose largest entry is purely imaginary
        a = np.zeros((3, 3), dtype=complex)
        a[0, 1], a[1, 0] = 1j, -1j
        b = dual_witness(a, MatrixClass.HERMITIAN)
        assert abs(np.trace(a @ b)) >= 1e-6 * np.linalg.norm(a)
        assert contains(MatrixClass.HERMITIAN, b, 1e-12)


def _decisions(a):
    """Every class decision on one matrix; dual_witness as its B bytes or its exception type."""
    witnesses = []
    for cls in ALL_CLASSES:
        try:
            witnesses.append(dual_witness(a, cls).tobytes())
        except (ValueError, PreserverLabError) as exc:
            witnesses.append(type(exc))
    return (is_pd(a), is_singular(a), is_singular(a, True),
            [contains(cls, a, 1e-9) for cls in ALL_CLASSES], witnesses)


def _normal_exponents(a):
    """(lo, hi): c = 2^k keeps every |c a_ij| finite and every nonzero real and imaginary part of cA
    normal iff lo <= k <= hi."""
    parts = np.abs(np.concatenate([a.real.ravel(), a.imag.ravel()]))
    parts = parts[parts > 0.0]
    if not parts.size:
        return -1100, 1100
    return -1021 - int(np.frexp(parts.min())[1]), 1024 - int(np.frexp(np.abs(a).max())[1])


def _times_power_of_two(a, k: int):
    """2^k A, exact while the entries stay normal, for any k whose 2^k A is finite (in two halves,
    since 2^k alone may not be a float)."""
    return a * 2.0 ** (k // 2) * 2.0 ** (k - k // 2)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(ALL_CLASSES), st.integers(1, 5), st.integers(0, 2**32),
       st.sampled_from(["member", "non-hermitian bump", "zeroed column", "zero"]), st.integers(-1100, 1100))
def test_decisions_are_invariant_under_exact_scaling(cls, n, seed, variant, k):
    # c = 2^k over the whole range where the entries of cA stay finite and normal, the edges included;
    # 1e-30 [[1, 1], [0, 1]] was PD under an absolute defect floor, -1e-30 I was PSD, 1e-13 I had no
    # dual witness, and an overflowing ||A||_F made every bound infinite
    a = sample(cls, n, seed)
    if variant == "non-hermitian bump":
        a[0, -1] += 0.5 + 0.5j
    elif variant == "zeroed column":
        a[:, 0] = 0.0
    elif variant == "zero":
        a[:] = 0.0
    lo, hi = _normal_exponents(a)
    assert _decisions(_times_power_of_two(a, min(max(k, lo), hi))) == _decisions(a)


def test_tiny_matrices_keep_their_decisions():
    assert not is_pd(1e-30 * np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert not contains(MatrixClass.HERMITIAN, 1e-30 * np.array([[1.0, 1.0], [0.0, 1.0]]), 1e-9)
    assert not contains(MatrixClass.PSD, -1e-30 * np.eye(2), 1e-9)
    eye = np.eye(2)
    assert dual_witness(1e-13 * eye, MatrixClass.FULL).tobytes() == dual_witness(eye, MatrixClass.FULL).tobytes()
    # ||A||_F underflowed to 0 below about 1e-162 (ZeroInput) and overflowed above about 1e154
    assert dual_witness(1e-200 * eye, MatrixClass.FULL).tobytes() == dual_witness(eye, MatrixClass.FULL).tobytes()
    big = 1e200 * np.array([[1.0, 2.0], [3.0, 4.0]])
    assert [contains(cls, big, 1e-9) for cls in ALL_CLASSES] == [cls is MatrixClass.FULL for cls in ALL_CLASSES]
