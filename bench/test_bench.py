"""Tests of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest -q bench``; they are
not part of the library's test suite.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from preserver_lab import MatrixClass, PreserverForm, verifiers  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_only_direct_children():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    def child():
        clock.now += 1.0
        wrapped_leaf()
        clock.now += 1.0

    def outer():
        clock.now += 2.0
        wrapped_child()
        clock.now += 1.0
        wrapped_leaf()
        clock.now += 3.0

    wrapped_leaf = t.wrap("leaf", leaf)
    wrapped_child = t.wrap("child", child)
    t.wrap("outer", outer)()

    assert t.total["outer"] == 10.0
    assert t.self_time["outer"] == 6.0   # 10 - child 3 - leaf 1
    assert t.self_time["child"] == 2.0   # 3 - leaf 1
    assert t.self_time["leaf"] == 2.0    # two calls of 1 each
    assert t.calls["leaf"] == 2
    assert t.pair_calls[("child", "leaf")] == 1
    assert t.pair_calls[("outer", "leaf")] == 1
    assert sum(t.self_time.values()) == t.total["outer"]


def test_wrapper_returns_result_and_reraises_unchanged():
    t = tracing.Tracer()
    token = object()
    assert t.wrap("x", lambda a, b=0: (a, b, token))(1, b=2) == (1, 2, token)

    err = KeyError("boom")

    def fails():
        raise err

    with pytest.raises(KeyError) as info:
        t.wrap("y", fails)()
    assert info.value is err
    assert t.calls["y"] == 1
    assert t._stack == []


def test_install_wraps_call_sites_and_uninstall_restores_them():
    import numpy
    import preserver_lab.domains as domains

    before = (verifiers.sample, domains.sample, numpy.linalg.svd)
    t = tracing.Tracer()
    patches = t.install()
    try:
        assert verifiers.sample.span_name == "domains.sample"
        assert numpy.linalg.svd.span_name == "kernel.svd"
        verifiers.sample_invertible(MatrixClass.FULL, 3, 5)
    finally:
        t.uninstall(patches)
    assert (verifiers.sample, domains.sample, numpy.linalg.svd) == before
    assert t.calls["domains.sample_invertible"] == 1
    assert t.pair_calls[("domains.sample_invertible", "domains.sample")] >= 1
    assert t.calls["kernel.det"] >= 1


@pytest.mark.parametrize("n", [100, 101, 109, 110, 250, 1000])
def test_p90_leaves_at_least_ten_above(n):
    values = [float(v) for v in range(n)]
    cut = run.p90(values)
    assert sum(v > cut for v in values) >= 10
    assert sum(v <= cut for v in values) >= 0.9 * n


def test_p90_refuses_too_few_values():
    with pytest.raises(ValueError):
        run.p90([float(v) for v in range(99)])


def _canonical_recover_op(expected):
    rng = workloads.np.random.default_rng(0)
    p = workloads.canonical_map(rng, PreserverForm.MN_TWO_SIDED, 2)
    return workloads._recover_op("mn", p, MatrixClass.FULL, 2, expected)


def test_wrong_expected_outcome_raises_wrong_frac():
    good = _canonical_recover_op("mn-two-sided/plain")
    bad = _canonical_recover_op("sn-congruence/plain")
    ops = [good, bad]
    records, _ = run.closed_loop(ops, run.in_process(lambda op: op.map_fn), cycles=2)
    s = run.score(ops, records, {})
    assert s.attempted == 4
    assert s.wrong_frac == 0.5
    assert not s.mismatched
    assert not run.is_correct(ops, s)
    assert run.is_correct([good, good], run.score([good, good], records, {}))


def test_known_defect_counts_as_wrong_but_not_incorrect():
    op = _canonical_recover_op("NotLinear")
    op.known_defect = "documented"
    records, _ = run.closed_loop([op], run.in_process(lambda o: o.map_fn), cycles=1)
    s = run.score([op], records, {})
    assert s.wrong_frac == 1.0 and run.is_correct([op], s)


def test_traceback_counts_as_failed_and_wrong():
    op = _canonical_recover_op("mn-two-sided/plain")
    op.call = lambda fn: 1 / 0
    records, _ = run.closed_loop([op], run.in_process(lambda o: o.map_fn), cycles=1)
    s = run.score([op], records, {})
    assert (s.failed, s.wrong_frac) == (1, 1.0)
    assert not run.is_correct([op], s)


def test_output_that_does_not_repeat_is_a_mismatch():
    op = _canonical_recover_op("mn-two-sided/plain")
    reference = {0: "something else"}
    records, _ = run.closed_loop([op], run.in_process(lambda o: o.map_fn), cycles=1)
    s = run.score([op], records, reference)
    assert s.mismatched[0] == 1 and s.wrong_frac == 1.0
    assert not run.is_correct([op], s)


def test_same_seed_gives_same_inputs(tmp_path):
    a = workloads.recover_sweep(7, str(tmp_path))
    b = workloads.recover_sweep(7, str(tmp_path))
    c = workloads.recover_sweep(8, str(tmp_path))
    assert [o.name for o in a] == [o.name for o in b]
    same = [o.map_fn.M.tobytes() == p.map_fn.M.tobytes()
            for o, p in zip(a, b) if getattr(o.map_fn, "M", None) is not None]
    assert same and all(same)
    assert a[0].map_fn.M.tobytes() != c[0].map_fn.M.tobytes()


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    records = [run.Record(0, 0.001 * (i + 1), None) for i in range(100)]
    s = run.Score(attempted=100)
    e2e = run.end_to_end(0.5, records, 1.0, s, 1024)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert all(m["unit"] == e2e[m["name"]][1] for m in spec["end_to_end"])
    layer = tracing.layer_metrics(tracing.Tracer(), 1)
    traced = {**layer, "cli.interpreter_ms": (0, "ms"), "cli.import_ms": (0, "ms"),
              "cli.import_scipy_ms": (0, "ms"), "trace.overhead_frac": (0, "ratio")}
    assert [m["name"] for m in spec["per_layer"]] == list(traced)
    assert all(m["unit"] == traced[m["name"]][1] for m in spec["per_layer"])


def test_compare_prints_ratio_per_workload_row(tmp_path, capsys):
    import compare

    def line(workload, value):
        return json.dumps({"workload": workload, "result": {"metrics": {
            "ops_per_s": {"value": value, "unit": "1/s"}}}}) + "\n"

    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old.write_text(line("verify-battery", 10.0) + line("verify-battery", 30.0) + line("cli-cold", 2.0))
    new.write_text(line("verify-battery", 40.0) + line("cli-cold", 1.0))
    compare.main(str(old), str(new))
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3
    vb = next(r for r in out if r.startswith("verify-battery")).split()
    assert vb[3:] == ["20", "40", "2"]
    cc = next(r for r in out if r.startswith("cli-cold")).split()
    assert cc[3:] == ["2", "1", "0.5"]
