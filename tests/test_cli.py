"""End-to-end CLI tests: exit codes, JSON shapes, byte determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from preserver_lab import (
    MatrixClass,
    PreserverForm,
    build_linear_rep,
    matrix_to_json,
    preserver_to_spec,
    random_canonical,
)
from preserver_lab.jsonio import dumps_stable


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "preserver_lab.cli", *args],
                          capture_output=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("specs")
    eye = np.eye(3, dtype=complex)
    identity = {"kind": "pn-congruence", "alpha": {"re": 1.0, "im": 0.0},
                "M": matrix_to_json(eye), "transpose": False}
    (d / "id.json").write_text(dumps_stable(identity))

    hidden_mn = random_canonical(PreserverForm.MN_TWO_SIDED, 3, 21, transpose=True)
    (d / "hidden_mn.json").write_text(dumps_stable(preserver_to_spec(hidden_mn)))

    hidden_tn = random_canonical(PreserverForm.TN_DIAGONAL, 3, 4)
    (d / "hidden_tn.json").write_text(dumps_stable(preserver_to_spec(hidden_tn)))

    (d / "remark1.json").write_text(dumps_stable({"kind": "remark1"}))

    # canonical congruence with a single entry of its n^2 x n^2 linear
    # representation perturbed: no longer two-sided, fails det identities
    p = random_canonical(PreserverForm.PN_CONGRUENCE, 3, 9)
    lin = build_linear_rep(p, MatrixClass.PD, 3, 1e-8)
    rep = lin.rep.copy()
    rep[0, 0] += 1e-3 * np.linalg.norm(p.M)
    (d / "perturbed.json").write_text(
        dumps_stable({"kind": "linear-rep", "rep": matrix_to_json(rep)}))
    return d


class TestVerifyCommand:
    def test_identity_map_det_sum(self, spec_dir):
        code, out, _ = run_cli("verify", "--identity", "det-sum", "--class", "pd",
                               "--n", "3", "--map", str(spec_dir / "id.json"),
                               "--samples", "100", "--seed", "7", "--tol", "1e-8")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["identity"] == "det-sum"
        assert list(report) == ["identity", "class", "n", "samples", "tol",
                                "max_residual", "mean_residual", "pass", "failures"]

    def test_perturbed_congruence_fails(self, spec_dir):
        code, out, _ = run_cli("verify", "--identity", "det-sum", "--class", "pd",
                               "--n", "3", "--map", str(spec_dir / "perturbed.json"),
                               "--samples", "100", "--seed", "7", "--tol", "1e-8")
        assert code == 2
        report = json.loads(out)
        assert report["pass"] is False
        assert report["max_residual"] >= 1e-5

    def test_trace_inverse_upper_triangular(self, spec_dir):
        code, out, _ = run_cli("verify", "--identity", "trace-inverse",
                               "--class", "upper-triangular", "--n", "3",
                               "--map", str(spec_dir / "hidden_tn.json"),
                               "--samples", "100", "--seed", "3")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_det_convex_and_pencil(self, spec_dir):
        for identity in ("det-convex", "det-pencil"):
            code, out, _ = run_cli("verify", "--identity", identity, "--class", "full",
                                   "--n", "3", "--map", str(spec_dir / "hidden_mn.json"),
                                   "--samples", "50", "--seed", "1")
            assert code == 0, (identity, out)

    def test_custom_weights(self, spec_dir):
        code, out, _ = run_cli("verify", "--identity", "det-pencil", "--class", "full",
                               "--n", "3", "--map", str(spec_dir / "hidden_mn.json"),
                               "--samples", "25", "--seed", "1",
                               "--weights", "1,1;1,-1;1,0.5+0.5i;1,2+1i")
        assert code == 0

    def test_trace_power_k(self, spec_dir):
        code, out, _ = run_cli("verify", "--identity", "trace-power-k", "--k", "3",
                               "--class", "upper-triangular", "--n", "3",
                               "--map", str(spec_dir / "hidden_tn.json"),
                               "--samples", "50", "--seed", "2")
        assert code == 0
        assert json.loads(out)["identity"] == "trace-power-3"

    def test_bad_json_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli("verify", "--identity", "det-sum", "--class", "pd",
                               "--n", "3", "--map", str(bad))
        assert code == 1
        assert err  # diagnostic on stderr

    def test_missing_file_is_input_error(self):
        code, _, _ = run_cli("verify", "--identity", "det-sum", "--class", "pd",
                             "--n", "3", "--map", "/nonexistent/map.json")
        assert code == 1

    def test_unknown_identity_is_input_error(self, spec_dir):
        code, _, _ = run_cli("verify", "--identity", "det-cubed", "--class", "pd",
                             "--n", "3", "--map", str(spec_dir / "id.json"))
        assert code == 1

    def test_bad_counts_are_input_errors(self, spec_dir):
        for extra in (("--n", "0"), ("--samples", "0"), ("--tol", "0")):
            base = ["verify", "--identity", "det-sum", "--class", "pd", "--n", "3",
                    "--map", str(spec_dir / "id.json")]
            idx = base.index(extra[0]) if extra[0] in base else None
            if idx is not None:
                base[idx + 1] = extra[1]
            else:
                base += list(extra)
            code, _, _ = run_cli(*base)
            assert code == 1, extra

    def test_remaining_identity_tags(self, spec_dir):
        for identity in ("trace-square", "trace-product", "homogeneity-additivity"):
            code, out, _ = run_cli("verify", "--identity", identity, "--class", "pd",
                                   "--n", "3", "--map", str(spec_dir / "id.json"),
                                   "--samples", "25", "--seed", "1")
            assert code == 0, (identity, out)
            assert json.loads(out)["pass"] is True

    def test_overflowing_map_is_verification_failure(self, tmp_path):
        # alpha = 1e200, M = 1e200 I: the non-finite residuals must fail with a
        # serializable report, not abort as an input error
        eye = np.eye(3, dtype=complex)
        spec = tmp_path / "overflow.json"
        spec.write_text(dumps_stable({"kind": "mn-two-sided", "alpha": {"re": 1e200, "im": 0.0},
                                      "M": matrix_to_json(1e200 * eye),
                                      "N": matrix_to_json(eye), "transpose": False}))
        code, out, err = run_cli("verify", "--identity", "trace-product", "--class", "full",
                                 "--n", "3", "--map", str(spec), "--samples", "20", "--seed", "1")
        assert code == 2
        report = json.loads(out)
        assert report["pass"] is False
        assert report["max_residual"] == 1e100
        assert b"RuntimeWarning" not in err
        code, out, err = run_cli("verify", "--identity", "det-sum", "--class", "full",
                                 "--n", "3", "--map", str(spec), "--samples", "20", "--seed", "1")
        assert code == 2
        assert json.loads(out)["max_residual"] == 1e100
        assert b"RuntimeWarning" not in err

    def test_inline_map_spec(self):
        inline = dumps_stable({"kind": "pinching"})
        code, out, _ = run_cli("verify", "--identity", "homogeneity-additivity",
                               "--class", "pd", "--n", "3", "--map", inline,
                               "--samples", "25", "--seed", "2")
        assert code == 0
        assert json.loads(out)["pass"] is True


class TestRecoverCommand:
    def test_hidden_canonical(self, spec_dir):
        code, out, _ = run_cli("recover", "--class", "full", "--n", "3",
                               "--map", str(spec_dir / "hidden_mn.json"), "--seed", "1")
        assert code == 0
        rec = json.loads(out)
        assert rec["form"] == "mn-two-sided"
        assert rec["branch"] == "transpose"
        assert rec["residual"] <= 1e-8
        assert rec["constraint_residuals"]["det_gauge"] <= 1e-8
        assert "M" in rec and "N" in rec

    def test_identity_spec(self, spec_dir):
        code, out, _ = run_cli("recover", "--class", "pd", "--n", "3",
                               "--map", str(spec_dir / "id.json"))
        assert code == 0
        rec = json.loads(out)
        assert rec["branch"] == "plain"
        assert abs(rec["alpha"]["re"] - 1.0) <= 1e-10
        assert abs(rec["alpha"]["im"]) <= 1e-12

    def test_remark1_exit_3(self, spec_dir):
        code, out, err = run_cli("recover", "--class", "pd", "--n", "3",
                                 "--map", str(spec_dir / "remark1.json"))
        assert code == 3
        assert json.loads(out)["error"] == "NotLinear"
        assert "NotLinear" in err.decode()

    def test_tn_spec(self, spec_dir):
        code, out, _ = run_cli("recover", "--class", "upper-triangular", "--n", "3",
                               "--map", str(spec_dir / "hidden_tn.json"))
        assert code == 0
        rec = json.loads(out)
        assert rec["form"] == "tn-diagonal"
        assert sorted(rec["sigma"]) == [1, 2, 3]  # one-based permutation
        assert len(rec["lambdas"]) == 3

    def test_linear_rep_wire_spec(self, spec_dir, tmp_path):
        # a mystery map submitted as an explicit n^2 x n^2 matrix
        p = random_canonical(PreserverForm.MN_TWO_SIDED, 3, 33)
        lin = build_linear_rep(p, MatrixClass.FULL, 3, 1e-8)
        spec = tmp_path / "mystery.json"
        spec.write_text(dumps_stable({"kind": "linear-rep",
                                      "rep": matrix_to_json(lin.rep)}))
        code, out, _ = run_cli("recover", "--class", "full", "--n", "3",
                               "--map", str(spec))
        assert code == 0
        rec = json.loads(out)
        assert rec["form"] == "mn-two-sided"
        assert rec["branch"] == "plain"
        assert rec["residual"] <= 1e-8


class TestOracleCommand:
    def test_jacobi(self):
        code, out, _ = run_cli("oracle", "jacobi", "--n", "5", "--samples", "100",
                               "--seed", "1")
        assert code == 0
        rep = json.loads(out)
        assert rep["max_residual"] <= 1e-6

    def test_minkowski(self):
        code, out, _ = run_cli("oracle", "minkowski", "--n", "4", "--samples", "200",
                               "--seed", "2")
        assert code == 0
        rep = json.loads(out)
        assert rep["false_equalities"] == 0
        assert rep["max_direction_violation"] <= 1e-10

    def test_kadison_choi(self):
        code, out, _ = run_cli("oracle", "kadison-choi", "--n", "3", "--samples", "50",
                               "--seed", "3")
        assert code == 0
        rep = json.loads(out)
        assert rep["maps"]["pinching"]["pass"] is True
        assert rep["maps"]["unitary-congruence"]["pass"] is True

    def test_dual_witness(self):
        code, out, _ = run_cli("oracle", "dual-witness", "--class", "symmetric",
                               "--n", "3", "--samples", "200", "--seed", "4")
        assert code == 0
        rep = json.loads(out)
        assert rep["found"] == 200
        assert rep["min_margin"] >= 1e-6


class TestCounterexampleCommand:
    def test_standard_signature(self):
        for n in ("2", "3"):
            code, out, _ = run_cli("counterexample", "--n", n, "--samples", "100",
                                   "--seed", "1")
            assert code == 0
            rep = json.loads(out)
            assert rep["signature"] == {"trace-square": "pass", "additivity": "fail",
                                        "det-sum": "fail"}

    def test_zero_generator_mismatch(self):
        code, out, _ = run_cli("counterexample", "--n", "2", "--samples", "50",
                               "--seed", "1", "--generator", "zero")
        assert code == 2
        assert json.loads(out)["pass"] is False


def test_cli_import_does_not_load_scipy():
    code = "import preserver_lab.cli, sys; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()


class TestDeterminism:
    def test_verify_byte_identical(self, spec_dir):
        args = ("verify", "--identity", "det-convex", "--class", "pd", "--n", "3",
                "--map", str(spec_dir / "id.json"), "--samples", "50", "--seed", "11")
        _, out1, _ = run_cli(*args)
        _, out2, _ = run_cli(*args)
        assert out1 == out2

    def test_recover_byte_identical(self, spec_dir):
        args = ("recover", "--class", "full", "--n", "3",
                "--map", str(spec_dir / "hidden_mn.json"))
        _, out1, _ = run_cli(*args)
        _, out2, _ = run_cli(*args)
        assert out1 == out2

    def test_out_flag_writes_same_bytes(self, spec_dir, tmp_path):
        target = tmp_path / "report.json"
        args = ("verify", "--identity", "det-sum", "--class", "pd", "--n", "3",
                "--map", str(spec_dir / "id.json"), "--samples", "25", "--seed", "5")
        _, out, _ = run_cli(*args)
        code, out2, _ = run_cli(*args, "--out", str(target))
        assert code == 0
        assert out2 == b""
        assert target.read_bytes() == out

    def test_env_seed_default(self, spec_dir):
        args = ("verify", "--identity", "det-sum", "--class", "pd", "--n", "3",
                "--map", str(spec_dir / "id.json"), "--samples", "25")
        _, out_env, _ = run_cli(*args, env_extra={"PRESERVER_LAB_SEED": "99"})
        _, out_flag, _ = run_cli(*args, "--seed", "99")
        assert out_env == out_flag
