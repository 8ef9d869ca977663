"""End-to-end CLI tests: exit codes, JSON shapes, byte determinism."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preserver_lab import (
    MatrixClass,
    PreserverForm,
    build_linear_rep,
    matrix_to_json,
    oracle_dual_witness,
    oracle_jacobi,
    oracle_kadison_choi,
    oracle_minkowski,
    preserver_to_spec,
    random_canonical,
    realize_map,
)
from preserver_lab.cli import _build_parser, main
from preserver_lab.jsonio import dumps_stable


def run_cli(*args, env_extra=None):
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

    @pytest.mark.parametrize("klass", ["pd", "full", "upper-triangular"])
    def test_trace_power_range(self, klass, capsys):
        # at k = 400 (PD) and 1000 (full) both sides overflowed, and the identity map failed with 1e100
        eye = dumps_stable({"kind": "mn-two-sided", "M": matrix_to_json(np.eye(16)),
                            "N": matrix_to_json(np.eye(16))})
        base = ["verify", "--class", klass, "--n", "16", "--samples", "20", "--map", eye, "--identity"]
        for power in (["trace-power-k", "--k", "65"], ["trace-power-65"]):
            assert main([*base, *power]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err == "error: ValueError: power must lie in [1, 64]\n"
        assert main([*base, "trace-power-k", "--k", "64"]) == 0
        assert json.loads(capsys.readouterr().out)["max_residual"] <= 1e-12

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

    @pytest.mark.parametrize("value", ["Infinity", "1e400", "NaN"])
    @pytest.mark.parametrize("where", ["alpha", "alpha-re", "lambdas"])
    def test_non_finite_spec_scalar_is_input_error(self, value, where, capsys):
        # json reads 1e400 as inf and accepts NaN/Infinity; none may reach the batteries
        if where == "lambdas":
            spec = ('{"kind":"tn-diagonal","sigma":[2,1],"lambdas":[1,%s]}' % value)
        else:
            alpha = value if where == "alpha" else '{"re":%s,"im":0}' % value
            spec = ('{"kind":"pn-congruence","alpha":%s,"M":%s}'
                    % (alpha, dumps_stable(matrix_to_json(np.eye(2)))))
        assert main(["verify", "--identity", "det-sum", "--class", "upper-triangular",
                     "--n", "2", "--map", spec]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ValueError: complex JSON must be a finite number")

    @pytest.mark.parametrize("spec,message", [
        ('{"kind":"pn-congruence","alpha":1%s,"M":%%s}' % ("0" * 400), "complex JSON must be a finite number"),
        ('{"kind":"pn-congruence","M":{"n":2,"re":[[1%s,0],[0,1]],"im":[[0,0],[0,0]]}}' % ("0" * 400),
         "matrix JSON entries must be finite numbers"),
        ('{"kind":"pn-congruence","M":{"n":2,"re":[[true,"0"],[0,"1e0"]],"im":[[0,0],[0,0]]}}',
         "matrix JSON entries must be finite numbers"),
        ('{"kind":"pn-congruence","M":{"n":2.5,"re":[[1,0],[0,1]],"im":[[0,0],[0,0]]}}',
         "expected an integer, got 2.5"),
        ('{"kind":"tn-diagonal","sigma":[2,1],"lambdas":[1,1],"offdiag_seed":1e400}',
         "expected an integer, got inf"),
        ('{"kind":"tn-diagonal","sigma":[1.5,2],"lambdas":[1,1]}', "expected an integer, got 1.5"),
        ('{"kind":"tn-diagonal","sigma":[2,1],"lambdas":5}', "tn-diagonal spec needs sigma and lambdas as arrays"),
        ('{"kind":"tn-diagonal","sigma":7,"lambdas":[1,1]}', "tn-diagonal spec needs sigma and lambdas as arrays"),
        ('{"kind":{"a":1}}', "map spec must be a JSON object with a string 'kind'"),
        ('{"kind":"tn-diagonal","sigma":[2,1],"lambdas":[1]}', "lambdas must have n = 2 entries, got 1"),
        ('{"kind":"pn-congruence","M":{"n":2,"re":[[1,2],[0,1]],"im":[[0,0],[0,0]]},"transpose":"false"}',
         "transpose must be true or false, got 'false'"),
        ('{"kind":"pn-congruence","alpha":true,"M":%s}', "complex JSON must be a finite number or an object"),
        ('{"kind":"tn-diagonal","sigma":[2,1],"lambdas":[1,{"re":true,"im":0}]}',
         "complex JSON must be a finite number or an object"),
        ('{"kind":"pn-congruence"}', "matrix JSON must be an object with keys n, re, im"),
        ('{"kind":"mn-two-sided","M":%s}', "matrix JSON must be an object with keys n, re, im"),
        ('{"kind":"linear-rep"}', "matrix JSON must be an object with keys n, re, im"),
        ('{"kind":"linear-rep","rep":[[1,0],[0,1]]}', "matrix JSON must be an object with keys n, re, im"),
    ], ids=["huge-alpha", "huge-entry", "bool-string-entries", "fractional-n", "infinite-seed", "fractional-sigma",
            "scalar-lambdas", "scalar-sigma", "object-kind", "short-lambdas", "string-transpose", "bool-alpha",
            "bool-lambda-part", "missing-M", "missing-N", "missing-rep", "list-rep"])
    def test_bad_spec_number_is_input_error(self, spec, message, capsys):
        # tracebacks (OverflowError, TypeError), or a misread spec: int() truncating sigma to [1, 2],
        # one lambda broadcast over n = 2, bool("false") taking the transpose branch, true read as 1,
        # a missing matrix field ending as "error: KeyError: 'N'"
        spec = spec.replace("%s", dumps_stable(matrix_to_json(np.eye(2))))
        for command in (["verify", "--identity", "det-sum"], ["recover"]):
            assert main([*command, "--class", "upper-triangular", "--n", "2", "--map", spec]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: ValueError: {message}") and "Traceback" not in err

    @pytest.mark.parametrize("weights,message", [
        ("0,0", "weights must be"), ("1,1;0,0", "weights must be"), ("nan,1", "weights must be"),
        ("inf,1", "cannot parse scalar 'inf'"),
    ])
    def test_degenerate_weights_are_input_errors(self, weights, message, capsys):
        # "0,0" passed the pinching (both sides det(0)), "nan,1" exited 2, "inf,1" quoted 'jnf'
        assert main(["verify", "--identity", "det-pencil", "--class", "full", "--n", "3",
                     "--map", '{"kind":"pinching"}', "--weights", weights, "--samples", "10"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: ValueError: {message}")

    @pytest.mark.parametrize("identity,weights,message", [
        ("det-foo", None, "unknown identity tag 'det-foo'"),
        ("det-foo", "1,1", "--weights applies to det-convex and det-pencil only, not 'det-foo'"),
        ("det-sum", "1,2", "--weights applies to det-convex and det-pencil only, not 'det-sum'"),
        ("trace-product", "1,1", "--weights applies to"),
        ("homogeneity-additivity", "1,1", "--weights applies to"),
    ], ids=["unknown-tag", "unknown-tag-weights", "det-sum-weights", "trace-weights", "homogeneity-weights"])
    def test_identity_and_weights_must_match(self, identity, weights, message, capsys):
        # det-foo ran the det-sum battery, and det-sum with weights 1,2 still reported "det-sum"
        spec = dumps_stable({"kind": "pn-congruence", "M": matrix_to_json(np.eye(2))})
        argv = ["verify", "--identity", identity, "--class", "pd", "--n", "2", "--map", spec]
        assert main(argv + (["--weights", weights] if weights else [])) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: ValueError: {message}")

    def test_small_alpha_is_regular(self, capsys):
        # phi(A) = 0.001 A at n = 5: det(phi(I)) = 1e-15 is not a singular unit
        spec = dumps_stable({"kind": "pn-congruence", "alpha": {"re": 1e-3, "im": 0.0},
                             "M": matrix_to_json(np.eye(5))})
        assert main(["verify", "--identity", "det-sum", "--class", "pd", "--n", "5",
                     "--map", spec, "--samples", "20"]) == 0
        assert main(["recover", "--class", "pd", "--n", "5", "--map", spec]) == 0
        assert capsys.readouterr().err == ""

    def test_small_non_preserver_fails(self, capsys):
        # a perturbed congruence rep at scale 1e-3, n = 5: both sides of det-sum sit far below the
        # residual floor of 1, so only the unit lift makes the identity fail (exit 2)
        p = random_canonical(PreserverForm.PN_CONGRUENCE, 5, 9)
        rep = build_linear_rep(p, MatrixClass.PD, 5, 1e-8).rep.copy()
        rep[0, 0] += 1e-3 * np.linalg.norm(p.M)
        spec = dumps_stable({"kind": "linear-rep", "rep": matrix_to_json(1e-3 * rep)})
        assert main(["verify", "--identity", "det-sum", "--class", "pd", "--n", "5",
                     "--map", spec, "--samples", "20"]) == 2
        assert json.loads(capsys.readouterr().out)["pass"] is False

    def test_large_alpha_is_regular(self, capsys):
        # phi(A) = 1e30 A at n = 16: det(phi(I)) = 1e480 overflowed, so recover ended in a bare
        # "principal root of zero" on PD (exit 1) and in NotCanonical on full, and det-sum failed
        # (exit 2); the unit lift now takes max |phi(I)_ij| into [1, 2) from above too
        spec = dumps_stable({"kind": "pn-congruence", "alpha": {"re": 1e30, "im": 0.0},
                             "M": matrix_to_json(np.eye(16))})
        assert main(["verify", "--identity", "det-sum", "--class", "pd", "--n", "16",
                     "--map", spec, "--samples", "20"]) == 0
        assert json.loads(capsys.readouterr().out)["max_residual"] <= 1e-14
        for klass in ("pd", "full"):
            assert main(["recover", "--class", klass, "--n", "16", "--map", spec]) == 0
            out, err = capsys.readouterr()
            assert err == "" and json.loads(out)["alpha"]["re"] == pytest.approx(1e30, rel=1e-14)

    def test_antisymmetric_unit_on_symmetric_class(self, capsys):
        # phi(X) = tr(X) J with J antisymmetric: phi(I) = 2J has symmetric part C = 0, which the
        # symmetric gauge must refuse (is_singular of C) before it divides by its Takagi values
        j = np.array([0.0, 1.0, -1.0, 0.0])
        spec = dumps_stable({"kind": "linear-rep", "rep": matrix_to_json(np.outer(j, np.eye(2).ravel()))})
        assert main(["verify", "--identity", "trace-product", "--class", "symmetric", "--n", "2",
                     "--map", spec, "--samples", "10"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: DegenerateUnit: ")

    def test_remaining_identity_tags(self, spec_dir):
        for identity in ("trace-square", "trace-product", "homogeneity-additivity"):
            code, out, _ = run_cli("verify", "--identity", identity, "--class", "pd",
                                   "--n", "3", "--map", str(spec_dir / "id.json"),
                                   "--samples", "25", "--seed", "1")
            assert code == 0, (identity, out)
            assert json.loads(out)["pass"] is True

    def test_overflowing_map_is_verification_failure(self, tmp_path, capfd):
        # alpha = 1e200, M = 1e200 I: the non-finite residuals must fail with a
        # serializable report, not abort as an input error, on every class
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
        # trace-product runs on an all-NaN companion on every class, the gauge classes included
        for klass in sorted(c.value for c in MatrixClass):
            for identity in ("trace-product", "det-sum"):
                assert main(["verify", "--identity", identity, "--class", klass, "--n", "3",
                             "--map", str(spec), "--samples", "20", "--seed", "1"]) == 2
                out, err = capfd.readouterr()
                assert json.loads(out)["max_residual"] == 1e100, (klass, identity)
                assert err == ""

    @pytest.mark.parametrize("klass,spec,error", [
        ("symmetric", {"kind": "sn-congruence", "M": matrix_to_json(np.diag([1.0, 0.0]))},
         "DegenerateUnit"),
        ("pd", {"kind": "pn-congruence", "alpha": {"re": -1.0, "im": 0.0},
                "M": matrix_to_json(np.eye(2))}, "NotPositiveDefinite"),
    ], ids=["symmetric-singular-unit", "pd-negative-unit"])
    def test_bad_unit_image_is_input_error(self, klass, spec, error, capsys):
        assert main(["verify", "--identity", "trace-product", "--class", klass, "--n", "2",
                     "--map", dumps_stable(spec)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {error}: map(I) is")

    def test_unit_determinant_cancelling_to_zero_is_degenerate(self, capsys):
        # phi(I) = M^* M has condition v^4 ~ 1e52 (v = 1.05e13), which is_singular misses, and its det
        # cancels to 0: recover ended in "principal root of zero" (exit 1), det-sum failed (exit 2)
        spec = '{"kind":"pn-congruence","M":{"n":2,"re":[[1,1.0480896200805e13],[0,1]],"im":[[0,0],[0,0]]}}'
        argv = ["--class", "full", "--n", "2", "--map", spec]
        assert main(["recover", *argv]) == 3
        out, err = capsys.readouterr()
        assert json.loads(out)["error"] == "SingularUnit" and err.startswith("recovery failed: SingularUnit: ")
        assert main(["verify", "--identity", "det-sum", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: DegenerateUnit: ")

    def test_linear_rep_of_another_size_is_input_error(self, spec_dir, capsys):
        assert main(["verify", "--identity", "det-sum", "--class", "full", "--n", "2",
                     "--map", str(spec_dir / "perturbed.json")]) == 1
        assert "matrix JSON must have n = 4 and two 4 x 4 arrays" in capsys.readouterr().err

    def test_inline_map_spec(self):
        inline = dumps_stable({"kind": "pinching"})
        code, out, _ = run_cli("verify", "--identity", "homogeneity-additivity",
                               "--class", "pd", "--n", "3", "--map", inline,
                               "--samples", "25", "--seed", "2")
        assert code == 0
        assert json.loads(out)["pass"] is True


# One JSON token per case with the float it must decode to, or None for an input error.
_SPEC_NUMBERS = [("true", None), ('"1"', None), ("null", None), ("[1]", None), ('{"re":1}', None),
                 ("1" + "0" * 400, None), ("1e400", None), ("NaN", None), ("Infinity", None),
                 ("-Infinity", None), ("-0.0", -0.0), ("5e-324", 5e-324), ("1e308", 1e308), ("3", 3.0),
                 ("1.0480896200805e13", 1.0480896200805e13)]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(_SPEC_NUMBERS)
       | st.floats(allow_nan=False, allow_infinity=False).map(lambda x: (repr(x), x)))
def test_spec_number_rule(case):
    # the number rule at the spec boundary: one token in an off-diagonal entry of M and of rep, on
    # otherwise unit-triangular matrices.  A finite value is decoded exactly; the map may then fail
    # or be degenerate (a phi(I) that is_singular flags or whose determinant cancels to 0 is
    # DegenerateUnit, and SingularUnit in recover), never a decoding error.
    token, value = case
    specs = {"M": ('{"kind":"pn-congruence","M":{"n":2,"re":[[1,%s],[0,1]],"im":[[0,0],[0,0]]}}', 2),
             "rep": ('{"kind":"linear-rep","rep":{"n":4,"re":[[1,0,0,%s],[0,1,0,0],[0,0,1,0],[0,0,0,1]],'
                     '"im":[[0,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]]}}', 4)}
    for field, (template, size) in specs.items():
        spec = template % token
        if value is not None:
            decoded = realize_map(json.loads(spec), 2)
            entry = (decoded.M if field == "M" else decoded.rep)[0, size - 1]
            assert entry == value, (field, token)
        for command in (["verify", "--identity", "det-sum", "--samples", "5"], ["recover"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*command, "--class", "full", "--n", "2", "--map", spec])
            assert "Traceback" not in err.getvalue(), (field, token, command)
            if value is None:
                assert code == 1 and out.getvalue() == "", (field, token, command)
                assert err.getvalue().startswith("error: ValueError: "), (field, token, command)
            else:
                assert code in (0, 2, 3) or err.getvalue().startswith("error: DegenerateUnit: "), (
                    field, token, command, err.getvalue())


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


class TestRecoverNonFinite:
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_is_input_error(self, tol, capsys):
        # a NaN or infinite tolerance passed every comparison against it
        assert main(["recover", "--class", "full", "--n", "3", "--tol", tol,
                     "--map", '{"kind":"remark1"}']) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: ValueError: --tol must be a finite number > 0\n"

    @pytest.mark.parametrize("klass", ["full", "pd", "symmetric", "upper-triangular", "diagonal"])
    def test_overflowing_map_is_not_linear(self, klass, tmp_path, capfd):
        # alpha = 1e200, M = 1e200 I: the box's images overflow, so the linear
        # rep cannot reproduce it; no warning, LAPACK noise or traceback
        eye = np.eye(3, dtype=complex)
        spec = tmp_path / "overflow.json"
        spec.write_text(dumps_stable({"kind": "mn-two-sided", "alpha": {"re": 1e200, "im": 0.0},
                                      "M": matrix_to_json(1e200 * eye),
                                      "N": matrix_to_json(eye), "transpose": False}))
        assert main(["recover", "--class", klass, "--n", "3", "--map", str(spec)]) == 3
        out, err = capfd.readouterr()
        assert json.loads(out)["error"] == "NotLinear"
        assert err.startswith("recovery failed: NotLinear")
        for noise in ("Warning", "DLASCL", "LinAlgError", "Traceback"):
            assert noise not in out + err


class TestClassChoices:
    @pytest.mark.parametrize("argv", [
        ["recover", "--class", "hermitian", "--n", "3", "--map", "{}"],
        ["oracle", "dual-witness", "--class", "pd", "--n", "3"],
    ], ids=["recover-hermitian", "dual-witness-pd"])
    def test_unsupported_class_is_rejected_by_the_parser(self, argv, capsys):
        assert main(argv) == 1
        assert "invalid choice" in capsys.readouterr().err


_PINCHING = ["--class", "full", "--n", "2", "--map", '{"kind":"pinching"}']


class TestOptionSets:
    def test_each_command_declares_only_the_options_it_reads(self):
        # recover's probes use fixed seeds; it keeps --seed so that seeded scripts still run
        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        declared = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
                    for name, p in sub.choices.items()}
        assert declared == {
            "verify": {"--identity", "--class", "--n", "--samples", "--seed", "--tol", "--map", "--out",
                       "--weights", "--k"},
            "recover": {"--class", "--n", "--seed", "--tol", "--map", "--out"},
            "oracle": {"--class", "--n", "--samples", "--seed", "--tol", "--out"},
            "counterexample": {"--n", "--samples", "--seed", "--generator", "--out"},
        }

    @pytest.mark.parametrize("argv,message", [
        (["verify", "--identity", "trace-power-3", "--k", "9", *_PINCHING],
         "--k applies to trace-power-k only, not 'trace-power-3'"),
        (["verify", "--identity", "det-sum", "--k", "7", *_PINCHING],
         "--k applies to trace-power-k only, not 'det-sum'"),
        (["recover", "--samples", "0", *_PINCHING], "recover does not take --samples 0"),
        (["oracle", "minkowski", "--tol", "1e-300", "--class", "symmetric", "--n", "2"],
         "--tol applies to kadison-choi only, not 'minkowski'"),
        (["oracle", "jacobi", "--class", "symmetric", "--n", "2"],
         "--class applies to dual-witness only, not 'jacobi'"),
        (["counterexample", "--n", "-3"], "--n must be >= 1"),
    ], ids=["k-on-trace-power-3", "k-on-det-sum", "recover-samples", "minkowski-tol", "jacobi-class",
            "counterexample-negative-n"])
    def test_an_option_the_command_ignores_is_input_error(self, argv, message, capsys):
        # each of these ran and ignored the option, or failed on it (recover --samples 0, and numpy's
        # "negative dimensions are not allowed" for counterexample --n -3)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: ValueError: {message}\n"


class TestOracleCommand:
    @pytest.mark.parametrize("argv,battery", [
        (["minkowski", "--n", "3"], lambda: oracle_minkowski(3, 30, 5)),
        (["jacobi", "--n", "3"], lambda: oracle_jacobi(3, 30, 5)),
        (["kadison-choi", "--n", "3", "--tol", "1e-9"], lambda: oracle_kadison_choi(3, 30, 5, 1e-9)),
        (["dual-witness", "--class", "diagonal", "--n", "3"],
         lambda: oracle_dual_witness(MatrixClass.DIAGONAL, 3, 30, 5)),
    ], ids=["minkowski", "jacobi", "kadison-choi", "dual-witness"])
    def test_emits_the_library_battery(self, argv, battery, capsys):
        assert main(["oracle", *argv, "--samples", "30", "--seed", "5"]) == 0
        assert capsys.readouterr().out == dumps_stable(battery()) + "\n"

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


def test_package_import_does_not_load_numpy():
    code = "import preserver_lab, sys; assert 'numpy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()


# Installed through sitecustomize: reports OPENBLAS_NUM_THREADS at the moment numpy is first imported.
_NUMPY_IMPORT_PROBE = """
import os, sys

class _Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            sys.meta_path.remove(self)
            print("numpy import sees OPENBLAS_NUM_THREADS =", os.environ.get("OPENBLAS_NUM_THREADS"), file=sys.stderr)

sys.meta_path.insert(0, _Probe())
"""


@pytest.mark.parametrize("entry", ["preserver_lab.cli", "preserver_lab"])
def test_program_loads_numpy_with_one_blas_thread_unless_told_otherwise(entry, tmp_path):
    # the program defaults OPENBLAS_NUM_THREADS before numpy loads; a caller's own value is kept
    (tmp_path / "sitecustomize.py").write_text(_NUMPY_IMPORT_PROBE)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tmp_path), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", entry, "oracle", "jacobi", "--n", "2", "--samples", "3"]
    for given, seen in [(None, "1"), ("2", "2")]:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              env=env if given is None else {**env, "OPENBLAS_NUM_THREADS": given})
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == f"numpy import sees OPENBLAS_NUM_THREADS = {seen}\n"
        assert proc.stdout == dumps_stable(oracle_jacobi(2, 3, 0)) + "\n"


_IMPORT_AND_MAIN = """
import gc, os
environ = dict(os.environ)
import preserver_lab, preserver_lab.__main__, preserver_lab.cli as cli
assert cli.main(["oracle", "jacobi", "--n", "2", "--samples", "3"]) == 0
assert dict(os.environ) == environ and gc.get_freeze_count() == 0
"""


def test_library_import_and_main_leave_environ_and_gc_alone():
    # the tests and the benchmark call main() in process: only the program's __main__ block acts
    proc = subprocess.run([sys.executable, "-c", _IMPORT_AND_MAIN], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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

    @pytest.mark.parametrize("value", ["abc", ""])
    def test_malformed_env_seed(self, value, monkeypatch, capsys):
        # read only when --seed is omitted, and then an argparse error, never a traceback
        monkeypatch.setenv("PRESERVER_LAB_SEED", value)
        argv = ["oracle", "jacobi", "--n", "2", "--samples", "5"]
        assert main(argv) == 1
        assert "argument --seed: invalid int value" in capsys.readouterr().err
        assert main([*argv, "--seed", "7"]) == 0
        seeded = capsys.readouterr().out
        monkeypatch.setenv("PRESERVER_LAB_SEED", "7")
        assert main(argv) == 0
        assert capsys.readouterr().out == seeded
        monkeypatch.setenv("PRESERVER_LAB_SEED", value)
        assert main(["--help"]) == 0
