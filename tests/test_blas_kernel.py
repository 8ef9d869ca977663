"""Outcomes and small sample stacks under two OpenBLAS kernels of one DYNAMIC_ARCH build.

Two child processes run the same op set; the only difference between them is
``OPENBLAS_CORETYPE`` (unset, so OpenBLAS picks its kernel, or ``Haswell``).
Report bytes are only promised per kernel, so the test compares outcomes, and
the sample stacks at n <= 3, which are formed without BLAS or LAPACK.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import preserver_lab

_CHILD = r"""
import ctypes, hashlib, json, pathlib
import numpy as np
from preserver_lab import (MatrixClass, PreserverForm, random_canonical, recover, verify_det_identity,
                           verify_trace_identity)
from preserver_lab.domains import sample_batch


def corename():
    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                    "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def outcome(call):
    try:
        return call()
    except Exception as exc:
        return type(exc).__name__


forms = {"pd": PreserverForm.PN_CONGRUENCE, "symmetric": PreserverForm.SN_CONGRUENCE,
         "full": PreserverForm.MN_TWO_SIDED, "upper-triangular": PreserverForm.TN_DIAGONAL}
outcomes = {}
for name, form in forms.items():
    cls = MatrixClass(name)
    for n in (2, 3):
        phi = random_canonical(form, n, 1)
        outcomes[f"det-sum {name} {n}"] = outcome(
            lambda: verify_det_identity(phi, cls, n, [(1.0, 1.0)], 50, 0, 1e-8).passed)
        outcomes[f"trace-inverse {name} {n}"] = outcome(
            lambda: verify_trace_identity(phi, cls, n, "inverse", 50, 0, 1e-8).passed)
phi = random_canonical(PreserverForm.MN_TWO_SIDED, 3, 1, transpose=True)
outcomes["recover full 3"] = outcome(lambda: [(p := recover(phi, MatrixClass.FULL, 3)[0]).form.value, p.transpose])
stacks = {f"{cls.value} {n}": hashlib.sha256(sample_batch(cls, n, 7, 200).tobytes()).hexdigest()
          for cls in MatrixClass for n in (1, 2, 3)}
print(json.dumps({"core": corename(), "outcomes": outcomes, "stacks": stacks}))
"""


def _run_children(coretypes):
    src = str(Path(preserver_lab.__file__).resolve().parent.parent)
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    base["OPENBLAS_NUM_THREADS"] = "1"
    procs = [subprocess.Popen([sys.executable, "-c", _CHILD], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=base if core is None else {**base, "OPENBLAS_CORETYPE": core})
             for core in coretypes]
    return [(proc.returncode, out, err) for proc in procs for out, err in [proc.communicate(timeout=60)]]


def test_outcomes_and_small_sample_stacks_do_not_depend_on_the_blas_kernel():
    (code0, out0, err0), (code1, out1, err1) = _run_children([None, "Haswell"])
    assert code0 == 0, err0
    if code1 < 0:
        pytest.skip(f"the Haswell kernel cannot run on this CPU (child killed by signal {-code1})")
    assert code1 == 0, err1
    default, haswell = json.loads(out0), json.loads(out1)
    if default["core"] == haswell["core"]:
        pytest.skip(f"OpenBLAS reports core {default['core']!r} under both settings: not a DYNAMIC_ARCH "
                    "build (or not OpenBLAS), so there is no second kernel to compare")
    assert default["outcomes"] == haswell["outcomes"]
    assert all(v is True or v == ["mn-two-sided", True] for v in default["outcomes"].values())
    assert default["stacks"] == haswell["stacks"]
