"""Command line front end.

Exit codes: 0 pass/success, 1 input error, 2 verification/oracle fail,
3 recovery structural failure.  Reports go to stdout (or ``--out``);
diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys

if __name__ == "__main__":  # at n <= 16 numpy's BLAS pool only spins while numpy loads; a user's setting wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .domains import _WITNESS_UNITS, MatrixClass
from .errors import RECOVERY_ERRORS, PreserverLabError
from .jsonio import dumps_stable
from .mapspec import realize_map, recovery_to_json
from .preservers import NormConjugation
from .recovery import _EXTRACTORS, recover
from .verifiers import (
    check_homogeneity_additivity,
    oracle_dual_witness,
    oracle_jacobi,
    oracle_kadison_choi,
    oracle_minkowski,
    verify_det_identity,
    verify_trace_identity,
)

_CLASSES = {cls.value: cls for cls in MatrixClass}


def _parse_scalar(text: str) -> complex:
    try:
        return complex(text.strip().replace("i", "j"))
    except ValueError as exc:
        raise ValueError(f"cannot parse scalar {text.strip()!r}") from exc


def _parse_weights(text: str) -> list[tuple[complex, complex]]:
    """Semicolon-separated list of 's,t' pairs; components may be complex."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"weight pair {chunk!r} is not of the form s,t")
        pairs.append((_parse_scalar(parts[0]), _parse_scalar(parts[1])))
    if not pairs:
        raise ValueError("empty weight list")
    return pairs


def _default_weights(identity: str, n: int):
    if identity == "det-sum":
        return [(1.0 + 0.0j, 1.0 + 0.0j)]
    if identity == "det-convex":
        return [(complex(t), complex(1.0 - t)) for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
    # det-pencil, a degree-n polynomial identity: it needs n + 1 points, 2, 3, ... for n > 3
    return [(1.0 + 0.0j, lam) for lam in [1.0 + 0.0j, -1.0 + 0.0j, 1j, 2.0 + 1.0j, *map(complex, range(2, n - 1))]]


def _load_map_spec(source: str) -> dict:
    text = source.strip()
    if not text.startswith("{"):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    spec = json.loads(text)
    if not isinstance(spec, dict):
        raise ValueError("map spec must be a JSON object")
    return spec


def _validate_common(args) -> None:
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    if getattr(args, "samples", 1) < 1:
        raise ValueError("--samples must be >= 1")
    tol = getattr(args, "tol", None)
    if tol is not None and not 0.0 < tol < math.inf:
        raise ValueError("--tol must be a finite number > 0")


def _only_for(option: str, value, allowed: tuple, name: str) -> None:
    """Reject an option given to an identity or oracle that does not read it."""
    if value is not None and name not in allowed:
        raise ValueError(f"{option} applies to {' and '.join(allowed)} only, not {name!r}")


def _emit(report: dict, out_path: str | None) -> None:
    text = dumps_stable(report) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(args) -> int:
    _validate_common(args)
    cls = _CLASSES[args.klass]
    map_fn = realize_map(_load_map_spec(args.map), args.n)
    identity = args.identity
    power_match = re.fullmatch(r"trace-power-(\d+)", identity)
    _only_for("--weights", args.weights, ("det-convex", "det-pencil"), identity)
    _only_for("--k", args.k, ("trace-power-k",), identity)
    if identity in ("det-sum", "det-convex", "det-pencil"):
        weights = _parse_weights(args.weights) if args.weights is not None else _default_weights(identity, args.n)
        report = verify_det_identity(map_fn, cls, args.n, weights, args.samples,
                                     args.seed, args.tol, identity=identity)
    elif identity in ("trace-inverse", "trace-product", "trace-square"):
        report = verify_trace_identity(map_fn, cls, args.n, identity.removeprefix("trace-"),
                                       args.samples, args.seed, args.tol)
    elif identity == "trace-power-k" or power_match:
        k = int(power_match.group(1)) if power_match else args.k
        report = verify_trace_identity(map_fn, cls, args.n, "power", args.samples,
                                       args.seed, args.tol, power=2 if k is None else k)
    elif identity == "homogeneity-additivity":
        report = check_homogeneity_additivity(map_fn, cls, args.n, args.samples, args.seed, args.tol)
    else:
        raise ValueError(f"unknown identity tag {identity!r}")
    _emit(report.to_dict(), args.out)
    return 0 if report.passed else 2


def _cmd_recover(args) -> int:
    _validate_common(args)
    cls = _CLASSES[args.klass]
    map_fn = realize_map(_load_map_spec(args.map), args.n)
    try:
        p, residual = recover(map_fn, cls, args.n, tol=args.tol)
    except RECOVERY_ERRORS as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)}, args.out)
        print(f"recovery failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    _emit(recovery_to_json(p, residual), args.out)
    return 0


_ORACLES = {
    "minkowski": lambda args: oracle_minkowski(args.n, args.samples, args.seed),
    "jacobi": lambda args: oracle_jacobi(args.n, args.samples, args.seed),
    "kadison-choi": lambda args: oracle_kadison_choi(args.n, args.samples, args.seed, args.tol or 1e-8),
    "dual-witness": lambda args: oracle_dual_witness(_CLASSES[args.klass or "full"], args.n,
                                                     args.samples, args.seed),
}


def _cmd_oracle(args) -> int:
    _validate_common(args)
    _only_for("--tol", args.tol, ("kadison-choi",), args.oracle)
    _only_for("--class", args.klass, ("dual-witness",), args.oracle)
    report = _ORACLES[args.oracle](args)
    _emit(report, args.out)
    return 0 if report["pass"] else 2


def _cmd_counterexample(args) -> int:
    _validate_common(args)
    map_fn = NormConjugation(0.0 if args.generator == "zero" else 1.0)
    square = verify_trace_identity(map_fn, MatrixClass.PD, args.n, "square",
                                   args.samples, args.seed, 1e-9)
    add = check_homogeneity_additivity(map_fn, MatrixClass.PD, args.n,
                                       args.samples, args.seed, 1e-8)
    det = verify_det_identity(map_fn, MatrixClass.PD, args.n,
                              [(1.0 + 0.0j, 1.0 + 0.0j)], args.samples,
                              args.seed, 1e-8, identity="det-sum")
    signature = {
        "trace-square": "pass" if square.passed else "fail",
        "additivity": "fail" if not add.passed else "pass",
        "det-sum": "fail" if not det.passed else "pass",
    }
    expected = (square.passed
                and not add.passed and add.max_residual >= 1e-3
                and not det.passed and det.max_residual >= 1e-3)
    report = {
        "command": "counterexample",
        "n": args.n,
        "samples": args.samples,
        "generator": args.generator,
        "signature": signature,
        "trace_square_max_residual": square.max_residual,
        "additivity_max_residual": add.max_residual,
        "det_sum_max_residual": det.max_residual,
        "pass": bool(expected),
    }
    _emit(report, args.out)
    return 0 if expected else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="preserver-lab",
                                     description="verify, recover and probe determinant/trace preserving matrix maps")
    sub = parser.add_subparsers(dest="command", required=True)
    # a string default is parsed by type=int only when --seed is omitted (argparse error if bad)
    seed = os.environ.get("PRESERVER_LAB_SEED", "0")

    def common(p, classes, with_map=False, samples=True):
        p.add_argument("--class", dest="klass", choices=classes, required=True)
        p.add_argument("--n", type=int, required=True)
        if samples:
            p.add_argument("--samples", type=int, default=100)
        p.add_argument("--seed", type=int, default=seed)
        p.add_argument("--tol", type=float, default=1e-8)
        if with_map:
            p.add_argument("--map", required=True, help="map spec file path or inline JSON")
        p.add_argument("--out", default=None)

    pv = sub.add_parser("verify", help="run one identity battery against a map spec")
    pv.add_argument("--identity", required=True)
    common(pv, sorted(_CLASSES), with_map=True)
    pv.add_argument("--weights", default=None, help="semicolon list of s,t pairs (components may be complex)")
    pv.add_argument("--k", type=int, help="exponent for trace-power-k, 1 to 64 (default 2)")
    pv.set_defaults(fn=_cmd_verify)

    pr = sub.add_parser("recover", help="recover canonical parameters of a map spec")
    # --seed is accepted; the probes are fixed
    common(pr, [cls.value for cls in _EXTRACTORS], with_map=True, samples=False)
    pr.set_defaults(fn=_cmd_recover)

    po = sub.add_parser("oracle", help="run a named oracle battery")
    po.add_argument("oracle", choices=("minkowski", "jacobi", "kadison-choi", "dual-witness"))
    po.add_argument("--class", dest="klass", choices=[cls.value for cls in _WITNESS_UNITS],
                    help="dual-witness only (default full)")
    po.add_argument("--n", type=int, required=True)
    po.add_argument("--samples", type=int, default=100)
    po.add_argument("--seed", type=int, default=seed)
    po.add_argument("--tol", type=float, help="kadison-choi only (default 1e-8)")
    po.add_argument("--out", default=None)
    po.set_defaults(fn=_cmd_oracle)

    pc = sub.add_parser("counterexample", help="check the norm-dependent conjugation signature")
    pc.add_argument("--n", type=int, default=2)
    pc.add_argument("--samples", type=int, default=100)
    pc.add_argument("--seed", type=int, default=seed)
    pc.add_argument("--generator", choices=("standard", "zero"), default="standard")
    pc.add_argument("--out", default=None)
    pc.set_defaults(fn=_cmd_counterexample)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
    except SystemExit as exc:  # argparse reports to stderr already
        return 1 if exc.code not in (0, None) else 0
    try:
        if extra:
            raise ValueError(f"{args.command} does not take {' '.join(extra)}")
        return args.fn(args)
    except (PreserverLabError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    code = main()
    gc.freeze()  # the process is ending: spare its exit-time collection a sweep over numpy's objects
    sys.exit(code)
