"""preserver-lab benchmark: end-to-end numbers per workload, layer numbers when traced.

Run from the repository root:

    python3 bench/run.py --workload verify-battery --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload recover-sweep --seed 1 --seconds 50 --trace 1
    python3 bench/run.py --compare OLD.jsonl NEW.jsonl

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
seed, the machine and environment, and which ops had the wrong outcome.
``--out FILE`` also appends both as one JSON line, the input of
``--compare``.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"

WORKLOADS = ("verify-battery", "recover-sweep", "cli-cold")
MIN_OPS = 100          # op_ms_p90 must leave at least 10 ops above it
SETUP_REPEATS = 6      # setup_s is the median of this many fresh processes
CLI_PROBE_REPEATS = 5  # cli.* numbers are medians of this many subprocesses
MAX_MEASURE_S = 120.0  # cap on stretching a run to MIN_OPS; a run must end within 180 s
TRACEBACK = "Traceback (most recent call last)"


# -- statistics ----------------------------------------------------------------

def p90(values):
    """Nearest-rank 90th percentile; refuses a sample that leaves < 10 above it."""
    ordered = sorted(values)
    rank = -(-9 * len(ordered) // 10)  # ceil(0.9 n), 1-based
    if len(ordered) - rank < 10:
        raise ValueError(f"{len(ordered)} values leave fewer than 10 above the 90th percentile")
    return ordered[rank - 1]


# -- running ops -----------------------------------------------------------------

@dataclass
class Crash:
    """An op that raised an exception its contract does not name (a traceback)."""
    text: str


@dataclass
class Record:
    op: int
    seconds: float
    raw: object
    rss_kb: int = 0


def closed_loop(ops, execute, seconds=0.0, min_ops=0, cycles=None):
    """One client, next op after the previous one returns, whole cycles of ``ops``.

    Stops after ``cycles`` cycles, or once ``seconds`` have passed and
    ``min_ops`` ops are done.  Returns (records, elapsed seconds).
    """
    records = []
    start = time.perf_counter()
    done = 0
    while True:
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            raw, rss_kb = execute(op, i)
            records.append(Record(i, time.perf_counter() - t0, raw, rss_kb))
        done += 1
        elapsed = time.perf_counter() - start
        if cycles is not None:
            if done >= cycles:
                return records, elapsed
        elif elapsed >= seconds and len(records) >= min_ops:
            return records, elapsed
        elif elapsed >= max(seconds, MAX_MEASURE_S):
            raise RuntimeError(f"only {len(records)} ops in {elapsed:.0f} s; need {min_ops}")


def in_process(map_for):
    def execute(op, i):
        try:
            return op.call(map_for(op)), 0
        except Exception as exc:  # a traceback: counted as failed and wrong
            return Crash(f"{type(exc).__name__}: {exc}"), 0
    return execute


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli_subprocess(work_dir):
    env = child_env()
    err_path = work_dir / "stderr.txt"

    def execute(op, i):
        with open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "preserver_lab.cli", *op.argv],
                                    stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
            with proc.stdout:
                out = proc.stdout.read().decode()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(errors="replace")
        if TRACEBACK in stderr:
            return Crash(stderr.strip().splitlines()[-1]), usage.ru_maxrss
        return (proc.returncode, out), usage.ru_maxrss
    return execute


@dataclass
class Score:
    attempted: int = 0
    failed: int = 0
    wrong: Counter = field(default_factory=Counter)
    mismatched: Counter = field(default_factory=Counter)

    @property
    def wrong_frac(self) -> float:
        return sum(self.wrong.values()) / self.attempted


def score(ops, records, reference, into=None):
    """Compare each outcome with its expected one and with the op's first output.

    ``reference`` maps op index to the text of its first run in this
    process; every later run of the op must reproduce it byte for byte.
    A run is wrong when its outcome differs, it raised, or its text differs.
    """
    s = into or Score()
    for rec in records:
        op = ops[rec.op]
        if isinstance(rec.raw, Crash):
            s.failed += 1
            observed, text = f"traceback {rec.raw.text}", rec.raw.text
        else:
            observed, text = op.classify(rec.raw)
        s.attempted += 1
        repeated = reference.setdefault(rec.op, text) == text
        if not repeated:
            s.mismatched[rec.op] += 1
        if observed != op.expected or not repeated:
            s.wrong[rec.op] += 1
    return s


def is_correct(ops, s: Score) -> bool:
    """No traceback, no output that failed to repeat, and no wrong outcome
    beyond the ROADMAP item 2 defects the workloads name."""
    return (s.failed == 0 and not s.mismatched
            and all(ops[i].known_defect for i in s.wrong))


def wrong_report(ops, s: Score) -> dict:
    return {ops[i].name: {"count": c, "expected": ops[i].expected,
                          "known_defect": ops[i].known_defect}
            for i, c in sorted(s.wrong.items())}


# -- set-up ----------------------------------------------------------------------

def import_library():
    """Import preserver_lab from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import preserver_lab
    except ImportError as exc:
        sys.exit(f"bench: cannot import preserver_lab from {SRC}: {exc}")
    if Path(preserver_lab.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: preserver_lab imported from {preserver_lab.__file__}, not {SRC}")


def build(workload, seed, work_dir):
    import workloads
    work_dir.mkdir(parents=True, exist_ok=True)
    return workloads.BUILDERS[workload](seed, str(work_dir))


def time_setups(workload, seed, count):
    """Wall times of fresh processes that import preserver_lab and build the inputs."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                        "--seed", str(seed), "--setup-only"], check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def probe_ms(args, env=None, parse=None):
    values = []
    for _ in range(CLI_PROBE_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=env, cwd=ROOT, check=True)
        wall = (time.perf_counter() - t0) * 1e3
        values.append(parse(done.stderr) if parse else wall)
    return statistics.median(values)


def scipy_import_ms(stderr):
    """Cumulative import time of scipy.linalg from ``-X importtime`` (0 if never imported)."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.linalg":
            return int(parts[1]) / 1e3
    return 0.0


def cli_metrics():
    env = child_env()
    imp = ["-c", "import preserver_lab.cli"]
    return {
        "cli.interpreter_ms": (probe_ms(["-c", "pass"]), "ms"),
        "cli.import_ms": (probe_ms(imp, env), "ms"),
        "cli.import_scipy_ms": (probe_ms(["-X", "importtime", *imp], env, scipy_import_ms), "ms"),
    }


# -- environment -----------------------------------------------------------------

def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas():
    """BLAS name/version from numpy's build config and the thread count it runs with."""
    import ctypes
    import numpy

    info = {"name": None, "version": None, "threads": None}
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=dep.get("name"), version=dep.get("version"))
    except (KeyError, TypeError, AttributeError):
        pass
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment():
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "blas": _blas(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS") if k in os.environ},
    }


# -- one run ---------------------------------------------------------------------

def run_untraced(workload, ops, seed, seconds, work_dir):
    # Half the set-ups run before the timed loop and half after it, so the
    # median spans the run rather than one moment of a shared machine.
    setups = time_setups(workload, seed, SETUP_REPEATS // 2)
    if workload == "cli-cold":
        execute = cli_subprocess(work_dir)
    else:
        execute = in_process(lambda op: op.map_fn)
    records, elapsed = closed_loop(ops, execute, seconds, MIN_OPS)
    setups += time_setups(workload, seed, SETUP_REPEATS - len(setups))
    s = score(ops, records, {})
    if workload == "cli-cold":
        rss_kb = max(r.rss_kb for r in records)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return s, end_to_end(statistics.median(setups), records, elapsed, s, rss_kb), {}


def end_to_end(setup_s, records, elapsed, s: Score, rss_kb) -> dict:
    times = [r.seconds for r in records]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(records) / elapsed, "1/s"),
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms_p90": (p90(times) * 1e3, "ms"),
        "wrong_frac": (s.wrong_frac, "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def run_traced(ops, seconds):
    """One warm-up cycle, then untraced and traced cycles in turn for about ``seconds``.

    Alternating single cycles keeps a drift in machine speed out of
    trace.overhead_frac.  Every op runs in process (cli-cold calls
    ``cli.main``), so the spans cover the library; the cli.* numbers come
    from subprocess timings.
    """
    import tracing

    reference = {}
    plain = in_process(lambda op: op.map_fn)
    records, warm_s = closed_loop(ops, plain, cycles=1)
    s = score(ops, records, reference)

    tracer = tracing.Tracer()
    maps = {id(op): tracer.wrap(tracing.MAP_QUERY, op.map_fn) for op in ops if op.map_fn}
    traced = in_process(lambda op: maps.get(id(op)))
    untraced_s = traced_s = 0.0
    traced_ops = 0
    for _ in range(max(1, round(seconds / (2 * warm_s)))):
        records, elapsed = closed_loop(ops, plain, cycles=1)
        untraced_s += elapsed
        score(ops, records, reference, into=s)
        patches = tracer.install()
        try:
            records, elapsed = closed_loop(ops, traced, cycles=1)
        finally:
            tracer.uninstall(patches)
        traced_s += elapsed
        traced_ops += len(records)
        score(ops, records, reference, into=s)

    metrics = tracing.layer_metrics(tracer, traced_ops)
    metrics.update(cli_metrics())
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    return s, metrics, {"self_time_shares": tracing.self_time_shares(tracer)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append this run as one JSON line to OUT")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="print old, new and ratio for every metric in two --out files")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.compare:
        import compare
        compare.main(*args.compare)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    import_library()
    work_dir = WORK / str(os.getpid())
    try:
        ops = build(args.workload, args.seed, work_dir)
        if args.setup_only:
            return 0
        if args.trace:
            s, metrics, extra = run_traced(ops, args.seconds)
        else:
            s, metrics, extra = run_untraced(args.workload, ops, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "ops_per_cycle": len(ops),
            "wrong_ops": wrong_report(ops, s),
            "mismatched_ops": [ops[i].name for i in s.mismatched],
            **extra, "env": environment()}
    result = {"correct": is_correct(ops, s), "attempted": s.attempted,
              "failed": s.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(info))
    print(json.dumps(result))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**info, "result": result}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
