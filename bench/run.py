"""gradjump benchmark: one workload per run, every metric by name and unit.

Run from the repository root:

    python3 bench/run.py --workload sweep-2d --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``sweep-2d`` and ``sweep-3d`` (criterion-1
``sweep-h`` runs), ``scan-3d`` (``check`` on a 3-D pair, all rank-one scan)
and ``cli-exact`` (a loop over the cheap exact commands).  Each operation is
an in-process ``gradjump.cli.main`` call on a pinned config, and every
output is checked against hand-derived references; a rerun with the same
seed must write byte-identical output.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, taken from
spans around the public functions of each gradjump module (see
``tracing.py``), plus the tracing overhead and the import-time breakdown.
Spans are written to ``bench/.out/<workload>/spans.jsonl``; the machine
record and progress go to stderr.  The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# BLAS/OpenMP thread caps, set before numpy loads here or in a child process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import startup  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / ".out"

END_TO_END = {
    "setup_s": "s", "run_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "quadrature.evals": "count",
    "quadrature.energy_increment.calls": "count",
    "quadrature.energy_increment.s": "s",
    "quadrature.energy_increment.self_s": "s",
    "quadrature.ns_per_eval": "ns",
    "quadrature.limit_sweep.self_s": "s",
    "quadrature.sobol.points": "count",
    "quadrature.sobol.s": "s",
    "quadrature.err_sqrt_evals": "1",
    "quadrature.time_to_tol_s": "s",
    "interchange.scalar_gradient.points": "count",
    "interchange.scalar_gradient.s": "s",
    "interchange.scalar_gradient.ns_per_point": "ns",
    "interchange.classify_codes.points": "count",
    "interchange.classify_codes.s": "s",
    "interchange.classify_codes.ns_per_point": "ns",
    "energies.value_many.points": "count",
    "energies.value_many.s": "s",
    "energies.value_many.ns_per_point": "ns",
    "energies.value_many.in_bytes": "B",
    "energies.value.calls": "count",
    "energies.gradient.calls": "count",
    "jumps.weierstrass_scan.calls": "count",
    "jumps.weierstrass_scan.increments": "count",
    "jumps.weierstrass_scan.self_s": "s",
    "jumps.weierstrass_scan.ns_per_increment": "ns",
    "envelopes.calls": "count",
    "envelopes.s": "s",
    "config.parse_s": "s",
    "cli.self_s": "s",
    **{f"setup.import.{m}_s": "s" for m in startup.IMPORT_MODULES},
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "fail_ratio": "1",
}

#: per-point costs on sweep-2d at the ROADMAP re-anchor (ns, 2-core x86_64 machine)
ROADMAP_BASELINE_NS = {
    "end to end (run_s / evals)": 650,
    "kinematics (scalar_gradient)": 229,
    "value_many": 91,
    "classify_codes": 52,
    "Sobol draw (per point)": 8,
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
    }


class Runner:
    """Runs a workload's operations, times them and checks every output."""

    def __init__(self, workload: workloads.Workload, out: Path, seed: int):
        self.workload = workload
        self.out = out
        self.rng = random.Random(seed)
        self.digests = {}  # (op, seed) -> digest of everything the op wrote
        self.summary = None  # parsed stdout of the last op
        self.op_s = []
        self.attempted = 0
        self.failed = 0

    def run_pass(self, seed: int, tracer: tracing.Tracer | None = None) -> float:
        """One pass over the workload's ops; returns the seconds spent in them."""
        return sum(self.run_op(op, seed, tracer) for op in self.workload.pass_ops(self.rng))

    def run_op(self, op: workloads.Op, seed: int, tracer) -> float:
        from gradjump import cli

        op_out = self.out / op.command
        shutil.rmtree(op_out, ignore_errors=True)  # so stale artifacts cannot pass
        argv = op.argv(seed, op_out)
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = self.attempted
        self.attempted += 1
        problems = []
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an escaping exception is a failed operation
            code = None
            problems.append("exception escaped:\n" + traceback.format_exc())
        elapsed = time.perf_counter() - start
        self.op_s.append(elapsed)
        if not problems:
            problems = self.check(op, seed, code, stdout.getvalue(), stderr.getvalue(), op_out)
        if problems:
            self.failed += 1
            log(f"FAIL {op.command} seed={seed}: " + "; ".join(problems)[:2000])
        return elapsed

    def check(self, op, seed, code, stdout, stderr, op_out) -> list:
        if code != op.expected_exit:
            return [f"exit {code}, expected {op.expected_exit}; stderr {stderr.strip()[:300]}"]
        try:
            summary = json.loads(stdout)
            problems = op.check(summary, op_out, self.workload.refs)
        except (ValueError, KeyError, TypeError, OSError, IndexError) as exc:
            return [f"malformed output: {exc!r}"]
        self.summary = summary
        digest = hashlib.sha256(stdout.encode())
        if op_out.is_dir():
            for path in sorted(op_out.iterdir()):
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
        previous = self.digests.setdefault((op.command, seed), digest.hexdigest())
        if previous != digest.hexdigest():
            problems.append("a rerun with the same seed wrote different output")
        return problems


def measure(runner: Runner, seconds: float, min_passes: int, plan) -> list:
    """Run passes until ``seconds`` have passed and at least ``min_passes``
    ran.  ``plan(i)`` gives (seed, tracer) for pass i; returns (tracer, seconds)
    per pass."""
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < min_passes or time.perf_counter() < deadline:
        seed, tracer = plan(len(times))
        if tracer is None:
            times.append((None, runner.run_pass(seed)))
            continue
        tracer.install()
        try:
            times.append((tracer, runner.run_pass(seed, tracer)))
        finally:
            tracer.uninstall()
    return times


def end_to_end(runner: Runner, seed: int, seconds: float, setup_s: float) -> dict:
    # at least two passes, so the byte-identity check of a rerun always runs
    passes = measure(runner, seconds, 2, lambda i: (seed, None))
    # the host's speed drifts by up to +-20% over seconds; the mean over the
    # run averages those phases, where the median jumps between them
    run_s = statistics.fmean(t for _, t in passes)
    op_ms = [1e3 * t for t in runner.op_s]
    p90 = statistics.quantiles(op_ms, n=10, method="inclusive")[8]
    log(f"{len(passes)} passes (s: {', '.join(f'{t:.3f}' for _, t in passes[:20])}), "
        f"{len(op_ms)} ops; op_ms_p90 has {sum(t > p90 for t in op_ms)} beyond it")
    values = {
        "setup_s": setup_s,
        "run_s": run_s,
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(runner: Runner, seed: int, seconds: float, import_s: dict) -> dict:
    tracer = tracing.Tracer()
    passes = measure(runner, seconds, 2, lambda i: (seed, tracer if i % 2 else None))
    traced = [t for tr, t in passes if tr is not None]
    untraced = [t for tr, t in passes if tr is None]
    n = len(traced)
    tracer.write(runner.out / "spans.jsonl")
    totals = tracer.layer_totals()
    by_name, by_layer = totals["by_name"], totals["by_layer"]

    def get(name, key):
        return by_name.get(name, {}).get(key, 0) / n

    def ns_per(name, key):
        count = get(name, key)
        return 1e9 * get(name, "s") / count if count else 0.0

    evals = get("quadrature.energy_increment", "evals")
    tol = runner.workload.tol
    # sweeps only.  time_to_tol_s = run_s (limit_error / tol)^2: the error falls
    # as 1/sqrt(evals), so this is the time to a limit error of ``tol``
    limit_error = runner.summary["limit_error"] if tol and runner.summary else 0.0
    values = {
        "quadrature.evals": evals,
        "quadrature.energy_increment.calls": get("quadrature.energy_increment", "calls"),
        "quadrature.energy_increment.s": get("quadrature.energy_increment", "s"),
        "quadrature.energy_increment.self_s": get("quadrature.energy_increment", "self_s"),
        "quadrature.ns_per_eval": ns_per("quadrature.energy_increment", "evals"),
        "quadrature.limit_sweep.self_s": get("quadrature.limit_sweep", "self_s"),
        "quadrature.sobol.points": get("quadrature.sobol", "points"),
        "quadrature.sobol.s": get("quadrature.sobol", "s"),
        "quadrature.err_sqrt_evals": limit_error * math.sqrt(evals),
        "quadrature.time_to_tol_s": statistics.fmean(untraced) * (limit_error / tol) ** 2
        if tol else 0.0,
        "energies.value.calls": get("energies.value", "calls"),
        "energies.gradient.calls": get("energies.gradient", "calls"),
        "energies.value_many.in_bytes": get("energies.value_many", "in_bytes"),
        "jumps.weierstrass_scan.calls": get("jumps.weierstrass_scan", "calls"),
        "jumps.weierstrass_scan.increments": get("jumps.weierstrass_scan", "increments"),
        "jumps.weierstrass_scan.self_s": get("jumps.weierstrass_scan", "self_s"),
        "jumps.weierstrass_scan.ns_per_increment": ns_per("jumps.weierstrass_scan", "increments"),
        "envelopes.calls": sum(t["calls"] for k, t in by_name.items()
                               if k.startswith("envelopes.")) / n,
        "envelopes.s": by_layer.get("envelopes", 0.0) / n,
        "config.parse_s": by_layer.get("config", 0.0) / n,
        "cli.self_s": get("cli.main", "self_s"),
        "trace.overhead_s": statistics.fmean(traced) - statistics.fmean(untraced),
        "trace.spans": len(tracer.spans) / n,
        "fail_ratio": runner.failed / runner.attempted,
    }
    for name in ("interchange.scalar_gradient", "interchange.classify_codes",
                 "energies.value_many"):
        values[f"{name}.points"] = get(name, "points")
        values[f"{name}.s"] = get(name, "s")
        values[f"{name}.ns_per_point"] = ns_per(name, "points")
    for module, s in import_s.items():
        values[f"setup.import.{module}_s"] = s
    log(f"{len(untraced)} untraced and {n} traced passes; "
        f"tracing overhead {values['trace.overhead_s']:+.4f} s per pass")
    if runner.workload.name == "sweep-2d":
        report_baseline(values, statistics.fmean(untraced))
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}


def report_baseline(values: dict, run_s: float):
    evals = values["quadrature.evals"]
    measured = {
        "end to end (run_s / evals)": 1e9 * run_s / evals,
        "kinematics (scalar_gradient)": values["interchange.scalar_gradient.ns_per_point"],
        "value_many": values["energies.value_many.ns_per_point"],
        "classify_codes": values["interchange.classify_codes.ns_per_point"],
        "Sobol draw (per point)": 1e9 * values["quadrature.sobol.s"]
        / max(values["quadrature.sobol.points"], 1),
    }
    log("sweep-2d cost per point, traced, next to the ROADMAP re-anchor baseline:")
    log(f"  {'layer':32s} {'measured ns':>12s} {'baseline ns':>12s}")
    for key, base in ROADMAP_BASELINE_NS.items():
        log(f"  {key:32s} {measured[key]:12.1f} {base:12d}")


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return the result object."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    env = child_env()
    log("machine:", json.dumps(machine_record()))
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    repeats = 1 if tiny else 5
    setup_s = None if trace else startup.setup_seconds(ROOT, env, repeats)

    import gradjump.cli

    if Path(gradjump.cli.__file__).resolve().parent != SRC / "gradjump":
        raise RuntimeError(f"gradjump imported from {gradjump.cli.__file__}, not {SRC}")
    workload = workloads.build(name)
    if tiny:
        workloads.shrink(workload, out)
    runner = Runner(workload, out, seed)
    if trace:
        import_s = startup.import_seconds(ROOT, env, repeats)
        metrics = per_layer(runner, seed, seconds, import_s)
    else:
        metrics = end_to_end(runner, seed, seconds, setup_s)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gradjump" / "cli.py").is_file():
        log(f"error: no gradjump sources under {SRC}")
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
