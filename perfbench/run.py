"""Benchmark of the measure-balancer CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload classify-small --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout and driven in-process
through ``measure_balancer.cli.main(argv)`` with stdout captured, so the
numpy/scipy import is paid once, in set-up.  BLAS runs on one thread
(``MEASURE_BALANCER_THREADS=1``): a second BLAS thread on a small shared
host measures the scheduler more than the program.  The load is a closed
loop: one client, each op sent when the previous one has returned.  Ops
come from a fixed schedule of blocks (see ``inputs.py``) and a run times
whole blocks, so every run sees the same mix.  Every op's exit code and
output is checked against the answer known by construction
(``checker.py``).  Ops of the seed's list that the timed loop did not reach
run after it, untimed, so ``attempted`` is always the whole list and
``failed`` the ops of it that fail: both depend on the seed alone, not on
how fast the host ran.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
for half the time (per-subcommand medians), then the first
``trace_blocks`` blocks again under the tracer (``tracer.py``) and prints
the per-layer metrics.  The last stdout line is the result as JSON; the
full record (environment, input properties, every failure with its op id
and reason) goes to ``.perfbench/results/`` and the spans to
``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_REPEATS = 3
BLAS_THREADS = "1"
CLI_KINDS = ("classify", "decompose", "balance", "balance_target", "torus", "sphere_balance", "weight")
# spans reported as <name>.calls and <name>.self_ms, or .self_ms only
CALL_SPANS = (
    "measures.from_json",
    "measures.AtomicMeasure",
    "measures.pushforward",
    "geometry.ProjectivePoint",
    "geometry.herm_exp",
    "stability.classify",
    "stability.candidate_subspaces",
    "stability.polystable_decompose",
    "weights.maximal_weight",
    "weights.lambda_via_flow",
    "balancing.solve_target",
    "balancing.torus_solve",
    "balancing.linprog",
    "sphere.hersch_balance",
)
SELF_ONLY_SPANS = ("cli", "util.canonical_json", "sphere.to_projective")
COUNTS = (
    "measures.atoms_in",
    "measures.atoms_merged",
    "stability.candidates",
    "stability.svd_calls",
    "balancing.fixed_point.iterations",
    "balancing.descent.iterations",
    "balancing.solve_target.iterations",
    "balancing.torus_solve.iterations",
    "balancing.diverged",
    "balancing.max_iterations",
)
PER_ITER_SPANS = ("balancing.fixed_point", "balancing.descent", "balancing.solve_target")


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"cli.{kind}.p50_ms": "ms" for kind in CLI_KINDS}
    for name in CALL_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    for name in SELF_ONLY_SPANS:
        units[f"{name}.self_ms"] = "ms"
    units.update({name: "count" for name in COUNTS})
    units.update({f"{name}.ms_per_iter": "ms" for name in PER_ITER_SPANS})
    units["trace_overhead_ratio"] = "ratio"
    return units


class Record:
    __slots__ = ("op", "code", "out", "err", "seconds")

    def __init__(self, op, code, out, err, seconds):
        self.op, self.code, self.out, self.err, self.seconds = op, code, out, err, seconds


def call(main, op) -> Record:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(op.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a wrong answer, not the end of the run
        code = None
        err.write(f"{type(exc).__name__}: {exc}\n")
    return Record(op, code, out.getvalue(), err.getvalue(), time.perf_counter() - t0)


def closed_loop(main, ops, block, seconds, min_blocks=1):
    """Send ops in order (wrapping) until ``seconds`` pass at a block boundary."""
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        records.append(call(main, ops[i % len(ops)]))
        i += 1
        if i % block == 0 and i >= min_blocks * block and time.perf_counter() - start >= seconds:
            return records, time.perf_counter() - start


def run_rest(main, ops, records):
    """Run, untimed, the ops of the list that ``records`` does not hold."""
    done = {rec.op.op_id for rec in records}
    return [call(main, op) for op in ops if op.op_id not in done]


def import_seconds(src) -> float:
    """Wall time of a fresh interpreter that starts and imports the CLI."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import measure_balancer.cli", str(src)],
        check=True,
    )
    return time.perf_counter() - t0


def set_up(inputs, cli_main, workload, seed, workdir):
    """Generate and write the inputs, then warm up on the smallest of each kind.

    Leaves the process in ``workdir``, where the ops find their input files.
    """
    wl = inputs.make_workload(workload, seed)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for fname, data in wl.files.items():
        (workdir / fname).write_bytes(data)
    os.chdir(workdir)
    smallest = {}
    for op in wl.ops:
        size = len(wl.files[op.argv[1]])
        if op.kind not in smallest or size < smallest[op.kind][0]:
            smallest[op.kind] = (size, op)
    for _, op in smallest.values():
        call(cli_main, op)
    return wl


def check_all(checker, records):
    """Check every record; identical repeats of an op are checked once.

    Returns the tally of states over records, the failures (one entry per op
    and reason) and the ids of the ops that failed at least once.
    """
    seen = {}
    states = []
    for rec in records:
        key = (rec.op.op_id, rec.code, rec.out, rec.err)
        if key not in seen:
            seen[key] = checker.check(rec.op, rec.code, rec.out, rec.err)
        states.append(seen[key])
    failures = {}
    for rec, (state, reason) in zip(records, states):
        if state != "ok":
            entry = failures.setdefault(
                (rec.op.op_id, reason),
                {"op_id": rec.op.op_id, "kind": rec.op.kind, "state": state, "reason": reason, "times": 0},
            )
            entry["times"] += 1
    tally = {}
    for state, _ in states:
        tally[state] = tally.get(state, 0) + 1
    failed_ops = {f["op_id"] for f in failures.values()}
    return tally, sorted(failures.values(), key=lambda f: f["op_id"]), failed_ops


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MEASURE_BALANCER_THREADS")
            if k in os.environ
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _blas_threads(np):
    """OpenBLAS's own thread count, or None where it cannot be asked."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def quantile(values, q):
    """Inclusive quantile q in (0, 1) of at least two values."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def end_to_end(records, wall, setup_s, error_rate):
    lat = [r.seconds for r in records]
    return {
        "ops_per_s": (len(records) / wall, "ops/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "success_rate": (1.0 - error_rate, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, untraced, traced_wall, untraced_wall):
    by_kind = {}
    for rec in untraced:
        by_kind.setdefault(rec.op.kind, []).append(rec.seconds)
    values = {f"cli.{k}.p50_ms": statistics.median(by_kind[k]) * 1e3 if k in by_kind else 0.0 for k in CLI_KINDS}
    calls = tracer.calls
    for name in CALL_SPANS + SELF_ONLY_SPANS:
        n, self_s, _ = calls.get(name, (0, 0.0, 0.0))
        if name in CALL_SPANS:
            values[f"{name}.calls"] = n
        values[f"{name}.self_ms"] = self_s * 1e3
    for name in COUNTS:
        values[name] = tracer.counts.get(name, 0)
    for name in PER_ITER_SPANS:
        iters = tracer.counts.get(f"{name}.iterations", 0)
        values[f"{name}.ms_per_iter"] = calls[name][1] * 1e3 / iters if iters else 0.0
    values["trace_overhead_ratio"] = traced_wall / untraced_wall
    units = per_layer_units()
    return {name: (values[name], unit) for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("classify-small", "balance-large", "solve-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ["MEASURE_BALANCER_THREADS"] = BLAS_THREADS
    root = Path.cwd()
    src = root / "src"
    if not (src / "measure_balancer" / "cli.py").is_file():
        print(f"perfbench: no package at {src / 'measure_balancer'}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from measure_balancer import cli

    if Path(cli.__file__).resolve().parent != (src / "measure_balancer").resolve():
        print(f"perfbench: imported {cli.__file__}, not the checkout's package", file=sys.stderr)
        return 2

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import checker
    import inputs
    import tracer as tracing

    state = root / ".perfbench"
    workdir = state / f"work-{os.getpid()}"
    try:
        imports, reps = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(import_seconds(src))
            t0 = time.perf_counter()
            os.chdir(root)
            wl = set_up(inputs, cli.main, args.workload, args.seed, workdir)
            reps.append(time.perf_counter() - t0)
        setup_s = statistics.median(imports) + statistics.median(reps)

        if args.trace == 0:
            records, wall = closed_loop(cli.main, wl.ops, wl.block, args.seconds)
            traced = []
        else:
            records, _ = closed_loop(cli.main, wl.ops, wl.block, args.seconds / 2, wl.trace_blocks)
            count = wl.block * wl.trace_blocks
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = [call(functools.partial(tracer.run_op, op.op_id, cli.main), op) for op in wl.ops[:count]]
            finally:
                tracer.uninstall()
        rest = run_rest(cli.main, wl.ops, records + traced)
    finally:
        os.chdir(root)
        shutil.rmtree(workdir, ignore_errors=True)

    everything = records + traced + rest
    tally, failures, failed_ops = check_all(checker, everything)
    attempted, failed = len(wl.ops), len(failed_ops)
    lat = [r.seconds for r in records]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client",
        "environment": environment(),
        "input_properties": wl.properties,
        "block_ops": wl.block,
        "untraced_ops": len(records),
        "untimed_ops": len(rest),
        "block_walls_s": [
            sum(r.seconds for r in records[i : i + wl.block]) for i in range(0, len(records), wl.block)
        ],
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": quantile(lat, 0.9) * 1e3 if len(lat) >= 100 else None,
        "error_rate": failed / attempted,
        "states": tally,
        "failures": failures,
        "setup_import_s": imports,
        "setup_inputs_s": reps,
    }
    if args.trace == 0:
        metrics = end_to_end(records, wall, setup_s, failed / attempted)
    else:
        spans = state / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans)
        report["spans_file"] = str(spans.relative_to(root))
        untraced_wall = sum(r.seconds for r in records[: len(traced)])
        metrics = per_layer(tracer, records, sum(r.seconds for r in traced), untraced_wall)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out = state / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(
        f"perfbench: {args.workload} seed {args.seed}: {len(everything)} calls of {attempted} ops, "
        f"{failed} ops failed; "
        f"details in {out.relative_to(root)}"
    )
    result = {
        "correct": tally.get("wrong", 0) == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
