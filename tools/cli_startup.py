"""Fixed start-up costs of the CLI, this checkout against another one.

    python3 tools/cli_startup.py OTHER_CHECKOUT

Each repeat runs both checkouts, the side that goes first alternating from
one repeat to the next, in fresh interpreters with BLAS on one thread:

- ``import``: a process that imports ``measure_balancer.cli`` and exits.
  Its wall time is taken around the whole process, as ``perfbench/run.py``
  takes its set-up import, and its ``ru_maxrss`` is reported by the process
  itself;
- one-shot ``python -m measure_balancer.cli`` calls, one per op kind of the
  ``solve-mix`` workload (seed 1, the smallest input of each kind, the op
  that ``perfbench/run.py`` warms up on), timed around the process, with
  their exit codes.

Prints one JSON document: per checkout, the values of every repeat and
their median.  Both sides read the inputs drawn by this checkout's
``perfbench/inputs.py``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 10
WORKLOAD, SEED = "solve-mix", 1
_IMPORT = (
    "import resource, sys; sys.path.insert(0, sys.argv[1]); import measure_balancer.cli; "
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
)


def one_shot_ops(work: str) -> dict:
    """The smallest op of each kind of the workload, its input written to ``work``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    wl = inputs.make_workload(WORKLOAD, SEED)
    smallest = {}
    for op in wl.ops:
        size = len(wl.files[op.argv[1]])
        if op.kind not in smallest or size < smallest[op.kind][0]:
            smallest[op.kind] = (size, op)
    for fname, data in wl.files.items():
        (Path(work) / fname).write_bytes(data)
    return {kind: op.argv for kind, (_, op) in sorted(smallest.items())}


def timed(argv: list, env: dict, cwd: str):
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True)
    return time.perf_counter() - t0, proc


def measure(checkout: Path, ops: dict, work: str) -> dict:
    """One repeat on one checkout: import wall and ru_maxrss, one-shot walls and exit codes."""
    src = str(checkout / "src")
    env = dict(os.environ, MEASURE_BALANCER_THREADS="1", PYTHONPATH=src)
    wall, proc = timed([sys.executable, "-c", _IMPORT, src], env, work)
    proc.check_returncode()
    row = {"import_s": wall, "import_maxrss_mb": int(proc.stdout) / 1024.0}
    for kind, argv in ops.items():
        wall, proc = timed([sys.executable, "-m", "measure_balancer.cli", *argv], env, work)
        row[f"{kind}_s"] = wall
        row[f"{kind}_exit"] = proc.returncode
    return row


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "src" / "measure_balancer").is_dir():
        print("usage: cli_startup.py OTHER_CHECKOUT (a checkout with src/measure_balancer)", file=sys.stderr)
        return 2
    sides = {"this": ROOT, "other": Path(args[0]).resolve()}
    rows = {name: [] for name in sides}
    with tempfile.TemporaryDirectory() as work:
        ops = one_shot_ops(work)
        for rep in range(REPEATS):
            order = list(sides) if rep % 2 else list(sides)[::-1]  # repeat 0: other first
            for name in order:
                rows[name].append(measure(sides[name], ops, work))
    report = {"repeats": REPEATS, "workload": WORKLOAD, "seed": SEED, "argv": ops}
    for name, path in sides.items():
        keys = rows[name][0].keys()
        report[name] = {
            "checkout": str(path),
            "values": {k: [row[k] for row in rows[name]] for k in keys},
            "median": {k: statistics.median(row[k] for row in rows[name]) for k in keys},
        }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
