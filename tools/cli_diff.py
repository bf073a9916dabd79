"""Compare the CLI output of this checkout with that of another one.

    python3 tools/cli_diff.py OTHER_CHECKOUT

Runs every op of the ``balance-large`` and ``solve-mix`` benchmark
workloads, seeds 1 and 2, through ``measure_balancer.cli.main`` of each
checkout: one subprocess per checkout, importing the package from its
``src/``, with BLAS on one thread.  Both sides get the same inputs, drawn
by this checkout's ``perfbench/inputs.py``.  Prints the op, its kind and
the first differing line of each op whose exit code, stdout or stderr
differ, followed by the largest absolute difference when the two outputs
differ only in their numbers, and exits 1 if any op differs, 0 if none
does.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = (("balance-large", 1), ("balance-large", 2), ("solve-mix", 1), ("solve-mix", 2))
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

# Run in a fresh interpreter: argv is (checkout, perfbench dir, work dir, out file).
_WORKER = """
import contextlib, io, json, os, sys
checkout, bench, work, out_path = sys.argv[1:5]
sys.path.insert(0, os.path.join(checkout, "src"))
sys.path.insert(0, bench)
from measure_balancer import cli
import inputs
records = []
for name, seed in json.loads(sys.argv[5]):
    wl = inputs.make_workload(name, seed)
    for fname, data in wl.files.items():
        with open(os.path.join(work, fname), "wb") as fh:
            fh.write(data)
    os.chdir(work)
    for op in wl.ops:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = None
            err.write(f"{type(exc).__name__}: {exc}\\n")
        records.append({"op": f"{name}/{seed}/{op.op_id}", "kind": op.kind,
                        "code": code, "out": out.getvalue(), "err": err.getvalue()})
with open(out_path, "w", encoding="utf-8") as fh:
    json.dump(records, fh)
"""


def run_checkout(checkout: Path) -> list:
    """The records of every op of RUNS, run by the package in ``checkout``."""
    env = dict(os.environ, MEASURE_BALANCER_THREADS="1")
    with tempfile.TemporaryDirectory() as work:
        out_path = os.path.join(work, "records.json")
        argv = [str(checkout), str(ROOT / "perfbench"), work, out_path, json.dumps(RUNS)]
        subprocess.run([sys.executable, "-c", _WORKER, *argv], env=env, check=True)
        with open(out_path, encoding="utf-8") as fh:
            return json.load(fh)


def _first_difference(field: str, ours, theirs) -> str:
    if field == "code":
        return f"exit {ours} | {theirs}"
    a, b = ours.splitlines(), theirs.splitlines()
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    x = a[i] if i < len(a) else "<end>"
    y = b[i] if i < len(b) else "<end>"
    line = f"{'stdout' if field == 'out' else 'stderr'} line {i + 1}: {x} | {y}"
    if NUMBER.split(ours) != NUMBER.split(theirs):
        return line
    pairs = zip(NUMBER.findall(ours), NUMBER.findall(theirs))
    largest = max(abs(float(u) - float(v)) for u, v in pairs)
    return f"{line} (numbers only, largest difference {largest:.2g})"


def differences(ours: list, theirs: list) -> list:
    """(op, kind, first differing line) for each op whose records differ.

    Records are matched by op; an op that only one side ran differs too.
    """
    other = {rec["op"]: rec for rec in theirs}
    found = []
    for rec in ours:
        match = other.pop(rec["op"], None)
        if match is None:
            found.append((rec["op"], rec["kind"], "missing in the other checkout"))
            continue
        for field in ("code", "out", "err"):
            if rec[field] != match[field]:
                found.append((rec["op"], rec["kind"], _first_difference(field, rec[field], match[field])))
                break
    found.extend((op, rec["kind"], "missing in this checkout") for op, rec in other.items())
    return found


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "src" / "measure_balancer").is_dir():
        print("usage: cli_diff.py OTHER_CHECKOUT (a checkout with src/measure_balancer)", file=sys.stderr)
        return 2
    ours, theirs = run_checkout(ROOT), run_checkout(Path(args[0]).resolve())
    found = differences(ours, theirs)
    for op, kind, line in found:
        print(f"{op} {kind}: {line}")
    print(f"{len(found)} of {len(ours)} ops differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
