"""Compare the CLI output of this checkout with that of another one.

    python3 tools/cli_diff.py OTHER_CHECKOUT

Runs every op of the ``classify-small``, ``balance-large`` and ``solve-mix``
benchmark workloads, seeds 1 and 2, through ``measure_balancer.cli.main`` of each
checkout: one subprocess per checkout, importing the package from its
``src/``, with BLAS on one thread.  Both sides get the same inputs, drawn
by this checkout's ``perfbench/inputs.py``, and every ``balance`` op also
writes its ``--trace`` CSV.  Prints the op, its kind and the first
differing line of each op whose exit code, stdout, stderr or trace differ,
followed by the largest absolute difference when the two outputs
differ only in their numbers.  Ends with one line per op kind: its
differing ops over its total, and the largest of those differences.  Exits
1 if any op differs, 0 if none does.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = tuple((name, seed) for name in ("classify-small", "balance-large", "solve-mix") for seed in (1, 2))
_FIELDS = {"code": "exit", "out": "stdout", "err": "stderr", "trace": "trace"}
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
        with contextlib.suppress(FileNotFoundError):
            os.remove("trace.csv")
        argv = op.argv + ["--trace", "trace.csv"] if op.argv[0] == "balance" else op.argv
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = None
            err.write(f"{type(exc).__name__}: {exc}\\n")
        trace = open("trace.csv", encoding="utf-8").read() if os.path.exists("trace.csv") else ""
        records.append({"op": f"{name}/{seed}/{op.op_id}", "kind": op.kind, "code": code,
                        "out": out.getvalue(), "err": err.getvalue(), "trace": trace})
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


def _number_difference(ours: str, theirs: str):
    """Largest absolute difference of the numbers of two texts that differ only in them, else None."""
    if NUMBER.split(ours) != NUMBER.split(theirs):
        return None
    return max(abs(float(u) - float(v)) for u, v in zip(NUMBER.findall(ours), NUMBER.findall(theirs)))


def _compare(ours: list, theirs: list) -> list:
    """(op, kind, first differing line, numeric difference or None) per differing op.

    The fields are compared in the order exit code, stdout, stderr, trace; a
    record without a trace reads as an empty one.
    """
    other = {rec["op"]: rec for rec in theirs}
    found = []
    for rec in ours:
        match = other.pop(rec["op"], None)
        if match is None:
            found.append((rec["op"], rec["kind"], "missing in the other checkout", None))
            continue
        field = next((f for f in _FIELDS if rec.get(f, "") != match.get(f, "")), None)
        if field == "code":
            found.append((rec["op"], rec["kind"], f"exit {rec['code']} | {match['code']}", None))
        elif field is not None:
            ours_text, theirs_text = rec.get(field, ""), match.get(field, "")
            a, b = ours_text.splitlines(), theirs_text.splitlines()
            i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            x = a[i] if i < len(a) else "<end>"
            y = b[i] if i < len(b) else "<end>"
            line = f"{_FIELDS[field]} line {i + 1}: {x} | {y}"
            largest = _number_difference(ours_text, theirs_text)
            if largest is not None:
                line += f" (numbers only, largest difference {largest:.2g})"
            found.append((rec["op"], rec["kind"], line, largest))
    found.extend((op, rec["kind"], "missing in this checkout", None) for op, rec in other.items())
    return found


def differences(ours: list, theirs: list) -> list:
    """(op, kind, first differing line) for each op whose records differ.

    Records are matched by op; an op that only one side ran differs too.
    """
    return [entry[:3] for entry in _compare(ours, theirs)]


def kind_summary(ours: list, theirs: list) -> list:
    """Per op kind, sorted: its differing ops over its total and the largest numeric difference."""
    totals = Counter({rec["op"]: rec["kind"] for rec in theirs + ours}.values())
    differing, largest = Counter(), {}
    for _, kind, _, number in _compare(ours, theirs):
        differing[kind] += 1
        if number is not None:
            largest[kind] = max(largest.get(kind, 0.0), number)
    lines = []
    for kind in sorted(totals):
        line = f"{kind}: {differing[kind]} of {totals[kind]} ops differ"
        if kind in largest:
            line += f", largest numeric difference {largest[kind]:.2g}"
        lines.append(line)
    return lines


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
    for line in kind_summary(ours, theirs):
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
