"""Stage times of one ``balance`` op, from its file's text to its printed text,
this checkout against another one.

    python3 tools/measure_intake.py OTHER_CHECKOUT

Takes the ``balance`` ops of the ``balance-large`` workload (seed 1) and
times, in-process and one stage at a time, what ``measure_balancer.cli``
does for each:

- ``parse_json``: ``util.parse_json`` of the file's text, returning the
  parse tree (where ``parse_json`` takes the tree's reader, the identity:
  the CLI runs ``read_numbers`` inside that call, under its pause of the
  cyclic GC, and this stage split runs it after, with the collector on);
- ``read_numbers``: ``util.read_numbers`` of the atoms' ``z`` pairs and of
  their weights;
- ``construct``: ``AtomicMeasure`` of those arrays (canonical rows and the
  atom merge);
- ``balance``: ``balance(nu, method=...)`` with the op's method;
- ``print``: ``cli._print_balance`` of the result, into a string buffer.

It also times the atom merge, ``measures._merge_atoms``, alone on the
generic clouds ``MERGE_CLOUDS``: m unit rows in C^(n+1) of a seeded complex
Gaussian, in canonical form, with equal weights.

Each of ``ROUNDS`` rounds runs one subprocess per checkout, the side that
goes first alternating from one round to the next, importing the package
from its ``src/`` with BLAS on one thread; a subprocess runs every stage of
every input ``REPEATS`` times.  A stage's time on one input is its minimum
over all of those runs.  Both sides read the same files, drawn by this
checkout's ``perfbench/inputs.py``.  Prints one JSON document: per side
the sum over the inputs of each stage's time, per input its times,
verdict and iterations on each side, and per cloud the merge's time on
each side and its kept atoms.  Exits 1 if any input's decoded numbers,
verdict, iterations or printed text, or any cloud's kept atoms, differ
between the sides, 0 if none does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD, SEED = "balance-large", 1
ROUNDS = 4
REPEATS = 3
STAGES = ("parse_json", "read_numbers", "construct", "balance", "print")
MERGE_CLOUDS = ((10**4, 1), (3 * 10**4, 1), (3 * 10**4, 10))  # (m, n)

# Run in a fresh interpreter: argv is (checkout, inputs file, out file, repeats, clouds).
_WORKER = """
import contextlib, hashlib, inspect, io, json, sys, time
checkout, in_path, out_path, repeats = sys.argv[1:5]
sys.path.insert(0, checkout + "/src")
# The package caps BLAS threads only if it is imported before numpy.
from measure_balancer import AtomicMeasure, balance
from measure_balancer.cli import _print_balance
from measure_balancer.geometry import canonical_rows
from measure_balancer.measures import _merge_atoms
from measure_balancer.util import parse_json, read_numbers
import numpy as np

def tree(text):
    if len(inspect.signature(parse_json).parameters) == 1:
        return parse_json(text)
    return parse_json(text, lambda data: data)

def timed(times, stage, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    times[stage] = min(times.get(stage, float("inf")), time.perf_counter() - t0)
    return out

def printed(res):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _print_balance(res)
    return buf.getvalue()

def balance_op(nu, method):
    return balance(nu, method=method)

def read_both(atoms, k):
    z = read_numbers([e["z"] for e in atoms], (len(atoms), k, 2), "atoms[{}].z")
    return z, read_numbers([e["w"] for e in atoms], (len(atoms),), "atoms[{}].w")

with open(in_path, encoding="utf-8") as fh:
    cases = json.load(fh)
rows = []
for case in cases:
    with open(case["file"], encoding="utf-8") as fh:
        text = fh.read()
    times = {}
    for _ in range(int(repeats)):
        data = timed(times, "parse_json", tree, text)
        z, w = timed(times, "read_numbers", read_both, data["atoms"], data["n"] + 1)
        nu = timed(times, "construct", AtomicMeasure, z.view(complex)[..., 0], w)
        res = timed(times, "balance", balance_op, nu, case["method"])
        out = timed(times, "print", printed, res)
    rows.append({
        "ms": {stage: round(1e3 * t, 3) for stage, t in times.items()},
        "numbers": hashlib.sha256(z.tobytes() + w.tobytes()).hexdigest(),
        "text": hashlib.sha256(out.encode()).hexdigest(),
        "verdict": res.verdict,
        "iterations": res.iterations,
    })
merges = []
for m, n in json.loads(sys.argv[5]):
    r = np.random.default_rng(0)
    z = canonical_rows(r.normal(size=(m, n + 1)) + 1j * r.normal(size=(m, n + 1)))
    times = {}
    for _ in range(int(repeats)):
        kept, _ = timed(times, "merge", _merge_atoms, z, np.full(m, 1.0 / m))
    merges.append({"ms": {"merge": round(1e3 * times["merge"], 3)}, "kept": len(kept)})
with open(out_path, "w", encoding="utf-8") as fh:
    json.dump({"inputs": rows, "merges": merges}, fh)
"""


def cases(work: str) -> list:
    """(file, method) of every ``balance`` op of the workload, its input written to ``work``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    wl = inputs.make_workload(WORKLOAD, SEED)
    found = []
    for op in wl.ops:
        path = os.path.join(work, op.argv[1])
        with open(path, "wb") as fh:
            fh.write(wl.files[op.argv[1]])
        found.append({"file": path, "method": op.argv[op.argv.index("--method") + 1]})
    return found


def run_checkout(checkout: Path, in_path: str, work: str) -> dict:
    """Run by the package in ``checkout``: one row (stage times, digests, verdict, iterations)
    per input under ``inputs``, and one (merge time, kept atoms) per cloud under ``merges``."""
    env = dict(os.environ, MEASURE_BALANCER_THREADS="1")
    out_path = os.path.join(work, "rows.json")
    argv = [str(checkout), in_path, out_path, str(REPEATS), json.dumps(MERGE_CLOUDS)]
    subprocess.run([sys.executable, "-c", _WORKER, *argv], env=env, check=True)
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def best_of(rounds: list) -> list:
    """Per row: each stage's least time over the rounds, with the first round's other fields."""
    rows = []
    for runs in zip(*rounds):
        row = dict(runs[0])
        row["ms"] = {stage: min(run["ms"][stage] for run in runs) for stage in runs[0]["ms"]}
        rows.append(row)
    return rows


def summary(this: dict, other: dict) -> dict:
    """Inputs, inputs and clouds whose output differs, and per side each stage's time
    summed over the inputs and the merge's time on each cloud."""
    same = ("numbers", "text", "verdict", "iterations")
    ops_differ = sum(any(a[f] != b[f] for f in same) for a, b in zip(this["inputs"], other["inputs"]))
    clouds_differ = sum(a["kept"] != b["kept"] for a, b in zip(this["merges"], other["merges"]))
    out = {"inputs": len(this["inputs"]), "outputs_differ": ops_differ + clouds_differ}
    for side, rows in (("this", this), ("other", other)):
        ms = {stage: round(sum(r["ms"][stage] for r in rows["inputs"]), 3) for stage in STAGES}
        out[f"{side}_ms"] = dict(ms, total=round(sum(ms.values()), 3))
        out[f"{side}_merge_ms"] = [r["ms"]["merge"] for r in rows["merges"]]
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "src" / "measure_balancer").is_dir():
        print("usage: measure_intake.py OTHER_CHECKOUT (a checkout with src/measure_balancer)", file=sys.stderr)
        return 2
    sides = {"this": ROOT, "other": Path(args[0]).resolve()}
    rounds = {name: [] for name in sides}
    with tempfile.TemporaryDirectory() as work:
        found = cases(work)
        in_path = os.path.join(work, "cases.json")
        with open(in_path, "w", encoding="utf-8") as fh:
            json.dump(found, fh)
        for rnd in range(ROUNDS):
            order = list(sides) if rnd % 2 else list(sides)[::-1]  # round 0: other first
            for name in order:
                rounds[name].append(run_checkout(sides[name], in_path, work))
    this, other = (
        {part: best_of([r[part] for r in rounds[name]]) for part in ("inputs", "merges")} for name in sides
    )
    report = {"workload": WORKLOAD, "seed": SEED, "rounds": ROUNDS, "repeats": REPEATS}
    report["summary"] = summary(this, other)
    report["inputs"] = [
        {"file": os.path.basename(case["file"]), "method": case["method"], "this": a, "other": b}
        for case, a, b in zip(found, this["inputs"], other["inputs"])
    ]
    report["merges"] = [
        {"m": m, "n": n, "this": a, "other": b}
        for (m, n), a, b in zip(MERGE_CLOUDS, this["merges"], other["merges"])
    ]
    print(json.dumps(report, indent=1))
    return 1 if report["summary"]["outputs_differ"] else 0


if __name__ == "__main__":
    sys.exit(main())
