"""Balancing iterations and verdicts, this checkout against another one.

    python3 tools/descent_iters.py OTHER_CHECKOUT

Runs ``balance(nu, method=...)`` of each checkout on:

- every ``balance`` op without ``--target`` of the ``balance-large``
  workload (seed 1) and of the ``solve-mix`` workload (seeds 1, 2 and 17),
  with the op's own method;
- every ``balance --target`` op of those ``solve-mix`` runs, as
  ``balance(nu, target_rho=rho)`` with rho read from the op's target file
  (the group ``solve-mix/target``);
- the planted-unstable sweep and the stable sweep of ``tests/helpers.py``
  (``PLANTED_SWEEP``, ``STABLE_SWEEP``), with both methods;
- for i < ``SWEEP_END``, with n = 1 + i % 3 and m = 2 + (i // 3) % 6 and
  both methods: the near-hyperplane clouds
  ``near_hyperplane_cloud(r, n, 10.0 ** r.uniform(-9, -6))``, r = rng(i),
  of the i with i % 4 == 3, the near-cutoff clouds
  ``near_cutoff_cloud(i)`` (the same clouds with eps = 10 ** r.uniform(-10.3,
  -8.5), around the rank cutoff) of the i with i % 4 == 1, and the
  Gaussian-integer measures ``gaussian_integer_measure(rng(i), n, m)`` of the
  i with i % 4 == 0.  The clouds need a balancing g with cond(g) of order
  1/eps (cond(g* g) of order eps^-2), and the exact coincidences of the
  Gaussian-integer atoms make boundary cases common; the other groups have
  few of either.

One subprocess per checkout imports the package from its ``src/``, with
BLAS on one thread.  Both sides read the same measure documents, drawn by
this checkout's ``perfbench/inputs.py`` and ``tests/helpers.py``.  Each input
is run ``REPEATS`` times; its wall time is the minimum.  Prints one JSON
document: per input and method its iterations, verdict and milliseconds on
each side, and per group and method the sums.  Exits 1 if a verdict
differs, 0 if none does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = (("balance-large", 1), ("solve-mix", 1), ("solve-mix", 2), ("solve-mix", 17))
REPEATS = 3
SWEEP_END = 1000
METHODS = ("fixed-point", "geodesic-descent")

# Run in a fresh interpreter: argv is (checkout, inputs file, out file).
_WORKER = """
import json, sys, time
checkout, in_path, out_path = sys.argv[1:4]
sys.path.insert(0, checkout + "/src")
# The package caps BLAS threads only if it is imported before numpy.
from measure_balancer import AtomicMeasure, balance
import numpy as np
with open(in_path, encoding="utf-8") as fh:
    cases = json.load(fh)
rows = []
for case in cases:
    nu = AtomicMeasure.from_json(case["measure"])
    if case["method"] == "target":
        pairs = np.array(json.loads(case["target"])["rho"], dtype=float)
        kwargs = {"target_rho": pairs.view(complex)[..., 0]}
    else:
        kwargs = {"method": case["method"]}
    best = float("inf")
    for _ in range(int(sys.argv[4])):
        t0 = time.perf_counter()
        res = balance(nu, **kwargs)
        best = min(best, time.perf_counter() - t0)
    rows.append({"iterations": res.iterations, "verdict": res.verdict, "ms": round(1e3 * best, 3)})
with open(out_path, "w", encoding="utf-8") as fh:
    json.dump(rows, fh)
"""


def cases() -> list:
    """(group, label, measure document, method, target document or None) for
    every run, in a fixed order; the method of a target solve is "target"."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(ROOT / "tests"))
    import helpers
    import inputs

    found = []
    for name, seed in RUNS:
        wl = inputs.make_workload(name, seed)
        for op in wl.ops:
            if op.argv[0] != "balance":
                continue
            doc = wl.files[op.argv[1]].decode()
            if "--target" in op.argv:
                target = wl.files[op.argv[op.argv.index("--target") + 1]].decode()
                found.append((name, f"{name}/{seed}/{op.op_id}", doc, "target", target))
            else:
                method = op.argv[op.argv.index("--method") + 1] if "--method" in op.argv else "fixed-point"
                found.append((name, f"{name}/{seed}/{op.op_id}", doc, method, None))
    sweeps = [
        ("planted", f"planted/n{n}/s{seed}", helpers.unstable_measure(helpers.rng(seed), n)[0])
        for n, seed in helpers.PLANTED_SWEEP
    ] + [
        ("stable", f"stable/n{n}/s{seed}", helpers.stable_measure(helpers.rng(seed), n))
        for n, seed in helpers.STABLE_SWEEP
    ]
    sweeps += [case for case in map(sweep_case, range(SWEEP_END)) if case is not None]
    for method in METHODS:
        found += [(group, label, nu.to_json(), method, None) for group, label, nu in sweeps]
    return found


def sweep_case(i: int):
    """(group, label, measure) of sweep input i, or None for i % 4 == 2."""
    import helpers

    n, m, r = 1 + i % 3, 2 + (i // 3) % 6, helpers.rng(i)
    if i % 4 == 3:
        nu = helpers.near_hyperplane_cloud(r, n, 10.0 ** r.uniform(-9, -6))
        return "near-hyperplane", f"near-hyperplane/n{n}/s{i}", nu
    if i % 4 == 1:
        return "near-cutoff", f"near-cutoff/n{n}/s{i}", helpers.near_cutoff_cloud(i)
    if i % 4 == 0:
        return "gaussian-integer", f"gaussian-integer/n{n}/m{m}/s{i}", helpers.gaussian_integer_measure(r, n, m)
    return None


def run_checkout(checkout: Path, in_path: str, work: str) -> list:
    """One row (iterations, verdict, ms) per input, run by the package in ``checkout``."""
    env = dict(os.environ, MEASURE_BALANCER_THREADS="1")
    out_path = os.path.join(work, "rows.json")
    argv = [str(checkout), in_path, out_path, str(REPEATS)]
    subprocess.run([sys.executable, "-c", _WORKER, *argv], env=env, check=True)
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def summary(rows: list) -> dict:
    """Per group: inputs, inputs needing more iterations or changing verdict, and per side
    the sum and largest of the iterations and the sum of the milliseconds."""
    out = {
        "inputs": len(rows),
        "more_iterations": sum(r["this"]["iterations"] > r["other"]["iterations"] for r in rows),
        "verdicts_differ": sum(r["this"]["verdict"] != r["other"]["verdict"] for r in rows),
    }
    for side in ("this", "other"):
        iterations = [r[side]["iterations"] for r in rows]
        out[f"{side}_iterations"] = sum(iterations)
        out[f"{side}_max_iterations"] = max(iterations)
        out[f"{side}_ms"] = round(sum(r[side]["ms"] for r in rows), 3)
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "src" / "measure_balancer").is_dir():
        print("usage: descent_iters.py OTHER_CHECKOUT (a checkout with src/measure_balancer)", file=sys.stderr)
        return 2
    found = cases()
    with tempfile.TemporaryDirectory() as work:
        in_path = os.path.join(work, "cases.json")
        with open(in_path, "w", encoding="utf-8") as fh:
            docs = [{"measure": doc, "method": method, "target": target} for *_, doc, method, target in found]
            json.dump(docs, fh)
        ours = run_checkout(ROOT, in_path, work)
        theirs = run_checkout(Path(args[0]).resolve(), in_path, work)
    inputs = [
        {"input": label, "method": method, "this": this, "other": other}
        for (_, label, _, method, _), this, other in zip(found, ours, theirs)
    ]
    groups = {}
    for (group, *_, method, _), row in zip(found, inputs):
        groups.setdefault(f"{group}/{method}", []).append(row)
    groups = {group: summary(rows) for group, rows in groups.items()}
    report = {"repeats": REPEATS, "runs": [list(r) for r in RUNS], "groups": groups, "inputs": inputs}
    print(json.dumps(report, indent=1))
    return 1 if any(g["verdicts_differ"] for g in groups.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
