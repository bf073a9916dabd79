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
  few of either;
- the ``torus`` group: ``torus_solve(nu, beta)`` on the ``TORUS_END``
  inputs of ``torus_case(i)`` (n 1-5, m 2-8, a partial support on odd i),
  whose verdict is the outcome: ``converged``, ``exit-21``
  (``MaxIterations``, its iterations read from the message), ``exit-22``
  (``TargetOutsidePolytope``), ``singular-gram`` or ``exit-2``
  (``InvalidInput``), the last three at 0 iterations.  Each side's theta
  (``converged`` and ``exit-21``) is given mean zero on every component of
  the support graph by this checkout's rule, which leaves only the
  directions the residual determines.

One subprocess per checkout imports the package from its ``src/``, with
BLAS on one thread.  Both sides read the same measure documents, drawn by
this checkout's ``perfbench/inputs.py`` and ``tests/helpers.py``.  Each input
is run ``REPEATS`` times; its wall time is the minimum, and its trials
are the calls of ``balancing.moved_state`` in one run (the start and every
trial point of the line search).  Prints one JSON document: per input and
method its iterations, verdict, trials and milliseconds on each side, and
per group and method the sums, the count and largest of the iteration
changes and, for the torus group, the largest theta difference.
Exits 1 if a verdict differs, 0 if none does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUNS = (("balance-large", 1), ("solve-mix", 1), ("solve-mix", 2), ("solve-mix", 17))
REPEATS = 3
SWEEP_END = 1000
TORUS_END = 3000
METHODS = ("fixed-point", "geodesic-descent")

# Run in a fresh interpreter: argv is (checkout, inputs file, out file).
_WORKER = """
import json, re, sys, time
checkout, in_path, out_path = sys.argv[1:4]
sys.path.insert(0, checkout + "/src")
# The package caps BLAS threads only if it is imported before numpy.
from measure_balancer import (
    AtomicMeasure, InvalidInput, MaxIterations, SingularGram, TargetOutsidePolytope, balance, balancing,
    torus_solve,
)
import numpy as np

trials = [0]
moved_state = balancing.moved_state

def counted_state(*args):
    trials[0] += 1
    return moved_state(*args)

balancing.moved_state = counted_state

def torus(nu, beta):
    try:
        res = torus_solve(nu, beta)
        return {"iterations": res.iterations, "verdict": "converged", "theta": res.theta.tolist()}
    except MaxIterations as exc:
        it = int(re.search(r"at iteration (\\d+)", str(exc)).group(1))
        return {"iterations": it, "verdict": "exit-21", "theta": exc.theta.tolist()}
    except TargetOutsidePolytope:
        outcome = "exit-22"
    except SingularGram:
        outcome = "singular-gram"
    except InvalidInput:
        outcome = "exit-2"
    return {"iterations": 0, "verdict": outcome}

def balanced(nu, **kwargs):
    res = balance(nu, **kwargs)
    return {"iterations": res.iterations, "verdict": res.verdict}

with open(in_path, encoding="utf-8") as fh:
    cases = json.load(fh)
rows = []
for case in cases:
    nu = AtomicMeasure.from_json(case["measure"])
    method, target = case["method"], case["target"]
    if method == "torus":
        beta = json.loads(target)
        solve = lambda: torus(nu, beta)
    elif method == "target":
        rho = np.array(json.loads(target)["rho"], dtype=float).view(complex)[..., 0]
        solve = lambda: balanced(nu, target_rho=rho)
    else:
        solve = lambda: balanced(nu, method=method)
    best = float("inf")
    for _ in range(int(sys.argv[4])):
        trials[0] = 0
        t0 = time.perf_counter()
        out = solve()
        best = min(best, time.perf_counter() - t0)
    rows.append(dict(out, trials=trials[0], ms=round(1e3 * best, 3)))
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
    for i in range(TORUS_END):
        group, label, nu, beta = torus_case(i)
        found.append((group, label, nu.to_json(), "torus", json.dumps(beta.tolist())))
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


def torus_case(i: int):
    """(group, label, measure, beta) of torus input i.

    n = 1 + i % 5 and m = 2 + (i // 5) % 7 Gaussian atoms, on odd i each
    entry kept with probability 0.6 (at least one per atom), and on
    i % 4 == 3 the last coordinate dropped from every atom.  The target is
    p = sum_i w_i q_i, q_i drawn on atom i's support from Dirichlet(0.05)
    on i % 3 == 0 (near the boundary) and Dirichlet(1) otherwise; on
    (i // 7) % 5 == 0 it is pushed 30 % further from the support-uniform
    point, toward or past the boundary.  beta = p - 1/(n+1).
    """
    import helpers
    from measure_balancer import AtomicMeasure

    n, m, r = 1 + i % 5, 2 + (i // 5) % 7, helpers.rng(i)
    k = n + 1
    z = r.normal(size=(m, k)) + 1j * r.normal(size=(m, k))
    support = np.ones((m, k), dtype=bool)
    if i % 2:
        support = r.random((m, k)) < 0.6
        if i % 4 == 3:
            support[:, -1] = False
        empty = ~support.any(axis=1)
        support[empty, r.integers(k - 1, size=int(empty.sum()))] = True
    w = r.dirichlet(np.ones(m))
    alpha = 0.05 if i % 3 == 0 else 1.0
    q = np.zeros((m, k))
    for row, s in zip(q, support):
        row[s] = r.dirichlet(np.full(s.sum(), alpha))
    p = w @ q
    if (i // 7) % 5 == 0:
        centre = w @ (support / support.sum(axis=1, keepdims=True))
        p = centre + 1.3 * (p - centre)
    label = f"torus/{'partial' if i % 2 else 'full'}/n{n}/m{m}/s{i}"
    return "torus", label, AtomicMeasure(np.where(support, z, 0.0), w), p - 1.0 / k


def gauged(doc: str, theta):
    """theta (None stays None) with mean zero on each component of the
    support graph of the measure ``doc``, by this checkout's rule."""
    from measure_balancer import AtomicMeasure, balancing
    from measure_balancer.geometry import COMPONENT_TOL

    if theta is None:
        return None
    support = np.abs(AtomicMeasure.from_json(doc).coeff_matrix()) > COMPONENT_TOL
    helmert = balancing._torus_directions(support).diagonal(axis1=1, axis2=2).real
    return (helmert.T @ (helmert @ np.asarray(theta))).tolist()  # theta off every component's indicator


def run_checkout(checkout: Path, in_path: str, work: str) -> list:
    """One row (iterations, verdict, ms) per input, run by the package in ``checkout``."""
    env = dict(os.environ, MEASURE_BALANCER_THREADS="1")
    out_path = os.path.join(work, "rows.json")
    argv = [str(checkout), in_path, out_path, str(REPEATS)]
    subprocess.run([sys.executable, "-c", _WORKER, *argv], env=env, check=True)
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def summary(rows: list) -> dict:
    """Per group: inputs, inputs needing more iterations, with another iteration
    count or changing verdict, the largest change of an iteration count (this
    minus other), the largest theta difference (None where no row has theta on
    both sides), and per side the sum and largest of the iterations and the
    sums of the trials and of the milliseconds."""
    changes = [r["this"]["iterations"] - r["other"]["iterations"] for r in rows]
    thetas = [(r["this"].get("theta"), r["other"].get("theta")) for r in rows]
    out = {
        "inputs": len(rows),
        "more_iterations": sum(c > 0 for c in changes),
        "iterations_differ": sum(c != 0 for c in changes),
        "largest_iteration_change": max(changes, key=abs),
        "verdicts_differ": sum(r["this"]["verdict"] != r["other"]["verdict"] for r in rows),
        "theta_max_difference": max(
            (max(abs(a - b) for a, b in zip(x, y)) for x, y in thetas if x is not None and y is not None),
            default=None,
        ),
    }
    for side in ("this", "other"):
        iterations = [r[side]["iterations"] for r in rows]
        out[f"{side}_iterations"] = sum(iterations)
        out[f"{side}_max_iterations"] = max(iterations)
        out[f"{side}_trials"] = sum(r[side]["trials"] for r in rows)
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
    for (*_, doc, _, _), this, other in zip(found, ours, theirs):
        if "theta" in this or "theta" in other:
            this["theta"], other["theta"] = gauged(doc, this.get("theta")), gauged(doc, other.get("theta"))
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
