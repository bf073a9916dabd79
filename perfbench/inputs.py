"""Seeded inputs for the three benchmark workloads, each with its answer.

Every verdict is known by construction, never by asking the package:

- generic equal-weight atoms with m >= n+2 are stable, with margin
  exactly 1/(n+1) - 1/m (a single atom is the tightest span);
- a planted subspace of projective dimension d carrying (d+1)/(n+1) plus an
  excess, with n+2 generic equal-weight atoms outside it, is unstable with
  margin exactly -excess, and the planted atoms form the unique certificate;
- blocks V_j that together span C^(n+1), each holding one atom (dim 1) or
  dim+2 generic atoms of total mass dim/(n+1), give a polystable measure
  whose splitting is the planted one;
- exact mass (d+1)/(n+1) on a planted subspace with n+2 or more generic
  atoms outside gives a semistable measure with no splitting, and every
  tight subspace lies inside the planted one;
- a generic cloud whose largest (merged) weight is below 1/(n+1) is stable.

Only numpy is used.  The same seed gives byte-identical input files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("classify-small", "balance-large", "solve-mix")


@dataclass
class Op:
    """One CLI call with the data its checker needs."""

    op_id: int
    kind: str  # cli.<kind> label: classify, decompose, balance, ...
    argv: list  # file arguments are relative to the input directory
    expect: dict  # the answer known by construction, plus the checker's data


@dataclass
class Workload:
    name: str
    ops: list
    files: dict  # relative file name -> bytes
    block: int  # ops per schedule block; a run times whole blocks
    trace_blocks: int  # blocks covered by the traced pass
    properties: dict = field(default_factory=dict)


def _cgauss(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _unit_rows(z):
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _unitary(rng, k):
    q, r = np.linalg.qr(_cgauss(rng, k, k))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _measure_bytes(z, w) -> bytes:
    pairs = np.stack([z.real, z.imag], axis=-1).tolist()
    atoms = [{"z": zz, "w": ww} for zz, ww in zip(pairs, w.tolist())]
    return json.dumps({"n": z.shape[1] - 1, "atoms": atoms}, separators=(",", ":")).encode()


def _shuffled(rng, z, w, marked):
    """Permute atoms; return the new rows, weights and the marked indices."""
    perm = rng.permutation(len(w))
    where = np.empty_like(perm)
    where[perm] = np.arange(len(perm))
    return z[perm], w[perm], sorted(int(where[i]) for i in marked)


# ---------------------------------------------------------------------------
# measures with known verdicts


def stable_generic(rng, n, m):
    """Generic equal-weight atoms, m >= n+2: stable, margin 1/(n+1) - 1/m."""
    z = _unit_rows(_cgauss(rng, m, n + 1))
    w = np.full(m, 1.0 / m)
    return z, w, {"verdict": "stable", "margin": 1.0 / (n + 1) - 1.0 / m}


def planted_unstable(rng, n, d):
    """Over-massive planted subspace of projective dimension d < n."""
    k = n + 1
    excess = float(rng.uniform(0.2, 0.6)) / k
    u = _unitary(rng, k)
    inside = _unit_rows(_cgauss(rng, d + 1, d + 1) @ u[:, : d + 1].T)
    outside = _unit_rows(_cgauss(rng, n + 2, k))
    mass_in = (d + 1) / k + excess
    w = np.concatenate(
        [np.full(d + 1, mass_in / (d + 1)), np.full(n + 2, (1.0 - mass_in) / (n + 2))]
    )
    z, w, cert = _shuffled(rng, np.vstack([inside, outside]), w, range(d + 1))
    return z, w, {
        "verdict": "unstable",
        "margin": -excess,
        "cert_dim": d,
        "cert_atoms": cert,
    }


def _blocks_measure(rng, dims):
    """Atoms on independent blocks V_j of the given linear dimensions."""
    k = sum(dims)
    u = _unitary(rng, k)
    rows, ws = [], []
    offset = 0
    for d in dims:
        basis = u[:, offset : offset + d]
        offset += d
        count = 1 if d == 1 else d + 2
        rows.append(_cgauss(rng, count, d) @ basis.T)
        ws.append(np.full(count, d / k / count))
    g = _cgauss(rng, k, k)  # generic g keeps the splitting, breaks orthogonality
    z = _unit_rows(np.vstack(rows) @ g.T)
    return z, np.concatenate(ws)


def polystable(rng, dims):
    # Atoms stay grouped by block: the splitting search's cost depends on the
    # atom order, and a fixed order keeps it the same for every seed.
    z, w = _blocks_measure(rng, dims)
    return z, w, {"verdict": "polystable-not-stable", "margin": 0.0, "blocks": sorted(dims)}


def semistable(rng, n, d, outside_count):
    """Exact boundary mass on a planted subspace, generic complement."""
    k = n + 1
    u = _unitary(rng, k)
    inside = _unit_rows(_cgauss(rng, d + 1, d + 1) @ u[:, : d + 1].T)
    outside = _unit_rows(_cgauss(rng, outside_count, k))
    w = np.concatenate(
        [np.full(d + 1, 1.0 / k), np.full(outside_count, (n - d) / k / outside_count)]
    )
    z, w, planted = _shuffled(rng, np.vstack([inside, outside]), w, range(d + 1))
    return z, w, {"verdict": "semistable-not-polystable", "margin": 0.0, "tight_within": planted}


def stable_cloud(rng, n, m, weights, duplicate_share):
    """Gaussian cloud; a share of the atoms are exact repeats of others."""
    k = n + 1
    repeats = int(round(m * duplicate_share))
    z = _unit_rows(_cgauss(rng, m - repeats, k))
    z = np.vstack([z, z[rng.choice(m - repeats, size=repeats, replace=False)]])
    if weights == "equal":
        w = np.full(m, 1.0 / m)
    else:
        w = rng.dirichlet(np.full(m, 4.0))
    z, w, _ = _shuffled(rng, z, w, [])
    largest = _largest_merged_weight(z, w)
    if largest >= 1.0 / k:  # the construction guarantees this never happens
        raise AssertionError(f"cloud atom weight {largest} breaks the stability bound")
    return z, w, {"verdict": "stable", "repeats": repeats}


def _largest_merged_weight(z, w):
    keys = {}
    for row, wt in zip(map(bytes, z.view(np.float64)), w):
        keys[row] = keys.get(row, 0.0) + wt
    return max(keys.values())


# ---------------------------------------------------------------------------
# workloads


def _target_bytes(rho) -> bytes:
    pairs = np.stack([rho.real, rho.imag], axis=-1).tolist()
    return json.dumps({"rho": pairs}, separators=(",", ":")).encode()


def _sphere_bytes(x, w) -> bytes:
    atoms = [{"x": xx, "w": ww} for xx, ww in zip(x.tolist(), w.tolist())]
    return json.dumps({"atoms": atoms}, separators=(",", ":")).encode()


class _Collector:
    def __init__(self):
        self.ops = []
        self.files = {}
        self.sizes = []  # (n, m) of every measure input
        self.classes = {}

    def measure(self, z, w, label):
        fname = f"m{len(self.files):04d}.json"
        self.files[fname] = _measure_bytes(z, w)
        self.sizes.append((z.shape[1] - 1, z.shape[0]))
        self.classes[label] = self.classes.get(label, 0) + 1
        return fname

    def add(self, kind, argv, expect):
        self.ops.append(Op(len(self.ops), kind, argv, expect))

    def properties(self, extra):
        ns = [s[0] for s in self.sizes]
        ms = [s[1] for s in self.sizes]
        total = sum(self.classes.values())
        props = {
            "inputs": total,
            "ops": len(self.ops),
            "n_range": [min(ns), max(ns)],
            "m_range": [min(ms), max(ms)],
            "class_share": {c: round(v / total, 4) for c, v in sorted(self.classes.items())},
            "op_share": _share([op.kind for op in self.ops]),
        }
        props.update(extra)
        return props


def _share(labels):
    out = {}
    for lab in labels:
        out[lab] = out.get(lab, 0) + 1
    return {k: round(v / len(labels), 4) for k, v in sorted(out.items())}


# One block of classify-small: (class, n, m, d or block dims).  Classify and
# decompose alternate by position, so odd positions are decompose ops.  Sizes
# are fixed per position so that every seed costs about the same.  The two
# identical decompose ops (n=3, m=12) are the 8th and 9th fastest of the
# block, so the median latency falls inside their cluster, not in a gap.
_CLASSIFY_BLOCK = (
    ("stable", 3, 8, None),
    ("stable", 3, 12, None),
    ("unstable", 4, None, 1),
    ("polystable", 4, 9, (1, 2, 2)),
    ("stable", 5, 9, None),
    ("stable", 2, 13, None),
    ("semistable", 3, 7, 1),
    ("stable", 6, 9, None),
    ("unstable", 5, None, 2),
    ("polystable", 4, 7, (1, 1, 3)),
    ("semistable", 4, 14, 1),
    ("stable", 2, 7, None),
    ("semistable", 4, 8, 1),
    ("stable", 3, 12, None),
    ("unstable", 3, None, 0),
    ("stable", 3, 16, None),
)


def classify_small(rng, blocks):
    b = _Collector()
    for _ in range(blocks):
        for pos, (cls, n, m, arg) in enumerate(_CLASSIFY_BLOCK):
            decompose = pos % 2 == 1
            if cls == "stable":
                z, w, exp = stable_generic(rng, n, m)
            elif cls == "unstable":
                z, w, exp = planted_unstable(rng, n, arg)
            elif cls == "polystable":
                z, w, exp = polystable(rng, list(arg))
            else:
                z, w, exp = semistable(rng, n, arg, m - arg - 1)
            command = "decompose" if decompose else "classify"
            fname = b.measure(z, w, exp["verdict"])
            b.add(command, [command, fname], dict(exp, z=z, w=w, decompose=decompose))
    props = b.properties({"duplicate_atom_share": 0.0})
    return Workload("classify-small", b.ops, b.files, len(_CLASSIFY_BLOCK), 4, props)


# One block of balance-large: (n, m, weights, duplicates, method).  The two
# n=10, m=1500 ops are the 6th and 7th fastest, so the median latency falls
# inside their cluster.
_BALANCE_BLOCK = (
    (10, 3000, "equal", False, "fixed-point"),
    (10, 1500, "equal", False, "fixed-point"),
    (30, 2000, "equal", False, "fixed-point"),
    (10, 500, "dirichlet", False, "geodesic-descent"),
    (20, 2500, "equal", True, "fixed-point"),
    (30, 1000, "dirichlet", False, "fixed-point"),
    (10, 1500, "dirichlet", False, "fixed-point"),
    (20, 600, "equal", False, "geodesic-descent"),
    (30, 3000, "dirichlet", False, "fixed-point"),
    (10, 2000, "equal", False, "fixed-point"),
    (20, 1000, "dirichlet", False, "fixed-point"),
    (30, 500, "equal", False, "fixed-point"),
)


def balance_large(rng, blocks):
    b = _Collector()
    atoms = repeats = 0
    for _ in range(blocks):
        for n, m, weights, dup, method in _BALANCE_BLOCK:
            z, w, exp = stable_cloud(rng, n, m, weights, 0.1 if dup else 0.0)
            atoms += m
            repeats += exp["repeats"]
            fname = b.measure(z, w, "stable")
            b.add("balance", ["balance", fname, "--method", method], dict(exp, z=z, w=w))
    props = b.properties(
        {
            "duplicate_atom_share": round(repeats / atoms, 4),
            "inputs_with_duplicates": round(sum(d for *_, d, _ in _BALANCE_BLOCK) / len(_BALANCE_BLOCK), 4),
            "descent_share": round(
                sum(meth == "geodesic-descent" for *_, meth in _BALANCE_BLOCK) / len(_BALANCE_BLOCK), 4
            ),
        }
    )
    return Workload("balance-large", b.ops, b.files, len(_BALANCE_BLOCK), 1, props)


def _target_rho(rng, k):
    h = _cgauss(rng, k, k)
    h = (h + h.conj().T) / 2.0
    h -= np.eye(k) * (np.trace(h).real / k)
    h *= 0.3 / k / np.abs(np.linalg.eigvalsh(h)).max()
    return np.eye(k) / k + h


# One block of solve-mix: (kind, n, m, detail).  For unstable balancing, m
# is the dimension d of the planted subspace; sphere measures live on CP^1.
# The decompose and boundary classify ops have 13 atoms, past the package's
# 12-atom enumeration cap, so the stability layer and its refusals show here.
_SOLVE_BLOCK = (
    ("balance_target", 2, 6, None),
    ("torus", 1, 4, None),
    ("sphere_balance", 1, 20, None),
    ("balance", 3, 7, "fixed-point"),
    ("weight", 2, 5, None),
    ("balance-unstable", 2, 1, "fixed-point"),
    ("torus", 3, 6, None),
    ("balance_target", 4, 8, None),
    ("sphere_balance", 1, 60, None),
    ("balance-unstable", 3, 1, "geodesic-descent"),
    ("torus", 2, 6, None),
    ("weight", 4, 7, 40.0),
    ("decompose", 2, 13, None),
    ("balance_target", 1, 4, None),
    ("balance", 4, 8, "geodesic-descent"),
    ("torus", 4, 8, None),
    ("sphere_balance", 1, 40, None),
    ("balance-unstable", 1, 0, "fixed-point"),
    ("balance_target", 3, 7, None),
    ("classify-boundary", 2, 13, 0),
    ("weight", 3, 6, None),
    ("balance", 2, 6, "fixed-point"),
)


def solve_mix(rng, blocks):
    b = _Collector()
    for _ in range(blocks):
        for kind, n, m, detail in _SOLVE_BLOCK:
            k = n + 1
            if kind == "balance_target":
                z, w, exp = stable_generic(rng, n, m)
                fname = b.measure(z, w, "stable")
                rho = _target_rho(rng, k)
                tname = f"t{len(b.ops):04d}.json"
                b.files[tname] = _target_bytes(rho)
                b.add(kind, ["balance", fname, "--target", tname], dict(exp, z=z, w=w, rho=rho))
            elif kind == "torus":
                z, _, _ = stable_generic(rng, n, m)
                w = rng.dirichlet(np.full(m, 3.0))
                fname = b.measure(z, w, "torus")
                t = float(rng.uniform(0.2, 0.7))
                p = (1.0 - t) / k + t * rng.dirichlet(np.ones(k))
                beta = ",".join(repr(float(v)) for v in p - 1.0 / k)
                b.add(kind, ["torus", fname, f"--beta={beta}"], {"z": z, "w": w, "p_target": p})
            elif kind == "sphere_balance":
                x = _cgauss(rng, m, 3).real
                x /= np.linalg.norm(x, axis=1, keepdims=True)
                w = rng.dirichlet(np.full(m, 2.0))
                fname = f"s{len(b.files):04d}.json"
                b.files[fname] = _sphere_bytes(x, w)
                b.sizes.append((1, m))
                b.classes["sphere"] = b.classes.get("sphere", 0) + 1
                b.add(kind, ["sphere", fname, "balance"], {"x": x, "w": w})
            elif kind == "weight":
                z, w, _ = stable_generic(rng, n, m)
                fname = b.measure(z, w, "stable")
                argv = ["weight", fname, "--random", "100", "--seed", str(int(rng.integers(1 << 31)))]
                if detail is not None:
                    argv += ["--flow-check", str(detail)]
                b.add(kind, argv, {"rows": 100, "flow": detail is not None})
            elif kind == "balance":
                z, w, exp = stable_generic(rng, n, m)
                fname = b.measure(z, w, "stable")
                b.add(kind, ["balance", fname, "--method", detail], dict(exp, z=z, w=w))
            elif kind == "decompose":
                z, w, exp = stable_generic(rng, n, m)
                fname = b.measure(z, w, "stable")
                b.add(kind, ["decompose", fname], dict(exp, z=z, w=w, decompose=True))
            elif kind == "classify-boundary":
                z, w, exp = semistable(rng, n, detail, m - detail - 1)
                fname = b.measure(z, w, exp["verdict"])
                b.add("classify", ["classify", fname], dict(exp, z=z, w=w, decompose=False))
            else:  # balance-unstable: the answer is exit 20 with a certificate
                z, w, exp = planted_unstable(rng, n, m)
                fname = b.measure(z, w, "unstable")
                b.add("balance", ["balance", fname, "--method", detail], dict(exp, z=z, w=w))
    props = b.properties({"duplicate_atom_share": 0.0})
    return Workload("solve-mix", b.ops, b.files, len(_SOLVE_BLOCK), 4, props)


_GENERATORS = {
    "classify-small": (classify_small, 16),
    "balance-large": (balance_large, 1),
    "solve-mix": (solve_mix, 12),
}


def make_workload(name: str, seed: int) -> Workload:
    """All inputs of one workload, drawn from (workload, seed) alone."""
    generate, blocks = _GENERATORS[name]
    rng = np.random.Generator(np.random.PCG64([seed, WORKLOADS.index(name)]))
    return generate(rng, blocks)
