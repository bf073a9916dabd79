"""Deterministic generators and independent oracles shared by the tests.

Everything here is seeded through numpy's PCG64 generator; no test should
draw from global random state.  The oracles (bisection, finite differences,
hull membership) are written from scratch on purpose — they cross-check the
package instead of reusing its internals.  The references (`reference_merge`,
`reference_polystable_decompose`, `reference_torus_lp`, `reference_gram`,
`reference_lambda_via_flow`, `reference_strata`, `reference_sphere_point`,
`reference_spectral_decompose`, `reference_random_direction_matrices`, and the
per-number JSON codec `reference_pair_to_complex`, `reference_complex_to_pair`,
`reference_pairs_to_matrix`, `reference_matrix_to_pairs`) are the package's
former loop or exhaustive algorithms, kept unchanged so the faster
replacements can be held to them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

from measure_balancer import (
    AtomicMeasure,
    GroupElement,
    InvalidInput,
    NotPolystable,
    NotSemistable,
    PolystableSplitting,
    ProjectivePoint,
    SpectralDirection,
    SplittingBlock,
    StabilityKind,
    TooManyAtoms,
    ZeroDirection,
    candidate_subspaces,
    classify,
    pushforward,
    spectral_decompose,
)
from measure_balancer.geometry import CLUSTER_TOL
from measure_balancer.stability import _margin_and_worst


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# basic random objects


def random_vector(r: np.random.Generator, k: int) -> np.ndarray:
    """Complex standard-normal vector (Fubini-Study uniform after scaling)."""
    return r.normal(size=k) + 1j * r.normal(size=k)


def random_point(r: np.random.Generator, k: int) -> ProjectivePoint:
    return ProjectivePoint(random_vector(r, k))


def random_unitary(r: np.random.Generator, k: int) -> np.ndarray:
    """Haar-ish unitary: QR of a complex Gaussian with phase-fixed diagonal."""
    a = r.normal(size=(k, k)) + 1j * r.normal(size=(k, k))
    q, rr = np.linalg.qr(a)
    d = np.diagonal(rr)
    return q * (d / np.abs(d))


def random_group(
    r: np.random.Generator, k: int, max_log_cond: float = 2.0
) -> GroupElement:
    """Random element with controlled condition number exp(max_log_cond)."""
    t = r.uniform(-max_log_cond / 2.0, max_log_cond / 2.0, size=k)
    t = t - t.mean()
    return GroupElement(random_unitary(r, k) @ np.diag(np.exp(t)) @ random_unitary(r, k))


def random_measure(
    r: np.random.Generator, n: int, m: int, weights: str = "dirichlet"
) -> AtomicMeasure:
    pts = [random_point(r, n + 1) for _ in range(m)]
    if weights == "equal":
        w = np.full(m, 1.0 / m)
    else:
        w = r.dirichlet(np.full(m, 3.0))
        w = np.maximum(w, 1e-3)
        w = w / w.sum()
    return AtomicMeasure(pts, w)


def random_traceless_hermitian(r: np.random.Generator, k: int) -> np.ndarray:
    a = r.normal(size=(k, k)) + 1j * r.normal(size=(k, k))
    a = (a + a.conj().T) / 2.0
    a = a - np.eye(k) * (np.trace(a).real / k)
    return a


# ---------------------------------------------------------------------------
# directions and points with controlled spectral structure


def gapped_direction(
    r: np.random.Generator, k: int, min_gap: float = 0.3
) -> SpectralDirection:
    """Direction with simple spectrum and all eigenvalue gaps >= min_gap."""
    gaps = r.uniform(min_gap, min_gap + 1.0, size=k - 1)
    vals = np.concatenate([[0.0], np.cumsum(gaps)])
    vals = vals - vals.mean()
    v = random_unitary(r, k)
    return spectral_decompose(v @ np.diag(vals) @ v.conj().T)


def point_with_components(
    r: np.random.Generator, d: SpectralDirection, min_comp: float = 0.05
) -> ProjectivePoint:
    """Point whose component in every eigenspace of d has norm >= min_comp.

    Components are given magnitudes in [2*min_comp, 1]; after normalization
    by the total norm (at most sqrt(levels)) each stays above min_comp for
    levels <= 4.
    """
    k = d.size
    z = np.zeros(k, dtype=complex)
    for proj in d.projectors:
        u = proj @ random_vector(r, k)
        u = u / np.linalg.norm(u)
        mag = r.uniform(2.0 * min_comp, 1.0)
        phase = np.exp(2j * np.pi * r.uniform())
        z = z + mag * phase * u
    return ProjectivePoint(z)


def gapped_pair(
    r: np.random.Generator, n: int, m: int
) -> tuple[AtomicMeasure, SpectralDirection]:
    """(measure, direction) on which the flow oracle is sharp at t_max = 40."""
    d = gapped_direction(r, n + 1)
    pts = [point_with_components(r, d) for _ in range(m)]
    w = r.dirichlet(np.full(m, 3.0))
    w = np.maximum(w, 1e-2)
    return AtomicMeasure(pts, w / w.sum()), d


# ---------------------------------------------------------------------------
# verdict-class generators (each asserts the verdict it promises)


def stable_measure(
    r: np.random.Generator, n: int, m: int | None = None, weights: str = "equal"
) -> AtomicMeasure:
    m = m if m is not None else n + 3
    while True:
        nu = random_measure(r, n, m, weights=weights)
        if classify(nu).kind is StabilityKind.STABLE:
            return nu


def unstable_measure(
    r: np.random.Generator, n: int, excess: float = 0.08
) -> tuple[AtomicMeasure, list, float, int]:
    """Measure with a planted over-massive subspace.

    Returns (measure, planted points, planted mass, projective dim d); the
    planted subspace carries mass (d+1)/(n+1) + excess.
    """
    d = int(r.integers(0, n))  # projective dimension of the planted span
    u = random_unitary(r, n + 1)
    inside_dim = d + 1
    inside = []
    for _ in range(inside_dim):
        coeff = random_vector(r, inside_dim)
        inside.append(ProjectivePoint(u[:, :inside_dim] @ coeff))
    outside = [random_point(r, n + 1) for _ in range(n + 2)]
    mass_in = (d + 1) / (n + 1) + excess
    w_in = np.full(inside_dim, mass_in / inside_dim)
    w_out = r.dirichlet(np.full(len(outside), 3.0)) * (1.0 - mass_in)
    nu = AtomicMeasure(inside + outside, np.concatenate([w_in, w_out]))
    verdict = classify(nu)
    assert verdict.kind is StabilityKind.UNSTABLE
    return nu, inside, mass_in, d


def polystable_measure(
    r: np.random.Generator, n: int, move: bool = True
) -> tuple[AtomicMeasure, list[int]]:
    """Measure assembled from a genuine splitting, optionally moved by g.

    Returns (measure, block linear dimensions).  Blocks of linear dimension
    one get a single atom; larger blocks get dim+2 atoms in general position
    inside the block with equal weights (stable inside the block).
    """
    k = n + 1
    for _ in range(20):
        dims: list[int] = []
        left = k
        while left > 0:
            dmax = left if dims else left - 1  # at least two blocks
            d = int(r.integers(1, max(2, dmax + 1)))
            dims.append(d)
            left -= d
        u = random_unitary(r, k)
        pts, ws = [], []
        offset = 0
        for d in dims:
            block = u[:, offset : offset + d]
            offset += d
            mass = d / k
            if d == 1:
                pts.append(ProjectivePoint(block[:, 0]))
                ws.append(mass)
            else:
                count = d + 2
                for _ in range(count):
                    pts.append(ProjectivePoint(block @ random_vector(r, d)))
                ws.extend([mass / count] * count)
        nu = AtomicMeasure(pts, ws)
        if move:
            nu = pushforward(random_group(r, k, max_log_cond=1.0), nu)
        if classify(nu).kind is StabilityKind.POLYSTABLE_NOT_STABLE:
            return nu, dims
    raise AssertionError("could not draw a polystable-not-stable measure")


def semistable_measure(r: np.random.Generator, n: int) -> AtomicMeasure:
    """Boundary measure with no splitting: semistable but not polystable.

    Mass exactly (d+1)/(n+1) sits on a planted subspace; the remaining atoms
    span the whole space generically, so no complementary block exists.
    """
    k = n + 1
    for _ in range(20):
        d = int(r.integers(0, n))
        u = random_unitary(r, k)
        inside_dim = d + 1
        inside = []
        if inside_dim == 1:
            inside.append(ProjectivePoint(u[:, 0]))
        else:
            for _ in range(inside_dim):
                inside.append(
                    ProjectivePoint(u[:, :inside_dim] @ random_vector(r, inside_dim))
                )
        outside = [random_point(r, k) for _ in range(k + 1)]
        w_in = np.full(inside_dim, (d + 1) / (k * inside_dim))
        w_out = np.full(len(outside), (1.0 - (d + 1) / k) / len(outside))
        nu = AtomicMeasure(inside + outside, np.concatenate([w_in, w_out]))
        if classify(nu).kind is StabilityKind.SEMISTABLE_NOT_POLYSTABLE:
            return nu
    raise AssertionError("could not draw a semistable-not-polystable measure")


def near_hyperplane_cloud(r: np.random.Generator, n: int, eps: float) -> AtomicMeasure:
    """n+2 equal atoms within about eps of the hyperplane z_n = 0 of C^(n+1).

    At eps of 1e-9 and above they span C^(n+1) at the package's rank cutoff,
    and the measure is stable; balancing it needs cond(S) of order eps^-2.
    """
    m = n + 2
    z = np.array([np.append(random_vector(r, n), eps * random_vector(r, 1)) for _ in range(m)])
    return AtomicMeasure(z, np.full(m, 1 / m))


# ---------------------------------------------------------------------------
# independent oracles


def certified_excess(nu: AtomicMeasure, atom_indices) -> float:
    """mass - rank/(n+1) of the atoms a certificate names, from the atoms alone.

    The rank comes from numpy's own matrix_rank and the mass from the
    weights, so a certificate's stated basis, dimension and mass are not used.
    """
    idx = list(atom_indices)
    rank = np.linalg.matrix_rank(nu.coeff_matrix()[idx])
    return float(nu.weights[idx].sum()) - rank / (nu.dim + 1)


def torus_gradient(nu: AtomicMeasure, theta: np.ndarray) -> np.ndarray:
    """Gradient of the torus objective: sum_i w_i softmax(2 theta + log|z_i|^2)."""
    z = nu.coeff_matrix()
    sq = np.abs(z) ** 2
    lvals = 2.0 * np.asarray(theta)[None, :] + np.log(np.maximum(sq, 1e-300))
    lvals = np.where(sq > 0, lvals, -np.inf)
    shift = lvals.max(axis=1, keepdims=True)
    e = np.exp(lvals - shift)
    p = e / e.sum(axis=1, keepdims=True)
    return nu.weights @ p


def bisection_torus_n1(nu: AtomicMeasure, p0_target: float, tol: float = 1e-13) -> float:
    """Scalar oracle for n = 1: find t with gradient((t,-t))[0] = p0_target."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = torus_gradient(nu, np.array([mid, -mid]))[0]
        if val < p0_target:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def reference_torus_lp(w, support, p_target):
    """The torus interiority LP as the loop builder produced it (the reference).

    Returns (c, A_ub, b_ub, A_eq, b_eq, bounds) for scipy's linprog.
    """
    m, k = support.shape
    covered = support.any(axis=0)
    var_index = {}
    for i in range(m):
        for j in range(k):
            if support[i, j]:
                var_index[(i, j)] = len(var_index)
    nvar = len(var_index)
    c = np.zeros(nvar + 1)
    c[-1] = -1.0  # maximize delta
    a_eq = []
    b_eq = []
    for i in range(m):
        row = np.zeros(nvar + 1)
        for j in range(k):
            if support[i, j]:
                row[var_index[(i, j)]] = 1.0
        a_eq.append(row)
        b_eq.append(1.0)
    for j in range(k):
        if not covered[j]:
            continue
        row = np.zeros(nvar + 1)
        for i in range(m):
            if support[i, j]:
                row[var_index[(i, j)]] = w[i]
        a_eq.append(row)
        b_eq.append(p_target[j])
    a_ub = np.zeros((nvar, nvar + 1))
    for idx in range(nvar):
        a_ub[idx, idx] = -1.0
        a_ub[idx, -1] = 1.0
    bounds = [(0.0, 1.0)] * nvar + [(0.0, 1.0)]
    return c, a_ub, np.zeros(nvar), np.array(a_eq), np.array(b_eq), bounds


def reference_gram(nu: AtomicMeasure, basis) -> np.ndarray:
    """The Gram operator as the pairwise loop built it (the reference).

    One entry pair (j, l), l >= j, at a time: 2 sum_i w_i Re[(A_j z_i)* (A_l z_i)
    - mu_ji mu_li] with mu_ji = Re z_i* A_j z_i.
    """
    z, w = nu.coeff_matrix(), nu.weights
    mats = [b.a if isinstance(b, SpectralDirection) else np.asarray(b, dtype=complex) for b in basis]
    count = len(mats)
    az = [z @ a.T for a in mats]  # row i of z @ a.T is (a z_i)^T
    mus = [np.einsum("mc,mc->m", z.conj(), azj).real for azj in az]
    gram = np.empty((count, count))
    for j in range(count):
        for l in range(j, count):
            dots = np.einsum("mc,mc->m", az[j].conj(), az[l]).real
            val = 2.0 * float(w @ (dots - mus[j] * mus[l]))
            gram[j, l] = gram[l, j] = val
    return gram


def reference_flow_point(z: np.ndarray, d: SpectralDirection, t: float) -> np.ndarray:
    """The flowed unit row [exp(tA) z] as the per-point code computed it.

    The top present eigenvalue is factored out; every component, present or
    not, is multiplied by its exp((c - shift) t).
    """
    parts = [proj @ z for proj in d.projectors]
    norms = np.array([np.linalg.norm(q) for q in parts])
    shift = float(np.max(d.eigenvalues[norms > 0.0]))
    w = np.zeros_like(z)
    for c, q in zip(d.eigenvalues, parts):
        w = w + np.exp((c - shift) * t) * q
    return ProjectivePoint(w).coeffs


def reference_lambda_via_flow(nu: AtomicMeasure, d: SpectralDirection, t_max: float) -> float:
    """The flow weight as the per-atom loop summed it: sum_i w_i z_i(t)* A z_i(t)."""
    total = 0.0
    for p, w in nu.atoms:
        z = reference_flow_point(p.coeffs, d, t_max)
        total += float(w) * float(np.vdot(z, d.a @ z).real)
    return total


def reference_strata(nu: AtomicMeasure, d: SpectralDirection, component_tol: float = 1e-12):
    """The stratum of each atom by the per-point scan: its highest cluster with
    a component of norm above component_tol."""
    strata = []
    for p in nu.points:
        idx = -1
        for i, proj in enumerate(d.projectors):
            if float(np.linalg.norm(proj @ p.coeffs)) > component_tol:
                idx = i
        strata.append(idx)
    return np.array(strata)


def reference_spectral_decompose(a):
    """(a, eigenvalues, projectors, multiplicities) as the per-matrix code built them.

    One eigh, then a Python loop that grows clusters while the eigenvalue gap
    is at most CLUSTER_TOL * ||a||_F, one np.mean per cluster and one
    projector per cluster.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput("direction must be a square matrix")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("direction entries must be finite")
    scale = float(np.linalg.norm(a))
    if scale < 1e-14:
        raise ZeroDirection("direction matrix has (numerically) zero norm")
    if np.linalg.norm(a - a.conj().T) > 1e-12 * max(1.0, scale):
        raise InvalidInput("direction matrix must be Hermitian")
    a = (a + a.conj().T) / 2.0
    k = a.shape[0]
    tr = np.trace(a).real
    if abs(tr) > 1e-10 * max(1.0, scale):
        raise InvalidInput("direction matrix must be traceless")
    if tr != 0.0:
        a = a - np.eye(k) * (tr / k)
    vals, vecs = np.linalg.eigh(a)
    gap = CLUSTER_TOL * scale
    clusters: list[list[int]] = [[0]]
    for i in range(1, k):
        if vals[i] - vals[i - 1] <= gap:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    eigenvalues = np.array([float(np.mean(vals[c])) for c in clusters])
    projectors = []
    for c in clusters:
        v = vecs[:, c]
        projectors.append(v @ v.conj().T)
    multiplicities = np.array([len(c) for c in clusters], dtype=int)
    return a, eigenvalues, projectors, multiplicities


def reference_random_direction_matrices(count: int, size: int, seed: int = 0) -> np.ndarray:
    """The seeded direction sampler as the per-direction loop drew it."""
    r = np.random.Generator(np.random.PCG64(seed))
    out = np.empty((count, size, size), dtype=complex)
    for i in range(count):
        x = r.standard_normal((size, size)) + 1j * r.standard_normal((size, size))
        h = (x + x.conj().T) / 2.0
        h -= np.eye(size) * (np.trace(h).real / size)
        nrm = np.linalg.norm(h)
        if nrm < 1e-12:
            h = np.diag([1.0] + [0.0] * (size - 2) + [-1.0]).astype(complex)
            nrm = np.linalg.norm(h)
        out[i] = h / nrm
    return out


def reference_sphere_point(x) -> np.ndarray:
    """The canonical CP^1 row of a sphere point as the per-point map built it."""
    x = np.asarray(x, dtype=float).reshape(3)
    x = x / float(np.linalg.norm(x))
    cos_half = np.sqrt(max(0.0, (1.0 + x[2]) / 2.0))
    sin_half = np.sqrt(max(0.0, (1.0 - x[2]) / 2.0))
    phase = np.exp(1j * np.arctan2(x[1], x[0]))
    return ProjectivePoint(np.array([cos_half, phase * sin_half])).coeffs


def reference_complex_to_pair(z) -> list[float]:
    """Complex scalar -> [re, im] pair, as the per-number encoder wrote it."""
    z = complex(z)
    return [float(z.real), float(z.imag)]


def reference_pair_to_complex(pair) -> complex:
    """[re, im] pair -> complex scalar, as the per-number decoder read it."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise InvalidInput(f"expected [re, im] pair, got {pair!r}")
    re, im = pair
    if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
        raise InvalidInput(f"expected numeric [re, im] pair, got {pair!r}")
    z = complex(float(re), float(im))
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InvalidInput(f"non-finite complex entry: {pair!r}")
    return z


def reference_matrix_to_pairs(a: np.ndarray) -> list:
    """Complex matrix -> nested lists of [re, im] pairs, one number at a time."""
    return [[reference_complex_to_pair(v) for v in row] for row in np.asarray(a, dtype=complex)]


def reference_pairs_to_matrix(rows) -> np.ndarray:
    """Nested [re, im] pair lists -> complex matrix, one pair at a time."""
    if not isinstance(rows, list) or not rows:
        raise InvalidInput("expected a non-empty list of matrix rows")
    width = None
    out = []
    for row in rows:
        if not isinstance(row, list) or not row:
            raise InvalidInput("matrix rows must be non-empty lists")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InvalidInput("matrix rows have inconsistent lengths")
        out.append([reference_pair_to_complex(v) for v in row])
    return np.array(out, dtype=complex)


def in_hull(x: np.ndarray, points: np.ndarray, tol: float = 1e-9) -> bool:
    """LP oracle: is x a convex combination of the given points?"""
    count = points.shape[0]
    res = linprog(
        np.zeros(count),
        A_eq=np.vstack([points.T, np.ones((1, count))]),
        b_eq=np.concatenate([np.asarray(x, dtype=float), [1.0]]),
        bounds=[(0.0, None)] * count,
        method="highs",
    )
    return bool(res.success)


def hermitian_exp(a: np.ndarray) -> np.ndarray:
    """Local matrix exponential for Hermitian input (test-side oracle)."""
    vals, vecs = np.linalg.eigh(np.asarray(a, dtype=complex))
    return (vecs * np.exp(vals)) @ vecs.conj().T


def direct_momentum_residual(g: GroupElement, nu: AtomicMeasure) -> float:
    """Recompute ||sum_i w_i P_{g z_i} - Id/(n+1)||_F from scratch."""
    k = nu.dim + 1
    total = np.zeros((k, k), dtype=complex)
    for p, w in nu.atoms:
        v = g.g @ p.coeffs
        v = v / np.linalg.norm(v)
        total += w * np.outer(v, v.conj())
    return float(np.linalg.norm(total - np.eye(k) / k))


def reference_merge(z: np.ndarray, weights: np.ndarray, merge_tol: float = 1e-12):
    """All-pairs atom merge: the O(m^2) rule the window merge must reproduce.

    Takes canonical rows; each atom folds into the earliest kept atom with
    overlap >= 1 - merge_tol.  Returns the kept row indices and the merged
    weights, summed in index order.
    """
    overlaps = np.abs(z @ z.conj().T)
    keep: list[int] = []
    target = {}
    for i in range(len(z)):
        owner = -1
        for j in keep:
            if overlaps[i, j] >= 1.0 - merge_tol:
                owner = j
                break
        if owner < 0:
            keep.append(i)
            target[i] = i
        else:
            target[i] = owner
    merged_w = {j: 0.0 for j in keep}
    for i in range(len(z)):
        merged_w[target[i]] += weights[i]
    return np.array(keep), np.array([merged_w[j] for j in keep])


REFERENCE_PARTITION_CAP = 12  # atoms; the search walks Bell(m) partitions


def _partitions(count: int, max_groups: int):
    """Set partitions of range(count) with at most max_groups groups.

    Canonical (restricted growth) order; yields group-index assignments.
    """
    assignment = [0] * count

    def rec(i: int, ngroups: int):
        if i == count:
            yield list(assignment)
            return
        for g in range(ngroups):
            assignment[i] = g
            yield from rec(i + 1, ngroups)
        if ngroups < max_groups:
            assignment[i] = ngroups
            yield from rec(i + 1, ngroups + 1)

    yield from rec(0, 0)


def reference_polystable_decompose(
    nu: AtomicMeasure,
    tol_eq: float = 1e-9,
    cap: int = REFERENCE_PARTITION_CAP,
    _known_margin: float | None = None,
):
    """Exhaustive splitting search: the oracle for the tight-flat splitting.

    Walks every set partition of the atoms (Bell-number growth, hence the
    cap) and classifies each candidate block again; only the margin of those
    sub-classifications is used, so it does not rely on the package's split.
    Returns the :data:`NotPolystable` sentinel (falsy) when no splitting
    exists.  Requires nu semistable.  Stable measures get the trivial
    single-block splitting.  Otherwise atoms are partitioned into groups; a
    partition is a valid splitting when the group spans are jointly
    independent and fill C^(n+1), each group's mass is dim/(n+1), and each
    restricted measure (re-expressed in an orthonormal basis of its span) is
    recursively stable.
    """
    n = nu.dim
    m = nu.atom_count
    if m > cap:
        raise TooManyAtoms(f"{m} atoms exceeds the partition cap {cap}")
    if _known_margin is None:
        cands = candidate_subspaces(nu, cap=max(cap, 16))
        margin, _ = _margin_and_worst(nu, cands)
    else:
        margin = _known_margin
    if margin < -tol_eq:
        raise NotSemistable(f"measure is unstable (margin {margin:.3e})")
    if margin > tol_eq:
        block = SplittingBlock(
            basis=np.eye(n + 1, dtype=complex), measure=nu, mass=1.0
        )
        return PolystableSplitting(blocks=[block])
    z = nu.coeff_matrix()
    w = nu.weights
    for assignment in _partitions(m, max_groups=n + 1):
        ngroups = max(assignment) + 1
        if ngroups == 1:
            # the whole-space block needs a stable measure, already ruled out
            continue
        groups = [np.flatnonzero(np.array(assignment) == g) for g in range(ngroups)]
        # cheap filter: each group's mass must be (integer)/(n+1)
        masses = [float(w[idx].sum()) for idx in groups]
        dims_from_mass = [mass * (n + 1) for mass in masses]
        if any(abs(d - round(d)) > tol_eq * (n + 1) or round(d) < 1 for d in dims_from_mass):
            continue
        if sum(round(d) for d in dims_from_mass) != n + 1:
            continue
        bases = []
        ok = True
        for idx, mass, dm in zip(groups, masses, dims_from_mass):
            cols = z[idx].T
            u, s, _ = np.linalg.svd(cols, full_matrices=False)
            rank = int(np.sum(s > 1e-10 * s[0]))
            if rank != round(dm):  # span dim must match the mass condition
                ok = False
                break
            bases.append(u[:, :rank])
        if not ok:
            continue
        stacked = np.hstack(bases)
        if stacked.shape[1] != n + 1:
            continue
        sv = np.linalg.svd(stacked, compute_uv=False)
        if sv[-1] <= 1e-10 * sv[0]:  # spans are not jointly independent
            continue
        blocks = []
        for idx, mass, q in zip(groups, masses, bases):
            k = q.shape[1]
            if k == 1:
                sub = AtomicMeasure(np.ones((1, 1), dtype=complex), np.array([1.0]))
            else:
                coords = (q.conj().T @ z[idx].T).T
                sub = AtomicMeasure(coords, w[idx] / mass)
                sub_verdict = classify(sub, tol_eq=tol_eq)
                if sub_verdict.kind is not StabilityKind.STABLE:
                    ok = False
                    break
            blocks.append(SplittingBlock(basis=q, measure=sub, mass=mass))
        if ok:
            return PolystableSplitting(blocks=blocks)
    return NotPolystable


def perturbed_stable(
    r: np.random.Generator, nu: AtomicMeasure, margin: float
) -> AtomicMeasure:
    """Perturb points by FS distance margin/(4(n+1)) and weights by margin/4.

    The weight bump is sum-zero with l1 norm exactly margin/4, so the
    perturbed weights remain a probability vector without renormalization
    (which would silently enlarge the perturbation).
    """
    n = nu.dim
    delta = margin / (4.0 * (n + 1))
    new_pts = []
    for p, _ in nu.atoms:
        u = random_vector(r, n + 1)
        u = u - np.vdot(p.coeffs, u) * p.coeffs
        norm = np.linalg.norm(u)
        if norm < 1e-12:
            new_pts.append(p)
            continue
        new_pts.append(
            ProjectivePoint(np.cos(delta) * p.coeffs + np.sin(delta) * (u / norm))
        )
    bump = r.uniform(-1.0, 1.0, size=nu.weights.size)
    bump = bump - bump.mean()
    bump = bump / np.abs(bump).sum() * (margin / 4.0)
    w = nu.weights + bump
    assert w.min() > 0.0, "perturbation bound exceeded a weight"
    return AtomicMeasure(new_pts, w)
