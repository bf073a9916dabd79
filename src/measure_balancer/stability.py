"""Stability classification of atomic measures on CP^n.

The decisive inequality: a measure is stable iff nu(L) < (dim L + 1)/(n + 1)
for every proper projective-linear subspace L (semistable with <=).  For an
atomic measure only spans of subsets of atoms can be critical — shrinking
any L to the span of the atoms it contains preserves nu(L) and can only
lower the dimension — so the classifier enumerates those spans, deduplicated
by which atoms they contain.

A semistable measure on the boundary is polystable exactly when the atoms
can be partitioned into groups whose spans are linearly independent, fill
C^(n+1), carry mass dim/(n+1) each, and are stable within their own block
(1-dimensional blocks are stable by convention).  A block larger than the
span of its atoms would give those atoms full mass on a proper subspace of
the block, contradicting within-block stability, so partitioning atom
groups is a complete search.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import InvalidInput, NotSemistable, TooManyAtoms
from .geometry import ProjectivePoint
from .measures import AtomicMeasure

DEFAULT_TOL_EQ = 1e-9  # margin within this of 0 counts as boundary equality
DEFAULT_ENUMERATION_CAP = 16  # max atom count for subspace enumeration
DEFAULT_PARTITION_CAP = 12  # max atom count for splitting search
MEMBERSHIP_TOL = 1e-10  # residual below which an atom lies in a span


class StabilityKind(enum.Enum):
    STABLE = "stable"
    POLYSTABLE_NOT_STABLE = "polystable-not-stable"
    SEMISTABLE_NOT_POLYSTABLE = "semistable-not-polystable"
    UNSTABLE = "unstable"


@dataclass(eq=False)
class Subspace:
    """A projective-linear subspace spanned by a subset of atoms."""

    basis: np.ndarray  # (n+1, k) orthonormal columns
    atom_indices: tuple  # indices of the atoms contained in the subspace
    mass: float  # total weight of those atoms

    @property
    def linear_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def proj_dim(self) -> int:
        return self.basis.shape[1] - 1

    def spanning_points(self) -> list:
        """The basis columns as projective points (they span the subspace)."""
        return [ProjectivePoint(self.basis[:, j]) for j in range(self.linear_dim)]

    def contains(self, p: ProjectivePoint, tol: float = MEMBERSHIP_TOL) -> bool:
        z = p.coeffs
        residual = z - self.basis @ (self.basis.conj().T @ z)
        return float(np.linalg.norm(residual)) <= tol


@dataclass(eq=False)
class StabilityVerdict:
    kind: StabilityKind
    margin: float
    certificate: Subspace | None = None
    decomposition: "PolystableSplitting | None" = None


@dataclass(eq=False)
class SplittingBlock:
    """One block of a polystable splitting."""

    basis: np.ndarray  # (n+1, k) orthonormal columns spanning V_j
    measure: AtomicMeasure  # the restricted measure re-expressed in that basis
    mass: float  # nu(P(V_j)) = k/(n+1)

    @property
    def linear_dim(self) -> int:
        return self.basis.shape[1]


@dataclass(eq=False)
class PolystableSplitting:
    blocks: list = field(default_factory=list)

    @property
    def block_count(self) -> int:
        return len(self.blocks)


class _NotPolystableType:
    """Falsy singleton returned when a semistable measure has no splitting."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NotPolystable"

    def __bool__(self) -> bool:
        return False


NotPolystable = _NotPolystableType()


def candidate_subspaces(
    nu: AtomicMeasure,
    cap: int = DEFAULT_ENUMERATION_CAP,
    membership_tol: float = MEMBERSHIP_TOL,
) -> list:
    """All distinct spans of atom subsets that are proper subspaces.

    Subsets of size 1..n suffice: any span has a basis of atoms.  Spans are
    deduplicated by the set of atoms they contain (two distinct atom-spanned
    subspaces cannot contain exactly the same atoms).
    """
    m = nu.atom_count
    n = nu.dim
    if n < 1:
        raise InvalidInput("classification needs ambient dimension n >= 1")
    if m > cap:
        raise TooManyAtoms(
            f"{m} atoms exceeds the enumeration cap {cap}; "
            "use a randomized direction scan instead"
        )
    z = nu.coeff_matrix()  # (m, n+1)
    seen: set = set()
    out: list[Subspace] = []
    for k in range(1, min(n, m) + 1):
        for subset in combinations(range(m), k):
            cols = z[list(subset)].T
            u, s, _ = np.linalg.svd(cols, full_matrices=False)
            rank = int(np.sum(s > 1e-10 * s[0]))
            if rank > n:  # not a proper subspace
                continue
            q = u[:, :rank]
            residual = z.T - q @ (q.conj().T @ z.T)
            inside = np.linalg.norm(residual, axis=0) <= membership_tol
            key = tuple(np.flatnonzero(inside))
            if key in seen:
                continue
            seen.add(key)
            mass = float(nu.weights[list(key)].sum())
            out.append(Subspace(basis=q, atom_indices=key, mass=mass))
    return out


def _margin_and_worst(nu: AtomicMeasure, cands: list) -> tuple[float, Subspace]:
    n = nu.dim
    best = None
    best_margin = np.inf
    for c in cands:
        margin = c.linear_dim / (n + 1) - c.mass
        if margin < best_margin:
            best_margin = margin
            best = c
    return float(best_margin), best


def classify(
    nu: AtomicMeasure,
    tol_eq: float = DEFAULT_TOL_EQ,
    cap: int = DEFAULT_ENUMERATION_CAP,
    partition_cap: int = DEFAULT_PARTITION_CAP,
) -> StabilityVerdict:
    """Classify a measure as stable / polystable / semistable / unstable.

    The margin is min over candidate subspaces of (dim L + 1)/(n + 1) - nu(L);
    |margin| <= tol_eq counts as boundary equality, decided by the splitting
    search.  The certificate is the minimizing subspace whenever the verdict
    is not Stable.
    """
    cands = candidate_subspaces(nu, cap=cap)
    margin, worst = _margin_and_worst(nu, cands)
    if margin > tol_eq:
        return StabilityVerdict(kind=StabilityKind.STABLE, margin=margin)
    if margin < -tol_eq:
        return StabilityVerdict(
            kind=StabilityKind.UNSTABLE, margin=margin, certificate=worst
        )
    splitting = polystable_decompose(
        nu, tol_eq=tol_eq, cap=partition_cap, _known_margin=margin
    )
    if splitting is NotPolystable:
        kind = StabilityKind.SEMISTABLE_NOT_POLYSTABLE
        decomposition = None
    else:
        kind = StabilityKind.POLYSTABLE_NOT_STABLE
        decomposition = splitting
    return StabilityVerdict(
        kind=kind, margin=margin, certificate=worst, decomposition=decomposition
    )


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


def polystable_decompose(
    nu: AtomicMeasure,
    tol_eq: float = DEFAULT_TOL_EQ,
    cap: int = DEFAULT_PARTITION_CAP,
    _known_margin: float | None = None,
) -> "PolystableSplitting | _NotPolystableType":
    """Search for a splitting certifying polystability.

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
        cands = candidate_subspaces(nu, cap=max(cap, DEFAULT_ENUMERATION_CAP))
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
                sub_verdict = classify(sub, tol_eq=tol_eq, partition_cap=cap)
                if sub_verdict.kind is not StabilityKind.STABLE:
                    ok = False
                    break
            blocks.append(SplittingBlock(basis=q, measure=sub, mass=mass))
        if ok:
            return PolystableSplitting(blocks=blocks)
    return NotPolystable


def donaldson_conditions(
    nu: AtomicMeasure,
    tol_eq: float = DEFAULT_TOL_EQ,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[bool, bool]:
    """Two classical sufficient conditions for the existence of a balancer.

    Condition 1: every candidate hyperplane carries measure zero (false for
    any atomic measure, since the hyperplane through an atom has positive
    mass).  Condition 2: nu(L)/(dim L + 1) < 1/(n + 1) strictly for every
    candidate subspace.  Either condition implies the measure is stable.
    """
    n = nu.dim
    cands = candidate_subspaces(nu, cap=cap)
    cond1 = not any(c.mass > 0.0 for c in cands if c.proj_dim <= n - 1)
    cond2 = all(c.linear_dim / (n + 1) - c.mass > tol_eq for c in cands)
    return cond1, cond2
