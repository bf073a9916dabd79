"""Stability classification of atomic measures on CP^n.

The decisive inequality: a measure is stable iff nu(L) < (dim L + 1)/(n + 1)
for every proper projective-linear subspace L (semistable with <=).  For an
atomic measure only spans of subsets of atoms can be critical — shrinking
any L to the span of the atoms it contains preserves nu(L) and can only
lower the dimension — so the classifier enumerates those spans, deduplicated
by which atoms they contain.

A semistable measure on the boundary is polystable exactly when C^(n+1) is a
direct sum of blocks V_1, ..., V_k such that every atom lies in some V_j,
nu(V_j) = dim V_j/(n+1), and nu restricted to V_j is stable within V_j
(1-dimensional blocks are stable by convention).  Dimensions here are
linear.  Call a candidate S *tight* when nu(S) = dim S/(n+1) within tol_eq.
The splitting is read off the minimal tight flats (minimal by atom set):

* If nu is polystable with blocks V_j, then for every subspace L,
  nu(L) = sum_j nu(L & V_j) <= sum_j dim(L & V_j)/(n+1) <= dim L/(n+1):
  the first step is stability inside each block, strict unless every
  L & V_j is 0 or V_j, and the second holds because the L & V_j are
  independent.  So every tight flat is a sum of blocks, the minimal tight
  flats are exactly the blocks, and the splitting is unique.
* Conversely, let the minimal tight flats partition the atoms and let their
  spans be independent and fill C^(n+1).  A proper sub-flat F of such a
  flat V holds fewer atoms than V (V is spanned by its atoms); if
  nu(F) = dim F/(n+1), F would itself be tight (semistability gives <=) and
  V would not be minimal.  Hence nu(F) < dim F/(n+1) = (dim F/dim V) nu(V):
  each block is stable inside itself.

Shrinking a tight flat to the span of its atoms keeps nu, and
semistability stops the dimension from dropping, so every tight flat is
atom-spanned: the candidate list the classifier already built holds them
all, and the split is neither a search nor recursive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import InvalidInput, NotSemistable, TooManyAtoms
from .geometry import ProjectivePoint, rows_in_span, span_basis, span_rank
from .measures import AtomicMeasure
from .util import check_tol

DEFAULT_TOL_EQ = 1e-9  # margin within this of 0 counts as boundary equality
DEFAULT_ENUMERATION_CAP = 16  # max atom count for subspace enumeration


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
    def margin(self) -> float:
        """dim/(n+1) - nu(S): the mass this span may still take; negative proves instability."""
        return self.linear_dim / self.basis.shape[0] - self.mass

    @property
    def proj_dim(self) -> int:
        return self.basis.shape[1] - 1

    def spanning_points(self) -> list:
        """The basis columns as projective points (they span the subspace)."""
        return [ProjectivePoint(self.basis[:, j]) for j in range(self.linear_dim)]


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

    @classmethod
    def single_block(cls, nu: AtomicMeasure) -> "PolystableSplitting":
        """The trivial splitting of a stable measure: C^(n+1) itself."""
        basis = np.eye(nu.dim + 1, dtype=complex)
        return cls(blocks=[SplittingBlock(basis=basis, measure=nu, mass=1.0)])


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


def atom_span(z: np.ndarray, w: np.ndarray, rows) -> Subspace:
    """The span of the atom rows z[rows], holding every atom in it, with their mass."""
    q = span_basis(z[rows])
    inside = np.flatnonzero(rows_in_span(q, z))
    return Subspace(
        basis=q, atom_indices=tuple(int(i) for i in inside), mass=float(w[inside].sum())
    )


def candidate_subspaces(nu: AtomicMeasure) -> list:
    """All distinct spans of atom subsets that are proper subspaces.

    Subsets of size 1..n suffice: any span has a basis of atoms.  Spans are
    deduplicated by the set of atoms they contain (two distinct atom-spanned
    subspaces cannot contain exactly the same atoms).
    """
    m = nu.atom_count
    n = nu.dim
    if n < 1:
        raise InvalidInput("classification needs ambient dimension n >= 1")
    if m > DEFAULT_ENUMERATION_CAP:
        raise TooManyAtoms(
            f"{m} atoms exceeds the enumeration cap {DEFAULT_ENUMERATION_CAP}; "
            "use a randomized direction scan instead"
        )
    z = nu.coeff_matrix()  # (m, n+1)
    seen: set = set()
    out: list[Subspace] = []
    for k in range(1, min(n, m) + 1):
        for subset in combinations(range(m), k):
            span = atom_span(z, nu.weights, list(subset))  # rank <= k <= n: always proper
            if span.atom_indices not in seen:
                seen.add(span.atom_indices)
                out.append(span)
    return out


def classify(nu: AtomicMeasure, tol_eq: float = DEFAULT_TOL_EQ) -> StabilityVerdict:
    """Classify a measure as stable / polystable / semistable / unstable.

    The margin is min over candidate subspaces of (dim L + 1)/(n + 1) - nu(L);
    |margin| <= tol_eq counts as boundary equality, decided by the minimal
    tight flats among the same candidates.  The certificate is the minimizing
    subspace whenever the verdict is not Stable.
    """
    check_tol("tol_eq", tol_eq)
    cands = candidate_subspaces(nu)
    worst = min(cands, key=lambda c: c.margin)  # the first of equal margins
    margin = worst.margin
    if margin > tol_eq:
        return StabilityVerdict(kind=StabilityKind.STABLE, margin=margin)
    if margin < -tol_eq:
        return StabilityVerdict(
            kind=StabilityKind.UNSTABLE, margin=margin, certificate=worst
        )
    splitting = _tight_flat_splitting(nu, cands, tol_eq)
    if splitting is None:
        kind = StabilityKind.SEMISTABLE_NOT_POLYSTABLE
    else:
        kind = StabilityKind.POLYSTABLE_NOT_STABLE
    return StabilityVerdict(kind=kind, margin=margin, certificate=worst, decomposition=splitting)


def _tight_flat_splitting(nu: AtomicMeasure, cands: list, tol_eq: float) -> "PolystableSplitting | None":
    """The splitting of a boundary measure by its minimal tight flats, or None.

    See the module docstring: the measure is polystable iff the minimal
    tight flats partition the atoms and their spans are independent and fill
    C^(n+1); the blocks are then those flats, ordered by smallest atom.
    """
    k = nu.dim + 1
    tight = [c for c in cands if abs(c.margin) <= tol_eq]
    atom_sets = [frozenset(c.atom_indices) for c in tight]
    minimal = [c for c, s in zip(tight, atom_sets) if not any(t < s for t in atom_sets)]
    minimal.sort(key=lambda c: c.atom_indices[0])
    if sorted(i for c in minimal for i in c.atom_indices) != list(range(nu.atom_count)):
        return None
    z = nu.coeff_matrix()
    w = nu.weights
    bases = [span_basis(z[list(c.atom_indices)]) for c in minimal]
    stacked = np.hstack(bases)
    if stacked.shape[1] != k or span_rank(stacked) < k:  # not independent
        return None
    blocks = []
    for c, q in zip(minimal, bases):
        idx = list(c.atom_indices)
        if q.shape[1] == 1:
            sub = AtomicMeasure(np.ones((1, 1), dtype=complex), np.array([1.0]))
        else:
            sub = AtomicMeasure((q.conj().T @ z[idx].T).T, w[idx] / c.mass)
        blocks.append(SplittingBlock(basis=q, measure=sub, mass=c.mass))
    return PolystableSplitting(blocks=blocks)


def polystable_decompose(
    nu: AtomicMeasure, tol_eq: float = DEFAULT_TOL_EQ
) -> "PolystableSplitting | _NotPolystableType":
    """The splitting certifying polystability of a semistable measure.

    Returns the :data:`NotPolystable` sentinel (falsy) when no splitting
    exists and raises NotSemistable for an unstable measure.  Stable
    measures get the single-block splitting.
    """
    verdict = classify(nu, tol_eq=tol_eq)
    if verdict.kind is StabilityKind.UNSTABLE:
        raise NotSemistable(f"measure is unstable (margin {verdict.margin:.3e})")
    if verdict.kind is StabilityKind.STABLE:
        return PolystableSplitting.single_block(nu)
    return verdict.decomposition or NotPolystable
