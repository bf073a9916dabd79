"""Atomic probability measures on CP^n and their Kempf-Ness energy.

A measure is an (m, n+1) array of atom representatives with positive weights
summing to 1.  Construction canonicalizes: weights are renormalized (small
drift only; a deviation beyond 1e-6 is an error), rows get the unit norm and
canonical phase of :func:`measure_balancer.geometry.canonical_rows`, and
coincident atoms are merged into the earliest kept occurrence.

The Kempf-Ness energy of a measure under g in SL(n+1, C) is

    Psi(nu, g) = sum_i w_i log ||g z_i||      (z_i unit representatives),

whose derivative along a direction A at g recovers the momentum pairing
<F(g.nu), A> with F(nu) = sum_i w_i (z_i z_i* - Id/(n+1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput
from .geometry import (
    GroupElement,
    MomentumMatrix,
    ProjectivePoint,
    SpectralDirection,
    canonical_rows,
    move_rows,
)
from .util import canonical_json, parse_json, read_numbers, to_pairs

WEIGHT_SUM_TOL = 1e-6  # weights may drift this far from 1 before renormalizing
WEIGHT_RENORM_TOL = 1e-12  # weights summing farther than this from 1 are divided by the sum
MERGE_TOL = 1e-12  # atoms with overlap |<z_i, z_j>| >= 1 - MERGE_TOL are merged
# Unit rows with overlap >= 1 - MERGE_TOL lie within sqrt(2 MERGE_TOL) of each
# other up to phase; the extra 1e-12 covers canonical rows up to 1e-14 off
# unit norm and the rounding of keys and overlaps.
MERGE_WINDOW = np.sqrt(2.0 * MERGE_TOL + 1e-12)


@dataclass(eq=False)
class AtomicMeasure:
    """A finitely supported probability measure on CP^n.

    ``coeffs`` is the read-only (m, n+1) array of unit, phase-canonical atom
    representatives and ``weights`` the read-only array of their masses.
    ``atoms`` may be such an array, or a list of points or coordinate vectors.
    """

    coeffs: np.ndarray
    weights: np.ndarray

    def __init__(self, atoms, weights):
        if not (isinstance(atoms, np.ndarray) and atoms.ndim == 2):
            atoms = [a.coeffs if isinstance(a, ProjectivePoint) else np.ravel(a) for a in atoms]
            if len({row.size for row in atoms}) > 1:
                raise InvalidInput("all atoms must live in the same CP^n")
        if len(atoms) == 0:
            raise InvalidInput("a measure needs at least one atom")
        rows = canonical_rows(atoms)
        rows, weights = _merge_atoms(rows, checked_weights(weights, len(rows)))
        rows.flags.writeable = False
        weights.flags.writeable = False
        self.coeffs = rows
        self.weights = weights

    @property
    def dim(self) -> int:
        """Ambient projective dimension n."""
        return self.coeffs.shape[1] - 1

    @property
    def atom_count(self) -> int:
        return self.coeffs.shape[0]

    @cached_property
    def points(self) -> list:
        """The atoms as ProjectivePoint objects, built on first use."""
        return [ProjectivePoint(row) for row in self.coeffs]

    @property
    def atoms(self) -> list:
        """List of (point, weight) pairs."""
        return list(zip(self.points, self.weights))

    def coeff_matrix(self) -> np.ndarray:
        """(m, n+1) array whose rows are the unit atom representatives."""
        return self.coeffs

    # ---- JSON schema -----------------------------------------------------
    # {"n": int, "atoms": [{"z": [[re, im], ...], "w": weight}, ...]}

    def to_json_dict(self) -> dict:
        atoms = zip(to_pairs(self.coeffs), self.weights.tolist())
        return {"n": self.dim, "atoms": [{"z": z, "w": w} for z, w in atoms]}

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict()) + "\n"

    @classmethod
    def from_json_dict(cls, data) -> "AtomicMeasure":
        if not isinstance(data, dict):
            raise InvalidInput("measure document must be a JSON object")
        if "n" not in data or "atoms" not in data:
            raise InvalidInput('measure document needs keys "n" and "atoms"')
        n = data["n"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise InvalidInput('"n" must be an integer >= 1')
        raw_atoms = data["atoms"]
        if not isinstance(raw_atoms, list) or not raw_atoms:
            raise InvalidInput('"atoms" must be a non-empty list')
        for entry in raw_atoms:
            if not isinstance(entry, dict) or "z" not in entry or "w" not in entry:
                raise InvalidInput('each atom needs keys "z" and "w"')
            if not isinstance(entry["z"], list) or len(entry["z"]) != n + 1:
                raise InvalidInput(f'atom "z" must list n+1 = {n + 1} coordinates')
        m = len(raw_atoms)
        z = read_numbers([e["z"] for e in raw_atoms], (m, n + 1, 2), "atoms[{}].z")
        w = read_numbers([e["w"] for e in raw_atoms], (m,), "atoms[{}].w")
        return cls(z.view(complex)[..., 0], w)

    @classmethod
    def from_json(cls, text: str) -> "AtomicMeasure":
        return cls.from_json_dict(parse_json(text))


def checked_weights(weights, count: int) -> np.ndarray:
    """``count`` finite positive weights summing to 1 within WEIGHT_SUM_TOL, renormalized."""
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if weights.size != count:
        raise InvalidInput("points and weights must have equal length")
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
        raise InvalidInput("atom weights must be finite and positive")
    total = float(weights.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise InvalidInput(f"atom weights sum to {total!r}, farther than {WEIGHT_SUM_TOL} from 1")
    return weights / total if abs(total - 1.0) > WEIGHT_RENORM_TOL else weights


def _merge_atoms(z, weights):
    """Fold each atom into the earliest kept atom it overlaps.

    Overlap means |<z_i, z_j>| >= 1 - MERGE_TOL.  Only atoms whose keys
    |<z, v>|, for one fixed generic unit v, lie within MERGE_WINDOW of each
    other can overlap.  Kept atoms are taken in index order, and each claims
    the later unclaimed atoms in its key window that pass the exact test.
    Merged weights are summed in index order.
    """
    m, k = z.shape
    c = np.arange(k)
    probe = np.sqrt(c + 1.0) * np.exp(2.4j * c)  # distinct moduli and phases
    keys = np.abs(z @ (probe / np.linalg.norm(probe)))
    order = np.argsort(keys)
    ordered = keys[order]
    lo = np.searchsorted(ordered, ordered - MERGE_WINDOW)
    hi = np.searchsorted(ordered, ordered + MERGE_WINDOW, side="right")
    rank = np.empty(m, dtype=int)
    rank[order] = np.arange(m)
    owner = np.arange(m)
    for a in np.flatnonzero((hi - lo)[rank] > 1):  # another key within reach
        if owner[a] != a:  # claimed by an earlier kept atom
            continue
        near = order[lo[rank[a]] : hi[rank[a]]]
        near = near[(near > a) & (owner[near] == near)]
        owner[near[np.abs(z[near] @ z[a].conj()) >= 1.0 - MERGE_TOL]] = a
    keep = owner == np.arange(m)
    if keep.all():
        return z, weights
    return z[keep], np.bincount(owner, weights=weights, minlength=m)[keep]


def pushforward(g: GroupElement, nu: AtomicMeasure) -> AtomicMeasure:
    """The image measure g.nu: each atom moved by the projective action."""
    moved, _, _ = move_rows(g.g, nu.coeffs)
    return AtomicMeasure(moved, nu.weights)


def momentum(nu: AtomicMeasure) -> MomentumMatrix:
    """F(nu) = sum_i w_i (z_i z_i* - Id/(n+1))."""
    z = nu.coeff_matrix()
    k = nu.dim + 1
    m = (z.T * nu.weights) @ z.conj() - np.eye(k) / k
    return MomentumMatrix(m)


def kempf_ness(nu: AtomicMeasure, g: GroupElement) -> float:
    """Psi(nu, g) = sum_i w_i log ||g z_i||."""
    _, norms, _ = move_rows(g.g, nu.coeffs)
    return float(nu.weights @ np.log(norms))


def kempf_ness_derivative(
    nu: AtomicMeasure, g: GroupElement, d: SpectralDirection
) -> float:
    """d/dt Psi(nu, exp(tA) g) at t = 0, i.e. <F(g.nu), A>."""
    if d.size != nu.dim + 1:
        raise InvalidInput("direction size does not match the measure")
    return momentum(pushforward(g, nu)).pairing(d)
