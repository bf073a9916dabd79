"""Maximal weights of a measure along one-parameter directions.

For a direction A with eigenvalue clusters c_0 < ... < c_r, every atom flows
to the eigenspace of the highest cluster it meets; the mass landing on each
cluster gives the stratum masses, and the maximal weight is

    lambda(nu, A) = sum_i c_i * mass_i.

A measure is semistable exactly when lambda >= 0 for every direction and
stable when lambda > 0 for every direction.  For a proper subspace L of
projective dimension d spanned by given points, the associated destabilizing
direction takes the value d - n on L and d + 1 on its orthogonal complement;
along it lambda = (d + 1) - (n + 1) nu(L).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySpan, InvalidInput, SpanIsFull
from .geometry import (
    ProjectivePoint,
    SpectralDirection,
    canonical_rows,
    flow_rows,
    flow_strata,
    span_basis,
)
from .measures import AtomicMeasure
from .util import check_tol


@dataclass(eq=False)
class WeightReport:
    """Stratum masses of a measure along a direction, with optional weight."""

    direction: SpectralDirection
    masses: np.ndarray
    lam: float | None = None

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.direction.eigenvalues

    @property
    def stratum_masses(self) -> list:
        """List of (critical value, mass) pairs, ascending critical values."""
        return [(float(c), float(m)) for c, m in zip(self.eigenvalues, self.masses)]


def unstable_partition(nu: AtomicMeasure, d: SpectralDirection) -> WeightReport:
    """Mass of nu landing on each eigenvalue cluster under the flow of A.

    Atom i belongs to the stratum of the highest cluster on which its
    representative has a spectral component of norm above COMPONENT_TOL.
    """
    if d.size != nu.dim + 1:
        raise InvalidInput("direction size does not match the measure")
    strata = flow_strata(nu.coeff_matrix(), d)
    masses = np.bincount(strata, weights=nu.weights, minlength=d.levels)
    return WeightReport(direction=d, masses=masses)


def maximal_weight(nu: AtomicMeasure, d: SpectralDirection) -> WeightReport:
    """Stratum masses together with lambda = sum_i c_i * mass_i."""
    report = unstable_partition(nu, d)
    report.lam = float(report.eigenvalues @ report.masses)
    return report


def lambda_via_flow(nu: AtomicMeasure, d: SpectralDirection, t_max: float = 40.0) -> float:
    """Numeric check of lambda: the momentum component at the flowed measure.

    Evaluates sum_i w_i <mu(exp(t_max A) z_i), A>, which increases to lambda
    as t_max grows.  Intended as an independent oracle, not a fast path.
    """
    check_tol("t_max", t_max)
    w = flow_rows(nu.coeff_matrix(), d, t_max)
    w = w / np.linalg.norm(w, axis=1)[:, None]
    mu = np.einsum("mc,mc->m", w.conj(), w @ d.a.T).real
    return float(nu.weights @ mu)


def destabilizing_direction(points: list, n: int | None = None) -> SpectralDirection:
    """Direction whose flow contracts onto the span L of the given points.

    Eigenvalue d - n on L (projective dimension d) and d + 1 on its
    orthogonal complement; traceless by construction.  Along it the maximal
    weight of any measure is (d + 1) - (n + 1) nu(L).
    """
    if not points:
        raise EmptySpan("no points were given")
    rows = [p.coeffs if isinstance(p, ProjectivePoint) else np.ravel(p) for p in points]
    if len({row.size for row in rows}) > 1:
        raise InvalidInput("points do not all live in the same CP^n")
    rows = canonical_rows(rows)
    size = rows.shape[1]
    if n is None:
        n = size - 1
    elif n != size - 1:
        raise InvalidInput("points do not live in CP^n for the requested n")
    q = span_basis(rows)
    d = q.shape[1] - 1
    if d == n:
        raise SpanIsFull("points span all of C^(n+1); no proper subspace")
    proj = q @ q.conj().T
    a = (d - n) * proj + (d + 1) * (np.eye(size) - proj)
    a.flags.writeable = False
    # The columns of the full U that follow the span's own are its complement.
    vecs = np.hstack([q, np.linalg.svd(q)[0][:, d + 1 :]])
    return SpectralDirection(a, np.array([d - n, d + 1], dtype=float), vecs, np.array([d + 1, n - d]))


def lambda_closed_form(nu: AtomicMeasure, subspace_mass: float, d: int) -> float:
    """(d + 1) - (n + 1) * nu(L) for a subspace of projective dimension d."""
    n = nu.dim
    return float((d + 1) - (n + 1) * subspace_mass)
