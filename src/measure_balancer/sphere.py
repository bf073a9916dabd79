"""The round 2-sphere as CP^1: conformal centering of spherical measures.

A unit vector (sin t cos f, sin t sin f, cos t) maps to the projective point
[cos(t/2) : e^(if) sin(t/2)]; under this identification the center of mass
of a spherical measure equals the Bloch image of the momentum of its
projective pushforward,

    com(nu) = bloch(F(nu')),   bloch(m) = (2 Re m01, -2 Im m01, m00 - m11),

so balancing the projective measure is exactly moving the spherical center
of mass to the origin by a Mobius transformation.  A measure is centerable
iff no atom carries mass >= 1/2; two antipodal-izable atoms of mass 1/2 are
the boundary case.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .balancing import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    VERDICT_CONVERGED,
    VERDICT_DIVERGED,
    BalanceResult,
    balance,
)
from .errors import InvalidInput
from .geometry import GroupElement, ProjectivePoint
from .measures import WEIGHT_RENORM_TOL, WEIGHT_SUM_TOL, AtomicMeasure, momentum, pushforward
from .stability import StabilityKind, classify
from .util import canonical_json, check_max_iter, check_tol

POINT_NORM_TOL = 1e-6  # sphere points may drift this far from unit norm


@dataclass(eq=False)
class SphereMeasure:
    """A finitely supported probability measure on the unit 2-sphere."""

    points: np.ndarray  # (m, 3), unit rows
    weights: np.ndarray  # (m,), positive, sums to 1

    def __init__(self, points, weights):
        pts = np.asarray(points, dtype=float)
        w = np.asarray(weights, dtype=float).reshape(-1)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
            raise InvalidInput("sphere points must form a non-empty (m, 3) array")
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(w)):
            raise InvalidInput("sphere measure data must be finite")
        if w.size != pts.shape[0]:
            raise InvalidInput("points and weights must have equal length")
        if np.any(w <= 0.0):
            raise InvalidInput("weights must be positive")
        norms = np.linalg.norm(pts, axis=1)
        if np.any(np.abs(norms - 1.0) > POINT_NORM_TOL):
            raise InvalidInput("sphere points must have unit norm (within 1e-6)")
        pts = pts / norms[:, None]
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidInput("weights must sum to 1 (within 1e-6)")
        if abs(total - 1.0) > WEIGHT_RENORM_TOL:
            w = w / total
        pts.flags.writeable = False
        w.flags.writeable = False
        self.points = pts
        self.weights = w

    @property
    def atom_count(self) -> int:
        return self.points.shape[0]

    # JSON schema: {"atoms": [{"x": [x, y, z], "w": weight}, ...]}

    def to_json_dict(self) -> dict:
        return {
            "atoms": [
                {"x": [float(v) for v in x], "w": float(w)}
                for x, w in zip(self.points, self.weights)
            ]
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict()) + "\n"

    @classmethod
    def from_json_dict(cls, data) -> "SphereMeasure":
        if not isinstance(data, dict) or "atoms" not in data:
            raise InvalidInput('sphere document needs key "atoms"')
        atoms = data["atoms"]
        if not isinstance(atoms, list) or not atoms:
            raise InvalidInput('"atoms" must be a non-empty list')
        pts, ws = [], []
        for entry in atoms:
            if not isinstance(entry, dict) or "x" not in entry or "w" not in entry:
                raise InvalidInput('each sphere atom needs keys "x" and "w"')
            x = entry["x"]
            if (
                not isinstance(x, list)
                or len(x) != 3
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in x)
            ):
                raise InvalidInput('sphere atom "x" must be a list of 3 numbers')
            w = entry["w"]
            if isinstance(w, bool) or not isinstance(w, (int, float)):
                raise InvalidInput('sphere atom "w" must be a number')
            pts.append([float(v) for v in x])
            ws.append(float(w))
        return cls(np.array(pts), np.array(ws))

    @classmethod
    def from_json(cls, text: str) -> "SphereMeasure":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(data)


def sphere_rows_to_projective(x: np.ndarray) -> np.ndarray:
    """sphere_point_to_projective on rows; the results are not phase-canonical yet."""
    x = np.asarray(x, dtype=float)
    # One norm call per row: np.linalg.norm(x, axis=1) differs in the last bit.
    nrm = np.array([float(np.linalg.norm(row)) for row in x])
    if np.any(np.abs(nrm - 1.0) > POINT_NORM_TOL):
        raise InvalidInput("sphere point must have unit norm")
    x = x / nrm[:, None]
    cos_half = np.sqrt(np.maximum(0.0, (1.0 + x[:, 2]) / 2.0))
    sin_half = np.sqrt(np.maximum(0.0, (1.0 - x[:, 2]) / 2.0))
    phase = np.exp(1j * np.arctan2(x[:, 1], x[:, 0]))
    return np.stack([cos_half, phase * sin_half], axis=1)


def sphere_point_to_projective(x) -> ProjectivePoint:
    """(sin t cos f, sin t sin f, cos t) -> [cos(t/2) : e^(if) sin(t/2)]."""
    return ProjectivePoint(sphere_rows_to_projective(np.reshape(x, (1, 3)))[0])


def projective_point_to_sphere(p: ProjectivePoint) -> np.ndarray:
    """Inverse identification: the Bloch image of a point of CP^1."""
    if p.dim != 1:
        raise InvalidInput("only points of CP^1 correspond to sphere points")
    z0, z1 = p.coeffs
    cross = z0 * np.conj(z1)
    return np.array(
        [2.0 * cross.real, -2.0 * cross.imag, abs(z0) ** 2 - abs(z1) ** 2]
    )


def to_projective(sm: SphereMeasure) -> AtomicMeasure:
    """Pushforward of a spherical measure under the CP^1 identification."""
    return AtomicMeasure(sphere_rows_to_projective(sm.points), sm.weights)


def bloch(m: np.ndarray) -> np.ndarray:
    """(2 Re m01, -2 Im m01, m00 - m11) for a 2x2 traceless Hermitian m."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise InvalidInput("bloch expects a 2x2 matrix")
    return np.array(
        [2.0 * m[0, 1].real, -2.0 * m[0, 1].imag, (m[0, 0] - m[1, 1]).real]
    )


def center_of_mass(sm: SphereMeasure) -> np.ndarray:
    """Euclidean center of mass sum_i w_i x_i (a point of the closed ball)."""
    return np.asarray(sm.weights @ sm.points, dtype=float)


def hersch_balance(
    sm: SphereMeasure,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[GroupElement, BalanceResult, np.ndarray]:
    """Mobius-center a spherical measure: drive its center of mass to 0.

    Classifies the CP^1 image first: a measure with an atom of mass > 1/2 is
    uncenterable and returns a diverged result certifying that atom.
    Otherwise the projective measure is balanced and the final center of
    mass of the transported measure is returned along with the Mobius
    transformation (as an element of SL(2, C)).
    """
    check_max_iter(max_iter)
    check_tol("tol", tol)
    nu = to_projective(sm)
    verdict = classify(nu, cap=max(16, nu.atom_count))
    if verdict.kind is StabilityKind.UNSTABLE:
        mom = momentum(nu).m
        residual = float(np.linalg.norm(mom))
        result = BalanceResult(
            g=GroupElement.identity(1),
            residual=residual,
            iterations=0,
            trace=[(0, residual, 0.0)],
            verdict=VERDICT_DIVERGED,
            certificate=verdict.certificate,
        )
        return GroupElement.identity(1), result, bloch(mom)
    result = balance(nu, tol=tol, max_iter=max_iter)
    if result.verdict == VERDICT_CONVERGED:
        moved = pushforward(result.g, nu)
        final_com = bloch(momentum(moved).m)
    else:
        final_com = bloch(momentum(nu).m)
    return result.g, result, final_com
