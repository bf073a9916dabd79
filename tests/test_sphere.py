"""Sphere bridge: Bloch identification, center of mass, Mobius centering."""

import numpy as np
import pytest

from measure_balancer import (
    AtomicMeasure,
    InvalidInput,
    SphereMeasure,
    VERDICT_CONVERGED,
    VERDICT_DIVERGED,
    bloch,
    center_of_mass,
    classify,
    hersch_balance,
    momentum,
    projective_point_to_sphere,
    pushforward,
    sphere_point_to_projective,
    to_projective,
)

from measure_balancer.sphere import sphere_rows_to_projective

from helpers import reference_sphere_point, rng

NORTH = [0.0, 0.0, 1.0]
SOUTH = [0.0, 0.0, -1.0]
EAST = [1.0, 0.0, 0.0]


def sphere_measure(points, weights):
    return SphereMeasure(np.array(points, dtype=float), weights)


def random_sphere_measure(r, m):
    pts = r.normal(size=(m, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    w = r.dirichlet(np.full(m, 3.0))
    return SphereMeasure(pts, w)


# ---------------------------------------------------------------------------
# the identification with CP^1


def test_pole_identification_frozen_values():
    assert np.allclose(sphere_point_to_projective(NORTH).coeffs, [1.0, 0.0])
    assert np.allclose(sphere_point_to_projective(SOUTH).coeffs, [0.0, 1.0])
    p = sphere_point_to_projective(EAST)
    assert np.allclose(p.coeffs, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)
    q = sphere_point_to_projective([0.0, 1.0, 0.0])
    assert np.allclose(q.coeffs, [1 / np.sqrt(2), 1j / np.sqrt(2)], atol=1e-15)


def test_identification_round_trips():
    r = rng(60)
    for _ in range(25):
        x = r.normal(size=3)
        x /= np.linalg.norm(x)
        back = projective_point_to_sphere(sphere_point_to_projective(x))
        assert np.allclose(back, x, atol=1e-12)
        assert np.linalg.norm(back) == pytest.approx(1.0, abs=1e-12)


def test_identification_is_an_isometry_of_antipodes():
    # Antipodal sphere points map to orthogonal projective points.
    r = rng(61)
    x = r.normal(size=3)
    x /= np.linalg.norm(x)
    p = sphere_point_to_projective(x)
    q = sphere_point_to_projective(-x)
    assert p.overlap(q) == pytest.approx(0.0, abs=1e-12)


def test_sphere_rows_are_bit_equal_to_the_per_point_map():
    r = rng(65)
    pts = r.normal(size=(60, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts = np.vstack([NORTH, SOUTH, EAST, [0.0, -1.0, 0.0], pts])
    drifted = pts * (1.0 + r.uniform(-5e-7, 5e-7, size=(pts.shape[0], 1)))
    for x in (pts, drifted):
        expected = np.array([reference_sphere_point(row) for row in x])
        rows = AtomicMeasure(sphere_rows_to_projective(x), np.full(len(x), 1 / len(x))).coeffs
        assert np.array_equal(rows, expected)
        sm = SphereMeasure(x, np.full(len(x), 1 / len(x)))
        assert np.array_equal(to_projective(sm).coeffs, [reference_sphere_point(p) for p in sm.points])


def test_non_unit_sphere_point_is_rejected():
    from measure_balancer import ProjectivePoint

    with pytest.raises(InvalidInput):
        sphere_point_to_projective([0.0, 0.0, 2.0])
    with pytest.raises(InvalidInput):  # wrong projective dimension
        projective_point_to_sphere(ProjectivePoint([1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# Bloch vector and center of mass


def test_bloch_frozen_value():
    assert np.allclose(bloch(np.diag([0.5, -0.5])), NORTH, atol=1e-15)
    m = np.array([[0.0, 0.5], [0.5, 0.0]])
    assert np.allclose(bloch(m), EAST, atol=1e-15)


def test_bloch_rejects_wrong_shape():
    with pytest.raises(InvalidInput):
        bloch(np.eye(3) / 3.0)


def test_center_of_mass_frozen_value():
    sm = sphere_measure([NORTH, SOUTH, EAST], [0.5, 0.25, 0.25])
    assert np.allclose(center_of_mass(sm), [0.25, 0.0, 0.25], atol=1e-15)


def test_equilateral_equator_has_zero_center_of_mass():
    pts = [
        [1.0, 0.0, 0.0],
        [-0.5, np.sqrt(3) / 2, 0.0],
        [-0.5, -np.sqrt(3) / 2, 0.0],
    ]
    sm = sphere_measure(pts, [1 / 3] * 3)
    assert np.linalg.norm(center_of_mass(sm)) == pytest.approx(0.0, abs=1e-16)


def test_center_of_mass_equals_bloch_of_momentum():
    r = rng(62)
    for _ in range(10):
        sm = random_sphere_measure(r, 6)
        com = center_of_mass(sm)
        via_momentum = bloch(momentum(to_projective(sm)).m)
        assert np.allclose(com, via_momentum, atol=1e-12)


def test_com_norm_is_sqrt2_momentum_norm():
    r = rng(63)
    sm = random_sphere_measure(r, 5)
    com = center_of_mass(sm)
    mom = momentum(to_projective(sm))
    assert np.linalg.norm(com) == pytest.approx(np.sqrt(2.0) * mom.norm, abs=1e-13)


# ---------------------------------------------------------------------------
# SphereMeasure validation and serialization


def test_sphere_measure_validates_input():
    with pytest.raises(InvalidInput):
        sphere_measure([[0.0, 0.0, 2.0]], [1.0])  # not unit
    with pytest.raises(InvalidInput):
        sphere_measure([NORTH, SOUTH], [0.7, 0.7])  # weights sum 1.4
    with pytest.raises(InvalidInput):
        sphere_measure([NORTH], [-1.0])
    with pytest.raises(InvalidInput):
        SphereMeasure(np.empty((0, 3)), [])


def test_sphere_json_round_trip_is_byte_idempotent():
    raw = """
    {"atoms": [
      {"x": [0.0, 0.0, 1.0], "w": 0.5},
      {"x": [0.6, 0.0, 0.8], "w": 0.5}
    ]}
    """
    text1 = SphereMeasure.from_json(raw).to_json()
    text2 = SphereMeasure.from_json(text1).to_json()
    assert text1 == text2


@pytest.mark.filterwarnings("error")
def test_sphere_json_rejects_malformed():
    with pytest.raises(InvalidInput):
        SphereMeasure.from_json("[1, 2, 3]")
    with pytest.raises(InvalidInput):
        SphereMeasure.from_json('{"atoms": [{"x": [1.0, 0.0], "w": 1.0}]}')
    with pytest.raises(InvalidInput, match='sphere atom "x" must be a list of 3 numbers'):
        SphereMeasure.from_json('{"atoms": [{"x": [0, 0, 1, 0], "w": 1}]}')
    huge = "1" + "0" * 400  # an integer literal beyond the float range
    for value in ("true", "false", huge, "-" + huge, '"1.0"', "null", "NaN", "-Infinity", "[0]"):
        with pytest.raises(InvalidInput, match=r"atoms\[0\]\.x\[1\] must be a finite number"):
            SphereMeasure.from_json(f'{{"atoms": [{{"x": [0, {value}, 1], "w": 1}}]}}')
        with pytest.raises(InvalidInput, match=r"atoms\[0\]\.w must be a finite number"):
            SphereMeasure.from_json(f'{{"atoms": [{{"x": [0, 0, 1], "w": {value}}}]}}')


def test_sphere_and_projective_measures_share_the_weight_rule():
    for weights in ([0.7, 0.7], [1.0, -0.0], [np.nan, 1.0], [1.0], [0.5, 0.5 + 2e-6]):
        with pytest.raises(InvalidInput) as projective:
            AtomicMeasure(np.eye(2), weights)
        with pytest.raises(InvalidInput) as spherical:
            sphere_measure([NORTH, SOUTH], weights)
        assert str(spherical.value) == str(projective.value)
    drift = [0.5, 0.5 + 1e-9]  # within WEIGHT_SUM_TOL: divided by the sum
    spherical = sphere_measure([NORTH, SOUTH], drift).weights
    assert spherical.tobytes() == AtomicMeasure(np.eye(2), drift).weights.tobytes()


# ---------------------------------------------------------------------------
# Mobius centering


def test_hersch_balance_centers_an_offcenter_measure():
    sm = sphere_measure([NORTH, SOUTH, EAST], [0.45, 0.3, 0.25])
    mobius, result, final_com = hersch_balance(sm, tol=5e-11)
    assert result.verdict == VERDICT_CONVERGED
    assert np.linalg.norm(final_com) <= 1e-10
    assert mobius.g.shape == (2, 2)
    assert abs(np.linalg.det(mobius.g) - 1.0) < 1e-10


def test_hersch_balance_final_com_matches_moved_atoms():
    sm = sphere_measure([NORTH, SOUTH, EAST], [0.45, 0.3, 0.25])
    mobius, result, final_com = hersch_balance(sm, tol=5e-11)
    moved = pushforward(mobius, to_projective(sm))
    recomputed = np.zeros(3)
    for p, w in moved.atoms:
        recomputed += w * projective_point_to_sphere(p)
    assert np.allclose(recomputed, final_com, atol=1e-10)


def test_hersch_balance_leaves_centered_measure_alone():
    pts = [
        [1.0, 0.0, 0.0],
        [-0.5, np.sqrt(3) / 2, 0.0],
        [-0.5, -np.sqrt(3) / 2, 0.0],
    ]
    sm = sphere_measure(pts, [1 / 3] * 3)
    mobius, result, final_com = hersch_balance(sm)
    assert result.verdict == VERDICT_CONVERGED
    assert result.iterations == 0
    assert np.allclose(mobius.g, np.eye(2), atol=1e-12)


def test_hersch_balance_detects_dominant_atom():
    sm = sphere_measure([NORTH, SOUTH], [0.6, 0.4])
    mobius, result, com = hersch_balance(sm)
    assert result.verdict == VERDICT_DIVERGED
    assert result.certificate is not None
    assert result.certificate.mass == pytest.approx(0.6, abs=1e-12)
    # the certificate atom is the north pole
    cert_point = result.certificate.spanning_points()[0]
    assert np.allclose(projective_point_to_sphere(cert_point), NORTH, atol=1e-12)
    # the reported center of mass is the untouched one
    assert np.allclose(com, center_of_mass(sm), atol=1e-15)


def test_hersch_balance_works_for_heavy_but_legal_atom():
    # mass 0.45 < 1/2 at the north pole plus scattered small atoms
    r = rng(64)
    rest = r.normal(size=(4, 3))
    rest /= np.linalg.norm(rest, axis=1)[:, None]
    pts = np.vstack([[0.0, 0.0, 1.0], rest])
    w = np.concatenate([[0.45], np.full(4, 0.55 / 4)])
    sm = SphereMeasure(pts, w)
    assert classify(to_projective(sm)).margin > 0
    mobius, result, final_com = hersch_balance(sm, tol=5e-11)
    assert result.verdict == VERDICT_CONVERGED
    assert np.linalg.norm(final_com) <= 1e-10
