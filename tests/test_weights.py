"""Maximal weights, flow strata, and destabilizing directions."""

import numpy as np
import pytest

from measure_balancer import (
    AtomicMeasure,
    EmptySpan,
    InvalidInput,
    ProjectivePoint,
    SpanIsFull,
    destabilizing_direction,
    lambda_closed_form,
    lambda_via_flow,
    maximal_weight,
    span_basis,
    spectral_decompose,
)

from measure_balancer.geometry import flow_strata

from helpers import (
    gapped_pair,
    random_measure,
    random_unitary,
    random_vector,
    reference_lambda_via_flow,
    reference_strata,
    rng,
    unstable_measure,
)


def measure_on(rows, weights):
    return AtomicMeasure([ProjectivePoint(z) for z in rows], weights)


# ---------------------------------------------------------------------------
# maximal weight


def test_maximal_weight_frozen_three_point_value():
    nu = measure_on([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1 / 3, 1 / 3, 1 / 3])
    d = spectral_decompose(np.diag([1.0, -1.0]))
    report = maximal_weight(nu, d)
    # [0:1] flows to the low stratum; [1:0] and [1:1] flow to the high one.
    assert np.allclose(report.masses, [1 / 3, 2 / 3])
    assert report.lam == pytest.approx(1 / 3, abs=1e-15)
    assert report.stratum_masses == [
        (pytest.approx(-1.0), pytest.approx(1 / 3)),
        (pytest.approx(1.0), pytest.approx(2 / 3)),
    ]


def test_maximal_weight_frozen_dirac_value():
    nu = measure_on([[1.0, 0.0]], [1.0])
    d = spectral_decompose(np.diag([-1.0, 1.0]))
    report = maximal_weight(nu, d)
    assert report.lam == pytest.approx(-1.0, abs=1e-15)
    assert np.allclose(report.masses, [1.0, 0.0])


def test_maximal_weight_total_mass_is_one():
    r = rng(20)
    for n in (1, 2, 3):
        nu, d = gapped_pair(r, n, 5)
        report = maximal_weight(nu, d)
        assert report.masses.sum() == pytest.approx(1.0, abs=1e-12)
        assert report.masses.min() >= 0.0


def test_maximal_weight_scales_linearly_in_direction():
    r = rng(21)
    nu, d = gapped_pair(r, 2, 5)
    lam = maximal_weight(nu, d).lam
    lam2 = maximal_weight(nu, d.scaled(3.0)).lam
    assert lam2 == pytest.approx(3.0 * lam, abs=1e-12)


def test_flow_estimate_matches_maximal_weight():
    r = rng(22)
    for n in (1, 2, 3):
        nu, d = gapped_pair(r, n, 6)
        lam = maximal_weight(nu, d).lam
        approx = lambda_via_flow(nu, d, t_max=40.0)
        assert approx == pytest.approx(lam, abs=1e-6)


def repeated_eigenvalue_direction(r, k):
    """Direction with a doubled top eigenvalue (k >= 3) or a simple spectrum."""
    vals = np.sort(r.normal(size=k))
    if k >= 3:
        vals[-2] = vals[-1]
    v = random_unitary(r, k)
    return spectral_decompose(v @ np.diag(vals - vals.mean()) @ v.conj().T)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_row_flow_matches_the_per_atom_reference(n):
    r = rng(90 + n)
    cases = [gapped_pair(r, n, 7) for _ in range(3)]
    cases += [(random_measure(r, n, 9), repeated_eigenvalue_direction(r, n + 1)) for _ in range(3)]
    for nu, d in cases:
        assert np.array_equal(flow_strata(nu.coeff_matrix(), d), reference_strata(nu, d))
        # atoms in a lower eigenspace, off it by a 1e-5 top component or by rounding alone
        top = d.projectors[-1]
        rows = [
            proj @ random_vector(r, n + 1) + eps * (top @ random_vector(r, n + 1))
            for proj in d.projectors[:-1]
            for eps in (0.0, 1e-5)
        ]
        near = AtomicMeasure(rows, np.full(len(rows), 1 / len(rows)))
        assert np.array_equal(flow_strata(near.coeff_matrix(), d), reference_strata(near, d))
        for t in (0.0, 1.0, 40.0, 400.0):
            flow = lambda_via_flow(nu, d, t_max=t)
            assert abs(flow - reference_lambda_via_flow(nu, d, t)) <= 1e-13


# ---------------------------------------------------------------------------
# span bases


def test_span_basis_of_two_coordinate_points():
    basis = span_basis([ProjectivePoint([1.0, 0, 0]), ProjectivePoint([0, 1.0, 0])])
    assert basis.shape == (3, 2)
    assert np.allclose(basis.conj().T @ basis, np.eye(2), atol=1e-12)
    for col in basis.T:
        assert abs(col[2]) < 1e-12  # spans only the first two coordinates


def test_span_basis_deduplicates_dependent_points():
    basis = span_basis([ProjectivePoint([1.0, 0]), ProjectivePoint([2.0, 0])])
    assert basis.shape == (2, 1)


def test_span_basis_rejects_empty_input():
    with pytest.raises(EmptySpan):
        span_basis([])


# ---------------------------------------------------------------------------
# destabilizing directions


def test_destabilizing_direction_frozen_value():
    d = destabilizing_direction([ProjectivePoint([1.0, 0.0])])
    # d = 0 in CP^1: eigenvalue d - n = -1 on the span, d + 1 = 1 elsewhere.
    assert np.allclose(d.a, np.diag([-1.0, 1.0]), atol=1e-14)


def test_destabilizing_direction_is_traceless():
    r = rng(23)
    pts = [ProjectivePoint(r.normal(size=4) + 1j * r.normal(size=4)) for _ in range(2)]
    d = destabilizing_direction(pts)
    assert abs(np.trace(d.a)) < 1e-12
    assert np.allclose(d.eigenvalues, [1 - 3, 1 + 1])  # d=1, n=3


def test_destabilizing_direction_accepts_raw_vectors():
    d = destabilizing_direction([np.array([0.0, 1.0, 0.0])], n=2)
    assert np.allclose(sorted(np.diag(d.a).real), [-2.0, 1.0, 1.0], atol=1e-14)


def test_destabilizing_direction_columns_are_the_span_and_its_complement(monkeypatch):
    r = rng(25)
    vectors = [random_vector(r, 5) for _ in range(2)]
    q = span_basis([ProjectivePoint(v) for v in vectors])  # the per-point path
    built = []
    post_init = ProjectivePoint.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ProjectivePoint, "__post_init__", counted)
    d = destabilizing_direction(vectors)
    assert built == []
    assert np.array_equal(d.vecs[:, :2], q)
    assert np.allclose(d.vecs.conj().T @ d.vecs, np.eye(5), atol=1e-13)
    low, high = d.projectors
    assert np.allclose(low, q @ q.conj().T, atol=1e-13)
    assert np.allclose(d.a, -3.0 * low + 2.0 * high, atol=1e-13)  # d = 1, n = 4
    assert tuple(d.multiplicities) == (2, 3)


def test_destabilizing_direction_rejects_full_span():
    with pytest.raises(SpanIsFull):
        destabilizing_direction(
            [ProjectivePoint([1.0, 0.0]), ProjectivePoint([0.0, 1.0])]
        )


def test_destabilizing_direction_rejects_dimension_mismatch():
    with pytest.raises(InvalidInput):
        destabilizing_direction([np.array([1.0, 0.0])], n=2)


def test_points_of_different_dimensions_are_an_input_error():
    with pytest.raises(InvalidInput, match="same CP"):
        destabilizing_direction([[1, 0], [1, 0, 0]])
    with pytest.raises(InvalidInput, match="same CP"):
        span_basis([ProjectivePoint([1.0, 0.0]), ProjectivePoint([1.0, 0.0, 0.0])])


# ---------------------------------------------------------------------------
# closed form


def test_lambda_closed_form_frozen_value():
    nu = measure_on([[1.0, 0.0]], [1.0])
    assert lambda_closed_form(nu, 1.0, 0) == pytest.approx(-1.0)


def test_closed_form_matches_maximal_weight_on_planted_subspace():
    r = rng(24)
    for n in (1, 2, 3):
        nu, inside, mass_in, d = unstable_measure(r, n)
        direction = destabilizing_direction(inside, n=n)
        lam = maximal_weight(nu, direction).lam
        assert lam == pytest.approx(
            lambda_closed_form(nu, mass_in, d), abs=1e-10
        )
        assert lam < 0.0
