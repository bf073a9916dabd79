"""Projective points, group elements, directions, and one-parameter flows."""

import numpy as np
import pytest

from measure_balancer import (
    GroupElement,
    InvalidInput,
    NumericalDegeneracy,
    ProjectivePoint,
    SpectralDirection,
    ZeroDirection,
    act_point,
    direction_from_projectors,
    flow_limit,
    flow_point,
    fs_distance,
    herm_exp,
    momentum_of_point,
    mu_component,
    random_direction_matrices,
    random_directions,
    spectral_decompose,
    traceless_hermitian_basis,
)
from measure_balancer.geometry import rows_in_nested_spans, rows_in_span, spectral_decompose_stack

from helpers import (
    hermitian_exp,
    random_point,
    random_traceless_hermitian,
    random_unitary,
    reference_random_direction_matrices,
    reference_spectral_decompose,
    rng,
)


# ---------------------------------------------------------------------------
# ProjectivePoint


def test_point_normalizes_to_unit_norm_positive_pivot():
    p = ProjectivePoint([3.0, 4.0])
    assert np.allclose(p.coeffs, [0.6, 0.8], atol=0)
    q = ProjectivePoint([3j, 4j])  # global phase must be stripped
    assert np.allclose(q.coeffs, [0.6, 0.8], atol=1e-15)


def test_point_canonical_form_is_idempotent():
    r = rng(0)
    for _ in range(20):
        p = random_point(r, 4)
        again = ProjectivePoint(p.coeffs)
        assert np.array_equal(again.coeffs, p.coeffs)  # exact, bit for bit


def test_point_rejects_zero_vector():
    with pytest.raises(NumericalDegeneracy):
        ProjectivePoint([0.0, 0.0, 0.0])


def test_point_dim_and_overlap():
    p = ProjectivePoint([1.0, 0.0])
    q = ProjectivePoint([0.0, 1.0])
    assert p.dim == 1
    assert p.overlap(q) == pytest.approx(0.0, abs=1e-15)
    assert p.overlap(p) == pytest.approx(1.0, abs=1e-15)
    assert p.isclose(ProjectivePoint([2.0, 0.0]))
    assert not p.isclose(q)


def test_fs_distance_extremes():
    p = ProjectivePoint([1.0, 0.0])
    q = ProjectivePoint([0.0, 1.0])
    h = ProjectivePoint([1.0, 1.0])
    assert fs_distance(p, q) == pytest.approx(np.pi / 2.0, abs=1e-12)
    assert fs_distance(p, p) == pytest.approx(0.0, abs=1e-12)
    assert fs_distance(p, h) == pytest.approx(np.pi / 4.0, abs=1e-12)


def test_phase_invariance_of_distance():
    r = rng(1)
    p = random_point(r, 3)
    q = random_point(r, 3)
    q2 = ProjectivePoint(np.exp(0.7j) * q.coeffs)
    assert fs_distance(p, q) == pytest.approx(fs_distance(p, q2), abs=1e-12)


# ---------------------------------------------------------------------------
# momentum of a point


def test_momentum_of_point_frozen_value():
    p = ProjectivePoint([1.0, 0.0])
    expected = np.array([[0.5, 0.0], [0.0, -0.5]])
    assert np.allclose(momentum_of_point(p).m, expected, atol=1e-15)


def test_momentum_of_point_is_traceless_hermitian():
    r = rng(2)
    for _ in range(10):
        m = momentum_of_point(random_point(r, 3)).m
        assert abs(np.trace(m)) < 1e-14
        assert np.linalg.norm(m - m.conj().T) < 1e-14


def test_mu_component_frozen_values():
    d = spectral_decompose(np.diag([1.0, -1.0]))
    assert mu_component(ProjectivePoint([1.0, 0.0]), d) == pytest.approx(1.0)
    assert mu_component(ProjectivePoint([1.0, 1.0]), d) == pytest.approx(0.0, abs=1e-15)
    # |z0|^2 - |z1|^2 = (1 - 4) / 5
    assert mu_component(ProjectivePoint([1.0, 2.0]), d) == pytest.approx(-0.6)


def test_mu_component_matches_pairing():
    r = rng(3)
    p = random_point(r, 3)
    d = random_directions(1, 2, seed=17)[0]
    assert mu_component(p, d) == pytest.approx(
        momentum_of_point(p).pairing(d), abs=1e-13
    )


# ---------------------------------------------------------------------------
# group elements and actions


def test_group_element_renormalizes_determinant():
    g = GroupElement(np.diag([2.0, 1.0]))
    assert np.linalg.det(g.g) == pytest.approx(1.0, abs=1e-12)


def test_group_action_frozen_value():
    g = GroupElement(np.diag([2.0, 0.5]))
    p = act_point(g, ProjectivePoint([1.0, 1.0]))
    assert p.isclose(ProjectivePoint([4.0, 1.0]))


def test_group_action_checks_the_size_of_g():
    with pytest.raises(InvalidInput):
        act_point(GroupElement.identity(2), ProjectivePoint([1.0, 0.0]))


def test_group_inverse_and_compose():
    r = rng(4)
    a = r.normal(size=(3, 3)) + 1j * r.normal(size=(3, 3))
    g = GroupElement(a)
    gid = g.compose(g.inverse())
    assert np.allclose(gid.g, np.eye(3), atol=1e-12)


def test_from_hermitian_matches_local_exponential():
    r = rng(5)
    a = r.normal(size=(3, 3)) + 1j * r.normal(size=(3, 3))
    a = (a + a.conj().T) / 2.0
    a = a - np.eye(3) * np.trace(a).real / 3.0
    g = GroupElement.from_hermitian(a)
    assert np.allclose(g.g, hermitian_exp(a), atol=1e-12)


def test_herm_exp_diagonal():
    e = herm_exp(np.diag([1.0, -1.0]))
    assert np.allclose(e, np.diag([np.e, 1.0 / np.e]), atol=1e-14)


def test_group_element_rejects_singular():
    with pytest.raises(InvalidInput):
        GroupElement(np.zeros((2, 2)))


@pytest.mark.parametrize(
    "g",
    [
        np.diag([1e200, 1e200, 1.0]),  # the determinant overflows
        np.diag([1e300, 1e-300, 1e-100]),  # finite determinant, normalization overflows
    ],
)
def test_group_element_rejects_an_overflowing_normalization(g):
    with pytest.raises(InvalidInput):
        GroupElement(g)


# ---------------------------------------------------------------------------
# spectral directions


def test_spectral_decompose_frozen_two_level():
    d = spectral_decompose(np.diag([1.0, -1.0]))
    assert np.allclose(d.eigenvalues, [-1.0, 1.0])
    assert np.allclose(d.projectors[0], np.diag([0.0, 1.0]))
    assert np.allclose(d.projectors[1], np.diag([1.0, 0.0]))
    assert d.levels == 2
    assert tuple(d.multiplicities) == (1, 1)


def test_spectral_decompose_clusters_repeated_eigenvalue():
    d = spectral_decompose(np.diag([1.0, 1.0, -2.0]))
    assert np.allclose(d.eigenvalues, [-2.0, 1.0])
    assert tuple(d.multiplicities) == (1, 2)
    assert np.allclose(d.projectors[1], np.diag([1.0, 1.0, 0.0]))


def test_spectral_decompose_merges_tiny_gaps():
    eps = 1e-13
    d = spectral_decompose(np.diag([1.0 + eps, 1.0 - eps, -2.0]))
    assert d.levels == 2


def test_spectral_decompose_rejects_bad_input():
    with pytest.raises(InvalidInput):
        spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(InvalidInput):
        spectral_decompose(np.diag([1.0, 1.0]))  # not traceless
    with pytest.raises(ZeroDirection):
        spectral_decompose(np.zeros((2, 2)))


def test_direction_reconstructs_from_projectors():
    d = random_directions(1, 3, seed=23)[0]
    d2 = direction_from_projectors(d.eigenvalues, d.projectors, d.multiplicities)
    assert np.allclose(d2.a, d.a, atol=1e-12)


def with_eigenvalues(r, values) -> np.ndarray:
    """A randomly rotated matrix with the given eigenvalues, shifted to trace 0."""
    v = random_unitary(r, len(values))
    return v @ np.diag(np.asarray(values) - np.mean(values)) @ v.conj().T


def test_stack_decomposition_matches_the_per_matrix_reference():
    r = rng(50)
    stacks = {k: [random_traceless_hermitian(r, k) for _ in range(6)] for k in range(2, 7)}
    stacks[4].append(with_eigenvalues(r, [1.0, 1.0, -2.0, 0.5]))  # a repeated eigenvalue
    stacks[3].append(with_eigenvalues(r, [1.0 + 1e-13, 1.0 - 1e-13, -2.0]))  # gap inside CLUSTER_TOL
    stacks[12] = [  # one cluster of multiplicity 10
        with_eigenvalues(r, np.concatenate([[-4.0, -3.0], 1.0 + 1e-12 * r.uniform(-1, 1, 10)]))
        for _ in range(6)
    ]
    for k, mats in stacks.items():
        for d, a in zip(spectral_decompose_stack(np.array(mats)), mats, strict=True):
            ref_a, eigenvalues, projectors, multiplicities = reference_spectral_decompose(a)
            assert np.array_equal(d.a, ref_a)
            assert np.array_equal(d.eigenvalues, eigenvalues)
            assert np.array_equal(d.multiplicities, multiplicities)
            for p, q in zip(d.projectors, projectors, strict=True):
                assert np.abs(p - q).max() <= 1e-14
            if k == 12:
                assert tuple(d.multiplicities) == (1, 1, 10)
    # At multiplicity 10 np.mean's pairwise sum and a sequential sum part ways,
    # so the bit-equality above does test how the cluster means are reduced.
    tops = [np.linalg.eigh(a)[0][2:] for a in stacks[12]]
    assert any(np.mean(t) != sum(t[1:], t[0]) / t.size for t in tops)


def test_stack_decomposition_rejects_a_stack_with_one_bad_matrix():
    good = random_traceless_hermitian(rng(51), 3)
    for bad, error in (
        (np.triu(good), InvalidInput),  # not Hermitian
        (good + np.eye(3), InvalidInput),  # not traceless
        (np.zeros((3, 3)), ZeroDirection),
        (np.full((3, 3), np.nan), InvalidInput),
    ):
        with pytest.raises(error):
            spectral_decompose_stack(np.array([good, bad, good]))


@pytest.mark.parametrize("size", [2, 3, 5, 8, 17, 31])
def test_sampler_draws_match_the_per_direction_reference(size):
    assert np.array_equal(
        random_direction_matrices(20, size, seed=size),
        reference_random_direction_matrices(20, size, seed=size),
    )


def test_sampler_rejects_a_negative_seed():
    with pytest.raises(InvalidInput, match="seed"):
        random_direction_matrices(3, 2, seed=-1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("size", [0, 1])
def test_sampler_rejects_a_size_below_two_before_drawing(size):
    with pytest.raises(InvalidInput, match="size >= 2"):
        random_direction_matrices(3, size)
    with pytest.raises(InvalidInput, match="size >= 2"):
        random_directions(3, size - 1)


def test_direction_from_projectors_recovers_the_eigenvector_columns():
    d = random_directions(1, 3, seed=23)[0]
    d2 = direction_from_projectors(d.eigenvalues, d.projectors, d.multiplicities)
    assert np.allclose(d2.vecs.conj().T @ d2.vecs, np.eye(4), atol=1e-13)
    for p, q in zip(d2.projectors, d.projectors, strict=True):
        assert np.allclose(p, q, atol=1e-13)


def test_direction_scaled_keeps_projectors():
    d = spectral_decompose(np.diag([1.0, -1.0]))
    s = d.scaled(2.5)
    assert np.allclose(s.eigenvalues, [-2.5, 2.5])
    assert np.allclose(s.a, np.diag([2.5, -2.5]))


# ---------------------------------------------------------------------------
# flows


def test_flow_limit_frozen_value():
    d = spectral_decompose(np.diag([1.0, -1.0]))
    idx, limit = flow_limit(ProjectivePoint([1.0, 1.0]), d)
    assert idx == 1  # highest eigenvalue cluster
    assert limit.isclose(ProjectivePoint([1.0, 0.0]))


def test_flow_limit_skips_absent_component():
    d = spectral_decompose(np.diag([1.0, -1.0]))
    idx, limit = flow_limit(ProjectivePoint([0.0, 1.0]), d)
    assert idx == 0
    assert limit.isclose(ProjectivePoint([0.0, 1.0]))


def test_flow_point_matches_direct_exponential():
    r = rng(6)
    d = random_directions(1, 2, seed=31)[0]
    p = random_point(r, 3)
    for t in (0.0, 0.5, 3.0):
        direct = ProjectivePoint(hermitian_exp(t * d.a) @ p.coeffs)
        assert flow_point(p, d, t).isclose(direct, tol=1e-10)


def test_flow_point_converges_to_flow_limit():
    r = rng(7)
    d = random_directions(1, 3, seed=37)[0]
    p = random_point(r, 4)
    _, limit = flow_limit(p, d)
    assert flow_point(p, d, 60.0).isclose(limit, tol=1e-9)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
def test_flow_point_rejects_a_non_finite_time(t):
    d = spectral_decompose(np.diag([1.0, -1.0]))
    with pytest.raises(InvalidInput, match="flow time t must be finite"):
        flow_point(ProjectivePoint([1.0, 1.0]), d, t)


def test_flow_point_never_overflows_for_large_times():
    d = spectral_decompose(np.diag([2.0, -2.0]))
    # exp(1000) would overflow naively; [0:1] has no component on the top
    # eigenvalue, where inf * 0 would make a NaN.
    for z, limit in (([1.0, 1.0], [1.0, 0.0]), ([0.0, 1.0], [0.0, 1.0])):
        q = flow_point(ProjectivePoint(z), d, 500.0)
        assert q.isclose(ProjectivePoint(limit))


# ---------------------------------------------------------------------------
# direction bases and samplers


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_traceless_basis_is_orthonormal_and_complete(size):
    basis = traceless_hermitian_basis(size)
    assert len(basis) == size * size - 1
    for i, a in enumerate(basis):
        assert abs(np.trace(a)) < 1e-12
        assert np.linalg.norm(a - a.conj().T) < 1e-12
        for j, b in enumerate(basis):
            want = 1.0 if i == j else 0.0
            assert np.trace(a @ b).real == pytest.approx(want, abs=1e-12)


def test_random_directions_are_unit_norm_traceless_and_seeded():
    ds1 = random_directions(5, 2, seed=11)
    ds2 = random_directions(5, 2, seed=11)
    for d1, d2 in zip(ds1, ds2):
        assert np.array_equal(d1.a, d2.a)  # determinism, bit for bit
        assert np.linalg.norm(d1.a) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.trace(d1.a)) < 1e-12
    ds3 = random_directions(5, 2, seed=12)
    assert not np.allclose(ds1[0].a, ds3[0].a)


def test_unitary_conjugation_preserves_spectrum():
    u = random_unitary(rng(8), 3)
    d = random_directions(1, 2, seed=41)[0]
    d2 = spectral_decompose(u @ d.a @ u.conj().T)
    assert np.allclose(d2.eigenvalues, d.eigenvalues, atol=1e-10)


def test_nested_span_masks_match_one_membership_test_per_span():
    # Rows lie in span(v_0 .. v_(j-1)) for a drawn j, then move off it by
    # 0 or 1e-6, far on either side of tol = 1e-8; rows_in_span, one span at
    # a time, is the reference.
    r = rng(9)
    for k in (2, 3, 5, 8):
        v = random_unitary(r, k)
        rows = []
        for _ in range(40):
            j = int(r.integers(1, k + 1))
            z = v[:, :j] @ (r.normal(size=j) + 1j * r.normal(size=j))
            if j < k and r.random() < 0.5:
                z = z / np.linalg.norm(z) + 1e-6 * v[:, j:] @ r.normal(size=k - j)
            rows.append(z / np.linalg.norm(z))
        z = np.array(rows)
        want = np.column_stack([rows_in_span(v[:, :j], z, tol=1e-8) for j in range(1, k)])
        got = rows_in_nested_spans(v, z, tol=1e-8)
        assert got.shape == (40, k - 1) and np.array_equal(got, want)
        assert want.any() and not want.all()
