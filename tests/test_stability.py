"""Exact stability classification, certificates, and polystable splittings."""

from math import comb

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from measure_balancer import (
    AtomicMeasure,
    GroupElement,
    NotPolystable,
    NotSemistable,
    ProjectivePoint,
    StabilityKind,
    TooManyAtoms,
    candidate_subspaces,
    classify,
    polystable_decompose,
    pushforward,
)

from measure_balancer.cli import _splitting_dict
from measure_balancer.util import canonical_json

from helpers import (
    polystable_measure,
    random_group,
    random_measure,
    random_unitary,
    random_vector,
    reference_polystable_decompose,
    rng,
    semistable_measure,
    stable_measure,
    unstable_measure,
)


def measure_on(rows, weights):
    return AtomicMeasure([ProjectivePoint(z) for z in rows], weights)


# ---------------------------------------------------------------------------
# frozen verdicts on the line


def test_three_equal_atoms_on_line_are_stable():
    nu = measure_on([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1 / 3] * 3)
    v = classify(nu)
    assert v.kind is StabilityKind.STABLE
    assert v.margin == pytest.approx(1 / 6, abs=1e-15)
    assert v.certificate is None


def test_two_half_atoms_are_polystable_not_stable():
    nu = measure_on([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    v = classify(nu)
    assert v.kind is StabilityKind.POLYSTABLE_NOT_STABLE
    assert v.margin == pytest.approx(0.0, abs=1e-15)
    assert v.decomposition is not None
    masses = sorted(b.mass for b in v.decomposition.blocks)
    assert masses == [pytest.approx(0.5, abs=1e-15)] * 2


def test_non_orthogonal_half_pair_is_still_polystable():
    # Splittings are direct sums, not orthogonal sums.
    nu = measure_on([[1.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    assert classify(nu).kind is StabilityKind.POLYSTABLE_NOT_STABLE


def test_half_quarter_quarter_is_semistable_not_polystable():
    nu = measure_on([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.5, 0.25, 0.25])
    v = classify(nu)
    assert v.kind is StabilityKind.SEMISTABLE_NOT_POLYSTABLE
    assert v.margin == pytest.approx(0.0, abs=1e-15)
    assert v.decomposition is None
    result = polystable_decompose(nu)
    assert result is NotPolystable
    assert not result  # the sentinel is falsy


def test_dominant_atom_is_unstable_with_certificate():
    nu = measure_on([[1.0, 0.0], [0.0, 1.0]], [0.9, 0.1])
    v = classify(nu)
    assert v.kind is StabilityKind.UNSTABLE
    assert v.margin == pytest.approx(0.5 - 0.9, abs=1e-15)
    assert v.certificate is not None
    assert tuple(v.certificate.atom_indices) == (0,)
    assert v.certificate.mass == pytest.approx(0.9, abs=1e-15)
    assert v.certificate.proj_dim == 0


def test_dirac_is_maximally_unstable():
    nu = measure_on([[1.0, 1.0]], [1.0])
    v = classify(nu)
    assert v.kind is StabilityKind.UNSTABLE
    assert v.margin == pytest.approx(-0.5, abs=1e-15)


# ---------------------------------------------------------------------------
# candidate subspaces


def test_candidate_count_for_two_atoms_in_plane():
    nu = measure_on([[1.0, 0, 0], [0, 1.0, 0]], [0.5, 0.5])
    cands = candidate_subspaces(nu)
    assert len(cands) == 3  # two points and the line joining them


def test_candidate_count_in_general_position():
    r = rng(30)
    m, n = 5, 2
    nu = random_measure(r, n, m, weights="equal")
    # General position: every size-k subset spans its own distinct subspace.
    expected = sum(comb(m, k) for k in range(1, n + 1))
    assert len(candidate_subspaces(nu)) == expected


def test_candidate_mass_counts_all_contained_atoms():
    # Three collinear atoms in the plane: the line's mass includes the third
    # atom even when the subset generating the span had only two.
    nu = measure_on(
        [[1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0], [0, 0, 1.0], [1.0, 1.0, 1.0]],
        [0.2] * 5,
    )
    cands = candidate_subspaces(nu)
    lines = [c for c in cands if tuple(c.atom_indices) == (0, 1, 2)]
    assert len(lines) == 1
    assert lines[0].mass == pytest.approx(0.6, abs=1e-15)
    assert lines[0].linear_dim == 2


def test_enumeration_cap_raises():
    r = rng(31)
    nu = random_measure(r, 1, 17)
    with pytest.raises(TooManyAtoms):
        candidate_subspaces(nu)


# ---------------------------------------------------------------------------
# classify: invariants and tolerance semantics


def test_margin_is_invariant_under_unitaries():
    r = rng(32)
    nu = random_measure(r, 2, 6)
    u = GroupElement(random_unitary(r, 3))
    v1 = classify(nu)
    v2 = classify(pushforward(u, nu))
    assert v1.kind is v2.kind
    assert v1.margin == pytest.approx(v2.margin, abs=1e-12)


def test_unstable_certificate_attains_the_margin():
    r = rng(33)
    for n in (1, 2, 3):
        nu, _, _, _ = unstable_measure(r, n)
        v = classify(nu)
        attained = v.certificate.linear_dim / (n + 1) - v.certificate.mass
        assert v.margin == pytest.approx(attained, abs=1e-15)
        assert v.margin < 0


def test_tol_eq_snaps_near_boundary_and_strict_does_not():
    eps = 5e-10
    nu = measure_on([[1.0, 0.0], [0.0, 1.0]], [0.5 - eps, 0.5 + eps])
    assert classify(nu, tol_eq=1e-9).kind is StabilityKind.POLYSTABLE_NOT_STABLE
    assert classify(nu, tol_eq=0.0).kind is StabilityKind.UNSTABLE


def test_verdict_class_generators_round_trip():
    r = rng(34)
    for n in (1, 2, 3):
        assert classify(stable_measure(r, n)).kind is StabilityKind.STABLE
        assert classify(unstable_measure(r, n)[0]).kind is StabilityKind.UNSTABLE
        assert (
            classify(polystable_measure(r, n)[0]).kind
            is StabilityKind.POLYSTABLE_NOT_STABLE
        )
        assert (
            classify(semistable_measure(r, n)).kind
            is StabilityKind.SEMISTABLE_NOT_POLYSTABLE
        )


def test_closed_form_on_the_line():
    # On CP^1 with merged atoms the classification depends only on the top
    # weight w*: stable iff w* < 1/2, unstable iff w* > 1/2, and at w* = 1/2
    # polystable exactly when the complement is a single atom of mass 1/2.
    r = rng(35)
    for _ in range(60):
        m = int(r.integers(2, 5))
        if r.uniform() < 0.5:
            w = r.dirichlet(np.full(m, 2.0))
        else:  # plant the boundary
            rest = r.dirichlet(np.full(m - 1, 2.0)) * 0.5
            w = np.concatenate([[0.5], rest])
        pts = [ProjectivePoint(r.normal(size=2) + 1j * r.normal(size=2)) for _ in range(m)]
        nu = AtomicMeasure(pts, w)
        top = float(nu.weights.max())
        v = classify(nu)
        assert v.margin == pytest.approx(0.5 - top, abs=1e-12)
        if 0.5 - top > 1e-9:
            assert v.kind is StabilityKind.STABLE
        elif 0.5 - top < -1e-9:
            assert v.kind is StabilityKind.UNSTABLE
        elif nu.atom_count == 2:
            assert v.kind is StabilityKind.POLYSTABLE_NOT_STABLE
        else:
            assert v.kind is StabilityKind.SEMISTABLE_NOT_POLYSTABLE


# ---------------------------------------------------------------------------
# polystable decomposition


def test_decompose_stable_measure_gives_trivial_splitting():
    r = rng(36)
    nu = stable_measure(r, 2)
    s = polystable_decompose(nu)
    assert s.block_count == 1
    assert s.blocks[0].mass == pytest.approx(1.0)
    assert s.blocks[0].linear_dim == 3


def test_decompose_refuses_unstable_measure():
    nu = measure_on([[1.0, 0.0], [0.0, 1.0]], [0.9, 0.1])
    with pytest.raises(NotSemistable):
        polystable_decompose(nu)


def test_plane_splitting_point_plus_line():
    # mass 1/3 on a point, mass 2/3 spread over three atoms of a line that
    # misses the point: blocks of linear dimension 1 and 2.
    nu = measure_on(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 1.0, 1.0],
        ],
        [1 / 3, 2 / 9, 2 / 9, 2 / 9],
    )
    v = classify(nu)
    assert v.kind is StabilityKind.POLYSTABLE_NOT_STABLE
    dims = sorted(b.linear_dim for b in v.decomposition.blocks)
    masses = sorted(b.mass for b in v.decomposition.blocks)
    assert dims == [1, 2]
    assert masses[0] == pytest.approx(1 / 3, abs=1e-15)
    assert masses[1] == pytest.approx(2 / 3, abs=1e-15)
    # in-block measure on the line is itself stable
    line_block = max(v.decomposition.blocks, key=lambda b: b.linear_dim)
    assert classify(line_block.measure).kind is StabilityKind.STABLE


def assert_blocks_reassemble(nu, splitting):
    """Block atoms mapped back by their basis, weighted by the block mass, give nu."""
    rebuilt_pts, rebuilt_w = [], []
    for b in splitting.blocks:
        for p, w in b.measure.atoms:
            rebuilt_pts.append(ProjectivePoint(b.basis @ p.coeffs))
            rebuilt_w.append(w * b.mass)
    rebuilt = AtomicMeasure(rebuilt_pts, rebuilt_w)
    assert rebuilt.atom_count == nu.atom_count
    for p, w in rebuilt.atoms:
        match = [v for q, v in nu.atoms if q.isclose(p, tol=1e-9)]
        assert len(match) == 1
        assert w == pytest.approx(match[0], abs=1e-12)


def test_splitting_blocks_reassemble_to_the_measure():
    r = rng(38)
    nu, dims = polystable_measure(r, 2)
    s = classify(nu).decomposition
    assert sorted(b.linear_dim for b in s.blocks) == sorted(dims)
    assert_blocks_reassemble(nu, s)


def splitting_doc(splitting) -> str:
    return canonical_json(_splitting_dict(splitting)) if splitting else repr(splitting)


def test_tight_flat_split_matches_the_partition_search():
    # The exhaustive search is the oracle; blocks, bases and in-block
    # measures must agree bit for bit, and so must the absence of a split.
    for n in (1, 2, 3, 4):
        for seed in range(3):
            r = rng(1000 * n + seed)
            for nu in (polystable_measure(r, n)[0], semistable_measure(r, n)):
                assert nu.atom_count <= 12
                expected = splitting_doc(reference_polystable_decompose(nu))
                assert splitting_doc(polystable_decompose(nu)) == expected
                assert splitting_doc(classify(nu).decomposition or NotPolystable) == expected


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_planted_blocks_are_recovered(seed, n):
    # Blocks of linear dimension d get one atom (d = 1) or d+1 to d+3
    # generic equal-weight atoms (stable inside the block); the whole
    # measure is then moved by a random g.
    r = rng(seed)
    k = n + 1
    dims = []
    while sum(dims) < k:
        dims.append(int(r.integers(1, k - sum(dims) + (1 if dims else 0))))
    u = random_unitary(r, k)
    rows, weights, offset = [], [], 0
    for d in dims:
        count = 1 if d == 1 else d + 1 + int(r.integers(0, 3))
        for _ in range(count):
            rows.append(u[:, offset : offset + d] @ random_vector(r, d))
        weights += [d / k / count] * count
        offset += d
    nu = pushforward(random_group(r, k, max_log_cond=1.0), measure_on(rows, weights))
    assert nu.atom_count <= 12
    v = classify(nu)
    assert v.kind is StabilityKind.POLYSTABLE_NOT_STABLE
    blocks = v.decomposition.blocks
    assert sorted(b.linear_dim for b in blocks) == sorted(dims)
    assert [b.mass for b in blocks] == pytest.approx([b.linear_dim / k for b in blocks], abs=1e-12)
    assert_blocks_reassemble(nu, v.decomposition)
