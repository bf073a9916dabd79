"""Atomic measures: validation, serialization, momentum, Kempf-Ness energy."""

import cProfile
import pstats

import numpy as np
import pytest

from measure_balancer import (
    AtomicMeasure,
    GroupElement,
    InvalidInput,
    NumericalDegeneracy,
    ProjectivePoint,
    kempf_ness,
    kempf_ness_derivative,
    momentum,
    pushforward,
    SphereMeasure,
    spectral_decompose,
    to_projective,
)
from measure_balancer.geometry import canonical_rows

from helpers import (
    direct_momentum_residual,
    hermitian_exp,
    random_group,
    random_measure,
    random_point,
    random_traceless_hermitian,
    random_unitary,
    random_vector,
    reference_merge,
    rng,
)


def measure_on(rows, weights):
    return AtomicMeasure([ProjectivePoint(z) for z in rows], weights)


# ---------------------------------------------------------------------------
# construction and validation


def test_weights_must_be_positive():
    with pytest.raises(InvalidInput):
        measure_on([[1.0, 0.0], [0.0, 1.0]], [1.5, -0.5])


def test_weights_must_sum_to_one():
    with pytest.raises(InvalidInput):
        measure_on([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.4])


def test_small_weight_drift_is_renormalized():
    nu = measure_on([[1.0, 0.0], [0.0, 1.0]], [0.5 + 2e-8, 0.5])
    assert nu.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_atoms_must_share_dimension():
    with pytest.raises(InvalidInput):
        AtomicMeasure(
            [ProjectivePoint([1.0, 0.0]), ProjectivePoint([1.0, 0.0, 0.0])],
            [0.5, 0.5],
        )


def test_list_atoms_are_canonicalized_as_one_stack_of_rows(monkeypatch):
    r = rng(61)
    vectors = [random_vector(r, 4) * r.uniform(0.1, 10.0) for _ in range(8)]
    vectors += [np.array([0.0, 2j, 1.0, 0.0]), np.array([0.6, 0.0, 0.0, -0.8j])]
    expected = np.array([ProjectivePoint(v).coeffs for v in vectors])  # the per-point path
    points = [ProjectivePoint(v) for v in vectors]
    built = []
    post_init = ProjectivePoint.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ProjectivePoint, "__post_init__", counted)
    w = np.full(len(vectors), 1.0 / len(vectors))
    for atoms in (vectors, [list(v) for v in vectors], points, points[:5] + vectors[5:]):
        assert np.array_equal(AtomicMeasure(atoms, w).coeffs, expected)
    with pytest.raises(InvalidInput, match="all atoms must live in the same CP"):
        AtomicMeasure([[1.0, 0.0], [1.0, 0.0, 0.0]], [0.5, 0.5])
    assert built == []


def test_duplicate_atoms_merge_with_combined_weight():
    nu = measure_on([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]], [0.3, 0.3, 0.4])
    assert nu.atom_count == 2
    merged = dict()
    for p, w in nu.atoms:
        merged[tuple(np.round(np.abs(p.coeffs), 6))] = w
    assert merged[(1.0, 0.0)] == pytest.approx(0.6)


def test_weights_are_read_only():
    nu = measure_on([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    with pytest.raises(ValueError):
        nu.weights[0] = 0.9


def test_coefficients_are_read_only():
    nu = measure_on([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    assert nu.coeff_matrix() is nu.coeffs
    with pytest.raises(ValueError):
        nu.coeffs[0, 0] = 2.0


# ---------------------------------------------------------------------------
# canonical rows: one code path for arrays, measures and points


def _outcome(make):
    """The canonical coefficient bytes, or the exception type and message."""
    try:
        return make().tobytes()
    except Exception as exc:  # compared across the paths below
        return type(exc), str(exc)


def test_array_and_point_canonicalization_agree_bit_for_bit():
    r = rng(31)
    z = np.array([random_vector(r, 4) for _ in range(12)])
    z[:4] *= r.uniform(1e-3, 1e3, size=(4, 1))  # far from unit norm
    z[4:8] = z[:4] * np.exp(2j * np.pi * r.uniform(size=(4, 1)))  # phase-rotated
    z[8:, 0] = 1e-11 * random_vector(r, 4)  # below-tolerance first coordinate
    z[11] = canonical_rows(z[11:])[0]  # already canonical
    rows = canonical_rows(z)
    for raw, row in zip(z, rows):
        assert ProjectivePoint(raw).coeffs.tobytes() == row.tobytes()
        assert ProjectivePoint(row).coeffs.tobytes() == row.tobytes()
    distinct = np.r_[0:4, 8:12]  # rows 4-7 are the same points as rows 0-3
    nu = AtomicMeasure(z[distinct], np.full(8, 1 / 8))
    assert nu.coeffs.tobytes() == rows[distinct].tobytes()
    assert not rows.flags.writeable


@pytest.mark.parametrize(
    "raw, frozen",
    [
        (
            [0.57 - 1.847j, -0.056 + 1.567j, 0.747 - 0.096j],
            [0.7433249390495041 + 0j, -0.5821505645206403 + 0.15711945056307133j,
             0.11998492560187987 + 0.2636016902419644j],
        ),
        (
            [-0.153 - 1.514j, 0.686 + 0.395j, -0.87 - 0.671j],
            [0.7470356281549578 + 0j, -0.22679044231006473 + 0.3155663825897365j,
             0.37067933645529316 - 0.39181443726364157j],
        ),
    ],
)
def test_canonical_rows_frozen_values(raw, frozen):
    # The last bits of these rows depend on how the row norm and the pivot
    # modulus are computed; serialized measures must not change with them.
    assert canonical_rows(np.array([raw, raw])).tolist() == [frozen, frozen]
    assert ProjectivePoint(raw).coeffs.tolist() == frozen


ZERO = (NumericalDegeneracy, "cannot normalize a (numerically) zero vector")


@pytest.mark.parametrize(
    "row, expected",
    [
        ([np.nan, 1.0], (InvalidInput, "projective point coordinates must be finite")),
        ([1.0, np.inf], (InvalidInput, "projective point coordinates must be finite")),
        ([0.0, 0.0], ZERO),
        ([1e-160, 1e-160j], ZERO),
        ([1e200, 1e200], (NumericalDegeneracy, "no coordinate exceeds the phase pivot tolerance")),
        ([1e-13, 1e-13j], None),  # every coordinate below the pivot tolerance
    ],
)
def test_bad_rows_fail_alike_on_every_path(row, expected):
    row = np.array(row, dtype=complex)
    with np.errstate(all="ignore"):
        point = _outcome(lambda: ProjectivePoint(row).coeffs)
        array = _outcome(lambda: canonical_rows(row[None])[0])
        measure = _outcome(
            lambda: AtomicMeasure(np.array([[1.0, 0.0], row]), [0.5, 0.5]).coeffs[1]
        )
    assert point == array == measure
    if expected is None:
        assert isinstance(point, bytes)
    else:
        assert point == expected


def _most_calls(construct) -> int:
    profile = cProfile.Profile()
    profile.runcall(construct)
    return max(ncalls for ncalls, *_ in pstats.Stats(profile).stats.values())


def test_measure_construction_makes_no_call_per_row():
    r = rng(94)
    m = 200
    rows = r.standard_normal((m, 6)) + 1j * r.standard_normal((m, 6))
    x = r.standard_normal((m, 3))
    x /= np.linalg.norm(x, axis=1)[:, None]
    w = r.dirichlet(np.ones(m))
    assert _most_calls(lambda: AtomicMeasure(rows, w)) < m
    assert _most_calls(lambda: to_projective(SphereMeasure(x, w))) < m


# ---------------------------------------------------------------------------
# atom merging against the all-pairs reference


def _near(r, v, dist):
    """A point at Fubini-Study distance dist from the unit vector v, any phase."""
    u = random_vector(r, v.size)
    u = u - np.vdot(v, u) * v
    u = u / np.linalg.norm(u)
    return (np.cos(dist) * v + np.sin(dist) * u) * np.exp(2j * np.pi * r.uniform())


def _merge_family(name, r):
    if name == "exact-repeats":
        base = np.array([random_vector(r, 3) for _ in range(40)])
        return np.vstack([base, base[r.integers(0, 40, 60)]])
    if name == "phase-rotated-repeats":
        base = np.array([random_vector(r, 3) for _ in range(40)])
        turn = r.uniform(0.5, 2.0, (60, 1)) * np.exp(2j * np.pi * r.uniform(size=(60, 1)))
        return np.vstack([base, base[r.integers(0, 40, 60)] * turn])
    if name == "cp1-equator":
        phi = r.uniform(0.0, 2.0 * np.pi, 80)
        phi = np.concatenate([phi, phi[:40]])
        return np.stack([np.ones(120), np.exp(1j * phi)], axis=1)
    if name == "near-duplicates-tiny-pivot":
        base = np.array([random_vector(r, 3) for _ in range(30)])
        base[:, 0] = 1e-11 * random_vector(r, 30)
        base = canonical_rows(base)
        near = []
        for t in range(90):
            v = _near(r, base[t % 30], 10.0 ** r.uniform(-9.0, np.log10(3e-6)))
            v[0] = 1e-11 * complex(*r.normal(size=2))
            near.append(v)
        return np.vstack([base, near])
    if name == "chains":
        # a ~ b ~ c with a !~ c: steps of 1.2e-6 merge (threshold ~1.41e-6),
        # two steps do not.  In the order a, c, b the atom b overlaps two kept
        # atoms and must fold into the earlier one, a.
        rows = []
        for t in range(60):
            v = canonical_rows(random_vector(r, 4)[None])[0]
            u = _near(r, v, np.pi / 2)
            a, b, c = (np.cos(s) * v + np.sin(s) * u for s in (0.0, 1.2e-6, 2.4e-6))
            rows.extend([(a, b, c), (a, c, b), (b, a, c)][t % 3])
        return np.array(rows)
    if name == "near-window-pairs":
        # CP^1 partners at Fubini-Study distance 1.2e-6 to 1.7e-6 lie inside both key
        # windows, on either side of the merge threshold (~1.414e-6); the dense cloud
        # puts atoms within reach on one key only, and a tenth of the rows are exact repeats
        base = canonical_rows(np.array([random_vector(r, 2) for _ in range(1500)]))
        near = [_near(r, v, r.uniform(1.2e-6, 1.7e-6)) for v in base[:300]]
        z = np.vstack([base, near, base[r.integers(0, 1500, 200)]])
        return z[r.permutation(len(z))]
    # the benchmark cloud: n = 20, m = 2500, a tenth of the atoms exact repeats
    base = np.array([random_vector(r, 21) for _ in range(2250)])
    z = np.vstack([base, base[r.choice(2250, 250, replace=False)]])
    return z[r.permutation(2500)]


@pytest.mark.parametrize(
    "family",
    [
        "exact-repeats",
        "phase-rotated-repeats",
        "cp1-equator",
        "near-duplicates-tiny-pivot",
        "chains",
        "near-window-pairs",
        "cloud-n20-m2500",
    ],
)
def test_merge_matches_all_pairs_reference(family):
    r = rng(32)
    z = _merge_family(family, r)
    w = r.dirichlet(np.full(len(z), 3.0))
    assert abs(w.sum() - 1.0) <= 1e-12  # no renormalization before merging
    rows = canonical_rows(z)
    keep, merged = reference_merge(rows, w)
    nu = AtomicMeasure(z, w)
    assert 0 < keep.size < len(z)
    assert nu.coeffs.tobytes() == rows[keep].tobytes()
    assert nu.weights.tobytes() == merged.tobytes()


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_preserves_measure():
    r = rng(10)
    nu = random_measure(r, 2, 5)
    back = AtomicMeasure.from_json(nu.to_json())
    assert back.atom_count == nu.atom_count
    assert np.allclose(back.weights, nu.weights, atol=1e-16)
    for (p, _), (q, _) in zip(back.atoms, nu.atoms):
        assert p.isclose(q, tol=1e-15)


def test_json_serialization_is_byte_idempotent():
    # Unnormalized input: the first parse canonicalizes, after which
    # parse -> serialize must be an exact fixed point.
    raw = """
    {"n": 1, "atoms": [
      {"z": [[3.0, 0.0], [0.0, 4.0]], "w": 0.25},
      {"z": [[1.0, 1.0], [2.0, -1.0]], "w": 0.75}
    ]}
    """
    text1 = AtomicMeasure.from_json(raw).to_json()
    text2 = AtomicMeasure.from_json(text1).to_json()
    assert text1 == text2


@pytest.mark.filterwarnings("error")
def test_from_json_rejects_malformed_documents():
    with pytest.raises(InvalidInput):
        AtomicMeasure.from_json("not json at all {")
    huge = "1" + "0" * 400  # an integer literal beyond the float range
    for value in ("true", "false", huge, "-" + huge, '"1.0"', "null", "NaN", "Infinity", "[1]"):
        with pytest.raises(InvalidInput, match=r"atoms\[0\]\.z\[1\]\[0\] must be a finite number"):
            AtomicMeasure.from_json(f'{{"n": 1, "atoms": [{{"z": [[1, 0], [{value}, 0]], "w": 1}}]}}')
        with pytest.raises(InvalidInput, match=r"atoms\[0\]\.w must be a finite number"):
            AtomicMeasure.from_json(f'{{"n": 1, "atoms": [{{"z": [[1, 0], [0, 0]], "w": {value}}}]}}')
    with pytest.raises(InvalidInput, match=r"atoms\[0\]\.z\[1\] must be a list of 2 numbers"):
        AtomicMeasure.from_json('{"n": 1, "atoms": [{"z": [[1, 0], [0, 0, 0]], "w": 1}]}')
    with pytest.raises(InvalidInput):
        AtomicMeasure.from_json_dict({"atoms": []})  # missing n
    with pytest.raises(InvalidInput):
        AtomicMeasure.from_json_dict({"n": 1.5, "atoms": []})
    with pytest.raises(InvalidInput):
        AtomicMeasure.from_json_dict(
            {"n": 1, "atoms": [{"z": [[1.0, 0.0]], "w": 1.0}]}  # z too short
        )
    with pytest.raises(InvalidInput):
        AtomicMeasure.from_json_dict(
            {"n": 1, "atoms": [{"z": [[1.0, 0.0], [0.0, 0.0]], "w": "heavy"}]}
        )


# ---------------------------------------------------------------------------
# pushforward


def test_pushforward_moves_points_and_keeps_weights():
    g = GroupElement(np.diag([2.0, 0.5]))
    nu = measure_on([[1.0, 1.0], [1.0, 0.0]], [0.7, 0.3])
    moved = pushforward(g, nu)
    assert np.allclose(sorted(moved.weights), sorted(nu.weights))
    pts = [p for p, _ in moved.atoms]
    assert any(p.isclose(ProjectivePoint([4.0, 1.0])) for p in pts)
    assert any(p.isclose(ProjectivePoint([1.0, 0.0])) for p in pts)


def test_pushforward_by_inverse_restores_measure():
    r = rng(11)
    nu = random_measure(r, 3, 6)
    g = random_group(r, 4)
    back = pushforward(g.inverse(), pushforward(g, nu))
    for (p, w), (q, v) in zip(back.atoms, nu.atoms):
        assert p.isclose(q, tol=1e-11)
        assert w == pytest.approx(v, abs=1e-12)


# ---------------------------------------------------------------------------
# momentum of a measure


def test_momentum_frozen_value():
    # Equal thirds on [1:0], [0:1], [1:1]: the diagonal cancels exactly and
    # the off-diagonal keeps one sixth from the mixed atom.
    nu = measure_on([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1 / 3, 1 / 3, 1 / 3])
    expected = np.array([[0.0, 1 / 6], [1 / 6, 0.0]])
    assert np.allclose(momentum(nu).m, expected, atol=1e-15)


def test_momentum_of_coordinate_simplex_vanishes():
    nu = measure_on(list(np.eye(3)), [1 / 3] * 3)
    assert momentum(nu).norm == pytest.approx(0.0, abs=1e-16)


def test_momentum_matches_direct_recomputation():
    r = rng(12)
    nu = random_measure(r, 3, 7)
    g = GroupElement.identity(3)
    assert momentum(nu).norm == pytest.approx(
        direct_momentum_residual(g, nu), abs=1e-13
    )


def test_momentum_equivariance_under_unitaries():
    r = rng(13)
    nu = random_measure(r, 2, 5)
    u = random_unitary(r, 3)
    lhs = momentum(pushforward(GroupElement(u), nu)).m
    rhs = u @ momentum(nu).m @ u.conj().T
    assert np.allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# Kempf-Ness energy


def test_energy_frozen_dirac_value():
    nu = measure_on([[1.0, 0.0]], [1.0])
    g = GroupElement(np.diag([np.e, 1.0 / np.e]))
    assert kempf_ness(nu, g) == pytest.approx(1.0, abs=1e-14)


def test_energy_vanishes_at_identity_and_unitaries():
    r = rng(14)
    nu = random_measure(r, 2, 6)
    assert kempf_ness(nu, GroupElement.identity(2)) == pytest.approx(0.0, abs=1e-15)
    u = GroupElement(random_unitary(r, 3))
    assert kempf_ness(nu, u) == pytest.approx(0.0, abs=1e-13)


def test_energy_cocycle_identity():
    r = rng(15)
    nu = random_measure(r, 2, 5)
    g = random_group(r, 3)
    h = random_group(r, 3)
    lhs = kempf_ness(nu, g.compose(h))
    rhs = kempf_ness(pushforward(h, nu), g) + kempf_ness(nu, h)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_energy_derivative_is_momentum_pairing():
    r = rng(16)
    nu = random_measure(r, 2, 5)
    g = random_group(r, 3)
    a = random_traceless_hermitian(r, 3)
    d = spectral_decompose(a)
    analytic = kempf_ness_derivative(nu, g, d)
    h = 1e-6
    plus = kempf_ness(nu, GroupElement(hermitian_exp(h * a) @ g.g))
    minus = kempf_ness(nu, GroupElement(hermitian_exp(-h * a) @ g.g))
    assert analytic == pytest.approx((plus - minus) / (2.0 * h), abs=1e-8)
    # and it equals the momentum pairing at the moved measure
    assert analytic == pytest.approx(
        momentum(pushforward(g, nu)).pairing(d), abs=1e-12
    )


def test_energy_is_convex_along_geodesics():
    r = rng(17)
    nu = random_measure(r, 2, 5)
    a = random_traceless_hermitian(r, 3)
    ts = np.linspace(-1.0, 1.0, 21)
    vals = [kempf_ness(nu, GroupElement.from_hermitian(t * a)) for t in ts]
    second = np.diff(vals, 2)
    assert second.min() >= -1e-9
