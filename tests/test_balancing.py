"""Balancing solvers: fixed point, geodesic descent, targets, torus, centroid."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from measure_balancer import (
    AtomicMeasure,
    BalancerError,
    DegenerateHull,
    GroupElement,
    InvalidInput,
    MaxIterations,
    NotPositiveTarget,
    NotStable,
    ProjectivePoint,
    SingularGram,
    SphereMeasure,
    TargetOutsidePolytope,
    VERDICT_CONVERGED,
    VERDICT_DIVERGED,
    VERDICT_ILL_CONDITIONED,
    VERDICT_MAX_ITERATIONS,
    StabilityKind,
    balance,
    candidate_subspaces,
    classify,
    geometry,
    gram_operator,
    hersch_balance,
    momentum,
    polytope_centroid_shift,
    pushforward,
    solve_target,
    span_basis,
    spectral_decompose,
    torus_solve,
    traceless_hermitian_basis,
)
from measure_balancer import balancing, stability
from measure_balancer.balancing import DEFAULT_MAX_ITER, _torus_lp

from helpers import (
    NEAR_CUTOFF_DESCENT_SEEDS,
    PLANTED_SWEEP,
    RANK_BOUNDARY_SEEDS,
    SINGULAR_S_SEEDS,
    STABLE_SWEEP,
    bisection_torus_n1,
    certified_excess,
    direct_momentum_residual,
    gaussian_integer_measure,
    hermitian_exp,
    near_cutoff_cloud,
    near_hyperplane_cloud,
    polystable_measure,
    random_measure,
    random_traceless_hermitian,
    rank_boundary_cloud,
    reference_gram,
    reference_torus_lp,
    rng,
    singular_s_cloud,
    stable_measure,
    torus_gradient,
    unstable_measure,
)


def measure_on(rows, weights):
    return AtomicMeasure([ProjectivePoint(z) for z in rows], weights)


# ---------------------------------------------------------------------------
# fixed-point balancing


def test_fixed_point_balances_stable_line_measure():
    nu = measure_on([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1 / 3] * 3)
    res = balance(nu)
    assert res.verdict == VERDICT_CONVERGED
    assert res.residual <= 1e-10
    # independent recomputation of the final momentum residual
    assert direct_momentum_residual(res.g, nu) == pytest.approx(
        res.residual, abs=1e-12
    )


def test_fixed_point_returns_hermitian_positive_root():
    r = rng(50)
    nu = stable_measure(r, 2)
    res = balance(nu)
    g = res.g.g
    assert np.linalg.norm(g - g.conj().T) < 1e-9
    assert np.linalg.eigvalsh((g + g.conj().T) / 2.0).min() > 0.0
    assert abs(np.linalg.det(g) - 1.0) < 1e-9


def test_already_balanced_measure_converges_immediately():
    nu = measure_on(list(np.eye(3)), [1 / 3] * 3)
    res = balance(nu)
    assert res.verdict == VERDICT_CONVERGED
    assert res.iterations == 0
    assert np.allclose(res.g.g, np.eye(3), atol=1e-12)


def test_polystable_pair_is_balanceable():
    # Non-orthogonal pair of half atoms: the orbit reaches zero momentum.
    nu = measure_on([[1.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    res = balance(nu)
    assert res.verdict == VERDICT_CONVERGED
    assert direct_momentum_residual(res.g, nu) <= 1e-10


def test_unstable_measure_diverges_with_certificate():
    nu = measure_on([[1.0, 0.0], [0.0, 1.0]], [0.9, 0.1])
    res = balance(nu)
    assert res.verdict == VERDICT_DIVERGED
    assert res.certificate is not None
    assert res.certificate.proj_dim == 0
    assert res.certificate.mass == pytest.approx(0.9, abs=1e-6)


def test_dirac_measure_diverges():
    nu = measure_on([[1.0, 1.0]], [1.0])
    res = balance(nu)
    assert res.verdict == VERDICT_DIVERGED


def test_boundary_semistable_measure_hits_iteration_cap():
    # Strictly semistable: the infimum of the momentum norm is 0 but is not
    # attained, and the conditioning certificate threshold is never reached.
    nu = measure_on([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.5, 0.25, 0.25])
    res = balance(nu, max_iter=300)
    assert res.verdict == VERDICT_MAX_ITERATIONS


def test_trace_rows_record_every_iteration():
    nu = measure_on([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1 / 3] * 3)
    res = balance(nu)
    assert len(res.trace) == res.iterations + 1
    its, residuals, energies = zip(*res.trace)
    assert list(its) == list(range(res.iterations + 1))
    assert residuals[-1] == pytest.approx(res.residual)


def test_balance_is_deterministic():
    r = rng(51)
    nu = stable_measure(r, 3)
    res1 = balance(nu)
    res2 = balance(nu)
    assert np.array_equal(res1.g.g, res2.g.g)
    assert res1.iterations == res2.iterations


@pytest.mark.parametrize(
    "method, target",
    [("steepest-ascent", None), ("descent", None), ("Fixed_Point", None), ("steepest-ascent", "target")],
    ids=["steepest-ascent", "descent", "Fixed_Point", "steepest-ascent-with-target"],
)
def test_unknown_method_raises(method, target):
    # only the documented names are accepted, spelled as documented, and the
    # name is checked also when a target solve does not use it
    nu = measure_on([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1 / 3] * 3)
    target_rho = None if target is None else np.diag([0.6, 0.4])
    with pytest.raises(InvalidInput, match="unknown balancing method"):
        balance(nu, target_rho=target_rho, method=method)


LAST_ITERATE_CASES = ["converged", "planted-unstable", *SINGULAR_S_SEEDS, "max-iterations", "proper-span"]


@pytest.mark.parametrize(
    "case, method",
    [(case, method) for method in ("fixed-point", "geodesic-descent") for case in LAST_ITERATE_CASES]
    + [("converged", "target"), ("max-iterations", "target")],
)
def test_the_result_is_the_last_traced_iterate(case, method):
    max_iter = DEFAULT_MAX_ITER
    if case == "converged":
        nu = stable_measure(rng(3), 2)
    elif case == "planted-unstable":
        nu, *_ = unstable_measure(rng(6), 2)
    elif case == "max-iterations":
        nu, max_iter = stable_measure(rng(3), 2), 3
    elif case == "proper-span":
        nu = measure_on([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]], [1 / 3] * 3)
    else:
        nu = singular_s_cloud(case)
    rho = np.diag([0.5, 0.3, 0.2])
    if method == "target":
        res = balance(nu, target_rho=rho, max_iter=max_iter)
    else:
        res = balance(nu, method=method, max_iter=max_iter)
    expected = {
        "planted-unstable": VERDICT_DIVERGED,
        "max-iterations": VERDICT_MAX_ITERATIONS,
        "proper-span": VERDICT_DIVERGED,
    }.get(case, VERDICT_CONVERGED)
    assert res.verdict == expected
    assert res.residual == res.trace[-1][1]
    assert res.iterations == res.trace[-1][0] == len(res.trace) - 1
    assert [t[0] for t in res.trace] == list(range(len(res.trace)))
    g = res.g.g
    if method != "target":  # the polar factor (V U*) g of the last g = U diag(s) V*
        # Hermitian to about cond(g) eps: 1e-12 on well-conditioned g, and
        # cond(g) 1e-15 on the singular-S clouds, whose g has cond 3e8 to 1.5e9.
        bound = 1e-12 if case not in SINGULAR_S_SEEDS else 1e-15 * np.linalg.cond(g)
        assert np.linalg.norm(g - g.conj().T) <= bound * np.linalg.norm(g)
        if expected == VERDICT_CONVERGED:  # and it keeps the last g's residual
            assert direct_momentum_residual(res.g, nu) <= 1e-9
    elif case == "converged":  # the composed element, not a polar factor
        moved = momentum(pushforward(res.g, nu)).m
        assert np.linalg.norm(moved - (rho - np.eye(3) / 3)) <= balancing.DEFAULT_TOL


# ---------------------------------------------------------------------------
# geodesic descent


def test_descent_balances_and_agrees_with_fixed_point():
    r = rng(52)
    nu = stable_measure(r, 2)
    res_fp = balance(nu, method="fixed-point")
    res_gd = balance(nu, method="geodesic-descent")
    assert res_fp.verdict == VERDICT_CONVERGED
    assert res_gd.verdict == VERDICT_CONVERGED
    s_fp = res_fp.g.g.conj().T @ res_fp.g.g
    s_gd = res_gd.g.g.conj().T @ res_gd.g.g
    assert np.linalg.norm(s_fp - s_gd) <= 1e-7


def test_descent_energy_is_monotone_nonincreasing():
    r = rng(53)
    nu = stable_measure(r, 2)
    res = balance(nu, method="geodesic-descent")
    energies = [row[2] for row in res.trace]
    diffs = np.diff(energies)
    assert diffs.max() <= 1e-12


def test_descent_detects_divergence():
    nu = measure_on([[1.0, 0.0], [0.0, 1.0]], [0.9, 0.1])
    # The step scale is capped by COND_LIMIT: uncapped, a Barzilai-Borwein
    # step on these two atoms overflows exp(s c x) and descent stalls.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = balance(nu, method="geodesic-descent")
    assert res.verdict == VERDICT_DIVERGED
    assert res.certificate is not None
    assert res.certificate.mass == pytest.approx(0.9, abs=1e-6)


def count_states(monkeypatch):
    """Moved states evaluated outside (``states``) and inside (``trials``) a
    geodesic step, the ``steps`` and the set of evaluated ``points``, from now on."""
    calls = {"states": 0, "trials": 0, "steps": 0, "points": set()}
    moved_state, geodesic_step = balancing.moved_state, balancing._geodesic_step
    stepping = []

    def counted_state(z, w, g):
        calls["trials" if stepping else "states"] += 1
        calls["points"].add(g.tobytes())
        return moved_state(z, w, g)

    def counted_step(*args):
        calls["steps"] += 1
        stepping.append(1)
        try:
            return geodesic_step(*args)
        finally:
            stepping.pop()

    monkeypatch.setattr(balancing, "moved_state", counted_state)
    monkeypatch.setattr(balancing, "_geodesic_step", counted_step)
    return calls


@pytest.mark.parametrize(
    "case", [(52, 2), (53, 3), (55, 1), "diverging"], ids=["52-2", "53-3", "55-1", "diverging"]
)
def test_descent_evaluates_each_accepted_iterate_once(case, monkeypatch):
    # The state of an accepted trial point is the next iterate's state, also
    # when the trial renormalized det g (frequent as g degenerates), so the
    # only other evaluation is the start; no point is evaluated twice.
    calls = count_states(monkeypatch)
    if case == "diverging":
        nu, *_ = unstable_measure(rng(6), 2)
        res = balance(nu, method="geodesic-descent")
        assert res.verdict == VERDICT_DIVERGED
    else:
        res = balance(stable_measure(rng(case[0]), case[1]), method="geodesic-descent")
        assert res.verdict == VERDICT_CONVERGED
    assert calls["trials"] >= calls["steps"] >= res.iterations > 0
    assert calls["states"] == 1
    assert len(calls["points"]) == calls["states"] + calls["trials"]


def count_linalg(monkeypatch, *names):
    """Calls of the np.linalg functions ``names``, counted from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:

        def counted(*args, _name=name, _func=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _func(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("kind", ["stable", "unstable"])
@pytest.mark.parametrize("seed, n", [(0, 2), (1, 3), (2, 4)])
def test_a_fixed_point_iterate_decomposes_s_once(kind, seed, n, monkeypatch):
    # S = g* g is never formed: each step takes one eigh of the moved scatter
    # R, and each judged iterate one SVD of g, its singular values alone on a
    # plain iterate and a full SVD at a scan (iterations 1, 2, 4, ...); the
    # reported polar factor takes one more full SVD.
    nu = stable_measure(rng(seed), n) if kind == "stable" else unstable_measure(rng(seed), n)[0]
    calls = count_linalg(monkeypatch, "eigh", "eigvalsh", "inv", "slogdet")
    svds = {"values": 0, "full": 0}
    svd = np.linalg.svd

    def counted_svd(a, *args, **kwargs):  # the SVDs of g, (k, k); atom spans take (k, j < k)
        if a.shape == (n + 1, n + 1):
            svds["full" if kwargs.get("compute_uv", True) else "values"] += 1
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    res = balance(nu)
    assert res.verdict == (VERDICT_CONVERGED if kind == "stable" else VERDICT_DIVERGED)
    last = res.iterations
    assert last > 1
    scans = {it for it in range(1, last + 1) if it & (it - 1) == 0}
    judged = range(last) if kind == "stable" else range(last + 1)  # a converged iterate takes none
    if kind == "unstable":
        assert last in scans  # certified at a scan
    assert calls == {"eigh": last, "eigvalsh": 0, "inv": 0, "slogdet": 0}
    assert svds == {
        "values": sum(it not in scans for it in judged),
        "full": sum(it in scans for it in judged) + 1,
    }


@pytest.mark.parametrize("kind", ["stable", "unstable"])
def test_a_descent_step_reads_one_eigvalsh_for_its_cap(kind, monkeypatch):
    # The stop rule reads the singular values of g; the only eigvalsh is
    # that of F in the COND_LIMIT cap of each step.
    nu = stable_measure(rng(52), 2) if kind == "stable" else unstable_measure(rng(6), 2)[0]
    steps = []
    geodesic_step = balancing._geodesic_step

    def counted_step(*args):
        steps.append(1)
        return geodesic_step(*args)

    monkeypatch.setattr(balancing, "_geodesic_step", counted_step)
    calls = count_linalg(monkeypatch, "eigvalsh", "eigh")
    res = balance(nu, method="geodesic-descent")
    assert res.verdict == (VERDICT_CONVERGED if kind == "stable" else VERDICT_DIVERGED)
    assert calls["eigvalsh"] == calls["eigh"] == len(steps) == res.iterations > 0


def test_a_step_halved_down_to_min_step_decomposes_its_direction_once(monkeypatch):
    # From cond(g* g) = 1e28 the capped Newton step on seed 2 finds no step:
    # its 41 trials s = 1, 1/2, ..., MIN_STEP all share one eigh of c x, and
    # the cap reads one eigvalsh of x.
    calls = count_linalg(monkeypatch, "eigvalsh", "eigh")
    calls["states"] = 0
    moved_state, geodesic_step = balancing.moved_state, balancing._geodesic_step
    failed = []

    def counted_state(*args):
        calls["states"] += 1
        return moved_state(*args)

    def counted_step(*args):
        before = dict(calls)
        found = geodesic_step(*args)
        if found is None:
            failed.append({name: calls[name] - before[name] for name in calls})
        return found

    monkeypatch.setattr(balancing, "moved_state", counted_state)
    monkeypatch.setattr(balancing, "_geodesic_step", counted_step)
    start = GroupElement(np.diag([1e7, 1.0, 1e-7]))
    res = solve_target(stable_measure(rng(2), 2), np.eye(3) / 3, start=start)
    assert res.verdict == VERDICT_CONVERGED
    assert balancing.MIN_STEP == 2.0**-40
    assert failed == [{"eigvalsh": 1, "eigh": 1, "states": 41}]


def test_balance_accepts_custom_start():
    r = rng(54)
    nu = stable_measure(r, 2)
    a = 0.3 * random_traceless_hermitian(r, 3)
    start = GroupElement.from_hermitian(a)
    base = balance(nu)
    moved = balance(nu, start=start)
    assert moved.verdict == VERDICT_CONVERGED
    s0 = base.g.g.conj().T @ base.g.g
    s1 = moved.g.g.conj().T @ moved.g.g
    assert np.linalg.norm(s0 - s1) <= 1e-7


@pytest.mark.parametrize(
    "path",
    [{}, {"method": "geodesic-descent"}, {"target_rho": np.eye(3) / 3.0}],
    ids=["fixed-point", "geodesic-descent", "target"],
)
def test_wrong_size_start_is_an_input_error(path):
    nu = stable_measure(rng(55), 2)
    with pytest.raises(InvalidInput, match="start element size"):
        balance(nu, start=GroupElement(np.eye(4)), **path)


# ---------------------------------------------------------------------------
# Gram operator


def test_gram_matches_central_differences():
    r = rng(55)
    nu = random_measure(r, 2, 5)
    basis = traceless_hermitian_basis(3)
    gram = gram_operator(nu, basis)
    h = 1e-5
    for j in (0, 3, 7):
        for l in (1, 4, 7):
            plus = momentum(
                pushforward(GroupElement(hermitian_exp(h * basis[j])), nu)
            )
            minus = momentum(
                pushforward(GroupElement(hermitian_exp(-h * basis[j])), nu)
            )
            fd = (
                np.trace(plus.m @ basis[l]).real - np.trace(minus.m @ basis[l]).real
            ) / (2.0 * h)
            assert gram[j, l] == pytest.approx(fd, abs=1e-6)


def test_gram_is_symmetric_positive_semidefinite():
    r = rng(56)
    nu = random_measure(r, 2, 6)
    gram = gram_operator(nu, traceless_hermitian_basis(3))
    assert np.allclose(gram, gram.T, atol=1e-12)
    assert np.linalg.eigvalsh(gram).min() >= -1e-10


def test_gram_positive_definite_at_balanced_stable_measure():
    r = rng(57)
    nu = stable_measure(r, 2)
    res = balance(nu)
    balanced = pushforward(res.g, nu)
    gram = gram_operator(balanced, traceless_hermitian_basis(3))
    assert np.linalg.eigvalsh(gram).min() > 1e-3


def test_gram_accepts_spectral_directions():
    nu = measure_on([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1 / 3] * 3)
    d = spectral_decompose(np.diag([1.0, -1.0]))
    g1 = gram_operator(nu, [d])
    g2 = gram_operator(nu, [d.a])
    assert np.allclose(g1, g2, atol=1e-15)


def test_gram_matches_the_pairwise_reference():
    r = rng(61)
    for n in range(1, 5):
        nu = random_measure(r, n, n + 4)
        basis = traceless_hermitian_basis(n + 1)
        directions = [spectral_decompose(random_traceless_hermitian(r, n + 1)) for _ in range(3)]
        for dirs in (basis, directions, basis[:2] + directions):
            got, want = gram_operator(nu, dirs), reference_gram(nu, dirs)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_gram_rejects_mismatched_direction_size():
    nu = measure_on([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    with pytest.raises(InvalidInput):
        gram_operator(nu, [np.diag([1.0, 0.0, -1.0])])


# ---------------------------------------------------------------------------
# target solves


def test_solve_target_reaches_interior_state():
    nu = measure_on([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1 / 3] * 3)
    rho = np.diag([0.6, 0.4])
    res = solve_target(nu, rho)
    assert res.verdict == VERDICT_CONVERGED
    assert res.residual <= 1e-10
    moved = pushforward(res.g, nu)
    assert np.linalg.norm(momentum(moved).m - (rho - np.eye(2) / 2)) <= 2e-10


def test_solve_target_via_balance_delegation():
    nu = measure_on([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1 / 3] * 3)
    rho = np.array([[0.55, 0.1], [0.1, 0.45]])
    res = balance(nu, target_rho=rho)
    assert res.verdict == VERDICT_CONVERGED
    moved = pushforward(res.g, nu)
    assert np.linalg.norm(momentum(moved).m - (rho - np.eye(2) / 2)) <= 2e-10


def test_solve_target_rejects_boundary_state():
    nu = measure_on([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1 / 3] * 3)
    with pytest.raises(NotPositiveTarget):
        solve_target(nu, np.diag([1.0, 0.0]))


def test_solve_target_validates_the_state():
    nu = measure_on([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1 / 3] * 3)
    with pytest.raises(InvalidInput):
        solve_target(nu, np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(InvalidInput):
        solve_target(nu, np.array([[0.5, 0.3], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(InvalidInput):
        solve_target(nu, np.eye(3) / 3.0)  # wrong size
    with pytest.raises(InvalidInput, match="target state entries must be finite"):
        solve_target(nu, np.diag([np.nan, 0.5]))


def test_solve_target_rejects_an_overflowing_trial_step():
    # Newton trial steps on this ill-conditioned stable measure overflow
    # exp(step * direction); such a step is rejected and halved, so the solve
    # never reports the overflow as an input error.
    eps = 1e-5
    nu = measure_on([[1.0, 0.0], [eps, 1.0], [1j * eps, 1.0], [-eps, 1.0]], [0.4, 0.2, 0.2, 0.2])
    with np.errstate(all="ignore"):
        try:
            solve_target(nu, np.diag([0.01, 0.99]))
        except BalancerError as exc:
            assert not isinstance(exc, InvalidInput), exc


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8, balancing.TARGET_MIN_EIGENVALUE])
def test_targets_down_to_the_eigenvalue_floor_converge(seed, eps):
    # the target stop never cuts a valid target solve short
    nu = stable_measure(rng(seed), 2)
    rho = np.diag([eps, (1 - eps) / 2, (1 - eps) / 2])
    res = solve_target(nu, rho)
    assert res.verdict == VERDICT_CONVERGED
    assert res.residual <= balancing.DEFAULT_TOL


TWO_CONE_B = [0.1, 0.01, 0.001, 1e-4]
TWO_CONE_EPS = [1e-2, 1e-4, 1e-6, 1e-8, balancing.TARGET_MIN_EIGENVALUE]


def two_cone_measure(b):
    """([1:b] + [1:-b] + [0:1])/3: stable, and diag(eps, 1 - eps) needs cond(g* g)
    about 1 / (eps b^2), past COND_LIMIT for the smallest eps."""
    return measure_on([[1.0, b], [1.0, -b], [0.0, 1.0]], [1 / 3] * 3)


@pytest.mark.parametrize("b", [0.01, 0.001])
def test_a_target_needing_cond_past_cond_limit_converges(b):
    # nu = ([1:b] + [1:-b] + [0:1])/3 is stable (no atom carries 1/2).  The
    # off-diagonal terms cancel, so rho = diag(eps, 1 - eps) is reached by
    # g = diag(s, 1/s) with (2/3) s^4 / b^2 = eps: cond(g* g) = 1/s^4 is
    # far past COND_LIMIT, and a target solve has no cond stop.  Each Newton
    # step takes cond(g* g) up by at most COND_LIMIT, so the solve passes it
    # in several steps; here it starts at 3 s, past it.
    eps = balancing.TARGET_MIN_EIGENVALUE
    nu = two_cone_measure(b)
    s = 3 * (1.5 * eps * b * b) ** 0.25
    rho = np.diag([eps, 1 - eps])
    res = solve_target(nu, rho, start=GroupElement(np.diag([s, 1 / s])))
    assert res.verdict == VERDICT_CONVERGED
    g = res.g.g
    assert np.linalg.cond(g.conj().T @ g) > 10 * balancing.COND_LIMIT
    moved = momentum(pushforward(res.g, nu)).m
    assert np.linalg.norm(moved - (rho - np.eye(2) / 2)) <= balancing.DEFAULT_TOL


@pytest.mark.parametrize("b", TWO_CONE_B)
@pytest.mark.parametrize("eps", TWO_CONE_EPS)
def test_newton_from_the_identity_reaches_targets_near_the_floor(b, eps):
    # Uncapped, the first Newton step from the identity overflowed g and the
    # solve raised SingularGram on every one of these.
    nu = two_cone_measure(b)
    rho = np.diag([eps, 1 - eps])
    res = solve_target(nu, rho)
    assert res.verdict == VERDICT_CONVERGED
    moved = momentum(pushforward(res.g, nu)).m
    assert np.linalg.norm(moved - (rho - np.eye(2) / 2)) <= balancing.DEFAULT_TOL


@pytest.mark.parametrize("b", TWO_CONE_B)
@pytest.mark.parametrize("eps", TWO_CONE_EPS)
def test_one_newton_step_takes_cond_up_by_at_most_cond_limit(b, eps):
    res = solve_target(two_cone_measure(b), np.diag([eps, 1 - eps]), max_iter=1)
    g = res.g.g
    assert np.linalg.cond(g.conj().T @ g) <= balancing.COND_LIMIT * (1 + 1e-6)


@pytest.mark.parametrize("seed", range(20))
def test_a_target_solve_from_an_ill_conditioned_start_does_not_raise(seed):
    # cond(g* g) = 1e28 at the start: the Gram matrix is far past any
    # condition limit, and the solve ends converged or at max-iterations.
    start = GroupElement(np.diag([1e7, 1.0, 1e-7]))
    res = solve_target(stable_measure(rng(seed), 2), np.eye(3) / 3, start=start)
    assert res.verdict in (VERDICT_CONVERGED, VERDICT_MAX_ITERATIONS)
    if res.verdict == VERDICT_CONVERGED:
        assert res.residual <= balancing.DEFAULT_TOL


@pytest.mark.parametrize("seed", range(20))
def test_a_target_solve_from_an_ill_conditioned_start_converges(seed):
    # On 9 of these seeds the capped Newton step finds no step at some
    # iterate (its direction's eigenvalue spread reaches about 1e26); the
    # steepest step on the squared residual then moves the solve.
    start = GroupElement(np.diag([1e7, 1.0, 1e-7]))
    nu = stable_measure(rng(seed), 2)
    res = solve_target(nu, np.eye(3) / 3, start=start)
    assert res.verdict == VERDICT_CONVERGED
    assert direct_momentum_residual(res.g, nu) <= 10 * balancing.DEFAULT_TOL


def test_solve_target_requires_stability():
    with pytest.raises(NotStable):
        solve_target(measure_on([[1.0, 0.0], [0.0, 1.0]], [0.9, 0.1]), np.eye(2) / 2)
    with pytest.raises(NotStable):  # polystable is not enough
        solve_target(measure_on([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]), np.eye(2) / 2)


# ---------------------------------------------------------------------------
# torus solver


def test_torus_solve_matches_bisection_oracle():
    nu = measure_on([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1 / 3] * 3)
    beta = np.array([0.1, -0.1])
    res = torus_solve(nu, beta)
    assert res.converged
    assert res.residual <= 1e-10
    p_target = beta + 0.5
    assert np.allclose(torus_gradient(nu, res.theta), p_target, atol=2e-10)
    t_star = bisection_torus_n1(nu, p_target[0])
    assert res.theta[0] == pytest.approx(t_star, abs=1e-9)
    assert res.theta.sum() == pytest.approx(0.0, abs=1e-12)


def test_torus_solve_zero_target_on_full_support():
    r = rng(58)
    nu = random_measure(r, 2, 6)
    res = torus_solve(nu, np.zeros(3))
    assert res.converged
    p = torus_gradient(nu, res.theta)
    assert np.allclose(p, 1 / 3, atol=2e-10)


def test_torus_solve_validates_beta():
    nu = measure_on([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    with pytest.raises(InvalidInput):
        torus_solve(nu, [0.2, 0.1])  # does not sum to zero
    with pytest.raises(InvalidInput):
        torus_solve(nu, [0.1, -0.1, 0.0])  # wrong length


def test_torus_target_outside_polytope_is_rejected():
    # One atom pinned at the first coordinate axis forces p_0 >= 1/2.
    nu = measure_on([[1.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    with pytest.raises(TargetOutsidePolytope):
        torus_solve(nu, np.array([-0.2, 0.2]))  # asks for p_0 = 0.3


def test_torus_max_iterations_carries_best_iterate():
    nu = measure_on([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1 / 3] * 3)
    beta = np.array([2 / 3 - 1e-6, 1 / 3 + 1e-6]) - 0.5  # nearly extreme target
    with pytest.raises(MaxIterations) as exc:
        torus_solve(nu, beta, max_iter=2)
    assert exc.value.theta is not None
    assert exc.value.residual is not None


def test_torus_stop_message_names_the_iteration_and_the_cause(monkeypatch):
    nu = measure_on([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1 / 3] * 3)
    beta = np.array([2 / 3 - 1e-6, 1 / 3 + 1e-6]) - 0.5
    with pytest.raises(MaxIterations, match=r"at iteration 2 \(iteration cap\)"):
        torus_solve(nu, beta, max_iter=2)
    monkeypatch.setattr(balancing, "MIN_STEP", 2.0)  # no trial step is ever taken
    with pytest.raises(MaxIterations, match=r"at iteration 0 \(flat step"):
        torus_solve(nu, beta)
    descent = balance(stable_measure(rng(62), 2), method="geodesic-descent")
    target = solve_target(nu, np.diag([0.6, 0.4]))
    for res in (descent, target):
        assert (res.verdict, res.iterations) == (VERDICT_MAX_ITERATIONS, 0)


def test_torus_solve_at_zero_tolerance_stops_flat():
    # Once the objective stops changing only a lower residual is progress,
    # so an exact-zero tolerance stops early instead of running to the cap.
    nu = measure_on([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1 / 3] * 3)
    with pytest.raises(MaxIterations, match=r"at iteration \d \(flat step") as exc:
        torus_solve(nu, np.array([0.05, -0.05]), tol=0.0)
    assert exc.value.residual <= 1e-15


def test_the_solvers_backtrack_through_one_line_search(monkeypatch):
    # Every moved state past the start is a trial of a geodesic step, and
    # each iteration takes one step.
    calls = count_states(monkeypatch)
    nu = measure_on([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1 / 3] * 3)
    solves = (
        lambda: balance(stable_measure(rng(62), 2), method="geodesic-descent"),
        lambda: solve_target(nu, np.diag([0.6, 0.4])),
        lambda: torus_solve(nu, np.array([0.1, -0.1])),
    )
    for solve in solves:
        calls.update(steps=0, states=0, trials=0)
        res = solve()
        assert res.iterations >= 1 and calls["steps"] == res.iterations
        assert calls["states"] == 1 and calls["trials"] >= calls["steps"]


def test_torus_lp_matches_the_loop_builder():
    r = rng(60)
    uncovered_seen = 0
    for trial in range(60):
        m, k = int(r.integers(1, 7)), int(r.integers(2, 6))
        allowed = np.ones(k, dtype=bool)
        if trial % 3 == 0:
            allowed[r.integers(k)] = False  # a coordinate no atom touches
        support = (r.random((m, k)) < 0.4) & allowed
        support[~support.any(axis=1), np.flatnonzero(allowed)[0]] = True
        uncovered_seen += not support.any(axis=0).all()
        w = r.random(m) + 0.1
        w /= w.sum()
        p_target = r.random(k)
        got = _torus_lp(w, support, p_target)
        want = reference_torus_lp(w, support, p_target)
        for a, b in zip(got[:5], want[:5]):
            assert a.shape == b.shape and np.array_equal(a, b)
        assert got[5] == want[5]
    assert uncovered_seen >= 20


def test_a_full_support_target_is_interior_exactly_when_min_p_clears_the_floor():
    r = rng(61)
    compared = 0
    for trial in range(80):
        m, k = int(r.integers(1, 7)), int(r.integers(2, 6))
        w = r.random(m) + 0.1
        w /= w.sum()
        support = np.ones((m, k), dtype=bool)
        low = r.choice([-1e-12, 0.0, 1e-10, 1e-9, 1.001e-9, 1e-8, 10.0 ** r.uniform(-9, -2)])
        rest = r.random(k - 1) + 0.01
        p_target = np.concatenate([[low], (1.0 - low) * rest / rest.sum()])
        try:
            balancing._check_torus_target(w, support, p_target)
            interior = True
        except TargetOutsidePolytope:
            interior = False
        assert interior == (p_target.min() > balancing.TORUS_LP_FLOOR)
        c, a_ub, b_ub, a_eq, b_eq, bounds = reference_torus_lp(w, support, p_target)
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
        if res.success:
            compared += 1
            assert abs(-res.fun - p_target.min()) <= 1e-7
    assert compared >= 40


@pytest.mark.parametrize(
    "low, interior",
    [(-1e-12, False), (0.0, False), (1e-10, False), (1e-9, False), (1.001e-9, True), (1e-6, True)],
)
def test_a_full_support_target_with_min_p_at_the_floor_is_outside(low, interior):
    w = np.array([0.5, 0.3, 0.2])
    support = np.ones((3, 3), dtype=bool)
    p_target = np.array([low, 0.5, 0.5 - low])
    if interior:
        balancing._check_torus_target(w, support, p_target)
    else:
        with pytest.raises(TargetOutsidePolytope, match="outside \\(or on the boundary of\\)"):
            balancing._check_torus_target(w, support, p_target)


def test_only_a_partial_support_target_solves_an_lp(monkeypatch):
    calls = []

    class LinprogCalled(Exception):
        pass

    def no_linprog(*args, **kwargs):
        calls.append(args)
        raise LinprogCalled

    monkeypatch.setattr(balancing, "linprog", no_linprog)
    full = measure_on([[1.0, 1.0], [1.0, -1.0], [1.0, 2.0]], [1 / 3] * 3)
    assert torus_solve(full, np.array([0.1, -0.1])).converged
    assert calls == []
    partial = measure_on([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1 / 3] * 3)
    with pytest.raises(LinprogCalled):
        torus_solve(partial, np.array([0.1, -0.1]))
    assert len(calls) == 1


def test_a_torus_target_on_a_coordinate_no_atom_touches_names_it():
    nu = measure_on([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]], [1 / 3] * 3)
    with pytest.raises(TargetOutsidePolytope, match="coordinate 2 is unreachable"):
        torus_solve(nu, np.zeros(3))  # asks for p_2 = 1/3


TORUS_CASES = [
    ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1 / 3] * 3, [0.1, -0.1]),
    (random_measure(rng(58), 2, 6), None, [0.1, 0.05, -0.15]),
]


def torus_case(rows, weights, beta):
    nu = rows if weights is None else measure_on(rows, weights)
    return nu, np.array(beta)


@pytest.mark.parametrize(
    "solve",
    [
        lambda: solve_target(stable_measure(rng(0), 2), np.eye(3) / 3),
        lambda: torus_solve(*torus_case(*TORUS_CASES[0])),
        lambda: torus_solve(*torus_case(*TORUS_CASES[1])),
    ],
    ids=["solve_target", "torus-n1", "torus-n2"],
)
def test_a_failed_gram_solve_raises_singular_gram(solve, monkeypatch):
    # The torus solve is the target step on the diagonal directions: one Gram solve, one refusal.
    def failing_solve(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    with pytest.raises(SingularGram, match="^Gram operator solve failed$"):
        solve()


@pytest.mark.parametrize("case", TORUS_CASES, ids=["n1", "n2"])
def test_a_torus_ascent_direction_falls_back_to_the_gradient(case, monkeypatch):
    # Every Newton direction is turned into an ascent direction, so the
    # Newton step fails (bar a rare step within rounding of the target) and
    # the steepest step on the squared residual moves the iterate; those
    # steps still reach the target.  On the one diagonal direction of n = 1
    # the steepest step at Newton's rate is the Newton step itself, so only
    # n = 2 needs more iterations.
    nu, beta = torus_case(*case)
    want = torus_solve(nu, beta)
    found = []
    step = balancing._geodesic_step
    monkeypatch.setattr(balancing, "_geodesic_step", lambda *a: found.append(step(*a)) or found[-1])
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: -solve(a, b))
    got = torus_solve(nu, beta)
    assert got.converged
    moved = [f is not None for f in found]
    assert sum(moved) == got.iterations and moved[:2] == [False, True]
    assert moved.count(False) >= 0.9 * got.iterations
    if len(beta) == 2:
        assert got.iterations == want.iterations
    else:
        assert got.iterations > want.iterations
    assert np.allclose(got.theta, want.theta, atol=1e-8)


def test_a_torus_theta_has_mean_zero_on_every_component_of_the_support_graph():
    # Components {0, 1} and {2, 3}, and coordinate 4, which no atom touches:
    # the residual is flat along each indicator, so theta is printed
    # orthogonal to all three.
    rows = [[1, 1, 0, 0, 0], [1, 2j, 0, 0, 0], [0, 0, 1, 1, 0], [0, 0, 2, -1, 0]]
    nu = measure_on(rows, [0.25] * 4)
    p_target = np.array([0.2, 0.3, 0.35, 0.15, 0.0])
    res = torus_solve(nu, p_target - 0.2)
    assert res.converged and res.residual <= balancing.DEFAULT_TOL
    indicators = np.array([[1, 1, 0, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 0, 1]])
    assert np.abs(indicators @ res.theta).max() <= 1e-12
    assert np.abs(res.theta).max() > 0.05  # a solve that moved
    assert np.allclose(torus_gradient(nu, res.theta), p_target, atol=1e-10)


def test_the_torus_directions_are_orthonormal_and_sum_to_zero_on_each_component():
    support = np.array([[1, 1, 0, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 1, 0]], dtype=bool)
    dirs = balancing._torus_directions(support)
    assert dirs.shape == (2, 5, 5)  # k = 5 minus components {0, 1}, {2, 3}, {4}
    diag = dirs.diagonal(axis1=1, axis2=2).real
    assert np.array_equal(dirs, np.array([np.diag(d) for d in diag]))
    assert np.allclose(diag @ diag.T, np.eye(2), atol=1e-15)
    assert np.abs(diag @ np.array([[1, 1, 0, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 0, 1]]).T).max() <= 1e-15
    for k in range(2, 7):  # one component: the diagonal elements of the traceless basis
        full = balancing._torus_directions(np.ones((1, k), dtype=bool))
        assert np.allclose(full, traceless_hermitian_basis(k)[k * (k - 1) :], atol=1e-15)


def test_torus_solve_is_deterministic():
    r = rng(59)
    nu = random_measure(r, 3, 7)
    b = np.array([0.05, -0.02, -0.02, -0.01])
    t1 = torus_solve(nu, b).theta
    t2 = torus_solve(nu, b).theta
    assert np.array_equal(t1, t2)


# ---------------------------------------------------------------------------
# one rank policy


def near_hyperplane_measure():
    """Atoms 0-2 lie within 1e-6 of a plane of C^4, all four within 1e-6 of a
    hyperplane: full rank at the default cutoff, not at a cutoff of 1e-4."""
    e = np.eye(4)
    rows = [e[0], e[1], e[0] + e[1] + 1e-6 * (e[2] + e[3]), e[2] + 1e-6 * e[3]]
    return AtomicMeasure(np.array(rows, dtype=complex), np.full(4, 0.25))


def full_span_shortcut(result):
    """The balancers' full-span shortcut: diverged before any step."""
    return result.verdict == VERDICT_DIVERGED and result.iterations == 0


def test_rank_policy_has_one_home(monkeypatch):
    nu = near_hyperplane_measure()
    z = nu.coeff_matrix()

    def ranks_seen():
        cands = {c.atom_indices: c.linear_dim for c in candidate_subspaces(nu)}
        results = [
            balance(nu, method=method, max_iter=5)
            for method in ("fixed-point", "geodesic-descent")
        ]
        return (span_basis(z).shape[1], span_basis(z[:3]).shape[1], cands.get((0, 1, 2))), results

    ranks, results = ranks_seen()
    assert ranks == (4, 3, 3)
    assert not any(full_span_shortcut(res) for res in results)
    monkeypatch.setattr(geometry, "RANK_TOL", 1e-4)
    ranks, results = ranks_seen()
    assert ranks == (3, 2, None)  # atoms 0-2 no longer span a 3-dim candidate
    for res in results:
        assert full_span_shortcut(res)
        cert = res.certificate
        assert (cert.atom_indices, cert.mass, cert.linear_dim) == ((0, 1, 2, 3), 1.0, 3)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("eps", [1e-13, 1e-6])
def test_classifier_and_balancers_agree_on_the_rank_near_a_hyperplane(n, eps):
    nu = near_hyperplane_cloud(rng(70 + n), n, eps)
    m = nu.atom_count
    holds_all = [c.linear_dim for c in candidate_subspaces(nu) if len(c.atom_indices) == m]
    assert bool(holds_all) == (eps == 1e-13)
    if holds_all:
        assert classify(nu).certificate.linear_dim == n
    for method in ("fixed-point", "geodesic-descent"):
        res = balance(nu, method=method, max_iter=3)
        assert full_span_shortcut(res) == bool(holds_all)
        if holds_all:
            assert holds_all == [res.certificate.linear_dim] == [n]


# ---------------------------------------------------------------------------
# divergence certificates

METHODS = ("fixed-point", "geodesic-descent")


@pytest.mark.parametrize("method", METHODS)
def test_planted_unstable_measures_are_certified_within_the_cap(method):
    stops = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a long descent step must not overflow
        for n, seed in PLANTED_SWEEP:
            nu, *_ = unstable_measure(rng(seed), n)
            res = balance(nu, method=method)
            assert res.verdict == VERDICT_DIVERGED, (n, seed, res.verdict)
            assert certified_excess(nu, res.certificate.atom_indices) > stability.DEFAULT_TOL_EQ
            stops.append(res.iterations)
    # every stop is a checkpoint scan: iteration 2^j or the cap
    assert all(it & (it - 1) == 0 or it == DEFAULT_MAX_ITER for it in stops)
    assert max(stops) <= 64


def test_descent_converges_on_the_stable_sweep_with_a_monotone_energy():
    for n, seed in STABLE_SWEEP:
        res = balance(stable_measure(rng(seed), n), method="geodesic-descent")
        assert res.verdict == VERDICT_CONVERGED, (n, seed, res.verdict)
        assert res.iterations <= 128, (n, seed)
        energies = np.array([row[2] for row in res.trace])
        slack = balancing.OBJECTIVE_RESOLUTION * np.maximum(1.0, np.abs(energies[:-1]))
        assert np.all(np.diff(energies) <= slack), (n, seed)


# Unstable inputs on which the fixed point ran to its cap while atoms were
# matched to the eigenspaces of S within 1e-8, found by an exact
# classification of Gaussian-integer atoms with rational weights.
FIXED_POINT_STALLS = [
    ([[-1, 2], [1 + 1j, -1]], [5 / 12, 7 / 12]),
    ([[0, -1j, 0], [1, 1j, 1 + 1j], [1, -1, 1]], [1 / 3, 5 / 12, 1 / 4]),
    (
        [[0, -1, 1, 1], [0, -1, -1j, -1j], [2, 0, 0, 0], [1, 1j, 1 + 1j, -1j], [-1j, 1, 2, 2]],
        [1 / 5] * 5,
    ),
]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("rows, weights", FIXED_POINT_STALLS, ids=["n1", "n2", "n3"])
def test_both_methods_certify_the_fixed_point_stalls(rows, weights, method):
    nu = measure_on(np.array(rows, dtype=complex), weights)
    res = balance(nu, method=method)
    assert res.verdict == VERDICT_DIVERGED
    assert certified_excess(nu, res.certificate.atom_indices) > stability.DEFAULT_TOL_EQ
    assert res.iterations <= 64


def near_pair_measure(n: int):
    """A heavy atom e_0 (0.6), an atom 1e-5 off it and n + 2 generic atoms."""
    r = rng(3)
    near = np.zeros(n + 1, dtype=complex)
    near[:2] = [1.0, 1e-5]
    generic = r.normal(size=(n + 2, n + 1)) + 1j * r.normal(size=(n + 2, n + 1))
    rows = np.vstack([np.eye(n + 1)[0], near, generic])
    return measure_on(rows, [0.6, 0.05] + [0.35 / (n + 2)] * (n + 2))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n", [1, 2])
def test_an_atom_near_the_collapsing_span_does_not_hide_it(n, method):
    # The second atom stays within EIGENSPACE_MEMBERSHIP_TOL of the small
    # eigenspace but off the heavy atom's line; the span of both is too big
    # (on n = 2 a plane of mass 0.65 < 2/3), so the scan must try the heavy
    # atom alone, the shorter distance cut.
    nu = near_pair_measure(n)
    assert classify(nu).kind is StabilityKind.UNSTABLE
    res = balance(nu, method=method)
    assert res.verdict == VERDICT_DIVERGED
    assert res.certificate.atom_indices == (0,)
    assert certified_excess(nu, res.certificate.atom_indices) > stability.DEFAULT_TOL_EQ
    assert res.iterations <= 64


@pytest.mark.parametrize("n", [2, 3])
def test_tight_subspaces_do_not_stop_the_fixed_point(n):
    # Orthogonal blocks: the eigenvectors of S hold each block exactly, and a
    # block carries exactly its share, which proves nothing; S converges.
    for seed in range(4):
        nu, _ = polystable_measure(rng(seed), n, move=False)
        assert balance(nu).verdict == VERDICT_CONVERGED


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["stable", "planted-unstable", "near-hyperplane"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    method=st.sampled_from(METHODS),
)
def test_diverged_always_carries_a_violated_subspace(kind, seed, n, method):
    r = rng(seed)
    if kind == "stable":
        nu = stable_measure(r, n, weights="dirichlet")
    elif kind == "planted-unstable":
        nu, *_ = unstable_measure(r, n, excess=float(r.uniform(0.01, 0.1)))
    else:
        nu = near_hyperplane_cloud(r, n, 10.0 ** r.uniform(-9, -6))
    res = balance(nu, method=method)
    if classify(nu).kind is StabilityKind.STABLE:
        assert res.verdict != VERDICT_DIVERGED
    if res.verdict == VERDICT_DIVERGED:
        assert certified_excess(nu, res.certificate.atom_indices) > stability.DEFAULT_TOL_EQ


@settings(max_examples=700, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), m=st.integers(2, 7))
def test_balancing_agrees_with_the_classifier_on_exact_coincidences(seed, n, m):
    # Stable and polystable input converges, unstable input is certified; a
    # semistable-not-polystable run goes to its cap and is not run here.
    nu = gaussian_integer_measure(rng(seed), n, m)
    kind = classify(nu).kind
    if kind is StabilityKind.SEMISTABLE_NOT_POLYSTABLE:
        return
    for method in METHODS:
        res = balance(nu, method=method)
        if kind is StabilityKind.UNSTABLE:
            assert res.verdict == VERDICT_DIVERGED, (method, res.verdict)
            assert certified_excess(nu, res.certificate.atom_indices) > stability.DEFAULT_TOL_EQ
        else:
            assert res.verdict == VERDICT_CONVERGED, (method, kind, res.verdict)


def converges_then_is_ill_conditioned(nu, method, limit, monkeypatch):
    """Stable nu converges under COND_LIMIT, to a g that balances it to 1e-9;
    with COND_LIMIT lowered to ``limit``, below the cond(g) that nu needs, the
    run ends ill-conditioned: no proper subspace carries its share, so there
    is nothing to certify, and the reported g is finite."""
    assert classify(nu).kind is StabilityKind.STABLE
    res = balance(nu, method=method)
    assert res.verdict == VERDICT_CONVERGED
    assert direct_momentum_residual(res.g, nu) <= 1e-9
    monkeypatch.setattr(balancing, "COND_LIMIT", limit)
    res = balance(nu, method=method)
    assert res.verdict == VERDICT_ILL_CONDITIONED
    assert res.certificate is None
    assert np.all(np.isfinite(res.g.g))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("eps", [1e-6, 1e-9])
def test_stable_measure_near_a_hyperplane_is_ill_conditioned(method, eps, monkeypatch):
    # The balancing g has cond(g) about 2.2 / eps, and S = g* g the square of
    # it: 5e18 at eps = 1e-9, which only the iterate g resolves.
    converges_then_is_ill_conditioned(near_hyperplane_cloud(rng(72), 2, eps), method, 0.1 / eps, monkeypatch)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("seed", SINGULAR_S_SEEDS)
def test_a_rounded_singular_s_is_ill_conditioned_not_an_error(seed, method, monkeypatch):
    # The balancing g has cond(g) 3e8 to 1.5e9, so S = g* g rounds to a
    # singular matrix; the iterate g stays invertible.
    converges_then_is_ill_conditioned(singular_s_cloud(seed), method, 1e6, monkeypatch)


def test_a_stop_past_cond_limit_without_a_heavy_span_is_ill_conditioned():
    # Generic stable input: no atom span carries its share, so a g past
    # COND_LIMIT (here 1e14) has nothing to certify.
    nu = stable_measure(rng(0), 2)
    g = np.diag([1e7, 1.0, 1e-7]).astype(complex)
    verdict = balancing._stop_rule(nu.coeff_matrix(), nu.weights, g, 1.0, balancing.DEFAULT_TOL, 5, DEFAULT_MAX_ITER)
    assert verdict == (VERDICT_ILL_CONDITIONED, None)


@pytest.mark.parametrize("seed, n, m", [(712, 2, 5), (48, 1, 6)])
def test_a_descent_run_with_no_step_is_judged_by_the_degenerate_scan(seed, n, m):
    # Semistable-not-polystable: descent stalls before the cap, at a g whose
    # small singular subspace holds a tight span (excess 0), so it ends
    # diverged on that span rather than max-iterations.
    nu = gaussian_integer_measure(rng(seed), n, m)
    assert classify(nu).kind is StabilityKind.SEMISTABLE_NOT_POLYSTABLE
    res = balance(nu, method="geodesic-descent")
    assert res.verdict == VERDICT_DIVERGED
    assert res.iterations < DEFAULT_MAX_ITER
    assert certified_excess(nu, res.certificate.atom_indices) >= -stability.DEFAULT_TOL_EQ


@pytest.mark.parametrize(
    "seed, method",
    [
        pytest.param(
            seed,
            method,
            # the run converges to a checked zero where classify says unstable
            marks=[] if seed == 167 else pytest.mark.xfail(strict=True, reason="ROADMAP item 4"),
        )
        for seed in RANK_BOUNDARY_SEEDS
        for method in METHODS
    ],
)
def test_unstable_input_at_the_rank_cutoff_is_certified_diverged(seed, method):
    nu = rank_boundary_cloud(seed)
    assert classify(nu).kind is StabilityKind.UNSTABLE
    res = balance(nu, method=method)
    assert res.verdict == VERDICT_DIVERGED
    assert -res.certificate.margin > stability.DEFAULT_TOL_EQ


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("seed", [seed for seed in RANK_BOUNDARY_SEEDS if seed != 167])
def test_inputs_unstable_at_the_rank_cutoff_converge_to_a_checked_zero(seed, method):
    # classify reads n + 1 of the atoms as rank n at its cutoff, but the
    # stored floats have a zero of the momentum map: the reported g balances
    # them to DEFAULT_TOL, recomputed from the atoms (at most 8.2e-11 here).
    nu = rank_boundary_cloud(seed)
    assert classify(nu).kind is StabilityKind.UNSTABLE
    res = balance(nu, method=method)
    assert res.verdict == VERDICT_CONVERGED
    assert direct_momentum_residual(res.g, nu) <= balancing.DEFAULT_TOL


@pytest.mark.parametrize("seed", NEAR_CUTOFF_DESCENT_SEEDS)
def test_stable_input_near_the_rank_cutoff_is_balanced_by_the_fixed_point(seed):
    nu = near_cutoff_cloud(seed)
    assert classify(nu).kind is StabilityKind.STABLE
    res = balance(nu)
    assert res.verdict == VERDICT_CONVERGED
    assert direct_momentum_residual(res.g, nu) <= balancing.DEFAULT_TOL


@pytest.mark.xfail(
    strict=True,
    reason="one capped descent step may multiply cond(g) by COND_LIMIT^(1/2) and pass COND_LIMIT (ROADMAP item 3)",
)
@pytest.mark.parametrize("seed", NEAR_CUTOFF_DESCENT_SEEDS)
def test_descent_balances_stable_input_near_the_rank_cutoff(seed):
    res = balance(near_cutoff_cloud(seed), method="geodesic-descent")
    assert res.verdict == VERDICT_CONVERGED


def stall_tyler_at_first_step(monkeypatch):
    """Make every eigh of R report a zero eigenvalue: R is not positive definite."""
    eigh = np.linalg.eigh

    def singular(a):
        vals, vecs = eigh(a)
        vals = vals.copy()
        vals[0] = 0.0
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", singular)


def test_a_fixed_point_run_whose_r_is_not_positive_definite_stops_at_max_iterations(monkeypatch):
    # Stable input: the stalled scan at g = Id finds no span carrying its share.
    nu = stable_measure(rng(0), 2)
    stall_tyler_at_first_step(monkeypatch)
    res = balance(nu)
    assert (res.verdict, res.iterations, res.certificate) == (VERDICT_MAX_ITERATIONS, 0, None)


def test_a_fixed_point_run_whose_r_is_not_positive_definite_is_judged_by_the_stalled_scan(monkeypatch):
    # Semistable-not-polystable: the stalled scan at g = Id finds a tight span
    # (excess 0), a certificate once the run cannot go on.
    nu = gaussian_integer_measure(rng(712), 2, 5)
    assert classify(nu).kind is StabilityKind.SEMISTABLE_NOT_POLYSTABLE
    stall_tyler_at_first_step(monkeypatch)
    res = balance(nu)
    assert (res.verdict, res.iterations) == (VERDICT_DIVERGED, 0)
    assert res.certificate.atom_indices == (0, 1, 4)
    assert certified_excess(nu, res.certificate.atom_indices) >= -stability.DEFAULT_TOL_EQ


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["stable", "planted-unstable", "gaussian-integer", "near-hyperplane"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    m=st.integers(2, 7),
)
def test_the_fixed_point_never_raises_the_energy(kind, seed, n, m):
    # Tyler's step minimizes a majorizer of the energy that touches it at S
    # (log is concave), so the undamped step cannot raise it beyond rounding.
    r = rng(seed)
    if kind == "stable":
        nu = stable_measure(r, n, weights="dirichlet")
    elif kind == "planted-unstable":
        nu, *_ = unstable_measure(r, n, excess=float(r.uniform(0.01, 0.1)))
    elif kind == "gaussian-integer":
        nu = gaussian_integer_measure(r, n, m)
    else:
        nu = near_hyperplane_cloud(r, n, 10.0 ** r.uniform(-9, -6))
    energies = np.array([row[2] for row in balance(nu).trace])
    slack = 1e-10 * np.maximum(1.0, np.abs(energies[:-1]))
    assert np.all(np.diff(energies) <= slack), (kind, n)


# ---------------------------------------------------------------------------
# tolerance checks


@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
@pytest.mark.parametrize(
    "solve",
    ["classify", "balance", "balance target", "solve_target", "torus_solve", "hersch_balance"],
)
def test_tolerances_must_be_finite_and_nonnegative(solve, value):
    nu = stable_measure(rng(62), 1)
    sm = SphereMeasure([[0, 0, 1.0], [0, 0, -1.0], [1.0, 0, 0]], [0.45, 0.3, 0.25])
    rho = np.diag([0.6, 0.4])
    call = {
        "classify": lambda: classify(nu, tol_eq=value),
        "balance": lambda: balance(nu, tol=value),
        "balance target": lambda: balance(nu, target_rho=rho, tol=value),
        "solve_target": lambda: solve_target(nu, rho, tol=value),
        "torus_solve": lambda: torus_solve(nu, [0.1, -0.1], tol=value),
        "hersch_balance": lambda: hersch_balance(sm, tol=value),
    }[solve]
    with pytest.raises(InvalidInput, match="must be finite and >= 0"):
        call()


# ---------------------------------------------------------------------------
# centroid shift


def test_centroid_shift_frozen_values():
    shift = polytope_centroid_shift([[0.5, -0.5], [-0.5, 0.5]])
    assert np.allclose(shift, [0.0, 0.0], atol=1e-15)
    shift = polytope_centroid_shift([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(shift, [1 / 3, 1 / 3], atol=1e-15)


def test_centroid_shift_ignores_interior_points():
    shift = polytope_centroid_shift(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.25, 0.25]]
    )
    assert np.allclose(shift, [1 / 3, 1 / 3], atol=1e-12)


def test_centroid_shift_rejects_degenerate_input():
    with pytest.raises(DegenerateHull):
        polytope_centroid_shift([[1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(InvalidInput):
        polytope_centroid_shift(np.empty((0, 2)))
