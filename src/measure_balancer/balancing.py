"""Solvers that move a measure to a prescribed momentum value.

Balancing solves F(g.nu) = 0 over g in SL(n+1, C).  Writing g = S^(1/2) for
a positive definite Hermitian S of determinant 1, the zero-momentum equation
becomes the fixed-point condition

    S = det(R(S))^(1/(n+1)) * R(S)^(-1),
    R(S) = sum_i w_i z_i z_i* / (z_i* S z_i),

iterated directly (the default), or the Kempf-Ness energy
Psi(nu, g) = sum w_i log||g z_i|| is minimized by geodesic steepest descent
g <- exp(-s F(g.nu)) g with Armijo backtracking.  A stable measure has a
unique balanced S; an unstable or boundary-semistable one drives cond(S) to
infinity, certified by the subspace its small eigenvectors collapse onto.
The fixed point looks for that subspace at iterations 1, 2, 4, 8, ... and
at its cap, and stops as soon as one carries strictly more than its share.
When cond(S) passes COND_LIMIT with no subspace carrying its share, the
verdict is ill-conditioned: the balanced S, if any, is beyond the limit.

For an interior target state rho (positive definite, trace 1) the equation
F(g.nu) = rho - Id/(n+1) is solved by Newton steps on the direction
coefficients, using the Gram operator of the momentum derivative.  The
diagonal-torus version (targets on the momentum polytope of the coordinate
torus) is a damped Newton solve of a convex log-sum-exp objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import (
    DegenerateHull,
    InvalidInput,
    MaxIterations,
    NotPositiveTarget,
    NotStable,
    NumericalDegeneracy,
    SingularGram,
    TargetOutsidePolytope,
    TooManyAtoms,
)
from .geometry import (
    EIGENSPACE_MEMBERSHIP_TOL,
    GroupElement,
    SpectralDirection,
    herm_exp,
    move_rows,
    rows_in_nested_spans,
    span_basis,
    span_rank,
    traceless_hermitian_basis,
)
from .measures import AtomicMeasure
from .stability import StabilityKind, Subspace, classify
from .util import check_max_iter, check_tol

VERDICT_CONVERGED = "converged"
VERDICT_DIVERGED = "diverged"
VERDICT_MAX_ITERATIONS = "max-iterations"
VERDICT_ILL_CONDITIONED = "ill-conditioned"  # needs cond(S) beyond COND_LIMIT

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 2000
DEFAULT_NEWTON_MAX_ITER = 200  # cap of the Newton solves (target, torus)
COND_LIMIT = 1e12  # cond(S) beyond this stops a balance as degenerate
# A span carrying mass - rank/(n+1) above this proves instability; within it
# of zero the span is tight, which proves nothing (polystable input has such).
CERT_EXCESS_TOL = 1e-9
GRAM_COND_LIMIT = 1e14  # cond(Gram) beyond this stops a target solve
TORUS_SUPPORT_TOL = 1e-12  # |z_ij| above this puts coordinate j in atom i's support
TORUS_LP_FLOOR = 1e-9  # interiority LP floor delta at or below this: not interior
MIN_DAMPING = 2.0**-10
MIN_STEP = 2.0**-40
ARMIJO_C = 1e-4
OBJECTIVE_RESOLUTION = 1e-14  # a decrease below this * max(1, |objective|) is unresolvable


@dataclass(eq=False)
class BalanceResult:
    """Outcome of a balancing or target solve.

    ``trace`` holds one (iteration, residual, kempf_ness value) triple per
    iteration, including the starting state.  For the zero-momentum solvers
    ``g`` is the canonical Hermitian positive square root; for nonzero
    targets it is the composed group element (a polar representative would
    conjugate the momentum away from the target).
    """

    g: GroupElement
    residual: float
    iterations: int
    trace: list
    verdict: str
    certificate: Subspace | None = None


@dataclass(eq=False)
class TorusSolveResult:
    theta: np.ndarray
    residual: float
    iterations: int
    converged: bool


def _herm_sqrt(s: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(s)
    vals = np.maximum(vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _det_normalize(s: np.ndarray) -> np.ndarray:
    sign, logdet = np.linalg.slogdet(s)
    return s * np.exp(-logdet / s.shape[0])


def _start_element(nu: AtomicMeasure, start) -> np.ndarray:
    """The start iterate as a matrix: the identity, or start checked in size."""
    k = nu.dim + 1
    if start is None:
        return np.eye(k, dtype=complex)
    g0 = start.g if isinstance(start, GroupElement) else GroupElement(start).g
    if g0.shape[0] != k:
        raise InvalidInput("start element size does not match the measure")
    return g0


def _tyler_state(z: np.ndarray, w: np.ndarray, s: np.ndarray):
    """q_i = z_i* S z_i, the reweighted scatter R, residual and energy at S."""
    k = s.shape[0]
    q = np.einsum("mb,mb->m", z.conj() @ s, z).real
    if np.any(q <= 0.0) or not np.all(np.isfinite(q)):
        return q, None, None, np.inf, np.inf
    r_mat = (z.T * (w / q)) @ z.conj()
    s_half = _herm_sqrt(s)
    mom = s_half @ r_mat @ s_half - np.eye(k) / k
    residual = float(np.linalg.norm(mom))
    energy = 0.5 * float(w @ np.log(q))
    return q, r_mat, s_half, residual, energy


def _diverging(s: np.ndarray) -> bool:
    """S lost definiteness or cond(S) passed COND_LIMIT: divergence."""
    vals = np.linalg.eigvalsh(s)
    return vals[0] <= 0.0 or vals[-1] / vals[0] > COND_LIMIT


def _full_span_certificate(nu: AtomicMeasure) -> Subspace:
    q = span_basis(nu.coeffs)
    return Subspace(
        basis=q, atom_indices=tuple(range(nu.atom_count)), mass=1.0
    )


def _eigenspace_scan(z: np.ndarray, w: np.ndarray, s: np.ndarray):
    """The atom span in the small-eigenvalue eigenspaces of S of largest excess.

    For each j the atoms within EIGENSPACE_MEMBERSHIP_TOL of the span of the
    j smallest eigenvectors of S span a subspace; a proper one carries
    excess = mass - rank/(n+1).  Returns (subspace, excess) for the largest
    excess, or (None, -inf) when no eigenspace holds a proper atom span.
    """
    k = z.shape[1]
    _, vecs = np.linalg.eigh(s)
    masks = rows_in_nested_spans(vecs, z, tol=EIGENSPACE_MEMBERSHIP_TOL)
    best, best_excess, last = None, -np.inf, None
    for inside in masks.T:  # nested masks: an unchanged one gives the same span
        if not inside.any() or (last is not None and np.array_equal(inside, last)):
            continue
        last = inside
        members = np.flatnonzero(inside)
        q_span = span_basis(z[members])
        if q_span.shape[1] >= k:
            continue
        mass = float(w[members].sum())
        excess = mass - q_span.shape[1] / k
        if excess > best_excess:
            best_excess = excess
            best = Subspace(
                basis=q_span, atom_indices=tuple(int(i) for i in members), mass=mass
            )
    return best, best_excess


def _degenerate_stop(nu: AtomicMeasure, s: np.ndarray):
    """(verdict, certificate) once S degenerates.

    ``diverged`` with the scanned span of largest excess when it is at least
    tight, else with the classifier's certificate; ``ill-conditioned`` with
    no certificate when neither gives a proper subspace carrying its share,
    since then S degenerated only because balancing needs cond(S) beyond
    COND_LIMIT.
    """
    best, excess = _eigenspace_scan(nu.coeffs, nu.weights, s)
    if best is not None and excess >= -CERT_EXCESS_TOL:
        return VERDICT_DIVERGED, best
    try:
        certificate = classify(nu).certificate
    except TooManyAtoms:
        certificate = None
    if certificate is not None:
        return VERDICT_DIVERGED, certificate
    return VERDICT_ILL_CONDITIONED, None


def _tyler_balance(nu, tol, max_iter, start) -> BalanceResult:
    k = nu.dim + 1
    z = nu.coeff_matrix()
    w = nu.weights
    g0 = _start_element(nu, start)
    s = g0 if start is None else _det_normalize(g0.conj().T @ g0)
    q, r_mat, s_half, residual, energy = _tyler_state(z, w, s)
    trace = [(0, residual, energy)]
    verdict, certificate, it = VERDICT_MAX_ITERATIONS, None, 0
    if span_rank(z) < k:
        # atoms span a proper subspace: full mass on it, nothing to balance
        verdict, certificate = VERDICT_DIVERGED, _full_span_certificate(nu)
    elif residual <= tol:
        verdict = VERDICT_CONVERGED
    damping = 1.0
    while verdict == VERDICT_MAX_ITERATIONS and it < max_iter:
        it += 1
        s_prop = _det_normalize(np.linalg.inv(r_mat))
        s_prop = (s_prop + s_prop.conj().T) / 2.0
        # Accept a step unless the residual grows meaningfully: divergent
        # iterates often hold the residual constant while S degenerates, and
        # rejecting ulp-level wobble would stall them short of the
        # condition-number certificate.
        while True:
            if damping >= 1.0:
                cand = s_prop
            else:
                cand = _det_normalize((1.0 - damping) * s + damping * s_prop)
            out = _tyler_state(z, w, cand)
            accept_band = residual + max(1e-9 * residual, 1e-14)
            if out[3] <= accept_band or damping <= MIN_DAMPING:
                break
            damping /= 2.0
        damping = min(1.0, damping * 2.0)
        s = cand
        q, r_mat, s_half, residual, energy = out
        trace.append((it, residual, energy))
        if not np.isfinite(residual):
            s_half = np.eye(k, dtype=complex)
            verdict, certificate = _degenerate_stop(nu, s)
        elif residual <= tol:
            verdict = VERDICT_CONVERGED
        elif _diverging(s):
            verdict, certificate = _degenerate_stop(nu, s)
        elif it & (it - 1) == 0 or it == max_iter:
            # Checkpoint: S collapses onto an over-massive span long before
            # cond(S) reaches COND_LIMIT, and a strict excess proves it.
            best, excess = _eigenspace_scan(z, w, s)
            if excess > CERT_EXCESS_TOL:
                verdict, certificate = VERDICT_DIVERGED, best
    return BalanceResult(
        g=GroupElement(s_half),
        residual=float(residual),
        iterations=max_iter if verdict == VERDICT_MAX_ITERATIONS else it,
        trace=trace,
        verdict=verdict,
        certificate=certificate,
    )


def _line_search(trial, objective: float, residual: float, slope: float):
    """The point of the first accepted step of 1, 1/2, ... down to MIN_STEP.

    ``trial(step)`` gives (point, objective, residual), or None when the trial
    point cannot be evaluated; ``slope`` is the objective's rate of decrease.
    A step needs the Armijo decrease ARMIJO_C * step * slope while that is
    above the objective's resolution, and below it (near the minimum) a lower
    residual, which stays resolvable down to the stopping tolerance.  None
    when no step makes progress.
    """
    resolution = OBJECTIVE_RESOLUTION * max(1.0, abs(objective))
    step = 1.0
    while step >= MIN_STEP:
        out = trial(step)
        if out is not None:
            point, objective_try, residual_try = out
            needed = ARMIJO_C * step * slope
            resolved = needed > resolution
            if objective_try <= objective - needed if resolved else residual_try < residual:
                return point
        step /= 2.0
    return None


def _moved_state(z, w, g, beta=None):
    """Unit moved rows, momentum, residual ||F(g.nu) - beta|| and energy at g."""
    k = z.shape[1]
    _, norms, unit = move_rows(g, z)
    mom = (unit.T * w) @ unit.conj() - np.eye(k) / k
    residual = float(np.linalg.norm(mom if beta is None else mom - beta))
    energy = float(w @ np.log(norms))
    return unit, mom, residual, energy


def _descent_balance(nu, tol, max_iter, start) -> BalanceResult:
    k = nu.dim + 1
    z = nu.coeff_matrix()
    w = nu.weights
    g = _start_element(nu, start)
    if span_rank(z) < k:
        s_half = _herm_sqrt(_det_normalize(g.conj().T @ g))
        _, mom, residual, energy = _moved_state(z, w, s_half)
        return BalanceResult(
            g=GroupElement(s_half),
            residual=residual,
            iterations=0,
            trace=[(0, residual, energy)],
            verdict=VERDICT_DIVERGED,
            certificate=_full_span_certificate(nu),
        )
    trace = []
    verdict = VERDICT_MAX_ITERATIONS
    iterations = max_iter
    for it in range(max_iter + 1):
        _, mom, residual, energy = _moved_state(z, w, g)
        trace.append((it, residual, energy))
        if residual <= tol:
            verdict = VERDICT_CONVERGED
            iterations = it
            break
        s_now = _det_normalize(g.conj().T @ g)
        if _diverging(s_now):
            verdict, certificate = _degenerate_stop(nu, s_now)
            return BalanceResult(
                g=GroupElement(_herm_sqrt(s_now)),
                residual=residual,
                iterations=it,
                trace=trace,
                verdict=verdict,
                certificate=certificate,
            )
        if it == max_iter:
            break

        def trial(step):
            g_try = herm_exp(-step * mom) @ g
            _, _, residual_try, energy_try = _moved_state(z, w, g_try)
            return g_try, energy_try, residual_try

        # -d/ds Psi along the steepest direction is residual^2
        g_try = _line_search(trial, energy, residual, residual * residual)
        if g_try is None:  # flat to machine precision; cannot make progress
            iterations = it
            break
        g = GroupElement(g_try).g
    s_half = _herm_sqrt(_det_normalize(g.conj().T @ g))
    _, mom, residual, _ = _moved_state(z, w, s_half)
    return BalanceResult(
        g=GroupElement(s_half),
        residual=residual,
        iterations=iterations,
        trace=trace,
        verdict=verdict,
        certificate=None,
    )


def balance(
    nu: AtomicMeasure,
    target_rho: np.ndarray | None = None,
    method: str = "fixed-point",
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    start: GroupElement | None = None,
) -> BalanceResult:
    """Move nu to zero momentum (or to a given target state).

    Parameters
    ----------
    nu : AtomicMeasure
    target_rho : optional (n+1, n+1) positive definite trace-1 matrix; when
        given the solve is delegated to :func:`solve_target`.
    method : "fixed-point" (default) or "geodesic-descent".
    tol : momentum residual (Frobenius) declared converged.
    max_iter : iteration cap.
    start : optional GroupElement used as the starting iterate.
    """
    check_max_iter(max_iter)
    check_tol("tol", tol)
    if target_rho is not None:
        return solve_target(nu, target_rho, tol=tol, max_iter=max_iter, start=start)
    key = method.replace("_", "-").lower()
    if key in ("fixed-point", "fixedpoint"):
        return _tyler_balance(nu, tol, max_iter, start)
    if key in ("geodesic-descent", "descent", "geodesicdescent"):
        return _descent_balance(nu, tol, max_iter, start)
    raise InvalidInput(f"unknown balancing method {method!r}")


def _gram_from_arrays(z: np.ndarray, w: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Gram matrix of momentum derivatives for unit atom rows z and a (K, k, k)
    stack of directions A_j: one contraction over the stack of the A_j z_i."""
    count = mats.shape[0]
    az = z @ np.swapaxes(mats, 1, 2)  # (K, m, k): row i of slice j is (A_j z_i)^T
    mus = np.einsum("mc,jmc->jm", z.conj(), az).real
    pairs = az.reshape(count, -1).conj() @ (az * w[:, None]).reshape(count, -1).T
    gram = 2.0 * (pairs.real - (mus * w) @ mus.T)
    return (gram + gram.T) / 2.0


def gram_operator(nu: AtomicMeasure, basis: list) -> np.ndarray:
    """Symmetric positive semidefinite Gram matrix of momentum derivatives.

    Entry (j, l) is sum_i w_i 2 Re[(A_j z_i)* (Id - z_i z_i*) (A_l z_i)], the
    L^2 pairing of the fundamental vector fields of the basis directions;
    it equals d/dt <F(exp(t A_j).nu), A_l> at t = 0.
    """
    k = nu.dim + 1
    mats = [b.a if isinstance(b, SpectralDirection) else np.asarray(b) for b in basis]
    if any(a.shape != (k, k) for a in mats):
        raise InvalidInput("basis direction size does not match the measure")
    stack = np.array(mats, dtype=complex).reshape(-1, k, k)
    return _gram_from_arrays(nu.coeff_matrix(), nu.weights, stack)


def _validate_target(rho, k: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (k, k):
        raise InvalidInput(f"target state must be a {k}x{k} matrix")
    if not np.all(np.isfinite(rho)):
        raise InvalidInput("target state entries must be finite")
    if np.linalg.norm(rho - rho.conj().T) > 1e-12 * max(1.0, np.linalg.norm(rho)):
        raise InvalidInput("target state must be Hermitian")
    rho = (rho + rho.conj().T) / 2.0
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        raise InvalidInput("target state must have unit trace")
    if np.linalg.eigvalsh(rho)[0] < 1e-10:
        raise NotPositiveTarget(
            "target state must be positive definite (eigenvalues >= 1e-10)"
        )
    return rho


def solve_target(
    nu: AtomicMeasure,
    rho,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_NEWTON_MAX_ITER,
    start: GroupElement | None = None,
) -> BalanceResult:
    """Solve F(g.nu) = rho - Id/(n+1) for an interior target state rho.

    Requires nu stable (checked first).  Newton steps on direction
    coefficients use the Gram operator of the momentum derivative at the
    current configuration, with Armijo backtracking on the squared residual.
    """
    check_max_iter(max_iter)
    check_tol("tol", tol)
    k = nu.dim + 1
    rho = _validate_target(rho, k)
    verdict = classify(nu)
    if verdict.kind is not StabilityKind.STABLE:
        raise NotStable(f"target solve needs a stable measure, got {verdict.kind.value}")
    beta = rho - np.eye(k) / k
    basis = np.array(traceless_hermitian_basis(k))  # (k^2 - 1, k, k)
    z = nu.coeff_matrix()
    w = nu.weights
    g = _start_element(nu, start)
    trace = []
    unit, mom, residual, energy = _moved_state(z, w, g, beta)
    for it in range(max_iter + 1):
        trace.append((it, residual, energy))
        if residual <= tol:
            return BalanceResult(
                g=GroupElement(g),
                residual=residual,
                iterations=it,
                trace=trace,
                verdict=VERDICT_CONVERGED,
            )
        if it == max_iter:
            break
        gram = _gram_from_arrays(unit, w, basis)
        rhs = np.einsum("ab,jba->j", beta - mom, basis).real  # tr((beta - F) A_j)
        try:
            cond = np.linalg.cond(gram)
            if not np.isfinite(cond) or cond > GRAM_COND_LIMIT:
                raise SingularGram(
                    f"Gram operator condition number {cond:.3e} is too large"
                )
            coeffs = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularGram("Gram operator solve failed") from exc
        direction = np.tensordot(coeffs, basis, axes=1)

        def trial(step):
            try:
                g_try = GroupElement(herm_exp(step * direction) @ g).g
                out = _moved_state(z, w, g_try, beta)
            except (InvalidInput, NumericalDegeneracy):  # overflowed or singular
                return None
            return (g_try, out), out[2] ** 2, out[2]

        # Newton on the squared residual: its rate of decrease is residual^2
        found = _line_search(trial, residual * residual, residual, residual * residual)
        if found is None:
            break
        g, (unit, mom, residual, energy) = found
    return BalanceResult(
        g=GroupElement(g),
        residual=residual,
        iterations=min(len(trace) - 1, max_iter),
        trace=trace,
        verdict=VERDICT_MAX_ITERATIONS,
    )


# ---------------------------------------------------------------------------
# torus solver


def _sum_zero_basis(k: int) -> np.ndarray:
    """Orthonormal basis (columns) of the sum-zero subspace of R^k."""
    full = np.eye(k)
    ones = np.ones((k, 1)) / np.sqrt(k)
    qmat, _ = np.linalg.qr(np.hstack([ones, full]))
    return qmat[:, 1:k]


def _torus_lp(w, support, p_target):
    """The interiority LP: (c, A_ub, b_ub, A_eq, b_eq, bounds) for linprog.

    One variable q_ij per support entry, in row-major order, then delta:
    maximize delta subject to q_ij >= delta, each atom's q_i. summing to 1
    and the w-weighted q_.j matching the target on every covered coordinate.
    """
    m = support.shape[0]
    atom, coord = np.nonzero(support)
    nvar = atom.size
    var = np.arange(nvar)
    c = np.zeros(nvar + 1)
    c[-1] = -1.0  # maximize delta
    covered = support.any(axis=0)
    per_atom = np.zeros((m, nvar + 1))
    per_atom[atom, var] = 1.0
    per_coord = np.zeros((int(covered.sum()), nvar + 1))
    per_coord[np.cumsum(covered)[coord] - 1, var] = w[atom]
    a_eq = np.vstack([per_atom, per_coord])
    b_eq = np.concatenate([np.ones(m), p_target[covered]])
    a_ub = np.zeros((nvar, nvar + 1))
    a_ub[var, var] = -1.0
    a_ub[:, -1] = 1.0
    return c, a_ub, np.zeros(nvar), a_eq, b_eq, [(0.0, 1.0)] * (nvar + 1)


def _check_torus_target(w, support, p_target):
    """Strict-interior membership of the target in the reachable polytope.

    The reachable set is the Minkowski combination sum_i w_i Delta(S_i) of
    simplices on each atom's coordinate support; strict interiority is
    certified by an LP maximizing the floor delta of all support
    coordinates q_ij >= delta.
    """
    unreachable = ~support.any(axis=0) & (np.abs(p_target) > 1e-12)
    if unreachable.any():
        raise TargetOutsidePolytope(
            f"coordinate {int(np.argmax(unreachable))} is unreachable (no atom touches it)"
        )
    c, a_ub, b_ub, a_eq, b_eq, bounds = _torus_lp(w, support, p_target)
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs"
    )
    if not res.success or -res.fun <= TORUS_LP_FLOOR:
        raise TargetOutsidePolytope(
            "target is outside (or on the boundary of) the reachable polytope"
        )


def torus_solve(
    nu: AtomicMeasure,
    beta,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_NEWTON_MAX_ITER,
) -> TorusSolveResult:
    """Find theta (sum zero) with diag-momentum target beta.

    Minimizes f(theta) - <beta + 1/(n+1), theta> where
    f(theta) = sum_i w_i (1/2) log(sum_j e^(2 theta_j) |z_ij|^2) by damped
    Newton on the sum-zero subspace.  The target must lie strictly inside
    the reachable polytope (LP-checked); MaxIterations is raised when the
    cap is hit, as happens for targets approaching the boundary.
    """
    check_max_iter(max_iter)
    check_tol("tol", tol)
    k = nu.dim + 1
    beta = np.asarray(beta, dtype=float).reshape(-1)
    if beta.size != k:
        raise InvalidInput(f"beta must have n+1 = {k} components")
    if not np.all(np.isfinite(beta)):
        raise InvalidInput("beta components must be finite")
    if abs(beta.sum()) > 1e-9:
        raise InvalidInput("beta components must sum to zero")
    beta = beta - beta.sum() / k
    p_target = beta + 1.0 / k
    z = nu.coeff_matrix()
    w = nu.weights
    sq = np.abs(z) ** 2  # (m, k)
    support = np.abs(z) > TORUS_SUPPORT_TOL
    _check_torus_target(w, support, p_target)
    with np.errstate(divide="ignore"):
        log_sq = np.where(support, np.log(np.where(support, sq, 1.0)), -np.inf)
    reduced = _sum_zero_basis(k)
    theta = np.zeros(k)

    def state(th):
        lvals = 2.0 * th[None, :] + log_sq
        shift = lvals.max(axis=1)
        expd = np.exp(lvals - shift[:, None])
        denom = expd.sum(axis=1)
        p = expd / denom[:, None]
        grad = w @ p
        value = float(w @ (0.5 * (np.log(denom) + shift)))
        objective = value - float(p_target @ th)
        resvec = grad - p_target
        return p, resvec, float(np.linalg.norm(resvec)), objective

    p, resvec, residual, objective = state(theta)
    for it in range(max_iter + 1):
        if residual <= tol:
            return TorusSolveResult(
                theta=theta, residual=residual, iterations=it, converged=True
            )
        if it == max_iter:
            break
        hess = 2.0 * (np.diag(w @ p) - p.T @ (w[:, None] * p))
        hred = reduced.T @ hess @ reduced
        hred = hred + np.eye(k - 1) * 1e-14 * max(1.0, float(np.abs(hred).max()))
        try:
            dred = np.linalg.solve(hred, -(reduced.T @ resvec))
        except np.linalg.LinAlgError:
            dred, *_ = np.linalg.lstsq(hred, -(reduced.T @ resvec), rcond=None)
        step_dir = reduced @ dred
        slope = float(resvec @ step_dir)
        if slope >= 0.0:  # fall back to plain gradient descent direction
            step_dir = -(resvec - resvec.mean())
            slope = float(resvec @ step_dir)

        def trial(step):
            theta_try = theta + step * step_dir
            theta_try = theta_try - theta_try.mean()
            out = state(theta_try)
            return (theta_try, out), out[3], out[2]

        found = _line_search(trial, objective, residual, -slope)
        if found is None:
            break
        theta, (p, resvec, residual, objective) = found
    why = "iteration cap" if it == max_iter else "flat step: no step made progress"
    raise MaxIterations(
        f"torus solve residual {residual:.3e} at iteration {it} ({why})",
        theta=theta,
        residual=residual,
    )


def _in_hull(x: np.ndarray, others: np.ndarray) -> bool:
    """LP feasibility: is x a convex combination of the given points?"""
    count = others.shape[0]
    a_eq = np.vstack([others.T, np.ones((1, count))])
    b_eq = np.concatenate([x, [1.0]])
    res = linprog(
        np.zeros(count),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, None)] * count,
        method="highs",
    )
    return bool(res.success)


def polytope_centroid_shift(vertex_images) -> np.ndarray:
    """Average of the distinct vertices of the convex hull of the inputs.

    Used to recenter torus targets: subtracting the shift moves the centroid
    of the vertex images to the origin.  Raises DegenerateHull when all
    points coincide.
    """
    pts = np.asarray(vertex_images, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InvalidInput("vertex_images must be a non-empty list of real vectors")
    if not np.all(np.isfinite(pts)):
        raise InvalidInput("vertex images must be finite")
    distinct: list[np.ndarray] = []
    for row in pts:
        if not any(np.max(np.abs(row - q)) <= 1e-12 for q in distinct):
            distinct.append(row)
    if len(distinct) == 1:
        raise DegenerateHull("all vertex images coincide")
    arr = np.array(distinct)
    extreme = []
    for i in range(arr.shape[0]):
        others = np.delete(arr, i, axis=0)
        if not _in_hull(arr[i], others):
            extreme.append(arr[i])
    if not extreme:  # numerically everything looked interior; degenerate data
        raise DegenerateHull("no extreme points could be identified")
    return np.mean(np.array(extreme), axis=0)
