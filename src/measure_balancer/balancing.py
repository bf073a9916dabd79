"""Solvers that move a measure to a prescribed momentum value.

Balancing solves F(g.nu) = 0 over g in SL(n+1, C), iterating g itself on
its moved state (``measures.moved_state``): the unit rows u_i of g z_i and
the moved scatter R = sum_i w_i u_i u_i*, so that F = R - Id/(n+1).  The fixed point (the
default) steps g <- (k R)^(-1/2) g, k = n + 1, at determinant 1: Tyler's
scatter iteration S <- R(S)^(-1) on S = g* g, written on g, where R tends
to Id/k and stays well conditioned although cond(S) = cond(g)^2.  It is a
majorize-minimize step for the Kempf-Ness energy Psi(nu, g) =
sum w_i log||g z_i||: log is concave, so it never raises the energy and is
taken undamped.  Geodesic descent steps g <- exp(-s c F(g.nu)) g with
Armijo backtracking on s, the scale c the Barzilai-Borwein ratio of the
last step.  A stable measure has a balanced g, unique up to unitaries; an
unstable or boundary-semistable one drives cond(g) to infinity, certified
by the subspace onto which the small right singular vectors of g collapse.
One stop rule reads the singular values of each iterate: at iterations 1,
2, 4, 8, ... and at the cap it looks for that subspace, and stops as soon
as one carries strictly more than its share; past COND_LIMIT, or when no
step is found, it stops diverged on a subspace carrying at least its
share, else ill-conditioned (the balanced g, if any, is beyond the limit)
or max-iterations.  Atoms are matched to those subspaces loosely and the
span they found is checked exactly, so the verdict needs no classifier.  A
balance reports the Hermitian positive polar factor of its last g.

For an interior target state rho (positive definite, trace 1) the equation
F(g.nu) = rho - Id/(n+1) is solved by Newton steps on the direction
coefficients, using the Gram operator of the momentum derivative.  Descent
and Newton take one geodesic step, ``_geodesic_step``: capped in cond(g) by
COND_LIMIT^(1/2), one eigendecomposition of its direction, and one Armijo
backtracking loop on what the caller reads off each moved state.  When
Newton's finds none, a steepest-descent step on the squared residual is
tried.  Newton needs a stable measure, where no span carries its share, so
it stops only converged or at the cap.  Each solve only yields its
iterates; one loop, ``_solve``, traces them, applies the solve's stop rule
and builds the result from the last one.  The momentum of the diagonal
torus is diag F, so the torus solve (targets inside the momentum polytope
of the coordinate torus) is the same Newton iteration on the diagonal
directions, with the residual ||diag F - beta||.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateHull,
    InvalidInput,
    MaxIterations,
    NotPositiveTarget,
    NotStable,
    NumericalDegeneracy,
    SingularGram,
    TargetOutsidePolytope,
)
from .geometry import (
    COMPONENT_TOL,
    EIGENSPACE_MEMBERSHIP_TOL,
    HERMITIAN_TOL,
    GroupElement,
    SpectralDirection,
    nested_span_distances,
    span_basis,
    span_rank,
    traceless_hermitian_basis,
)
from .measures import AtomicMeasure, moved_state
from .stability import DEFAULT_TOL_EQ, StabilityKind, Subspace, atom_span, classify
from .util import check_max_iter, check_tol

VERDICT_CONVERGED = "converged"
VERDICT_DIVERGED = "diverged"
VERDICT_MAX_ITERATIONS = "max-iterations"
VERDICT_ILL_CONDITIONED = "ill-conditioned"  # needs cond(g) beyond COND_LIMIT

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 2000
DEFAULT_NEWTON_MAX_ITER = 200  # cap of the Newton solves (target, torus)
COND_LIMIT = 1e12  # cond(g) beyond this stops a balance as degenerate
TORUS_LP_FLOOR = 1e-9  # interiority floor delta (min p on full support) at or below this: not interior
MIN_STEP = 2.0**-40
ARMIJO_C = 1e-4
OBJECTIVE_RESOLUTION = 1e-14  # a decrease below this * max(1, |objective|) is unresolvable
# Target state checks: |tr rho - 1| and the smallest eigenvalue a positive
# definite target must reach.
TARGET_TRACE_TOL = 1e-8
TARGET_MIN_EIGENVALUE = 1e-10
TORUS_BETA_SUM_TOL = 1e-9  # |sum beta| above this is InvalidInput
TORUS_UNREACHABLE_TOL = 1e-12  # a target coordinate above this needs an atom touching it
HULL_DISTINCT_TOL = 1e-12  # vertex images within this (max norm) are one point


@dataclass(eq=False)
class BalanceResult:
    """Outcome of a balancing or target solve.

    ``trace`` holds one (iteration, residual, kempf_ness value) triple per
    iteration, including the starting state; ``residual`` and
    ``iterations`` are those of its last entry.  For the zero-momentum
    solvers ``g`` is the Hermitian positive polar factor of the last
    iterate; for nonzero targets it is the composed group element (a polar
    representative would conjugate the momentum away from the target), and
    a target solve ends only converged or max-iterations.
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


def _start_element(nu: AtomicMeasure, start) -> np.ndarray:
    """The start iterate as a matrix: the identity, or start checked in size."""
    k = nu.dim + 1
    if start is None:
        return np.eye(k, dtype=complex)
    g0 = start.g if isinstance(start, GroupElement) else GroupElement(start).g
    if g0.shape[0] != k:
        raise InvalidInput("start element size does not match the measure")
    return g0


def _eigenspace_scan(z: np.ndarray, w: np.ndarray, vecs: np.ndarray):
    """The atom span in the small-eigenvalue eigenspaces of S = g* g of largest excess.

    Found loosely, checked exactly: ``vecs`` holds the eigenvectors of S in
    ascending eigenvalue order (the right singular vectors of g, smallest
    singular value first), and for each j the atoms within
    EIGENSPACE_MEMBERSHIP_TOL of the span of its first j columns are taken
    in order of their distance to it.  Each one not in
    the span of those before it joins a basis, and each basis of at most n
    atoms gives its ``atom_span``: the candidates of ``classify``, so its
    excess nu(span) - rank/(n+1) proves instability however its atoms were found.
    Trying every distance cut, not only the one at the tolerance, keeps an
    atom that is near the eigenspace but off a collapsing span from raising
    its rank.  Returns (subspace, excess) for the largest excess, or
    (None, -inf) when no eigenspace holds a proper atom span.
    """
    k = z.shape[1]
    dist = nested_span_distances(vecs, z, tol=EIGENSPACE_MEMBERSHIP_TOL)
    near = dist <= EIGENSPACE_MEMBERSHIP_TOL
    best, best_excess, last = None, -np.inf, None
    for j in np.flatnonzero(near.any(axis=0)):
        order = np.flatnonzero(near[:, j])
        order = order[np.argsort(dist[order, j], kind="stable")]
        if last is not None and np.array_equal(order, last):
            continue  # the same cuts as the last eigenspace
        last = order
        inside = set()
        basis = []
        for i in order:
            if i in inside:
                continue
            basis.append(i)
            if len(basis) == k:
                break
            span = atom_span(z, w, sorted(basis))
            inside = set(span.atom_indices)
            excess = -span.margin
            if excess > best_excess:
                best, best_excess = span, excess
    return best, best_excess


def _stop_rule(z, w, g, residual, tol, it, max_iter, stalled=False):
    """(verdict, certificate) of both balancers at the iterate g after ``it`` steps.

    ``converged`` at residual <= tol.  Once g degenerates (a non-finite
    residual, or cond(g) past COND_LIMIT) or the run ``stalled`` (no step
    from g), ``diverged`` with the scanned span of largest excess when it
    carries at least its share, else ``ill-conditioned`` (balancing needs
    cond(g) beyond COND_LIMIT) or, stalled, ``max-iterations``.  At
    iterations 1, 2, 4, ... and at the cap, ``diverged`` on a scanned span of
    excess above DEFAULT_TOL_EQ (within it the span is tight, which
    polystable input has).  Otherwise ``max-iterations``.  A plain iterate
    takes the singular values of g, a scan the full SVD g = U diag(s) V*,
    whose columns of V are the eigenvectors of S = g* g.
    """
    if residual <= tol:
        return VERDICT_CONVERGED, None
    if not (stalled or it > 0 and (it & (it - 1) == 0 or it == max_iter)):
        s = np.linalg.svd(g, compute_uv=False)
        if np.isfinite(residual) and s[0] <= COND_LIMIT * s[-1]:
            return VERDICT_MAX_ITERATIONS, None
    _, s, vh = np.linalg.svd(g)
    best, excess = _eigenspace_scan(z, w, vh[::-1].conj().T)
    degenerate = not np.isfinite(residual) or s[0] > COND_LIMIT * s[-1]
    if degenerate or stalled:
        if excess >= -DEFAULT_TOL_EQ:
            return VERDICT_DIVERGED, best
        return (VERDICT_ILL_CONDITIONED if degenerate else VERDICT_MAX_ITERATIONS), None
    if excess > DEFAULT_TOL_EQ:
        return VERDICT_DIVERGED, best
    return VERDICT_MAX_ITERATIONS, None


def _tyler_iterates(z, w, g):
    """Tyler's fixed point g <- (k R)^(-1/2) g at determinant 1: (g, residual,
    energy) per iterate, until R is not positive definite.  R is read as summed:
    F + Id/k would round away its smallest eigenvalue (1e-18 at 1e-9 off a plane)."""
    state = moved_state(z, w, g)
    while True:
        _, _, scatter, _, residual, energy = state
        yield g, residual, energy
        vals, vecs = np.linalg.eigh(scatter)
        if not vals[0] > 0.0:
            return
        root = np.sqrt(vals / np.exp(np.log(vals).mean()))
        g = (vecs / root) @ (vecs.conj().T @ g)
        state = moved_state(z, w, g)


def _step_scale(mom: np.ndarray, last) -> float:
    """The scale of the next descent step: the Barzilai-Borwein ratio.

    With dx = -t F_prev the last accepted step (t its step times its scale)
    and dy = F - F_prev, the ratio is <dx, dx> / <dx, dy>; it is 1 on the
    first step and when <dx, dy> <= 0 or the ratio is not finite.
    """
    scale = 1.0
    if last is not None:
        mom_prev, t = last
        dx = -t * mom_prev
        curvature = float(np.vdot(dx, mom - mom_prev).real)  # Re tr(dx dy)
        if curvature > 0.0:
            ratio = float(np.vdot(dx, dx).real) / curvature
            if np.isfinite(ratio):
                scale = ratio
    return scale


def _geodesic_step(z, w, g, x, c, state, measure):
    """The step g <- exp(s c x) g of descent and Newton, s = 1, 1/2, ..., MIN_STEP.

    |c| is capped so that a full step takes cond(g) up by at most
    COND_LIMIT^(1/2), and c x = V diag(l) V* is decomposed once: s is a power
    of two, so each trial's V diag(e^(s l)) V* is exp(s c x) to the bit.  A
    trial must lower the objective of ``measure(state) -> (objective,
    residual)`` by ARMIJO_C s |c| residual^2 while that is above the
    objective's resolution, and below it (near the minimum) the residual,
    which stays resolvable down to the stopping tolerance; ``state`` is the
    moved state at g, and a trial that overflows or annihilates an atom
    fails.  Returns the accepted g, its moved state and s |c|, or None.
    """
    vals = np.linalg.eigvalsh(x)
    spread = float(vals[-1] - vals[0])
    half_log_cond = 0.5 * np.log(COND_LIMIT)
    if abs(c) * spread > half_log_cond:
        c = np.copysign(half_log_cond / spread, c)
    vals, vecs = np.linalg.eigh(c * x)
    objective, residual = measure(state)
    slope = abs(c) * residual * residual
    resolution = OBJECTIVE_RESOLUTION * max(1.0, abs(objective))
    step = 1.0
    while step >= MIN_STEP:
        try:
            g_try = GroupElement(((vecs * np.exp(step * vals)) @ vecs.conj().T) @ g).g
            out = moved_state(z, w, g_try)
        except (InvalidInput, NumericalDegeneracy):  # overflowed or singular
            pass
        else:
            objective_try, residual_try = measure(out)
            needed = ARMIJO_C * step * slope
            if objective_try <= objective - needed if needed > resolution else residual_try < residual:
                return g_try, out, step * abs(c)
        step /= 2.0
    return None


def _descent_iterates(z, w, g):
    """Geodesic descent from g: (g, residual, energy) per iterate, until the
    line search finds no step."""
    state = moved_state(z, w, g)
    last = None  # (momentum, step * scale) of the last accepted step
    while True:
        mom, residual, energy = state[3:]
        yield g, residual, energy
        # -d/ds Psi along -scale F is scale * residual^2
        found = _geodesic_step(z, w, g, mom, -_step_scale(mom, last), state, lambda st: (st[5], st[4]))
        if found is None:  # flat to machine precision; cannot make progress
            return
        g, state, t = found
        last = (mom, t)


_METHODS = {"fixed-point": _tyler_iterates, "geodesic-descent": _descent_iterates}


def _polar_factor(g: np.ndarray) -> np.ndarray:
    """The Hermitian positive polar factor of g = U diag(s) V*, as (V U*) g: a
    unitary keeps g's own residual, which V diag(s) V* loses as cond(g) grows."""
    u, _, vh = np.linalg.svd(g)
    return (vh.conj().T @ u.conj().T) @ g


def _solve(z, w, iterates, tol: float, max_iter: int, stop, report=None) -> BalanceResult:
    """Trace each iterate (g, residual, energy), stop at the first final
    verdict of ``stop(z, w, g, residual, tol, it, max_iter)``, at the cap or,
    when the iterates end, ``stop(..., stalled=True)``; report ``report(g)``."""
    trace = []
    for it, (g, residual, energy) in enumerate(iterates):
        trace.append((it, residual, energy))
        verdict, certificate = stop(z, w, g, residual, tol, it, max_iter)
        if verdict != VERDICT_MAX_ITERATIONS or it == max_iter:
            break
    else:
        verdict, certificate = stop(z, w, g, residual, tol, it, max_iter, stalled=True)
    return BalanceResult(
        g=GroupElement(g if report is None else report(g)),
        residual=residual,
        iterations=len(trace) - 1,
        trace=trace,
        verdict=verdict,
        certificate=certificate,
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
    method : "fixed-point" (default) or "geodesic-descent", checked first.
    tol : momentum residual (Frobenius) declared converged.
    max_iter : iteration cap.
    start : optional GroupElement used as the starting iterate.
    """
    check_max_iter(max_iter)
    check_tol("tol", tol)
    iterates = _METHODS.get(method)
    if iterates is None:
        raise InvalidInput(f"unknown balancing method {method!r}")
    if target_rho is not None:
        return solve_target(nu, target_rho, tol=tol, max_iter=max_iter, start=start)
    z, w = nu.coeff_matrix(), nu.weights
    g0 = _start_element(nu, start)
    stop = _stop_rule
    if span_rank(z) < nu.dim + 1:
        # atoms span a proper subspace: full mass on it, nothing to balance
        span = Subspace(basis=span_basis(z), atom_indices=tuple(range(len(w))), mass=1.0)
        iterates, stop = _tyler_iterates, lambda *_: (VERDICT_DIVERGED, span)
    return _solve(z, w, iterates(z, w, g0), tol, max_iter, stop, _polar_factor)


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
    if np.linalg.norm(rho - rho.conj().T) > HERMITIAN_TOL * max(1.0, np.linalg.norm(rho)):
        raise InvalidInput("target state must be Hermitian")
    rho = (rho + rho.conj().T) / 2.0
    if abs(np.trace(rho).real - 1.0) > TARGET_TRACE_TOL:
        raise InvalidInput("target state must have unit trace")
    if np.linalg.eigvalsh(rho)[0] < TARGET_MIN_EIGENVALUE:
        raise NotPositiveTarget(
            f"target state must be positive definite (eigenvalues >= {TARGET_MIN_EIGENVALUE:g})"
        )
    return rho


def _target_stop(z, w, g, residual, tol, *_, **__):
    """(verdict, certificate) of a target solve: converged or max-iterations."""
    return (VERDICT_CONVERGED if residual <= tol else VERDICT_MAX_ITERATIONS), None


def _target_iterates(z, w, g, beta, basis):
    """Newton on F(g.nu) = beta along a (K, k, k) stack of orthonormal
    traceless Hermitian directions, from g: (g, residual, energy) of each
    iterate, until neither the Newton step nor the steepest step on the
    squared residual is found; SingularGram when the Gram solve fails.

    ``beta`` is a traceless k x k target, with the residual ||F - beta||,
    or, for the diagonal directions, the diagonal of one: the momentum of
    the diagonal torus is diag F, and its residual ||diag F - beta||.
    """
    torus = beta.ndim == 1
    target = np.diag(beta) if torus else beta

    def measure(st):  # (residual^2, residual): Newton's objective falls at the rate residual^2
        residual = float(np.linalg.norm((st[3].diagonal().real if torus else st[3]) - beta))
        return residual * residual, residual

    state = moved_state(z, w, g)
    while True:
        moved, sq, _, mom, _, energy = state
        residual = measure(state)[1]
        yield g, residual, energy
        gram = _gram_from_arrays(moved / np.sqrt(sq)[:, None], w, basis)
        rhs = np.einsum("ab,jba->j", target - mom, basis).real  # tr((beta - F) A_j)
        try:
            coeffs = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularGram("Gram operator solve failed") from exc
        direction = np.tensordot(coeffs, basis, axes=1)
        found = _geodesic_step(z, w, g, direction, 1.0, state, measure)
        if found is None:  # steepest descent -G r (r = -rhs) at Newton's rate residual^2
            steepest = gram @ rhs
            norm2 = float(steepest @ steepest)
            if norm2 > 0.0:
                direction = np.tensordot(steepest * (residual * residual / norm2), basis, axes=1)
                found = _geodesic_step(z, w, g, direction, 1.0, state, measure)
        if found is None:
            return
        g, state, _ = found


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
    No span of a stable measure carries its share, so the solve stops only
    converged or at the cap (also when no step is found).  Each step takes
    cond(g) up by at most COND_LIMIT^(1/2); SingularGram when the Gram solve fails.
    """
    check_max_iter(max_iter)
    check_tol("tol", tol)
    rho = _validate_target(rho, nu.dim + 1)
    verdict = classify(nu)
    if verdict.kind is not StabilityKind.STABLE:
        raise NotStable(f"target solve needs a stable measure, got {verdict.kind.value}")
    z, w = nu.coeff_matrix(), nu.weights
    g = _start_element(nu, start)
    k = nu.dim + 1
    basis = np.array(traceless_hermitian_basis(k))
    iterates = _target_iterates(z, w, g, rho - np.eye(k) / k, basis)
    return _solve(z, w, iterates, tol, max_iter, _target_stop)


# ---------------------------------------------------------------------------
# torus solver


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first LP: only torus targets
    on a partial support and polytope_centroid_shift solve one, and the
    import costs more than most CLI calls."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


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
    simplices on each atom's coordinate support; strict interiority is the
    largest floor delta of all support coordinates q_ij >= delta exceeding
    TORUS_LP_FLOOR.  On full support the sum is the whole simplex and delta
    is min p exactly (q_ij = p_j attains it, and the w-average of q_.j is
    p_j); otherwise an LP finds it.
    """
    unreachable = ~support.any(axis=0) & (np.abs(p_target) > TORUS_UNREACHABLE_TOL)
    if unreachable.any():
        raise TargetOutsidePolytope(
            f"coordinate {int(np.argmax(unreachable))} is unreachable (no atom touches it)"
        )
    if support.all():
        floor = float(p_target.min())
    else:
        c, a_ub, b_ub, a_eq, b_eq, bounds = _torus_lp(w, support, p_target)
        res = linprog(
            c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs"
        )
        floor = -res.fun if res.success else -np.inf
    if floor <= TORUS_LP_FLOOR:
        raise TargetOutsidePolytope(
            "target is outside (or on the boundary of) the reachable polytope"
        )


def _torus_directions(support: np.ndarray) -> np.ndarray:
    """The Helmert vectors of each component of the support graph, as an
    orthonormal (K, k, k) stack of the diagonals summing to zero on each.

    Coordinates are joined when one atom touches both, and one that no atom
    touches is a component of its own.  Each atom's moved row is constant
    along a component's indicator, and on these directions the Gram
    operator is positive definite."""
    k = support.shape[1]
    linked = support.T @ support | np.eye(k, dtype=bool)
    closed = linked @ linked
    while (closed != linked).any():  # transitive closure: each row is its component
        linked, closed = closed, closed @ closed
    directions = []
    for first in np.flatnonzero(linked.argmax(axis=1) == np.arange(k)):  # first coordinate of a component
        idx = np.flatnonzero(linked[first])
        for j in range(1, idx.size):
            d = np.zeros(k)
            d[idx[:j]], d[idx[j]] = 1.0, -j
            directions.append(np.diag(d / np.sqrt(j * (j + 1.0))))
    return np.array(directions, dtype=complex).reshape(-1, k, k)


def torus_solve(
    nu: AtomicMeasure,
    beta,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_NEWTON_MAX_ITER,
) -> TorusSolveResult:
    """Find theta with diag-momentum target beta: diag F(diag(e^theta).nu) = beta.

    The momentum of the diagonal torus is diag F, so this is the target
    solve's Newton iteration from g = Id on the diagonal directions that
    move the measure (``_torus_directions``), with the residual
    ||diag F - beta||, and theta = log |diag g|.  So theta has mean zero on
    each component of the support graph, which makes it unique.  The
    target must lie strictly inside the reachable polytope:
    min p above TORUS_LP_FLOOR on full support, an LP on a partial one.
    MaxIterations is raised when the cap is hit, as happens for targets
    approaching the boundary, or when no step makes progress.
    """
    check_max_iter(max_iter)
    check_tol("tol", tol)
    k = nu.dim + 1
    beta = np.asarray(beta, dtype=float).reshape(-1)
    if beta.size != k:
        raise InvalidInput(f"beta must have n+1 = {k} components")
    if not np.all(np.isfinite(beta)):
        raise InvalidInput("beta components must be finite")
    if abs(beta.sum()) > TORUS_BETA_SUM_TOL:
        raise InvalidInput("beta components must sum to zero")
    beta = beta - beta.sum() / k
    z, w = nu.coeff_matrix(), nu.weights
    support = np.abs(z) > COMPONENT_TOL
    _check_torus_target(w, support, beta + 1.0 / k)
    iterates = _target_iterates(z, w, np.eye(k, dtype=complex), beta, _torus_directions(support))
    res = _solve(z, w, iterates, tol, max_iter, _target_stop)
    theta = np.log(np.abs(res.g.g.diagonal()))
    if res.verdict == VERDICT_CONVERGED:
        return TorusSolveResult(
            theta=theta, residual=res.residual, iterations=res.iterations, converged=True
        )
    why = "iteration cap" if res.iterations == max_iter else "flat step: no step made progress"
    raise MaxIterations(
        f"torus solve residual {res.residual:.3e} at iteration {res.iterations} ({why})",
        theta=theta,
        residual=res.residual,
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

    Subtracting the shift moves the centroid of the vertex images to the
    origin; no solve or subcommand applies it.  Raises DegenerateHull when
    all points coincide.
    """
    pts = np.asarray(vertex_images, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InvalidInput("vertex_images must be a non-empty list of real vectors")
    if not np.all(np.isfinite(pts)):
        raise InvalidInput("vertex images must be finite")
    distinct: list[np.ndarray] = []
    for row in pts:
        if not any(np.max(np.abs(row - q)) <= HULL_DISTINCT_TOL for q in distinct):
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
