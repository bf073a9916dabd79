"""Points of complex projective space, group actions, and the momentum map.

A point of CP^n is stored as a unit vector in C^(n+1) with a canonical
phase (first coordinate of modulus > 1e-12 made real and positive), so that
equal points have identical coordinates and serialization is stable.  The
momentum of a point [z] is the traceless Hermitian matrix

    mu([z]) = z z* - Id/(n+1)        (z a unit representative),

paired with direction matrices through the real trace form tr(m a).  A
direction is a nonzero traceless Hermitian matrix A; the associated
one-parameter flow is [z] -> [exp(tA) z], whose t -> +infinity limit is the
projection of z onto the top eigenspace of A that it actually meets.

Everything here is plain numpy and single-threaded; objects are treated as
immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySpan, InvalidInput, NumericalDegeneracy, ZeroDirection

# Tolerances (absolute unless noted): constants, not per-call options.
NORM_SKIP_TOL = 1e-14  # skip renormalization when already unit to this
# Direction checks; the first two are relative to max(1, ||a||_F).
HERMITIAN_TOL = 1e-12  # ||a - a*||_F allowed in a direction or a target state
TRACELESS_TOL = 1e-10  # |tr a| allowed when validating directions
ZERO_DIRECTION_TOL = 1e-14  # ||a||_F below this is a zero direction
MOMENTUM_TOL = 1e-13  # ||m - m*||_F and |tr m| allowed, relative to max(1, ||m||_F)
DET_ONE_TOL = 1e-13  # |det g - 1| above this renormalizes a group element
CLUSTER_TOL = 1e-10  # relative eigenvalue gap that separates clusters
COMPONENT_TOL = 1e-12  # a component above this is present: phase pivot, flow strata, torus support
MIN_VECTOR_NORM = 1e-150  # below this a vector is treated as numerically zero
# The rank policy: every span, rank and membership decision of the classifier
# and the balancers goes through span_basis, span_rank, rows_in_span and
# nested_span_distances below.
RANK_TOL = 1e-10  # singular values s > RANK_TOL * s[0] count toward a rank
MEMBERSHIP_TOL = 1e-10  # residual norm below which a unit row lies in a span
# Atoms are matched to the eigenspaces of a balancing iterate S loosely: every
# distance cut of the atoms within this of an eigenspace is tried, and each
# span found is checked exactly by the rank policy, so this cannot make a
# divergence certificate unsound, only find one early or late.
EIGENSPACE_MEMBERSHIP_TOL = 1e-4


def row_norms(a: np.ndarray) -> np.ndarray:
    """Norms of the rows of a 2-d array, bit-equal to np.linalg.norm of each row (axis=1 is not)."""
    a = np.ascontiguousarray(a)  # np.linalg.norm norms a strided row as a contiguous copy
    re = a.real.reshape(a.shape[0], 1, -1)
    im = a.imag.reshape(a.shape[0], 1, -1)
    # A (1, k) @ (k, 1) product is the BLAS dot that np.linalg.norm uses.
    return np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0]


def canonical_rows(rows) -> np.ndarray:
    """Read-only copy of an (m, n+1) array with every row made canonical.

    A row is scaled to unit norm (skipped when already unit to NORM_SKIP_TOL)
    and turned by the phase that makes its first coordinate of modulus above
    COMPONENT_TOL real and positive; an exact no-op on its own output.
    """
    z = np.array(rows, dtype=complex, order="C")
    if z.ndim != 2 or z.shape[1] < 1:
        raise InvalidInput("a projective point needs at least one coordinate")
    if not np.isfinite(z).all():
        raise InvalidInput("projective point coordinates must be finite")
    norms = row_norms(z)[:, None]
    if (norms < MIN_VECTOR_NORM).any():
        raise NumericalDegeneracy("cannot normalize a (numerically) zero vector")
    np.divide(z, norms, out=z, where=np.abs(norms - 1.0) > NORM_SKIP_TOL)
    big = np.abs(z) > COMPONENT_TOL
    pivot = (np.arange(z.shape[0]), big.argmax(axis=1))
    if not big[pivot].all():
        raise NumericalDegeneracy("no coordinate exceeds the phase pivot tolerance")
    piv = z[pivot]
    modulus = np.hypot(piv.real, piv.imag)  # np.abs of an array differs in the last bit
    turn = piv != modulus  # the pivot is not yet real and positive
    np.multiply(z, (piv.conj() / modulus)[:, None], out=z, where=turn[:, None])
    # Pin the pivot exactly real so canonicalization is a bit-exact no-op on
    # its own output (a rounding residue here would break byte-for-byte
    # round trips of serialized points).
    z[pivot] = np.where(turn, modulus, piv)
    z.flags.writeable = False
    return z


@dataclass(eq=False)
class ProjectivePoint:
    """A point of CP^n held as a unit, phase-canonical coefficient vector."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = canonical_rows(np.reshape(self.coeffs, (1, -1)))[0]

    @property
    def dim(self) -> int:
        """Projective dimension n of the ambient CP^n."""
        return self.coeffs.size - 1

    def overlap(self, other: "ProjectivePoint") -> float:
        """|<p, q>| in [0, 1]; equals 1 exactly when the points coincide."""
        return float(abs(np.vdot(self.coeffs, other.coeffs)))

    def isclose(self, other: "ProjectivePoint", tol: float = 1e-10) -> bool:
        """Phase-invariant equality test: |<p, q>| >= 1 - tol."""
        return self.overlap(other) >= 1.0 - tol

    def __repr__(self):  # short, round-trippable enough for debugging
        entries = ", ".join(f"{v.real:+.6g}{v.imag:+.6g}j" for v in self.coeffs)
        return f"ProjectivePoint([{entries}])"


def fs_distance(p: ProjectivePoint, q: ProjectivePoint) -> float:
    """Fubini-Study geodesic distance arccos|<p, q>| in [0, pi/2]."""
    return float(np.arccos(min(1.0, p.overlap(q))))


@dataclass(eq=False)
class MomentumMatrix:
    """A traceless Hermitian matrix, the value of the momentum map."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInput("momentum value must be a square matrix")
        if np.linalg.norm(m - m.conj().T) > MOMENTUM_TOL * max(1.0, np.linalg.norm(m)):
            raise InvalidInput("momentum value must be Hermitian")
        if abs(np.trace(m)) > MOMENTUM_TOL * max(1.0, np.linalg.norm(m)):
            raise InvalidInput("momentum value must be traceless")
        m.flags.writeable = False
        self.m = m

    @property
    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.linalg.norm(self.m))

    def pairing(self, d: "SpectralDirection") -> float:
        """Real trace form tr(m . A) against a direction."""
        return float(np.trace(self.m @ d.a).real)


def momentum_of_point(p: ProjectivePoint) -> MomentumMatrix:
    """Momentum mu([z]) = z z* - Id/(n+1) of a single point."""
    z = p.coeffs
    k = z.size
    return MomentumMatrix(np.outer(z, z.conj()) - np.eye(k) / k)


@dataclass(eq=False)
class GroupElement:
    """An element of SL(n+1, C), stored with determinant renormalized to 1."""

    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=complex)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise InvalidInput("group element must be a square matrix")
        if not np.all(np.isfinite(g)):
            raise InvalidInput("group element entries must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            det = np.linalg.det(g)
            if not np.isfinite(det):
                raise InvalidInput("group element determinant overflows")
            if abs(det) < MIN_VECTOR_NORM:
                raise InvalidInput("group element must be invertible")
            if abs(det - 1.0) > DET_ONE_TOL:
                g = g * det ** (-1.0 / g.shape[0])
                if not np.all(np.isfinite(g)):
                    raise InvalidInput("normalized group element entries must be finite")
        g.flags.writeable = False
        self.g = g

    @classmethod
    def identity(cls, n: int) -> "GroupElement":
        """Identity element acting on CP^n."""
        return cls(np.eye(n + 1, dtype=complex))

    @classmethod
    def from_hermitian(cls, a: np.ndarray) -> "GroupElement":
        """exp(a) for a traceless Hermitian a (a positive element)."""
        return cls(herm_exp(a))

    @property
    def size(self) -> int:
        return self.g.shape[0]

    def inverse(self) -> "GroupElement":
        return GroupElement(np.linalg.inv(self.g))

    def compose(self, other: "GroupElement") -> "GroupElement":
        """Matrix product self . other (acts by other first)."""
        return GroupElement(self.g @ other.g)


def herm_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a Hermitian matrix via eigendecomposition."""
    a = np.asarray(a, dtype=complex)
    vals, vecs = np.linalg.eigh(a)
    return (vecs * np.exp(vals)) @ vecs.conj().T


def move_rows(g: np.ndarray, z: np.ndarray):
    """The one kernel of the g-action: the rows g z_i and their squared norms."""
    if g.shape[0] != z.shape[1]:
        raise InvalidInput("group element size does not match the measure")
    moved = z @ g.T
    parts = moved.view(float)  # (re, im) pairs of each row
    sq = np.einsum("mk,mk->m", parts, parts)
    if np.any(sq < MIN_VECTOR_NORM * MIN_VECTOR_NORM):
        raise NumericalDegeneracy("group action annihilated an atom representative")
    return moved, sq


def act_point(g: GroupElement, p: ProjectivePoint) -> ProjectivePoint:
    """Projective action [z] -> [g z]."""
    return ProjectivePoint(move_rows(g.g, p.coeffs[None])[0][0])


def mu_component(p: ProjectivePoint, d: "SpectralDirection") -> float:
    """Component <mu([z]), A> = z* A z of the momentum along a direction."""
    z = p.coeffs
    return float(np.vdot(z, d.a @ z).real)


@dataclass(eq=False)
class SpectralDirection:
    """A nonzero traceless Hermitian direction with its spectral data.

    ``vecs`` is a (k, k) unitary of eigenvector columns in ascending
    eigenvalue order.  ``eigenvalues`` are the distinct (cluster-merged)
    eigenvalues, strictly ascending, and cluster i owns the next
    ``multiplicities[i]`` columns of ``vecs``.
    """

    a: np.ndarray
    eigenvalues: np.ndarray
    vecs: np.ndarray = field(repr=False)
    multiplicities: np.ndarray

    @property
    def size(self) -> int:
        return self.a.shape[0]

    @property
    def levels(self) -> int:
        """Number of distinct eigenvalue clusters."""
        return self.eigenvalues.size

    @property
    def projectors(self) -> list:
        """Orthogonal projectors onto the cluster eigenspaces, derived from ``vecs``."""
        return [v @ v.conj().T for v in np.split(self.vecs, np.cumsum(self.multiplicities)[:-1], axis=1)]

    def scaled(self, factor: float) -> "SpectralDirection":
        """The direction factor*A (factor > 0 keeps the eigenvalue order)."""
        if factor <= 0:
            raise InvalidInput("scaling factor must be positive")
        return SpectralDirection(
            a=self.a * factor,
            eigenvalues=self.eigenvalues * factor,
            vecs=self.vecs,
            multiplicities=self.multiplicities,
        )


def spectral_decompose_stack(mats) -> list[SpectralDirection]:
    """Validate a (count, k, k) stack of direction matrices and decompose it with one eigh.

    Eigenvalues whose gap is at most CLUSTER_TOL * ||a||_F are merged into a
    single cluster (the cluster eigenvalue is their mean).
    """
    a = np.asarray(mats, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise InvalidInput("direction must be a square matrix")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("direction entries must be finite")
    count, k = a.shape[:2]
    scale = row_norms(a.reshape(count, -1))
    if (scale < ZERO_DIRECTION_TOL).any():
        raise ZeroDirection("direction matrix has (numerically) zero norm")
    adj = a.conj().swapaxes(1, 2)
    if (row_norms((a - adj).reshape(count, -1)) > HERMITIAN_TOL * np.maximum(1.0, scale)).any():
        raise InvalidInput("direction matrix must be Hermitian")
    a = (a + adj) / 2.0
    tr = np.trace(a, axis1=1, axis2=2).real
    if (np.abs(tr) > TRACELESS_TOL * np.maximum(1.0, scale)).any():
        raise InvalidInput("direction matrix must be traceless")
    a = a - np.eye(k) * (tr / k + 0.0)[:, None, None]  # + 0.0: -0.0 would flip signed zeros
    a.flags.writeable = False
    vals, vecs = np.linalg.eigh(a)
    new = np.ones((count, k), dtype=bool)  # an eigenvalue that starts a cluster
    new[:, 1:] = np.diff(vals, axis=1) > CLUSTER_TOL * scale[:, None]
    cluster = np.cumsum(new).reshape(count, k) - 1  # cluster index over the whole stack
    owner = np.flatnonzero(new) // k  # the direction of each cluster
    mine = cluster[owner] == np.arange(owner.size)[:, None]
    # A masked mean reduces each cluster as np.mean of its slice would, bit for bit.
    means = np.mean(vals[owner], axis=1, where=mine)
    bounds = np.cumsum(new.sum(axis=1))[:-1]
    multiplicities = np.split(np.bincount(cluster.ravel()), bounds)
    return list(map(SpectralDirection, a, np.split(means, bounds), vecs, multiplicities))


def spectral_decompose(a) -> SpectralDirection:
    """Validate one direction matrix and split its spectrum into clusters."""
    return spectral_decompose_stack(np.asarray(a, dtype=complex)[None])[0]


def direction_from_projectors(
    eigenvalues, projectors, multiplicities
) -> SpectralDirection:
    """Assemble a SpectralDirection from known exact spectral pieces."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    multiplicities = np.asarray(multiplicities, dtype=int)
    a = np.asarray(sum(c * p for c, p in zip(eigenvalues, projectors)), dtype=complex)
    a.flags.writeable = False
    # The range of a rank-r projector is spanned by its top r eigenvectors.
    vecs = np.hstack([np.linalg.eigh(p)[1][:, len(p) - r :] for p, r in zip(projectors, multiplicities)])
    return SpectralDirection(a, eigenvalues, vecs, multiplicities)


def _strata(z: np.ndarray, d: SpectralDirection, tol: float):
    """Coefficients of the rows of z on the columns of d.vecs, the clusters each row
    has a component of norm above tol on, and the highest of them."""
    y = z @ d.vecs.conj()
    starts = np.cumsum(d.multiplicities) - d.multiplicities
    present = np.sqrt(np.add.reduceat(np.abs(y) ** 2, starts, axis=1)) > tol
    if not present.any(axis=1).all():
        raise NumericalDegeneracy("point has no spectral component above tolerance")
    return y, present, d.levels - 1 - np.argmax(present[:, ::-1], axis=1)


def flow_strata(z: np.ndarray, d: SpectralDirection) -> np.ndarray:
    """Per unit row of z, the highest cluster it has a component above COMPONENT_TOL on."""
    return _strata(z, d, COMPONENT_TOL)[2]


def flow_limit(p: ProjectivePoint, d: SpectralDirection) -> tuple[int, ProjectivePoint]:
    """Limit of [exp(tA) z], t -> +infinity: (stratum, normalized projection onto it)."""
    y, _, top = _strata(p.coeffs[None], d, COMPONENT_TOL)
    keep = np.repeat(np.arange(d.levels) == top[0], d.multiplicities)
    return int(top[0]), ProjectivePoint((y[0] * keep) @ d.vecs.T)


def flow_rows(z: np.ndarray, d: SpectralDirection, t: float) -> np.ndarray:
    """Rows exp(tA) z_i scaled by exp(-t c_i), c_i the top eigenvalue z_i meets.

    No factor exceeds 1, so nothing overflows, and an absent component gets 0.
    """
    if not np.isfinite(t):
        raise InvalidInput(f"flow time t must be finite, got {t}")
    y, present, top = _strata(z, d, 0.0)
    exponent = np.where(present, (d.eigenvalues - d.eigenvalues[top][:, None]) * t, -np.inf)
    w = (y * np.exp(np.repeat(exponent, d.multiplicities, axis=1))) @ d.vecs.T
    if (np.linalg.norm(w, axis=1) < MIN_VECTOR_NORM).any():
        raise NumericalDegeneracy("flowed representative underflowed to zero")
    return w


def flow_point(p: ProjectivePoint, d: SpectralDirection, t: float) -> ProjectivePoint:
    """The flowed point [exp(tA) z], renormalized at evaluation."""
    return ProjectivePoint(flow_rows(p.coeffs[None], d, t)[0])


def traceless_hermitian_basis(size: int) -> list[np.ndarray]:
    """Orthonormal basis of traceless Hermitian size x size matrices.

    Off-diagonal symmetric/antisymmetric pairs (already orthonormal under the
    trace form) followed by the Gram-Schmidt-orthonormalized chain of
    consecutive diagonal differences.  Length is size^2 - 1.
    """
    if size < 2:
        raise InvalidInput("need size >= 2 for a nontrivial traceless basis")
    basis: list[np.ndarray] = []
    for j in range(size):
        for k in range(j + 1, size):
            sym = np.zeros((size, size), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
            basis.append(sym)
            skw = np.zeros((size, size), dtype=complex)
            skw[j, k] = -1j / np.sqrt(2.0)
            skw[k, j] = 1j / np.sqrt(2.0)
            basis.append(skw)
    for j in range(size - 1):
        d = np.zeros((size, size), dtype=complex)
        d[j, j] = 1.0
        d[j + 1, j + 1] = -1.0
        for b in basis[size * (size - 1):]:  # previously added diagonal elements
            d = d - np.trace(d @ b).real * b
        d = d / np.linalg.norm(d)
        basis.append(d)
    return basis


def random_direction_matrices(count: int, size: int, seed: int = 0) -> np.ndarray:
    """Sample GUE-style directions: Hermitian Gaussian, traceless, unit norm.

    Uses numpy's PCG64 generator, so draws are portable across platforms for
    a fixed seed; the seed must be a nonnegative integer.
    """
    if seed < 0:
        raise InvalidInput(f"seed must be >= 0, got {seed}")
    if size < 2:
        raise InvalidInput("need size >= 2 for a nontrivial traceless direction")
    x = np.random.Generator(np.random.PCG64(seed)).standard_normal((count, 2, size, size))
    x = x[:, 0] + 1j * x[:, 1]
    h = (x + x.conj().swapaxes(1, 2)) / 2.0
    h -= np.eye(size) * (np.trace(h, axis1=1, axis2=2).real / size)[:, None, None]
    return h / row_norms(h.reshape(count, -1))[:, None, None]


def random_directions(count: int, n: int, seed: int = 0) -> list[SpectralDirection]:
    """Seeded random directions on CP^n, decomposed and ready to use."""
    return spectral_decompose_stack(random_direction_matrices(count, n + 1, seed=seed))


def _rank(s: np.ndarray) -> int:
    """The one cutoff rule: singular values above RANK_TOL times the largest."""
    return int(np.sum(s > RANK_TOL * s[0]))


def span_basis(points) -> np.ndarray:
    """Orthonormal basis (columns) of the span of points or coefficient rows."""
    if len(points) == 0:
        raise EmptySpan("no points were given")
    if not isinstance(points, np.ndarray):
        rows = [p.coeffs for p in points]
        if len({r.size for r in rows}) > 1:
            raise InvalidInput("points do not all live in the same CP^n")
        points = np.array(rows)
    u, s, _ = np.linalg.svd(points.T, full_matrices=False)
    rank = _rank(s)
    if rank == 0:
        raise EmptySpan("points span a numerically zero subspace")
    return u[:, :rank]


def span_rank(rows: np.ndarray) -> int:
    """Numerical rank of a 2-d array (its rows and its columns alike); no U."""
    return _rank(np.linalg.svd(rows, compute_uv=False))


def rows_in_span(q: np.ndarray, z: np.ndarray, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
    """Mask of the unit rows of z within tol of the span of q's orthonormal columns."""
    residual = z.T - q @ (q.conj().T @ z.T)
    return np.linalg.norm(residual, axis=0) <= tol


def nested_span_distances(v: np.ndarray, z: np.ndarray, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
    """Distances of the unit rows of z to span(v_0 .. v_(j-1)), j = 1 .. k-1.

    v is a (k, k) unitary; column j-1 of the (m, k-1) result holds the
    distances to the span of the first j columns of v.  One projection
    C = |z v-bar|^2, then reverse cumulative sums: the distance to the
    j-span is sqrt(sum_(l >= j) C_il), a sum of nonnegative terms, so it
    does not cancel the way z - P z does.  Only rows within tol of the
    largest span, |<v_(k-1), z_i>| <= tol, can be within tol of any, so
    only they are projected; the others read inf.
    """
    dist = np.full((z.shape[0], v.shape[1] - 1), np.inf)
    near = np.flatnonzero(np.abs(z @ v[:, -1].conj()) <= tol)
    if near.size:
        c = np.abs(z[near] @ v.conj()) ** 2
        tail = np.cumsum(c[:, ::-1], axis=1)[:, ::-1]
        dist[near] = np.sqrt(tail[:, 1:])
    return dist
