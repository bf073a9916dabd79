"""Stability classification and momentum balancing for atomic measures
on complex projective space.

The package classifies a finitely supported probability measure on CP^n
by its behaviour under the special linear group (stable, polystable,
semistable, unstable), certifies the verdict with an explicit subspace
or splitting, and — in the stable case — produces the group element
that moves the measure to zero momentum (or any prescribed positive
target).  A two-sphere bridge implements Mobius centering of spherical
measures, and a diagonal-torus solver handles targets inside the
reachable moment polytope.
"""

import os as _os

# Cap BLAS parallelism before numpy is first imported anywhere in the
# package.  Only pre-existing values win over the cap.
_cap = _os.environ.get("MEASURE_BALANCER_THREADS")
if _cap is not None and _cap.isdigit() and int(_cap) > 0:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        _os.environ.setdefault(_var, _cap)
del _os, _cap

from .balancing import (  # noqa: E402
    VERDICT_CONVERGED,
    VERDICT_DIVERGED,
    VERDICT_ILL_CONDITIONED,
    VERDICT_MAX_ITERATIONS,
    BalanceResult,
    TorusSolveResult,
    balance,
    gram_operator,
    polytope_centroid_shift,
    solve_target,
    torus_solve,
)
from .errors import (  # noqa: E402
    BalancerError,
    DegenerateHull,
    EmptySpan,
    InvalidInput,
    MaxIterations,
    NotPositiveTarget,
    NotSemistable,
    NotStable,
    NumericalDegeneracy,
    SingularGram,
    SpanIsFull,
    TargetOutsidePolytope,
    TooManyAtoms,
    ZeroDirection,
)
from .geometry import (  # noqa: E402
    GroupElement,
    MomentumMatrix,
    ProjectivePoint,
    SpectralDirection,
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
    span_basis,
    spectral_decompose,
    traceless_hermitian_basis,
)
from .measures import (  # noqa: E402
    AtomicMeasure,
    kempf_ness,
    kempf_ness_derivative,
    momentum,
    pushforward,
)
from .sphere import (  # noqa: E402
    SphereMeasure,
    bloch,
    center_of_mass,
    hersch_balance,
    projective_point_to_sphere,
    sphere_point_to_projective,
    to_projective,
)
from .stability import (  # noqa: E402
    NotPolystable,
    PolystableSplitting,
    SplittingBlock,
    StabilityKind,
    StabilityVerdict,
    Subspace,
    candidate_subspaces,
    classify,
    polystable_decompose,
)
from .weights import (  # noqa: E402
    WeightReport,
    destabilizing_direction,
    lambda_closed_form,
    lambda_via_flow,
    maximal_weight,
    unstable_partition,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure",
    "BalanceResult",
    "BalancerError",
    "DegenerateHull",
    "EmptySpan",
    "GroupElement",
    "InvalidInput",
    "MaxIterations",
    "MomentumMatrix",
    "NotPolystable",
    "NotPositiveTarget",
    "NotSemistable",
    "NotStable",
    "NumericalDegeneracy",
    "PolystableSplitting",
    "ProjectivePoint",
    "SingularGram",
    "SpanIsFull",
    "SpectralDirection",
    "SphereMeasure",
    "SplittingBlock",
    "StabilityKind",
    "StabilityVerdict",
    "Subspace",
    "TargetOutsidePolytope",
    "TooManyAtoms",
    "TorusSolveResult",
    "VERDICT_CONVERGED",
    "VERDICT_DIVERGED",
    "VERDICT_ILL_CONDITIONED",
    "VERDICT_MAX_ITERATIONS",
    "WeightReport",
    "ZeroDirection",
    "act_point",
    "balance",
    "bloch",
    "candidate_subspaces",
    "center_of_mass",
    "classify",
    "destabilizing_direction",
    "direction_from_projectors",
    "flow_limit",
    "flow_point",
    "fs_distance",
    "gram_operator",
    "herm_exp",
    "hersch_balance",
    "kempf_ness",
    "kempf_ness_derivative",
    "lambda_closed_form",
    "lambda_via_flow",
    "maximal_weight",
    "momentum",
    "momentum_of_point",
    "mu_component",
    "polystable_decompose",
    "pushforward",
    "polytope_centroid_shift",
    "projective_point_to_sphere",
    "random_direction_matrices",
    "random_directions",
    "solve_target",
    "span_basis",
    "spectral_decompose",
    "sphere_point_to_projective",
    "to_projective",
    "torus_solve",
    "traceless_hermitian_basis",
    "unstable_partition",
    "__version__",
]
