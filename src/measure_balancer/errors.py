"""Exception types shared across the package."""


class BalancerError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(BalancerError, ValueError):
    """Malformed or out-of-contract input (bad file, bad weights, singular matrix)."""


class NumericalDegeneracy(BalancerError):
    """A computation lost all significance (vanishing norms, overflow, underflow)."""


class ZeroDirection(BalancerError):
    """A direction matrix with (numerically) zero Frobenius norm was supplied."""


class SpanIsFull(BalancerError):
    """The given points span the whole ambient space, so no proper subspace exists."""


class EmptySpan(BalancerError):
    """No points were given, so there is no subspace to work with."""


class TooManyAtoms(BalancerError):
    """The atom count exceeds the combinatorial enumeration cap.

    Callers may fall back to a randomized direction scan for a one-sided
    (destabilization-only) answer.
    """


class NotSemistable(BalancerError):
    """Decomposition was requested for a measure that is not semistable."""


class NotStable(BalancerError):
    """A target solve was requested for a measure that is not stable."""


class NotPositiveTarget(BalancerError):
    """The requested target state is not positive definite with unit trace."""


class SingularGram(BalancerError):
    """The Gram system of a Newton step of a target solve could not be solved."""


class TargetOutsidePolytope(BalancerError):
    """The requested torus target lies outside the reachable momentum polytope."""


class DegenerateHull(BalancerError):
    """All hull vertices coincide, so no centroid shift is defined."""


class MaxIterations(BalancerError):
    """An iterative solve hit its iteration cap before reaching tolerance.

    Carries the best iterate found so far in ``theta`` / ``residual`` when the
    torus solver raises it.
    """

    def __init__(self, message, theta=None, residual=None):
        super().__init__(message)
        self.theta = theta
        self.residual = residual
