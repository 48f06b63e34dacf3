"""Exception taxonomy shared across the package."""


class PpdgdError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(PpdgdError):
    """Vector or matrix shapes are inconsistent."""


class RankDeficient(PpdgdError):
    """Coupling matrix A does not have (numerically) full row rank."""


class NotStronglyConvex(PpdgdError):
    """Smooth or piecewise cost lacks a positive strong-convexity constant."""


class NonCompactOmega(PpdgdError):
    """Omega must be a bounded box."""


class InfeasibleProblem(PpdgdError):
    """Ax + By = C admits no solution over X x Omega."""


class PointOutsideSet(PpdgdError):
    """A point violates its set membership beyond tolerance."""


class InnerSolveDiverged(PpdgdError):
    """Inner minimization hit its iteration cap with a large residual."""


class NonFiniteInput(PpdgdError):
    """Problem data hold NaN, an infinity or an entry beyond the data range.

    Also raised when a derived constant is not finite or is subnormal.
    """


class NonFiniteState(PpdgdError):
    """Integration produced NaN or Inf (step size too large)."""


class InitialPointOutsideOmega(PpdgdError):
    """Trajectory must start inside Omega."""


class OracleFailed(PpdgdError):
    """Equilibrium oracle could not reach the KKT residual target."""


class EquilibriumUnverified(PpdgdError):
    """Certification called with an equilibrium whose KKT residual is too large."""


class ProblemFormatError(PpdgdError):
    """Problem file is malformed; message cites the offending JSON path."""
