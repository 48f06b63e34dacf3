"""Exception taxonomy shared across the package.

Every concrete error derives from one of four categories, each carrying the
command line's exit code and stderr label.
"""


class PpdgdError(Exception):
    """Base class for all package errors."""

    exit_code: int
    label: str


class ParseError(PpdgdError):
    exit_code, label = 2, "parse error"


class AssumptionError(PpdgdError):
    exit_code, label = 3, "assumption failure"


class IntegrationError(PpdgdError):
    exit_code, label = 4, "integration failure"


class CertificationError(PpdgdError):
    exit_code, label = 5, "certification failure"


class ProblemFormatError(ParseError):
    """Problem file is malformed; message cites the offending JSON path."""


class InvalidConfig(ParseError, ValueError):
    """An integrator setting or a command-line flag has a value that cannot be used."""


class DimensionMismatch(AssumptionError):
    """Vector or matrix shapes are inconsistent."""


class RankDeficient(AssumptionError):
    """Coupling matrix A does not have (numerically) full row rank."""


class NotStronglyConvex(AssumptionError):
    """Smooth or piecewise cost lacks a positive strong-convexity constant."""


class NonCompactOmega(AssumptionError):
    """Omega must be a bounded box."""


class InfeasibleProblem(AssumptionError):
    """Ax + By = C admits no solution over X x Omega."""


class NonFiniteInput(AssumptionError):
    """Problem data hold NaN, an infinity or an entry beyond the data range.

    Also raised when a derived constant is not finite or is subnormal.
    """


class PointOutsideSet(IntegrationError):
    """A point violates its set membership beyond tolerance."""


class InnerSolveDiverged(IntegrationError):
    """Inner minimization hit its iteration cap with a large residual."""


class NonFiniteState(IntegrationError):
    """Integration produced NaN or Inf, or a state out of range (step size too large)."""


class InitialPointOutsideOmega(IntegrationError):
    """Trajectory must start inside Omega."""


class OracleFailed(CertificationError):
    """Equilibrium oracle could not reach the KKT residual target."""


class EquilibriumUnverified(CertificationError):
    """Certification called with an equilibrium whose KKT residual is too large."""
