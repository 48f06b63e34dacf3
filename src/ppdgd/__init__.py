"""Solver for nonsmooth convex problems min f(x) + h(y) s.t. Ax + By = C
over box sets, driven by projected partial primal-dual gradient dynamics,
with empirical certification of the exponential-decay guarantees."""

from .analysis import (
    ConvergenceReport,
    Equilibrium,
    KktResidual,
    certify_envelope,
    envelope_series,
    equilibrium_oracle,
    kkt_residual,
)
from .casestudy import build_case
from .dynamics import (
    IntegratorConfig,
    State,
    TerminationReason,
    Trajectory,
    integrate,
    rhs,
)
from .errors import (
    AssumptionError,
    CertificationError,
    DimensionMismatch,
    EquilibriumUnverified,
    InfeasibleProblem,
    InitialPointOutsideOmega,
    InnerSolveDiverged,
    IntegrationError,
    InvalidConfig,
    NonCompactOmega,
    NonFiniteInput,
    NonFiniteState,
    NotStronglyConvex,
    OracleFailed,
    ParseError,
    PointOutsideSet,
    PpdgdError,
    ProblemFormatError,
    RankDeficient,
)
from .inner import InnerSolution, solve_inner
from .model import (
    BoxSet,
    PiecewiseScalarFn,
    Problem,
    QuadraticSmoothFn,
    build_problem,
)
from .problem_io import dump_problem, load_problem, problem_from_dict, problem_to_dict

__version__ = "0.1.0"
