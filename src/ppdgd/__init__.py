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
    lyapunov_value,
)
from .casestudy import build_case
from .dynamics import (
    IntegratorConfig,
    State,
    TerminationReason,
    Trajectory,
    integrate,
    rhs,
    select_subgradient,
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
from .geometry import (
    normal_cone_contains,
    project_box,
    tangent_project,
    tangent_project_limit,
)
from .inner import InnerSolution, solve_inner, strong_concavity_check
from .model import (
    BoxSet,
    PiecewiseScalarFn,
    Problem,
    QuadraticSmoothFn,
    build_problem,
    clarke_interval,
)
from .problem_io import dump_problem, load_problem, problem_from_dict, problem_to_dict

__version__ = "0.1.0"
