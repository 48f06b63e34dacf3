import numpy as np
import pytest

from ppdgd import (
    BoxSet,
    PiecewiseScalarFn,
    QuadraticSmoothFn,
    build_problem,
)
from ppdgd.casestudy import build_case, regulation_cost
from ppdgd.dynamics import IntegratorConfig
from ppdgd.random_problems import random_problem


def kinked(bps, jumps, curvs):
    """Convex piecewise quadratic with derivative jumps `jumps` at `bps` and curvatures `curvs`."""
    pieces = [(0.5 * curvs[0], 0.0, 0.0)]
    for b, jump, c in zip(bps, jumps, curvs[1:]):
        pl, ql, rl = pieces[-1]
        q = 2.0 * pl * b + ql + jump - c * b
        pieces.append((0.5 * c, q, pl * b * b + ql * b + rl - 0.5 * c * b * b - q * b))
    return PiecewiseScalarFn(np.array(bps, dtype=float), np.array(pieces))


@pytest.fixture(scope="session")
def case_problem():
    return build_case()


@pytest.fixture
def kinked_cost():
    """The case-study regulation cost: 0.5 s^2 inside |s| <= 0.2, s^2 - 0.02 outside."""
    return regulation_cost()


@pytest.fixture
def one_dim_problem():
    """f = 0.5 x^2, h = 0.5 y^2, A = B = [1], C = 0, Omega = [-1, 1]; saddle at 0."""
    return build_problem(
        QuadraticSmoothFn(np.array([[1.0]]), np.zeros(1)),
        [PiecewiseScalarFn.quadratic(0.5)],
        np.array([[1.0]]),
        np.array([[1.0]]),
        np.zeros(1),
        BoxSet.free(1),
        BoxSet.box([-1.0], [1.0]),
    )


@pytest.fixture
def identity_problem():
    """f = 0.5||x||^2, h_j = 0.5 s^2, A = I2, B = -I2, C = 0, Omega = [-1,1]^2."""
    return build_problem(
        QuadraticSmoothFn(np.eye(2), np.zeros(2)),
        [PiecewiseScalarFn.quadratic(0.5), PiecewiseScalarFn.quadratic(0.5)],
        np.eye(2),
        -np.eye(2),
        np.zeros(2),
        BoxSet.free(2),
        BoxSet.box([-1.0, -1.0], [1.0, 1.0]),
    )


@pytest.fixture
def weakly_active_box_dense():
    """Dense H, X = [-1, 1]^2 and h = y^2 / 2 with x* = (-1, 0.3), lam* = 0.2, y* = -0.2.

    x_0 sits on its lower bound with a zero multiplier: the bound is weakly active.
    """
    H, A = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([[1.0, 1.0]])
    x_star, lam_star = np.array([-1.0, 0.3]), np.array([0.2])
    y_star = -lam_star   # h(y) = y^2 / 2 and B = [1]
    return build_problem(QuadraticSmoothFn(H, -(H @ x_star + A.T @ lam_star)),
                         [PiecewiseScalarFn.quadratic(0.5)], A, np.eye(1), A @ x_star + y_star,
                         BoxSet.box([-1.0, -1.0], [1.0, 1.0]), BoxSet.box([-1.0], [1.0]))


@pytest.fixture(scope="session")
def benchmark_runs():
    """(workload, P, y0, lam0, cfg) of the 21 solves of perfbench/workloads.py at seed 1.

    random_campaign: 7 draws alternating free and box_diag X, started
    uniformly in Omega; boxed_dense: 9 draws with X = [-1, 1]^n and H dense;
    certify_files: the case study and 4 free-X draws at the CLI defaults.
    The last two start at y = 0, and every solve at lam = 0.
    """
    runs = []
    rng, starts = np.random.default_rng(20240811), np.random.default_rng(1)
    cfg = IntegratorConfig(dt=2e-3, t_end=60.0, stop_tol=1e-8)
    for k in range(7):
        P = random_problem(rng, free_x=(k % 2 == 0))
        runs.append(("random_campaign", P, starts.uniform(P.Omega.lo, P.Omega.hi), cfg))
    rng, cfg = np.random.default_rng([20240811, 3]), IntegratorConfig(dt=2e-3, t_end=2.0, stop_tol=1e-8)
    for _ in range(9):
        R = random_problem(rng, free_x=True)
        X = BoxSet.box(-np.ones(R.n), np.ones(R.n))
        runs.append(("boxed_dense", build_problem(R.f, R.h, R.A, R.B, R.C, X, R.Omega), None, cfg))
    rng, cfg = np.random.default_rng([20240811, 2]), IntegratorConfig(dt=1e-3, t_end=50.0)
    for P in [build_case()] + [random_problem(rng, free_x=True) for _ in range(4)]:
        runs.append(("certify_files", P, None, cfg))
    return [(w, P, np.zeros(P.m) if y0 is None else y0, np.zeros(P.p), cfg)
            for w, P, y0, cfg in runs]


@pytest.fixture(scope="session")
def short_mode_draw():
    """(P, y0, lam0): random_problem data whose h_j are kinked 0.01 apart across Omega.

    Jumps of 0.001 to 0.005 at every kink: at dt = 2e-3 a mode lasts a few
    steps, as on the short-mode instances of ROADMAP item 11.
    """
    rng = np.random.default_rng(11)
    R = random_problem(rng, max_dim=6)
    h = []
    for lo, hi in zip(R.Omega.lo, R.Omega.hi):
        bps = np.arange(lo + 0.005, hi, 0.01)
        h.append(kinked(bps, rng.uniform(0.001, 0.005, bps.size), np.ones(bps.size + 1)))
    P = build_problem(R.f, h, R.A, R.B, R.C, R.X, R.Omega)
    return P, rng.uniform(P.Omega.lo, P.Omega.hi), rng.normal(size=P.p)
