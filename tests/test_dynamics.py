import numpy as np
import pytest

from ppdgd import (
    BoxSet,
    InitialPointOutsideOmega,
    IntegratorConfig,
    Method,
    NonFiniteState,
    PiecewiseScalarFn,
    QuadraticSmoothFn,
    State,
    TerminationReason,
    build_problem,
    integrate,
    kkt_residual,
    rhs,
    select_subgradient,
    solve_inner,
)
from ppdgd.random_problems import random_problem


@pytest.fixture
def kink_flow_problem(kinked_cost):
    """m = p = 1 with B = [-1], so the subgradient target is +lam."""
    return build_problem(
        QuadraticSmoothFn(np.array([[1.0]]), np.zeros(1)),
        [kinked_cost],
        np.array([[1.0]]),
        np.array([[-1.0]]),
        np.zeros(1),
        BoxSet.free(1),
        BoxSet.box([-1.0], [1.0]),
    )


def test_select_subgradient_smooth_point_ignores_multiplier(kink_flow_problem):
    for lam in (-3.0, 0.0, 5.0):
        g = select_subgradient(kink_flow_problem, np.array([0.1]), np.array([lam]))
        assert g[0] == pytest.approx(0.1, abs=1e-15)  # unique derivative 0.5*2*s


def test_select_subgradient_sliding_mode(kink_flow_problem):
    # target 0.3 lies inside the kink interval [0.2, 0.4]: drift exactly zero
    g = select_subgradient(kink_flow_problem, np.array([0.2]), np.array([0.3]))
    assert g[0] == 0.3
    dy, _ = rhs(kink_flow_problem, State(np.array([0.2]), np.array([0.3])), 1.0)
    assert dy[0] == 0.0


def test_select_subgradient_clamps_to_interval_end(kink_flow_problem):
    g = select_subgradient(kink_flow_problem, np.array([0.2]), np.array([1.0]))
    assert g[0] == 0.4
    dy, _ = rhs(kink_flow_problem, State(np.array([0.2]), np.array([1.0])), 1.0)
    assert dy[0] == pytest.approx(0.6, abs=1e-15)


def test_rhs_one_dimensional_hand_values(one_dim_problem):
    s = State(np.array([0.5]), np.array([0.2]))
    dy, dlam = rhs(one_dim_problem, s, 1.0)
    # x* = -0.2, grad phi = -0.2, dy = -(0.5 + 0.2), dlam = -0.2 + 0.5
    assert dy[0] == pytest.approx(-0.7, abs=1e-15)
    assert dlam[0] == pytest.approx(0.3, abs=1e-15)


def test_rhs_tau_scaling_is_exact(one_dim_problem):
    s = State(np.array([0.37]), np.array([-0.21]))
    dy1, dl1 = rhs(one_dim_problem, s, 1.3)
    dy2, dl2 = rhs(one_dim_problem, s, 2.6)
    assert np.array_equal(dy2, 2.0 * dy1)
    assert np.array_equal(dl2, 2.0 * dl1)


def test_rhs_zero_at_equilibrium(one_dim_problem):
    dy, dlam = rhs(one_dim_problem, State(np.zeros(1), np.zeros(1)), 1.0)
    assert np.all(dy == 0.0) and np.all(dlam == 0.0)


def test_integrate_from_equilibrium_stops_immediately(one_dim_problem):
    traj = integrate(one_dim_problem, State(np.zeros(1), np.zeros(1)),
                     IntegratorConfig(dt=1e-3, t_end=1.0))
    assert traj.terminated_by is TerminationReason.STOP_TOL
    assert len(traj) == 1
    assert traj.t[0] == 0.0


def boundary_equilibrium_problem():
    """y* = 1 sits on the upper face with lam* = -2 (raw drift points outward)."""
    return build_problem(
        QuadraticSmoothFn(np.array([[1.0]]), np.zeros(1)),
        [PiecewiseScalarFn.quadratic(0.5)],
        np.array([[1.0]]),
        np.array([[1.0]]),
        np.array([3.0]),
        BoxSet.free(1),
        BoxSet.box([-1.0], [1.0]),
    )


def test_equilibrium_residence_on_boundary():
    P = boundary_equilibrium_problem()
    s0 = State(np.array([1.0]), np.array([-2.0]))
    dy, dlam = rhs(P, s0, 1.0)
    assert np.all(dy == 0.0) and np.all(dlam == 0.0)
    cfg = IntegratorConfig(dt=1e-3, t_end=1.0, stop_tol=0.0, record_every=1000)
    traj = integrate(P, s0, cfg)  # 1000 forced steps
    assert np.max(np.abs(traj.y - 1.0)) < 1e-9
    assert np.max(np.abs(traj.lam + 2.0)) < 1e-9


def test_one_dimensional_convergence_to_kkt_point(one_dim_problem):
    traj = integrate(one_dim_problem, State(np.array([0.5]), np.zeros(1)),
                     IntegratorConfig(dt=1e-3, t_end=30.0))
    x_end = solve_inner(one_dim_problem, traj.lam[-1]).x_star
    res = kkt_residual(one_dim_problem, x_end, traj.y[-1], traj.lam[-1])
    assert res.total <= 1e-6
    # brute-force oracle: the constrained minimum of 0.5x^2 + 0.5y^2 with x + y = 0
    grid = np.linspace(-1, 1, 20001)
    vals = 0.5 * grid**2 + 0.5 * grid**2  # x = -y
    y_best = grid[np.argmin(vals)]
    assert abs(traj.y[-1, 0] - y_best) <= 1e-4


def test_initial_point_outside_omega_rejected(one_dim_problem):
    with pytest.raises(InitialPointOutsideOmega):
        integrate(one_dim_problem, State(np.array([1.5]), np.zeros(1)),
                  IntegratorConfig(dt=1e-3, t_end=1.0))


def test_non_finite_state_detected(one_dim_problem):
    cfg = IntegratorConfig(dt=1e3, t_end=1e6, record_every=10**6)
    with pytest.warns(UserWarning, match="dt"):
        with pytest.raises(NonFiniteState):
            integrate(one_dim_problem, State(np.array([0.5]), np.zeros(1)), cfg)


def test_trajectory_time_grid_and_first_sample(one_dim_problem):
    cfg = IntegratorConfig(dt=1e-3, t_end=0.1, stop_tol=0.0, record_every=10)
    traj = integrate(one_dim_problem, State(np.array([0.5]), np.array([-0.25])), cfg)
    assert traj.t[0] == 0.0
    assert np.array_equal(traj.y[0], [0.5])
    assert np.array_equal(traj.lam[0], [-0.25])
    assert np.all(np.diff(traj.t) > 0)
    assert np.allclose(np.diff(traj.t)[:-1], 0.01, atol=1e-12)
    assert traj.t[-1] == pytest.approx(0.1, abs=1e-12)


def test_omega_invariance_randomized():
    rng = np.random.default_rng(77)
    cfg = IntegratorConfig(dt=2e-3, t_end=5.0, stop_tol=1e-10)
    for k in range(20):
        P = random_problem(rng, max_dim=6, free_x=(k % 2 == 0))
        y0 = rng.uniform(P.Omega.lo, P.Omega.hi)
        traj = integrate(P, State(y0, rng.normal(size=P.p)), cfg)
        assert np.all(traj.y >= P.Omega.lo - 1e-9)
        assert np.all(traj.y <= P.Omega.hi + 1e-9)


def test_lambda_stays_bounded_randomized():
    rng = np.random.default_rng(42)
    cfg = IntegratorConfig(dt=2e-3, t_end=20.0)
    for _ in range(10):
        P = random_problem(rng, max_dim=5)
        a_lam = float(np.linalg.norm(solve_inner(P, np.zeros(P.p)).grad_phi))
        verts = np.array(np.meshgrid(*zip(P.Omega.lo, P.Omega.hi))).reshape(P.m, -1).T
        a_lam += float(np.max(np.linalg.norm(verts @ P.B.T - P.C, axis=1)))
        lam0 = rng.normal(size=P.p)
        traj = integrate(P, State(rng.uniform(P.Omega.lo, P.Omega.hi), lam0), cfg)
        bound = max(np.linalg.norm(lam0), (P.alpha_m / P.kappa1) * a_lam)
        assert np.max(np.linalg.norm(traj.lam, axis=1)) <= bound + 1e-6


def test_single_euler_step_matches_public_field_ops():
    rng = np.random.default_rng(123)
    from ppdgd import project_box
    for _ in range(10):
        P = random_problem(rng, max_dim=6)
        y0 = rng.uniform(P.Omega.lo, P.Omega.hi)
        lam0 = rng.normal(size=P.p)
        dt = 1e-3
        traj = integrate(P, State(y0, lam0),
                         IntegratorConfig(dt=dt, t_end=dt, stop_tol=0.0))
        g = select_subgradient(P, y0, lam0)
        raw = -g - P.Bt @ lam0
        y_expect = project_box(y0 + dt * raw, P.Omega)
        _, dlam = rhs(P, State(y0, lam0), 1.0)
        assert np.array_equal(traj.y[1], y_expect)
        assert np.array_equal(traj.lam[1], lam0 + dt * dlam)


def test_euler_and_rk4_agree_on_smooth_interior_flow():
    rng = np.random.default_rng(0)
    H = np.diag(rng.uniform(1, 2, 3))
    B = rng.normal(size=(3, 3)) * 0.3
    P = build_problem(
        QuadraticSmoothFn(H, rng.normal(size=3) * 0.1),
        [PiecewiseScalarFn.quadratic(0.7)] * 3,
        np.eye(3), B, np.zeros(3),
        BoxSet.free(3), BoxSet.box([-5.0] * 3, [5.0] * 3),
    )
    s0 = State(np.array([1.0, -1.0, 0.5]), np.zeros(3))
    dt = 1e-3
    te = integrate(P, s0, IntegratorConfig(dt=dt, t_end=10.0, stop_tol=0.0))
    tr = integrate(P, s0, IntegratorConfig(dt=dt, t_end=10.0, stop_tol=0.0,
                                           method=Method.TANGENT_RK4))
    gap = np.linalg.norm(np.concatenate([te.y[-1] - tr.y[-1], te.lam[-1] - tr.lam[-1]]))
    assert gap <= 10 * dt


def test_rk4_keeps_omega_invariance(kink_flow_problem):
    cfg = IntegratorConfig(dt=5e-3, t_end=10.0, method=Method.TANGENT_RK4)
    traj = integrate(kink_flow_problem, State(np.array([0.9]), np.array([2.0])), cfg)
    assert np.all(traj.y >= -1.0 - 1e-9)
    assert np.all(traj.y <= 1.0 + 1e-9)


def test_trajectory_csv_format(tmp_path, one_dim_problem):
    traj = integrate(one_dim_problem, State(np.array([0.5]), np.zeros(1)),
                     IntegratorConfig(dt=1e-3, t_end=0.01, stop_tol=0.0))
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,y_1,lambda_1,drift_norm"
    assert len(lines) == len(traj) + 1
    cells = lines[2].split(",")
    assert len(cells) == 4
    # 17 significant digits round-trip exactly
    assert float(cells[1]) == traj.y[1, 0]
    assert float(cells[3]) == traj.drift_norm[1]


def test_record_every_keeps_final_state(one_dim_problem):
    cfg = IntegratorConfig(dt=1e-3, t_end=0.0105, stop_tol=0.0, record_every=4)
    traj = integrate(one_dim_problem, State(np.array([0.5]), np.zeros(1)), cfg)
    # steps at 0, 4, 8 recorded by stride; step 11 is the forced final sample
    assert np.allclose(traj.t, [0.0, 0.004, 0.008, 0.011], atol=1e-15)
