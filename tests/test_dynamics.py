import bisect
import dataclasses
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppdgd import (
    BoxSet,
    DimensionMismatch,
    InitialPointOutsideOmega,
    IntegratorConfig,
    InvalidConfig,
    NonFiniteState,
    PiecewiseScalarFn,
    QuadraticSmoothFn,
    State,
    TerminationReason,
    Trajectory,
    build_problem,
    equilibrium_oracle,
    integrate,
    kkt_residual,
    rhs,
    solve_inner,
)
from ppdgd import dynamics, export
from ppdgd.analysis import envelope_series, write_envelope_csv
from ppdgd.inner import KKT_TOL, x_star_piece
from ppdgd.model import PieceTable, SeparablePiecewise
from ppdgd.random_problems import random_piecewise, random_problem

from conftest import atom_argmin, kinked, subprocess_env
from oracles import project_box, select_subgradient, tangent_project


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


@pytest.mark.parametrize("shape", [(3,), (7, 1)])
def test_rhs_rejects_lam_of_wrong_shape(case_problem, shape):
    s = State(np.zeros(case_problem.m), np.zeros(shape))
    with pytest.raises(DimensionMismatch, match=r"lambda has shape"):
        rhs(case_problem, s, 1.0)


def test_rhs_zero_at_equilibrium(one_dim_problem):
    dy, dlam = rhs(one_dim_problem, State(np.zeros(1), np.zeros(1)), 1.0)
    assert np.all(dy == 0.0) and np.all(dlam == 0.0)


def _kink_and_face_states(seed, count):
    """(P, y, lam): random draws with each y_j on a bound of Omega, a kink inside it or neither."""
    rng = np.random.default_rng(seed)
    problems = [random_problem(rng, max_dim=6, free_x=k % 2 == 0) for k in range(8)]
    for _ in range(count):
        P = problems[rng.integers(len(problems))]
        y = rng.uniform(P.Omega.lo, P.Omega.hi)
        for j, fn in enumerate(P.h):
            bp = fn.breakpoints
            kinks = bp[(bp > P.Omega.lo[j]) & (bp < P.Omega.hi[j])]
            where = rng.integers(4)
            if where < 2:
                y[j] = (P.Omega.lo[j], P.Omega.hi[j])[where]
            elif where == 2 and kinks.size:
                y[j] = rng.choice(kinks)
        yield P, y, rng.normal(size=P.p)


def test_rhs_is_the_tangent_projection_of_the_selected_drift(kink_flow_problem):
    # bit for bit against the test oracles, which share no code with the
    # optimality interval rhs reads: at kinks, where the target slides or is
    # clamped, and on faces, where the outward part is cut. In kink_flow_problem
    # the target is lam, put on the ends of the Clarke intervals [0.2, 0.4] at
    # 0.2, [-0.4, -0.2] at -0.2 and of h' = 2 y at the faces 1 and -1: the
    # drift there is a zero, +0.0 in both
    P = kink_flow_problem
    ends = [(P, np.array([y]), np.array([lam])) for y, lam in
            [(0.2, 0.2), (0.2, 0.4), (-0.2, -0.4), (-0.2, -0.2), (1.0, 2.0), (-1.0, -2.0)]]
    on_kink = on_face = 0
    for P, y, lam in ends + list(_kink_and_face_states(31, 300)):
        drift = tangent_project(y, -select_subgradient(P, y, lam) - P.Bt @ lam, P.Omega)
        for tau in (0.3, 1.0, 7.0):
            dy, _ = rhs(P, State(y, lam), tau)
            assert dy.tobytes() == (tau * drift).tobytes(), (y, lam, tau)
        on_kink += any(np.isin(y[j], fn.breakpoints) for j, fn in enumerate(P.h))
        on_face += bool(((y == P.Omega.lo) | (y == P.Omega.hi)).any())
    assert on_kink > 100 and on_face > 200


def test_kkt_y_residual_is_the_largest_field_component():
    # r_y is the distance of 0 to the interval whose least-norm point is -dy at tau 1
    for P, y, lam in _kink_and_face_states(32, 300):
        dy, _ = rhs(P, State(y, lam), 1.0)
        x = solve_inner(P, lam).x_star
        assert kkt_residual(P, x, y, lam).r_y == np.abs(dy).max(), (y, lam)


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


@pytest.mark.parametrize("name", ["dt", "tau", "t_end", "stop_tol", "record_every"])
@pytest.mark.parametrize("value", [True, False, np.True_])
def test_integrator_config_rejects_a_bool(name, value):
    # True would pass as 1 and False as 0; problem files reject a bool as a number too
    with pytest.raises(InvalidConfig, match=f"^{name} must be a number, got {value!r}$"):
        IntegratorConfig(**{name: value})


def test_initial_point_outside_omega_rejected(one_dim_problem):
    with pytest.raises(InitialPointOutsideOmega):
        integrate(one_dim_problem, State(np.array([1.5]), np.zeros(1)),
                  IntegratorConfig(dt=1e-3, t_end=1.0))


@pytest.mark.parametrize("y, lam, message", [
    (np.zeros(2), np.zeros(1), r"^y has shape \(2,\), expected \(1,\)$"),
    (np.zeros(1), np.zeros((1, 1)), r"^lambda has shape \(1, 1\), expected \(1,\)$"),
])
def test_integrate_rejects_a_start_of_the_wrong_shape_as_rhs_does(one_dim_problem, y, lam, message):
    cfg = IntegratorConfig(dt=1e-3, t_end=1.0)
    for call in (lambda: integrate(one_dim_problem, State(y, lam), cfg),
                 lambda: rhs(one_dim_problem, State(y, lam), 1.0)):
        with pytest.raises(DimensionMismatch, match=message):
            call()


def test_non_finite_state_detected(one_dim_problem):
    cfg = IntegratorConfig(dt=1e3, t_end=1e6, record_every=10**6)
    # L = 1 + 2 ||B|| + ||A||^2 / alpha = 4
    with pytest.raises(NonFiniteState, match=r"dt\*tau\*L = 4e\+03 "):
        integrate(one_dim_problem, State(np.array([0.5]), np.zeros(1)), cfg)


def test_diverging_multiplier_raises_non_finite_state():
    # with a box X the dual gradient stays bounded, so at dt = 1e300 lam grows
    # by about dt per step and stays finite; its distance to lam* cannot be squared
    P = build_problem(QuadraticSmoothFn(np.eye(1), np.zeros(1)), [PiecewiseScalarFn.quadratic(0.5)],
                      np.eye(1), np.eye(1), np.full(1, 0.5), BoxSet.box([-2.0], [2.0]),
                      BoxSet.box([-1.0], [1.0]))
    cfg = IntegratorConfig(dt=1e300, t_end=1e304, stop_tol=0.0, record_every=10)
    with pytest.raises(NonFiniteState, match=r"lam left \[-1e\+150, 1e\+150\] at t = 1e\+301; "
                                             r"dt\*tau\*L = 4e\+300 "):
        integrate(P, State(np.zeros(1), np.zeros(1)), cfg)


def test_overflowing_jump_prox_raises_non_finite_state():
    # h' jumps by 10 at 0, and dt * tau * 10 overflows: the prox table used to
    # be built with overflow warnings
    P = build_problem(QuadraticSmoothFn(np.eye(1), np.zeros(1)),
                      [PiecewiseScalarFn([0.0], [[0.5, -5.0, 0.0], [0.5, 5.0, 0.0]])],
                      np.eye(1), np.eye(1), np.full(1, 0.5), BoxSet.free(1), BoxSet.box([-1.0], [1.0]))
    with pytest.raises(NonFiniteState, match="dt \\* tau times the jumps of h' is not finite"):
        integrate(P, State(np.zeros(1), np.zeros(1)), IntegratorConfig(dt=1e308, t_end=1e308))


def test_drift_lipschitz_estimate_ignores_padding_pieces():
    # h_1 has two pieces and h_2 one, so hpack pads h_2 with curvature 1.0;
    # the real curvatures are all 0.2, and L = 0.2 + 2 ||B|| + ||A||^2 / alpha = 3.2
    h = [PiecewiseScalarFn([0.0], [[0.1, 0.0, 0.0], [0.1, 0.05, 0.0]]),
         PiecewiseScalarFn.quadratic(0.1)]
    P = build_problem(QuadraticSmoothFn(np.eye(2), np.zeros(2)), h, np.eye(2), -np.eye(2),
                      np.zeros(2), BoxSet.free(2), BoxSet.box([-1.0, -1.0], [1.0, 1.0]))
    assert P.drift_lipschitz == 3.2


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


def _reference_stepper(P, dt):
    """One forward-backward step at tau = 1, coordinate by coordinate.

    Reads each h_j from its PiecewiseScalarFn: the jumps J_i of the
    derivative, their sums S_i below each piece, the continuous part
    d = h' - S (left piece at a breakpoint), v = y + dt (target - d), then
    the prox of the jump part: b_i when v lies in
    [b_i + dt S_i, b_i + dt S_{i+1}], else v - dt S_k on the k-th gap;
    finally the clip into Omega.
    """
    coords = []
    for fn in P.h:
        b = fn.breakpoints.tolist()
        c2, q = (2.0 * fn.coeffs[:, 0]).tolist(), fn.coeffs[:, 1].tolist()
        jumps = [max((c2[i + 1] * b[i] + q[i + 1]) - (c2[i] * b[i] + q[i]), 0.0)
                 for i in range(len(b))]
        S = [0.0] + np.cumsum(jumps).tolist()
        sticky = [(b[i] + dt * S[i], b[i] + dt * S[i + 1], b[i]) for i in range(len(b))]
        coords.append((b, c2, q, S, sticky))
    lo, hi = P.Omega.lo.tolist(), P.Omega.hi.tolist()

    def step(y, lam):
        target = (-(P.Bt @ lam)).tolist()
        y_next = np.empty_like(y)
        for j, (b, c2, q, S, sticky) in enumerate(coords):
            yj = float(y[j])
            k = bisect.bisect_left(b, yj)
            v = yj + dt * (target[j] - (c2[k] * yj + (q[k] - S[k])))
            stuck = [bi for start, end, bi in sticky if start <= v <= end]
            u = stuck[0] if stuck else v - dt * S[sum(end < v for _, end, _ in sticky)]
            y_next[j] = min(max(u, lo[j]), hi[j])
        return y_next

    return step


def _on_a_face(P, y0, lam0):
    """y0 with y_1 on a face of Omega: the lower one if the raw drift points out of it."""
    y0 = y0.copy()
    y0[0] = P.Omega.lo[0]
    if (-select_subgradient(P, y0, lam0) - P.Bt @ lam0)[0] >= 0.0:
        y0[0] = P.Omega.hi[0]
    return y0


def _edges(P):
    """Per coordinate j: the breakpoints of h_j and the bounds of Omega_j."""
    return [np.append(fn.breakpoints, [lo, hi]) for fn, lo, hi in zip(P.h, P.Omega.lo, P.Omega.hi)]


def _lands(edges, y, y_next):
    """Does the step y -> y_next put some y_j exactly on an edge it was not on?"""
    return any(b != a and b in e for a, b, e in zip(y.tolist(), y_next.tolist(), edges))


def _scale(want, dt):
    """Largest |value| of y, lam and drift_norm over the reference rows of a run, and of y / dt."""
    ys, lams, drifts = (np.abs(a).max() for a in want[:3])
    return ys, lams, drifts, ys / dt


def _row_mismatch(P, got, want, scale, tol):
    """Per row: do y or lam, and does drift_norm, leave the reference rows?

    got holds (y, lam, drift_norm) rows and want the reference's, with a
    flag per row for a step that lands some y_j on an edge. A value may
    leave its reference by tol times its scale, except a reference y_j on a
    breakpoint of h_j or a bound of Omega, which must be matched exactly.
    The residual of a landing step is (b - y_j)/dt for the edge b whatever
    y_j was, so it turns a rounding difference in y_j into one 1/dt times
    larger: on those rows alone drift_norm's scale is that of y over dt.
    """
    (y, lam, drift), (ry, rl, rd, lands) = got, want
    pinned = np.column_stack([np.isin(ry[:, j], e) for j, e in enumerate(_edges(P))])
    state = ((np.abs(y - ry) > tol * scale[0]) | (pinned & (y != ry))).any(axis=1) \
        | (np.abs(lam - rl) > tol * scale[1]).any(axis=1)
    return state, np.abs(drift - rd) > tol * np.where(lands, max(scale[2:]), scale[2])


def _assert_close_rows(P, traj, want, tol):
    """Rows of integrate within tol of the reference (t, y, lam, drift_norm, lands), t exactly."""
    assert np.array_equal(traj.t, want[0])
    state, drift = _row_mismatch(P, (traj.y, traj.lam, traj.drift_norm), want[1:],
                                 _scale(want[1:], traj.config.dt), tol)
    assert not state.any() and not drift.any(), (np.argmax(state), np.argmax(drift))


@pytest.mark.parametrize("every", [1, 3])
@pytest.mark.parametrize("steps", [1, 5000])
def test_euler_steps_match_public_field_ops(steps, every, case_problem, benchmark_runs, monkeypatch):
    # every recorded row of integrate against a plain loop of the forward-backward
    # step over per-coordinate PiecewiseScalarFn data and the public dual field,
    # up to the order of rounding;
    # 5000 steps recorded one by one outgrow the first 4096-row sample buffer,
    # and the last step is recorded whatever its index
    rng = np.random.default_rng(123)
    dt = 2.0 ** -10   # steps * dt / dt is exactly steps
    cfg = IntegratorConfig(dt=dt, t_end=steps * dt, stop_tol=0.0, record_every=every)
    starts = []
    for _ in range(10):
        P = random_problem(rng, max_dim=6)
        starts.append((P, rng.uniform(P.Omega.lo, P.Omega.hi), rng.normal(size=P.p)))
    # one more start with y_1 on a face of Omega, and one with a y_j on a kink
    P, y0, lam0 = starts[0]
    starts.append((P, _on_a_face(P, y0, lam0), lam0))
    P, y0, lam0 = starts[1]
    j = next(j for j, fn in enumerate(P.h) if fn.breakpoints.size)
    y0 = y0.copy()
    y0[j] = P.h[j].breakpoints[0]
    starts.append((P, y0, lam0))
    # the case study from 0, and last the boxed_dense draw problem_03 from 0 (X = [-1, 1]^7,
    # m 10, p 3): RUN_PRODUCT allows it 3 * 128 steps a block, and the cap, a power of two
    # times 128, is 256
    starts.append((case_problem, np.zeros(case_problem.m), np.zeros(case_problem.p)))
    _, P, y0, lam0, _ = benchmark_runs[10]
    assert (P.n, P.m, P.p) == (7, 10, 3) and not y0.any() and not lam0.any()
    starts.append((P, y0, lam0))
    blocks = _spy_blocks(monkeypatch)
    for P, y0, lam0 in starts:
        blocks.clear()
        traj = integrate(P, State(y0, lam0), cfg)
        reference_step, edges = _reference_stepper(P, dt), _edges(P)
        rows = []
        y, lam = y0, lam0
        for k in range(steps + 1):
            _, dlam = rhs(P, State(y, lam), 1.0)
            y_next = reference_step(y, lam)
            dy = y_next - y
            if k % every == 0 or k == steps:
                rows.append((k * dt, y, lam,
                             math.sqrt(float(dy @ dy) / (dt * dt) + float(dlam @ dlam)),
                             _lands(edges, y, y_next)))
            y, lam = y_next, lam + dt * dlam
        assert traj.terminated_by is TerminationReason.TIME_LIMIT
        _assert_close_rows(P, traj, tuple(np.array(c) for c in zip(*rows)), 1e-12)
        if every == 1:   # every state is recorded: no block computes one past step `steps`
            states = np.hstack([traj.y, traj.lam])
            for z, size in blocks:
                assert int(np.flatnonzero((states == z).all(axis=1))[0]) + size - 1 <= steps
    assert steps == 1 or max(size for _, size in blocks) == 256


def test_kink_free_steps_match_projected_euler():
    # without kinks the forward-backward step is projected Euler: the rows of
    # integrate against the old loop over rhs, select_subgradient and
    # project_box, in every inner mode, from starts on a face of Omega; the
    # box_dense active-set solve is exact only to KKT_TOL
    rng = np.random.default_rng(2718)
    steps, every = 2000, 7
    dt = 2.0 ** -9
    cfg = IntegratorConfig(dt=dt, t_end=steps * dt, stop_tol=0.0, record_every=every)
    modes = []
    for k in range(9):
        mode = ("free", "box_diag", "box_dense")[k % 3]
        R = random_problem(rng, max_dim=6, free_x=mode != "box_diag")
        h = [random_piecewise(rng, lo, hi, 0) for lo, hi in zip(R.Omega.lo, R.Omega.hi)]
        X = BoxSet.box(-np.ones(R.n), np.ones(R.n)) if mode == "box_dense" else R.X
        P = build_problem(R.f, h, R.A, R.B, R.C, X, R.Omega)
        modes.append(P.inner_mode)
        lam0 = rng.normal(size=P.p)
        y0 = _on_a_face(P, rng.uniform(P.Omega.lo, P.Omega.hi), lam0)
        traj = integrate(P, State(y0, lam0), cfg)
        edges, rows = _edges(P), []
        y, lam = y0, lam0
        for k in range(steps + 1):
            _, dlam = rhs(P, State(y, lam), 1.0)
            raw = -select_subgradient(P, y, lam) - P.Bt @ lam
            y_next = project_box(y + dt * raw, P.Omega)
            if k % every == 0 or k == steps:
                dy = y_next - y
                rows.append((k * dt, y, lam,
                             math.sqrt(float(dy @ dy) / (dt * dt) + float(dlam @ dlam)),
                             _lands(edges, y, y_next)))
            y, lam = y_next, lam + dt * dlam
        assert traj.terminated_by is TerminationReason.TIME_LIMIT
        _assert_close_rows(P, traj, tuple(np.array(c) for c in zip(*rows)),
                           1e-9 if P.inner_mode == "box_dense" else 1e-12)
    assert sorted(set(modes)) == ["box_dense", "box_diag", "free"]


def _jump_prox_exact(fn, v, t, lo, hi):
    """Brute-force argmin over [lo, hi] of g(u) + (u - v)^2 / (2t), in exact rationals.

    g(u) = sum_i J_i (u - b_i)_+ is the jump part of fn. The candidates are
    lo, hi, every breakpoint in [lo, hi] and the clamped stationary point of
    every gap between breakpoints; the objective is strictly convex, so the
    smallest of them is the unique minimizer.
    """
    b = [Fraction(x) for x in fn.breakpoints]
    c2, q = 2.0 * fn.coeffs[:, 0], fn.coeffs[:, 1]
    J = [Fraction(max((c2[i + 1] * fn.breakpoints[i] + q[i + 1])
                      - (c2[i] * fn.breakpoints[i] + q[i]), 0.0)) for i in range(len(b))]
    v, t, lo, hi = Fraction(v), Fraction(t), Fraction(lo), Fraction(hi)
    edges = [None] + b + [None]
    cands = [lo, hi] + [x for x in b if lo <= x <= hi]
    for k in range(len(b) + 1):
        left = lo if edges[k] is None else max(edges[k], lo)
        right = hi if edges[k + 1] is None else min(edges[k + 1], hi)
        if left <= right:
            cands.append(min(max(v - t * sum(J[:k]), left), right))

    def obj(u):
        return sum(Ji * max(u - bi, 0) for Ji, bi in zip(J, b)) + (u - v) ** 2 / (2 * t)

    return min(cands, key=obj)


@pytest.mark.parametrize("t", [1e-6, 1.0, 1e6])
def test_jump_prox_table_matches_brute_force_scalar_prox(t):
    fns = [
        PiecewiseScalarFn.quadratic(0.5, 0.25),
        kinked([-0.5, 0.25], [0.125, 0.375], [1.0, 1.0, 2.0]),
        # a zero-jump breakpoint (only the curvature changes), then a kink
        kinked([-0.5, 0.5], [0.0, 0.25], [1.0, 2.0, 2.0]),
        # kinks 1e-12 apart: at t = 1e6 their rounded thresholds coincide
        kinked([0.3, 0.3 + 1e-12], [0.125, 0.25], [1.0, 1.0, 1.0]),
    ]
    fns += [fns[1], fns[1]]
    # the last two rows have lo on a kink, and lo == hi on a kink
    lo = np.array([-1.0, -1.0, -2.0, -1.0, -0.5, 0.25])
    hi = np.array([1.0, 1.0, 2.0, 1.0, 1.0, 0.25])
    hpack = SeparablePiecewise(tuple(fns))
    table = hpack.prox_atoms(t, lo, hi)
    for j, fn in enumerate(fns):
        b, S = fn.breakpoints, hpack.jump_sum[j]
        sticky = [(b[i] + t * S[i], b[i] + t * S[i + 1], b[i]) for i in range(b.size)]
        # v at or below lo + t S sticks at lo, at or above hi + t S at hi
        faces = [lo[j] + t * S[bisect.bisect_right(b, lo[j])], hi[j] + t * S[bisect.bisect_left(b, hi[j])]]
        ends = [s for start, end, _ in sticky for s in (start, end)] + faces
        values = [-3.0, 0.0, 3.0] + [x for s in ends
                                     for x in (np.nextafter(s, -np.inf), s, np.nextafter(s, np.inf))]
        values += [0.5 * (start + end) for start, end, _ in sticky]
        scale = max(abs(x) for x in values) + t * S[b.size] + 1.0
        for x in values:
            v = np.zeros(len(fns))
            v[j] = x
            u = atom_argmin(table, v)[j]
            exact = _jump_prox_exact(fn, x, t, lo[j], hi[j])
            assert abs(Fraction(u) - exact) <= 8 * np.spacing(scale), (j, x, u, float(exact))
            # on a closed sticking interval, the first one when rounding makes
            # two of them touch, the prox is the breakpoint itself
            stuck = [bi for start, end, bi in sticky if start <= x <= end]
            if stuck:
                assert u == min(max(stuck[0], lo[j]), hi[j]), (j, x, u)


def test_step_from_kink_pinned_equilibrium_stays_on_the_kink():
    # random instances whose y* has two coordinates pinned at kinks of h
    for seed in (6, 14):
        P = random_problem(np.random.default_rng(seed), max_dim=5)
        eq = equilibrium_oracle(P)
        pinned = [j for j in range(P.m) if np.any(P.h[j].breakpoints == eq.y_star[j])]
        assert len(pinned) == 2
        for tau in (1.0, 5.0):
            cfg = IntegratorConfig(dt=2e-3, tau=tau, t_end=2e-3, stop_tol=0.0)
            traj = integrate(P, State(eq.y_star, eq.lambda_star), cfg)
            assert len(traj) == 2
            assert np.array_equal(traj.y[1, pinned], eq.y_star[pinned])


def _reference_forward(P, dt):
    """v = y + dt (target - d(y)), the point that _reference_stepper hands to its prox."""
    coords = []
    for fn in P.h:
        b = fn.breakpoints.tolist()
        c2, q = (2.0 * fn.coeffs[:, 0]).tolist(), fn.coeffs[:, 1].tolist()
        jumps = [max((c2[i + 1] * b[i] + q[i + 1]) - (c2[i] * b[i] + q[i]), 0.0)
                 for i in range(len(b))]
        coords.append((b, c2, q, [0.0] + np.cumsum(jumps).tolist()))

    def forward(y, lam):
        target = (-(P.Bt @ lam)).tolist()
        v = np.empty_like(y)
        for j, (b, c2, q, S) in enumerate(coords):
            yj = float(y[j])
            k = bisect.bisect_left(b, yj)
            v[j] = yj + dt * (target[j] - (c2[k] * yj + (q[k] - S[k])))
        return v

    return forward


def _reference_rows(P, y0, lam0, dt, steps, every):
    """(t, y, lam, drift_norm, lands) of a loop of the reference step, recorded like integrate."""
    reference_step, edges = _reference_stepper(P, dt), _edges(P)
    rows = []
    y, lam = y0, lam0
    for k in range(steps + 1):
        _, dlam = rhs(P, State(y, lam), 1.0)
        y_next = reference_step(y, lam)
        dy = y_next - y
        if k % every == 0 or k == steps:
            rows.append((k * dt, y, lam,
                         math.sqrt(float(dy @ dy) / (dt * dt) + float(dlam @ dlam)),
                         _lands(edges, y, y_next)))
        y, lam = y_next, lam + dt * dlam
    return tuple(np.array(c) for c in zip(*rows))


def _mode_problem(mode, h, C):
    """p = m <= 2 and B = -I, so the subgradient target is +lam, in the given inner mode."""
    p = len(h)
    H = np.array([[2.0, 0.5], [0.5, 1.0]]) if mode == "box_dense" else np.diag([1.0, 2.0])
    X = BoxSet.free(2) if mode == "free" else BoxSet.box([-2.0, -2.0], [2.0, 2.0])
    P = build_problem(QuadraticSmoothFn(H, np.zeros(2)), h, np.array([[1.0, 0.5], [0.2, 1.0]])[:p],
                      -np.eye(p), np.array(C), X, BoxSet.box(-np.ones(p), np.ones(p)))
    assert P.inner_mode == mode
    return P


def _thresholds(P, dt):
    """Thresholds of the prox atoms of h over Omega, one column per coordinate.

    The edges of the table are their predecessor floats. With K kinks
    inside Omega_j, column j holds one ulp above the sticking interval
    (-inf, lo + dt S] of lo, the ends of each kink's closed sticking
    interval, the second one ulp up, then the start of hi's [hi + dt S, inf);
    the rest is +inf padding.
    """
    return np.nextafter(P.hpack.prox_atoms(dt, P.Omega.lo, P.Omega.hi).edgesT, np.inf)


def _mode_changes(P, dt, y, lam):
    """Per step after the first: did some y_j change its piece, did some v_j change its prox atom."""
    forward, thr = _reference_forward(P, dt), _thresholds(P, dt)
    pieces = [[bisect.bisect_left(fn.breakpoints, yk[j]) for j, fn in enumerate(P.h)] for yk in y]
    atoms = [[np.searchsorted(thr[:, j], vj, side="right") for j, vj in enumerate(forward(yk, lk))]
             for yk, lk in zip(y, lam)]
    return tuple(np.any(np.diff(idx, axis=0), axis=1) for idx in (pieces, atoms))


def _landing_lam(P, dt, y0, goal, step):
    """lam0 from which the v of the reference loop at step 0 or 1 is exactly goal (p = 1)."""
    forward, reference_step = _reference_forward(P, dt), _reference_stepper(P, dt)

    def v_at(x):
        y, lam = y0, np.array([x])
        if step:
            _, dlam = rhs(P, State(y, lam), 1.0)
            y, lam = reference_step(y, lam), lam + dt * dlam
        return forward(y, lam)[0]

    lo, hi = -1e3, 1e3   # v grows with lam0
    assert v_at(lo) < goal < v_at(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if v_at(mid) < goal else (lo, mid)
    # rounding makes v monotone in lam0 only roughly: try the floats around the crossing
    below = above = lo
    for _ in range(256):
        for x in (below, above):
            if v_at(x) == goal:
                return np.array([x])
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
    raise AssertionError(f"no lam0 puts v at step {step} on {goal!r}")


def _ulps(x):
    return np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)


def _near_edge(P, dt, y, lam):
    """Does some y_j lie within 4 ulps of a breakpoint, or the reference v_j of a prox-atom threshold?"""
    v, thr = _reference_forward(P, dt)(y, lam), _thresholds(P, dt)
    for j, fn in enumerate(P.h):
        edges = (y[j], fn.breakpoints), (v[j], thr[np.isfinite(thr[:, j]), j])
        if any(np.any(np.abs(x - e) <= 4 * np.abs(np.spacing(e))) for x, e in edges):
            return True
    return False


def _assert_matches_up_to_ties(P, dt, traj, tol):
    """Rows of integrate, one per step, against the reference loop up to ties.

    A row may leave the reference only after a step from a reference state
    whose y or v lies within 4 ulps of an edge of its bracket, a tie that
    rounding breaks the other way; after that step, the rows must match the
    reference loop restarted from integrate's own state.
    """
    steps = len(traj) - 1
    assert np.array_equal(traj.t, np.arange(steps + 1) * dt)
    got = (traj.y, traj.lam, traj.drift_norm)
    scale = _scale(_reference_rows(P, traj.y[0], traj.lam[0], dt, steps, 1)[1:], dt)
    start = 0
    while start <= steps:
        _, ry, rl, *rest = _reference_rows(P, traj.y[start], traj.lam[start], dt, steps - start, 1)
        state, drift = _row_mismatch(P, [a[start:] for a in got], (ry, rl, *rest), scale, tol)
        drift[:-1] |= state[1:]   # a step that leaves the reference, or its residual
        if not drift.any():
            return
        i = int(np.argmax(drift))
        assert _near_edge(P, dt, ry[i], rl[i]), (start + i, traj.y[start + i], traj.lam[start + i])
        start += i + 1


def _edge_runs(mode, dt):
    """(P, y0, lam0, steps) of the runs of test_cached_step_matches_reference_at_bracket_edges.

    - y(0) on a breakpoint and one ulp either side;
    - v at the first step on a prox-atom threshold, of a kink or of a face
      of Omega, and one ulp either side;
    - y landing on the kink at 0.35 from the piece above, after which the
      reference v falls one ulp below the sticking interval, while the
      cached piece above would have kept it inside;
    - v at the second step on the upper threshold of the sticking interval
      at -0.5, which the cached sticking region would have kept;
    - one long run across many pieces and prox atoms.
    """
    # kinks at -0.5 (jump 0.25) and 0.35 (jump 97, where the curvature changes
    # from 1 to 1.1); at 0.35 the left and right pieces give d values that
    # differ by rounding, by several ulp(0.35) / dt
    P = _mode_problem(mode, [kinked([-0.5, 0.35], [0.25, 97.0], [1.0, 1.0, 1.1])], [0.0])
    b_low, b_kink = P.h[0].breakpoints
    # thr[0] and thr[5] are the faces' thresholds; thr[1] and thr[3] start
    # the kinks' sticking intervals, which end one ulp below thr[2] and thr[4]
    thr = _thresholds(P, dt)[:, 0]
    assert thr.size == 6
    runs = [(np.array([y]), np.array([0.1])) for b in (b_low, b_kink) for y in _ulps(b)]
    y0 = np.zeros(1)
    runs += [(y0, _landing_lam(P, dt, y0, v, 0)) for T in thr for v in _ulps(T)]

    forward = _reference_forward(P, dt)
    # the kink at 0.35 from above: y(0) = 0.4 sticks at the kink on the first
    # step, and at the second v lands one ulp below its sticking interval
    y0 = np.array([0.4])
    lam0 = _landing_lam(P, dt, y0, np.nextafter(thr[3], -np.inf), 1)
    _, y, lam, *_ = _reference_rows(P, y0, lam0, dt, 2, 1)
    assert y[1, 0] == b_kink and y[2, 0] != b_kink
    c2_right, q_right = 2.0 * P.h[0].coeffs[2, 0], P.h[0].coeffs[2, 1]
    d_right = c2_right * b_kink + (q_right - P.hpack.jump_sum[0, 2])
    v_right = b_kink + dt * (lam[1, 0] - d_right)   # v with the rows of the piece above
    assert thr[3] <= v_right < thr[4] and forward(y[1], lam[1])[0] < thr[3]
    runs.append((y0, lam0))
    # pinned on the kink at -0.5, v leaves its sticking interval exactly on
    # the upper threshold at the second step
    y0 = np.array([b_low])
    lam0 = _landing_lam(P, dt, y0, thr[2], 1)
    _, y, *_ = _reference_rows(P, y0, lam0, dt, 2, 1)
    assert y[1, 0] == b_low and y[2, 0] != b_low
    runs.append((y0, lam0))

    runs = [(P, y0, lam0, 7) for y0, lam0 in runs]
    # the long run: five and four kinks, from a corner of Omega
    P = _long_run_problem(mode)
    y0, lam0 = np.array([-0.95, 0.95]), np.array([3.0, -3.0])
    _, y, lam, *_ = _reference_rows(P, y0, lam0, dt, 500, 1)
    assert all(np.count_nonzero(c) >= 10 for c in _mode_changes(P, dt, y, lam))
    runs.append((P, y0, lam0, 500))
    return runs


@pytest.mark.parametrize("mode", ["free", "box_diag", "box_dense"])
def test_cached_step_matches_reference_at_bracket_edges(mode):
    # integrate reads the piece of each y_j and the prox atom of each v_j
    # once per mode and steps in that mode while [y, v] stays inside their
    # brackets. The rows must still match the reference loop, which looks
    # both up on every step, up to ties that rounding breaks either way, on
    # the runs of _edge_runs
    dt = 2.0 ** -5
    for P, y0, lam0, steps in _edge_runs(mode, dt):
        cfg = IntegratorConfig(dt=dt, t_end=steps * dt, stop_tol=0.0)
        traj = integrate(P, State(y0, lam0), cfg)
        assert traj.terminated_by is TerminationReason.TIME_LIMIT
        if steps == 500:
            _assert_close_rows(P, traj, _reference_rows(P, y0, lam0, dt, steps, 1), 1e-12)
        else:
            _assert_matches_up_to_ties(P, dt, traj, 1e-12)
        # recording every third step leaves the steps as they are
        cfg = IntegratorConfig(dt=dt, t_end=steps * dt, stop_tol=0.0, record_every=3)
        sub = integrate(P, State(y0, lam0), cfg)
        rows = sorted({*range(0, steps + 1, 3), steps})
        for got, want in zip((sub.t, sub.y, sub.lam, sub.drift_norm),
                             (traj.t, traj.y, traj.lam, traj.drift_norm)):
            assert np.array_equal(got, want[rows])


def _spy_reads(monkeypatch):
    """List that gets the state [y, lam] of every mode read of integrate, each a _reread call."""
    reads, reread = [], dynamics._reread

    def spy_reread(P, dtau, z, *args):
        reads.append(z[:-1].copy())
        return reread(P, dtau, z, *args)

    monkeypatch.setattr(dynamics, "_reread", spy_reread)
    return reads


def _bound_changes(P, dt, y, lam):
    """Per step after the first: does the clip into Omega, does the bound pattern of x*, change?"""
    step = _reference_stepper(P, dt)
    y_next = np.array([step(yk, lk) for yk, lk in zip(y, lam)])
    clip = (y_next == P.Omega.lo).astype(int) - (y_next == P.Omega.hi)
    x = np.array([solve_inner(P, lk).x_star for lk in lam])
    pattern = (x <= P.X.lo).astype(int) - (x >= P.X.hi)
    return tuple(np.any(np.diff(c, axis=0), axis=1) for c in (clip, pattern))


def test_integrate_reads_a_mode_only_where_it_changes(monkeypatch):
    reads = _spy_reads(monkeypatch)
    # from the kink-pinned equilibria of test_step_from_kink_pinned_equilibrium_stays_on_the_kink,
    # one read serves all 500 steps
    for seed in (6, 14):
        P = random_problem(np.random.default_rng(seed), max_dim=5)
        eq = equilibrium_oracle(P)
        for tau in (1.0, 5.0):
            reads.clear()
            cfg = IntegratorConfig(dt=2e-3, tau=tau, t_end=1.0, stop_tol=0.0)
            assert len(integrate(P, State(eq.y_star, eq.lambda_star), cfg)) == 501
            assert len(reads) == 1
    # on a random instance: the first step, then once per step at which some
    # y_j changes its piece, some v_j its prox atom, some y+_j its clip
    # into Omega or x*(lam) its bound pattern
    rng = np.random.default_rng(20240811)
    P = random_problem(rng)
    cfg = IntegratorConfig(dt=2e-3, t_end=60.0, stop_tol=1e-8)
    reads.clear()
    traj = integrate(P, State(rng.uniform(P.Omega.lo, P.Omega.hi), np.zeros(P.p)), cfg)
    piece, region = _mode_changes(P, cfg.dt, traj.y, traj.lam)
    clip, pattern = _bound_changes(P, cfg.dt, traj.y, traj.lam)
    assert np.count_nonzero(piece) >= 3 and np.count_nonzero(region) >= 3
    assert len(reads) <= np.count_nonzero(piece | region | clip | pattern) + 1


def test_a_mode_read_always_advances_a_step(monkeypatch):
    # the mode read at a state is the mode of the step from it, so that step
    # is taken as read and the next read is at a later state, also where
    # rounding ties a value to an edge: the diverging run of
    # test_diverging_multiplier_raises_non_finite_state, and the runs of
    # test_cached_step_matches_reference_at_bracket_edges
    reads = _spy_reads(monkeypatch)
    P = build_problem(QuadraticSmoothFn(np.eye(1), np.zeros(1)), [PiecewiseScalarFn.quadratic(0.5)],
                      np.eye(1), np.eye(1), np.full(1, 0.5), BoxSet.box([-2.0], [2.0]),
                      BoxSet.box([-1.0], [1.0]))
    with pytest.raises(NonFiniteState, match="recorded lam left"):
        integrate(P, State(np.zeros(1), np.zeros(1)),
                  IntegratorConfig(dt=1e300, t_end=40e300, stop_tol=0.0))
    assert 0 < len(reads) <= 40
    assert not any(np.array_equal(a, b) for a, b in zip(reads, reads[1:]))
    dt = 2.0 ** -5
    for mode in ("free", "box_diag", "box_dense"):
        for P, y0, lam0, steps in _edge_runs(mode, dt):
            reads.clear()
            integrate(P, State(y0, lam0), IntegratorConfig(dt=dt, t_end=steps * dt, stop_tol=0.0))
            assert 0 < len(reads) <= steps
            assert not any(np.array_equal(a, b) for a, b in zip(reads, reads[1:])), (mode, y0, lam0)


def _long_run_problem(mode):
    """The long run of test_cached_step_matches_reference_at_bracket_edges: five and four kinks."""
    h = [kinked([-0.6, -0.3, 0.0, 0.3, 0.6], [0.05, 0.1, 0.05, 0.1, 0.05],
                [1.0, 1.5, 0.8, 1.2, 1.0, 1.4]),
         kinked([-0.45, -0.15, 0.15, 0.45], [0.1, 0.05, 0.1, 0.05], [1.2, 0.8, 1.0, 1.5, 1.0])]
    return _mode_problem(mode, h, [0.3, -0.2])


def _spy_blocks(monkeypatch):
    """List that gets the first state [y, lam] and the size of every block of integrate.

    A block is a _states call, the first after a mode read, or a _next_states
    call, one that continues the block before it.
    """
    blocks, states, next_states = [], dynamics._states, dynamics._next_states

    def spy_states(squares, z, size):
        blocks.append((z[:-1].copy(), size))
        return states(squares, z, size)

    def spy_next_states(S, power, size):
        out = next_states(S, power, size)
        blocks.append((out[0, :-1].copy(), size))
        return out

    monkeypatch.setattr(dynamics, "_states", spy_states)
    monkeypatch.setattr(dynamics, "_next_states", spy_next_states)
    return blocks


def test_block_edges_match_reference(monkeypatch):
    # integrate takes the steps of one mode in blocks of BLOCK_STEPS steps,
    # twice that, and so on up to RUN_STEPS steps. Against the reference
    # loop: a mode that changes on the first step of a block and on the
    # last, at the end of the first block, of each doubled one and of the
    # first at the cap, and on the edge between two blocks at the cap;
    # stop_tol met on either end of a block and inside one; a t_end in
    # mid-block; a single step that leaves the mode; with every step
    # recorded and every 3rd and 7th, which do not divide the block sizes
    K, cap = dynamics.BLOCK_STEPS, dynamics.RUN_STEPS
    P = _long_run_problem("free")
    # N_z = 5 and 10 rows: every block up to RUN_STEPS steps stays below RUN_PRODUCT
    assert 5 * 10 * cap <= dynamics.RUN_PRODUCT
    # the blocks of a mode read at step 0 end at K, 3K, 7K, then the cap of
    # 8K steps is reached: ends[3] ends the first block at the cap and
    # ends[4] the second
    sizes = [min(K << i, cap) for i in range(8)]
    ends = np.cumsum(sizes).tolist()
    assert ends[:5] == [K, 3 * K, 7 * K, 15 * K, 23 * K] and sizes[3] == sizes[4] == cap

    def reference(dt, steps):
        """The reference rows from a corner of Omega and the steps that change the mode."""
        rows = _reference_rows(P, np.array([-0.95, 0.95]), np.array([3.0, -3.0]), dt, steps, 1)
        return rows[1:], np.flatnonzero(np.logical_or(*_mode_changes(P, dt, *rows[1:3]))) + 1

    # at dt = 2^-9 a step ends more than ends[4] + 37 steps in one mode
    long_dt = 2.0 ** -9
    long_run, change = reference(long_dt, 6700)
    gaps = np.diff(change)
    c = change[np.argmax(gaps) + 1]
    assert gaps.max() > ends[4] + 37 and c + 37 <= 6700
    # at dt = 2^-7, a stretch with no more mode changes and a falling
    # residual (at dt = 2^-9 the residual there is so small that ulp(y) / dt
    # passes 1e-12 of its largest value: rows would miss by rounding alone)
    quiet_dt = 2.0 ** -7
    quiet_run, change = reference(quiet_dt, 4800)
    quiet = change[-1] + 1
    y, drift = quiet_run[0], quiet_run[2]
    assert quiet + ends[3] + 300 <= 4800 and np.all(np.diff(drift[quiet:]) < 0)
    assert np.all((P.Omega.lo < y[quiet:]) & (y[quiet:] < P.Omega.hi))

    reads, blocks = _spy_reads(monkeypatch), _spy_blocks(monkeypatch)
    # (reference run, start row, steps to t_end, stop_tol, the last step,
    # the first steps that read the mode)
    long_ref, quiet_ref = (long_run, long_dt), (quiet_run, quiet_dt)
    cases = [(long_ref, c - 1, 1, 0.0, 1, [0, 1])]   # one step, and it leaves the mode
    for E in ends[:4]:   # the first block, the doubled ones, the first at the cap
        cases += [(long_ref, c - E, E + 24, 0.0, E + 24, [0, E]),  # the first step of a block
                  (long_ref, c - E + 1, E + 24, 0.0, E + 24, [0, E - 1]),  # the last step of one
                  (long_ref, c - E, E + 37, 0.0, E + 37, [0, E])]  # t_end in mid-block
    # the edge between the first two blocks at the cap
    cases.append((long_ref, c - ends[4], ends[4] + 24, 0.0, ends[4] + 24, [0, ends[4]]))
    # stop_tol met on the first step of a block and on the last, on the
    # edge between the first two blocks at the cap and off the edges inside one
    for j in (ends[0], ends[0] - 1, ends[1], ends[1] - 1, ends[2], ends[3] - 1,
              ends[3], ends[3] + 37):
        stop_tol = 0.5 * (drift[quiet + j - 1] + drift[quiet + j])
        cases.append((quiet_ref, quiet, ends[4], stop_tol, j, [0]))
    cases.append((quiet_ref, quiet, ends[3] + 300, 0.0, ends[3] + 300, [0]))   # t_end mid-block
    for (run, dt), start, steps, stop_tol, last, read_at in cases:
        y0, lam0 = run[0][start], run[1][start]
        want = (np.arange(last + 1) * dt, *(a[start:start + last + 1] for a in run))
        for every in (1, 3, 7):
            reads.clear()
            blocks.clear()
            cfg = IntegratorConfig(dt=dt, t_end=steps * dt, stop_tol=stop_tol, record_every=every)
            traj = integrate(P, State(y0, lam0), cfg)
            assert traj.terminated_by is (TerminationReason.STOP_TOL if stop_tol
                                          else TerminationReason.TIME_LIMIT)
            rows = sorted({*range(0, last + 1, every), last})
            _assert_close_rows(P, traj, tuple(a[rows] for a in want), 1e-12)
            if every == 1:
                states = np.hstack([traj.y, traj.lam])
                at = [int(np.flatnonzero((states == r).all(axis=1))[0]) for r in reads]
                assert at[:len(read_at)] == read_at, (start, steps, at)
            if run is quiet_run:   # one mode: its blocks double from K steps up to the cap,
                # and the last takes only the steps left to t_end
                want_sizes = [min(size, steps - k + 1) for size, k in zip(sizes, [0] + ends)]
                assert [size for _, size in blocks] == want_sizes[:sum(e <= last for e in ends) + 1]


def _box_dense_draws():
    """(P, y0, lam0) of test_box_dense_steps_match_reference_with_kinks.

    box_dense solves built like the boxed_dense benchmark: random_problem
    data with X = [-1, 1]^n and H dense, kinks kept, from starts with y_1 on
    a face of Omega and another y_j on a breakpoint.
    """
    rng = np.random.default_rng(31)
    for _ in range(30):
        R = random_problem(rng, max_dim=6)
        P = build_problem(R.f, R.h, R.A, R.B, R.C, BoxSet.box(-np.ones(R.n), np.ones(R.n)), R.Omega)
        assert P.inner_mode == "box_dense"
        lam0 = rng.normal(size=P.p)
        y0 = _on_a_face(P, rng.uniform(P.Omega.lo, P.Omega.hi), lam0)
        with_kinks = [j for j, fn in enumerate(P.h[1:], 1) if fn.breakpoints.size]
        if with_kinks:
            y0[with_kinks[0]] = P.h[with_kinks[0]].breakpoints[0]
        yield P, y0, lam0


def test_box_dense_steps_match_reference_with_kinks():
    # on the draws of _box_dense_draws. The active-set solve is exact only to
    # KKT_TOL, so rows agree to 1e-9; some x*(lam) must change its active
    # pattern along the way
    dt, steps = 2.0 ** -8, 300
    cfg = IntegratorConfig(dt=dt, t_end=steps * dt, stop_tol=0.0, record_every=7)
    pattern_changes = 0
    for P, y0, lam0 in _box_dense_draws():
        traj = integrate(P, State(y0, lam0), cfg)
        want = _reference_rows(P, y0, lam0, dt, steps, 1)
        assert traj.terminated_by is TerminationReason.TIME_LIMIT
        rows = sorted({*range(0, steps + 1, 7), steps})
        _assert_close_rows(P, traj, tuple(a[rows] for a in want), 1e-9)
        x = np.array([solve_inner(P, lam).x_star for lam in want[2]])
        pattern = (x <= P.X.lo).astype(int) - (x >= P.X.hi)
        pattern_changes += np.count_nonzero(np.any(np.diff(pattern, axis=0), axis=1))
    assert pattern_changes >= 1


def test_box_dense_mode_at_a_weakly_active_bound_is_read_once(monkeypatch, weakly_active_box_dense):
    # x*(lam*) = (-1, 0.3) has x_1 on its lower bound with a zero multiplier,
    # so near lam* the multiplier that _box_dense_minimizer accepts has either
    # sign up to roundoff; the steps after a mode read there must pass its
    # rows, or every step reads the mode again
    P = weakly_active_box_dense
    y_star, lam_star = np.array([-0.2]), np.array([0.2])
    assert P.inner_mode == "box_dense"
    reads = _spy_reads(monkeypatch)
    dt, steps = 2.0 ** -10, 2000
    cfg = IntegratorConfig(dt=dt, t_end=steps * dt, stop_tol=0.0, record_every=7)
    rows = sorted({*range(0, steps + 1, 7), steps})
    for dy, dlam in [(0.0, 0.0), (0.0, 1e-12), (0.0, -1e-12), (1e-3, 0.0), (-1e-3, 0.0)]:
        y0, lam0 = y_star + dy, lam_star + dlam
        reads.clear()
        traj = integrate(P, State(y0, lam0), cfg)
        assert len(reads) <= 2, (dy, dlam, len(reads))
        if dy:   # from lam* itself every residual is roundoff and has no scale
            want = _reference_rows(P, y0, lam0, dt, steps, 1)
            _assert_close_rows(P, traj, tuple(a[rows] for a in want), 1e-9)


def _piece_owned(P, rows):
    """Copies of the rows of the mode buffers rows that the piece of x* owns: L, T, D and T's brackets."""
    M, F, lower, upper, _ = rows
    m, nb = P.m, lower.size
    return tuple(a.copy() for a in (M[m:-1], F[2 * m:nb], F[nb + m:], lower[2 * m:], upper[2 * m:]))


def _spy_pieces(monkeypatch):
    """Lists that get (z, piece-owned rows) after each mode read of integrate, and lam of each x_star_piece."""
    taken, fresh = [], []
    reread, piece_of = dynamics._reread, dynamics.x_star_piece

    def spy_reread(P, dtau, z, *args):
        rows, piece = reread(P, dtau, z, *args)
        taken.append((z.copy(), _piece_owned(P, rows)))
        return rows, piece

    def spy_piece(P, lam, start=None):
        fresh.append(lam.copy())
        return piece_of(P, lam, start)

    monkeypatch.setattr(dynamics, "_reread", spy_reread)
    monkeypatch.setattr(dynamics, "x_star_piece", spy_piece)
    return taken, fresh


def test_a_mode_read_keeps_the_piece_of_x_star_while_its_rows_hold(monkeypatch,
                                                                    weakly_active_box_dense):
    # a read takes the piece of x* of the mode before it where that piece's
    # rows pass at the step that left the mode. The rows the piece owns in
    # the mode buffers (L, T, D and T's brackets, copied after each read)
    # must be those a fresh _piece_rows writes there, bit for bit; where a
    # fresh solve picks another pattern at a weakly active bound, the piece
    # taken must still pass its own rows within KKT_TOL
    taken, fresh = _spy_pieces(monkeypatch)
    # a free X has no rows to fail: one piece serves every read
    P = _long_run_problem("free")
    dt = 2.0 ** -5
    integrate(P, State(np.array([-0.95, 0.95]), np.array([3.0, -3.0])),
              IntegratorConfig(dt=dt, t_end=500 * dt, stop_tol=0.0))
    assert len(taken) >= 10 and len(fresh) == 1

    def runs():
        cfg = IntegratorConfig(dt=2.0 ** -8, t_end=300 * 2.0 ** -8, stop_tol=0.0)
        for P, y0, lam0 in _box_dense_draws():
            yield P, y0, lam0, cfg
        P, cfg = weakly_active_box_dense, IntegratorConfig(dt=2.0 ** -10, t_end=2.0, stop_tol=0.0)
        for dy, dlam in [(0.0, 0.0), (0.0, 1e-12), (0.0, -1e-12), (1e-3, 0.0), (-1e-3, 0.0)]:
            yield P, np.array([-0.2 + dy]), np.array([0.2 + dlam]), cfg

    reused = 0
    for P, y0, lam0, cfg in runs():
        taken.clear()
        fresh.clear()
        integrate(P, State(y0, lam0), cfg)
        reused += len(taken) - len(fresh)
        for z, piece in taken:
            want = _piece_owned(P, dynamics._piece_rows(P, cfg.dt * cfg.tau, z[P.m:-1])[0])
            if not all(np.array_equal(a, b) for a, b in zip(piece, want)):
                _, T, _, lower, upper = piece
                rows = T @ z
                assert np.all((lower - KKT_TOL < rows) & (rows <= upper + KKT_TOL)), z
    assert reused >= 30


def _vstack_piece_rows(P, dtau, lam):
    """The piece of x*(lam) as rows (L, D, T, lower, upper), each assembled afresh.

    The reference for the mode buffers of _piece_rows: lam+ = L z and
    dlam = D z in the piece, which holds while lower < T z <= upper.
    """
    m = P.m
    x0, X1, T0, T1, lower, upper, _ = x_star_piece(P, lam)
    D = np.hstack([P.B, P.A @ X1, (P.A @ x0 - P.C)[:, None]])
    L = dtau * D
    L[:, m:-1] += np.eye(P.p)
    T = np.hstack([np.zeros((T0.size, m)), T1, T0[:, None]])
    return L, D, T, lower, upper


def _vstack_step_map(P, dtau, z, pieces, atoms, piece):
    """The mode of the step from z as fresh (M, F, lower, upper), stacked from its blocks.

    The reference for the mode buffers after a read, which hold the same
    values; piece is _vstack_piece_rows of the piece in the buffers.
    """
    m, p = P.m, P.p
    c2, qd, _, ylo, yhi = pieces.rows(z[:m])
    V = np.empty((m, m + p + 1))
    V[:, :m] = np.diag(1.0 - dtau * c2)
    V[:, m:-1] = -dtau * P.Bt
    V[:, -1] = -dtau * qd
    left, right, _, q, vlo, vhi = atoms.rows(V.dot(z))
    point = left == right   # y+_j on a kink or a bound of Omega
    Y = np.where(point[:, None], 0.0, V)
    Y[:, -1] = np.where(point, left, V[:, -1] - q)
    L, D, T, tlo, thi = piece
    M = np.vstack([Y, L, np.eye(1, m + p + 1, m + p)])
    I_y = np.eye(m, m + p + 1)
    F = np.vstack([I_y, V, T, Y - I_y, D])
    return M, F, np.concatenate([ylo, vlo, tlo]), np.concatenate([yhi, vhi, thi])


def test_mode_buffers_match_stacked_assembly(monkeypatch, benchmark_runs, weakly_active_box_dense,
                                            short_mode_draw):
    # the first read of a run writes its mode into buffers that every later
    # read rewrites where the mode changed: the piece of x* where a row of T
    # failed, the rows of each coordinate whose y or v row failed. A copy
    # of M, F and the brackets taken after every read, full, coordinate or
    # piece-only, must equal the fresh stacked assembly at the same state and
    # at a fresh piece of x*, solved from the clamp at the lam of the piece
    # read, bit for bit. A piece-only re-read looks nothing up in a table
    reads, piece_lams, lookups = [], [], [0]
    reread, piece_rows = dynamics._reread, dynamics._piece_rows
    index, step = PieceTable.index, PieceTable.step

    def spy_piece_rows(P, dtau, lam, *args):
        piece_lams.append(lam.copy())
        return piece_rows(P, dtau, lam, *args)

    def spy_reread(P, dtau, z, pieces, atoms, rows, piece, failed):
        before = lookups[0]
        rows, piece = reread(P, dtau, z, pieces, atoms, rows, piece, failed)
        if not reads:   # the first read of a run rewrites every y and v row
            assert failed[:2 * P.m].all() and not failed[2 * P.m:].any()
        kind = "full" if not reads else "coordinate" if failed[:2 * P.m].any() else "piece"
        assert kind != "piece" or lookups[0] == before
        reads.append((kind, z.copy(), piece_lams[-1], pieces, atoms, tuple(a.copy() for a in rows[:4])))
        return rows, piece

    def counted(lookup):
        def spy(*args):
            lookups[0] += 1
            return lookup(*args)
        return spy

    monkeypatch.setattr(dynamics, "_piece_rows", spy_piece_rows)
    monkeypatch.setattr(dynamics, "_reread", spy_reread)
    monkeypatch.setattr(PieceTable, "index", counted(index))
    monkeypatch.setattr(PieceTable, "step", counted(step))

    def runs():
        yield from benchmark_runs
        P, cfg = weakly_active_box_dense, IntegratorConfig(dt=2.0 ** -10, t_end=2.0, stop_tol=0.0)
        for dy in (0.0, 1e-3, -1e-3):
            yield "weakly_active", P, np.array([-0.2 + dy]), np.array([0.2]), cfg
        yield "short_mode", *short_mode_draw, IntegratorConfig(dt=2e-3, t_end=0.6, stop_tol=0.0)

    kinds = ("full", "coordinate", "piece")
    counts = {}   # per run: reads of each kind, then reads with a y+_j on a nonzero point
    piece_reads = 0
    for run, P, y0, lam0, cfg in runs():
        reads.clear()
        piece_lams.clear()
        integrate(P, State(y0, lam0), cfg)
        piece_reads += len(piece_lams)
        dtau = cfg.dt * cfg.tau
        tally = counts.setdefault(run, np.zeros(4, dtype=int))
        for kind, z, lam, pieces, atoms, got in reads:
            want = _vstack_step_map(P, dtau, z, pieces, atoms, _vstack_piece_rows(P, dtau, lam))
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (run, kind, z)
            tally[kinds.index(kind)] += 1
            Y = got[0][:P.m]   # a y+_j on a point has a row of zeros but for the point
            tally[3] += np.any((Y[:, :-1] == 0.0).all(axis=1) & (Y[:, -1] != 0.0))
    # one full read per run; 84 re-reads per boxed_dense job
    assert counts["boxed_dense"][:3].tolist() == [9, 73, 11], counts
    assert counts["random_campaign"][0] == 7 and counts["certify_files"][0] == 5, counts
    assert sum(c[1] for c in counts.values()) >= 300, counts
    assert counts["short_mode"][1] >= 200 and sum(c[3] for c in counts.values()) >= 5, counts
    assert piece_reads >= 25, piece_reads   # 37


def test_early_stop_allocates_nothing_in_proportion_to_t_end():
    # 1e15 steps to t_end: sample buffers sized for them could not be allocated
    P = boundary_equilibrium_problem()
    traj = integrate(P, State(np.array([1.0]), np.array([-2.0])),
                     IntegratorConfig(dt=1e-6, t_end=1e9))
    assert traj.terminated_by is TerminationReason.STOP_TOL
    assert len(traj) == 1


@pytest.mark.parametrize("every", [1, 7])
def test_sample_buffer_growth_keeps_the_samples(every, benchmark_runs, monkeypatch):
    # a first sample buffer of three rows grows on nearly every block; the
    # samples must be the bits the default buffer records, column-major, and
    # a run to t_end, which fills its buffer, returns it without a copy
    runs = [(benchmark_runs[0], TerminationReason.STOP_TOL),     # random_campaign
            (benchmark_runs[7], TerminationReason.TIME_LIMIT)]   # boxed_dense
    for (_, P, y0, lam0, cfg), reason in runs:
        cfg = dataclasses.replace(cfg, record_every=every)
        want = integrate(P, State(y0, lam0), cfg)
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "RECORD_BLOCK", 3 * 8 * (P.m + P.p))
            got = integrate(P, State(y0, lam0), cfg)
        assert got.terminated_by is want.terminated_by is reason
        assert len(got) > 100
        for name in ("t", "y", "lam", "drift_norm"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        for traj in (got, want):
            assert traj.y.flags.f_contiguous and traj.lam.flags.f_contiguous
            views = traj.y.base is not None and traj.y.base is traj.lam.base
            assert views == (reason is TerminationReason.TIME_LIMIT)


def _draw_with_n_z_60():
    """The first random_problem(default_rng(5), max_dim=40) draw with N_z = m + p + 1 >= 60."""
    rng = np.random.default_rng(5)
    P = random_problem(rng, max_dim=40)
    while P.m + P.p + 1 < 60:
        P = random_problem(rng, max_dim=40)
    return P


def test_integrate_memory_stays_near_its_samples(case_problem):
    # the sample buffers grow by doubling, to the samples of a run to t_end,
    # and the Trajectory gets them or trimmed copies of them, so the peak
    # stays within three times the returned samples, plus
    # what one mode's tables and one block take: the case-study feeder
    # (N_z = 15) at the CLI defaults runs 50,000 steps to t_end, and the
    # draw of _draw_with_n_z_60 (n 40, m 33, p 26) 1000 steps
    runs = [(case_problem, IntegratorConfig(dt=1e-3, t_end=50.0, stop_tol=1e-8), 50_001),
            (_draw_with_n_z_60(), IntegratorConfig(dt=2e-3, t_end=2.0), 1001)]
    for P, cfg, rows in runs:
        s0 = State(np.zeros(P.m), np.zeros(P.p))
        tracemalloc.start()
        try:
            traj = integrate(P, s0, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj) == rows
        samples = sum(a.nbytes for a in (traj.t, traj.y, traj.lam, traj.drift_norm))
        assert peak <= 3 * samples + 2 ** 20, (P.m + P.p + 1, peak, samples)


_PEAK_RSS_RUN = """
import resource
import numpy as np
from ppdgd import IntegratorConfig, State, integrate
from ppdgd.random_problems import random_problem
rng = np.random.default_rng([20240811, 2])
for _ in range(4):   # certify_files' problem_04 of perfbench
    P = random_problem(rng, free_x=True)
s0 = State(np.zeros(P.m), np.zeros(P.p))
integrate(P, s0, IntegratorConfig(dt=1e-3, t_end=0.5))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
traj = integrate(P, s0, IntegratorConfig(dt=1e-3, t_end=5000.0))
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(after - before, len(traj), traj.terminated_by.value)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KB, as Linux gives it")
def test_early_stop_peak_rss_stays_near_its_samples():
    # numpy asks the kernel for huge pages on arrays of 4 MB and more, so under
    # transparent huge pages set to madvise, touching the start of each column
    # of a first sample buffer of 2^20 rows (75 MB) faults in 2 MB: its 9
    # columns raised the peak by 38 MB. A first buffer capped at RECORD_BLOCK
    # bytes raises it by 3 MB, and one of 4,096 rows by 4 MB, for the 17,696
    # samples this run keeps (1.4 MB)
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_RUN], capture_output=True,
                          text=True, timeout=120, env=subprocess_env(), check=True)
    rise_kb, samples, reason = proc.stdout.split()
    assert (int(samples), reason) == (17_696, "stop_tol")
    assert int(rise_kb) <= 10 * 1024, proc.stdout


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


def _per_value_csv(header, columns) -> bytes:
    """Reference writer: one f-string per value, one row at a time."""
    lines = [",".join(header)]
    for k in range(len(columns[0])):
        row = [v for c in columns for v in np.atleast_1d(c[k])]
        lines.append(",".join(f"{v:.17g}" for v in row))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("rows", [1, export.BLOCK_VALUES // 6 + 1,
                                  export.BLOCK_VALUES, export.BLOCK_VALUES + 1])
def test_csv_writers_match_per_value_formatting(tmp_path, rows):
    rng = np.random.default_rng(rows)
    data = rng.normal(size=(rows, 6)) * 10.0 ** rng.integers(-300, 300, size=(rows, 6))
    # values whose text is easy to get wrong, in the first and in the last row
    edge = [-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2]
    data[0, :4] = edge
    data[-1, 2:] = edge
    traj = Trajectory(t=data[:, 0], y=data[:, 1:3], lam=data[:, 3:5], drift_norm=data[:, 5],
                      config=IntegratorConfig(), terminated_by=TerminationReason.TIME_LIMIT)
    traj.write_csv(tmp_path / "trajectory.csv")
    assert (tmp_path / "trajectory.csv").read_bytes() == _per_value_csv(
        ["t", "y_1", "y_2", "lambda_1", "lambda_2", "drift_norm"],
        [traj.t, traj.y, traj.lam, traj.drift_norm])
    write_envelope_csv(tmp_path / "envelope.csv", data[:, 0], data[:, 1], data[:, 2])
    assert (tmp_path / "envelope.csv").read_bytes() == _per_value_csv(
        ["t", "bound", "distance"], [data[:, 0], data[:, 1], data[:, 2]])


def _hard_values():
    """Values whose %.17g text a vectorized writer can get wrong, and their negatives."""
    powers = [float(f"1e{k}") for k in range(-308, 309)]
    near = [math.nextafter(x, to) for x in powers for to in (0.0, math.inf)]
    # at the 17th digit these 18-digit values are exact ties: ...958.75 -> ...958.8
    rng = np.random.default_rng(0)
    ties = [float(m) + f for m in rng.integers(10**15, 2**50, size=50) for f in (0.25, 0.75)]
    ties.append(1458020683536958.75)
    rest = [
        9.99999999999999999e-05, 0.0001, 1e-5, 1e16, 1e17,   # %g's fixed/scientific switches
        2.0**53 + 2, 2.0**60, 2.0**63, 2.0**64, 123456789012345678.0,   # integers above 2^53
        5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,   # subnormals, least normal
        1e-280, 1e280, 1.7976931348623157e308, 0.1 + 0.2,
        0.0, math.inf, math.nan,
    ]
    values = np.array(powers + near + ties + rest)
    return np.concatenate([values, -values])


@pytest.mark.parametrize("ncols", [1, 3])
def test_csv_writer_hard_cases(tmp_path, ncols):
    v = _hard_values()
    data = np.resize(v, (-(-v.size // ncols), ncols))
    header = [f"c{j}" for j in range(ncols)]
    export.write_csv(tmp_path / "hard.csv", header, (data,))
    assert (tmp_path / "hard.csv").read_bytes() == _per_value_csv(header, [data])


def _layout_value(rng, exponents, kept):
    """A double whose '%.17g' text has one of the decimal exponents given and
    kept digits after the first one up to its last nonzero digit, and which
    is no near-tie at the 17th digit (the writer leaves those to Python)."""
    for _ in range(10_000):
        E = rng.choice(exponents)
        tail = rng.integers(0, 10, size=kept)
        tail[-1:] = rng.integers(1, 10)   # the last digit kept is nonzero
        digits = f"{rng.integers(1, 10)}." + "".join(map(str, tail))
        x = float(f"{digits}e{E}")
        if "%.16e" % x == f"{digits}{'0' * (16 - kept)}e{E:+03d}" \
                and not export._digits(np.array([x]))[2][0]:
            return x
    raise AssertionError(f"no value with {kept} digits kept at an exponent in {exponents}")


def test_csv_writer_matches_python_on_every_layout(tmp_path):
    # one value per layout class of the writer: each sign, each exponent of
    # fixed notation (-4 .. 16) and both scientific classes (two or three
    # exponent digits), each count of digits kept after the first (0 .. 16);
    # fixed 1 <= E <= 15 puts the '.' among the digits at every position
    rng = np.random.default_rng(11)
    classes = [[E] for E in range(-4, 17)]
    classes += [[*range(-99, -4), *range(17, 100)], [*range(-280, -99), *range(100, 280)]]
    values = np.array([_layout_value(rng, exponents, kept)
                       for exponents in classes for kept in range(17)])
    values = np.concatenate([values, -values])
    for ncols in (1, 3):
        data = np.resize(values, (-(-values.size // ncols), ncols))
        header = [f"c{j}" for j in range(ncols)]
        export.write_csv(tmp_path / "layouts.csv", header, (data,))
        assert (tmp_path / "layouts.csv").read_bytes() == _per_value_csv(header, [data])


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200),
       ncols=st.integers(1, 4))
def test_csv_writer_matches_python_on_raw_bit_patterns(tmp_path_factory, bits, ncols):
    v = np.array(bits, dtype=np.uint64).view(np.float64)
    data = np.resize(v, (-(-v.size // ncols), ncols))
    header = [f"c{j}" for j in range(ncols)]
    path = tmp_path_factory.mktemp("bits") / "bits.csv"
    export.write_csv(path, header, (data,))
    assert path.read_bytes() == _per_value_csv(header, [data])


@pytest.fixture(scope="module")
def case_trajectory(case_problem):
    """The case-study feeder at the CLI defaults: 50,001 samples."""
    cfg = IntegratorConfig(dt=1e-3, t_end=50.0, stop_tol=1e-8)
    return integrate(case_problem, State(np.zeros(case_problem.m), np.zeros(case_problem.p)), cfg)


def test_csv_writer_formats_nearly_every_case_study_value_itself(case_trajectory):
    # the values left to Python's '%' keep the bytes right but cost the speed
    traj = case_trajectory
    values = np.column_stack([traj.t, traj.y, traj.lam, traj.drift_norm]).ravel()
    _, _, slow = export._digits(values)
    assert np.mean(slow) <= 1e-3


def test_case_study_csvs_match_per_value_formatting(tmp_path, case_problem, case_trajectory):
    traj = case_trajectory
    traj.write_csv(tmp_path / "trajectory.csv")
    assert (tmp_path / "trajectory.csv").read_bytes() == _per_value_csv(
        ["t"] + [f"y_{i + 1}" for i in range(case_problem.m)]
        + [f"lambda_{j + 1}" for j in range(case_problem.p)] + ["drift_norm"],
        [traj.t, traj.y, traj.lam, traj.drift_norm])
    series = envelope_series(case_problem, traj, equilibrium_oracle(case_problem))
    write_envelope_csv(tmp_path / "envelope.csv", *series)
    assert (tmp_path / "envelope.csv").read_bytes() == _per_value_csv(
        ["t", "bound", "distance"], list(series))


def test_csv_writer_streams(tmp_path, case_trajectory):
    # the writer holds one block of rows at a time: its peak does not grow with the rows
    traj = case_trajectory
    head = dataclasses.replace(traj, t=traj.t[:8192], y=traj.y[:8192], lam=traj.lam[:8192],
                               drift_norm=traj.drift_norm[:8192])
    head.write_csv(tmp_path / "warm.csv")   # imports the writer and builds its tables
    peaks = []
    for tr in (head, traj):
        tracemalloc.start()
        try:
            tr.write_csv(tmp_path / "trajectory.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(traj) == 50_001
    assert peaks[1] <= 1.25 * peaks[0] and peaks[1] < 16 * 2**20, peaks


@pytest.mark.parametrize("every, ok", [
    (3, True), (np.int64(3), True), (2.5, False), (3.0, False), ("3", False), (0, False),
])
def test_record_every_must_be_a_positive_integer(every, ok):
    if ok:
        assert IntegratorConfig(record_every=every).record_every == 3
    else:
        with pytest.raises(ValueError, match="record_every"):
            IntegratorConfig(record_every=every)
