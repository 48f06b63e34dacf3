import bisect
import math
from fractions import Fraction

import numpy as np
import pytest

from ppdgd import (
    BoxSet,
    InitialPointOutsideOmega,
    IntegratorConfig,
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
    project_box,
    rhs,
    select_subgradient,
    solve_inner,
)
from ppdgd.analysis import write_envelope_csv
from ppdgd.model import PieceTable, SeparablePiecewise
from ppdgd.random_problems import random_piecewise, random_problem


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


@pytest.mark.parametrize("every", [1, 3])
@pytest.mark.parametrize("steps", [1, 5000])
def test_euler_steps_match_public_field_ops(steps, every):
    # every recorded row of integrate against a plain loop of the forward-backward
    # step over per-coordinate PiecewiseScalarFn data and the public dual field;
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
    for P, y0, lam0 in starts:
        traj = integrate(P, State(y0, lam0), cfg)
        reference_step = _reference_stepper(P, dt)
        rows = []
        y, lam = y0, lam0
        for k in range(steps + 1):
            _, dlam = rhs(P, State(y, lam), 1.0)
            y_next = reference_step(y, lam)
            dy = y_next - y
            if k % every == 0 or k == steps:
                rows.append((k * dt, y, lam,
                             math.sqrt(float(dy @ dy) / (dt * dt) + float(dlam @ dlam))))
            y, lam = y_next, lam + dt * dlam
        t, ys, lams, drifts = (np.array(c) for c in zip(*rows))
        assert traj.terminated_by is TerminationReason.TIME_LIMIT
        assert np.array_equal(traj.t, t)
        assert np.array_equal(traj.y, ys)
        assert np.array_equal(traj.lam, lams)
        assert np.array_equal(traj.drift_norm, drifts)


def test_kink_free_steps_match_projected_euler():
    # without kinks the forward-backward step is projected Euler, bit for bit:
    # y/lam rows of integrate against the old loop over rhs, select_subgradient
    # and project_box, in every inner mode, from starts on a face of Omega
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
        ys, lams = [], []
        y, lam = y0, lam0
        for k in range(steps + 1):
            if k % every == 0 or k == steps:
                ys.append(y)
                lams.append(lam)
            _, dlam = rhs(P, State(y, lam), 1.0)
            raw = -select_subgradient(P, y, lam) - P.Bt @ lam
            y, lam = project_box(y + dt * raw, P.Omega), lam + dt * dlam
        assert traj.terminated_by is TerminationReason.TIME_LIMIT
        assert np.array_equal(traj.y, np.array(ys))
        assert np.array_equal(traj.lam, np.array(lams))
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


def _kinked(bps, jumps, curvs):
    """Convex piecewise quadratic with derivative jumps `jumps` at `bps` and curvatures `curvs`."""
    pieces = [(0.5 * curvs[0], 0.0, 0.0)]
    for b, jump, c in zip(bps, jumps, curvs[1:]):
        pl, ql, rl = pieces[-1]
        q = 2.0 * pl * b + ql + jump - c * b
        pieces.append((0.5 * c, q, pl * b * b + ql * b + rl - 0.5 * c * b * b - q * b))
    return PiecewiseScalarFn(np.array(bps, dtype=float), np.array(pieces))


@pytest.mark.parametrize("t", [1e-6, 1.0, 1e6])
def test_jump_prox_table_matches_brute_force_scalar_prox(t):
    fns = [
        PiecewiseScalarFn.quadratic(0.5, 0.25),
        _kinked([-0.5, 0.25], [0.125, 0.375], [1.0, 1.0, 2.0]),
        # a zero-jump breakpoint (only the curvature changes), then a kink
        _kinked([-0.5, 0.5], [0.0, 0.25], [1.0, 2.0, 2.0]),
        # kinks 1e-12 apart: at t = 1e6 their rounded thresholds coincide
        _kinked([0.3, 0.3 + 1e-12], [0.125, 0.25], [1.0, 1.0, 1.0]),
    ]
    fns.append(fns[1])
    lo = np.array([-1.0, -1.0, -2.0, -1.0, 0.25])
    hi = np.array([1.0, 1.0, 2.0, 1.0, 0.25])   # the last row has lo == hi
    hpack = SeparablePiecewise(tuple(fns))
    table = hpack.jump_prox(t)
    for j, fn in enumerate(fns):
        b, S = fn.breakpoints, hpack.jump_sum[j]
        sticky = [(b[i] + t * S[i], b[i] + t * S[i + 1], b[i]) for i in range(b.size)]
        ends = [s for start, end, _ in sticky for s in (start, end)]
        values = [-3.0, 0.0, 3.0] + [x for s in ends
                                     for x in (np.nextafter(s, -np.inf), s, np.nextafter(s, np.inf))]
        values += [0.5 * (start + end) for start, end, _ in sticky]
        scale = max(abs(x) for x in values) + t * S[b.size] + 1.0
        for x in values:
            v = np.zeros(len(fns))
            v[j] = x
            u = min(max(table(v)[j], lo[j]), hi[j])
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
    """(t, y, lam, drift_norm) of a plain loop of the reference step, recorded like integrate."""
    reference_step = _reference_stepper(P, dt)
    rows = []
    y, lam = y0, lam0
    for k in range(steps + 1):
        _, dlam = rhs(P, State(y, lam), 1.0)
        y_next = reference_step(y, lam)
        dy = y_next - y
        if k % every == 0 or k == steps:
            rows.append((k * dt, y, lam,
                         math.sqrt(float(dy @ dy) / (dt * dt) + float(dlam @ dlam))))
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
    """(2K, m) prox thresholds of the jump table: its edges are their predecessor floats."""
    with np.errstate(over="ignore"):   # the padding edges are the float maximum
        return np.nextafter(P.hpack.jump_prox(dt).edgesT, np.inf)


def _mode_changes(P, dt, y, lam):
    """Per step after the first: did some y_j change its piece, did some v_j change its prox region."""
    forward, thr = _reference_forward(P, dt), _thresholds(P, dt)
    pieces = [[bisect.bisect_left(fn.breakpoints, yk[j]) for j, fn in enumerate(P.h)] for yk in y]
    regions = [[np.searchsorted(thr[:, j], vj, side="right") for j, vj in enumerate(forward(yk, lk))]
               for yk, lk in zip(y, lam)]
    return tuple(np.any(np.diff(idx, axis=0), axis=1) for idx in (pieces, regions))


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


@pytest.mark.parametrize("mode", ["free", "box_diag", "box_dense"])
def test_cached_step_matches_reference_at_bracket_edges(mode):
    # integrate caches the piece of each y_j and the prox region of each v_j
    # and reuses them while [v, y] stays inside their brackets. Every row must
    # still match the reference loop, which looks both up on every step:
    # - y(0) on a breakpoint and one ulp either side;
    # - v at the first step on a prox threshold and one ulp either side;
    # - y landing on the kink at 0.35 from the piece above, after which the
    #   reference v falls one ulp below the sticking interval, while the
    #   cached piece above would have kept it inside;
    # - v at the second step on the upper threshold of the sticking interval
    #   at -0.5, which the cached sticking region would have kept;
    # - one long run across many pieces and regions.
    dt = 2.0 ** -5
    # kinks at -0.5 (jump 0.25) and 0.35 (jump 97, where the curvature changes
    # from 1 to 1.1); at 0.35 the left and right pieces give d values that
    # differ by rounding, by several ulp(0.35) / dt
    P = _mode_problem(mode, [_kinked([-0.5, 0.35], [0.25, 97.0], [1.0, 1.0, 1.1])], [0.0])
    b_low, b_kink = P.h[0].breakpoints
    thr = _thresholds(P, dt)[:, 0]
    runs = [(np.array([y]), np.array([0.1])) for b in (b_low, b_kink) for y in _ulps(b)]
    y0 = np.zeros(1)
    runs += [(y0, _landing_lam(P, dt, y0, v, 0)) for T in thr for v in _ulps(T)]

    forward = _reference_forward(P, dt)
    # the kink at 0.35 from above: y(0) = 0.4 sticks at the kink on the first
    # step, and at the second v lands one ulp below its sticking interval
    y0 = np.array([0.4])
    lam0 = _landing_lam(P, dt, y0, np.nextafter(thr[2], -np.inf), 1)
    _, y, lam, _ = _reference_rows(P, y0, lam0, dt, 2, 1)
    assert y[1, 0] == b_kink and y[2, 0] != b_kink
    c2_right, q_right = 2.0 * P.h[0].coeffs[2, 0], P.h[0].coeffs[2, 1]
    d_right = c2_right * b_kink + (q_right - P.hpack.jump_sum[0, 2])
    v_right = b_kink + dt * (lam[1, 0] - d_right)   # v with the rows of the piece above
    assert thr[2] <= v_right < thr[3] and forward(y[1], lam[1])[0] < thr[2]
    runs.append((y0, lam0))
    # pinned on the kink at -0.5, v leaves its sticking interval exactly on
    # the upper threshold at the second step
    y0 = np.array([b_low])
    lam0 = _landing_lam(P, dt, y0, thr[1], 1)
    _, y, _, _ = _reference_rows(P, y0, lam0, dt, 2, 1)
    assert y[1, 0] == b_low and y[2, 0] != b_low
    runs.append((y0, lam0))

    runs = [(P, y0, lam0, 7) for y0, lam0 in runs]
    # the long run: five and four kinks, from a corner of Omega
    h = [_kinked([-0.6, -0.3, 0.0, 0.3, 0.6], [0.05, 0.1, 0.05, 0.1, 0.05],
                 [1.0, 1.5, 0.8, 1.2, 1.0, 1.4]),
         _kinked([-0.45, -0.15, 0.15, 0.45], [0.1, 0.05, 0.1, 0.05], [1.2, 0.8, 1.0, 1.5, 1.0])]
    P = _mode_problem(mode, h, [0.3, -0.2])
    y0, lam0 = np.array([-0.95, 0.95]), np.array([3.0, -3.0])
    _, y, lam, _ = _reference_rows(P, y0, lam0, dt, 500, 1)
    assert all(np.count_nonzero(c) >= 10 for c in _mode_changes(P, dt, y, lam))
    runs.append((P, y0, lam0, 500))

    for every in (1, 3):
        for P, y0, lam0, steps in runs:
            cfg = IntegratorConfig(dt=dt, t_end=steps * dt, stop_tol=0.0, record_every=every)
            traj = integrate(P, State(y0, lam0), cfg)
            assert traj.terminated_by is TerminationReason.TIME_LIMIT
            for got, want in zip((traj.t, traj.y, traj.lam, traj.drift_norm),
                                 _reference_rows(P, y0, lam0, dt, steps, every)):
                assert np.array_equal(got, want), (every, y0, lam0)


def test_step_looks_up_pieces_and_regions_only_when_they_change(monkeypatch):
    # integrate must reuse its cached rows: count the lookups in each of its two
    # tables, the pieces of h (P.hpack.pieces) and the regions of the jump prox
    calls = {"piece_rows": 0, "region_rows": 0}
    rows = PieceTable.rows

    def counted(self, v):
        calls["piece_rows" if self is P.hpack.pieces else "region_rows"] += 1
        return rows(self, v)

    monkeypatch.setattr(PieceTable, "rows", counted)
    # from the kink-pinned equilibria of test_step_from_kink_pinned_equilibrium_stays_on_the_kink,
    # only the first of 500 steps looks anything up
    for seed in (6, 14):
        P = random_problem(np.random.default_rng(seed), max_dim=5)
        eq = equilibrium_oracle(P)
        for tau in (1.0, 5.0):
            calls.update(piece_rows=0, region_rows=0)
            cfg = IntegratorConfig(dt=2e-3, tau=tau, t_end=1.0, stop_tol=0.0)
            assert len(integrate(P, State(eq.y_star, eq.lambda_star), cfg)) == 501
            assert calls == {"piece_rows": 1, "region_rows": 1}
    # on a random instance: the first step, then once per step at which some
    # y_j changes its piece or some v_j its prox region
    rng = np.random.default_rng(20240811)
    P = random_problem(rng)
    cfg = IntegratorConfig(dt=2e-3, t_end=60.0, stop_tol=1e-8)
    calls.update(piece_rows=0, region_rows=0)
    traj = integrate(P, State(rng.uniform(P.Omega.lo, P.Omega.hi), np.zeros(P.p)), cfg)
    piece, region = _mode_changes(P, cfg.dt, traj.y, traj.lam)
    assert np.count_nonzero(piece) >= 3 and np.count_nonzero(region) >= 3
    assert calls["piece_rows"] == calls["region_rows"] <= np.count_nonzero(piece | region) + 1


def test_early_stop_allocates_nothing_in_proportion_to_t_end():
    # 1e15 steps to t_end: sample buffers sized for them could not be allocated
    P = boundary_equilibrium_problem()
    traj = integrate(P, State(np.array([1.0]), np.array([-2.0])),
                     IntegratorConfig(dt=1e-6, t_end=1e9))
    assert traj.terminated_by is TerminationReason.STOP_TOL
    assert len(traj) == 1


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


@pytest.mark.parametrize("rows", [1, 4096, 4097])
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


@pytest.mark.parametrize("every, ok", [
    (3, True), (np.int64(3), True), (2.5, False), (3.0, False), ("3", False), (0, False),
])
def test_record_every_must_be_a_positive_integer(every, ok):
    if ok:
        assert IntegratorConfig(record_every=every).record_every == 3
    else:
        with pytest.raises(ValueError, match="record_every"):
            IntegratorConfig(record_every=every)
