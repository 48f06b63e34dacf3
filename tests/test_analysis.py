import json

import numpy as np
import pytest

from ppdgd import (
    BoxSet,
    Equilibrium,
    EquilibriumUnverified,
    IntegratorConfig,
    PiecewiseScalarFn,
    PointOutsideSet,
    QuadraticSmoothFn,
    State,
    build_problem,
    certify_envelope,
    equilibrium_oracle,
    integrate,
    kkt_residual,
    lyapunov_value,
    solve_inner,
)
from ppdgd.random_problems import random_problem


def test_kkt_residual_zero_at_analytic_equilibrium(one_dim_problem):
    res = kkt_residual(one_dim_problem, np.zeros(1), np.zeros(1), np.zeros(1))
    assert res.total <= 1e-12
    assert res.r_x <= 1e-12 and res.r_y <= 1e-12 and res.r_eq <= 1e-12


def test_kkt_residual_detects_perturbation(one_dim_problem):
    res = kkt_residual(one_dim_problem, np.zeros(1), np.zeros(1), np.array([0.1]))
    assert res.r_x == pytest.approx(0.1, abs=1e-15)
    assert res.total > 0.01


def test_kkt_residual_normal_cone_absorbs_at_faces():
    # y pinned at the upper face: any inward-pointing stationarity defect is fine
    P = build_problem(
        QuadraticSmoothFn(np.array([[1.0]]), np.zeros(1)),
        [PiecewiseScalarFn.quadratic(0.5)],
        np.array([[1.0]]), np.array([[1.0]]), np.array([3.0]),
        BoxSet.free(1), BoxSet.box([-1.0], [1.0]),
    )
    res = kkt_residual(P, np.array([2.0]), np.array([1.0]), np.array([-2.0]))
    assert res.total <= 1e-12


def test_kkt_residual_rejects_points_outside_sets(one_dim_problem):
    with pytest.raises(PointOutsideSet):
        kkt_residual(one_dim_problem, np.zeros(1), np.array([2.0]), np.zeros(1))
    # a NaN lies outside every set, one_dim_problem's free X included
    with pytest.raises(PointOutsideSet):
        kkt_residual(one_dim_problem, np.array([np.nan]), np.zeros(1), np.zeros(1))


def test_kkt_uses_kink_interval(kinked_cost):
    # equilibrium exactly on the kink: 0 in [0.2, 0.4] - 0.3 -> residual 0
    P = build_problem(
        QuadraticSmoothFn(np.array([[1.0]]), np.zeros(1)),
        [kinked_cost],
        np.array([[1.0]]), np.array([[-1.0]]), np.array([0.1]),
        BoxSet.free(1), BoxSet.box([-1.0], [1.0]),
    )
    res = kkt_residual(P, np.array([0.3]), np.array([0.2]), np.array([0.3]))
    assert res.r_y == 0.0


def test_oracle_one_dimensional(one_dim_problem):
    eq = equilibrium_oracle(one_dim_problem)
    assert np.max(np.abs(eq.x_star)) <= 1e-8
    assert np.max(np.abs(eq.y_star)) <= 1e-8
    assert np.max(np.abs(eq.lambda_star)) <= 1e-8


def test_oracle_matches_direct_linear_kkt_solve():
    # smooth everywhere: compare against the dense saddle system
    rng = np.random.default_rng(15)
    n, m, p = 4, 3, 2
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    H = (Q * rng.uniform(0.5, 2.0, size=n)) @ Q.T
    c = rng.normal(size=n)
    A = rng.normal(size=(p, n))
    B = rng.normal(size=(p, m))
    curv = rng.uniform(0.5, 2.0, size=m)
    qlin = rng.normal(size=m) * 0.1
    C = rng.normal(size=p) * 0.1
    P = build_problem(
        QuadraticSmoothFn(H, c),
        [PiecewiseScalarFn.quadratic(0.5 * curv[j], qlin[j]) for j in range(m)],
        A, B, C, BoxSet.free(n), BoxSet.box(np.full(m, -10.0), np.full(m, 10.0)),
    )
    K = np.zeros((n + m + p, n + m + p))
    K[:n, :n] = H
    K[:n, n + m:] = A.T
    K[n:n + m, n:n + m] = np.diag(curv)
    K[n:n + m, n + m:] = B.T
    K[n + m:, :n] = A
    K[n + m:, n:n + m] = B
    rhs = np.concatenate([-c, -qlin, C])
    sol = np.linalg.solve(K, rhs)
    eq = equilibrium_oracle(P)
    assert np.max(np.abs(eq.x_star - sol[:n])) <= 1e-8
    assert np.max(np.abs(eq.y_star - sol[n:n + m])) <= 1e-8
    assert np.max(np.abs(eq.lambda_star - sol[n + m:])) <= 1e-8


def test_oracle_randomized_residuals():
    rng = np.random.default_rng(8)
    for _ in range(10):
        P = random_problem(rng, max_dim=8)
        eq = equilibrium_oracle(P)
        assert kkt_residual(P, *eq).total <= 1e-6


def test_oracle_failure_when_target_unreachable(one_dim_problem, monkeypatch):
    from ppdgd import OracleFailed, analysis
    monkeypatch.setattr(analysis, "KKT_TARGET", -1.0)
    with pytest.raises(OracleFailed):
        equilibrium_oracle(one_dim_problem)


def test_oracle_handles_kink_pinned_equilibrium(kinked_cost):
    # constrained coupling forces y* onto the kink at 0.2
    P = build_problem(
        QuadraticSmoothFn(np.array([[1.0]]), np.zeros(1)),
        [kinked_cost],
        np.array([[1.0]]), np.array([[-1.0]]), np.array([0.1]),
        BoxSet.free(1), BoxSet.box([-1.0], [1.0]),
    )
    eq = equilibrium_oracle(P)
    assert kkt_residual(P, *eq).total <= 1e-6


def test_oracle_stops_early_on_a_tiny_kink_jump(monkeypatch):
    # y* = 0.3 sits on a kink whose derivative jumps by only 1e-6; the 1e-6
    # and 1e-4 polish patterns pin it after 3 stages, 1e-8 alone takes 5
    from ppdgd import analysis
    h = PiecewiseScalarFn(np.array([0.3]), np.array([[0.5, 0.0, 0.0], [0.5, 1e-6, -3e-7]]))
    P = build_problem(
        QuadraticSmoothFn(np.array([[1.0]]), np.zeros(1)), [h],
        np.array([[1.0]]), np.array([[-1.0]]), np.array([-0.6 - 5e-7]),
        BoxSet.free(1), BoxSet.box([-1.0], [1.0]),
    )
    calls = []
    solve_stage = analysis._solve_stage

    def counted(*args):
        calls.append(args[4])
        return solve_stage(*args)

    monkeypatch.setattr(analysis, "_solve_stage", counted)
    eq = equilibrium_oracle(P)
    assert kkt_residual(P, *eq).total <= 1e-10
    assert len(calls) <= 3


def test_lyapunov_value_basics(one_dim_problem):
    eq = Equilibrium(np.zeros(1), np.array([0.25]), np.array([-0.5]))
    assert lyapunov_value(eq, np.array([0.25]), np.array([-0.5])) == 0.0
    assert lyapunov_value(eq, np.array([1.25]), np.array([-0.5])) == 0.5


def test_lyapunov_pointwise_decay_along_trajectory(one_dim_problem):
    eq = equilibrium_oracle(one_dim_problem)
    cfg = IntegratorConfig(dt=1e-3, t_end=10.0, record_every=10)
    traj = integrate(one_dim_problem, State(np.array([0.7]), np.zeros(1)), cfg)
    V = np.array([lyapunov_value(eq, traj.y[k], traj.lam[k]) for k in range(len(traj))])
    usable = V > 1e-12
    ratios = V[1:][usable[1:]] / V[:-1][usable[1:]]
    steps = np.diff(traj.t)[usable[1:]]
    assert np.all(ratios <= np.exp(-one_dim_problem.gamma * steps) * (1 + 1e-6))


def test_lyapunov_pointwise_decay_through_a_kink_at_the_equilibrium():
    # the tight 1-d instance with a kink of jump 0.1 at y* = 0: the step lands on
    # the kink instead of chattering around it, so the same bound holds
    h = PiecewiseScalarFn(np.array([0.0]), np.array([[0.5, 0.0, 0.0], [0.5, 0.1, 0.0]]))
    P = build_problem(
        QuadraticSmoothFn(np.array([[1.0]]), np.zeros(1)), [h],
        np.array([[1.0]]), np.array([[1.0]]), np.zeros(1),
        BoxSet.free(1), BoxSet.box([-1.0], [1.0]),
    )
    eq = equilibrium_oracle(P)
    assert eq.y_star[0] == 0.0
    cfg = IntegratorConfig(dt=1e-3, t_end=10.0, record_every=10)
    traj = integrate(P, State(np.array([0.7]), np.zeros(1)), cfg)
    V = np.array([lyapunov_value(eq, traj.y[k], traj.lam[k]) for k in range(len(traj))])
    usable = V > 1e-12
    ratios = V[1:][usable[1:]] / V[:-1][usable[1:]]
    steps = np.diff(traj.t)[usable[1:]]
    assert usable.sum() > 100
    assert np.all(ratios <= np.exp(-P.gamma * steps) * (1 + 1e-6))


@pytest.fixture
def damped_problem():
    """1-d instance whose true decay rate (1.5) beats the certified bound (1)."""
    return build_problem(
        QuadraticSmoothFn(np.array([[1.0]]), np.zeros(1)),
        [PiecewiseScalarFn.quadratic(1.0)],
        np.array([[1.0]]),
        np.array([[1.0]]),
        np.zeros(1),
        BoxSet.free(1),
        BoxSet.box([-1.0], [1.0]),
    )


def test_certify_envelope_flags_good_equilibrium(damped_problem):
    eq = equilibrium_oracle(damped_problem)
    traj = integrate(damped_problem, State(np.array([0.7]), np.zeros(1)),
                     IntegratorConfig(dt=1e-3, t_end=10.0, record_every=10))
    rep = certify_envelope(damped_problem, traj, eq)
    assert rep.envelope_ok
    assert rep.envelope_margin >= 0.0
    assert rep.gamma_bound == damped_problem.gamma
    assert rep.fitted_rate >= 0.95 * 0.5 * damped_problem.gamma
    assert rep.kkt.total <= 1e-6


def test_certify_envelope_rejects_bad_equilibrium(one_dim_problem):
    traj = integrate(one_dim_problem, State(np.array([0.7]), np.zeros(1)),
                     IntegratorConfig(dt=1e-3, t_end=1.0))
    fake = Equilibrium(np.zeros(1), np.array([0.5]), np.array([0.5]))
    with pytest.raises(EquilibriumUnverified):
        certify_envelope(one_dim_problem, traj, fake)


def test_certify_envelope_at_equilibrium_fitted_rate_not_applicable(one_dim_problem):
    eq = equilibrium_oracle(one_dim_problem)
    traj = integrate(one_dim_problem, State(eq.y_star, eq.lambda_star),
                     IntegratorConfig(dt=1e-3, t_end=1.0))
    rep = certify_envelope(one_dim_problem, traj, eq)
    assert rep.envelope_ok
    assert rep.fitted_rate is None


def test_tau_scaling_of_certified_exponent(one_dim_problem):
    eq = equilibrium_oracle(one_dim_problem)
    reports = []
    for tau in (1.0, 2.0):
        traj = integrate(one_dim_problem, State(np.array([0.7]), np.zeros(1)),
                         IntegratorConfig(dt=1e-3, tau=tau, t_end=8.0, record_every=10))
        reports.append(certify_envelope(one_dim_problem, traj, eq))
    assert reports[0].tau == 1.0 and reports[1].tau == 2.0
    exp1 = 0.5 * reports[0].gamma_bound * reports[0].tau
    exp2 = 0.5 * reports[1].gamma_bound * reports[1].tau
    assert exp2 == 2.0 * exp1


def test_oracle_dynamics_agreement_randomized():
    rng = np.random.default_rng(31)
    cfg = IntegratorConfig(dt=2e-3, t_end=60.0)
    for _ in range(8):
        P = random_problem(rng, max_dim=8)
        eq = equilibrium_oracle(P)
        y0 = rng.uniform(P.Omega.lo, P.Omega.hi)
        traj = integrate(P, State(y0, np.zeros(P.p)), cfg)
        gap = np.linalg.norm(np.concatenate(
            [traj.y[-1] - eq.y_star, traj.lam[-1] - eq.lambda_star]))
        assert gap <= 1e-4
        x_end = solve_inner(P, traj.lam[-1]).x_star
        assert kkt_residual(P, x_end, traj.y[-1], traj.lam[-1]).total <= 1e-6


def test_monotone_lyapunov_decay_randomized():
    rng = np.random.default_rng(99)
    cfg = IntegratorConfig(dt=2e-3, t_end=40.0)
    for _ in range(8):
        P = random_problem(rng, max_dim=8)
        eq = equilibrium_oracle(P)
        y0 = rng.uniform(P.Omega.lo, P.Omega.hi)
        traj = integrate(P, State(y0, np.zeros(P.p)), cfg)
        V = 0.5 * np.sum((traj.y - eq.y_star) ** 2, axis=1) \
            + 0.5 * np.sum((traj.lam - eq.lambda_star) ** 2, axis=1)
        assert np.max(np.diff(V)) <= 1e-9


def test_report_json_round_trip(tmp_path, damped_problem):
    eq = equilibrium_oracle(damped_problem)
    traj = integrate(damped_problem, State(np.array([0.7]), np.zeros(1)),
                     IntegratorConfig(dt=1e-3, t_end=5.0, record_every=10))
    rep = certify_envelope(damped_problem, traj, eq)
    path = tmp_path / "report.json"
    rep.write_json(path)
    doc = json.loads(path.read_text())
    assert set(doc) == {
        "equilibrium", "gamma_bound", "tau", "envelope_ok",
        "envelope_margin", "fitted_rate", "kkt",
    }
    assert set(doc["equilibrium"]) == {"y_star", "lambda_star", "x_star"}
    assert doc["gamma_bound"] == rep.gamma_bound
    assert doc["kkt"]["total"] == rep.kkt.total
    assert doc["envelope_ok"] is True
