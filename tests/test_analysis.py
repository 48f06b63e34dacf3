import itertools
import json

import numpy as np
import pytest

from ppdgd import (
    BoxSet,
    Equilibrium,
    EquilibriumUnverified,
    InfeasibleProblem,
    IntegratorConfig,
    OracleFailed,
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
from ppdgd import analysis
from ppdgd.random_problems import random_piecewise, random_problem

FEASIBILITY_TOL = 1e-6   # residual of Ax + By = C, relative to max(1, |C|_inf)


def _feasible(P) -> bool:
    """Probe whether Ax + By = C admits a solution over X x Omega.

    scipy's bounded least squares, independent of the oracle's proof: the
    reference that the oracle's infeasibility verdicts are checked against.
    """
    if P.X.is_free:
        return True  # A has full row rank, so x alone reaches any right-hand side
    import scipy.optimize

    M = np.hstack([P.A, P.B])
    lo = np.concatenate([P.X.lo, P.Omega.lo])
    hi = np.concatenate([P.X.hi, P.Omega.hi])
    free = lo < hi   # lsq_linear needs lo < hi; a pinned coordinate moves to the right-hand side
    gap = P.C - M[:, ~free] @ lo[~free]
    if free.any():
        res = scipy.optimize.lsq_linear(M[:, free], gap, bounds=(lo[free], hi[free]))
        gap = gap - M[:, free] @ res.x
    return float(np.max(np.abs(gap))) <= FEASIBILITY_TOL * max(1.0, float(np.max(np.abs(P.C))))


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
    # y* = 0.3 sits on a kink whose derivative jumps by only 1e-6. The dual
    # active-set method solves 2 reduced systems: the minimizer under Ax + By = C
    # alone, then the start that pins the two segment bounds it violates, which
    # is final and gives the multiplier
    h = PiecewiseScalarFn(np.array([0.3]), np.array([[0.5, 0.0, 0.0], [0.5, 1e-6, -3e-7]]))
    P = build_problem(
        QuadraticSmoothFn(np.array([[1.0]]), np.zeros(1)), [h],
        np.array([[1.0]]), np.array([[-1.0]]), np.array([-0.6 - 5e-7]),
        BoxSet.free(1), BoxSet.box([-1.0], [1.0]),
    )
    calls = []
    reduced_solve = analysis._reduced_solve

    def counted(*args):
        calls.append(args[2].copy())
        return reduced_solve(*args)

    monkeypatch.setattr(analysis, "_reduced_solve", counted)
    eq = equilibrium_oracle(P)
    assert kkt_residual(P, *eq).total <= 1e-10
    assert eq.y_star[0] == 0.3
    assert len(calls) <= 2


def _enumerated_equilibria(P):
    """Every triple that meets KKT within 1e-10, by trying each x status and y atom.

    x_i is at lo, free or at hi (free only when X is free); y_j sits on a
    point of Omega_j (its bounds and the breakpoints inside) or on the piece
    between two neighbouring points. Each pattern is solved as the full
    (n + m + p) linear system, by least squares when it is singular.
    """
    n, m, p = P.n, P.m, P.p
    x_options = [(0,) if np.isinf(P.X.lo[i]) else (-1, 0, 1) for i in range(n)]
    y_options = []
    for fn, lo, hi in zip(P.h, P.Omega.lo, P.Omega.hi):
        bp = fn.breakpoints
        pts = [lo, *bp[(bp > lo) & (bp < hi)]] + ([hi] if hi > lo else [])
        pieces = [fn.coeffs[fn.piece_index(0.5 * (a + b))] for a, b in zip(pts[:-1], pts[1:])]
        y_options.append([("point", s) for s in pts] + [("piece", c) for c in pieces])
    found = []
    for xs in itertools.product(*x_options):
        for ys in itertools.product(*y_options):
            M = np.zeros((n + m + p, n + m + p))
            rhs = np.zeros(n + m + p)
            pinned = np.array([status != 0 for status in xs] + [kind == "point" for kind, _ in ys]
                              + [False] * p)
            M[n + m:, :n], M[n + m:, n:n + m], rhs[n + m:] = P.A, P.B, P.C
            for i, status in enumerate(xs):
                if status:
                    M[i, i], rhs[i] = 1.0, P.X.lo[i] if status < 0 else P.X.hi[i]
                else:
                    M[i, :n], M[i, n + m:], rhs[i] = P.f.H[i], P.A[:, i], -P.f.c[i]
            for j, (kind, atom) in enumerate(ys):
                if kind == "point":
                    M[n + j, n + j], rhs[n + j] = 1.0, atom
                else:
                    M[n + j, n + j], M[n + j, n + m:], rhs[n + j] = 2.0 * atom[0], P.B[:, j], -atom[1]
            z = np.linalg.lstsq(M, rhs, rcond=None)[0]
            z[pinned] = rhs[pinned]   # exact values: a kink's interval needs y on it
            x, y, lam = z[:n], z[n:n + m], z[n + m:]
            if P.X.contains(x) and P.Omega.contains(y) and kkt_residual(P, x, y, lam).total <= 1e-10:
                found.append((x, y, lam))
    return found


def _tiny_problem(seed):
    """n <= 3, m <= 2, p <= 2 and up to 2 kinks per h_j; X free, box_diag or box_dense by seed % 3."""
    rng = np.random.default_rng(seed)
    kind = ("free", "box_diag", "box_dense")[seed % 3]
    n = int(rng.integers(2 if kind == "box_dense" else 1, 4))
    m = int(rng.integers(1, 3))
    p = int(rng.integers(1, min(2, n) + 1))
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    H = (Q * rng.uniform(0.5, 3.0, size=n)) @ Q.T
    if kind == "box_diag":
        H = np.diag(rng.uniform(0.5, 3.0, size=n))
    lo = rng.uniform(-2.0, -0.5, size=m)
    hi = rng.uniform(0.5, 2.0, size=m)
    h = [random_piecewise(rng, lo[j], hi[j], int(rng.integers(0, 3))) for j in range(m)]
    A, B = rng.normal(size=(p, n)), rng.normal(size=(p, m))
    X = BoxSet.free(n) if kind == "free" else BoxSet.box(np.full(n, -0.5), np.full(n, 0.5))
    # the noise makes some boxed draws infeasible
    C = A @ rng.uniform(-0.5, 0.5, size=n) + B @ rng.uniform(lo, hi) + 0.5 * rng.normal(size=p)
    return build_problem(QuadraticSmoothFn(H, 2.0 * rng.normal(size=n)), h, A, B, C,
                         X, BoxSet.box(lo, hi))


def _degenerate_problem(case, weakly_active_box_dense):
    """Equilibria where a status test sits exactly on its boundary, in dyadic data.

    h(y) = y^2 / 2 below its kink at 1/4 and derivative 1/4 larger above; the
    target -(B'lam)_0 of y* = 1/4 is the kink's right or left derivative
    (left_end, right_end), or y* = 1/2 is Omega's upper face with the
    unconstrained minimizer on it (face). weakly_active has x_0 on its
    lower bound with a zero multiplier; pinned has X_0 and Omega (on the
    kink) single points.
    """
    if case == "weakly_active":
        return weakly_active_box_dense
    kinked = PiecewiseScalarFn(np.array([0.25]), np.array([[0.5, 0.0, 0.0], [0.5, 0.25, -0.0625]]))
    if case == "pinned":   # x* = (1/2, 1/4), y* = 1/4 and lam* = -1/4
        return build_problem(QuadraticSmoothFn(np.eye(2), np.zeros(2)), [kinked], np.ones((1, 2)),
                             np.eye(1), np.array([1.0]), BoxSet.box([0.5, -1.0], [0.5, 1.0]),
                             BoxSet.box([0.25], [0.25]))
    fn, hi, lam = {"right_end": (kinked, 1.0, -0.5), "left_end": (kinked, 1.0, -0.25),
                   "face": (PiecewiseScalarFn.quadratic(0.5), 0.5, -0.5)}[case]
    y_star = 0.25 if fn is kinked else 0.5
    # f = x^2 / 2, A = B = [1]: x* = -lam* and C = x* + y*
    return build_problem(QuadraticSmoothFn(np.eye(1), np.zeros(1)), [fn], np.eye(1), np.eye(1),
                         np.array([-lam + y_star]), BoxSet.free(1), BoxSet.box([-1.0], [hi]))


def _assert_oracle_matches_enumeration(P):
    found = _enumerated_equilibria(P)
    if not found:
        with pytest.raises(InfeasibleProblem):
            equilibrium_oracle(P)
        return
    eq = equilibrium_oracle(P)
    assert kkt_residual(P, *eq).total <= 1e-10
    gaps = [max(float(np.max(np.abs(a - b))) for a, b in zip(eq, cand)) for cand in found]
    assert min(gaps) <= 1e-9


@pytest.mark.parametrize("seed", range(30))
def test_oracle_matches_enumerated_patterns(seed):
    _assert_oracle_matches_enumeration(_tiny_problem(seed))


@pytest.mark.parametrize("case", ["left_end", "right_end", "face", "weakly_active", "pinned"])
def test_oracle_matches_enumerated_patterns_at_degenerate_equilibria(case, weakly_active_box_dense):
    _assert_oracle_matches_enumeration(_degenerate_problem(case, weakly_active_box_dense))


def _boxed(R):
    """R with X replaced by [-1, 1]^n, as the boxed_dense benchmark boxes its draws."""
    X = BoxSet.box(np.full(R.n, -1.0), np.full(R.n, 1.0))
    return build_problem(R.f, R.h, R.A, R.B, R.C, X, R.Omega)


def test_box_dense_oracle_campaign():
    # the draws of the boxed_dense benchmark (its 9 problems come first),
    # boxed as it boxes them: the oracle proves infeasible exactly the draws
    # that the probe rejects
    rng = np.random.default_rng([20240811, 3])
    infeasible = 0
    for _ in range(200):
        P = _boxed(random_problem(rng))
        if _feasible(P):
            assert kkt_residual(P, *equilibrium_oracle(P)).total <= 1e-10
        else:
            infeasible += 1
            with pytest.raises(InfeasibleProblem):
                equilibrium_oracle(P)
    assert infeasible > 0


def test_an_infeasibility_proof_that_fails_its_check_is_no_verdict():
    # feasible (x = (0.5, 0), y = 0), but c_1 = 1e128 gives bound multipliers
    # near 1e127, whose steps lose the O(1) parts of z: the method found no
    # bound to drop and took the data for infeasible, which the Farkas
    # check of its multiplier refutes
    P = build_problem(QuadraticSmoothFn(np.diag([1.0, 2.0]), np.array([0.0, 1e128])),
                      [PiecewiseScalarFn.quadratic(0.5),
                       PiecewiseScalarFn(np.array([0.2]), np.array([[0.5, 0.0, 0.0],
                                                                    [1.0, -0.2, 0.02]]))],
                      np.ones((1, 2)), np.array([[1.0, -1.0]]), np.array([0.5]),
                      BoxSet.box([-2.0, -2.0], [2.0, 2.0]), BoxSet.box([-1.0, -1.0], [1.0, 1.0]))
    assert _feasible(P)
    with pytest.raises(OracleFailed, match="infeasibility proof fails its check"):
        equilibrium_oracle(P)


def test_warm_start_ends_where_the_cold_start_ends():
    # a third each free, box_diag and box_dense; the cold start pins no bound
    # at its start, the oracle's pins the segment bounds its first solve violates
    rng = np.random.default_rng([7, 7, 7])
    infeasible = 0
    for k in range(300):
        R = random_problem(rng, free_x=(k % 3 != 1))
        P = _boxed(R) if k % 3 == 2 else R
        G, a, E, d, lo, hi, warm = analysis._segment_qp(P, P.hpack.atoms(P.Omega.lo, P.Omega.hi))
        assert warm.any()
        starts = (np.zeros_like(warm), warm)
        if not _feasible(P):
            infeasible += 1
            for start in starts:
                with pytest.raises(InfeasibleProblem):
                    analysis._dual_active_set(G, a, E, d, lo, hi, start)
            continue
        (cold_side, cold_lam), (side, lam) = (
            analysis._dual_active_set(G, a, E, d, lo, hi, start) for start in starts)
        assert np.array_equal(side, cold_side)
        assert np.array_equal(lam, cold_lam)
    assert infeasible > 0


def test_oracle_solve_count_on_the_benchmark_draws(monkeypatch):
    # the draws of random_campaign (alternating free_x) and of boxed_dense; the
    # cold start took 92 and 120 reduced solves on them
    calls = []
    reduced_solve = analysis._reduced_solve

    def counted(*args):
        calls.append(None)
        return reduced_solve(*args)

    monkeypatch.setattr(analysis, "_reduced_solve", counted)
    rng = np.random.default_rng(20240811)
    for k in range(7):
        equilibrium_oracle(random_problem(rng, free_x=(k % 2 == 0)))
    assert len(calls) <= 32
    calls.clear()
    rng = np.random.default_rng([20240811, 3])
    for _ in range(9):
        equilibrium_oracle(_boxed(random_problem(rng)))
    assert len(calls) <= 60


def test_oracle_kkt_is_roundoff_on_ill_conditioned_H():
    # cond(H) up to 1e6, A and B as drawn: the absolute KKT total reaches
    # 2.6e-10 here, above the other oracle tests' 1e-10 bars, but relative
    # to the size of the terms it sums it stays at roundoff
    rng = np.random.default_rng(0)
    checked = 0
    for k in range(300):
        R = random_problem(rng)
        Q, _ = np.linalg.qr(rng.normal(size=(R.n, R.n)))
        H = (Q * np.geomspace(1.0, 10.0 ** rng.uniform(0.0, 6.0), R.n)) @ Q.T
        X = BoxSet.free(R.n) if k % 2 == 0 else BoxSet.box(np.full(R.n, -1.0), np.full(R.n, 1.0))
        P = build_problem(QuadraticSmoothFn(H, R.f.c), R.h, R.A, R.B, R.C, X, R.Omega)
        if not _feasible(P):
            continue
        x, y, lam = equilibrium_oracle(P)
        norm = np.linalg.norm
        scale = (norm(H, 2) * norm(x) + norm(P.f.c) + norm(P.A, 2) * norm(lam)
                 + norm(P.B, 2) * norm(y) + norm(P.C))
        assert kkt_residual(P, x, y, lam).total <= 1e-13 * scale
        checked += 1
    assert checked > 250


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
