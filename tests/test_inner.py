import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppdgd import (
    BoxSet,
    InnerSolveDiverged,
    IntegratorConfig,
    NonFiniteState,
    PiecewiseScalarFn,
    QuadraticSmoothFn,
    State,
    build_problem,
    integrate,
    rhs,
    solve_inner,
)
from ppdgd.geometry import clip_pattern
from ppdgd.inner import _grad_phi, _x_star, x_star_piece
from ppdgd.random_problems import random_problem

from oracles import strong_concavity_check


def quad(p):
    return PiecewiseScalarFn.quadratic(p)


def make_problem(H, c, A, X, m=None, B=None):
    n = H.shape[0]
    p = A.shape[0]
    m = m or p
    B = B if B is not None else np.zeros((p, m)) + np.eye(p, m)
    return build_problem(
        QuadraticSmoothFn(H, c),
        [quad(0.5) for _ in range(m)],
        A,
        B,
        np.zeros(p),
        X,
        BoxSet.box(np.full(m, -1.0), np.full(m, 1.0)),
    )


def test_case_study_closed_form(case_problem):
    P = case_problem
    rng = np.random.default_rng(0)
    for _ in range(10):
        lam = rng.normal(size=P.p)
        sol = solve_inner(P, lam)
        expected = 1.0 - (P.A.T @ lam) / 8.0
        assert np.max(np.abs(sol.x_star - expected)) < 1e-13
        assert np.allclose(sol.grad_phi, P.A @ expected, atol=1e-12)


def test_free_x_piece_is_the_unconstrained_map():
    # a free X is the box [-inf, inf]^n: the clamp that starts the solve leaves
    # x_base - dual_map @ lam as it is, already exact, and x_star_piece has one
    # piece with no rows to test
    rng = np.random.default_rng(5)
    for _ in range(20):
        P = random_problem(rng)
        assert P.X.is_free and P.inner_mode == "free"
        lam = rng.normal(size=P.p) * 10.0 ** rng.integers(-3, 4)
        x0, X1, T0, T1, lower, upper = x_star_piece(P, lam)
        assert T0.shape == (0,) and T1.shape == (0, P.p) and lower.size == upper.size == 0
        want = P.x_base - P.dual_map @ lam
        assert np.linalg.norm(x0 + X1 @ lam - want) <= 1e-14 * np.linalg.norm(want)
        x, steps, *_ = _x_star(P, lam)
        assert np.array_equal(x, want) and steps == 0
        want = solve_inner(P, lam).grad_phi
        assert np.linalg.norm(_grad_phi(P, lam) - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("mode", ["free", "box_diag", "box_dense"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_multiplier_is_rejected_before_the_solve(mode, bad):
    R = random_problem(np.random.default_rng(11))
    H = np.diag(np.diagonal(R.f.H)) if mode == "box_diag" else R.f.H
    X = R.X if mode == "free" else BoxSet.box(np.full(R.n, -1.0), np.full(R.n, 1.0))
    P = build_problem(QuadraticSmoothFn(H, R.f.c), R.h, R.A, R.B, R.C, X, R.Omega)
    assert P.inner_mode == mode
    lam = np.zeros(P.p)
    lam[-1] = bad
    s = State(y=np.zeros(P.m), lam=lam)
    calls = [lambda: solve_inner(P, lam), lambda: rhs(P, s),
             lambda: integrate(P, s, IntegratorConfig(dt=1e-3, t_end=1.0))]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState, match=rf"lam\[{P.p - 1}\] = {bad} is not finite"):
                call()


def test_zero_multiplier_pure_quadratic():
    P = make_problem(np.diag([2.0, 3.0]), np.zeros(2), np.eye(2), BoxSet.free(2))
    sol = solve_inner(P, np.zeros(2))
    assert np.array_equal(sol.x_star, np.zeros(2))
    assert sol.phi == 0.0  # offset d defaults to 0


def test_offset_appears_in_phi():
    f = QuadraticSmoothFn(np.eye(2), np.zeros(2), d=1.5)
    P = build_problem(
        f, [quad(0.5), quad(0.5)], np.eye(2), np.eye(2), np.zeros(2),
        BoxSet.free(2), BoxSet.box([-1.0, -1.0], [1.0, 1.0]),
    )
    assert solve_inner(P, np.zeros(2)).phi == 1.5


def test_box_clamped_minimizer_diagonal():
    P = make_problem(np.eye(2), np.zeros(2), np.eye(2),
                     BoxSet.box([-1.0, -1.0], [1.0, 1.0]))
    sol = solve_inner(P, np.array([3.0, 0.0]))
    assert np.array_equal(sol.x_star, np.array([-1.0, 0.0]))
    assert sol.phi == pytest.approx(-2.5, abs=1e-14)
    # brute-force grid oracle over X
    g = np.linspace(-1, 1, 401)
    G = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    vals = 0.5 * np.sum(G**2, axis=1) + G @ np.array([3.0, 0.0])
    assert sol.phi <= vals.min() + 1e-9
    # with H diagonal, x* is the clamp of x_base - dual_map @ lam: narrow boxes
    # make bounds bind, and the piece pins exactly the clamped coordinates
    rng = np.random.default_rng([7, 7, 7])
    binding = 0
    for _ in range(40):
        R = random_problem(rng, free_x=False)
        w = 10.0 ** rng.uniform(-2.0, 0.0)
        P = build_problem(R.f, R.h, R.A, R.B, R.C,
                          BoxSet.box(np.full(R.n, -w), np.full(R.n, w)), R.Omega)
        assert P.inner_mode == "box_diag"
        lam = rng.normal(size=P.p)
        u = P.x_base - P.dual_map @ lam
        at_lo, at_hi, _, _ = clip_pattern(u, P.X.lo, P.X.hi)
        clamp = np.clip(u, P.X.lo, P.X.hi)
        x0, X1, T0, T1, lower, upper = x_star_piece(P, lam)
        pinned = ~X1.any(axis=1)
        assert np.array_equal(at_lo, pinned & (x0 == P.X.lo))
        assert np.array_equal(at_hi, pinned & (x0 == P.X.hi))
        assert np.linalg.norm(x0 + X1 @ lam - clamp) <= 1e-14 * np.linalg.norm(clamp)
        t = T0 + T1 @ lam
        assert np.all((lower < t) & (t <= upper))
        x, steps, *_ = _x_star(P, lam)
        assert np.array_equal(x, clamp) and steps == 0
        binding += bool((at_lo | at_hi).any())
    assert binding >= 30


def test_box_dense_hessian_projected_gradient():
    H = np.array([[2.0, 0.6], [0.6, 1.5]])
    P = make_problem(H, np.array([0.3, -0.2]), np.eye(2),
                     BoxSet.box([-0.5, -0.5], [0.5, 0.5]))
    lam = np.array([2.0, -1.0])
    sol = solve_inner(P, lam)
    assert sol.residual <= 1e-10
    g = np.linspace(-0.5, 0.5, 501)
    G = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    lin = np.array([0.3, -0.2]) + lam
    vals = 0.5 * np.einsum("ij,jk,ik->i", G, H, G) + G @ lin
    best = G[np.argmin(vals)]
    assert np.linalg.norm(sol.x_star - best) <= 3e-3  # grid resolution


def test_box_dense_divergence_reported(monkeypatch):
    import ppdgd.inner as inner

    monkeypatch.setattr(inner, "_active_set_cap", lambda n: 0)
    H = np.array([[2.0, 0.6], [0.6, 1.5]])
    P = make_problem(H, np.array([0.3, -0.2]), np.eye(2),
                     BoxSet.box([-0.5, -0.5], [0.5, 0.5]))
    # mixed active/interior solution: the clamped start is not it, and a cap
    # of zero steps allows no reduced solve
    with pytest.raises(InnerSolveDiverged):
        inner.solve_inner(P, np.array([0.9, 0.0]))


def enumerated_box_qp(H, lin, lo, hi):
    """min 0.5 x'Hx + lin'x over [lo, hi] by trying all 3^n lower/free/upper patterns.

    Each pattern fixes the pinned coordinates and solves the reduced system on
    the free ones; the pattern whose point best satisfies KKT (free
    coordinates inside the box with zero gradient, multipliers of the right
    sign at the pinned ones) is the minimizer.
    """
    n = H.shape[0]
    best, best_viol = None, np.inf
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        pattern = np.array(pattern)
        free = pattern == 0
        x = np.where(pattern < 0, lo, hi).astype(float)
        if free.any():
            rhs = -(lin + H @ np.where(free, 0.0, x))[free]
            x[free] = np.linalg.solve(H[np.ix_(free, free)], rhs)
        g = H @ x + lin
        viol = max(
            np.max(np.maximum(lo - x, 0.0) + np.maximum(x - hi, 0.0)),
            np.max(np.abs(g[free]), initial=0.0),
            np.max(np.maximum(-g[pattern < 0], 0.0), initial=0.0),
            np.max(np.maximum(g[pattern > 0], 0.0), initial=0.0),
        )
        if viol < best_viol:
            best, best_viol = x, viol
    return best


def box_dense_problem(rng, n, cond, degenerate):
    """Dense H with condition number cond, random c, A = U diag(s) V' with
    singular values s in [0.5, 2] (full row rank), box X with some lo == hi."""
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = np.geomspace(1.0, cond, n) * rng.uniform(0.5, 2.0) / np.sqrt(cond)
    H = (Q * eigs) @ Q.T
    p = int(rng.integers(1, n + 1))
    lo = rng.uniform(-1.5, 0.0, size=n)
    hi = lo + rng.uniform(0.1, 2.0, size=n)
    hi[degenerate[:n]] = lo[degenerate[:n]]
    c = rng.normal(size=n)
    U, _ = np.linalg.qr(rng.normal(size=(p, p)))
    V, _ = np.linalg.qr(rng.normal(size=(n, p)))
    A = (U * rng.uniform(0.5, 2.0, size=p)) @ V.T
    P = make_problem(H, c, A, BoxSet.box(lo, hi), m=p)
    assert P.inner_mode == "box_dense"
    return P


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    log_cond=st.floats(0.0, 4.0),
    lam_scale=st.sampled_from([0.0, 0.3, 3.0, 100.0]),
    degenerate=st.lists(st.booleans(), min_size=5, max_size=5),
)
# a normal draw of A at this seed has A A' eigenvalue ratio 2.2e-12
@example(n=4, seed=346, log_cond=0.0, lam_scale=3.0, degenerate=[False] * 5)
def test_box_dense_matches_enumerated_oracle(n, seed, log_cond, lam_scale, degenerate):
    rng = np.random.default_rng(seed)
    P = box_dense_problem(rng, n, 10.0**log_cond, np.array(degenerate))
    lam = lam_scale * rng.normal(size=P.p)
    sol = solve_inner(P, lam)
    expected = enumerated_box_qp(P.f.H, P.f.c + P.A.T @ lam, P.X.lo, P.X.hi)
    assert sol.residual <= 1e-10
    assert np.max(np.abs(sol.x_star - expected)) <= 1e-9
    # the piece of x* at lam holds there and gives the same minimizer
    x0, X1, T0, T1, lower, upper = x_star_piece(P, lam)
    t = T0 + T1 @ lam
    assert np.all((lower < t) & (t <= upper))
    assert np.max(np.abs(x0 + X1 @ lam - expected)) <= 1e-9


def test_box_dense_ill_conditioned_solves_to_roundoff():
    # cond(H) up to 1e8 puts the absolute residual bound below roundoff and
    # makes block steps cycle; the pattern-repeat stop and the single pivots
    # still end every solve at a KKT point
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 30))
        p = int(rng.integers(1, n + 1))
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eigs = np.geomspace(1.0, 10.0 ** rng.uniform(0.0, 8.0), n) * rng.uniform(0.5, 2.0, size=n)
        H = (Q * eigs) @ Q.T
        w = 10.0 ** rng.uniform(-2.0, 1.0)
        P = make_problem(0.5 * (H + H.T), rng.normal(size=n), rng.normal(size=(p, n)),
                         BoxSet.box(np.full(n, -w), np.full(n, w)), m=p)
        lam = rng.normal(size=p)
        sol = solve_inner(P, lam)
        scale = (np.linalg.norm(P.f.H, 2) * np.linalg.norm(sol.x_star)
                 + np.linalg.norm(P.f.c + P.A.T @ lam))
        worst = max(worst, sol.residual / scale)
    assert worst <= 1e-14


def test_box_dense_stall_safeguard_ends_cycling(monkeypatch):
    import ppdgd.inner as inner

    # the first seed of box_dense_problem whose unguarded block steps cycle
    rng = np.random.default_rng(46)
    P = box_dense_problem(rng, 3, 1e3, np.zeros(3, dtype=bool))
    lam = 3.0 * rng.normal(size=P.p)
    cap = inner._active_set_cap(P.n)
    sol = solve_inner(P, lam)
    expected = enumerated_box_qp(P.f.H, P.f.c + P.A.T @ lam, P.X.lo, P.X.hi)
    assert sol.iterations <= cap
    assert np.max(np.abs(sol.x_star - expected)) <= 1e-9
    # unguarded block steps cycle here until the cap
    monkeypatch.setattr(inner, "STALL_STEPS", cap + 1)
    with pytest.raises(InnerSolveDiverged):
        solve_inner(P, lam)


def test_box_dense_steps_along_trajectory():
    R = random_problem(np.random.default_rng(20240811))
    X = BoxSet.box(np.full(R.n, -1.0), np.full(R.n, 1.0))
    P = build_problem(R.f, R.h, R.A, R.B, R.C, X, R.Omega)
    assert P.inner_mode == "box_dense"
    traj = integrate(P, State(y=np.zeros(P.m), lam=np.zeros(P.p)),
                     IntegratorConfig(dt=2e-3, t_end=2.0))
    steps = [solve_inner(P, lam).iterations for lam in traj.lam]
    assert np.mean(steps) <= 2


def test_a_piece_read_solves_each_active_pattern_once(monkeypatch):
    # each active-set step of _x_star solves its new pattern's affine piece
    # and x_star_piece returns the last one: a read that took k >= 1 steps
    # makes k reduced solves, and one whose clamped start was exact makes one
    from ppdgd import dynamics

    solve, piece_of = np.linalg.solve, dynamics.x_star_piece
    solves, reads = [0], []

    def counting_solve(*args):
        solves[0] += 1
        return solve(*args)

    def spy_piece(P, lam):
        before = solves[0]
        out = piece_of(P, lam)
        reads.append((solves[0] - before, _x_star(P, lam)[1]))
        return out

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(dynamics, "x_star_piece", spy_piece)
    rng = np.random.default_rng([20240811, 3])   # the boxed_dense benchmark's draws
    for _ in range(9):
        R = random_problem(rng, free_x=True)
        P = build_problem(R.f, R.h, R.A, R.B, R.C,
                          BoxSet.box(-np.ones(R.n), np.ones(R.n)), R.Omega)
        assert P.inner_mode == "box_dense"
        integrate(P, State(y=np.zeros(P.m), lam=np.zeros(P.p)),
                  IntegratorConfig(dt=2e-3, t_end=2.0))
    assert all(made == max(steps, 1) for made, steps in reads), reads
    assert sum(steps > 0 for _, steps in reads) >= 10, reads   # 14 of 20 reads


def test_solve_inner_deterministic(case_problem):
    lam = np.linspace(-1, 1, case_problem.p)
    a = solve_inner(case_problem, lam)
    b = solve_inner(case_problem, lam)
    assert a.x_star.tobytes() == b.x_star.tobytes()
    assert a.phi == b.phi


def test_grad_phi_matches_finite_differences():
    rng = np.random.default_rng(4)
    n, p = 5, 3
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    H = (Q * rng.uniform(0.5, 2.0, size=n)) @ Q.T
    A = rng.normal(size=(p, n))
    P = make_problem(H, rng.normal(size=n), A, BoxSet.free(n), m=p)
    lam = rng.normal(size=p)
    grad = solve_inner(P, lam).grad_phi
    eps = 1e-6
    for i in range(p):
        e = np.zeros(p)
        e[i] = eps
        fd = (solve_inner(P, lam + e).phi - solve_inner(P, lam - e).phi) / (2 * eps)
        assert abs(grad[i] - fd) <= 1e-4


def test_phi_concave_along_segments():
    rng = np.random.default_rng(9)
    P = make_problem(np.diag([1.0, 2.0, 0.7]), rng.normal(size=3),
                     rng.normal(size=(2, 3)), BoxSet.free(3), m=2)
    for _ in range(20):
        l1 = rng.normal(size=2)
        l2 = rng.normal(size=2)
        t = rng.uniform(0.1, 0.9)
        mid = solve_inner(P, t * l1 + (1 - t) * l2).phi
        chord = t * solve_inner(P, l1).phi + (1 - t) * solve_inner(P, l2).phi
        assert mid >= chord - 1e-10


def test_strong_concavity_margin_identity_exact_zero():
    P = make_problem(np.eye(2), np.zeros(2), np.eye(2), BoxSet.free(2))
    margin = strong_concavity_check(P, np.array([1.0, -2.0]), np.array([0.5, 0.3]))
    assert margin == 0.0


def test_strong_concavity_margin_equals_dual_hessian_quadratic():
    rng = np.random.default_rng(21)
    n, p = 4, 2
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    H = (Q * rng.uniform(0.5, 3.0, size=n)) @ Q.T
    A = rng.normal(size=(p, n))
    P = make_problem(H, rng.normal(size=n), A, BoxSet.free(n), m=p)
    dual_hess = A @ np.linalg.solve(H, A.T)
    lam = rng.normal(size=p)
    eps = 1e-3
    e1 = np.array([eps, 0.0])
    margin = strong_concavity_check(P, lam + e1, lam)
    expected = eps**2 * (P.kappa1 / P.alpha_m - dual_hess[0, 0])
    assert margin == pytest.approx(expected, rel=1e-8, abs=1e-15)
    assert margin <= 1e-8


def test_strong_concavity_sampled_property():
    rng = np.random.default_rng(100)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        p = int(rng.integers(1, n + 1))
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        H = (Q * rng.uniform(0.3, 4.0, size=n)) @ Q.T
        while True:
            A = rng.normal(size=(p, n))
            ge = np.linalg.eigvalsh(A @ A.T)
            if ge[0] > 1e-6 * ge[-1]:
                break
        P = make_problem(H, rng.normal(size=n), A, BoxSet.free(n), m=p)
        l1 = rng.normal(size=p) * 3
        l2 = rng.normal(size=p) * 3
        if np.array_equal(l1, l2):
            continue
        assert strong_concavity_check(P, l1, l2) <= 1e-8
