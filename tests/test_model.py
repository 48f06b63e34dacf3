import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppdgd import (
    BoxSet,
    DimensionMismatch,
    NonCompactOmega,
    NonFiniteInput,
    NotStronglyConvex,
    PiecewiseScalarFn,
    QuadraticSmoothFn,
    RankDeficient,
    build_problem,
    clarke_interval,
)
from ppdgd.model import SeparablePiecewise
from ppdgd.random_problems import random_piecewise


def quad(p):
    return PiecewiseScalarFn.quadratic(p)


def test_identity_instance_constants(identity_problem):
    P = identity_problem
    assert P.alpha == 1.0
    assert P.alpha_m == 1.0
    assert P.beta == 1.0
    assert P.kappa1 == pytest.approx(1.0, abs=1e-12)
    assert P.gamma == pytest.approx(2.0, abs=1e-12)


def test_kappa1_single_row():
    # A = [[1, 1]] gives A A' = [2]
    P = build_problem(
        QuadraticSmoothFn(np.eye(2), np.zeros(2)),
        [quad(0.5)],
        np.array([[1.0, 1.0]]),
        np.array([[1.0]]),
        np.zeros(1),
        BoxSet.free(2),
        BoxSet.box([-1.0], [1.0]),
    )
    assert P.kappa1 == pytest.approx(2.0, abs=1e-12)


def test_case_study_constants(case_problem):
    P = case_problem
    assert P.alpha_m == pytest.approx(8.0)
    assert P.beta == 1.0
    assert P.kappa1 == pytest.approx(0.1165**2, abs=1e-9)
    assert P.gamma == pytest.approx(min(2.0, 2 * 0.1165**2 / 8), abs=1e-9)
    assert P.gamma == pytest.approx(0.00339, abs=1e-5)


def test_rank_deficient_rejected():
    A = np.array([[1.0, 0.0], [2.0, 0.0]])  # rank 1
    with pytest.raises(RankDeficient):
        build_problem(
            QuadraticSmoothFn(np.eye(2), np.zeros(2)),
            [quad(0.5), quad(0.5)],
            A,
            np.eye(2),
            np.zeros(2),
            BoxSet.free(2),
            BoxSet.box([-1.0, -1.0], [1.0, 1.0]),
        )


def test_free_omega_rejected():
    with pytest.raises(NonCompactOmega):
        build_problem(
            QuadraticSmoothFn(np.eye(1), np.zeros(1)),
            [quad(0.5)],
            np.eye(1),
            np.eye(1),
            np.zeros(1),
            BoxSet.free(1),
            BoxSet.free(1),
        )


def test_indefinite_hessian_rejected():
    with pytest.raises(NotStronglyConvex):
        QuadraticSmoothFn(np.diag([1.0, -0.5]), np.zeros(2))


def test_flat_piece_rejected():
    with pytest.raises(NotStronglyConvex):
        PiecewiseScalarFn(np.array([0.0]), np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0]]))


def test_discontinuous_pieces_rejected():
    # value jumps by 1 at the breakpoint
    with pytest.raises(NotStronglyConvex):
        PiecewiseScalarFn(np.array([0.0]), np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 1.0]]))


def test_concave_kink_rejected():
    # derivative drops from +1 to -1 at 0
    with pytest.raises(NotStronglyConvex):
        PiecewiseScalarFn(np.array([0.0]), np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        build_problem(
            QuadraticSmoothFn(np.eye(2), np.zeros(2)),
            [quad(0.5)],
            np.array([[1.0, 1.0]]),
            np.array([[1.0, 1.0]]),  # B should be 1x1
            np.zeros(1),
            BoxSet.free(2),
            BoxSet.box([-1.0], [1.0]),
        )


def test_clarke_interval_kinked_cost(kinked_cost):
    assert clarke_interval(kinked_cost, 0.0) == (0.0, 0.0)
    assert clarke_interval(kinked_cost, 0.2) == (0.2, 0.4)
    assert clarke_interval(kinked_cost, -0.2) == (-0.4, -0.2)
    lo, hi = clarke_interval(kinked_cost, 0.3)
    assert lo == hi == pytest.approx(0.6)


def test_kinked_cost_value_continuity(kinked_cost):
    assert kinked_cost.value(0.2) == pytest.approx(0.02, abs=1e-15)
    assert kinked_cost.value(-0.2) == pytest.approx(0.02, abs=1e-15)
    assert kinked_cost.beta == 1.0


def test_subdifferential_monotonicity_on_grid(kinked_cost):
    # (g1 - g2)(s1 - s2) >= beta (s1 - s2)^2 for all interval endpoints
    grid = np.linspace(-0.6, 0.6, 41)
    beta = kinked_cost.beta
    for s1 in grid:
        for s2 in grid:
            for g1 in clarke_interval(kinked_cost, s1):
                for g2 in clarke_interval(kinked_cost, s2):
                    lhs = (g1 - g2) * (s1 - s2)
                    assert lhs >= beta * (s1 - s2) ** 2 - 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_piecewise_monotonicity(seed):
    rng = np.random.default_rng(seed)
    fn = random_piecewise(rng, -1.5, 1.5, int(rng.integers(0, 4)))
    grid = np.linspace(-1.5, 1.5, 23)
    beta = fn.beta
    assert beta > 0
    for s1 in grid:
        for s2 in grid:
            for g1 in fn.clarke(s1):
                for g2 in fn.clarke(s2):
                    assert (g1 - g2) * (s1 - s2) >= beta * (s1 - s2) ** 2 - 1e-12


def test_gamma_matches_fresh_recomputation():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        p = int(rng.integers(1, n + 1))
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eigs = rng.uniform(0.2, 5.0, size=n)
        H = (Q * eigs) @ Q.T
        while True:
            A = rng.normal(size=(p, n))
            ge = np.linalg.eigvalsh(A @ A.T)
            if ge[0] > 1e-6 * ge[-1]:
                break
        betas = rng.uniform(0.1, 4.0, size=2)
        P = build_problem(
            QuadraticSmoothFn(H, rng.normal(size=n)),
            [quad(0.5 * b) for b in betas],
            A,
            rng.normal(size=(p, 2)),
            rng.normal(size=p),
            BoxSet.free(n),
            BoxSet.box([-1.0, -1.0], [1.0, 1.0]),
        )
        expected = min(
            2.0 * np.min(betas),
            2.0 * np.linalg.eigvalsh(A @ A.T)[0] / np.linalg.eigvalsh(H)[-1],
        )
        assert P.gamma == pytest.approx(expected, rel=1e-10)


def test_piece_index_convention(kinked_cost):
    # pieces cover (b_{k-1}, b_k]: the breakpoint itself belongs to the left piece
    assert kinked_cost.piece_index(-0.3) == 0
    assert kinked_cost.piece_index(-0.2) == 0
    assert kinked_cost.piece_index(0.0) == 1
    assert kinked_cost.piece_index(0.2) == 1
    assert kinked_cost.piece_index(0.21) == 2


def test_box_validation():
    with pytest.raises(DimensionMismatch):
        BoxSet.box([0.0, 1.0], [1.0, 0.0])
    with pytest.raises(NonCompactOmega):
        BoxSet.box([0.0], [np.inf])
    S = BoxSet.box([-1.0, 0.0], [1.0, 0.0])  # degenerate coordinate allowed
    assert S.contains(np.array([0.0, 0.0]))
    assert not S.contains(np.array([0.0, 0.5]))


def test_packed_clarke_and_selection_match_scalar_clarke():
    # rows with 0, 1 and 3 kinks, so the 0- and 1-kink rows carry padding
    rng = np.random.default_rng(2024)
    fns = [random_piecewise(rng, -1.0, 1.0, k) for k in (0, 1, 3, 3, 0, 1)]
    pack = SeparablePiecewise(fns)
    bounds = np.array([-1.0, 1.0])
    candidates = []
    for fn in fns:
        bp = fn.breakpoints
        edges = np.concatenate([bounds[:1], bp, bounds[1:]])
        pts = [bounds, 0.5 * (edges[:-1] + edges[1:]),
               bp, np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf)]
        candidates.append(np.concatenate(pts))
    # every candidate of every row, beside candidates of the other rows, so the
    # vectors mix breakpoint hits with points on no breakpoint
    longest = max(c.size for c in candidates)
    ys = [np.array([c[(r + shift) % c.size] for c in candidates])
          for r in range(longest) for shift in (0, 1, 2)]
    ys += [np.array([rng.choice(c) for c in candidates]) for _ in range(50)]
    ys.append(np.array([c[2] for c in candidates]))   # interiors only: no row on a kink
    for y in ys:
        ref_lo, ref_hi = np.array([fn.clarke(s) for fn, s in zip(fns, y)]).T
        glo, ghi = pack.clarke(y)
        assert np.array_equal(glo, ref_lo) and np.array_equal(ghi, ref_hi)
        for target in (ref_lo - 1.0, 0.5 * (ref_lo + ref_hi), ref_hi + 1.0,
                       np.where(rng.random(y.size) < 0.5, ref_lo - 1.0, ref_hi + 1.0)):
            assert np.array_equal(pack.select(y, target), np.clip(target, ref_lo, ref_hi))


def _scalar_prox(fn, v, t, lo, hi):
    """Brute force: each piece's stationary point clamped to piece and box, and both bounds."""
    edges = np.concatenate([[-np.inf], fn.breakpoints, [np.inf]])
    cands = [lo, hi]
    for (p, q, _), left, right in zip(fn.coeffs, edges[:-1], edges[1:]):
        a, b = max(left, lo), min(right, hi)
        if a <= b:
            cands.append(min(max((v - t * q) / (1.0 + t * (2.0 * p)), a), b))
    return min(cands, key=lambda s: fn.value(s) + (s - v) ** 2 / (2.0 * t))


def test_packed_prox_matches_scalar_reference():
    # rows with 0, 1 and 3 kinks; row 2's box cuts off its outer kinks, and
    # rows 4 and 5 are single points (one on a kink)
    rng = np.random.default_rng(77)
    fns = [random_piecewise(rng, -1.0, 1.0, k) for k in (0, 1, 3, 3, 0, 1)]
    pack = SeparablePiecewise(fns)
    lo = np.array([-1.0, -1.0, -0.3, -1.0, 0.25, fns[5].breakpoints[0]])
    hi = np.array([1.0, 1.0, 0.3, 1.0, 0.25, fns[5].breakpoints[0]])
    candidates = []
    for fn, a, b in zip(fns, lo, hi):
        bp = fn.breakpoints
        pts = [np.array([a, b, a - 0.7, b + 0.7, 0.5 * (a + b)]),
               bp, np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf)]
        candidates.append(np.concatenate(pts))
    longest = max(c.size for c in candidates)
    vs = [np.array([c[(r + shift) % c.size] for c in candidates])
          for r in range(longest) for shift in (0, 1, 2)]
    vs += [rng.uniform(-1.5, 1.5, size=len(fns)) for _ in range(30)]
    for t in (1e-6, 1.0, 1e6):
        for v in vs:
            ref = [_scalar_prox(fn, vj, t, a, b) for fn, vj, a, b in zip(fns, v, lo, hi)]
            assert np.array_equal(pack.prox(v, t, lo, hi), ref), (t, v)


@pytest.mark.parametrize("H", [np.diag([1e308, 1e308]), np.array([[1e308, 1e307], [1e307, 1e308]])])
def test_huge_hessian_entries_keep_finite_constants(H):
    # H + H.T would overflow to inf here
    f = QuadraticSmoothFn(H, np.zeros(2))
    assert np.array_equal(f.H, H)
    assert np.allclose([f.alpha, f.alpha_m], np.linalg.eigvalsh(H / 1e308) * 1e308, rtol=1e-12)


@pytest.mark.parametrize("H, message", [
    # positive definite, but eigvalsh returns 0.0 for the small eigenvalue
    (np.diag([1e308, 1e-300]), "H is singular to working precision (eigenvalues 0.0..1e+308)"),
    (np.array([[1.0, 1.0], [1.0, 1.0]]), "H is singular to working precision (eigenvalues "),
    (np.diag([1.0, -1.0]), "H is not positive definite (min eigenvalue -1.0)"),
])
def test_nonpositive_hessian_message_tells_singular_from_indefinite(H, message):
    with pytest.raises(NotStronglyConvex) as info:
        QuadraticSmoothFn(H, np.zeros(2))
    assert str(info.value).startswith(message)


def test_hessian_with_infinite_eigenvalue_raises_naming_h():
    H = np.array([[1.5e308, 1e308], [1e308, 1.5e308]])
    with pytest.raises(NonFiniteInput, match=r"^H "):
        QuadraticSmoothFn(H, np.zeros(2))


def _build_with(name=None, bad=None):
    """A valid 2x2 instance built from Python, with the last entry of array name set to bad."""
    arrays = {
        "H": np.array([[2.0, 0.5], [0.5, 1.0]]), "c": np.array([0.1, -0.2]), "d": np.array(0.0),
        "breakpoints": np.array([0.0]), "coeffs": np.array([[0.5, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        "A": np.array([[1.0, 0.0], [0.3, 1.0]]), "B": np.array([[1.0, 0.0], [0.0, -1.0]]),
        "C": np.array([0.2, -0.1]),
    }
    if name is not None:
        arrays[name][(-1,) * arrays[name].ndim] = bad
    f = QuadraticSmoothFn(arrays["H"], arrays["c"], arrays["d"])
    h = [PiecewiseScalarFn(arrays["breakpoints"], arrays["coeffs"]), quad(0.5)]
    return build_problem(f, h, arrays["A"], arrays["B"], arrays["C"],
                         BoxSet.free(2), BoxSet.box([-1.0, -1.0], [1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["H", "c", "d", "breakpoints", "coeffs", "A", "B", "C"])
def test_non_finite_array_raises_naming_the_argument(name, bad):
    _build_with()
    with pytest.raises(NonFiniteInput, match=rf"^{name}\["):
        _build_with(name, bad)
