import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppdgd import (
    BoxSet,
    DimensionMismatch,
    IntegratorConfig,
    PiecewiseScalarFn,
    PointOutsideSet,
    QuadraticSmoothFn,
    State,
    TerminationReason,
    Trajectory,
    build_problem,
    rhs,
)
from ppdgd.analysis import omega_invariant

from oracles import normal_cone_contains, project_box, tangent_project, tangent_project_limit

boxes = st.integers(1, 5).flatmap(
    lambda d: st.tuples(
        st.lists(st.floats(-5.0, 4.0), min_size=d, max_size=d),
        st.lists(st.floats(0.0, 5.0), min_size=d, max_size=d),
    )
).map(lambda t: BoxSet.box(np.array(t[0]), np.array(t[0]) + np.array(t[1])))


def vectors(dim, bound=10.0):
    return st.lists(st.floats(-bound, bound), min_size=dim, max_size=dim).map(np.array)


def random_member(rng, S):
    """Point in S with a mix of exact-face and interior coordinates."""
    y = rng.uniform(S.lo, S.hi)
    for j in range(S.dim):
        u = rng.random()
        if u < 0.25:
            y[j] = S.lo[j]
        elif u < 0.5:
            y[j] = S.hi[j]
    return y


def test_projection_of_member_is_identity():
    S = BoxSet.box([-1.0, -2.0], [1.0, 2.0])
    v = np.array([0.3, -1.5])
    assert np.array_equal(project_box(v, S), v)


def test_projection_clamps():
    S = BoxSet.box([-1.0, -1.0], [1.0, 1.0])
    assert np.array_equal(project_box(np.array([2.0, -3.0]), S), np.array([1.0, -1.0]))


def test_projection_free_identity():
    S = BoxSet.free(3)
    v = np.array([5.0, -7.0, 0.0])
    assert np.array_equal(project_box(v, S), v)


def test_projection_matches_grid_search():
    rng = np.random.default_rng(3)
    S = BoxSet.box([-1.0, -0.5], [0.8, 1.2])
    g1 = np.linspace(S.lo[0], S.hi[0], 201)
    g2 = np.linspace(S.lo[1], S.hi[1], 201)
    G = np.stack(np.meshgrid(g1, g2), axis=-1).reshape(-1, 2)
    for _ in range(20):
        v = rng.uniform(-3, 3, size=2)
        best = G[np.argmin(np.sum((G - v) ** 2, axis=1))]
        proj = project_box(v, S)
        # grid resolution limits agreement
        assert np.linalg.norm(proj - best) <= np.linalg.norm(g1[1] - g1[0]) + 1e-12


def test_projection_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        project_box(np.zeros(3), BoxSet.box([0.0], [1.0]))


def test_tangent_interior_unchanged():
    S = BoxSet.box([-1.0, -1.0], [1.0, 1.0])
    v = np.array([3.0, -2.0])
    assert np.array_equal(tangent_project(np.zeros(2), v, S), v)


def test_tangent_active_upper_removes_outward():
    S = BoxSet.box([-1.0, -1.0], [1.0, 1.0])
    out = tangent_project(np.array([1.0, 0.0]), np.array([3.0, 1.0]), S)
    assert np.array_equal(out, np.array([0.0, 1.0]))


def test_tangent_pinned_coordinate_is_zero():
    S = BoxSet.box([-1.0, 0.5], [1.0, 0.5])
    projected = tangent_project(np.array([0.0, 0.5]), np.array([1.0, 9.0]), S)
    assert projected[1] == 0.0


def test_tangent_rejects_outside_point():
    S = BoxSet.box([-1.0], [1.0])
    with pytest.raises(PointOutsideSet):
        tangent_project(np.array([1.1]), np.array([0.0]), S)


def test_tangent_matches_limit_formula_randomized():
    rng = np.random.default_rng(11)
    for _ in range(300):
        d = int(rng.integers(1, 6))
        lo = rng.uniform(-3, 0, size=d)
        hi = lo + rng.uniform(0.5, 3, size=d)
        S = BoxSet.box(lo, hi)
        y = random_member(rng, S)
        v = rng.uniform(-2, 2, size=d)
        exact = tangent_project(y, v, S)
        oracle = tangent_project_limit(y, v, S, delta=1e-7)
        assert np.max(np.abs(exact - oracle)) <= 1e-5


@settings(max_examples=60, deadline=None)
@given(boxes, st.integers(0, 2**32 - 1))
def test_tangent_idempotent(S, seed):
    rng = np.random.default_rng(seed)
    y = random_member(rng, S)
    v = rng.uniform(-4, 4, size=S.dim)
    once = tangent_project(y, v, S)
    assert np.array_equal(tangent_project(y, once, S), once)


@settings(max_examples=60, deadline=None)
@given(boxes, st.integers(0, 2**32 - 1))
def test_moreau_split_remainder_in_normal_cone(S, seed):
    rng = np.random.default_rng(seed)
    y = random_member(rng, S)
    v = rng.uniform(-4, 4, size=S.dim)
    remainder = v - tangent_project(y, v, S)
    assert normal_cone_contains(y, remainder, S)


@settings(max_examples=60, deadline=None)
@given(boxes, st.integers(0, 2**32 - 1))
def test_polarity_of_tangent_and_normal_cones(S, seed):
    rng = np.random.default_rng(seed)
    y = random_member(rng, S)
    v = rng.uniform(-4, 4, size=S.dim)
    tp = tangent_project(y, v, S)
    at_lo = y <= S.lo + 1e-9
    at_hi = y >= S.hi - 1e-9
    for _ in range(5):
        w = np.where(at_lo, -np.abs(rng.normal(size=S.dim)), 0.0)
        w = np.where(at_hi & ~at_lo, np.abs(rng.normal(size=S.dim)), w)
        assert normal_cone_contains(y, w, S)
        assert float(tp @ w) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(boxes, st.integers(0, 2**32 - 1))
def test_projection_residual_in_normal_cone(S, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-6, 6, size=S.dim)
    px = project_box(x, S)
    assert normal_cone_contains(px, x - px, S)


def test_normal_cone_basics():
    S = BoxSet.box([-1.0, -1.0], [1.0, 1.0])
    assert normal_cone_contains(np.array([0.3, -0.2]), np.zeros(2), S)
    assert not normal_cone_contains(np.array([0.3, -0.2]), np.array([0.1, 0.0]), S)
    # upper bound active in coordinate 0
    assert normal_cone_contains(np.array([1.0, 0.0]), np.array([0.5, 0.0]), S)
    assert not normal_cone_contains(np.array([1.0, 0.0]), np.array([-0.5, 0.0]), S)


def test_normal_cone_against_grid_inner_products():
    # w in N(y) iff <w, z - y> <= 0 for all z in S, checked over a grid
    S = BoxSet.box([-1.0, -1.0], [1.0, 1.0])
    g = np.linspace(-1, 1, 11)
    Z = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    rng = np.random.default_rng(5)
    for _ in range(50):
        y = random_member(rng, S)
        w = rng.uniform(-1, 1, size=2)
        grid_says = bool(np.all((Z - y) @ w <= 1e-12))
        assert normal_cone_contains(y, w, S) == grid_says


@pytest.mark.parametrize("offset, inside", [(0.5e-9, True), (2e-9, False)])
def test_one_membership_check_at_its_bound(offset, inside):
    # coordinate 1 is degenerate (lo == hi); each face is left by offset in turn
    S = BoxSet.box([-1.0, 0.5], [1.0, 0.5])
    P = build_problem(QuadraticSmoothFn(np.eye(2), np.zeros(2)),
                      [PiecewiseScalarFn.quadratic(0.5)] * 2,
                      np.eye(2), -np.eye(2), np.zeros(2), BoxSet.free(2), S)
    center = np.array([0.0, 0.5])
    for j in range(2):
        for y_j in (S.lo[j] - offset, S.hi[j] + offset):
            y = center.copy()
            y[j] = y_j
            assert S.violation(y) == pytest.approx(offset, abs=1e-15)
            assert S.contains(y) is inside
            traj = Trajectory(np.array([0.0, 1.0]), np.stack([center, y]), np.zeros((2, 2)),
                              np.zeros(2), IntegratorConfig(), TerminationReason.TIME_LIMIT)
            assert omega_invariant(P, traj) is inside
            if inside:
                rhs(P, State(y, np.zeros(2)))
            else:
                with pytest.raises(PointOutsideSet):
                    rhs(P, State(y, np.zeros(2)))
    free = BoxSet.free(2)
    assert free.violation(np.array([1e300, -1e300])) == 0.0
    assert free.contains(np.array([1e300, -1e300]))
    assert np.isnan(free.violation(np.array([np.nan, 0.0])))
    assert not free.contains(np.array([np.nan, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not free.contains(np.array([np.inf, 0.0]))
