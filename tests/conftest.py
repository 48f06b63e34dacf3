import numpy as np
import pytest

from ppdgd import (
    BoxSet,
    PiecewiseScalarFn,
    QuadraticSmoothFn,
    build_problem,
)
from ppdgd.casestudy import build_case, regulation_cost


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
