"""Desk-scale voltage-control case on a radial feeder.

Seven controllable buses regulate reactive power q to pull voltages U toward
nominal: minimize (a/2)||U - 1||^2 plus a kinked per-bus regulation cost,
subject to the linearized feeder model B_net U = q + C and box limits on q.
The feeder sensitivity matrix is synthesized as a tridiagonal
second-difference line-graph matrix with positive off-diagonals, rescaled so
its smallest eigenvalue is 0.1165; published network data beyond that
eigenvalue, the cost weight a = 8, C, and the kVar limits are not needed for
any of the certified quantities.
"""

from __future__ import annotations

import numpy as np

from .model import BoxSet, PiecewiseScalarFn, Problem, QuadraticSmoothFn, build_problem

N_BUSES = 7
MIN_EIGENVALUE = 0.1165
Q_LIMITS_KVAR = np.array([80.0, 80.0, 88.0, 80.0, 104.0, 80.0, 96.0])
KVA_BASE = 100.0
C_DEFAULT = np.array([1.011, -0.009, -0.1, 0.14, -0.26, -0.019, -0.06])
A_DEFAULT = 8.0
COST_KINK = 0.2


def radial_feeder_matrix() -> np.ndarray:
    """Tridiagonal (1, 2, 1) line-graph matrix rescaled to lambda_min = MIN_EIGENVALUE."""
    off = np.ones(N_BUSES - 1)
    T = 2.0 * np.eye(N_BUSES) + np.diag(off, 1) + np.diag(off, -1)
    return (MIN_EIGENVALUE / np.linalg.eigvalsh(T)[0]) * T


def regulation_cost() -> PiecewiseScalarFn:
    """Per-bus reactive regulation cost: 0.5 q^2 inside |q| <= 0.2, q^2 - 0.02 outside."""
    return PiecewiseScalarFn(
        np.array([-COST_KINK, COST_KINK]),
        np.array([[1.0, 0.0, -0.02], [0.5, 0.0, 0.0], [1.0, 0.0, -0.02]]),
    )


def build_case() -> Problem:
    """Map the feeder data onto the generic structured problem.

    x = U (free), y = q in the box |q| <= Q_LIMITS_KVAR / KVA_BASE (per unit),
    A = B_net, B = -I, C = C_DEFAULT; the smooth cost is (a/2)||U - 1||^2 with
    a = A_DEFAULT and each h_j is the kinked regulation cost.
    """
    n, a = N_BUSES, A_DEFAULT
    q_hi = Q_LIMITS_KVAR / KVA_BASE
    f = QuadraticSmoothFn(a * np.eye(n), -a * np.ones(n), 0.5 * a * n)
    h = [regulation_cost() for _ in range(n)]
    return build_problem(
        f, h, radial_feeder_matrix(), -np.eye(n), C_DEFAULT.copy(),
        BoxSet.free(n), BoxSet.box(-q_hi, q_hi),
    )
