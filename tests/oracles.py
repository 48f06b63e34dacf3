"""Reference computations that only the tests use.

Each one checks the package from outside its own code path: the clamp
projection and its finite-difference tangent limit against the exact
tangent-cone rule, the normal-cone test, the subgradient selection, the
quadratic Lyapunov distance and the dual strong-concavity margin. The face
test, the tangent rule and the selection are written here coordinate by
coordinate, from the scalar PiecewiseScalarFn.clarke, so they share no code
with the packed optimality interval that rhs and kkt_residual read.
"""

from __future__ import annotations

import numpy as np

from ppdgd import DimensionMismatch, PointOutsideSet, solve_inner
from ppdgd.analysis import Equilibrium
from ppdgd.model import ACTIVITY_TOL, MEMBER_TOL, BoxSet, Problem


def _vector(v, S: BoxSet, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (S.dim,):
        raise DimensionMismatch(f"{name} has shape {v.shape}, expected ({S.dim},)")
    return v


def _member(y, S: BoxSet) -> np.ndarray:
    """y as a vector of S; PointOutsideSet when a y_j leaves S by more than MEMBER_TOL."""
    y = _vector(y, S, "y")
    for j in range(S.dim):
        if not S.lo[j] - MEMBER_TOL <= y[j] <= S.hi[j] + MEMBER_TOL:
            raise PointOutsideSet(f"y[{j}] = {y[j]} is outside [{S.lo[j]}, {S.hi[j]}]")
    return y


def _faces(y, S: BoxSet, j: int) -> tuple[bool, bool]:
    """Whether y_j sits on the lower and on the upper face of S, within ACTIVITY_TOL."""
    return bool(y[j] - S.lo[j] <= ACTIVITY_TOL), bool(S.hi[j] - y[j] <= ACTIVITY_TOL)


def project_box(v, S: BoxSet) -> np.ndarray:
    """Euclidean projection onto S: componentwise clamp."""
    return np.clip(_vector(v, S, "v"), S.lo, S.hi)


def tangent_project(y, v, S: BoxSet) -> np.ndarray:
    """Project direction v onto the tangent cone of S at y (y must lie in S).

    Componentwise: max(0, v_j) at an active lower bound, min(0, v_j) at an
    active upper bound, 0 where lo_j = hi_j, v_j otherwise. Activity is
    detected within ACTIVITY_TOL.
    """
    y = _member(y, S)
    out = _vector(v, S, "v").copy()
    for j in range(S.dim):
        at_lo, at_hi = _faces(y, S, j)
        if at_lo:
            out[j] = max(0.0, out[j])
        if at_hi:
            out[j] = min(0.0, out[j])
    return out


def tangent_project_limit(y, v, S: BoxSet, delta: float = 1e-7) -> np.ndarray:
    """Finite-delta limit-formula oracle: (P(y + delta v) - y) / delta."""
    y = _vector(y, S, "y")
    v = _vector(v, S, "v")
    return (project_box(y + delta * v, S) - y) / delta


def normal_cone_contains(y, w, S: BoxSet) -> bool:
    """True iff w lies in the normal cone of S at y (within tol = ACTIVITY_TOL).

    Componentwise: |w_j| <= tol in the interior, w_j <= tol at a lower bound,
    w_j >= -tol at an upper bound, anything where lo_j = hi_j.
    """
    tol = ACTIVITY_TOL
    y = _member(y, S)
    w = _vector(w, S, "w")
    for j in range(S.dim):
        at_lo, at_hi = _faces(y, S, j)
        if at_lo and at_hi:
            continue
        if not (w[j] <= tol if at_lo else w[j] >= -tol if at_hi else abs(w[j]) <= tol):
            return False
    return True


def select_subgradient(P: Problem, y, lam) -> np.ndarray:
    """Minimal-norm selection from the generalized gradient of h at y.

    Componentwise clamp of the target -(B'lam)_j into the interval of each
    PiecewiseScalarFn.clarke; at smooth points this reduces to the unique
    derivative, and when the target lies strictly inside a kink interval the
    corresponding drift component is exactly zero (sliding mode).
    """
    y = np.asarray(y, dtype=float)
    target = -(P.Bt @ np.asarray(lam, dtype=float))
    intervals = [fn.clarke(s) for fn, s in zip(P.h, y.tolist())]
    return np.array([min(max(t, lo), hi) for t, (lo, hi) in zip(target.tolist(), intervals)])


def lyapunov_value(eq: Equilibrium, y, lam) -> float:
    """Quadratic distance measure 0.5||y - y*||^2 + 0.5||lam - lam*||^2."""
    dy = np.asarray(y, dtype=float) - eq.y_star
    dl = np.asarray(lam, dtype=float) - eq.lambda_star
    return float(0.5 * (dy @ dy) + 0.5 * (dl @ dl))


def strong_concavity_check(P: Problem, lam1, lam2) -> float:
    """Margin of the dual strong-concavity inequality for a pair of multipliers.

    Returns <lam1 - lam2, grad_phi(lam1) - grad_phi(lam2)> +
    (kappa1 / alpha_m) ||lam1 - lam2||^2, which is <= 0 (up to roundoff)
    whenever X is free. With an active box face the value is only monitored.
    """
    lam1 = np.asarray(lam1, dtype=float)
    lam2 = np.asarray(lam2, dtype=float)
    d = lam1 - lam2
    g1 = solve_inner(P, lam1).grad_phi
    g2 = solve_inner(P, lam2).grad_phi
    return float(d @ (g1 - g2) + (P.kappa1 / P.alpha_m) * (d @ d))
