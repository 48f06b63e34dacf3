"""Reference computations that only the tests use.

Each one checks the package from outside its own code path: the clamp
projection and its finite-difference tangent limit against the exact
tangent-cone rule, the normal-cone test, the subgradient selection, the
quadratic Lyapunov distance and the dual strong-concavity margin.
"""

from __future__ import annotations

import numpy as np

from ppdgd import solve_inner
from ppdgd.analysis import Equilibrium
from ppdgd.geometry import _check_dim, _check_member, active_faces, tangent_rule
from ppdgd.model import ACTIVITY_TOL, BoxSet, Problem


def project_box(v, S: BoxSet) -> np.ndarray:
    """Euclidean projection onto S: componentwise clamp."""
    return np.clip(_check_dim(v, S, "v"), S.lo, S.hi)


def tangent_project(y, v, S: BoxSet) -> np.ndarray:
    """Project direction v onto the tangent cone of S at y (y must lie in S).

    Componentwise: max(0, v_j) at an active lower bound, min(0, v_j) at an
    active upper bound, 0 where lo_j = hi_j, v_j otherwise. Activity is
    detected within ACTIVITY_TOL.
    """
    y = _check_dim(y, S, "y")
    v = _check_dim(v, S, "v")
    _check_member(y, S)
    return tangent_rule(v, *active_faces(y, S))


def tangent_project_limit(y, v, S: BoxSet, delta: float = 1e-7) -> np.ndarray:
    """Finite-delta limit-formula oracle: (P(y + delta v) - y) / delta."""
    y = _check_dim(y, S, "y")
    v = _check_dim(v, S, "v")
    return (project_box(y + delta * v, S) - y) / delta


def normal_cone_contains(y, w, S: BoxSet) -> bool:
    """True iff w lies in the normal cone of S at y (within tol = ACTIVITY_TOL).

    Componentwise: |w_j| <= tol in the interior, w_j <= tol at a lower bound,
    w_j >= -tol at an upper bound, anything where lo_j = hi_j.
    """
    tol = ACTIVITY_TOL
    y = _check_dim(y, S, "y")
    w = _check_dim(w, S, "w")
    _check_member(y, S)
    at_lo, at_hi = active_faces(y, S)
    ok = np.where(at_lo & at_hi, True,
                  np.where(at_lo, w <= tol,
                           np.where(at_hi, w >= -tol, np.abs(w) <= tol)))
    return bool(np.all(ok))


def select_subgradient(P: Problem, y, lam) -> np.ndarray:
    """Minimal-norm selection from the generalized gradient of h at y.

    Componentwise clamp of the target -(B'lam)_j into the interval; at smooth
    points this reduces to the unique derivative, and when the target lies
    strictly inside a kink interval the corresponding drift component is
    exactly zero (sliding mode).
    """
    y = np.asarray(y, dtype=float)
    lam = np.asarray(lam, dtype=float)
    return P.hpack.select(y, -(P.Bt @ lam))


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
