"""Euclidean projection and cone queries for boxes.

Every query works on the bounds alone: a free set is the box [-inf, inf]^n,
whose clamp is the identity and which has no active face.

The tangent-cone projection uses the exact componentwise rule for boxes
(outward components removed at active faces). The finite-difference limit
formula P(y + delta v) - y over delta is kept as an independent oracle for
validating that rule, including configurations with several active faces.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, PointOutsideSet
from .model import ACTIVITY_TOL, MEMBER_TOL, BoxSet


def _check_dim(v: np.ndarray, S: BoxSet, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (S.dim,):
        raise DimensionMismatch(f"{name} has shape {v.shape}, expected ({S.dim},)")
    return v


def _check_member(y: np.ndarray, S: BoxSet):
    viol = S.violation(y)
    if not viol <= MEMBER_TOL:   # a NaN coordinate fails too
        raise PointOutsideSet(f"point violates the box by {viol:.3e}")


def project_box(v, S: BoxSet) -> np.ndarray:
    """Euclidean projection onto S: componentwise clamp."""
    return np.clip(_check_dim(v, S, "v"), S.lo, S.hi)


def clip_pattern(v: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Which bound clip(v, lo, hi) takes per entry, and the bracket of that choice.

    Returns (at_lo, at_hi, lower, upper). clip(w, lo, hi) takes the same
    bound, or w itself, for every w with lower < w <= upper: the bracket is
    (-inf, lo] at lo, (hi, inf] at hi and (lo, hi] in between. Where no
    entry is clipped, lower and upper are lo and hi themselves.
    """
    at_lo = v <= lo
    at_hi = ~at_lo & (v > hi)
    if not np.count_nonzero(at_lo | at_hi):   # most mode reads of integrate
        return at_lo, at_hi, lo, hi
    lower = np.where(at_lo, -np.inf, np.where(at_hi, hi, lo))
    upper = np.where(at_lo, lo, np.where(at_hi, np.inf, hi))
    return at_lo, at_hi, lower, upper


def active_faces(y, S: BoxSet):
    """Masks of the lower and upper faces of the box S that are active at y."""
    return y <= S.lo + ACTIVITY_TOL, y >= S.hi - ACTIVITY_TOL


def tangent_rule(v, at_lo, at_hi) -> np.ndarray:
    """Componentwise tangent-cone projection of v given the active-face masks (unchecked)."""
    out = np.where(at_lo, np.maximum(0.0, v), v)
    return np.where(at_hi, np.minimum(0.0, out), out)


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
