"""Clip patterns, active faces and tangent-cone projection for boxes.

Every query works on the bounds alone: a free set is the box [-inf, inf]^n,
whose clamp is the identity and which has no active face.

The tangent-cone projection uses the exact componentwise rule for boxes
(outward components removed at active faces).
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
