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


def active_faces(y, S: BoxSet):
    """Masks of the lower and upper faces of the box S that are active at y."""
    return y <= S.lo + ACTIVITY_TOL, y >= S.hi - ACTIVITY_TOL


def tangent_rule(v, at_lo, at_hi) -> np.ndarray:
    """Componentwise tangent-cone projection of v given the active-face masks (unchecked)."""
    out = np.where(at_lo, np.maximum(0.0, v), v)
    return np.where(at_hi, np.minimum(0.0, out), out)
