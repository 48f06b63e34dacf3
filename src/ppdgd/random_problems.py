"""Random well-conditioned instances for stress testing and property checks.

The generator keeps every structural assumption comfortably satisfied (SPD
smooth Hessian, full-row-rank coupling with a controlled dual spectrum,
strongly convex kinked costs built by integrating a piecewise-linear
increasing derivative) so that trajectories converge within a few tens of
time units and certified rates have real margin.
"""

from __future__ import annotations

import numpy as np

from .model import BoxSet, PiecewiseScalarFn, Problem, QuadraticSmoothFn, build_problem

MAX_KINKS = 3   # each h_j gets 0..MAX_KINKS breakpoints


def random_piecewise(rng, lo: float, hi: float, n_kinks: int) -> PiecewiseScalarFn:
    """Convex piecewise quadratic with n_kinks upward derivative jumps in (lo, hi).

    Built by integrating a piecewise-linear increasing derivative, so value
    continuity at the breakpoints is exact by construction.
    """
    width = hi - lo
    if n_kinks == 0:
        bps = np.empty(0)
    else:
        inner_lo, inner_hi = lo + 0.2 * width, hi - 0.2 * width
        bps = np.sort(rng.uniform(inner_lo, inner_hi, size=n_kinks))
        while np.any(np.diff(bps) < 0.05 * width):
            bps = np.sort(rng.uniform(inner_lo, inner_hi, size=n_kinks))
    curvs = rng.uniform(1.0, 2.5, size=n_kinks + 1)
    jumps = rng.uniform(0.05, 0.25, size=n_kinks)
    d0 = rng.uniform(-0.5, 0.5)

    pieces = np.zeros((n_kinks + 1, 3))
    anchor = bps[0] if n_kinks else 0.5 * (lo + hi)
    pieces[0] = (0.5 * curvs[0], d0 - curvs[0] * anchor, 0.0)
    for k in range(n_kinks):
        b = bps[k]
        pl, ql, rl = pieces[k]
        val = pl * b * b + ql * b + rl
        d_right = 2.0 * pl * b + ql + jumps[k]
        pr = 0.5 * curvs[k + 1]
        qr = d_right - curvs[k + 1] * b
        pieces[k + 1] = (pr, qr, val - pr * b * b - qr * b)
    return PiecewiseScalarFn(bps, pieces)


def random_problem(rng, max_dim: int = 10, free_x: bool = True) -> Problem:
    """Random instance with m, n, p <= max_dim and a random box Omega.

    The coupling A is rescaled so the dual Hessian A H^-1 A' has its smallest
    eigenvalue in [0.8, 1.2]; B gets singular values in [0.5, 1.2] with
    p <= m, which keeps every multiplier mode coupled to y and the actual
    decay strictly above the certified bound.
    """
    n = int(rng.integers(2, max_dim + 1))
    m = int(rng.integers(2, max_dim + 1))
    p = int(rng.integers(1, min(n, m) + 1))

    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    H = (Q * rng.uniform(0.8, 3.0, size=n)) @ Q.T
    if not free_x:
        H = np.diag(rng.uniform(0.8, 3.0, size=n))
    c = rng.normal(size=n)

    while True:
        A = rng.normal(size=(p, n))
        ge = np.linalg.eigvalsh(A @ A.T)
        if ge[0] > 0.05 * ge[-1]:
            break
    dual_min = np.linalg.eigvalsh(A @ np.linalg.solve(H, A.T))[0]
    A *= np.sqrt(rng.uniform(0.8, 1.2) / dual_min)

    U, _, Vt = np.linalg.svd(rng.normal(size=(p, m)), full_matrices=False)
    B = (U * rng.uniform(0.5, 1.2, size=p)) @ Vt

    lo = rng.uniform(-2.0, -0.5, size=m)
    hi = rng.uniform(0.5, 2.0, size=m)
    h = [random_piecewise(rng, lo[j], hi[j], int(rng.integers(0, MAX_KINKS + 1)))
         for j in range(m)]

    xbar = rng.normal(size=n)
    ybar = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))
    C = A @ xbar + B @ ybar + 0.1 * rng.normal(size=p)

    X = BoxSet.free(n) if free_x else BoxSet.box(np.full(n, -5.0), np.full(n, 5.0))
    return build_problem(QuadraticSmoothFn(H, c), h, A, B, C, X, BoxSet.box(lo, hi))


def kink_distance(P: Problem, y: np.ndarray) -> float:
    """Smallest distance from any coordinate of y to a breakpoint of its cost."""
    # padding breakpoints are +inf, so they never come nearest
    return float(np.min(np.abs(P.hpack.bp - y[:, None]), initial=np.inf))
