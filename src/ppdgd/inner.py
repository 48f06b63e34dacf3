"""Inner minimization over x and the induced dual function.

For a multiplier lam the inner problem is min_{x in X} f(x) + lam'Ax; its
value is the dual function phi(lam) and its gradient is A x*(lam). One
solve serves every X, a free X being the box [-inf, inf]^n: a primal-dual
active-set iteration starts from the clamp into X of the unconstrained
minimizer x_base - dual_map @ lam, which the Problem caches, and ends with
an exact reduced solve on the final free set. Where no bound binds, H is
diagonal or X is free, that clamp is already exact and is returned as it
is. x_star_piece gives x*(lam) as one affine piece of lam around a
multiplier, with the rows on which that piece holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InnerSolveDiverged, NonFiniteState
from .geometry import project_box
from .model import Problem

KKT_TOL = 1e-10     # absolute bound on the fixed-point residual ||x - clip(x - g)||
STALL_STEPS = 2


@dataclass(frozen=True)
class InnerSolution:
    x_star: np.ndarray
    phi: float
    grad_phi: np.ndarray
    iterations: int
    residual: float


def _active_set_cap(n: int) -> int:
    """Guard on active-set steps; 30,000 random calls with cond(H) up to 1e8 took at most 9.5 n."""
    return 64 * n + 64


def _x_star(P: Problem, lam: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact minimizer x*(lam) of f(x) + lam'Ax over the box X, and the steps it took.

    Solves min 0.5 x'Hx + (c + A'lam)'x over lo <= x <= hi by a primal-dual
    active-set (semismooth Newton) iteration started from the clamped
    unconstrained minimizer, which is already exact when no bound binds,
    when H is diagonal and when X is free (every bound infinite): those
    return it at step 0.
    Each step pins the coordinates where x - g/alpha_m leaves the box and
    solves H_FF x_F = -(lin_F + H_FA x_A) exactly on the free ones; the
    1/alpha_m scaling of that test cycles far less often than unit scaling.

    x is returned once its residual ||x - clip(x - g)|| is at most KKT_TOL,
    or once, after at least one reduced solve, the next pattern equals the
    current one (the stop rule of Hintermueller, Ito and Kunisch): x then
    solves its own pattern's reduced system with multipliers of the right
    sign, a KKT point up to roundoff even where KKT_TOL is below roundoff.
    Block steps can cycle when H is ill-conditioned, so once STALL_STEPS of
    them in a row fail to lower the number of coordinates that change status,
    every later step changes only the first of them: least-index single
    pivots, finite for a positive definite H (Judice and Pires). Raises
    NonFiniteState before the first step when lam is not finite, and
    InnerSolveDiverged on reaching _active_set_cap(n) steps.
    """
    bad = ~np.isfinite(lam)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFiniteState(f"lam[{i}] = {lam[i]} is not finite; the inner solve needs it finite")
    H, lo, hi = P.f.H, P.X.lo, P.X.hi
    lin = P.f.c + P.A.T @ lam
    x = np.minimum(np.maximum(P.x_base - P.dual_map @ lam, lo), hi)
    free = (x > lo) & (x < hi)
    pinned = np.where(free, 0.0, x)
    inv_am = 1.0 / P.alpha_m
    cap = _active_set_cap(P.n)
    fewest, stalled = P.n + 1, 0
    for it in range(cap + 1):
        g = H @ x + lin
        residual = float(np.linalg.norm(x - np.minimum(np.maximum(x - g, lo), hi)))
        if residual <= KKT_TOL:
            return x, it
        v = x - inv_am * g
        free_next = (v > lo) & (v < hi)
        pinned_next = np.where(free_next, 0.0, np.minimum(np.maximum(v, lo), hi))
        changed = (free_next != free) | (pinned_next != pinned)
        count = np.count_nonzero(changed)
        if count == 0 and it > 0:   # the pattern repeats
            return x, it
        if it == cap:
            raise InnerSolveDiverged(f"active-set solve hit {cap} steps, residual {residual:.3e}")
        if stalled < STALL_STEPS:   # once block steps stall, single pivots for good
            fewest, stalled = (count, 0) if count < fewest else (fewest, stalled + 1)
        if stalled >= STALL_STEPS:
            first = np.arange(P.n) == np.argmax(changed)
            free_next = np.where(first, free_next, free)
            pinned_next = np.where(first, pinned_next, pinned)
        free, pinned = free_next, pinned_next
        # identity rows and columns at the pinned coordinates reduce this to
        # H_FF x_F = -(lin_F + H_FA x_A)
        M = np.where(free[:, None] & free, H, np.eye(P.n))
        x = np.where(free, np.linalg.solve(M, np.where(free, -(lin + H @ pinned), 0.0)), pinned)


def x_star_piece(P: Problem, lam: np.ndarray):
    """Affine piece of x*(lam) at lam, and the rows on which it holds.

    Returns (x0, X1, T0, T1, lower, upper): x*(l) = x0 + X1 l for every l
    with lower < T0 + T1 l <= upper, lam among them. The piece is the active
    pattern of _x_star's x, with H_FF x_F = -(c_F + A_F'l + H_FA x_A) solved
    exactly on the free coordinates. Its rows are the free coordinates,
    inside the box, and the gradient at the bound ones, of the sign that
    keeps the bound (any sign where lo = hi), each up to KKT_TOL. Rows whose
    bracket is (-inf, inf] test nothing and are left out, so a free X has
    none.
    """
    lo, hi, H = P.X.lo, P.X.hi, P.f.H
    x, _ = _x_star(P, lam)
    at_lo = x <= lo
    at_hi = ~at_lo & (x >= hi)
    free = ~(at_lo | at_hi)
    pinned = np.where(at_lo, lo, np.where(at_hi, hi, 0.0))
    # identity rows and columns at the pinned coordinates, as in _x_star
    reduced = np.where(free[:, None] & free, H, np.eye(P.n))
    rhs = np.where(free[:, None], -np.column_stack([P.f.c + H @ pinned, P.A.T]), 0.0)
    sol = np.linalg.solve(reduced, rhs)
    x0 = np.where(free, sol[:, 0], pinned)
    X1 = np.where(free[:, None], sol[:, 1:], 0.0)
    T0 = np.where(free, x0, H @ x0 + P.f.c)
    T1 = np.where(free[:, None], X1, H @ X1 + P.A.T)
    # as loose as the residual test of _x_star, so that the piece holds at
    # every lam whose x that test accepts
    lower = np.where(free, lo - KKT_TOL, np.where(at_hi | (lo == hi), -np.inf, -KKT_TOL))
    upper = np.where(free, hi + KKT_TOL, np.where(at_hi, KKT_TOL, np.inf))
    tests = (lower > -np.inf) | (upper < np.inf)
    return x0, X1, T0[tests], T1[tests], lower[tests], upper[tests]


def _grad_phi(P: Problem, lam: np.ndarray) -> np.ndarray:
    """Dual gradient A x*(lam) without the full InnerSolution."""
    return P.A.dot(_x_star(P, lam)[0])


def solve_inner(P: Problem, lam) -> InnerSolution:
    """Solve the inner minimization at lam and evaluate phi and its gradient.

    Raises DimensionMismatch on a lam of the wrong shape and NonFiniteState
    on one that is not finite.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (P.p,):
        raise DimensionMismatch(f"lambda has shape {lam.shape}, expected ({P.p},)")
    x, iterations = _x_star(P, lam)
    g = P.f.grad(x) + P.A.T @ lam
    residual = float(np.linalg.norm(x - project_box(x - g, P.X)))
    ax = P.A @ x
    phi = P.f.value(x) + float(lam @ ax)
    return InnerSolution(x_star=x, phi=phi, grad_phi=ax, iterations=iterations, residual=residual)


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
