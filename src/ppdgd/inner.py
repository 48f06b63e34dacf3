"""Inner minimization over x and the induced dual function.

For a multiplier lam the inner problem is min_{x in X} f(x) + lam'Ax; its
value is the dual function phi(lam) and its gradient is A x*(lam). The
Problem caches the unconstrained minimizer x_base - dual_map @ lam, so every
inner_mode is exact to roundoff: with X free it is the answer; with a box and
diagonal H its componentwise clamp is; with a box and dense H a primal-dual
active-set solve starts from that clamp and ends with exact reduced solves,
falling back to projected gradient descent with fixed step 1/alpha_m only if
its steps do not settle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InnerSolveDiverged
from .geometry import project_box
from .model import Problem

PGD_TOL = 1e-10
PGD_MAX_ITER = 10_000
PGD_FAIL_RESIDUAL = 1e-6
STALL_STEPS = 2


@dataclass(frozen=True)
class InnerSolution:
    x_star: np.ndarray
    phi: float
    grad_phi: np.ndarray
    iterations: int
    residual: float


def _active_set_cap(n: int) -> int:
    """Most active-set steps tried before falling back to projected gradient."""
    return 4 * n + 4


def _box_dense_minimizer(P: Problem, lam: np.ndarray):
    """Exact minimizer of f(x) + lam'Ax over a box with dense H.

    Solves min 0.5 x'Hx + (c + A'lam)'x over lo <= x <= hi by a primal-dual
    active-set (semismooth Newton) iteration started from the clamped
    unconstrained minimizer, which is already exact when no bound binds.
    Each step pins the coordinates where x - g/alpha_m leaves the box and
    solves H_FF x_F = -(lin_F + H_FA x_A) exactly on the free ones; the
    1/alpha_m scaling of that test cycles far less often than unit scaling.
    Block steps can still cycle when H is ill-conditioned, so once
    STALL_STEPS of them in a row fail to lower the number of coordinates that
    change status, a step changes only the first of them (the least-index
    safeguard of Judice and Pires' block principal pivoting). A step's x is
    returned only once the projected-gradient residual ||x - clip(x - g)|| is
    <= PGD_TOL. If the steps do not settle within _active_set_cap(n),
    projected gradient descent runs from the same start point.
    Returns (x, steps, residual).
    """
    H, lo, hi = P.f.H, P.X.lo, P.X.hi
    lin = P.f.c + P.A.T @ lam
    x0 = np.minimum(np.maximum(P.x_base - P.dual_map @ lam, lo), hi)
    x = x0
    free = (x > lo) & (x < hi)
    pinned = np.where(free, 0.0, x)
    inv_am = 1.0 / P.alpha_m
    cap = _active_set_cap(P.n)
    fewest, stalled = P.n + 1, 0
    for it in range(cap + 1):
        g = H @ x + lin
        residual = float(np.linalg.norm(x - np.minimum(np.maximum(x - g, lo), hi)))
        if residual <= PGD_TOL:
            return x, it, residual
        if it == cap:
            break
        v = x - inv_am * g
        free_next = (v > lo) & (v < hi)
        pinned_next = np.where(free_next, 0.0, np.minimum(np.maximum(v, lo), hi))
        changed = (free_next != free) | (pinned_next != pinned)
        count = np.count_nonzero(changed)
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
    x, pgd_it, residual = _pgd_box_dense(P, lin, x0)
    return x, it + pgd_it, residual


def _pgd_box_dense(P: Problem, lin: np.ndarray, x: np.ndarray):
    """Projected gradient descent with fixed step 1/alpha_m from x."""
    step = 1.0 / P.alpha_m
    for it in range(1, PGD_MAX_ITER + 1):
        g = P.f.H @ x + lin
        x = project_box(x - step * g, P.X)
        residual = float(np.linalg.norm(x - project_box(x - (P.f.H @ x + lin), P.X)))
        if residual <= PGD_TOL:
            return x, it, residual
    if residual > PGD_FAIL_RESIDUAL:
        raise InnerSolveDiverged(
            f"projected gradient hit {PGD_MAX_ITER} iterations with residual {residual:.3e}"
        )
    return x, PGD_MAX_ITER, residual


def _x_star(P: Problem, lam: np.ndarray) -> tuple[np.ndarray, int]:
    """Inner minimizer x*(lam) and the active-set steps it took, per inner_mode."""
    if P.inner_mode == "box_dense":
        x, iterations, _ = _box_dense_minimizer(P, lam)
        return x, iterations
    x = P.x_base - P.dual_map @ lam
    if P.inner_mode == "box_diag":
        x = np.minimum(np.maximum(x, P.X.lo), P.X.hi)
    return x, 0


def _grad_phi(P: Problem, lam: np.ndarray) -> np.ndarray:
    """Dual gradient A x*(lam) without the full InnerSolution (hot path)."""
    if P.inner_mode == "free":   # affine in lam: one cached product instead of two
        return P.grad_base - P.dual_gram @ lam
    return P.A @ _x_star(P, lam)[0]


def solve_inner(P: Problem, lam) -> InnerSolution:
    """Solve the inner minimization at lam and evaluate phi and its gradient."""
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
