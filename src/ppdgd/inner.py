"""Inner minimization over x and the induced dual function.

For a multiplier lam the inner problem is min_{x in X} f(x) + lam'Ax; its
value is the dual function phi(lam) and its gradient is A x*(lam). One
solve serves every X, a free X being the box [-inf, inf]^n: a primal-dual
active-set iteration starts from the clamp into X of the unconstrained
minimizer x_base - dual_map @ lam, which the Problem caches. Each of its
steps solves the new active pattern once, for that pattern's affine piece
x0 + X1 lam of x*, and reads x from the piece (_reduced_piece, the one
reduced solve here). Where no bound binds, H is diagonal or X is free,
the clamp is already exact and is returned as it is. x_star_piece gives
the last step's piece with the rows on which it holds, and can start at
the pattern of a piece it gave before instead of the clamp; solve_inner
reports the residual of the last stop test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InnerSolveDiverged, NonFiniteState
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


def _reduced_piece(P: Problem, free: np.ndarray, pinned: np.ndarray):
    """The affine piece x = x0 + X1 lam of x*(lam) on one active pattern.

    The pattern frees the coordinates in free and holds the others at their
    bound in pinned. Returns (x0, X1): x0 + X1 lam solves
    H_FF x_F = -(c_F + A_F'lam + H_FA x_A) exactly on the free coordinates
    and equals pinned on the others, for every lam.
    """
    H = P.f.H
    # identity rows and columns at the pinned coordinates reduce the system
    # to the free ones; one solve serves the constant column and A'
    M = np.where(free[:, None] & free, H, np.eye(P.n))
    rhs = np.where(free[:, None], -np.column_stack([P.f.c + H @ pinned, P.A.T]), 0.0)
    sol = np.linalg.solve(M, rhs)
    return np.where(free, sol[:, 0], pinned), np.where(free[:, None], sol[:, 1:], 0.0)


def _x_star(P: Problem, lam: np.ndarray, start=None):
    """Exact minimizer x*(lam) of f(x) + lam'Ax over the box X, with how it was found.

    Returns (x, steps, residual, (free, pinned), piece): residual is
    ||x - clip(x - g)||, g the gradient at x; the final active pattern frees
    the coordinates in free and holds the others at their bound in pinned;
    piece is that pattern's affine piece (x0, X1) of _reduced_piece, from
    which x was read, or None when steps is 0 from the clamp.

    Solves min 0.5 x'Hx + (c + A'lam)'x over lo <= x <= hi by a primal-dual
    active-set (semismooth Newton) iteration started from the clamped
    unconstrained minimizer, which is already exact when no bound binds,
    when H is diagonal and when X is free (every bound infinite): those
    return it at step 0. start, a piece returned by x_star_piece, starts
    the iteration at that piece's pattern instead, with x read from the
    piece it holds, so step 0 solves nothing there either.
    Each step pins the coordinates where x - g/alpha_m leaves the box,
    solves the new pattern once for its affine piece and reads
    x = x0 + X1 lam from it; the 1/alpha_m scaling of that test cycles far
    less often than unit scaling.

    x is returned once its residual is at most KKT_TOL, or once x comes
    from a reduced solve (start's counts) and the next pattern equals the
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
    if start is None:
        x = np.minimum(np.maximum(P.x_base - P.dual_map @ lam, lo), hi)
        free = (x > lo) & (x < hi)
        pinned = np.where(free, 0.0, x)
        piece = None
    else:
        x0, X1, *_, (free, pinned) = start
        piece = x0, X1
        x = x0 + X1 @ lam
    inv_am = 1.0 / P.alpha_m
    cap = _active_set_cap(P.n)
    fewest, stalled = P.n + 1, 0
    for it in range(cap + 1):
        g = H @ x + lin
        residual = float(np.linalg.norm(x - np.minimum(np.maximum(x - g, lo), hi)))
        if residual <= KKT_TOL:
            return x, it, residual, (free, pinned), piece
        v = x - inv_am * g
        free_next = (v > lo) & (v < hi)
        pinned_next = np.where(free_next, 0.0, np.minimum(np.maximum(v, lo), hi))
        changed = (free_next != free) | (pinned_next != pinned)
        count = np.count_nonzero(changed)
        if count == 0 and piece is not None:   # the pattern repeats its solve
            return x, it, residual, (free, pinned), piece
        if it == cap:
            raise InnerSolveDiverged(f"active-set solve hit {cap} steps, residual {residual:.3e}")
        if stalled < STALL_STEPS:   # once block steps stall, single pivots for good
            fewest, stalled = (count, 0) if count < fewest else (fewest, stalled + 1)
        if stalled >= STALL_STEPS:
            first = np.arange(P.n) == np.argmax(changed)
            free_next = np.where(first, free_next, free)
            pinned_next = np.where(first, pinned_next, pinned)
        free, pinned = free_next, pinned_next
        piece = _reduced_piece(P, free, pinned)
        x = piece[0] + piece[1] @ lam


def x_star_piece(P: Problem, lam: np.ndarray, start=None):
    """Affine piece of x*(lam) at lam, and the rows on which it holds.

    Returns (x0, X1, T0, T1, lower, upper, pattern): x*(l) = x0 + X1 l for
    every l with lower < T0 + T1 l <= upper, lam among them, and pattern =
    (free, pinned) is the active pattern the piece solves. The piece is the
    one _x_star solved last on its final active pattern, so a read that
    took k >= 1 active-set steps makes k reduced solves; where the clamped
    start was already exact, one solve on its pattern gives the piece.
    start, a piece returned before, starts the solve at its pattern, whose
    piece it holds: the primal-dual active-set method converges locally
    superlinearly (Hintermueller, Ito and Kunisch), so from a nearby lam it
    takes few steps, and one whose start was exact returns start's piece
    without a solve. Its rows are the free coordinates, inside the box, and
    the gradient at the pinned ones, of the sign that keeps the bound (any
    sign where lo = hi), each up to KKT_TOL. Rows whose bracket is
    (-inf, inf] test nothing and are left out: a coordinate has a row iff
    it has a finite bound and lo < hi, whatever the pattern, so a free X
    has none.
    """
    lo, hi, H = P.X.lo, P.X.hi, P.f.H
    _, _, _, (free, pinned), piece = _x_star(P, lam, start)
    x0, X1 = piece or _reduced_piece(P, free, pinned)
    at_hi = ~free & (pinned != lo)   # a pinned coordinate sits at lo or at hi
    T0 = np.where(free, x0, H @ x0 + P.f.c)
    T1 = np.where(free[:, None], X1, H @ X1 + P.A.T)
    # as loose as the residual test of _x_star, so that the piece holds at
    # every lam whose x that test accepts
    lower = np.where(free, lo - KKT_TOL, np.where(at_hi | (lo == hi), -np.inf, -KKT_TOL))
    upper = np.where(free, hi + KKT_TOL, np.where(at_hi, KKT_TOL, np.inf))
    tests = (lower > -np.inf) | (upper < np.inf)
    return x0, X1, T0[tests], T1[tests], lower[tests], upper[tests], (free, pinned)


def _check_lam(P: Problem, lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (P.p,):
        raise DimensionMismatch(f"lambda has shape {lam.shape}, expected ({P.p},)")
    return lam


def _grad_phi(P: Problem, lam: np.ndarray) -> np.ndarray:
    """Dual gradient A x*(lam) without the full InnerSolution."""
    return P.A.dot(_x_star(P, lam)[0])


def solve_inner(P: Problem, lam) -> InnerSolution:
    """Solve the inner minimization at lam and evaluate phi and its gradient.

    The residual is the fixed-point residual ||x - clip(x - g)|| that
    _x_star's stop test computed. Raises DimensionMismatch on a lam of the
    wrong shape and NonFiniteState on one that is not finite.
    """
    lam = _check_lam(P, lam)
    x, iterations, residual, _, _ = _x_star(P, lam)
    ax = P.A @ x
    phi = P.f.value(x) + float(lam @ ax)
    return InnerSolution(x_star=x, phi=phi, grad_phi=ax, iterations=iterations, residual=residual)
