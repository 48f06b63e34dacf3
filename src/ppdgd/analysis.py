"""Optimality verification: KKT residuals, an independent equilibrium oracle,
and empirical certification of the exponential-decay envelope.

The oracle never touches the dynamics or inner-solver code paths: it runs a
multiplier-shifted quadratic-penalty continuation (penalty x10 per stage, up
to 8 stages) solved by an accelerated proximal-gradient method with exact
per-coordinate proximal steps. After each stage, the accumulated shift is the
multiplier estimate, and an active-set polish (exact linear KKT solve on the
pattern detected at the stage's point) gives the candidate triple; the one
with the smallest KKT residual wins, and must reach KKT_TARGET.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EquilibriumUnverified, OracleFailed, PointOutsideSet
from .geometry import active_faces, project_box
from .model import MEMBER_TOL, Problem
from .dynamics import Trajectory, _write_csv

KKT_TARGET = 1e-6
ENVELOPE_SLACK = 1e-6
FIT_FLOOR = 1e-10
ORACLE_STAGES = 8       # penalty 10**k at stage k
STAGE_TOL_FLOOR = 1e-10
STAGE_MAX_ITER = 30_000


@dataclass(frozen=True)
class KktResidual:
    """Componentwise-max stationarity and feasibility residuals."""

    r_x: float
    r_y: float
    r_eq: float
    total: float

    def as_dict(self) -> dict:
        return {"r_x": self.r_x, "r_y": self.r_y, "r_eq": self.r_eq, "total": self.total}


@dataclass(frozen=True)
class Equilibrium:
    x_star: np.ndarray
    y_star: np.ndarray
    lambda_star: np.ndarray

    def __iter__(self):
        return iter((self.x_star, self.y_star, self.lambda_star))


@dataclass(frozen=True)
class ConvergenceReport:
    equilibrium: Equilibrium
    gamma_bound: float
    tau: float
    envelope_ok: bool
    envelope_margin: float
    fitted_rate: float | None
    kkt: KktResidual

    def as_dict(self) -> dict:
        return {
            "equilibrium": {
                "y_star": self.equilibrium.y_star.tolist(),
                "lambda_star": self.equilibrium.lambda_star.tolist(),
                "x_star": self.equilibrium.x_star.tolist(),
            },
            "gamma_bound": self.gamma_bound,
            "tau": self.tau,
            "envelope_ok": self.envelope_ok,
            "envelope_margin": self.envelope_margin,
            "fitted_rate": self.fitted_rate,
            "kkt": self.kkt.as_dict(),
        }

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2)
            fh.write("\n")


def _interval_distance(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Distance of 0 to each interval [low_j, high_j] (low <= high, inf allowed)."""
    return np.maximum(0.0, np.maximum(low, -high))


def _normal_interval(v: np.ndarray, S):
    """Shift interval ends by the normal-cone interval of S at v."""
    at_lo, at_hi = active_faces(v, S)
    low = np.where(at_lo, -np.inf, 0.0)
    high = np.where(at_hi, np.inf, 0.0)
    return low, high


def kkt_residual(P: Problem, x, y, lam) -> KktResidual:
    """First-order optimality residuals of a candidate triple.

    r_x: componentwise distance of 0 to grad f(x) + A'lam + N_X(x);
    r_y: distance of 0 to the generalized gradient of h at y plus B'lam plus
    the normal cone of Omega; r_eq: infinity norm of Ax + By - C. The total
    vanishes exactly at a saddle point.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if x.shape != (P.n,) or y.shape != (P.m,) or lam.shape != (P.p,):
        raise DimensionMismatch("triple shapes do not match the problem")
    if not P.X.contains(x):
        raise PointOutsideSet("x violates X beyond 1e-9")
    if not P.Omega.contains(y):
        raise PointOutsideSet("y violates Omega beyond 1e-9")

    w = P.f.grad(x) + P.A.T @ lam
    nlo, nhi = _normal_interval(x, P.X)
    r_x = float(np.max(_interval_distance(w + nlo, w + nhi)))

    bt = P.Bt @ lam
    glo, ghi = P.hpack.clarke(y)
    nlo, nhi = _normal_interval(y, P.Omega)
    r_y = float(np.max(_interval_distance(glo + bt + nlo, ghi + bt + nhi)))

    r_eq = float(np.max(np.abs(P.A @ x + P.B @ y - P.C)))
    return KktResidual(r_x=r_x, r_y=r_y, r_eq=r_eq, total=max(r_x, r_y, r_eq))


def lyapunov_value(eq: Equilibrium, y, lam) -> float:
    """Quadratic distance measure 0.5||y - y*||^2 + 0.5||lam - lam*||^2."""
    dy = np.asarray(y, dtype=float) - eq.y_star
    dl = np.asarray(lam, dtype=float) - eq.lambda_star
    return float(0.5 * (dy @ dy) + 0.5 * (dl @ dl))


# ---------------------------------------------------------------------------
# Equilibrium oracle
# ---------------------------------------------------------------------------

def _solve_stage(P: Problem, x, y, shift, rho, lip, tol):
    """Accelerated proximal gradient on the shifted-penalty stage problem.

    Smooth part f(x) + (rho/2)||Ax + By - C + shift/rho||^2; the piecewise
    part of h and both box indicators are handled by exact proximal steps.
    """
    n = P.n
    A, B = P.A, P.B
    Ct = P.C - shift / rho
    L = P.alpha_m + rho * lip ** 2
    mu = min(P.alpha, P.beta)
    theta = (math.sqrt(L) - math.sqrt(mu)) / (math.sqrt(L) + math.sqrt(mu))
    inv_l = 1.0 / L
    omega = P.Omega

    z = np.concatenate([x, y])
    z_prev = z.copy()
    res_best = np.inf
    for it in range(STAGE_MAX_ITER):
        w = z + theta * (z - z_prev)
        wx, wy = w[:n], w[n:]
        r = A @ wx + B @ wy - Ct
        gx = P.f.H @ wx + P.f.c + rho * (A.T @ r)
        gy = rho * (B.T @ r)
        x_new = np.clip(wx - inv_l * gx, P.X.lo, P.X.hi)
        y_new = P.hpack.prox(wy - inv_l * gy, inv_l, omega.lo, omega.hi)
        z_prev = z
        z = np.concatenate([x_new, y_new])
        res = L * float(np.linalg.norm(z - w))
        if res <= tol:
            break
        if res > 10.0 * res_best and it > 50:
            z_prev = z.copy()   # kill momentum after a large residual excursion
            res_best = np.inf
        res_best = min(res_best, res)
    return z[:n], z[n:]


def _polish(P: Problem, x, y, act_tol):
    """Exact KKT solve on the active pattern detected at (x, y).

    Pins box-active coordinates and kink-straddling y coordinates, solves the
    remaining square stationarity + feasibility system, and returns the
    candidate triple (unverified) or None when the pattern is unusable.
    """
    n, m, p = P.n, P.m, P.p
    x_fix = np.where(x <= P.X.lo + act_tol, P.X.lo, np.full(n, np.nan))
    x_fix = np.where(x >= P.X.hi - act_tol, P.X.hi, x_fix)
    y_fix = np.where(y <= P.Omega.lo + act_tol, P.Omega.lo, np.full(m, np.nan))
    y_fix = np.where(y >= P.Omega.hi - act_tol, P.Omega.hi, y_fix)
    for j in range(m):
        bp = P.h[j].breakpoints
        if bp.size and np.isnan(y_fix[j]):
            k = int(np.argmin(np.abs(bp - y[j])))
            if abs(bp[k] - y[j]) <= act_tol:
                y_fix[j] = bp[k]
    free_x = np.flatnonzero(np.isnan(x_fix))
    free_y = np.flatnonzero(np.isnan(y_fix))
    nf, mf = free_x.size, free_y.size
    x_full = np.where(np.isnan(x_fix), 0.0, x_fix)
    y_full = np.where(np.isnan(y_fix), 0.0, y_fix)

    K = np.zeros((nf + mf + p, nf + mf + p))
    rhs = np.zeros(nf + mf + p)
    K[:nf, :nf] = P.f.H[np.ix_(free_x, free_x)]
    K[:nf, nf + mf:] = P.A[:, free_x].T
    rhs[:nf] = -P.f.c[free_x] - (P.f.H @ x_full)[free_x]
    for row, j in enumerate(free_y):
        pj, qj, _ = P.h[j].coeffs[P.h[j].piece_index(y[j])]
        K[nf + row, nf + row] = 2.0 * pj
        K[nf + row, nf + mf:] = P.B[:, j]
        rhs[nf + row] = -qj
    K[nf + mf:, :nf] = P.A[:, free_x]
    K[nf + mf:, nf:nf + mf] = P.B[:, free_y]
    rhs[nf + mf:] = P.C - P.A @ x_full - P.B @ y_full

    try:
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    except np.linalg.LinAlgError:
        return None
    x_full[free_x] = sol[:nf]
    y_full[free_y] = sol[nf:nf + mf]
    lam_new = sol[nf + mf:]
    if not (np.isfinite(x_full).all() and np.isfinite(y_full).all() and np.isfinite(lam_new).all()):
        return None
    if not (P.X.contains(x_full) and P.Omega.contains(y_full)):
        return None
    x_full = np.clip(x_full, P.X.lo, P.X.hi)
    y_full = np.clip(y_full, P.Omega.lo, P.Omega.hi)
    return x_full, y_full, lam_new


def equilibrium_oracle(P: Problem) -> Equilibrium:
    """Solve min f(x) + h(y) s.t. Ax + By = C, x in X, y in Omega independently
    of the dynamics, and certify the result by its KKT residual.

    Raises OracleFailed when no candidate reaches kkt total <= KKT_TARGET.
    """
    lip = float(np.linalg.norm(np.hstack([P.A, P.B]), 2))
    x = project_box(np.linalg.solve(P.f.H, -P.f.c), P.X)
    y = 0.5 * (P.Omega.lo + P.Omega.hi)
    shift = np.zeros(P.p)

    best = None
    best_total = np.inf
    for k in range(ORACLE_STAGES):
        rho = 10.0 ** k
        gap = float(np.linalg.norm(P.A @ x + P.B @ y - P.C))
        tol = max(STAGE_TOL_FLOOR, min(1e-6, 1e-2 * gap))
        x, y = _solve_stage(P, x, y, shift, rho, lip, tol)
        shift = shift + rho * (P.A @ x + P.B @ y - P.C)
        # 1e-6 and 1e-4 pin a tiny-jump kink at y* stages before 1e-8 does (3-5x faster)
        for act_tol in (1e-8, 1e-6, 1e-4):
            cand = _polish(P, x, y, act_tol)
            if cand is not None:
                total = kkt_residual(P, *cand).total
                if total < best_total:
                    best, best_total = cand, total
        if best_total <= 1e-10:
            break   # continuation already polished to machine level

    if best_total > KKT_TARGET:
        raise OracleFailed(
            f"no candidate reached KKT total <= {KKT_TARGET:g} (best {best_total:.3e})"
        )
    return Equilibrium(*(np.asarray(v, dtype=float) for v in best))


# ---------------------------------------------------------------------------
# Envelope certification
# ---------------------------------------------------------------------------

def envelope_series(P: Problem, traj: Trajectory, eq: Equilibrium):
    """Arrays (t, bound, distance) over the recorded samples.

    bound is sqrt(2 V(0)) exp(-gamma tau (t - t0) / 2) times the (1 + 1e-6)
    discretization slack, with V(0) taken at the first sample.
    """
    dy = traj.y - eq.y_star
    dl = traj.lam - eq.lambda_star
    dist = np.sqrt(np.sum(dy * dy, axis=1) + np.sum(dl * dl, axis=1))
    rel_t = traj.t - traj.t[0]
    bound = dist[0] * np.exp(-0.5 * P.gamma * traj.config.tau * rel_t) * (1.0 + ENVELOPE_SLACK)
    return traj.t, bound, dist


def write_envelope_csv(path, t, bound, dist) -> None:
    """Write the (t, bound, distance) series of envelope_series as CSV."""
    _write_csv(path, ("t", "bound", "distance"), (t, bound, dist))


def omega_invariant(P: Problem, traj: Trajectory) -> bool:
    """True iff every recorded y lies in Omega within MEMBER_TOL."""
    return P.Omega.violation(traj.y) <= MEMBER_TOL


def certify_envelope(P: Problem, traj: Trajectory, eq: Equilibrium) -> ConvergenceReport:
    """Check every recorded sample against the exponential-decay envelope.

    The fitted rate is the negative least-squares slope of log distance over
    samples farther than 1e-10 from the equilibrium (None if fewer than two).
    Raises EquilibriumUnverified when eq fails the 1e-6 KKT gate.
    """
    kkt = kkt_residual(P, eq.x_star, eq.y_star, eq.lambda_star)
    if kkt.total > KKT_TARGET:
        raise EquilibriumUnverified(
            f"equilibrium KKT residual {kkt.total:.3e} exceeds {KKT_TARGET:g}"
        )
    _, bound, dist = envelope_series(P, traj, eq)
    tau = traj.config.tau
    envelope_ok = bool(np.all(dist <= bound))
    envelope_margin = float(np.min(bound - dist))

    mask = dist > FIT_FLOOR
    if mask.sum() >= 2 and np.ptp(traj.t[mask]) > 0:
        slope = np.polyfit(traj.t[mask], np.log(dist[mask]), 1)[0]
        fitted_rate = float(-slope)
    else:
        fitted_rate = None

    return ConvergenceReport(
        equilibrium=eq,
        gamma_bound=P.gamma,
        tau=tau,
        envelope_ok=envelope_ok,
        envelope_margin=envelope_margin,
        fitted_rate=fitted_rate,
        kkt=kkt,
    )
