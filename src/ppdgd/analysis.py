"""Optimality verification: KKT residuals, an independent equilibrium oracle,
and empirical certification of the exponential-decay envelope with the
samples' own decay rate on the scale of gamma/2.

The oracle never touches the dynamics or inner-solver code paths. It writes
the problem as a strictly convex QP with bounds, splitting each y_j into the
segments between its points (the bounds of Omega_j and the breakpoints
inside), and solves that QP by the dual active-set method of Goldfarb and
Idnani: a finite sequence of exact reduced KKT solves, each adding or
dropping one bound, which proves infeasibility when it cannot add a violated
bound. It starts with every segment filled to the atom that the minimizer
under Ax + By = C alone points to, so a call takes a few solves, not one per
segment. The method's last exact solve is the equilibrium: x from its
solution, lam from its multiplier and each y_j from lam through the atom it
points to; the triple must reach KKT_TARGET. The proof, checked as a Farkas
certificate, is the package's one feasibility verdict (InfeasibleProblem);
OracleFailed means neither a proof nor an equilibrium within KKT_TARGET.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, EquilibriumUnverified, InfeasibleProblem, OracleFailed,
                     PointOutsideSet)
from .model import MEMBER_TOL, Problem, optimality_interval
from .dynamics import Trajectory

KKT_TARGET = 1e-6
ENVELOPE_SLACK = 1e-6
# dual active-set steps after the start per variable of the segment QP, plus
# one share; the start needs none, as each of its solves after the second
# frees a bound that it pinned
ORACLE_STEP_CAP = 64
# |G dz| of a bound the active set already fixes is roundoff: at most 1e-10 on
# 3,200 random draws, where the other bounds gave at least 1e-4
DEPENDENT_TOL = 1e-8


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
    sample_rate: float | None
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
            "sample_rate": self.sample_rate,
            "kkt": self.kkt.as_dict(),
        }

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2)
            fh.write("\n")


def _interval_distance(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Distance of 0 to each interval [low_j, high_j] (low <= high, inf allowed)."""
    return np.maximum(np.maximum(low, -high), 0.0)   # 0.0 second: max(0.0, -0.0) is -0.0


def kkt_residual(P: Problem, x, y, lam) -> KktResidual:
    """First-order optimality residuals of a candidate triple.

    r_x: componentwise distance of 0 to grad f(x) + A'lam + N_X(x);
    r_y: distance of 0 to the generalized gradient of h at y plus B'lam plus
    the normal cone of Omega (model.optimality_interval, whose least-norm
    point is the field's y part at tau 1, so r_y is max |dy| there); r_eq:
    infinity norm of Ax + By - C. The total vanishes exactly at a saddle
    point.
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
    nlo, nhi = P.X.normal_interval(x)
    r_x = float(np.max(_interval_distance(w + nlo, w + nhi)))
    r_y = float(np.max(_interval_distance(*optimality_interval(P, y, lam))))

    r_eq = float(np.max(np.abs(P.A @ x + P.B @ y - P.C)))
    # np.max keeps a NaN wherever it sits; Python's max drops one that is not first
    return KktResidual(r_x=r_x, r_y=r_y, r_eq=r_eq, total=float(np.max([r_x, r_y, r_eq])))


# ---------------------------------------------------------------------------
# Equilibrium oracle
# ---------------------------------------------------------------------------

def _segment_qp(P: Problem, atoms):
    """The problem as a strictly convex QP in z = (x, w) with bounds on z.

    Segment k of y_j is the interval atom between points k and k + 1, on one
    piece of h_j, and w_jk in [0, its length] is how far y_j fills it:
    y_j = Omega.lo_j + sum_k w_jk. Filled in order, the segments cost
    h_j(y_j) - h_j(Omega.lo_j) = sum_k d_jk w_jk + c2_jk w_jk^2 / 2, d_jk the
    piece's slope at the segment's start, and the convexity of h_j makes that
    order the cheapest, so the QP's (x, y) is the problem's. Returns
    (G, a, E, d, lo, hi) of min z'Gz / 2 + a'z s.t. Ez = d, lo <= z <= hi,
    and the mask of the w, whose bounds _dual_active_set pins at its start.
    """
    n = P.n
    left, right, c2, q, _, _ = atoms.columns
    seg = np.flatnonzero((left < right) & np.isfinite(right))
    G = np.zeros((n + seg.size, n + seg.size))
    G[:n, :n] = P.f.H
    G[n:, n:] = np.diag(c2[seg])
    a = np.concatenate([P.f.c, c2[seg] * left[seg] + q[seg]])
    E = np.hstack([P.A, P.B[:, seg // (left.size // P.m)]])
    lo = np.concatenate([P.X.lo, np.zeros(seg.size)])
    hi = np.concatenate([P.X.hi, right[seg] - left[seg]])
    return G, a, E, P.C - P.B @ P.Omega.lo, lo, hi, np.arange(n + seg.size) >= n


def _reduced_solve(G, E, side, rhs_z, rhs_e):
    """Solve [G_FF E_F'; E_F 0] [z_F; mu] = [rhs_z_F; rhs_e] on the free variables F (side 0).

    Returns (z, mu), z zero off F.
    """
    free = np.flatnonzero(side == 0)
    nf, p = free.size, E.shape[0]
    K = np.zeros((nf + p, nf + p))
    K[:nf, :nf] = G[np.ix_(free, free)]
    K[:nf, nf:] = E[:, free].T
    K[nf:, :nf] = E[:, free]
    sol = np.linalg.solve(K, np.concatenate([rhs_z[free], rhs_e]))
    z = np.zeros(side.size)
    z[free] = sol[:nf]
    return z, sol[nf:]


def _pinned_solve(G, a, E, d, lo, hi, side):
    """Minimizer z and multiplier lam of z'Gz / 2 + a'z s.t. Ez = d with the bounds of side pinned."""
    pinned = np.where(side < 0, lo, np.where(side > 0, hi, 0.0))
    z, lam = _reduced_solve(G, E, side, -(a + G @ pinned), d - E @ pinned)
    return z + pinned, lam


def _dual_active_set(G, a, E, d, lo, hi, warm):
    """Active bounds and multiplier of min z'Gz / 2 + a'z s.t. Ez = d, lo <= z <= hi.

    The dual active-set method of Goldfarb and Idnani (Math. Programming 27,
    1983) for a positive definite G, started from a dual-feasible pattern.
    The start pins every bound of a warm variable that the minimizer under
    Ez = d alone violates, then frees the pinned bounds whose multipliers
    u_k = -side_k (G z + a + E'lam)_k come out negative and solves again,
    until none does. Each solve but the last frees a bound and none is
    pinned again, so the start ends; its z minimizes the QP with its bounds
    held as equalities and their multipliers are >= 0, which is the state
    the method keeps. No warm variable gives the cold start at Ez = d alone.

    From the start, the method adds the most violated bound: z moves toward
    that bound along the step that keeps Ez = d and the active bounds, while
    the new bound's multiplier grows from 0 and the active ones change. An
    active bound whose multiplier reaches 0 first is dropped and the step is
    taken again. Each step of positive length raises the dual value, so no
    active set comes back and the method ends; the step cap guards
    degenerate steps of length 0. A violated bound that Ez = d and the active
    bounds already fix, with no multiplier left to drop, proves the
    constraints infeasible: v = E'mu of the step's mu has v'z > mu'd on the
    whole box (Farkas), which is checked in floating point, as roundoff at
    extreme scales can break it. E restricted to the columns that are never warm
    must have full row rank: then the start's reduced systems are
    nonsingular, and since only bounds independent of the active ones are
    added, so is every later one.

    The oracle warms the segments w of _segment_qp and leaves the bounds of
    x to the steps. Its x columns are A, which build_problem checks for full
    row rank, while pinning x as well could make a start singular (and cut
    the nine boxed_dense draws only from 48 to 38 solves). A segment's
    column of E is a column of B and its block of G is diagonal, so the
    first solve puts each w_jk at the separable minimizer for one shared
    target -(B'lam)_j; convexity orders those, so the pins fill each y_j up
    to that target's atom.

    Returns (z, lam) of the last exact solve, on the final active bounds:
    the minimizer and the multiplier of Ez = d. Raises InfeasibleProblem when it
    proves the constraints infeasible, and OracleFailed when the proof fails
    its check or after ORACLE_STEP_CAP * (size of z + 1) steps.
    """
    side = np.zeros(a.size, dtype=int)
    z, lam = _pinned_solve(G, a, E, d, lo, hi, side)
    changed = warm & ((z < lo) | (z > hi))   # the bounds pinned, then each pass's freed ones
    side[changed] = np.where(z[changed] < lo[changed], -1, 1)
    u = np.zeros(a.size)   # multipliers of the active bounds, all >= 0
    while changed.any():
        z, lam = _pinned_solve(G, a, E, d, lo, hi, side)
        u = -side * (G @ z + a + E.T @ lam)
        changed = u < 0.0
        side[changed] = 0
    cap = ORACLE_STEP_CAP * (a.size + 1)
    i = -1   # the bound being added, once one is violated
    for _ in range(cap):
        if i < 0:
            with np.errstate(invalid="ignore"):   # inf - inf at an infinite bound: never violated
                violation = np.where(side == 0, np.maximum(lo - z, z - hi), 0.0)
            i = int(np.argmax(violation))
            if not violation[i] > 0.0:
                if lam is None:   # a step has moved z since the last solve
                    z, lam = _pinned_solve(G, a, E, d, lo, hi, side)
                return z, lam
            normal = 1.0 if z[i] < lo[i] else -1.0   # the bound holds where normal * (z_i - bound) >= 0
            bound, added = (lo[i] if normal > 0 else hi[i]), 0.0
            e = np.where(np.arange(a.size) == i, normal, 0.0)
        dz, mu = _reduced_solve(G, E, side, e, np.zeros(E.shape[0]))
        g = G @ dz
        r = side * (g + E.T @ mu)   # active multipliers fall by t r along a step t dz
        # G dz = e - E'mu on the free variables, so it is 0 when E'mu alone
        # gives e_i: Ez = d and the active bounds then fix z_i already
        full = (bound - z[i]) / dz[i] if np.abs(g).max() > DEPENDENT_TOL else np.inf
        drop = np.flatnonzero(r > 0.0)
        ratios = u[drop] / r[drop]
        step = min(full, ratios.min(initial=np.inf))
        if step == np.inf:   # v = E'mu: v_i = normal, 0 on the other free z, side_k v_k <= 0
            v = E.T @ mu
            with np.errstate(invalid="ignore", over="ignore"):   # 0 * inf or overflow: no proof
                gap = np.where(v > 0.0, v * lo, v * hi).sum() - mu @ d
            if 0.0 < gap < np.inf:   # v'z > mu'd = mu'Ez on the whole box (Farkas)
                raise InfeasibleProblem("Ax + By = C has no solution over X x Omega")
            raise OracleFailed("the dual active-set method's infeasibility proof fails its check")
        z, u, added, lam = z + step * dz, u - step * r, added + step, None
        if step == full:
            side[i], u[i], z[i], i = -int(normal), added, bound, -1
        else:
            k = drop[np.argmin(ratios)]
            side[k], u[k] = 0, 0.0
    raise OracleFailed(f"the dual active-set method took more than {cap} steps")


def equilibrium_oracle(P: Problem) -> Equilibrium:
    """Solve min f(x) + h(y) s.t. Ax + By = C, x in X, y in Omega independently
    of the dynamics, and certify the result by its KKT residual.

    The dual active-set method (_dual_active_set) solves the problem's segment
    QP (_segment_qp), and its last exact solve is the equilibrium: x is that
    solve's x clipped into X, and with t = -(B'lam) each y_j is argmin over
    Omega_j of h_j(s) - t_j s, (t_j - q) / c2 on the piece of the atom that
    t_j points to, clipped into the atom's closure.

    Raises InfeasibleProblem on a proof that Ax + By = C has no solution over
    X x Omega, and OracleFailed on data that it cannot decide or solve: past
    the step cap or on a proof that fails its check, on a final solve that
    is not finite, and on a KKT total above KKT_TARGET.
    """
    atoms = P.hpack.atoms(P.Omega.lo, P.Omega.hi)
    z, lam = _dual_active_set(*_segment_qp(P, atoms))
    t = -(P.Bt @ lam)
    left, right, c2, q, _, _ = atoms.rows(t)
    # roundoff may leave X; a point atom has c2 = 1, q = 0 and left == right
    x, y = np.clip(z[:P.n], P.X.lo, P.X.hi), np.clip((t - q) / c2, left, right)
    if not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(lam).all()):
        raise OracleFailed("the final solve is not finite")
    total = kkt_residual(P, x, y, lam).total
    if not total <= KKT_TARGET:   # a NaN total fails too
        raise OracleFailed(f"the equilibrium's KKT total {total:.3e} exceeds {KKT_TARGET:g}")
    return Equilibrium(x, y, lam)


# ---------------------------------------------------------------------------
# Envelope certification
# ---------------------------------------------------------------------------

def envelope_series(P: Problem, traj: Trajectory, eq: Equilibrium):
    """Arrays (t, bound, distance) over the recorded samples.

    distance is ||(y - y*, lam - lam*)|| per sample, its square summed row by
    row with einsum (no BLAS call, so the bytes do not depend on its
    threads). On integrate's column-major samples the subtraction and the
    sums run one numpy loop over the samples per coordinate; einsum then
    adds a row's terms in another order than on row-major samples, which
    moves a distance by rounding alone. bound is sqrt(2 V(0)) exp(-gamma tau (t - t0) / 2) times the
    (1 + 1e-6) discretization slack, with V(0) taken at the first sample.
    """
    dy = traj.y - eq.y_star
    dl = traj.lam - eq.lambda_star
    dist = np.sqrt(np.einsum("ij,ij->i", dy, dy) + np.einsum("ij,ij->i", dl, dl))
    rel_t = traj.t - traj.t[0]
    bound = dist[0] * np.exp(-0.5 * P.gamma * traj.config.tau * rel_t) * (1.0 + ENVELOPE_SLACK)
    return traj.t, bound, dist


def write_envelope_csv(path, t, bound, dist) -> None:
    """Write the (t, bound, distance) series of envelope_series as CSV."""
    from .export import write_csv   # deferred: its tables cost `import ppdgd` nothing

    write_csv(path, ("t", "bound", "distance"), (t, bound, dist))


def omega_invariant(P: Problem, traj: Trajectory) -> bool:
    """True iff every recorded y lies in Omega within MEMBER_TOL."""
    return P.Omega.violation(traj.y) <= MEMBER_TOL


def certify_envelope(P: Problem, traj: Trajectory, eq: Equilibrium, *,
                     _series=None) -> ConvergenceReport:
    """Check every recorded sample against the exponential-decay envelope.

    envelope_ok holds iff every distance of envelope_series is at most its
    bound. sample_rate is the minimum over the samples with t > t0 of
    -(log dist(t) - log dist(t0)) / (tau (t - t0)): the largest exponent r
    whose envelope dist(t0) exp(-r tau (t - t0)) every sample meets, on the
    scale of gamma/2, so sample_rate >= gamma/2 implies envelope_ok. A
    sample at distance 0 counts as +inf; sample_rate is None with fewer
    than two samples, at dist(t0) = 0 or with no finite value. The logs are
    taken before the difference, so no ratio of distances overflows.
    Raises EquilibriumUnverified when eq fails the 1e-6 KKT gate. A caller
    that has already taken envelope_series(P, traj, eq), as the CLI does
    for its envelope CSV, passes it as _series, so it is taken once.
    """
    kkt = kkt_residual(P, eq.x_star, eq.y_star, eq.lambda_star)
    if not kkt.total <= KKT_TARGET:   # a NaN total fails too
        raise EquilibriumUnverified(
            f"equilibrium KKT residual {kkt.total:.3e} exceeds {KKT_TARGET:g}"
        )
    t, bound, dist = envelope_series(P, traj, eq) if _series is None else _series
    tau = traj.config.tau
    later = t > t[0]
    sample_rate = None
    if dist[0] > 0.0 and later.any():
        with np.errstate(divide="ignore"):   # log 0 = -inf: a rate of +inf
            rates = (np.log(dist[0]) - np.log(dist[later])) / (tau * (t[later] - t[0]))
        rate = float(rates.min())
        sample_rate = rate if rate < np.inf else None

    return ConvergenceReport(
        equilibrium=eq,
        gamma_bound=P.gamma,
        tau=tau,
        envelope_ok=bool(np.all(dist <= bound)),
        sample_rate=sample_rate,
        kkt=kkt,
    )
