"""Right-hand side and fixed-step integration of the projected dynamics.

rhs evaluates the field of the differential inclusion: its y part is the raw
drift -g - B'lam, with g the minimal-norm subgradient of h (the target -B'lam
clamped into the generalized-gradient interval, which reproduces sliding
along kinks), projected onto the tangent cone of Omega; its lam part is the
dual gradient A x*(lam) + B y - C.

integrate takes forward-backward steps of the same inclusion. h' splits into
a continuous part d, taken explicitly, and its jumps, whose antiderivative g
is taken implicitly through prox_{dtau g} together with the box. A y on a
kink whose target lies inside the kink's interval lands on it exactly, so
kink-pinned solves stop at stop_tol instead of chattering around the kink.
Without kinks the step is projected Euler, bit for bit. The stopping norm is
the step residual ||((y+ - y)/dtau, dlam)||.

A coordinate changes its piece of h or its region of the jump prox a few
times per run, so integrate caches the rows of both and looks them up again
only when one bracket test of [v, y] fails (see integrate).

integrate writes each recorded sample (the start, every record_every-th step
and the last step) into preallocated t, y, lam and drift arrays. They start
with room for the whole run, capped at RECORD_BLOCK rows, and double when
full, so a long t_end costs no memory up front; the Trajectory gets trimmed
copies. write_csv formats RECORD_BLOCK rows at a time, one format per row.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InitialPointOutsideOmega, InvalidConfig, NonFiniteState
from .geometry import _check_dim, _check_member, active_faces, tangent_rule
from .inner import _grad_phi
from .model import DATA_RANGE, Problem

RECORD_BLOCK = 4096   # rows of the first sample buffer and of each CSV write


class TerminationReason(enum.Enum):
    TIME_LIMIT = "time_limit"
    STOP_TOL = "stop_tol"


@dataclass(frozen=True)
class State:
    """Point of the flow: y in Omega, multiplier lam."""

    y: np.ndarray
    lam: np.ndarray


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 1e-3
    tau: float = 1.0
    t_end: float = 10.0
    stop_tol: float = 1e-8
    record_every: int = 1

    def __post_init__(self):
        if not all(map(math.isfinite, (self.dt, self.tau, self.t_end, self.stop_tol))):
            raise InvalidConfig("dt, tau, t_end and stop_tol must be finite")
        if self.dt <= 0 or self.tau <= 0 or self.t_end <= 0:
            raise InvalidConfig("dt, tau and t_end must be positive")
        if self.stop_tol < 0:
            raise InvalidConfig("stop_tol must be nonnegative")
        if not isinstance(self.record_every, numbers.Integral) or self.record_every < 1:
            raise InvalidConfig(f"record_every must be an integer >= 1, got {self.record_every!r}")
        # the step count, the step and its square in the residual must be representable
        if not math.isfinite(self.t_end / self.dt):
            raise InvalidConfig(f"t_end / dt = {self.t_end / self.dt} steps is not finite")
        dtau = self.dt * self.tau
        if not (math.isfinite(dtau) and dtau * dtau >= np.finfo(float).tiny):
            raise InvalidConfig(f"dt * tau = {dtau:g} must be finite and its square a normal float")


@dataclass(eq=False)
class Trajectory:
    """Recorded samples (t, y, lam, drift_norm).

    drift_norm is the tau-normalized residual ||((y+ - y)/dtau, dlam)|| of the
    step taken from the sample.
    """

    t: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    drift_norm: np.ndarray
    config: IntegratorConfig
    terminated_by: TerminationReason

    def __len__(self) -> int:
        return self.t.size

    def write_csv(self, path) -> None:
        m = self.y.shape[1]
        p = self.lam.shape[1]
        cols = ["t"] + [f"y_{j + 1}" for j in range(m)] \
            + [f"lambda_{i + 1}" for i in range(p)] + ["drift_norm"]
        _write_csv(path, cols, (self.t, self.y, self.lam, self.drift_norm))


def _write_csv(path, header, columns) -> None:
    """Write CSV rows of equal-length columns, each 1-D or a 2-D block of columns.

    Every value gets 17 significant digits, so it reads back exactly. Rows are
    formatted RECORD_BLOCK at a time, which bounds the text held in memory.
    """
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, len(columns[0]), RECORD_BLOCK):
            block = np.column_stack([c[a:a + RECORD_BLOCK] for c in columns]).tolist()
            fh.write("".join([row % tuple(values) for values in block]))


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


def rhs(P: Problem, s: State, tau: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Field of the tau-scaled dynamics at state s.

    dy = tau * tangent-cone projection of (-g - B'lam) at y, and
    dlam = tau * (grad phi(lam) + B y - C). Raises PointOutsideSet when
    s.y is not in Omega.
    """
    y = _check_dim(s.y, P.Omega, "y")
    _check_member(y, P.Omega)
    lam = np.asarray(s.lam, dtype=float)
    target = -(P.Bt @ lam)
    raw = target - P.hpack.select(y, target)
    dy = tangent_rule(raw, *active_faces(y, P.Omega))
    dlam = _grad_phi(P, lam) + P.B @ y - P.C
    return tau * dy, tau * dlam


def integrate(P: Problem, s0: State, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the dynamics from s0 with fixed forward-backward steps.

    h_j' = d_j + S_j splits into a continuous piecewise-affine part d_j and
    S_j, the sum of the derivative jumps J_ji at breakpoints b_ji below the
    argument; S_j is the slope of g_j(s) = sum_i J_ji (s - b_ji)_+. With
    dtau = dt * tau, one step from (y, lam) is

        v    = y + dtau * (-B'lam - d(y))
        y+   = clip(prox_{dtau g}(v), lo, hi)
        lam+ = lam + dtau * (grad phi(lam) + B y - C),

    explicit on d and implicit on the jumps and on Omega. Explicit on the
    curvature of h, the step decays no slower than the flow it follows.

    Fixed points are exactly the KKT points. lam+ = lam iff
    A x*(lam) + B y = C. Per coordinate, clip(prox_{dtau g_j}) is the prox
    of dtau g_j plus the indicator of [lo_j, hi_j], so y+_j = y_j iff
    v_j - y_j lies in dtau (dg_j(y_j) + N_j(y_j)), that is, iff
    0 lies in d_j(y_j) + dg_j(y_j) + (B'lam)_j + N_j(y_j)
    = dh_j(y_j) + (B'lam)_j + N_j(y_j), the y condition of KKT. At a kink
    y_j = b_ji inside Omega, the interval of h_j is [dl, dr] with
    dl = d_j(b_ji) + S_ji and dr = dl + J_ji, so the target -(B'lam)_j lies in
    [dl, dr] iff v_j lies in [b_ji + dtau S_ji, b_ji + dtau (S_ji + J_ji)],
    the interval on which the prox sticks at b_ji; y_j stays on the kink
    exactly. Without kinks, prox_{dtau g} is the identity and the step is
    projected Euler, bit for bit.

    The step reads d through the rows (c2, q - S) of the piece covering each
    y_j and the prox through the rows (slope, intercept) of the region of the
    table holding each v_j. Both are cached together with their brackets:
    the piece covers (ledge, redge] of SeparablePiecewise, and the region
    (lower, upper] of JumpProx, its thresholds stored one ulp down. A step
    computes v with the cached piece rows, then tests lower < [v, y] <= upper
    once for all 2m entries. A miss (a y_j left its piece, a v_j its region,
    or the first step) looks both up again, recomputes v with the fresh piece
    rows and looks up its regions. Each bracket holds exactly for the
    arguments that its lookup maps to the cached row: < on breakpoints, <= on
    thresholds. A hit therefore uses the rows the lookups would return, and
    the step is the uncached one, bit for bit. The y-side elementwise ops
    write into preallocated buffers. Matvecs and dots use ndarray.dot, which
    gives what @ gives, bit for bit, at about half the call overhead on these
    small sizes.

    Records the initial condition, every record_every-th accepted step and
    the final state, each with the residual of the step taken from it.
    Terminates at cfg.t_end or as soon as the tau-normalized step residual
    ||((y+ - y)/dtau, dlam)|| drops to cfg.stop_tol; that last step is not
    taken. Raises InitialPointOutsideOmega, or NonFiniteState (step size too
    large) when a step is not finite or a recorded lam leaves DATA_RANGE.
    """
    y = np.asarray(s0.y, dtype=float).copy()
    lam = np.asarray(s0.lam, dtype=float).copy()
    if y.shape != (P.m,) or lam.shape != (P.p,):
        raise InitialPointOutsideOmega(
            f"state shapes {y.shape}/{lam.shape}, expected ({P.m},)/({P.p},)"
        )
    if not P.Omega.contains(y):
        raise InitialPointOutsideOmega("y(0) violates Omega beyond 1e-9")

    m = P.m
    lo, hi = P.Omega.lo, P.Omega.hi
    neg_Bt, B, C = -P.Bt, P.B, P.C   # neg_Bt.dot(lam) is -(B'lam) bit for bit: negation is exact
    dt, every, stop_tol = cfg.dt, cfg.record_every, cfg.stop_tol
    dtau = dt * cfg.tau
    dtau2 = dtau * dtau
    advice = (f"dt*tau*L = {dtau * P.drift_lipschitz:.3g} with drift Lipschitz estimate "
              f"L = {P.drift_lipschitz:.3g}; reduce dt")
    if not math.isfinite(dtau * float(P.hpack.jump_sum.max())):   # the prox table overflows
        raise NonFiniteState(f"dt * tau times the jumps of h' is not finite; {advice}")
    piece_rows = P.hpack.piece_rows
    region_rows = P.hpack.jump_prox(dtau).region_rows
    n_steps = max(0, math.ceil(cfg.t_end / dt - 1e-12))

    # never sized by t_end alone: a run may stop at stop_tol long before it
    rows = min(n_steps // every + 2, RECORD_BLOCK)
    ts, drifts = np.empty(rows), np.empty(rows)
    ys, lams = np.empty((rows, P.m)), np.empty((rows, P.p))
    n = 0

    def forward(y, w, c2, qd, v):
        """v = y + dtau * (w - d(y)), d(y) = c2 * y + qd, written into v."""
        np.multiply(c2, y, out=v)
        np.add(v, qd, out=v)
        np.subtract(w, v, out=v)
        np.multiply(v, dtau, out=v)
        np.add(y, v, out=v)

    # z = [v, y] of the current step; z_next receives y+. The cached rows of
    # each y_j's piece and v_j's region hold while lower < z <= upper; the NaN
    # brackets miss on the first step
    z, z_next = np.empty(2 * m), np.empty(2 * m)
    views = (z, z[:m], z[m:])
    views_next = (z_next, z_next[:m], z_next[m:])
    z[m:] = y
    c2 = qd = slope = icpt = np.zeros(m)
    lower, upper = np.full(2 * m, np.nan), np.full(2 * m, np.nan)
    inside = np.empty(4 * m, dtype=bool)
    above, below = inside[:2 * m], inside[2 * m:]
    dy = np.empty(m)

    k = 0
    t = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # blow-up raises NonFiniteState
        while True:
            z, v, y = views
            w = neg_Bt.dot(lam)
            forward(y, w, c2, qd, v)
            np.less(lower, z, out=above)
            np.less_equal(z, upper, out=below)
            if np.count_nonzero(inside) < 4 * m:   # a y_j left its piece or a v_j its region
                c2, qd, lower[m:], upper[m:] = piece_rows(y)
                forward(y, w, c2, qd, v)
                slope, icpt, lower[:m], upper[:m] = region_rows(v)
            y_next = views_next[2]
            np.multiply(slope, v, out=y_next)
            np.add(y_next, icpt, out=y_next)
            np.maximum(y_next, lo, out=y_next)
            np.minimum(y_next, hi, out=y_next)
            # the module global _grad_phi is looked up on every step, so a
            # replacement of it reaches every evaluation
            dlam = _grad_phi(P, lam) + B.dot(y) - C
            np.subtract(y_next, y, out=dy)
            drift = math.sqrt(dy.dot(dy) / dtau2 + dlam.dot(dlam))
            if not math.isfinite(drift):
                raise NonFiniteState(f"non-finite state at t = {t}; {advice}")
            stop = drift <= stop_tol
            last = stop or k >= n_steps
            if last or k % every == 0:
                if n == ts.size:
                    ts, drifts, ys, lams = (np.concatenate((b, np.empty_like(b)))
                                            for b in (ts, drifts, ys, lams))
                ts[n], drifts[n], ys[n], lams[n] = t, drift, y, lam
                n += 1
            if last:
                break
            views, views_next = views_next, views
            lam = lam + dtau * dlam
            k += 1
            t = k * dt

    if max(lams[:n].max(), -lams[:n].min()) > DATA_RANGE:   # |lam - lam*|^2 would overflow
        t = ts[np.argmax((np.abs(lams[:n]) > DATA_RANGE).any(axis=1))]
        raise NonFiniteState(f"recorded lam left [-{DATA_RANGE:g}, {DATA_RANGE:g}] at t = {t}; "
                             f"{advice}")
    return Trajectory(
        t=ts[:n].copy(),
        y=ys[:n].copy(),
        lam=lams[:n].copy(),
        drift_norm=drifts[:n].copy(),
        config=cfg,
        terminated_by=TerminationReason.STOP_TOL if stop else TerminationReason.TIME_LIMIT,
    )
