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
Without kinks the step is projected Euler. The stopping norm is the step
residual ||((y+ - y)/dtau, dlam)||.

The step is piecewise affine in (y, lam). integrate writes the step of each
mode (the pieces of h and regions of the jump prox it reads, the clip into
Omega and the piece of x*(lam)) as one affine map M and advances it in
blocks of BLOCK_STEPS steps and more, a few numpy calls per block that
double on the states with the squares of M. It reads a mode once per
state, takes the first step as read and reads again only at a step that
leaves the mode; a read keeps the piece of x* while its rows hold (see
integrate). Each piece read (_piece_rows) allocates one set of mode
buffers (M, F, lower, upper) and writes the rows the piece owns and the
rows no mode changes; each mode read (_step_map) overwrites in place the
rows that depend on y, v and u, so a read assembles no fresh matrix. That
pays where modes last long, as in the benchmark's solves,
which change mode a few times in thousands of steps; where the mode changes
every few steps, each read costs more than the steps it batches.

integrate writes each recorded sample (the start, every record_every-th step
and the last step) into preallocated t, y, lam and drift arrays. They start
with room for the whole run, capped at RECORD_BLOCK rows, and double when
full, so a long t_end costs no memory up front; the Trajectory gets trimmed
copies. Trajectory.write_csv hands them to export.write_csv, which formats
a block of rows per numpy pass.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InitialPointOutsideOmega, InvalidConfig, NonFiniteState
from .geometry import _check_dim, _check_member, active_faces, clip_pattern, tangent_rule
from .inner import _grad_phi, x_star_piece
from .model import DATA_RANGE, Problem

RECORD_BLOCK = 4096   # rows of the first sample buffer
BLOCK_STEPS = 128     # steps of a mode's first block, doubled per block up to the longest
RUN_STEPS = 1024      # steps of a mode's longest block
RUN_PRODUCT = 2 ** 18   # bound on steps * N_z * rows of a block: OpenBLAS threads larger products


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
        # the step count, the step and its square in the residual must be representable,
        # and a run takes at least one step
        steps = self.t_end / self.dt
        if not math.isfinite(steps):
            raise InvalidConfig(f"t_end / dt = {steps} steps is not finite")
        if steps <= 1e-12:   # integrate takes ceil(t_end / dt - 1e-12) steps
            raise InvalidConfig(f"t_end / dt = {steps:g} takes no step")
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
        from .export import write_csv   # deferred: its tables cost `import ppdgd` nothing

        write_csv(path, cols, (self.t, self.y, self.lam, self.drift_norm))


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
    s.y is not in Omega and NonFiniteState when s.lam is not finite.
    """
    y = _check_dim(s.y, P.Omega, "y")
    _check_member(y, P.Omega)
    lam = np.asarray(s.lam, dtype=float)
    dlam = _grad_phi(P, lam) + P.B @ y - P.C   # first, before any product with a non-finite lam
    target = -(P.Bt @ lam)
    raw = target - P.hpack.select(y, target)
    dy = tangent_rule(raw, *active_faces(y, P.Omega))
    return tau * dy, tau * dlam


def _step_map(P: Problem, dtau: float, z: np.ndarray, pieces, regions, rows):
    """Write the mode of the step from z = [y, lam, 1] into the buffers rows; return them.

    rows = (M, F, lower, upper) are the buffers of _piece_rows for a piece
    of x*(lam) valid at lam: z+ = M z, and F z stacks y, v, u, the piece's
    rows T, then y+ - y and dlam, with brackets (lower, upper) on
    [y, v, u, T]. Looks up the pieces of h at y (pieces) and so the forward
    rows V of v = y + dtau * (-B'lam - c2 y - qd), the prox regions at
    v = V z (regions) and the clip into Omega at u = U z, and overwrites
    in place the rows that depend on them: the diagonal and last column of
    V, all of U, Y (the y rows of M) and Y - I_y, and the brackets of y, v
    and u. The rows the piece owns, and those no mode changes, are not
    touched. The buffers hold this mode until the next call overwrites it.
    """
    m = P.m
    M, F, lower, upper = rows
    nb = lower.size
    c2, qd, _, lower[:m], upper[:m] = pieces.rows(z[:m])
    V, U, Y = F[m:2 * m], F[2 * m:3 * m], M[:m]
    V.ravel()[:m * (z.size + 1):z.size + 1] = 1.0 - c2 * dtau   # the diagonal of V's y columns
    V[:, -1] = qd * -dtau
    slope, icpt, lower[m:2 * m], upper[m:2 * m] = regions.rows(V.dot(z))
    np.multiply(slope[:, None], V, out=U)
    U[:, -1] += icpt
    lo, hi = P.Omega.lo, P.Omega.hi
    at_lo, at_hi, lower[2 * m:3 * m], upper[2 * m:3 * m] = clip_pattern(U.dot(z), lo, hi)
    np.copyto(Y, U)
    clipped = at_lo | at_hi
    if np.count_nonzero(clipped):   # cheaper than clipped.any() on short vectors
        Y[clipped] = 0.0
        Y[:, -1] = np.where(at_lo, lo, np.where(at_hi, hi, U[:, -1]))
    np.subtract(Y, F[:m], out=F[nb:nb + m])
    return rows


def _piece_rows(P: Problem, dtau: float, lam: np.ndarray):
    """The mode buffers (M, F, lower, upper) of the piece of x*(lam) at lam (x_star_piece).

    Allocates the buffers of _step_map on z = [y, lam, 1] and writes the
    rows that hold while the piece does: the piece's own rows, L (the lam
    rows of M), T and D (rows of F: in the piece, lam+ = L z, dlam = D z and
    the piece holds while lower < T z <= upper) and T's brackets, and the
    rows no mode changes, the identity rows I_y of F, the -dtau B' columns
    of V and M's last row. Every mode read in the piece overwrites the rest.
    """
    m, p = P.m, P.p
    N = m + p + 1
    x0, X1, T0, T1, tlo, thi = x_star_piece(P, lam)
    nb = 3 * m + T0.size
    M, F = np.zeros((N, N)), np.zeros((nb + m + p, N))
    lower, upper = np.empty(nb), np.empty(nb)
    lower[3 * m:] = tlo
    upper[3 * m:] = thi
    F.ravel()[:m * (N + 1):N + 1] = 1.0   # I_y
    F[m:2 * m, m:-1] = P.Bt * -dtau
    T, D, L = F[3 * m:nb], F[nb + m:], M[m:-1]
    T[:, m:-1] = T1
    T[:, -1] = T0
    D[:, :m] = P.B
    D[:, m:-1] = P.A @ X1
    D[:, -1] = P.A @ x0 - P.C
    # L = dtau D + [0, I_p, 0]: the zeros of I_p are added too, as they turn -0.0 into +0.0
    np.multiply(D, dtau, out=L)
    lam_cols = L[:, m:-1]
    lam_cols += 0.0
    ones = M.ravel()[m * (N + 1)::N + 1]   # the diagonal of I_p and M's last row
    ones += 1.0
    return M, F, lower, upper


def _states(squares: list, z: np.ndarray, size: int) -> np.ndarray:
    """z_0 .. z_(size - 1) of z_(j+1) = M z_j from z_0 = z: S[j:2j] = S[:j] (M^j)', j = 1, 2, 4, ...

    squares holds (M^(2^i))' for i = 0, 1, ...; it gets the ones it lacks appended.
    """
    S = np.empty((size, z.size))
    S[0] = z
    for i in range((size - 1).bit_length()):
        if i == len(squares):
            squares.append(squares[-1].dot(squares[-1]))
        j = 1 << i
        c = min(j, size - j)
        np.dot(S[:c], squares[i], out=S[j:j + c])
    return S


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
    projected Euler.

    The step is piecewise affine in z = [y, lam, 1]. Its mode is the piece
    of h holding each y_j and the prox region holding each v_j (rows of two
    PieceTables, with their brackets), whether the clip into Omega keeps
    u_j = prox(v)_j or takes lo_j or hi_j, and the affine piece of x*(lam)
    (inner.x_star_piece). In one mode the step is z+ = M z, and y, v, u, the
    rows T of the piece of x*, y+ - y and dlam are rows F z. integrate reads
    the mode at z in one call, _step_map, which writes it into the buffers
    (M, F, lower, upper) of the piece of x* in use. _piece_rows allocates
    them when a piece is read and writes the rows it owns (L, the lam rows
    of M; T and D, the dlam rows, in F; T's brackets) and the rows no mode
    changes (F's identity rows for y, the -dtau B' columns of V, M's last
    row); they stay until the next piece read. Every mode read overwrites
    the rest: the y rows Y of M, the diagonal and last column of V, U and
    Y - I_y in F, and the brackets of y, v and u. M, F and the brackets are
    read only while their mode lasts (the squares of M restart at each
    read), so no step sees a row of another mode. The mode's first block takes
    K = BLOCK_STEPS steps and each block after it twice as many, up to
    RUN_STEPS steps and no more than keeps the block's products below
    RUN_PRODUCT (a multiple of K), and none holds a state past
    z_(n_steps), the last of a run to t_end. A block of s steps gets its
    states z_0 .. z_(s-1) by doubling on them (_states), in ceil(log2 s)
    products with the squares M^(2^i), which are kept for the mode; the
    next block starts at M z_(s-1). The rows F z_j of a block come from one
    more product, one column per step. Vectorized tests, each a reduction
    over the rows of a column, then find the first step that leaves the
    mode (a bracket lower < [y, v, u, T] <= upper fails), whose residual
    meets stop_tol or is not finite, or that is the last, and the kept rows
    go straight into the sample buffers. The mode is read again at the step
    that left it. The mode read at z is the mode of the step from z, so
    that step is taken without testing its brackets; every later step is
    tested, the first of a block that continues a mode too. Where rounding
    puts a value on one side of an edge for the read and on the other for
    the block, the step is taken in the mode read: a tie that rounding
    breaks either way. So every read advances at least one step, and the
    steps are those of a step-by-step loop up to the order of rounding. The
    new read keeps the piece of x* where its rows T pass at the step that
    left the mode, as they pass at every step inside it; x_star_piece runs
    again only where one of them failed, so a free X, which has none, reads
    its piece once.

    Records the initial condition, every record_every-th accepted step and
    the final state, each with the residual of the step taken from it.
    Terminates at cfg.t_end or as soon as the tau-normalized step residual
    ||((y+ - y)/dtau, dlam)|| drops to cfg.stop_tol; that last step is not
    taken. Raises InitialPointOutsideOmega, or NonFiniteState (step size too
    large) when a step is not finite or, as soon as it is recorded, a lam
    outside DATA_RANGE.
    """
    y = np.asarray(s0.y, dtype=float).copy()
    lam = np.asarray(s0.lam, dtype=float).copy()
    if y.shape != (P.m,) or lam.shape != (P.p,):
        raise InitialPointOutsideOmega(
            f"state shapes {y.shape}/{lam.shape}, expected ({P.m},)/({P.p},)"
        )
    if not P.Omega.contains(y):
        raise InitialPointOutsideOmega("y(0) violates Omega beyond 1e-9")

    m, p, K = P.m, P.p, BLOCK_STEPS
    dt, every, stop_tol = cfg.dt, cfg.record_every, cfg.stop_tol
    dtau = dt * cfg.tau
    # the squared residual is ||y+ - y||^2 / dtau^2 + ||dlam||^2
    weights = np.concatenate([np.full(m, 1.0 / (dtau * dtau)), np.ones(p)])
    advice = (f"dt*tau*L = {dtau * P.drift_lipschitz:.3g} with drift Lipschitz estimate "
              f"L = {P.drift_lipschitz:.3g}; reduce dt")
    if not math.isfinite(dtau * float(P.hpack.jump_sum.max())):   # the prox table overflows
        raise NonFiniteState(f"dt * tau times the jumps of h' is not finite; {advice}")
    pieces, regions = P.hpack.pieces, P.hpack.jump_prox(dtau)
    n_steps = math.ceil(cfg.t_end / dt - 1e-12)   # >= 1: IntegratorConfig checks it

    # never sized by t_end alone: integration may stop at stop_tol long before it
    rows = min(n_steps // every + 2, RECORD_BLOCK)
    ts, drifts = np.empty(rows), np.empty(rows)
    ys, lams = np.empty((rows, m)), np.empty((rows, p))
    n = 0

    def keep(S, drift, count, final):
        """Record rows j < count of the block on the record_every grid; row count - 1 if final.

        Raises NonFiniteState at the first recorded lam outside DATA_RANGE.
        """
        nonlocal ts, drifts, ys, lams, n
        grid = slice((-k) % every, count, every)
        kept = len(range(count)[grid])
        last = final and (k + count - 1) % every != 0
        while n + kept + last > ts.size:
            ts, drifts, ys, lams = (np.concatenate((b, np.empty_like(b)))
                                    for b in (ts, drifts, ys, lams))
        end = n + kept
        ts[n:end] = np.arange(k + grid.start, k + count, every) * dt
        ys[n:end], lams[n:end], drifts[n:end] = S[grid, :m], S[grid, m:-1], drift[grid]
        if last:
            ts[end], ys[end], lams[end], drifts[end] = (k + count - 1) * dt, S[count - 1, :m], \
                S[count - 1, m:-1], drift[count - 1]
            end += 1
        recorded = np.abs(lams[n:end])
        if recorded.max(initial=0.0) > DATA_RANGE:   # |lam - lam*|^2 would overflow
            t = ts[n + np.argmax((recorded > DATA_RANGE).any(axis=1))]
            raise NonFiniteState(f"recorded lam left [-{DATA_RANGE:g}, {DATA_RANGE:g}] at t = {t}; "
                                 f"{advice}")
        n = end

    z = np.concatenate([y, lam, [1.0]])
    k = 0          # step index of z
    rows = None    # the mode buffers of the piece of x*(lam) that holds at z, once read
    read = True    # read the mode at z
    with np.errstate(over="ignore", invalid="ignore"):  # blow-up raises NonFiniteState
        while True:
            if read:
                if rows is None:
                    rows = _piece_rows(P, dtau, z[m:-1])
                M, F, lower, upper = _step_map(P, dtau, z, pieces, regions, rows)
                nb = lower.size
                lower, upper = lower[:, None], upper[:, None]
                squares = [M.T]   # (M^(2^i))' of the mode, squared as blocks need them
                size = K
                cap = K * max(1, min(RUN_STEPS, RUN_PRODUCT // F.size) // K)   # longest block
            size = min(size, n_steps - k + 1)   # no state past step n_steps
            S = _states(squares, z, size)
            G = F.dot(S.T)   # the rows F z_j, one column per step
            inside = (lower < G[:nb]) & (G[:nb] <= upper)
            ok = inside.all(axis=0)
            if read:   # the mode read at z is the mode of its step
                ok[0], read = True, False
            drift = np.sqrt(weights.dot(np.square(G[nb:])))
            go = ok & (drift > stop_tol)
            go &= drift < np.inf
            final = n_steps - k < size   # the block holds step n_steps, the last
            e = int(np.argmin(go))
            if go[e]:   # no step of the block halts
                e = size
            if e == size and not final:
                keep(S, drift, size, False)
                z, k = S[-1].dot(squares[0]), k + size
                size = min(2 * size, cap)
                continue
            if e == size or ok[e]:   # the last step, or the residual meets stop_tol
                e = min(e, size - 1)
                if not drift[e] < np.inf:
                    raise NonFiniteState(f"non-finite state at t = {(k + e) * dt}; {advice}")
                stop = drift[e] <= stop_tol
                keep(S, drift, e + 1, True)
                break
            # z_e leaves the mode; the residual of z_(e-1) was finite, so an
            # overflow in z_e is lam + dtau * dlam
            if not np.isfinite(S[e]).all():
                raise NonFiniteState(f"non-finite state at t = {(k + e) * dt}; {advice}")
            if e > 0:
                keep(S, drift, e, False)
                z, k = S[e].copy(), k + e
            if not inside[3 * m:, e].all():   # the rows T of the piece of x* fail at z_e
                rows = None
            read = True

    return Trajectory(
        t=ts[:n].copy(),
        y=ys[:n].copy(),
        lam=lams[:n].copy(),
        drift_norm=drifts[:n].copy(),
        config=cfg,
        terminated_by=TerminationReason.STOP_TOL if stop else TerminationReason.TIME_LIMIT,
    )
