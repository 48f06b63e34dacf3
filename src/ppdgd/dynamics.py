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
blocks of BLOCK_STEPS steps and more, a few numpy calls per block. The
first block after a read doubles on its states with the squares of M; a
block that continues the mode takes its states from the last block's in
one product by (M^s)', s that block's size. It reads a mode once per
state, takes the first step as read and reads again only at a step that
leaves the mode. One set of mode buffers (M, F, lower, upper) serves a
whole run, and every read (_reread) rewrites in place only the rows that
failed: the first, after _piece_rows allocates the buffers, every row of
every coordinate; each later one, at the step that left the mode, the
rows of each coordinate whose piece, prox region or clip changed and,
where a row of the piece of x* failed, that piece's rows, solved from
the old piece's active pattern (see integrate). That pays where modes
last long, as in the benchmark's solves, which change mode a few times
in thousands of steps; where the mode changes every few steps, each read
costs more than the steps it batches.

integrate copies each recorded sample (the start, every record_every-th step
and the last step) once, [y, lam] into one preallocated buffer of m + p
columns and its residual into another. They start with room for the whole
run, capped at RECORD_BLOCK rows, and double when full, so a long t_end
costs no memory up front. t is the recorded step index times dt, built at
return. The Trajectory gets y and lam column-major (Fortran order), one
contiguous run of samples per coordinate, so the passes over samples that
follow (envelope_series, BoxSet.violation) run one long numpy loop per
coordinate rather than one short one per sample. Trajectory.write_csv
hands them to export.write_csv, which formats a block of rows per numpy
pass.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InitialPointOutsideOmega, InvalidConfig, NonFiniteState
from .geometry import _check_dim, _check_member, active_faces, tangent_rule
from .inner import _grad_phi, x_star_piece
from .model import DATA_RANGE, Problem

RECORD_BLOCK = 4096   # rows of the first sample buffer
BLOCK_STEPS = 128     # steps of a mode's first block, doubled per block up to the longest
RUN_STEPS = 1024      # steps of a mode's longest block
# bound on steps * N_z * rows of a block's product F S': OpenBLAS threads larger products.
# It bounds the products S (M^s)' of a continued block too: those take at most as many
# rows of S as the block has steps, times N_z * N_z, and F has at least N_z rows
RUN_PRODUCT = 2 ** 18


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

    y and lam hold a sample per row; integrate returns them column-major
    (Fortran order), so each coordinate's samples are contiguous. drift_norm
    is the tau-normalized residual ||((y+ - y)/dtau, dlam)|| of the step
    taken from the sample.
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


def _piece_rows(P: Problem, dtau: float, lam: np.ndarray, rows=None, start=None):
    """Write the piece of x*(lam) at lam (x_star_piece) into the mode buffers rows.

    Returns (rows, piece). The rows the piece owns hold while it does: L
    (the lam rows of M), T and D (rows of F: in the piece, lam+ = L z,
    dlam = D z and the piece holds while lower < T z <= upper) and T's
    brackets. With rows None, first allocates the buffers (M, F, lower,
    upper, at) of the step from z = [y, lam, 1] (see _reread), whose shapes
    depend only on P, as T has a row per coordinate of X with a finite
    bound and lo < hi, and writes the rows no mode changes: the identity
    rows I_y of F, the -dtau B' columns of V, the B columns of D and M's
    last row. at, the flat table indices of each y_j's piece and v_j's
    region, is left for the first read to set. start, the piece read
    before, starts x_star_piece's solve at its pattern.
    """
    m, p = P.m, P.p
    N = m + p + 1
    piece = x_star_piece(P, lam, start)
    x0, X1, T0, T1, tlo, thi, _ = piece
    if rows is None:
        nb = 3 * m + T0.size
        M, F = np.zeros((N, N)), np.zeros((nb + m + p, N))
        F.ravel()[:m * (N + 1):N + 1] = 1.0   # I_y
        F[m:2 * m, m:-1] = P.Bt * -dtau
        F[nb + m:, :m] = P.B
        M[-1, -1] = 1.0
        rows = M, F, np.empty(nb), np.empty(nb), [0] * (2 * m)
    M, F, lower, upper, _ = rows
    nb = lower.size
    lower[3 * m:] = tlo
    upper[3 * m:] = thi
    T, D, L = F[3 * m:nb], F[nb + m:], M[m:-1]
    T[:, m:-1] = T1
    T[:, -1] = T0
    D[:, m:-1] = P.A @ X1
    D[:, -1] = P.A @ x0 - P.C
    # L = dtau D + [0, I_p, 0]: the zeros of I_p are added too, as they turn -0.0 into +0.0
    np.multiply(D, dtau, out=L)
    lam_cols = L[:, m:-1]
    lam_cols += 0.0
    ones = L.ravel()[m::N + 1]   # the diagonal of I_p
    ones += 1.0
    return rows, piece


def _reread(P: Problem, dtau: float, z: np.ndarray, pieces, regions, rows, piece, failed):
    """Rewrite the mode buffers rows of the step from z where the rows failed; return (rows, piece).

    rows = (M, F, lower, upper, at) are the buffers of _piece_rows for a
    piece of x*(lam): z+ = M z, and F z stacks y, v, u, the piece's rows T,
    then y+ - y and dlam, with brackets (lower, upper) on [y, v, u, T]; at
    holds the flat indices of each y_j's piece of h in pieces and v_j's
    prox region in regions. failed flags the bracket rows [y, v, u, T] that
    fail at z. Where a row of T fails, _piece_rows writes the piece of x*
    at z's lam over the old one, its solve started at the old piece's
    pattern. For each coordinate j whose y, v or u row fails, j's piece
    index steps to y_j (PieceTable.step), which rewrites the diagonal entry
    and last column of row j of V, from v = y + dtau (-B'lam - c2 y - qd);
    its region index then steps to v_j of v = V z, which rewrites row j of
    U, and the clip into Omega of u_j of u = U z rewrites row j of Y (the y
    rows of M) and of Y - I_y; each with its bracket. A row no failed row
    depends on is not touched, so the rows of coordinates whose brackets
    pass keep what the read that wrote them found, which is what a read of
    every row at z finds, save where a value that passed its bracket in the
    block's product would fail it in the read's: a tie that rounding breaks
    either way.
    """
    m = P.m
    flat = np.flatnonzero(failed).tolist()
    if flat[-1] >= 3 * m:   # a row of T
        rows, piece = _piece_rows(P, dtau, z[m:-1], rows, piece)
    coords = sorted({i % m for i in flat if i < 3 * m})
    if not coords:
        return rows, piece
    M, F, lower, upper, at = rows
    nb = lower.size
    V, U = F[m:2 * m], F[2 * m:3 * m]
    c2, qd, _, ylo, yhi = pieces.columns
    for j in coords:
        i = at[j] = pieces.step(at[j], z[j])
        V[j, j] = 1.0 - c2[i] * dtau
        V[j, -1] = qd[i] * -dtau
        lower[j], upper[j] = ylo[i], yhi[i]
    v = V.dot(z)
    slope, icpt, vlo, vhi = regions.columns
    for j in coords:
        i = at[m + j] = regions.step(at[m + j], v[j])
        Uj = U[j]
        np.multiply(V[j], slope[i], out=Uj)
        Uj[-1] += icpt[i]
        lower[m + j], upper[m + j] = vlo[i], vhi[i]
    u = U.dot(z)
    lo, hi = P.Omega.lo, P.Omega.hi
    for j in coords:
        k, Yj = 2 * m + j, M[j]
        if u[j] <= lo[j]:
            Yj[:] = 0.0
            Yj[-1], lower[k], upper[k] = lo[j], -np.inf, lo[j]
        elif u[j] > hi[j]:
            Yj[:] = 0.0
            Yj[-1], lower[k], upper[k] = hi[j], hi[j], np.inf
        else:
            Yj[:] = U[j]
            lower[k], upper[k] = lo[j], hi[j]
        np.subtract(Yj, F[j], out=F[nb + j])
    return rows, piece


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


def _power(squares: list, s: int) -> np.ndarray:
    """(M^s)' as the product of the squares (M^(2^i))' over the bits of s; appends the ones it lacks."""
    bits = [i for i in range(s.bit_length()) if s >> i & 1]
    while len(squares) <= bits[-1]:
        squares.append(squares[-1].dot(squares[-1]))
    power = squares[bits[0]]
    for i in bits[1:]:
        power = power.dot(squares[i])
    return power


def _next_states(S: np.ndarray, power: np.ndarray, size: int) -> np.ndarray:
    """z_s .. z_(s + size - 1) from the block S = z_0 .. z_(s-1), s >= size / 2, and power = (M^s)'.

    Its first min(s, size) states are S (M^s)', the rest the first ones (M^s)'.
    """
    s = len(S)
    out = np.empty((size, S.shape[1]))
    c = min(s, size)
    np.dot(S[:c], power, out=out[:c])
    if size > s:
        np.dot(out[:size - s], power, out=out[s:])
    return out


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
    rows T of the piece of x*, y+ - y and dlam are rows F z. The mode lives
    in one set of buffers (M, F, lower, upper) per run, whose shapes depend
    only on P. The first read, at z_0, allocates them in _piece_rows, which
    writes the rows the piece of x* owns (L, the lam rows of M; T and D, the
    dlam rows, in F; T's brackets) and the rows no mode changes (F's
    identity rows for y, the -dtau B' columns of V, the B columns of D, M's
    last row). Every read (_reread) then rewrites only the rows that fail:
    the first, at z_0, the rows of every coordinate, the y rows Y of M, the
    diagonal and last column of V, U and Y - I_y in F, and the brackets of
    y, v and u, its table indices stepped from y_0's intervals (found by
    PieceTable.index); every later one, at the step z_e that left the mode,
    what failed there (inside[:, e]): the rows of each coordinate whose y,
    v or u bracket failed, its table indices stepped from the old ones
    (PieceTable.step), and, where a row of T failed, the piece's own rows,
    solved from the old piece's active pattern with no table lookup. The
    rows whose brackets passed are those a read of every row at z_e writes,
    save a tie where the block's product and the read's put a value on
    either side of an edge, so M, F and the brackets equal that read's bit
    for bit. The piece of x* is kept while its rows T pass, as they pass at
    every step inside the mode, so a free X, whose T has no rows, reads its
    piece once. M, F and the
    brackets are read only while their mode lasts (the squares of M restart
    at each read), so no step sees a row of another mode. The mode's first
    block takes K = BLOCK_STEPS steps and each block after it twice as
    many, up to RUN_STEPS steps and no more than keeps the block's products
    below RUN_PRODUCT (a multiple of K), and none holds a state past
    z_(n_steps), the last of a run to t_end. The first block after a read,
    of s steps, gets its states z_0 .. z_(s-1) by doubling on them
    (_states), in ceil(log2 s) products with the squares M^(2^i), which are
    kept for the mode. A block that continues the mode after a block of s
    steps gets its states from that block's in one product by (M^s)', and
    its second half, when it is twice as long, from its first half in one
    more (_next_states). M^s is a kept square, or at a cap that is no power
    of two the product of the squares over the bits of s (_power), formed
    once per mode and size. The rows F z_j of a block come from one more
    product, one column per step. Vectorized tests, each a reduction
    over the rows of a column, then find the first step that leaves the
    mode (a bracket lower < [y, v, u, T] <= upper fails), whose residual
    meets stop_tol or is not finite, or that is the last, and the kept rows
    are copied once into the sample buffer. The mode is read again at the
    step that left it. The mode read at z is the mode of the step from z, so
    that step is taken without testing its brackets; every later step is
    tested, the first of a block that continues a mode too; where that one
    leaves the mode, the mode is read at the block's first state. Where
    rounding puts a value on one side of an edge for the read and on the
    other for the block, the step is taken in the mode read: a tie that
    rounding breaks either way. So every read advances at least one step, and the
    steps are those of a step-by-step loop up to the order of rounding.

    Records the initial condition, every record_every-th accepted step and
    the final state, each with the residual of the step taken from it; the
    Trajectory's y and lam are column-major.
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
    zs, drifts = np.empty((rows, m + p)), np.empty(rows)
    n = 0

    def keep(S, drift, count, final):
        """Record rows j < count of the block on the record_every grid; row count - 1 if final.

        Raises NonFiniteState at the first recorded lam outside DATA_RANGE.
        """
        nonlocal zs, drifts, n
        grid = slice((-k) % every, count, every)
        kept = len(range(count)[grid])
        last = final and (k + count - 1) % every != 0
        while n + kept + last > drifts.size:
            zs, drifts = (np.concatenate((b, np.empty_like(b))) for b in (zs, drifts))
        end = n + kept
        zs[n:end], drifts[n:end] = S[grid, :-1], drift[grid]
        if last:
            zs[end], drifts[end] = S[count - 1, :-1], drift[count - 1]
            end += 1
        recorded = np.abs(zs[n:end, m:])
        if recorded.max(initial=0.0) > DATA_RANGE:   # |lam - lam*|^2 would overflow
            i = int(np.argmax((recorded > DATA_RANGE).any(axis=1)))
            step = k + count - 1 if i == kept else k + grid.start + i * every
            raise NonFiniteState(f"recorded lam left [-{DATA_RANGE:g}, {DATA_RANGE:g}] at "
                                 f"t = {step * dt}; {advice}")
        n = end

    z = np.concatenate([y, lam, [1.0]])
    k = 0          # step index of the block's first state
    with np.errstate(over="ignore", invalid="ignore"):  # blow-up raises NonFiniteState
        # the first read allocates the mode buffers and rewrites every y, v and u row at z,
        # each table index stepped from y's interval: v is y moved by a step of dtau
        rows, piece = _piece_rows(P, dtau, z[m:-1])
        M, F, lower, upper, at = rows
        at[:] = pieces.index(z[:m]).tolist() + regions.index(z[:m]).tolist()
        nb = lower.size
        failed = np.arange(nb) < 3 * m
        rows, piece = _reread(P, dtau, z, pieces, regions, rows, piece, failed)
        lower, upper = lower[:, None], upper[:, None]
        cap = K * max(1, min(RUN_STEPS, RUN_PRODUCT // F.size) // K)   # longest block
        read = True    # the mode was read at z
        while True:
            if read:
                squares = [M.T]   # (M^(2^i))' of the mode, squared as blocks need them
                size = min(K, n_steps - k + 1)   # no state past step n_steps
                S = _states(squares, z, size)
                s = 0   # the block size whose power (M^s)' is at hand
            else:   # the block continues the last one, S of s steps
                if len(S) != s:
                    s = len(S)
                    power = _power(squares, s)
                size = min(2 * s, cap, n_steps - k + 1)
                S = _next_states(S, power, size)
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
                k += size
                continue
            if e == size or ok[e]:   # the last step, or the residual meets stop_tol
                e = min(e, size - 1)
                if not drift[e] < np.inf:
                    raise NonFiniteState(f"non-finite state at t = {(k + e) * dt}; {advice}")
                stop = drift[e] <= stop_tol
                keep(S, drift, e + 1, True)
                k += e
                break
            # z_e leaves the mode; the residual of z_(e-1) was finite, so an
            # overflow in z_e is lam + dtau * dlam
            if not np.isfinite(S[e]).all():
                raise NonFiniteState(f"non-finite state at t = {(k + e) * dt}; {advice}")
            if e > 0:
                keep(S, drift, e, False)
            z, k = S[e].copy(), k + e
            rows, piece = _reread(P, dtau, z, pieces, regions, rows, piece, ~inside[:, e])
            read = True

    steps = np.arange(n) * every   # the recorded step indices; the last is step k
    steps[-1] = k
    return Trajectory(
        t=steps * dt,
        y=np.asfortranarray(zs[:n, :m]),
        lam=np.asfortranarray(zs[:n, m:]),
        drift_norm=drifts[:n].copy(),
        config=cfg,
        terminated_by=TerminationReason.STOP_TOL if stop else TerminationReason.TIME_LIMIT,
    )
