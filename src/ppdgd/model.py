"""Problem model: box sets, quadratic smooth cost, separable piecewise-quadratic cost.

A problem instance couples a strongly convex quadratic f(x) on X with a
separable, strongly convex, piecewise-quadratic (possibly kinked) h(y) on a
compact box Omega through the affine constraint A x + B y = C. X is a box or
all of R^n; both are a BoxSet, the free set being the box [-inf, inf]^n, so
clipping, membership and the face tests treat it like any other box. All
derived curvature and rate constants are computed once at build time and the
instance is immutable afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NonCompactOmega,
    NonFiniteInput,
    NotStronglyConvex,
    RankDeficient,
)

CONTINUITY_TOL = 1e-12
RANK_RATIO_TOL = 1e-10
ACTIVITY_TOL = 1e-9   # a coordinate this close to a bound sits on that face
MEMBER_TOL = 1e-9     # a point at most this far outside a box still belongs to it
DATA_RANGE = 1e150    # largest magnitude of a problem entry: the product of two stays finite


def _require_finite(name: str, a: np.ndarray) -> None:
    """Raise NonFiniteInput naming the argument and its first NaN or infinite entry."""
    bad = ~np.isfinite(a)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise NonFiniteInput(f"{name}{list(idx)} = {a[idx]} is not finite")


def _require_in_range(arrays) -> None:
    """Raise NonFiniteInput naming the first entry of the (name, array) pairs beyond DATA_RANGE."""
    if np.abs(np.concatenate([a.ravel() for _, a in arrays])).max() <= DATA_RANGE:
        return
    for name, a in arrays:
        bad = np.abs(a) > DATA_RANGE
        if bad.any():
            idx = tuple(int(i) for i in np.argwhere(bad)[0])
            raise NonFiniteInput(f"{name}{list(idx)} = {a[idx]} exceeds {DATA_RANGE:g} in magnitude")


def _require_normal(name: str, value: float) -> None:
    """Raise NonFiniteInput naming a derived constant that is not finite or is subnormal."""
    if not math.isfinite(value):
        raise NonFiniteInput(f"{name} = {value} is not finite")
    if 0.0 < abs(value) < np.finfo(float).tiny:
        raise NonFiniteInput(f"{name} = {value} is subnormal")


def cholesky_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve H z = b given the lower Cholesky factor L of H."""
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


@dataclass(frozen=True, eq=False)
class BoxSet:
    """Axis-aligned box [lo, hi]; a free set is the box [-inf, inf]^dim."""

    lo: np.ndarray
    hi: np.ndarray

    @staticmethod
    def free(dim: int) -> "BoxSet":
        if dim < 1:
            raise DimensionMismatch(f"set dimension must be >= 1, got {dim}")
        return BoxSet(np.full(dim, -np.inf), np.full(dim, np.inf))

    @staticmethod
    def box(lo, hi) -> "BoxSet":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise DimensionMismatch(
                f"box bounds must be equal-length vectors, got {lo.shape} and {hi.shape}"
            )
        if lo.size == 0:
            raise DimensionMismatch("box must have dimension >= 1")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise NonCompactOmega("box bounds must be finite")
        if np.any(lo > hi):
            bad = int(np.argmax(lo > hi))
            raise DimensionMismatch(f"lo[{bad}] > hi[{bad}] ({lo[bad]} > {hi[bad]})")
        return BoxSet(lo, hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def is_free(self) -> bool:
        """True iff the set is all of R^dim (every bound infinite)."""
        return bool(np.isneginf(self.lo).all() and np.isposinf(self.hi).all())

    def violation(self, v) -> float:
        """Largest distance by which an entry of v (a point, or rows of points) leaves the box.

        NaN when v holds a NaN, also for a free set, or an infinity at an
        infinite bound (inf - inf). Rows are first reduced to each
        coordinate's least and greatest entry, which gives the same bits:
        rounding is monotone, so max_i fl(lo - v_i) = fl(lo - min_i v_i).
        The reductions loop over the samples of one coordinate at a time, on
        v's transpose; integrate's column-major samples need no copy for it,
        and min and max give the same bits in either layout.
        """
        v = np.asarray(v, dtype=float)
        low = high = v
        if v.ndim == 2:   # a contiguous row per coordinate reduces fastest
            cols = np.ascontiguousarray(v.T)
            low, high = np.min(cols, axis=1, initial=np.inf), np.max(cols, axis=1, initial=-np.inf)
        with np.errstate(invalid="ignore"):
            return float(np.max(np.maximum(self.lo - low, high - self.hi), initial=0.0))

    def contains(self, v) -> bool:
        """True iff v lies in the box within MEMBER_TOL."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise DimensionMismatch(f"expected vector of length {self.dim}, got {v.shape}")
        return self.violation(v) <= MEMBER_TOL


@dataclass(frozen=True, eq=False)
class QuadraticSmoothFn:
    """f(x) = 0.5 x'Hx + c'x + d with H symmetric positive definite."""

    H: np.ndarray
    c: np.ndarray
    d: float = 0.0
    alpha: float = field(init=False, default=0.0)     # smallest eigenvalue of H
    alpha_m: float = field(init=False, default=0.0)   # largest eigenvalue of H

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        c = np.asarray(self.c, dtype=float)
        _require_finite("H", H)
        _require_finite("c", c)
        _require_finite("d", np.asarray(self.d, dtype=float))
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise DimensionMismatch(f"H must be square, got shape {H.shape}")
        if c.shape != (H.shape[0],):
            raise DimensionMismatch(f"c has shape {c.shape}, expected ({H.shape[0]},)")
        if not np.allclose(H, H.T, atol=1e-12 * max(1.0, float(np.abs(H).max()))):
            raise DimensionMismatch("H must be symmetric")
        H = 0.5 * H + 0.5 * H.T   # 0.5 * (H + H.T) overflows for entries near the float maximum
        eigs = np.linalg.eigvalsh(H)
        if not np.isfinite(eigs).all():
            raise NonFiniteInput(f"H has eigenvalues {eigs[0]}..{eigs[-1]}, not all finite")
        if eigs[0] <= 0.0:
            if abs(eigs[0]) <= eigs.size * np.finfo(float).eps * eigs[-1]:
                # within roundoff of zero: eigvalsh cannot tell singular from badly scaled
                raise NotStronglyConvex(
                    f"H is singular to working precision (eigenvalues {eigs[0]}..{eigs[-1]})")
            raise NotStronglyConvex(f"H is not positive definite (min eigenvalue {eigs[0]})")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "alpha", float(eigs[0]))
        object.__setattr__(self, "alpha_m", float(eigs[-1]))

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    @property
    def is_diagonal(self) -> bool:
        return bool(np.count_nonzero(self.H - np.diag(np.diagonal(self.H))) == 0)

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.H @ x + self.c @ x + self.d)

    def grad(self, x) -> np.ndarray:
        return self.H @ np.asarray(x, dtype=float) + self.c


@dataclass(frozen=True, eq=False)
class PiecewiseScalarFn:
    """One coordinate of h: convex piecewise quadratic with K breakpoints.

    Piece i has coefficients (p, q, r), meaning g(s) = p s^2 + q s + r, and
    covers (b_{i-1}, b_i] with b_0 = -inf and b_{K+1} = +inf. Pieces must agree
    in value at every breakpoint (within 1e-12), every piece must have 2p > 0,
    and the derivative may only jump upward at a breakpoint. Every entry must
    lie within DATA_RANGE, which is checked before any arithmetic on them, and
    the value of each piece at its breakpoints must be finite.
    """

    breakpoints: np.ndarray   # (K,) strictly increasing
    coeffs: np.ndarray        # (K+1, 3) rows (p, q, r)

    @np.errstate(over="ignore", invalid="ignore")   # p b^2 may overflow: NonFiniteInput names it
    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float).reshape(-1)
        cf = np.asarray(self.coeffs, dtype=float)
        _require_finite("breakpoints", bp)
        _require_finite("coeffs", cf)
        if cf.ndim != 2 or cf.shape[1] != 3:
            raise DimensionMismatch(f"coeffs must be (K+1, 3), got {cf.shape}")
        if cf.shape[0] != bp.size + 1:
            raise DimensionMismatch(
                f"{bp.size} breakpoints require {bp.size + 1} pieces, got {cf.shape[0]}"
            )
        _require_in_range([("breakpoints", bp), ("coeffs", cf)])   # before any arithmetic
        if bp.size and not np.all(np.diff(bp) > 0):
            raise DimensionMismatch("breakpoints must be strictly increasing")
        if np.any(2.0 * cf[:, 0] <= 0.0):
            raise NotStronglyConvex("every piece needs second derivative 2p > 0")
        for k, b in enumerate(bp):
            pl, ql, rl = cf[k]
            pr, qr, rr = cf[k + 1]
            left_val = pl * b * b + ql * b + rl
            right_val = pr * b * b + qr * b + rr
            if not (math.isfinite(left_val) and math.isfinite(right_val)):
                raise NonFiniteInput(f"breakpoints[{k}] = {b}: a piece's value there is not finite")
            if not abs(left_val - right_val) <= CONTINUITY_TOL:
                raise NotStronglyConvex(
                    f"discontinuity {left_val - right_val:.3e} at breakpoint {b}"
                )
            dl = 2.0 * pl * b + ql
            dr = 2.0 * pr * b + qr
            if not dl <= dr + CONTINUITY_TOL:
                raise NotStronglyConvex(
                    f"derivative drops at breakpoint {b} ({dl} -> {dr}); not convex"
                )
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coeffs", cf)

    @staticmethod
    def quadratic(p: float, q: float = 0.0, r: float = 0.0) -> "PiecewiseScalarFn":
        """Single smooth piece p s^2 + q s + r."""
        return PiecewiseScalarFn(np.empty(0), np.array([[p, q, r]]))

    @property
    def beta(self) -> float:
        """Strong-convexity constant: smallest second derivative over pieces."""
        return float(np.min(2.0 * self.coeffs[:, 0]))

    def piece_index(self, s: float) -> int:
        """Piece covering s; at a breakpoint this is the left piece."""
        return int(np.searchsorted(self.breakpoints, s, side="left"))

    def value(self, s: float) -> float:
        p, q, r = self.coeffs[self.piece_index(s)]
        return float(p * s * s + q * s + r)

    def clarke(self, s: float) -> tuple[float, float]:
        """Generalized-gradient interval at s.

        Degenerate [g, g] inside a piece; [left derivative, right derivative]
        exactly at a breakpoint.
        """
        i = self.piece_index(s)
        p, q, _ = self.coeffs[i]
        lo = 2.0 * p * s + q
        if i < self.breakpoints.size and self.breakpoints[i] == s:
            pr, qr, _ = self.coeffs[i + 1]
            return lo, 2.0 * pr * s + qr
        return lo, lo


class PieceTable:
    """Padded interval table: one search for where each v_j sits.

    Row j splits the axis at its nondecreasing, +inf-padded edges into
    intervals (lower, upper], and interval k of row j is entry offsets[j] + k
    of each flat column. index counts the edges strictly below v_j, so at an
    edge v_j falls in the interval to its left, and lower < v <= upper holds
    exactly for the v that map to the same interval (an empty interval gets
    lower == upper). A search costs one compare-and-count and one gather per
    column; step finds one row's interval from a nearby one instead.
    """

    def __init__(self, edges: np.ndarray, *columns: np.ndarray):
        m, k = edges.shape
        self.edgesT = np.ascontiguousarray(edges.T)
        self.width = k + 1   # intervals per row
        self.offsets = np.arange(m) * self.width
        self.lower = np.hstack([np.full((m, 1), -np.inf), edges]).ravel()
        self.upper = np.hstack([edges, np.full((m, 1), np.inf)]).ravel()
        self.columns = tuple(np.ravel(c) for c in columns) + (self.lower, self.upper)

    def index(self, v: np.ndarray) -> np.ndarray:
        """Flat index of the interval holding each v_j."""
        return (self.edgesT < v).sum(axis=0) + self.offsets

    def rows(self, v: np.ndarray) -> tuple[np.ndarray, ...]:
        """The columns, then lower and upper, at the interval holding each v_j."""
        flat = self.index(v)
        return tuple(c[flat] for c in self.columns)

    def step(self, flat: int, v: float) -> int:
        """Flat index of the interval holding a scalar v in the row of flat index flat.

        Steps from flat one interval at a time toward v, down while v is not
        above the interval's lower end, then up while it is above its upper
        end, and stops at the row's first and last interval. The edges are
        nondecreasing, so it ends where index does for every v: at the count
        of edges strictly below v, the first interval for -inf and NaN, the
        last real one for +inf. It costs one compare per interval passed.
        """
        lower, upper = self.lower, self.upper
        first = flat - flat % self.width
        last = first + self.width - 1
        while flat > first and not lower[flat] < v:
            flat -= 1
        while flat < last and upper[flat] < v:
            flat += 1
        return flat


class SeparablePiecewise:
    """m piecewise-quadratic coordinates packed into padded arrays.

    pieces is the PieceTable of h: its edges are the breakpoints and its
    columns c2, q - S and q, so piece k of coordinate j covers (lower, upper].
    It serves the vectorized Clarke intervals and subgradient selection (the
    field rhs), the piece rows of the forward-backward step (integrate) and,
    through atoms, the segments and the y of the equilibrium oracle.
    Padding breakpoints are +inf, so they never count below a finite y, and
    padding pieces carry an empty interval (+inf, +inf] that holds no finite y.
    """

    def __init__(self, fns: tuple[PiecewiseScalarFn, ...]):
        m = len(fns)
        kmax = max(f.breakpoints.size for f in fns)
        npieces = kmax + 1
        self.bp = np.full((m, kmax), np.inf)
        self.c2 = np.ones((m, npieces))     # second derivative 2p per piece
        self.q = np.zeros((m, npieces))
        for j, f in enumerate(fns):
            k = f.breakpoints.size
            self.bp[j, :k] = f.breakpoints
            self.c2[j, : k + 1] = 2.0 * f.coeffs[:, 0]
            self.q[j, : k + 1] = f.coeffs[:, 1]
        # derivative jump J at each breakpoint (0 on padding; a drop within
        # CONTINUITY_TOL counts as 0) and S, the sum of the jumps below each piece
        real = np.isfinite(self.bp)
        b = np.where(real, self.bp, 0.0)
        dr = self.c2[:, 1:] * b + self.q[:, 1:]
        dl = self.c2[:, :-1] * b + self.q[:, :-1]
        jumps = np.where(real, np.maximum(dr - dl, 0.0), 0.0)
        self.jump_sum = np.concatenate([np.zeros((m, 1)), np.cumsum(jumps, axis=1)], axis=1)
        # d(y) = c2 * y + (q - S) is h'(y) - S(y), the derivative with the
        # jumps S(y) at breakpoints strictly below y taken out: the left
        # derivative minus S at a breakpoint, so d is continuous there
        self.pieces = PieceTable(self.bp, self.c2, self.q - self.jump_sum, self.q)

    def clarke(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized interval [glo, ghi] of the generalized gradient at y.

        When no coordinate sits exactly on a breakpoint, ghi is glo itself.
        """
        flat = self.pieces.index(y)   # at a breakpoint, the left piece
        c2, _, q, _, upper = self.pieces.columns
        glo = c2[flat] * y + q[flat]
        hit = upper[flat] == y   # y_j on a breakpoint: the piece ends there
        if not np.count_nonzero(hit):   # cheaper than hit.any() on short vectors
            return glo, glo
        rflat = flat + hit
        return glo, c2[rflat] * y + q[rflat]

    def select(self, y: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Minimal-norm selection: target clamped componentwise into the interval at y."""
        glo, ghi = self.clarke(y)
        return glo if ghi is glo else np.minimum(np.maximum(target, glo), ghi)

    def jump_prox(self, t: float) -> "JumpProx":
        """Table of prox_{t g}, g_j(s) = sum_i J_ji (s - b_ji)_+ the jump part of h_j."""
        return JumpProx(self.bp, self.jump_sum, t)

    def atoms(self, lo: np.ndarray, hi: np.ndarray) -> "AtomTable":
        """Table of where argmin over [lo_j, hi_j] of h_j(s) - t_j s sits, for a target t."""
        return AtomTable(self, lo, hi)


class JumpProx(PieceTable):
    """prox_{t g} for the jump part g_j(s) = sum_i J_ji (s - b_ji)_+ of h, as a table.

    The prox of coordinate j sticks at b_i for v in [b_i + t S_i, b_i + t S_{i+1}]
    (S_i: the jumps below b_i) and is v - t S_k on the k-th gap between those
    intervals. The 2K thresholds split the v axis into 2K + 1 regions, each
    affine in v with slope 1 or 0, with columns slope and intercept. A region
    starts at its threshold: thr <= v is pred(thr) < v, so the edges are the
    thresholds' predecessor floats, and an upper threshold is stored one ulp
    up, so each sticking interval is closed.
    """

    def __init__(self, bp: np.ndarray, jump_sum: np.ndarray, t: float):
        m, kmax = bp.shape
        thr = np.empty((m, 2 * kmax))
        thr[:, 0::2] = bp + t * jump_sum[:, :-1]
        thr[:, 1::2] = np.nextafter(bp + t * jump_sum[:, 1:], np.inf)
        # equal rounded thresholds of neighbouring kinks must still count in order
        thr = np.maximum.accumulate(thr, axis=1)
        slope = np.ones((m, 2 * kmax + 1))
        icpt = np.empty((m, 2 * kmax + 1))
        slope[:, 1::2] = 0.0
        icpt[:, 0::2] = -(t * jump_sum)   # -0.0 without jumps: v + -0.0 is v, bit for bit
        icpt[:, 1::2] = bp
        super().__init__(np.nextafter(thr, -np.inf), slope, icpt)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        slope, icpt, _, _ = self.rows(v)
        return slope * v + icpt


class AtomTable(PieceTable):
    """Where argmin over [lo_j, hi_j] of h_j(s) - t_j s sits, for a target t, as a table.

    The points of row j are lo_j, the breakpoints strictly inside (lo_j, hi_j)
    and hi_j (one point when lo_j == hi_j). An atom is a point or the open
    interval between two neighbouring points, which lies on one piece of h_j;
    atom 2k of a row is point k and atom 2k + 1 the interval after it. The
    minimizer sits at a point when t_j lies in the point's Clarke interval
    [dl, dr], open to -inf at lo_j and to +inf at hi_j (the normal cone of
    the box), and inside an interval when t_j lies strictly between the ends
    of its points. A point starts at dl: dl <= t is pred(dl) < t, so the
    edges are dr and the predecessor floats of dl. The columns are the ends
    left <= right of the atom's closure (left == right on a point, +inf
    past the last point), then c2 and q of the piece under an interval (1
    and 0 on a point).
    """

    def __init__(self, hpack: SeparablePiecewise, lo: np.ndarray, hi: np.ndarray):
        m = lo.size
        inside = (hpack.bp > lo[:, None]) & (hpack.bp < hi[:, None])
        pts = np.sort(np.column_stack([lo, np.where(inside, hpack.bp, np.inf),
                                       np.where(hi > lo, hi, np.inf)]), axis=1)
        last = np.isfinite(pts).sum(axis=1) - 1
        pts = pts[:, :last.max() + 1]
        npts = pts.shape[1]
        # padding points are never reached
        s = np.where(np.arange(npts) <= last[:, None], pts, lo[:, None])
        # hpack.clarke and pieces.rows at every point at once: the piece holding
        # each point (at a breakpoint, the left one) and the one right of it
        flat = (hpack.bp[:, None, :] < s[:, :, None]).sum(axis=2) + hpack.pieces.offsets[:, None]
        c2_col, _, q_col, _, upper = hpack.pieces.columns
        dl = c2_col[flat] * s + q_col[flat]
        right = flat + (upper[flat] == s)
        dr = c2_col[right] * s + q_col[right]
        c2, q = np.ones((m, 2 * npts - 1)), np.zeros((m, 2 * npts - 1))
        # the interval before point k lies on the piece left of it
        c2[:, 1::2], q[:, 1::2] = c2_col[flat[:, 1:]], q_col[flat[:, 1:]]
        dr[np.arange(m), last] = np.inf   # every later edge accumulates to +inf
        edges = np.empty((m, 2 * npts - 2))
        edges[:, 0::2] = dr[:, :-1]
        edges[:, 1::2] = np.nextafter(dl[:, 1:], -np.inf)
        ends = np.repeat(pts, 2, axis=1)
        # neighbouring points so close that their ends cross leave an empty interval
        super().__init__(np.maximum.accumulate(edges, axis=1), ends[:, :-1], ends[:, 1:], c2, q)


@dataclass(frozen=True, eq=False, repr=False)
class Problem:
    """Immutable structured instance with derived curvature/rate constants.

    Built by build_problem only. The maps of the unconstrained inner minimizer,
    where every inner solve starts, are attached here so repeated evaluations
    along a trajectory stay cheap.
    """

    f: QuadraticSmoothFn
    h: tuple[PiecewiseScalarFn, ...]
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    X: BoxSet
    Omega: BoxSet
    alpha: float
    alpha_m: float
    beta: float
    kappa1: float
    gamma: float
    drift_lipschitz: float   # NonFiniteState reports dt * tau * drift_lipschitz
    Bt: np.ndarray = field(repr=False)   # contiguous copy of B.T, shared by all paths
    hpack: SeparablePiecewise = field(repr=False)
    # the inner solve starts from the clamp of x_base - dual_map @ lam into X
    inner_mode: str = field(repr=False)        # "free" | "box_diag" | "box_dense", a label only
    x_base: np.ndarray = field(repr=False)     # -H^{-1} c
    dual_map: np.ndarray = field(repr=False)   # H^{-1} A'

    @property
    def n(self) -> int:
        return self.f.dim

    @property
    def m(self) -> int:
        return len(self.h)

    @property
    def p(self) -> int:
        return self.C.size


def build_problem(f: QuadraticSmoothFn, h, A, B, C, X: BoxSet, Omega: BoxSet) -> Problem:
    """Validate an instance and compute alpha, alpha_m, beta, kappa1, gamma.

    kappa1 is the smallest eigenvalue of A A' (symmetric eigendecomposition);
    the decay-rate constant is gamma = min(2 beta, 2 kappa1 / alpha_m).
    Raises NonFiniteInput when A, B or C holds NaN or an infinity, when an
    entry of H, c, A, B, C or a finite bound of X or Omega exceeds
    DATA_RANGE in magnitude (h checks its own), or when alpha, alpha_m,
    kappa1, gamma, ||B||_2 or the drift Lipschitz estimate is not finite or
    is subnormal; each message names the entry or the constant. Raises
    RankDeficient, NotStronglyConvex, DimensionMismatch or NonCompactOmega
    when the structural assumptions fail.
    """
    h = tuple(h)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    for name, a in (("A", A), ("B", B), ("C", C)):
        _require_finite(name, a)
    n = f.dim
    m = len(h)
    if m == 0:
        raise DimensionMismatch("h must have at least one component")
    if A.ndim != 2 or B.ndim != 2 or C.ndim != 1:
        raise DimensionMismatch("A, B must be matrices and C a vector")
    p = A.shape[0]
    if A.shape != (p, n):
        raise DimensionMismatch(f"A has shape {A.shape}, expected ({p}, {n})")
    if B.shape != (p, m):
        raise DimensionMismatch(f"B has shape {B.shape}, expected ({p}, {m})")
    if C.shape != (p,):
        raise DimensionMismatch(f"C has shape {C.shape}, expected ({p},)")
    if X.dim != n:
        raise DimensionMismatch(f"X has dimension {X.dim}, expected {n}")
    if Omega.dim != m:
        raise DimensionMismatch(f"Omega has dimension {Omega.dim}, expected {m}")
    if Omega.is_free:
        raise NonCompactOmega("Omega must be a bounded box")
    data = [("H", f.H), ("c", f.c), ("A", A), ("B", B), ("C", C)]   # h checks its own range
    if not X.is_free:   # the bounds of a free X are infinite
        data += [("X.lo", X.lo), ("X.hi", X.hi)]
    _require_in_range(data + [("Omega.lo", Omega.lo), ("Omega.hi", Omega.hi)])

    gram = A @ A.T
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= RANK_RATIO_TOL * max(eigs[-1], 0.0):
        raise RankDeficient(
            f"A A' has eigenvalue ratio {eigs[0]:.3e}/{eigs[-1]:.3e}; A lacks full row rank"
        )
    kappa1 = float(eigs[0])
    beta = min(fj.beta for fj in h)
    gamma = min(2.0 * beta, 2.0 * kappa1 / f.alpha_m)
    norm_B = float(np.linalg.norm(B, 2))
    # drift Lipschitz estimate max h'' + 2 ||B||_2 + ||A||_2^2 / alpha, where
    # ||A||_2^2 = lambda_max(A A') (hpack.c2 pads with 1.0, so it is not used)
    lip = (2.0 * float(np.concatenate([fj.coeffs[:, 0] for fj in h]).max()) + 2.0 * norm_B
           + float(eigs[-1]) / f.alpha)
    for name, value in (("alpha", f.alpha), ("alpha_m", f.alpha_m), ("kappa1", kappa1),
                        ("gamma", gamma), ("||B||_2", norm_B),
                        ("drift Lipschitz estimate L", lip)):
        _require_normal(name, value)

    chol = np.linalg.cholesky(f.H)
    mode = "free" if X.is_free else "box_diag" if f.is_diagonal else "box_dense"

    return Problem(
        f=f, h=h, A=A, B=B, C=C, X=X, Omega=Omega,
        alpha=f.alpha, alpha_m=f.alpha_m, beta=beta, kappa1=kappa1, gamma=gamma,
        drift_lipschitz=lip,
        Bt=np.ascontiguousarray(B.T), hpack=SeparablePiecewise(h),
        inner_mode=mode, x_base=cholesky_solve(chol, -f.c), dual_map=cholesky_solve(chol, A.T),
    )
