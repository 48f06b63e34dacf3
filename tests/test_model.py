import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppdgd import (
    BoxSet,
    DimensionMismatch,
    NonCompactOmega,
    NonFiniteInput,
    NotStronglyConvex,
    PiecewiseScalarFn,
    QuadraticSmoothFn,
    RankDeficient,
    build_problem,
)
from ppdgd.model import PieceTable, SeparablePiecewise
from ppdgd.random_problems import random_piecewise

from conftest import atom_argmin


def quad(p):
    return PiecewiseScalarFn.quadratic(p)


def test_identity_instance_constants(identity_problem):
    P = identity_problem
    assert P.alpha == 1.0
    assert P.alpha_m == 1.0
    assert P.beta == 1.0
    assert P.kappa1 == pytest.approx(1.0, abs=1e-12)
    assert P.gamma == pytest.approx(2.0, abs=1e-12)


def test_kappa1_single_row():
    # A = [[1, 1]] gives A A' = [2]
    P = build_problem(
        QuadraticSmoothFn(np.eye(2), np.zeros(2)),
        [quad(0.5)],
        np.array([[1.0, 1.0]]),
        np.array([[1.0]]),
        np.zeros(1),
        BoxSet.free(2),
        BoxSet.box([-1.0], [1.0]),
    )
    assert P.kappa1 == pytest.approx(2.0, abs=1e-12)


def test_case_study_constants(case_problem):
    P = case_problem
    assert P.alpha_m == pytest.approx(8.0)
    assert P.beta == 1.0
    assert P.kappa1 == pytest.approx(0.1165**2, abs=1e-9)
    assert P.gamma == pytest.approx(min(2.0, 2 * 0.1165**2 / 8), abs=1e-9)
    assert P.gamma == pytest.approx(0.00339, abs=1e-5)


def test_rank_deficient_rejected():
    A = np.array([[1.0, 0.0], [2.0, 0.0]])  # rank 1
    with pytest.raises(RankDeficient):
        build_problem(
            QuadraticSmoothFn(np.eye(2), np.zeros(2)),
            [quad(0.5), quad(0.5)],
            A,
            np.eye(2),
            np.zeros(2),
            BoxSet.free(2),
            BoxSet.box([-1.0, -1.0], [1.0, 1.0]),
        )


def test_free_omega_rejected():
    with pytest.raises(NonCompactOmega):
        build_problem(
            QuadraticSmoothFn(np.eye(1), np.zeros(1)),
            [quad(0.5)],
            np.eye(1),
            np.eye(1),
            np.zeros(1),
            BoxSet.free(1),
            BoxSet.free(1),
        )


def test_indefinite_hessian_rejected():
    with pytest.raises(NotStronglyConvex):
        QuadraticSmoothFn(np.diag([1.0, -0.5]), np.zeros(2))


def test_flat_piece_rejected():
    with pytest.raises(NotStronglyConvex):
        PiecewiseScalarFn(np.array([0.0]), np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0]]))


def test_discontinuous_pieces_rejected():
    # value jumps by 1 at the breakpoint
    with pytest.raises(NotStronglyConvex):
        PiecewiseScalarFn(np.array([0.0]), np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 1.0]]))


def test_overflowing_continuity_check_rejects_without_warning():
    # every entry is within DATA_RANGE, but p b^2 = 1e340 is not finite: a
    # range error, not a convexity one (the check used to warn and then pass
    # the inf - inf = nan difference)
    with pytest.raises(NonFiniteInput, match="breakpoints\\[0\\] = 1e\\+120"):
        PiecewiseScalarFn(np.array([1e120]), np.array([[1e100, 0.0, 0.0], [1e100, 0.0, 0.0]]))


def test_concave_kink_rejected():
    # derivative drops from +1 to -1 at 0
    with pytest.raises(NotStronglyConvex):
        PiecewiseScalarFn(np.array([0.0]), np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        build_problem(
            QuadraticSmoothFn(np.eye(2), np.zeros(2)),
            [quad(0.5)],
            np.array([[1.0, 1.0]]),
            np.array([[1.0, 1.0]]),  # B should be 1x1
            np.zeros(1),
            BoxSet.free(2),
            BoxSet.box([-1.0], [1.0]),
        )


def test_clarke_interval_kinked_cost(kinked_cost):
    assert kinked_cost.clarke(0.0) == (0.0, 0.0)
    assert kinked_cost.clarke(0.2) == (0.2, 0.4)
    assert kinked_cost.clarke(-0.2) == (-0.4, -0.2)
    lo, hi = kinked_cost.clarke(0.3)
    assert lo == hi == pytest.approx(0.6)


def test_kinked_cost_value_continuity(kinked_cost):
    assert kinked_cost.value(0.2) == pytest.approx(0.02, abs=1e-15)
    assert kinked_cost.value(-0.2) == pytest.approx(0.02, abs=1e-15)
    assert kinked_cost.beta == 1.0


def test_subdifferential_monotonicity_on_grid(kinked_cost):
    # (g1 - g2)(s1 - s2) >= beta (s1 - s2)^2 for all interval endpoints
    grid = np.linspace(-0.6, 0.6, 41)
    beta = kinked_cost.beta
    for s1 in grid:
        for s2 in grid:
            for g1 in kinked_cost.clarke(s1):
                for g2 in kinked_cost.clarke(s2):
                    lhs = (g1 - g2) * (s1 - s2)
                    assert lhs >= beta * (s1 - s2) ** 2 - 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_piecewise_monotonicity(seed):
    rng = np.random.default_rng(seed)
    fn = random_piecewise(rng, -1.5, 1.5, int(rng.integers(0, 4)))
    grid = np.linspace(-1.5, 1.5, 23)
    beta = fn.beta
    assert beta > 0
    for s1 in grid:
        for s2 in grid:
            for g1 in fn.clarke(s1):
                for g2 in fn.clarke(s2):
                    assert (g1 - g2) * (s1 - s2) >= beta * (s1 - s2) ** 2 - 1e-12


def test_gamma_matches_fresh_recomputation():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        p = int(rng.integers(1, n + 1))
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eigs = rng.uniform(0.2, 5.0, size=n)
        H = (Q * eigs) @ Q.T
        while True:
            A = rng.normal(size=(p, n))
            ge = np.linalg.eigvalsh(A @ A.T)
            if ge[0] > 1e-6 * ge[-1]:
                break
        betas = rng.uniform(0.1, 4.0, size=2)
        P = build_problem(
            QuadraticSmoothFn(H, rng.normal(size=n)),
            [quad(0.5 * b) for b in betas],
            A,
            rng.normal(size=(p, 2)),
            rng.normal(size=p),
            BoxSet.free(n),
            BoxSet.box([-1.0, -1.0], [1.0, 1.0]),
        )
        expected = min(
            2.0 * np.min(betas),
            2.0 * np.linalg.eigvalsh(A @ A.T)[0] / np.linalg.eigvalsh(H)[-1],
        )
        assert P.gamma == pytest.approx(expected, rel=1e-10)


def test_piece_index_convention(kinked_cost):
    # pieces cover (b_{k-1}, b_k]: the breakpoint itself belongs to the left piece
    assert kinked_cost.piece_index(-0.3) == 0
    assert kinked_cost.piece_index(-0.2) == 0
    assert kinked_cost.piece_index(0.0) == 1
    assert kinked_cost.piece_index(0.2) == 1
    assert kinked_cost.piece_index(0.21) == 2


def test_box_validation():
    with pytest.raises(DimensionMismatch):
        BoxSet.box([0.0, 1.0], [1.0, 0.0])
    with pytest.raises(NonCompactOmega):
        BoxSet.box([0.0], [np.inf])
    S = BoxSet.box([-1.0, 0.0], [1.0, 0.0])  # degenerate coordinate allowed
    assert S.contains(np.array([0.0, 0.0]))
    assert not S.contains(np.array([0.0, 0.5]))


def _violation_per_entry(S, v):
    """Reference: the largest excess over every entry of v, one entry at a time."""
    v = np.asarray(v, dtype=float)
    with np.errstate(invalid="ignore"):
        return float(np.max(np.maximum(S.lo - v, v - S.hi), initial=0.0))


def test_violation_reduces_columns_to_the_same_bits():
    rng = np.random.default_rng(7)
    m = 5
    lo = rng.normal(size=m) * 10.0 ** rng.integers(-3, 4, size=m)
    boxes = [BoxSet.box(lo, lo + rng.uniform(0.0, 3.0, size=m)), BoxSet.free(m),
             BoxSet(np.array([-np.inf, -1.0, 0.0, -np.inf, 2.0]),
                    np.array([np.inf, 1.0, 0.0, 3.0, np.inf]))]
    specials = [np.nan, np.inf, -np.inf]
    cases = [np.zeros((0, m))]
    for rows in (1, 2, 37, 400):
        v = rng.normal(size=(rows, m)) * 10.0 ** rng.integers(-8, 9, size=(rows, m))
        cases.append(v)
        for x in specials:
            w = v.copy()
            w[rng.integers(rows), rng.integers(m)] = x
            cases.append(w)
        w = v.copy()
        w[0, :] = np.inf
        w[-1, :] = -np.inf
        cases.append(w)
    for S in boxes:
        for v in cases:
            for point in [v] + list(v[:3]):   # rows, and single vectors
                got, want = S.violation(point), _violation_per_entry(S, point)
                if np.isnan(want):   # the sign of a NaN carries nothing
                    assert np.isnan(got), (S, point)
                else:
                    assert np.array(got).tobytes() == np.array(want).tobytes(), (S, point)


def test_packed_clarke_matches_scalar_clarke():
    # rows with 0, 1 and 3 kinks, so the 0- and 1-kink rows carry padding
    rng = np.random.default_rng(2024)
    fns = [random_piecewise(rng, -1.0, 1.0, k) for k in (0, 1, 3, 3, 0, 1)]
    pack = SeparablePiecewise(fns)
    bounds = np.array([-1.0, 1.0])
    candidates = []
    for fn in fns:
        bp = fn.breakpoints
        edges = np.concatenate([bounds[:1], bp, bounds[1:]])
        pts = [bounds, 0.5 * (edges[:-1] + edges[1:]),
               bp, np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf)]
        candidates.append(np.concatenate(pts))
    # every candidate of every row, beside candidates of the other rows, so the
    # vectors mix breakpoint hits with points on no breakpoint
    longest = max(c.size for c in candidates)
    ys = [np.array([c[(r + shift) % c.size] for c in candidates])
          for r in range(longest) for shift in (0, 1, 2)]
    ys += [np.array([rng.choice(c) for c in candidates]) for _ in range(50)]
    ys.append(np.array([c[2] for c in candidates]))   # interiors only: no row on a kink
    for y in ys:
        ref_lo, ref_hi = np.array([fn.clarke(s) for fn, s in zip(fns, y)]).T
        glo, ghi = pack.clarke(y)
        assert np.array_equal(glo, ref_lo) and np.array_equal(ghi, ref_hi)


def _scalar_atoms(fn, lo, hi):
    """Brute force: the points of [lo, hi] with their Clarke intervals, the ends at lo and hi open."""
    bp = fn.breakpoints
    pts = [lo, *bp[(bp > lo) & (bp < hi)]] + ([hi] if hi > lo else [])
    ends = [list(fn.clarke(s)) for s in pts]
    ends[0][0], ends[-1][1] = -np.inf, np.inf
    return pts, ends


def test_atom_table_matches_scalar_clarke_intervals():
    # rows with 0, 1 and 3 kinks; row 2's box cuts off its outer kinks, rows
    # 4 and 5 are single points (one on a kink) and row 6 starts on a kink
    rng = np.random.default_rng(77)
    fns = [random_piecewise(rng, -1.0, 1.0, k) for k in (0, 1, 3, 3, 0, 1, 2)]
    pack = SeparablePiecewise(fns)
    b5, b6 = fns[5].breakpoints[0], fns[6].breakpoints[0]
    lo = np.array([-1.0, -1.0, -0.3, -1.0, 0.25, b5, b6])
    hi = np.array([1.0, 1.0, 0.3, 1.0, 0.25, b5, 1.0])
    table = pack.atoms(lo, hi)
    left, right, c2, q, _, _ = table.columns
    rows = [_scalar_atoms(fn, a, b) for fn, a, b in zip(fns, lo, hi)]
    targets = []
    for _, ends in rows:
        e = np.array([x for end in ends for x in end if np.isfinite(x)])
        targets.append(np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf),
                                       0.5 * (e[:-1] + e[1:]), [-5.0, 5.0]]))
    longest = max(t.size for t in targets)
    for r in range(longest):
        t = np.array([c[r % c.size] for c in targets])
        flat = table.index(t)
        for j, ((pts, ends), tj, fn) in enumerate(zip(rows, t, fns)):
            atom = flat[j] - table.offsets[j]
            if atom % 2 == 0:   # on point atom // 2
                dl, dr = ends[atom // 2]
                assert dl <= tj <= dr and left[flat[j]] == right[flat[j]] == pts[atom // 2], (j, tj)
            else:   # strictly inside the interval after point atom // 2, on one piece
                k = atom // 2
                assert ends[k][1] < tj < ends[k + 1][0], (j, tj)
                pc, qc, _ = fn.coeffs[fn.piece_index(0.5 * (pts[k] + pts[k + 1]))]
                assert (left[flat[j]], right[flat[j]]) == (pts[k], pts[k + 1])
                assert (c2[flat[j]], q[flat[j]]) == (2.0 * pc, qc)


def _looped_atom_table(hpack, lo, hi):
    """PieceTable of the atoms of hpack over [lo, hi], built point by point.

    The reference for AtomTable: one hpack.clarke and one pieces.rows call
    per column of points, where AtomTable looks up every point at once.
    """
    m = lo.size
    inside = (hpack.bp > lo[:, None]) & (hpack.bp < hi[:, None])
    pts = np.sort(np.column_stack([lo, np.where(inside, hpack.bp, np.inf),
                                   np.where(hi > lo, hi, np.inf)]), axis=1)
    last = np.isfinite(pts).sum(axis=1) - 1
    pts = pts[:, :last.max() + 1]
    npts = pts.shape[1]
    dl, dr = np.empty((m, npts)), np.empty((m, npts))
    c2, q = np.ones((m, 2 * npts - 1)), np.zeros((m, 2 * npts - 1))
    for k in range(npts):
        s = np.where(k <= last, pts[:, k], lo)
        dl[:, k], dr[:, k] = hpack.clarke(s)
        if k:
            c2[:, 2 * k - 1], _, q[:, 2 * k - 1], _, _ = hpack.pieces.rows(s)
    dr[np.arange(m), last] = np.inf
    edges = np.empty((m, 2 * npts - 2))
    edges[:, 0::2] = dr[:, :-1]
    edges[:, 1::2] = np.nextafter(dl[:, 1:], -np.inf)
    ends = np.repeat(pts, 2, axis=1)
    return PieceTable(np.maximum.accumulate(edges, axis=1), ends[:, :-1], ends[:, 1:], c2, q)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6))
def test_atom_table_matches_point_by_point_lookups(seed, m):
    # rows with no kink, kinks cut off by the box, lo or hi on a kink and
    # single-point rows (lo == hi, on a kink or not); the tables must agree bit for bit
    rng = np.random.default_rng(seed)
    fns = [random_piecewise(rng, -1.0, 1.0, int(k)) for k in rng.integers(0, 5, m)]
    lo, hi = np.sort(rng.uniform(-1.0, 1.0, (2, m)), axis=0)
    for j, fn in enumerate(fns):
        bp = fn.breakpoints
        kind = rng.integers(4)
        if kind == 1:   # a single point
            hi[j] = lo[j] = rng.choice(bp) if bp.size and rng.random() < 0.5 else lo[j]
        elif kind == 2 and bp.size:   # lo on a kink
            lo[j] = bp[0]
            hi[j] = max(hi[j], lo[j])
        elif kind == 3 and bp.size:   # hi on a kink
            hi[j] = bp[-1]
            lo[j] = min(lo[j], hi[j])
    pack = SeparablePiecewise(fns)
    got, want = pack.atoms(lo, hi), _looped_atom_table(pack, lo, hi)
    for a, b in zip((got.edgesT, got.offsets, *got.columns),
                    (want.edgesT, want.offsets, *want.columns)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _lookups(table, probes, m):
    """(index, lower, upper), each (probes, m), of v = probe in every coordinate."""
    found = [(table.index(v) - table.offsets, *table.rows(v)[-2:])
             for v in (np.full(m, x) for x in probes)]
    return tuple(np.array(a) for a in zip(*found))


def _check_brackets(probes, lower, upper, index):
    """lower < v <= upper holds exactly for the probes that map to the same row."""
    for j in range(index.shape[1]):
        inside = (lower[:, j, None] < probes) & (probes <= upper[:, j, None])
        assert np.array_equal(inside, index[:, j, None] == index[None, :, j]), j


@pytest.mark.parametrize("seed", range(25))
def test_piece_table_lookup_is_searchsorted_left(seed):
    # random padded tables: rows with no real edge, repeated edges (empty
    # intervals) and, for some seeds, K = 0; probes at every edge and one ulp
    # either side
    rng = np.random.default_rng(seed)
    m, k = int(rng.integers(1, 6)), int(rng.integers(0, 5))
    edges = np.sort(np.round(rng.uniform(-2.0, 2.0, size=(m, k)), int(rng.integers(0, 3))), axis=1)
    real = rng.integers(0, k + 1, size=m)
    real[0] = 0   # row 0 is all padding
    edges = np.where(np.arange(k) < real[:, None], edges, np.inf)
    label = rng.normal(size=(m, k + 1))
    table = PieceTable(edges, label)
    probes = np.unique(np.concatenate(
        [np.nextafter(edges.ravel(), -np.inf), edges.ravel(), np.nextafter(edges.ravel(), np.inf),
         [-1e300, 0.0, 1e300]]))
    index, lower, upper = _lookups(table, probes, m)
    want = np.array([[np.searchsorted(row, x, side="left") for row in edges] for x in probes])
    assert np.array_equal(index, want)
    assert np.array_equal(np.array([table.rows(np.full(m, x))[0] for x in probes]),
                          label[np.arange(m), want])
    assert np.all(lower < probes[:, None]) and np.all(probes[:, None] <= upper)
    _check_brackets(probes, lower, upper, index)


@pytest.mark.parametrize("seed", range(25))
def test_jump_prox_region_is_searchsorted_right_with_closed_sticking_intervals(seed):
    # the prox atoms of h over a box [lo, hi] that holds every kink: thr <= v
    # is read as pred(thr) < v, so the atom of v is the number of thresholds
    # at or below it. The thresholds are one ulp above lo (v <= lo sticks at
    # lo), the ends of each kink's closed sticking interval
    # [b + t S_i, b + t S_{i+1}] and hi + t S_K (v at or above it sticks at
    # hi); v on either end of a sticking interval still sticks at its kink
    rng = np.random.default_rng(seed)
    m, t = int(rng.integers(1, 5)), float(10.0 ** rng.uniform(-6.0, 6.0))
    kinks = rng.integers(0, 4, size=m) * (seed % 5 != 0)   # every fifth seed: K = 0
    pack = SeparablePiecewise([random_piecewise(rng, -1.0, 1.0, int(k)) for k in kinks])
    lo, hi = np.full(m, -2.0), np.full(m, 2.0)
    table = pack.prox_atoms(t, lo, hi)
    starts = pack.bp + t * pack.jump_sum[:, :-1]
    ends = pack.bp + t * pack.jump_sum[:, 1:]
    top = hi + t * pack.jump_sum[np.arange(m), kinks]
    ticks = np.concatenate([starts.ravel(), ends.ravel(), lo, top])
    ticks = ticks[np.isfinite(ticks)]
    probes = np.unique(np.concatenate(
        [np.nextafter(ticks, -np.inf), ticks, np.nextafter(ticks, np.inf), [-1e300, 0.0, 1e300]]))
    index, lower, upper = _lookups(table, probes, m)
    for j, k in enumerate(kinks):
        # sticking intervals are closed: an atom after one starts one ulp above its end
        thresholds = np.empty(2 * k + 2)
        thresholds[0], thresholds[-1] = np.nextafter(lo[j], np.inf), top[j]
        thresholds[1:-1:2], thresholds[2:-1:2] = starts[j, :k], np.nextafter(ends[j, :k], np.inf)
        thresholds = np.maximum.accumulate(thresholds)
        assert np.array_equal(index[:, j], np.searchsorted(thresholds, probes, side="right")), j
        stuck = (starts[j, :k] <= probes[:, None]) & (probes[:, None] <= ends[j, :k])
        kink_atom = (index[:, j] % 2 == 0) & (0 < index[:, j]) & (index[:, j] < 2 * k + 2)
        assert np.array_equal(kink_atom, stuck.any(axis=1)), j
        for probe, kink in np.argwhere(stuck):
            y = atom_argmin(table, np.full(m, probes[probe]))
            assert y[j] == pack.bp[j, kink], (j, probes[probe])
    assert np.all(lower < probes[:, None]) and np.all(probes[:, None] <= upper)
    _check_brackets(probes, lower, upper, index)


def test_piece_table_step_walks_to_index_from_every_interval(benchmark_runs, short_mode_draw):
    # step walks from any interval of a row to the one index gives, and never
    # leaves the row. On the pieces and prox-atom tables integrate reads on
    # the benchmark's solves, from every interval of each row (padded ones
    # included), for values on each edge, one ulp either side, beyond the
    # first and last edge, at +-inf and NaN. A -inf value fails even the
    # first interval's bracket (-inf, edge], so a walk that tested brackets
    # alone would run off the row's start. On the short-mode draw's rows of
    # about 100 and 200 intervals, the values sit at every 4th edge and the
    # walks start at the row's ends, next to the answer and at every 32nd
    # interval
    def prox_atoms(P, dtau):
        return P.hpack.prox_atoms(dtau, P.Omega.lo, P.Omega.hi)

    tables = [(table, 1, 1) for _, P, _, _, cfg in benchmark_runs
              for table in (P.hpack.pieces, prox_atoms(P, cfg.dt * cfg.tau))]
    P = short_mode_draw[0]
    tables += [(P.hpack.pieces, 4, 32), (prox_atoms(P, 2e-3), 4, 32)]
    walks = 0
    for table, every_edge, every_start in tables:
        m, width = table.offsets.size, table.width
        assert table.edgesT.shape[0] == width - 1
        for j, row in enumerate(table.edgesT.T):
            real = row[np.isfinite(row)]
            at = np.concatenate([real[::every_edge], real[-1:]])
            probes = np.concatenate([np.nextafter(at, -np.inf), at, np.nextafter(at, np.inf),
                                     real[:1] - 1.0, real[-1:] + 1.0, [0.0, -np.inf, np.inf, np.nan]])
            first = table.offsets[j]
            for v in probes:
                want = int(table.index(np.full(m, v))[j])
                starts = {first, first + width - 1, *range(first, first + width, every_start),
                          *range(max(first, want - 2), min(first + width, want + 3))}
                for start in starts:
                    assert table.step(start, v) == want, (j, v, start - first)
                walks += len(starts)
    assert walks >= 50_000, walks


@pytest.mark.parametrize("H", [np.diag([1e308, 1e308]), np.array([[1e308, 1e307], [1e307, 1e308]])])
def test_huge_hessian_entries_keep_finite_constants(H):
    # H + H.T would overflow to inf here
    f = QuadraticSmoothFn(H, np.zeros(2))
    assert np.array_equal(f.H, H)
    assert np.allclose([f.alpha, f.alpha_m], np.linalg.eigvalsh(H / 1e308) * 1e308, rtol=1e-12)


@pytest.mark.parametrize("H, message", [
    # positive definite, but eigvalsh returns 0.0 for the small eigenvalue
    (np.diag([1e308, 1e-300]), "H is singular to working precision (eigenvalues 0.0..1e+308)"),
    (np.array([[1.0, 1.0], [1.0, 1.0]]), "H is singular to working precision (eigenvalues "),
    (np.diag([1.0, -1.0]), "H is not positive definite (min eigenvalue -1.0)"),
])
def test_nonpositive_hessian_message_tells_singular_from_indefinite(H, message):
    with pytest.raises(NotStronglyConvex) as info:
        QuadraticSmoothFn(H, np.zeros(2))
    assert str(info.value).startswith(message)


def test_hessian_with_infinite_eigenvalue_raises_naming_h():
    H = np.array([[1.5e308, 1e308], [1e308, 1.5e308]])
    with pytest.raises(NonFiniteInput, match=r"^H "):
        QuadraticSmoothFn(H, np.zeros(2))


def _build_with(name=None, bad=None):
    """A valid 2x2 instance built from Python, with the last entry of array name set to bad."""
    arrays = {
        "H": np.array([[2.0, 0.5], [0.5, 1.0]]), "c": np.array([0.1, -0.2]), "d": np.array(0.0),
        "breakpoints": np.array([0.0]), "coeffs": np.array([[0.5, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        "A": np.array([[1.0, 0.0], [0.3, 1.0]]), "B": np.array([[1.0, 0.0], [0.0, -1.0]]),
        "C": np.array([0.2, -0.1]),
    }
    if name is not None:
        arrays[name][(-1,) * arrays[name].ndim] = bad
    f = QuadraticSmoothFn(arrays["H"], arrays["c"], arrays["d"])
    h = [PiecewiseScalarFn(arrays["breakpoints"], arrays["coeffs"]), quad(0.5)]
    return build_problem(f, h, arrays["A"], arrays["B"], arrays["C"],
                         BoxSet.free(2), BoxSet.box([-1.0, -1.0], [1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["H", "c", "d", "breakpoints", "coeffs", "A", "B", "C"])
def test_non_finite_array_raises_naming_the_argument(name, bad):
    _build_with()
    with pytest.raises(NonFiniteInput, match=rf"^{name}\["):
        _build_with(name, bad)


@pytest.mark.parametrize("A, B, name", [
    (np.array([[1e-160, 0.0]]), np.array([[1.0]]), "kappa1"),   # A A' = 1e-320
    (np.array([[1.0, 0.0]]), np.array([[1e-320]]), "||B||_2"),
])
def test_subnormal_derived_constant_raises_naming_it(A, B, name):
    f = QuadraticSmoothFn(np.eye(2), np.zeros(2))
    with pytest.raises(NonFiniteInput, match=rf"^{re.escape(name)} = .* is subnormal$"):
        build_problem(f, [quad(0.5)], A, B, np.zeros(1), BoxSet.free(2), BoxSet.box([-1.0], [1.0]))
