"""The three workloads: their inputs, one pass of each job, and output checks.

Every workload is a closed loop in one process: the next solve starts when
the previous one has been checked. The problem instances of each workload are
a fixed draw from BASE_SEED (the seed of the acceptance campaign). In
random_campaign the workload seed draws each solve's start point uniformly in
Omega; the other workloads start at y(0) = 0. With 16 instances drawn per
seed instead, seeds 1 and 2 had 9 and 5 instances pinned at a kink (which run
to t_end), and per-solve medians of 1.39 s and 0.53 s: no bound a regression
gate can use holds over that. Kink-pinned equilibria are never redrawn or
skipped.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
import math
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ppdgd import analysis, casestudy, cli, dynamics, inner, model, problem_io, \
    random_problems

BASE_SEED = 20240811
OMEGA_TOL = 1e-9
KINK_NEAR = 0.02
PROBE_SAMPLES = 16   # recorded multipliers per trajectory fed to solve_inner when traced

N_CAMPAIGN = 7
N_CERTIFY_RANDOM = 4
N_BOXED = 9
CAMPAIGN_CFG = dict(dt=2e-3, t_end=60.0, stop_tol=1e-8, record_every=1)
BOXED_CFG = dict(dt=2e-3, t_end=2.0, stop_tol=1e-8, record_every=1)
BOXED_X_HALF_WIDTH = 1.0
CLI_DT = 1e-3            # cli defaults: dt = 1e-3, t_end = 50
CLI_STEPS = 50_000
REF_ITERATIONS = 300     # one timing of the reference loop: about 4 ms on a 2-core sandbox
REF_REPEATS = 5          # a reference sample is the median of this many timings


class BenchmarkError(Exception):
    """An output check failed or a deterministic value did not repeat."""


@dataclass
class Solve:
    """One attempted solve and what the checks found; latency_s is not deterministic."""

    label: str
    inner_mode: str
    latency_s: float = 0.0
    error: str | None = None
    exit_code: int | None = None
    envelope_ok: bool | None = None
    omega_violation: float = 0.0
    steps: int = 0
    stop_tol: bool = False
    gap: float = math.nan    # ||(y, lam)(t_final) - (y*, lam*)||
    gap0: float = math.nan   # the same distance at the first sample
    kink_pinned: bool | None = None
    bytes_written: int = 0
    probe: tuple | None = field(default=None, repr=False)   # (problem, multipliers)

    @property
    def failed(self) -> bool:
        return (self.error is not None or self.exit_code not in (None, 0)
                or self.envelope_ok is False or self.omega_violation > OMEGA_TOL)

    def signature(self) -> tuple:
        return (self.label, self.inner_mode, self.error, self.exit_code, self.envelope_ok,
                self.omega_violation > OMEGA_TOL, self.steps, self.stop_tol,
                repr(self.gap), repr(self.gap0), self.kink_pinned, self.bytes_written)


@dataclass
class Job:
    wall_s: float
    solves: list[Solve]


def _omega_violation(P, y) -> float:
    return float(max(np.max(P.Omega.lo - y, initial=0.0), np.max(y - P.Omega.hi, initial=0.0)))


def _distance(y, lam, y_star, lam_star) -> float:
    return float(np.linalg.norm(np.concatenate([y - y_star, lam - lam_star])))


def _probe_rows(lam: np.ndarray) -> np.ndarray:
    idx = np.unique(np.linspace(0, lam.shape[0] - 1, PROBE_SAMPLES).round().astype(int))
    return lam[idx].copy()


def _write_inputs(problems, folder: Path):
    """Write each problem file and solve the problem read back from it."""
    folder.mkdir(parents=True, exist_ok=True)
    loaded = []
    for k, P in enumerate(problems):
        path = folder / f"problem_{k:02d}.json"
        problem_io.dump_problem(P, path)
        Q = problem_io.load_problem(path)
        if problem_io.problem_to_dict(Q) != problem_io.problem_to_dict(P):
            raise BenchmarkError(f"{path.name} does not read back as written")
        loaded.append((path, Q))
    return loaded


# ---------------------------------------------------------------------------
# Library workloads: random_campaign and boxed_dense
# ---------------------------------------------------------------------------

def _api_solve(label: str, P, y0, cfg, endpoint_kkt: bool) -> Solve:
    """Oracle, integrate, certify (and the endpoint KKT check) through the library."""
    s = Solve(label, P.inner_mode)
    traj = eq = None
    t0 = time.perf_counter()
    try:
        eq = analysis.equilibrium_oracle(P)
        traj = dynamics.integrate(P, dynamics.State(y0, np.zeros(P.p)), cfg)
        report = analysis.certify_envelope(P, traj, eq)
        if endpoint_kkt:
            x_end = inner.solve_inner(P, traj.lam[-1]).x_star
            analysis.kkt_residual(P, x_end, traj.y[-1], traj.lam[-1])
        s.envelope_ok = report.envelope_ok
    except Exception as exc:   # a solve that crashes is counted, the run goes on
        s.error = type(exc).__name__
        traceback.print_exc()
    s.latency_s = time.perf_counter() - t0
    if eq is not None:
        s.kink_pinned = random_problems.kink_distance(P, eq.y_star) < KINK_NEAR
    if traj is not None:
        s.omega_violation = _omega_violation(P, traj.y)
        s.steps = round((traj.t[-1] - traj.t[0]) / cfg.dt)
        s.stop_tol = traj.terminated_by is dynamics.TerminationReason.STOP_TOL
        s.probe = (P, _probe_rows(traj.lam))
        if eq is not None:
            s.gap = _distance(traj.y[-1], traj.lam[-1], eq.y_star, eq.lambda_star)
            s.gap0 = _distance(traj.y[0], traj.lam[0], eq.y_star, eq.lambda_star)
    return s


class RandomCampaign:
    """random_problem instances alternating free and box_diag inner modes."""

    name = "random_campaign"

    def setup(self, seed: int, folder: Path):
        rng = np.random.default_rng(BASE_SEED)
        problems = [random_problems.random_problem(rng, free_x=(k % 2 == 0))
                    for k in range(N_CAMPAIGN)]
        starts = np.random.default_rng(seed)
        return [(path.stem, Q, starts.uniform(Q.Omega.lo, Q.Omega.hi))
                for path, Q in _write_inputs(problems, folder)]

    def tasks(self, inputs, folder: Path):
        cfg = dynamics.IntegratorConfig(**CAMPAIGN_CFG)
        return [functools.partial(_api_solve, label, P, y0, cfg, True) for label, P, y0 in inputs]


class BoxedDense:
    """random_problem data with X replaced by a box and H kept dense."""

    name = "boxed_dense"

    def setup(self, seed: int, folder: Path):
        rng = np.random.default_rng([BASE_SEED, 3])
        problems = []
        for _ in range(N_BOXED):
            R = random_problems.random_problem(rng, free_x=True)
            half = np.full(R.n, BOXED_X_HALF_WIDTH)
            X = model.BoxSet.box(-half, half)
            problems.append(model.build_problem(R.f, R.h, R.A, R.B, R.C, X, R.Omega))
        loaded = _write_inputs(problems, folder)
        for path, Q in loaded:
            if Q.inner_mode != "box_dense":
                raise BenchmarkError(f"{path.name} has inner_mode {Q.inner_mode}, not box_dense")
        # y(0) = 0, the CLI's default start, for every seed: the projected-gradient
        # cost per step follows the trajectory, and seeded starts moved the job
        # time by 1.75x between seeds
        return [(path.stem, Q, np.zeros(Q.m)) for path, Q in loaded]

    def tasks(self, inputs, folder: Path):
        cfg = dynamics.IntegratorConfig(**BOXED_CFG)
        return [functools.partial(_api_solve, label, P, y0, cfg, False) for label, P, y0 in inputs]


# ---------------------------------------------------------------------------
# CLI workload: certify_files
# ---------------------------------------------------------------------------

def _cli(argv) -> tuple[int | None, str, str | None]:
    """(exit code, standard output, class of the exception that failed the command).

    The command catches its own integration and certification errors and
    reports them on standard error as "... failure: <class>: <message>"; the
    class is taken from there. Standard error is passed on.
    """
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:   # a solve that crashes is counted, the run goes on
        traceback.print_exc()
        error = type(exc).__name__
    sys.stderr.write(err.getvalue())
    for line in err.getvalue().splitlines():
        if " failure: " in line:
            error = line.split(" failure: ", 1)[1].split(":", 1)[0]
    return rc, out.getvalue(), error


def _printed(text: str, key: str) -> str:
    for line in text.splitlines():
        if line.startswith(f"{key} = "):
            return line.split(" = ", 1)[1]
    raise BenchmarkError(f"no '{key} = ' line in the command's output")


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _check_exported(s: Solve, P, out: Path) -> None:
    """Fill s from the files a certify run wrote under out."""
    traj_csv, env_csv = out / "trajectory.csv", out / "envelope.csv"
    report_json = out / "report.json"
    rows = _read_csv(traj_csv)
    m, p = P.m, P.p
    if rows.shape[1] != 2 + m + p:
        raise BenchmarkError(f"{traj_csv.name} has {rows.shape[1]} columns, expected {2 + m + p}")
    y, lam = rows[:, 1:1 + m], rows[:, 1 + m:1 + m + p]
    env = _read_csv(env_csv)
    if env.shape != (rows.shape[0], 3) or not np.array_equal(env[:, 0], rows[:, 0]):
        raise BenchmarkError(f"{env_csv.name} does not have one row per trajectory sample")
    report = json.loads(report_json.read_text(encoding="utf-8"))
    y_star = np.array(report["equilibrium"]["y_star"])
    lam_star = np.array(report["equilibrium"]["lambda_star"])
    s.envelope_ok = bool(report["envelope_ok"])
    if s.envelope_ok != bool(np.all(env[:, 2] <= env[:, 1])):
        raise BenchmarkError(f"{report_json.name} envelope_ok disagrees with {env_csv.name}")
    s.omega_violation = _omega_violation(P, y)
    s.gap = _distance(y[-1], lam[-1], y_star, lam_star)
    s.gap0 = _distance(y[0], lam[0], y_star, lam_star)
    s.kink_pinned = random_problems.kink_distance(P, y_star) < KINK_NEAR
    s.bytes_written += sum(f.stat().st_size for f in (traj_csv, env_csv, report_json))
    s.steps = round((rows[-1, 0] - rows[0, 0]) / CLI_DT)
    s.stop_tol = s.steps < CLI_STEPS
    s.probe = (P, _probe_rows(lam))


class CertifyFiles:
    """`ppdgd certify` on the feeder case and random free-X problem files."""

    name = "certify_files"

    def setup(self, seed: int, folder: Path):
        rng = np.random.default_rng([BASE_SEED, 2])
        problems = [casestudy.build_case()]
        problems += [random_problems.random_problem(rng, free_x=True)
                     for _ in range(N_CERTIFY_RANDOM)]
        # every file runs with the command's defaults, y(0) = 0 included, so
        # the seed does not change this workload
        return [(path.stem, Q, path) for path, Q in _write_inputs(problems, folder)]

    def tasks(self, inputs, folder: Path):
        return [functools.partial(self.certify, label, P, path, folder / label)
                for label, P, path in inputs]

    @staticmethod
    def certify(label: str, P, path: Path, out: Path) -> Solve:
        s = Solve(label, P.inner_mode)
        start = time.perf_counter()
        rc, text, s.error = _cli(["certify", str(path), "--out", str(out)])
        s.latency_s = time.perf_counter() - start
        s.exit_code = rc
        # the files exist only when the command got as far as its report; a
        # nonzero exit code before that is a failed solve with nothing to check
        if rc == 0 or any(line.startswith("envelope_ok = ") for line in text.splitlines()):
            _check_exported(s, P, out)
            invariant = _printed(text, "invariance_ok") == "True"
            if _printed(text, "envelope_ok") != str(s.envelope_ok) \
                    or invariant != (s.omega_violation <= OMEGA_TOL) \
                    or (rc == 0) != (s.envelope_ok and invariant):
                raise BenchmarkError(f"certify {label}: exit code and report disagree")
        shutil.rmtree(out, ignore_errors=True)
        return s


WORKLOADS = {w.name: w for w in (RandomCampaign, CertifyFiles, BoxedDense)}


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------

def fingerprint(value):
    """JSON-able form of a workload's inputs, to check that set-up repeats exactly."""
    if isinstance(value, model.Problem):
        return problem_io.problem_to_dict(value)
    if isinstance(value, Path):
        return value.name
    if isinstance(value, (list, tuple)):
        return [fingerprint(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def run_setups(workload, seed: int, folder: Path, repeats: int, time_import):
    """Set up `repeats` times, each time after a fresh import of the program.

    Returns the last inputs, the time of each repeat (time_import() plus the
    set-up) and the reference samples taken after each repeat.
    """
    times, prints, inputs = [], [], None
    reference = Reference()
    for r in range(repeats):
        import_s = time_import()
        gc.collect()   # no collection of an earlier repeat's garbage inside this one
        t0 = time.perf_counter()
        inputs = workload.setup(seed, folder / f"inputs{r}")
        times.append(import_s + time.perf_counter() - t0)
        prints.append(json.dumps(fingerprint(inputs), sort_keys=True))
        reference.sample()
    if len(set(prints)) != 1:
        raise BenchmarkError("set-up gave different inputs for the same seed")
    return inputs, times, reference.samples


class Reference:
    """A fixed small-array numpy loop, sampled between tasks as a yardstick of machine speed.

    The sandbox's speed changes by up to 2x between phases that last minutes,
    so the same job can take 4 s in one run and 7 s in the next. The mean
    reference sample over a run slows down with it; a run's times divided by
    that mean stay within a few percent where the raw times do not.
    """

    def __init__(self):
        self._M = 0.1 * np.random.default_rng(0).normal(size=(8, 8))
        self.samples: list[float] = []
        self._time_loop()   # warm-up, not recorded

    def _time_loop(self) -> float:
        x = np.ones(8)
        t0 = time.perf_counter()
        for _ in range(REF_ITERATIONS):
            x = np.where(x > 0.9, 0.0, np.clip(self._M @ x + 0.5, -1.0, 1.0))
        return time.perf_counter() - t0

    def sample(self) -> None:
        # the median drops the single timings that an interrupt makes 3x slower
        self.samples.append(statistics.median(self._time_loop() for _ in range(REF_REPEATS)))


def run_job(workload, inputs, folder: Path, reference: Reference) -> Job:
    """One pass of the workload's tasks, from the first solve to the last output checked.

    After each task, one reference sample per started second of the task, so
    that the samples cover the run about evenly in time; their time is not
    part of the job's.
    """
    solves, wall = [], 0.0
    for task in workload.tasks(inputs, folder):
        t0 = time.perf_counter()
        solves.append(task())
        elapsed = time.perf_counter() - t0
        wall += elapsed
        for _ in range(math.ceil(elapsed)):
            reference.sample()
    return Job(wall, solves)


def run_jobs(workload, inputs, folder: Path, reference: Reference,
             budget_s: float) -> list[Job]:
    """Repeat the job until the next one, at the median job time, would overrun budget_s."""
    jobs = []
    t0 = time.perf_counter()
    while True:
        jobs.append(run_job(workload, inputs, folder / f"job{len(jobs)}", reference))
        elapsed = time.perf_counter() - t0
        if elapsed + statistics.median(j.wall_s for j in jobs) > budget_s:
            return jobs


def check_repeats(jobs: list[Job]) -> None:
    """Every deterministic value of every solve must repeat exactly from job to job."""
    first = [s.signature() for s in jobs[0].solves]
    for k, job in enumerate(jobs[1:], 1):
        for a, b in zip([s.signature() for s in job.solves], first, strict=True):
            if a != b:
                raise BenchmarkError(f"job {k} did not repeat job 0: {a} != {b}")
