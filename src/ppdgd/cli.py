"""Command-line interface.

Subcommands: validate (structural assumptions and rate constants), run
(integrate a problem file), certify (integrate + equilibrium oracle +
envelope certificate), casestudy (the feeder demo, with repeatable --tau).

Exit codes: 0 success, 2 parse error (problem file or flags), 3 assumption
failure, 4 integration failure, 5 certification failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import casestudy as cs
from .analysis import (certify_envelope, envelope_series, equilibrium_oracle,
                       omega_invariant, write_envelope_csv)
from .dynamics import IntegratorConfig, State, integrate
from .errors import (
    DimensionMismatch,
    EquilibriumUnverified,
    InitialPointOutsideOmega,
    InnerSolveDiverged,
    NonCompactOmega,
    NonFiniteInput,
    NonFiniteState,
    NotStronglyConvex,
    OracleFailed,
    PointOutsideSet,
    PpdgdError,
    ProblemFormatError,
    RankDeficient,
)
from .model import Problem
from .problem_io import dump_problem, load_problem

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ASSUMPTION = 3
EXIT_INTEGRATION = 4
EXIT_CERTIFICATION = 5

FEASIBILITY_TOL = 1e-6   # residual of Ax + By = C, relative to max(1, |C|_inf)


def _load(path: str) -> Problem:
    try:
        return load_problem(path)
    except (ProblemFormatError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _feasible(P: Problem) -> bool:
    """Probe whether Ax + By = C admits a solution over X x Omega."""
    if P.X.is_free:
        return True  # A has full row rank, so x alone reaches any right-hand side
    import scipy.optimize  # deferred: keeps `validate` startup fast

    M = np.hstack([P.A, P.B])
    lo = np.concatenate([P.X.lo, P.Omega.lo])
    hi = np.concatenate([P.X.hi, P.Omega.hi])
    res = scipy.optimize.lsq_linear(M, P.C, bounds=(lo, hi))
    gap = float(np.max(np.abs(M @ res.x - P.C)))
    return gap <= FEASIBILITY_TOL * max(1.0, float(np.max(np.abs(P.C))))


def _cmd_validate(args) -> int:
    P = _load(args.problem)
    for name, value in (
        ("alpha", P.alpha), ("alpha_m", P.alpha_m), ("beta", P.beta),
        ("kappa1", P.kappa1), ("gamma", P.gamma),
    ):
        print(f"{name} = {value!r}")
    # construction already enforced the curvature/rank/compactness assumptions
    print("check smooth_strongly_convex: pass")
    print("check nonsmooth_strongly_convex: pass")
    print("check full_row_rank: pass")
    print("check omega_compact: pass")
    feasible = _feasible(P)
    print(f"check feasible: {'pass' if feasible else 'fail'}")
    return EXIT_OK if feasible else EXIT_ASSUMPTION


def _config_from(args, tau: float) -> IntegratorConfig:
    """Integrator config of the flags; a value it rejects exits 2, like a bad flag."""
    try:
        return IntegratorConfig(dt=args.dt, tau=tau, t_end=args.t_end,
                                stop_tol=args.stop_tol, record_every=args.record_every)
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _initial_state(P: Problem, seed) -> State:
    if seed is None:
        y0 = np.zeros(P.m)
    else:
        rng = np.random.default_rng(seed)
        y0 = rng.uniform(P.Omega.lo, P.Omega.hi)
    return State(y0, np.zeros(P.p))


def _certify(P: Problem, cfg: IntegratorConfig, seed, out: Path, eq=None, tag: str = ""):
    """Integrate, certify against eq (the oracle's when None) and export.

    Writes trajectory{tag}.csv, envelope{tag}.csv and report{tag}.json under
    out, creating out only after certification, and returns (trajectory,
    report, invariant).
    """
    traj = integrate(P, _initial_state(P, seed), cfg)
    if eq is None:
        eq = equilibrium_oracle(P)
    report = certify_envelope(P, traj, eq)
    out.mkdir(parents=True, exist_ok=True)
    traj.write_csv(out / f"trajectory{tag}.csv")
    write_envelope_csv(out / f"envelope{tag}.csv", *envelope_series(P, traj, eq))
    report.write_json(out / f"report{tag}.json")
    return traj, report, omega_invariant(P, traj)


def _cmd_run(args) -> int:
    cfg = _config_from(args, args.tau)
    P = _load(args.problem)
    traj = integrate(P, _initial_state(P, args.seed), cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "trajectory.csv"
    traj.write_csv(path)
    print(f"samples = {len(traj)}")
    print(f"t_final = {traj.t[-1]!r}")
    print(f"drift_final = {traj.drift_norm[-1]!r}")
    print(f"terminated_by = {traj.terminated_by.value}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_certify(args) -> int:
    cfg = _config_from(args, args.tau)
    out = Path(args.out)
    _, report, invariant = _certify(_load(args.problem), cfg, args.seed, out)
    print(f"envelope_ok = {report.envelope_ok}")
    print(f"invariance_ok = {invariant}")
    print(f"gamma_bound = {report.gamma_bound!r}")
    print(f"fitted_rate = {report.fitted_rate!r}")
    print(f"wrote {out / 'trajectory.csv'}, {out / 'envelope.csv'}, {out / 'report.json'}")
    return EXIT_OK if report.envelope_ok and invariant else EXIT_CERTIFICATION


def _cmd_casestudy(args) -> int:
    # every flag is checked before a file is written
    configs = [_config_from(args, tau) for tau in args.tau or [1.0]]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    P = cs.build_case()
    dump_problem(P, out / "problem.json")
    results, eq = [], None
    for cfg in configs:   # one oracle solve serves every tau
        traj, report, invariant = _certify(P, cfg, args.seed, out, eq, f"_tau{cfg.tau:g}")
        eq = report.equilibrium
        results.append((traj, report, invariant))
    # lines print once every tau has run: a tau that raises leaves stdout empty
    for traj, report, _ in results:
        print(
            f"tau = {report.tau:g}: envelope_ok = {report.envelope_ok}, "
            f"exponent = {0.5 * report.gamma_bound * report.tau!r}, "
            f"fitted_rate = {report.fitted_rate!r}, samples = {len(traj)}"
        )
    print(f"wrote outputs under {out}")
    ok = True
    for _, report, invariant in results:
        if not (report.envelope_ok and invariant):
            print(f"certification failure: tau = {report.tau:g}: envelope_ok = "
                  f"{report.envelope_ok}, invariance_ok = {invariant}", file=sys.stderr)
            ok = False
    return EXIT_OK if ok else EXIT_CERTIFICATION


def _add_run_flags(sp, tau_repeatable: bool, record_default: int = 1):
    sp.add_argument("--dt", type=float, default=1e-3)
    if tau_repeatable:
        sp.add_argument("--tau", type=float, action="append",
                        help="may be given several times for a sweep")
    else:
        sp.add_argument("--tau", type=float, default=1.0)
    sp.add_argument("--t-end", type=float, default=50.0, dest="t_end")
    sp.add_argument("--stop-tol", type=float, default=1e-8, dest="stop_tol")
    sp.add_argument("--record-every", type=int, default=record_default,
                    dest="record_every")
    sp.add_argument("--out", default=".")
    sp.add_argument("--seed", type=int, default=None,
                    help="draw y(0) uniformly in Omega (default: y(0) = 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppdgd",
        description="Projected partial primal-dual gradient dynamics solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check assumptions and print rate constants")
    sp.add_argument("problem")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("run", help="integrate a problem file")
    sp.add_argument("problem")
    _add_run_flags(sp, tau_repeatable=False)
    sp.set_defaults(func=_cmd_run)

    sp = sub.add_parser("certify", help="integrate and certify the decay envelope")
    sp.add_argument("problem")
    _add_run_flags(sp, tau_repeatable=False)
    sp.set_defaults(func=_cmd_certify)

    sp = sub.add_parser("casestudy", help="run the feeder voltage-control case")
    _add_run_flags(sp, tau_repeatable=True, record_default=100)
    sp.set_defaults(func=_cmd_casestudy)

    return parser


def main(argv=None) -> int:
    # (failure classes, exit code, stderr label); a problem file that does not
    # parse exits 2 from _load, before any of these can be raised
    failures = (
        ((RankDeficient, NotStronglyConvex, NonCompactOmega, DimensionMismatch, NonFiniteInput),
         EXIT_ASSUMPTION, "assumption failure"),
        ((InitialPointOutsideOmega, NonFiniteState, InnerSolveDiverged, PointOutsideSet),
         EXIT_INTEGRATION, "integration failure"),
        ((OracleFailed, EquilibriumUnverified), EXIT_CERTIFICATION, "certification failure"),
    )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PpdgdError as exc:
        for classes, code, label in failures:
            if isinstance(exc, classes):
                print(f"{label}: {type(exc).__name__}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
