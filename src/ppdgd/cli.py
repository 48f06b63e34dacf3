"""Command-line interface.

Subcommands: validate (structural assumptions, rate constants and the
oracle's feasibility verdict), run (integrate a problem file), certify
(equilibrium oracle + integrate + envelope certificate), casestudy (the
feeder demo, with repeatable --tau).

Exit codes: 0 success, 2 parse error (problem file or flags) or i/o error,
3 assumption failure, 4 integration failure, 5 certification failure; main
alone prints an error, one stderr line labelled by its category in errors.py.
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
from .errors import InfeasibleProblem, InvalidConfig, PpdgdError
from .model import Problem
from .problem_io import dump_problem, load_problem

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CERTIFICATION = 5


def _cmd_validate(args) -> int:
    P = load_problem(args.problem)
    for name in ("alpha", "alpha_m", "beta", "kappa1", "gamma"):
        print(f"{name} = {getattr(P, name)!r}")
    # construction already enforced the curvature/rank/compactness assumptions
    for check in ("smooth_strongly_convex", "nonsmooth_strongly_convex", "full_row_rank",
                  "omega_compact"):
        print(f"check {check}: pass")
    try:   # the oracle's proof is the verdict; its other failures propagate (exit 5)
        equilibrium_oracle(P)
    except InfeasibleProblem:
        print("check feasible: fail")
        raise
    print("check feasible: pass")
    return EXIT_OK


def _config_from(args, tau: float) -> IntegratorConfig:
    """Integrator config of the flags; it and --seed raise InvalidConfig on a bad value."""
    if args.seed is not None and args.seed < 0:
        raise InvalidConfig(f"--seed must be >= 0, got {args.seed}")
    return IntegratorConfig(dt=args.dt, tau=tau, t_end=args.t_end,
                            stop_tol=args.stop_tol, record_every=args.record_every)


def _initial_state(P: Problem, seed) -> State:
    if seed is None:
        return State(np.zeros(P.m), np.zeros(P.p))
    return State(np.random.default_rng(seed).uniform(P.Omega.lo, P.Omega.hi), np.zeros(P.p))


def _certify(P: Problem, cfg: IntegratorConfig, seed, out: Path, eq=None, tag: str = ""):
    """Integrate, certify against eq (the oracle's when None) and export.

    Writes trajectory{tag}.csv, envelope{tag}.csv and report{tag}.json under
    out, creating out only after certification, and returns (trajectory,
    report, invariant). Without eq, the oracle solves P before the
    integration starts, as it does not read the trajectory: an infeasible P
    raises InfeasibleProblem and an unsolved one OracleFailed before any
    step. A given eq shows that P is feasible.
    """
    if eq is None:
        eq = equilibrium_oracle(P)
    traj = integrate(P, _initial_state(P, seed), cfg)
    series = envelope_series(P, traj, eq)   # one pass serves the check and the CSV
    report = certify_envelope(P, traj, eq, _series=series)
    out.mkdir(parents=True, exist_ok=True)
    traj.write_csv(out / f"trajectory{tag}.csv")
    write_envelope_csv(out / f"envelope{tag}.csv", *series)
    report.write_json(out / f"report{tag}.json")
    return traj, report, omega_invariant(P, traj)


def _cmd_run(args) -> int:
    cfg = _config_from(args, args.tau)
    P = load_problem(args.problem)
    traj = integrate(P, _initial_state(P, args.seed), cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "trajectory.csv"
    traj.write_csv(path)
    print(f"samples = {len(traj)}")
    print(f"t_final = {float(traj.t[-1])!r}")
    print(f"drift_final = {float(traj.drift_norm[-1])!r}")
    print(f"terminated_by = {traj.terminated_by.value}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_certify(args) -> int:
    cfg = _config_from(args, args.tau)
    out = Path(args.out)
    _, report, invariant = _certify(load_problem(args.problem), cfg, args.seed, out)
    print(f"envelope_ok = {report.envelope_ok}")
    print(f"invariance_ok = {invariant}")
    print(f"gamma_bound = {report.gamma_bound!r}")
    print(f"sample_rate = {report.sample_rate!r}")
    print(f"wrote {out / 'trajectory.csv'}, {out / 'envelope.csv'}, {out / 'report.json'}")
    return EXIT_OK if report.envelope_ok and invariant else EXIT_CERTIFICATION


def _cmd_casestudy(args) -> int:
    # every flag is checked before a file is written
    configs = [_config_from(args, tau) for tau in args.tau or [1.0]]
    tags = [f"_tau{cfg.tau:g}" for cfg in configs]   # each tau's files are named by its tag
    first = {}
    for cfg, tag in zip(configs, tags):
        if tag in first:
            raise InvalidConfig(f"--tau {first[tag]!r} and --tau {cfg.tau!r} would both write "
                                f"the files tagged {tag}")
        first[tag] = cfg.tau
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    P = cs.build_case()
    dump_problem(P, out / "problem.json")
    results, eq = [], None
    for cfg, tag in zip(configs, tags):   # one oracle solve serves every tau
        traj, report, invariant = _certify(P, cfg, args.seed, out, eq, tag)
        eq = report.equilibrium
        results.append((traj, report, invariant))
    # lines print once every tau has run: a tau that raises leaves stdout empty
    for traj, report, _ in results:
        print(
            f"tau = {report.tau:g}: envelope_ok = {report.envelope_ok}, "
            f"gamma/2 = {0.5 * report.gamma_bound!r}, "
            f"sample_rate = {report.sample_rate!r}, samples = {len(traj)}"
        )
    print(f"wrote outputs under {out}")
    failed = [(report, invariant) for _, report, invariant in results
              if not (report.envelope_ok and invariant)]
    for report, invariant in failed:
        print(f"certification failure: tau = {report.tau:g}: envelope_ok = "
              f"{report.envelope_ok}, invariance_ok = {invariant}", file=sys.stderr)
    return EXIT_CERTIFICATION if failed else EXIT_OK


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


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # a bad flag ends like every other error: one stderr line
        raise InvalidConfig(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PpdgdError as exc:   # its category carries the label and the exit code
        print(f"{exc.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
