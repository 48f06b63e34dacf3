#!/usr/bin/env python3
"""Stress campaign on random instances: invariance, oracle agreement, rates.

Instances alternate between a free X and the box X = [-5, 5]^n with a
diagonal H (inner mode box_diag), as the benchmark's random campaign does.
For each instance the trajectory is integrated until the step residual dies,
then compared against the independently computed equilibrium. Equilibria
pinned at a kink of h are kept. Prints worst cases over the whole campaign.
Exits 1, with one line on stderr, when any instance fails the decay envelope,
leaves Omega by more than MEMBER_TOL, ends farther than GAP_TOL from the
equilibrium or with an endpoint KKT residual above KKT_TOL, or when the
oracle's equilibrium itself has a KKT residual above ORACLE_KKT_TOL; exits 2
on a bad flag, --count below 1, --seed below 0 and a --dt the integrator
rejects included; exits 0 otherwise.
"""

import argparse
import sys
import time

import numpy as np

from ppdgd import (
    IntegratorConfig,
    InvalidConfig,
    State,
    certify_envelope,
    equilibrium_oracle,
    integrate,
    kkt_residual,
    solve_inner,
)
from ppdgd.model import MEMBER_TOL
from ppdgd.random_problems import random_problem

GAP_TOL = 1e-4   # endpoint distance to the oracle's (y*, lam*)
KKT_TOL = 1e-6   # endpoint KKT residual
ORACLE_KKT_TOL = 1e-12   # the dual active-set method's last exact solve is a KKT point up to roundoff


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=25)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--dt", type=float, default=2e-3)
    args = ap.parse_args()
    if args.count < 1:   # a campaign of no instance checks nothing
        ap.error(f"--count must be at least 1, got {args.count}")
    if args.seed < 0:   # default_rng takes no negative seed
        ap.error(f"--seed must be at least 0, got {args.seed}")
    try:
        cfg = IntegratorConfig(dt=args.dt, t_end=60.0, stop_tol=1e-8)
    except InvalidConfig as exc:
        ap.error(f"--dt {args.dt!r}: {exc}")

    rng = np.random.default_rng(args.seed)
    worst_gap = worst_kkt = worst_oracle_kkt = worst_violation = 0.0
    worst_ratio = np.inf
    failures = []
    t0 = time.monotonic()
    for k in range(args.count):
        P = random_problem(rng, free_x=(k % 2 == 0))
        eq = equilibrium_oracle(P)
        oracle_kkt = kkt_residual(P, *eq).total
        y0 = rng.uniform(P.Omega.lo, P.Omega.hi)
        traj = integrate(P, State(y0, np.zeros(P.p)), cfg)
        report = certify_envelope(P, traj, eq)
        violation = P.Omega.violation(traj.y)
        gap = float(np.linalg.norm(np.concatenate(
            [traj.y[-1] - eq.y_star, traj.lam[-1] - eq.lambda_star])))
        x_end = solve_inner(P, traj.lam[-1]).x_star
        kkt_end = kkt_residual(P, x_end, traj.y[-1], traj.lam[-1]).total
        worst_gap = max(worst_gap, gap)
        worst_kkt = max(worst_kkt, kkt_end)
        worst_oracle_kkt = max(worst_oracle_kkt, oracle_kkt)
        worst_violation = max(worst_violation, violation)
        if report.sample_rate is not None:
            worst_ratio = min(worst_ratio, report.sample_rate / (0.5 * P.gamma))
        failed = [name for name, bad in (
            ("envelope", not report.envelope_ok),
            ("Omega", not violation <= MEMBER_TOL),
            ("gap", not gap <= GAP_TOL),
            ("KKT", not kkt_end <= KKT_TOL),
            ("oracle KKT", not oracle_kkt <= ORACLE_KKT_TOL),
        ) if bad]
        if failed:
            failures.append(f"instance {k} ({', '.join(failed)})")
    elapsed = time.monotonic() - t0

    print(f"instances: {args.count}")
    print(f"worst Omega violation:        {worst_violation:.3e}")
    print(f"worst endpoint/oracle gap:    {worst_gap:.3e}")
    print(f"worst endpoint KKT residual:  {worst_kkt:.3e}")
    print(f"worst oracle KKT residual:    {worst_oracle_kkt:.3e}")
    print(f"worst sample-rate / bound:    {worst_ratio:.3f}")
    print(f"elapsed: {elapsed:.1f}s")
    if failures:
        print(f"random stability failure: {len(failures)} of {args.count} instances failed: "
              + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
