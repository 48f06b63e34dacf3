#!/usr/bin/env python3
"""Stress campaign on random instances: invariance, oracle agreement, rates.

For each instance the trajectory is integrated until the field norm dies,
then compared against the independently computed equilibrium. Prints worst
cases over the whole campaign; every line of the summary should be
comfortable by construction of the generator.
"""

import argparse
import time

import numpy as np

from ppdgd import (
    IntegratorConfig,
    State,
    certify_envelope,
    equilibrium_oracle,
    integrate,
    kkt_residual,
    solve_inner,
)
from ppdgd.random_problems import kink_distance, random_problem


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=25)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--dt", type=float, default=2e-3)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    cfg = IntegratorConfig(dt=args.dt, t_end=60.0, stop_tol=1e-8)
    worst_gap = worst_kkt = worst_violation = 0.0
    worst_ratio = np.inf
    skipped = 0
    t0 = time.monotonic()
    done = 0
    while done < args.count:
        P = random_problem(rng)
        eq = equilibrium_oracle(P)
        if kink_distance(P, eq.y_star) < 0.02:
            skipped += 1   # kink-pinned equilibria chatter; rhs-level tests cover them
            continue
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
        worst_violation = max(worst_violation, violation)
        if report.fitted_rate is not None:
            worst_ratio = min(worst_ratio, report.fitted_rate / (0.5 * P.gamma))
        done += 1
    elapsed = time.monotonic() - t0

    print(f"instances: {done} (skipped {skipped} with kink-pinned equilibria)")
    print(f"worst Omega violation:        {worst_violation:.3e}")
    print(f"worst endpoint/oracle gap:    {worst_gap:.3e}")
    print(f"worst endpoint KKT residual:  {worst_kkt:.3e}")
    print(f"worst fitted-rate / bound:    {worst_ratio:.3f}")
    print(f"elapsed: {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
