"""Desk-scale voltage-control case on a radial feeder.

Seven controllable buses regulate reactive power q to pull voltages U toward
nominal: minimize (a/2)||U - 1||^2 plus a kinked per-bus regulation cost,
subject to the linearized feeder model B_net U = q + C and box limits on q.
The feeder sensitivity matrix is synthesized as a tridiagonal
second-difference line-graph matrix with positive off-diagonals, rescaled so
its smallest eigenvalue is 0.1165; published network data beyond that
eigenvalue, the cost weight a = 8, C, and the kVar limits are not needed for
any of the certified quantities.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .analysis import (ConvergenceReport, certify_envelope, envelope_series,
                       equilibrium_oracle, omega_invariant, write_envelope_csv)
from .dynamics import IntegratorConfig, State, Trajectory, integrate
from .errors import CertificationFailed
from .model import BoxSet, PiecewiseScalarFn, Problem, QuadraticSmoothFn, build_problem

N_BUSES = 7
MIN_EIGENVALUE = 0.1165
Q_LIMITS_KVAR = np.array([80.0, 80.0, 88.0, 80.0, 104.0, 80.0, 96.0])
KVA_BASE = 100.0
C_DEFAULT = np.array([1.011, -0.009, -0.1, 0.14, -0.26, -0.019, -0.06])
A_DEFAULT = 8.0
COST_KINK = 0.2


def radial_feeder_matrix(n_buses: int = N_BUSES, min_eigenvalue: float = MIN_EIGENVALUE) -> np.ndarray:
    """Tridiagonal (1, 2, 1) line-graph matrix rescaled to the target lambda_min."""
    T = 2.0 * np.eye(n_buses) + np.diag(np.ones(n_buses - 1), 1) + np.diag(np.ones(n_buses - 1), -1)
    return (min_eigenvalue / np.linalg.eigvalsh(T)[0]) * T


def regulation_cost() -> PiecewiseScalarFn:
    """Per-bus reactive regulation cost: 0.5 q^2 inside |q| <= 0.2, q^2 - 0.02 outside."""
    return PiecewiseScalarFn(
        np.array([-COST_KINK, COST_KINK]),
        np.array([[1.0, 0.0, -0.02], [0.5, 0.0, 0.0], [1.0, 0.0, -0.02]]),
    )


def build_case() -> Problem:
    """Map the feeder data onto the generic structured problem.

    x = U (free), y = q in the box |q| <= Q_LIMITS_KVAR / KVA_BASE (per unit),
    A = B_net, B = -I, C = C_DEFAULT; the smooth cost is (a/2)||U - 1||^2 with
    a = A_DEFAULT and each h_j is the kinked regulation cost.
    """
    n, a = N_BUSES, A_DEFAULT
    q_hi = Q_LIMITS_KVAR / KVA_BASE
    f = QuadraticSmoothFn(a * np.eye(n), -a * np.ones(n), 0.5 * a * n)
    h = [regulation_cost() for _ in range(n)]
    return build_problem(
        f, h, radial_feeder_matrix(), -np.eye(n), C_DEFAULT.copy(),
        BoxSet.free(n), BoxSet.box(-q_hi, q_hi),
    )


def run_case(
    P: Problem, cfg: IntegratorConfig, out_dir=None,
) -> tuple[Trajectory, ConvergenceReport, list[Path]]:
    """Integrate P from q(0) = 0, lam(0) = 0 with cfg, certify, and export.

    Writes trajectory_tau<tau>.csv, envelope_tau<tau>.csv and
    report_tau<tau>.json under out_dir when given. Raises CertificationFailed
    if any recorded q leaves its box or the decay envelope is violated.
    """
    traj = integrate(P, State(np.zeros(P.m), np.zeros(P.p)), cfg)
    eq = equilibrium_oracle(P)
    report = certify_envelope(P, traj, eq)

    if not omega_invariant(P, traj):
        raise CertificationFailed("a recorded q sample violates its box beyond 1e-9")
    if not report.envelope_ok:
        raise CertificationFailed(
            f"decay envelope violated (margin {report.envelope_margin:.3e})"
        )

    files: list[Path] = []
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        tag = f"{cfg.tau:g}"
        traj_path = out / f"trajectory_tau{tag}.csv"
        traj.write_csv(traj_path)
        env_path = out / f"envelope_tau{tag}.csv"
        write_envelope_csv(env_path, *envelope_series(P, traj, eq))
        rep_path = out / f"report_tau{tag}.json"
        report.write_json(rep_path)
        files = [traj_path, env_path, rep_path]
    return traj, report, files
