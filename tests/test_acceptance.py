"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 3, 4, 8 and 9 share one campaign of 100 random instances (generated
once per test session); criterion runtimes are measured where the criterion
states a budget. Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion lines.
"""

import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest

from ppdgd import (
    BoxSet,
    IntegratorConfig,
    State,
    certify_envelope,
    dump_problem,
    equilibrium_oracle,
    integrate,
    kkt_residual,
    rhs,
    solve_inner,
)
from ppdgd.analysis import omega_invariant
from ppdgd.casestudy import build_case, regulation_cost
from ppdgd.model import QuadraticSmoothFn, build_problem
from ppdgd.random_problems import random_problem

from oracles import (
    select_subgradient,
    strong_concavity_check,
    tangent_project,
    tangent_project_limit,
)

N_INSTANCES = 100
CAMPAIGN_SEED = 20240811


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@dataclass
class InstanceResult:
    omega_violation: float
    endpoint_gap: float
    kkt_endpoint: float
    kkt_oracle: float
    lambda_sup: float
    lambda_bound: float
    max_v_increase: float
    sample_rate: float | None
    gamma: float


@pytest.fixture(scope="module")
def campaign():
    """100 random instances integrated once; per-instance metrics cached.

    Equilibria pinned at a kink of h are kept: the forward-backward step lands
    on the kink exactly, so every criterion covers them too.
    """
    rng = np.random.default_rng(CAMPAIGN_SEED)
    picked = []
    for _ in range(N_INSTANCES):
        P = random_problem(rng)
        eq = equilibrium_oracle(P)
        y0 = rng.uniform(P.Omega.lo, P.Omega.hi)
        picked.append((P, eq, y0))

    cfg = IntegratorConfig(dt=2e-3, t_end=60.0, stop_tol=1e-8, record_every=1)
    results = []
    integration_seconds = 0.0
    for P, eq, y0 in picked:
        t0 = time.perf_counter()
        traj = integrate(P, State(y0, np.zeros(P.p)), cfg)
        integration_seconds += time.perf_counter() - t0

        violation = max(
            float(np.max(P.Omega.lo - traj.y, initial=0.0)),
            float(np.max(traj.y - P.Omega.hi, initial=0.0)),
        )
        gap = float(np.linalg.norm(np.concatenate(
            [traj.y[-1] - eq.y_star, traj.lam[-1] - eq.lambda_star])))
        x_end = solve_inner(P, traj.lam[-1]).x_star
        kkt_end = kkt_residual(P, x_end, traj.y[-1], traj.lam[-1]).total
        kkt_eq = kkt_residual(P, *eq).total

        a_lam = float(np.linalg.norm(solve_inner(P, np.zeros(P.p)).grad_phi))
        verts = np.array(np.meshgrid(*zip(P.Omega.lo, P.Omega.hi))).reshape(P.m, -1).T
        a_lam += float(np.max(np.linalg.norm(verts @ P.B.T - P.C, axis=1)))
        lam_bound = (P.alpha_m / P.kappa1) * a_lam  # lam(0) = 0

        V = 0.5 * np.sum((traj.y - eq.y_star) ** 2, axis=1) \
            + 0.5 * np.sum((traj.lam - eq.lambda_star) ** 2, axis=1)
        max_dv = float(np.max(np.diff(V))) if len(V) > 1 else 0.0

        rate = certify_envelope(P, traj, eq).sample_rate
        results.append(InstanceResult(
            omega_violation=violation,
            endpoint_gap=gap,
            kkt_endpoint=kkt_end,
            kkt_oracle=kkt_eq,
            lambda_sup=float(np.max(np.linalg.norm(traj.lam, axis=1))),
            lambda_bound=lam_bound,
            max_v_increase=max_dv,
            sample_rate=rate,
            gamma=P.gamma,
        ))
    return results, integration_seconds


def test_criterion_1_rate_constants_via_validate(tmp_path):
    problem_path = tmp_path / "case.json"
    dump_problem(build_case(), problem_path)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ppdgd.cli", "validate", str(problem_path)],
        capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - t0
    vals = {}
    for line in proc.stdout.splitlines():
        if "=" in line and not line.startswith("check"):
            key, _, raw = line.partition("=")
            vals[key.strip()] = float(raw)
    ok = (
        proc.returncode == 0
        and abs(vals["gamma"] - 0.00339) <= 1e-5
        and abs(vals["kappa1"] - 0.01357) <= 1e-5
        and vals["beta"] == 1.0
        and vals["alpha_m"] == 8.0
        and elapsed < 1.0
    )
    report(1, ok, f"validate printed gamma={vals.get('gamma'):.8f}, "
                  f"kappa1={vals.get('kappa1'):.8f}, beta={vals.get('beta')}, "
                  f"alpha_m={vals.get('alpha_m')} in {elapsed:.2f}s (exit {proc.returncode})")


def test_criterion_2_exponential_envelope_case_study():
    t0 = time.perf_counter()
    rates = []
    P = build_case()
    eq = equilibrium_oracle(P)
    for tau in (1.0, 2.0, 5.0):
        traj = integrate(P, State(np.zeros(P.m), np.zeros(P.p)),
                         IntegratorConfig(tau=tau, t_end=50.0, record_every=10))
        rep = certify_envelope(P, traj, eq)
        assert traj.config.dt == 1e-3
        rates.append((tau, rep.envelope_ok and omega_invariant(P, traj), rep.sample_rate))
    elapsed = time.perf_counter() - t0
    ok = all(r[1] for r in rates) and elapsed < 30.0
    detail = ", ".join(f"tau={r[0]:g} sample_rate={r[2]:.4f}" for r in rates)
    report(2, ok, f"every recorded sample under the bound ({detail}) in {elapsed:.1f}s")


def test_criterion_3_omega_invariance(campaign):
    results, seconds = campaign
    worst = max(r.omega_violation for r in results)
    ok = worst <= 1e-9 and seconds < 60.0 and len(results) == N_INSTANCES
    report(3, ok, f"{len(results)} instances, worst violation {worst:.3e}, "
                  f"integration {seconds:.1f}s")


def test_criterion_4_oracle_equivalence(campaign):
    results, _ = campaign
    worst_gap = max(r.endpoint_gap for r in results)
    worst_end = max(r.kkt_endpoint for r in results)
    worst_eq = max(r.kkt_oracle for r in results)
    ok = worst_gap <= 1e-4 and worst_end <= 1e-6 and worst_eq <= 1e-6
    report(4, ok, f"worst endpoint/oracle gap {worst_gap:.3e}, "
                  f"worst KKT endpoint {worst_end:.3e}, oracle {worst_eq:.3e}")


def test_criterion_5_dual_strong_concavity():
    rng = np.random.default_rng(5150)
    worst = -np.inf
    for _ in range(100):
        P = random_problem(rng, free_x=True)
        lams = rng.normal(size=(100, 2, P.p)) * 3.0
        for l1, l2 in lams:
            worst = max(worst, strong_concavity_check(P, l1, l2))
    ok = worst <= 1e-8
    report(5, ok, f"100 instances x 100 pairs, worst margin {worst:.3e}")


def test_criterion_6_tangent_projection_limit_formula():
    rng = np.random.default_rng(616)
    worst = 0.0
    multi_active = 0
    for _ in range(1000):
        d = int(rng.integers(1, 7))
        lo = rng.uniform(-3, 0, size=d)
        hi = lo + rng.uniform(0.5, 3.0, size=d)
        S = BoxSet.box(lo, hi)
        y = rng.uniform(lo + 1e-3, hi - 1e-3)
        roll = rng.random(d)
        y = np.where(roll < 0.3, lo, np.where(roll > 0.7, hi, y))
        active = int(np.sum((y == lo) | (y == hi)))
        multi_active += active >= 2
        v = rng.uniform(-2, 2, size=d)
        gap = float(np.max(np.abs(
            tangent_project(y, v, S) - tangent_project_limit(y, v, S, delta=1e-7))))
        worst = max(worst, gap)
    ok = worst <= 1e-5 and multi_active > 100
    report(6, ok, f"1000 triples ({multi_active} with >= 2 active faces), "
                  f"worst deviation {worst:.3e}")


def test_criterion_7_kink_intervals_and_sliding_mode():
    cost = regulation_cost()
    exact = cost.clarke(0.2) == (0.2, 0.4) and cost.clarke(-0.2) == (-0.4, -0.2)
    # coupling B = [-1] makes the subgradient target equal +lam
    P = build_problem(
        QuadraticSmoothFn(np.array([[1.0]]), np.zeros(1)),
        [cost],
        np.array([[1.0]]), np.array([[-1.0]]), np.zeros(1),
        BoxSet.free(1), BoxSet.box([-1.0], [1.0]),
    )
    g = select_subgradient(P, np.array([0.2]), np.array([0.3]))
    dy, _ = rhs(P, State(np.array([0.2]), np.array([0.3])), 1.0)
    sliding = g[0] == 0.3 and dy[0] == 0.0
    ok = exact and sliding
    up = tuple(map(float, cost.clarke(0.2)))
    down = tuple(map(float, cost.clarke(-0.2)))
    report(7, ok, f"intervals {up} / {down}, sliding drift {float(dy[0])!r}")


def test_criterion_8_lambda_boundedness(campaign):
    results, _ = campaign
    excess = max(r.lambda_sup - (r.lambda_bound + 1e-6) for r in results)
    ok = excess <= 0.0
    report(8, ok, f"worst sup||lambda|| excess over the bound {excess:.3e}")


def test_criterion_9_lyapunov_decay_and_rate(campaign):
    results, _ = campaign
    worst_dv = max(r.max_v_increase for r in results)
    rated = [r for r in results if r.sample_rate is not None]
    worst_ratio = min(r.sample_rate / (0.5 * r.gamma) for r in rated)
    ok = worst_dv <= 1e-9 and worst_ratio >= 1.0 and len(rated) > 0
    report(9, ok, f"worst per-step V increase {worst_dv:.3e}, "
                  f"worst sample-rate/bound ratio {worst_ratio:.3f} "
                  f"({len(rated)} rated trajectories)")
