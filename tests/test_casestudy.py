import json

import numpy as np
import pytest

from ppdgd import (
    IntegratorConfig,
    State,
    certify_envelope,
    equilibrium_oracle,
    integrate,
    kkt_residual,
    solve_inner,
)
from ppdgd.casestudy import build_case, radial_feeder_matrix
from ppdgd.cli import main


def test_feeder_matrix_spectrum():
    B = radial_feeder_matrix()
    eigs = np.linalg.eigvalsh(B)
    assert eigs[0] == pytest.approx(0.1165, abs=1e-9)
    assert np.all(eigs > 0)
    # tridiagonal with positive off-diagonals
    assert np.count_nonzero(B - np.diag(np.diagonal(B)) - np.diag(np.diagonal(B, 1), 1)
                            - np.diag(np.diagonal(B, -1), -1)) == 0
    assert np.all(np.diagonal(B, 1) > 0)


def test_case_problem_mapping(case_problem):
    P = case_problem
    assert P.n == P.m == P.p == 7
    assert P.X.is_free
    assert np.array_equal(P.B, -np.eye(7))
    assert np.array_equal(P.Omega.hi, np.array([80, 80, 88, 80, 104, 80, 96]) / 100.0)
    assert np.array_equal(P.Omega.lo, -P.Omega.hi)
    assert np.allclose(P.f.H, 8.0 * np.eye(7))


def test_case_rate_constants(case_problem):
    P = case_problem
    assert P.beta == 1.0
    assert P.alpha_m == 8.0
    assert P.kappa1 == pytest.approx(0.01357, abs=1e-5)
    assert P.gamma == pytest.approx(0.00339, abs=1e-5)


def test_case_cost_kink_values(case_problem):
    h0 = case_problem.h[0]
    assert h0.value(0.2) == pytest.approx(0.02, abs=1e-15)
    assert h0.value(-0.2) == pytest.approx(0.02, abs=1e-15)
    assert h0.clarke(0.2) == (0.2, 0.4)
    assert h0.clarke(-0.2) == (-0.4, -0.2)


def test_case_inner_solution_closed_form(case_problem):
    P = case_problem
    lam = np.linspace(-0.5, 0.5, 7)
    sol = solve_inner(P, lam)
    assert np.allclose(sol.x_star, 1.0 - (P.A.T @ lam) / 8.0, atol=1e-13)


def test_casestudy_writes_expected_files(tmp_path):
    assert main(["casestudy", "--tau", "1", "--t-end", "15", "--record-every", "100",
                 "--out", str(tmp_path)]) == 0
    names = sorted(f.name for f in tmp_path.iterdir())
    assert names == ["envelope_tau1.csv", "problem.json", "report_tau1.json",
                     "trajectory_tau1.csv"]
    report = json.loads((tmp_path / "report_tau1.json").read_text())
    assert report["envelope_ok"] is True
    assert report["gamma_bound"] == pytest.approx(0.00339, abs=1e-5)
    env = (tmp_path / "envelope_tau1.csv").read_text().splitlines()
    assert env[0] == "t,bound,distance"
    t0_cells = env[1].split(",")
    assert float(t0_cells[1]) >= float(t0_cells[2])  # bound dominates from the start


def test_case_trajectory_respects_limits_and_envelope():
    P = build_case()
    traj = integrate(P, State(np.zeros(P.m), np.zeros(P.p)),
                     IntegratorConfig(tau=1.0, t_end=20.0, record_every=100))
    report = certify_envelope(P, traj, equilibrium_oracle(P))
    assert np.all(traj.y >= P.Omega.lo - 1e-9)
    assert np.all(traj.y <= P.Omega.hi + 1e-9)
    assert report.envelope_ok
    assert traj.t[0] == 0.0 and np.all(traj.y[0] == 0.0)


def test_case_endpoint_matches_oracle():
    P = build_case()
    eq = equilibrium_oracle(P)
    assert kkt_residual(P, *eq).total <= 1e-6
    traj = integrate(P, State(np.zeros(7), np.zeros(7)),
                     IntegratorConfig(dt=1e-3, t_end=50.0, record_every=100))
    gap = np.linalg.norm(np.concatenate(
        [traj.y[-1] - eq.y_star, traj.lam[-1] - eq.lambda_star]))
    assert gap <= 1e-4
    assert np.all(eq.y_star >= P.Omega.lo - 1e-12)
    assert np.all(eq.y_star <= P.Omega.hi + 1e-12)


def test_sweep_exponents_scale_with_tau(tmp_path):
    assert main(["casestudy", "--tau", "1", "--tau", "2", "--t-end", "50",
                 "--record-every", "100", "--out", str(tmp_path)]) == 0
    r1, r2 = (json.loads((tmp_path / f"report_tau{t}.json").read_text()) for t in (1, 2))
    assert r1["envelope_ok"] and r2["envelope_ok"]
    assert 0.5 * r2["gamma_bound"] * r2["tau"] == 2.0 * (0.5 * r1["gamma_bound"] * r1["tau"])
    assert {p.name for p in tmp_path.iterdir()} == {
        "problem.json", "trajectory_tau1.csv", "envelope_tau1.csv", "report_tau1.json",
        "trajectory_tau2.csv", "envelope_tau2.csv", "report_tau2.json"}
