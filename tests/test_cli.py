import json
import subprocess
import sys

import numpy as np
import pytest

from ppdgd import (BoxSet, NonFiniteState, OracleFailed, PpdgdError, RankDeficient, analysis,
                   build_problem, cli, dump_problem, errors)
from ppdgd.casestudy import build_case
from ppdgd.cli import main
from ppdgd.dynamics import TerminationReason
from ppdgd.random_problems import random_problem


@pytest.fixture(scope="module")
def case_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("case") / "case.json"
    dump_problem(build_case(), path)
    return str(path)


@pytest.fixture
def toy_file(tmp_path, one_dim_problem):
    path = tmp_path / "toy.json"
    dump_problem(one_dim_problem, path)
    return str(path)


def parse_constants(out):
    vals = {}
    for line in out.splitlines():
        if "=" in line and not line.startswith("check"):
            key, _, raw = line.partition("=")
            vals[key.strip()] = float(raw)
    return vals


def test_validate_case_prints_rate_constants(case_file, capsys):
    assert main(["validate", case_file]) == 0
    out = capsys.readouterr().out
    vals = parse_constants(out)
    assert vals["gamma"] == pytest.approx(0.00339, abs=1e-5)
    assert vals["kappa1"] == pytest.approx(0.01357, abs=1e-5)
    assert vals["beta"] == 1.0
    assert vals["alpha_m"] == 8.0
    assert out.count(": pass") == 5


def test_validate_identity_toy(toy_file, capsys):
    assert main(["validate", toy_file]) == 0
    vals = parse_constants(capsys.readouterr().out)
    assert vals["gamma"] == pytest.approx(2.0)


def test_validate_rank_deficient_exits_3(tmp_path, capsys):
    doc = {
        "n": 2, "m": 1, "p": 2,
        "H": {"diag": [1.0, 1.0]}, "c": [0.0, 0.0],
        "A": [[1.0, 0.0], [2.0, 0.0]],
        "B": [[1.0], [0.0]],
        "C": [0.0, 0.0],
        "h": [{"breakpoints": [], "pieces": [{"p": 0.5, "q": 0.0, "r": 0.0}]}],
        "X": {"kind": "free"},
        "Omega": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
    }
    path = tmp_path / "rankdef.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 3
    assert "RankDeficient" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    # these files used to pass validate, then certify exited 4 with "reduce dt"
    ("C", [1e308], "C[0] = 1e+308 exceeds 1e+150 in magnitude"),
    ("B", [[1e300, -1e300]], "B[0, 0] = 1e+300 exceeds 1e+150 in magnitude"),
    ("H", {"diag": [1e-320, 1.0]}, "alpha = 1e-320 is subnormal"),
    # and this one exited 3 with "eigenvalue ratio inf/inf"
    ("A", [[1e300, 1e300]], "A[0, 0] = 1e+300 exceeds 1e+150 in magnitude"),
    # these printed RuntimeWarning lines from PiecewiseScalarFn's arithmetic first
    ("h", [{"breakpoints": [], "pieces": [{"p": 0.5, "q": 0.0, "r": 0.0}]},
           {"breakpoints": [1e308], "pieces": [{"p": 0.5, "q": 0.0, "r": 0.0},
                                               {"p": 1.0, "q": -0.2, "r": 0.02}]}],
     "breakpoints[0] = 1e+308 exceeds 1e+150 in magnitude"),
    ("h", [{"breakpoints": [], "pieces": [{"p": 1e308, "q": 0.0, "r": 0.0}]},
           {"breakpoints": [], "pieces": [{"p": 0.5, "q": 0.0, "r": 0.0}]}],
     "coeffs[0, 0] = 1e+308 exceeds 1e+150 in magnitude"),
    # and this one was blamed on convexity
    ("h", [{"breakpoints": [], "pieces": [{"p": -1e308, "q": 0.0, "r": 0.0}]},
           {"breakpoints": [], "pieces": [{"p": 0.5, "q": 0.0, "r": 0.0}]}],
     "coeffs[0, 0] = -1e+308 exceeds 1e+150 in magnitude"),
])
def test_data_out_of_range_exits_3_naming_the_entry(key, value, message, tmp_path, capsys):
    doc = {
        "n": 2, "m": 2, "p": 1,
        "H": {"diag": [1.0, 2.0]}, "c": [0.0, 0.0],
        "A": [[1.0, 1.0]], "B": [[1.0, -1.0]], "C": [0.5],
        "h": [{"breakpoints": [], "pieces": [{"p": 0.5, "q": 0.0, "r": 0.0}]},
              {"breakpoints": [0.2], "pieces": [{"p": 0.5, "q": 0.0, "r": 0.0},
                                                {"p": 1.0, "q": -0.2, "r": 0.02}]}],
        "X": {"kind": "free"},
        "Omega": {"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    doc[key] = value
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    for argv in (["validate", str(path)], ["certify", str(path), "--out", str(out)]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"assumption failure: NonFiniteInput: {message}"]
        assert captured.out == ""
    assert not out.exists()


def test_validate_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["validate", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_validate_infeasible_boxes_exit_3(tmp_path, capsys):
    # x + y over [0,1]x[0,1] can never reach C = 5
    doc = {
        "n": 1, "m": 1, "p": 1,
        "H": {"diag": [1.0]}, "c": [0.0],
        "A": [[1.0]], "B": [[1.0]], "C": [5.0],
        "h": [{"breakpoints": [], "pieces": [{"p": 0.5, "q": 0.0, "r": 0.0}]}],
        "X": {"kind": "box", "lo": [0.0], "hi": [1.0]},
        "Omega": {"kind": "box", "lo": [0.0], "hi": [1.0]},
    }
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "check feasible: fail"
    assert captured.err.splitlines() == [
        "assumption failure: InfeasibleProblem: Ax + By = C has no solution over X x Omega"]


def _readme_doc(**sets):
    doc = {
        "n": 2, "m": 2, "p": 1,
        "H": {"diag": [1.0, 2.0]}, "c": [0.0, 0.0],
        "A": [[1.0, 1.0]], "B": [[1.0, -1.0]], "C": [0.5],
        "h": [{"breakpoints": [], "pieces": [{"p": 0.5, "q": 0.0, "r": 0.0}]},
              {"breakpoints": [0.2], "pieces": [{"p": 0.5, "q": 0.0, "r": 0.0},
                                                {"p": 1.0, "q": -0.2, "r": 0.02}]}],
        "X": {"kind": "free"},
        "Omega": {"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
    }
    return {**doc, **sets}


@pytest.mark.parametrize("sets, certified", [
    # X binds here, so the rate premise of ROADMAP item 2 may fail: exit 0 or 5
    ({"X": {"kind": "box", "lo": [-1.0, 0.25], "hi": [1.0, 0.25]}}, (0, 5)),
    ({"X": {"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
      "Omega": {"kind": "box", "lo": [-1.0, 0.25], "hi": [1.0, 0.25]}}, (0,)),
])
def test_pinned_box_coordinates_pass_the_feasibility_probe(sets, certified, tmp_path, capsys):
    # a coordinate with lo = hi: both files once ended in a ValueError
    # traceback from the least-squares feasibility probe that the oracle replaced
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps(_readme_doc(**sets)))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "check feasible: pass"
    # --seed draws y(0) inside Omega; y(0) = 0 is outside the pinned Omega
    assert main(["certify", str(path), "--t-end", "5", "--seed", "1",
                 "--out", str(tmp_path / "out")]) in certified
    assert capsys.readouterr().err == ""


def _exits_3_without_output(path, message, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["certify", str(path), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"assumption failure: {message}"]
    assert captured.out == ""
    assert not out.exists()


def test_certify_infeasible_boxes_exit_3_before_integrating(tmp_path, capsys):
    # x1 + x2 + y over [-1, 1]^3 reaches at most 3, never C = 10
    doc = {
        "n": 2, "m": 1, "p": 1,
        "H": {"diag": [1.0, 1.0]}, "c": [0.0, 0.0],
        "A": [[1.0, 1.0]], "B": [[1.0]], "C": [10.0],
        "h": [{"breakpoints": [], "pieces": [{"p": 0.5, "q": 0.0, "r": 0.0}]}],
        "X": {"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "Omega": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
    }
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(doc))
    _exits_3_without_output(
        path, "InfeasibleProblem: Ax + By = C has no solution over X x Omega", tmp_path, capsys)


def _near_edge_problems(count):
    """Feasible draws 1e-6 inside the edge of A (X) + B (Omega), with X = [-1, 1]^n.

    v is the vertex of X x Omega where d'(Ax + By) peaks for a random unit d,
    and C = A v_x + B v_y - 1e-6 d.
    """
    rng = np.random.default_rng(21)
    for k in range(count):
        R = random_problem(rng, free_x=(k % 2 == 0))
        X = BoxSet.box(np.full(R.n, -1.0), np.full(R.n, 1.0))
        M = np.hstack([R.A, R.B])
        lo, hi = np.concatenate([X.lo, R.Omega.lo]), np.concatenate([X.hi, R.Omega.hi])
        d = rng.normal(size=R.p)
        d /= np.linalg.norm(d)
        v = np.where(M.T @ d > 0, hi, lo)
        yield build_problem(R.f, R.h, R.A, R.B, M @ v - 1e-6 * d, X, R.Omega)


def test_feasible_near_edge_files_pass(tmp_path, capsys):
    # a bounded least-squares probe stopped at residuals near 1e-5 on these
    # and rejected 9 of the 10 as infeasible; the oracle solves each of them
    for k, P in enumerate(_near_edge_problems(10)):
        path = tmp_path / f"edge{k}.json"
        dump_problem(P, path)
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "check feasible: pass"
        # X binds at these points, so the envelope may fail (ROADMAP item 2)
        assert main(["certify", str(path), "--t-end", "1", "--seed", "1",
                     "--out", str(tmp_path / f"out{k}")]) != 3
        assert "InfeasibleProblem" not in capsys.readouterr().err


def test_validate_and_certify_on_a_box_x_file_leave_scipy_unloaded(tmp_path):
    path = tmp_path / "boxed.json"
    path.write_text(json.dumps(_readme_doc(X={"kind": "box", "lo": [-1.0, -1.0],
                                                "hi": [1.0, 1.0]})))
    script = ("import runpy, sys\n"
              "sys.argv[0] = 'ppdgd'\n"
              "try:\n"
              "    runpy.run_module('ppdgd.cli', run_name='__main__')\n"
              "except SystemExit as exc:\n"
              "    print('exit', exc.code)\n"
              "print('scipy' in sys.modules)\n")
    for argv in (["validate", str(path)],
                 ["certify", str(path), "--t-end", "2", "--out", str(tmp_path / "out")]):
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, text=True, timeout=60)
        assert proc.stdout.splitlines()[-2:] == ["exit 0", "False"], proc.stdout + proc.stderr
        assert proc.stderr == ""


def test_validate_oracle_failure_exits_5_with_one_line(toy_file, monkeypatch, capsys):
    # any failure of the oracle but a proof of infeasibility gives no verdict
    monkeypatch.setattr(analysis, "KKT_TARGET", -1.0)
    assert main(["validate", toy_file]) == 5
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("certification failure: OracleFailed: ")
    assert "check feasible" not in captured.out


def test_infinite_drift_lipschitz_estimate_exits_3(tmp_path, capsys):
    # ||A||^2 / alpha = 1e200 / 1e-300 overflows; no step size could fix it
    doc = {
        "n": 2, "m": 1, "p": 1,
        "H": {"diag": [1e-300, 1.0]}, "c": [0.0, 0.0],
        "A": [[1e100, 1.0]], "B": [[1.0]], "C": [0.5],
        "h": [{"breakpoints": [], "pieces": [{"p": 0.5, "q": 0.0, "r": 0.0}]}],
        "X": {"kind": "free"},
        "Omega": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
    }
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps(doc))
    message = "NonFiniteInput: drift Lipschitz estimate L = inf is not finite"
    assert main(["validate", str(path)]) == 3
    assert capsys.readouterr().err.splitlines() == [f"assumption failure: {message}"]
    _exits_3_without_output(path, message, tmp_path, capsys)


def _three_dim_doc():
    return {
        "n": 3, "m": 3, "p": 2,
        "H": [[2.0, 0.5, 0.0], [0.5, 2.0, 0.5], [0.0, 0.5, 2.0]], "c": [0.1, -0.2, 0.3],
        "A": [[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]],
        "B": [[1.0, 0.5, 0.0], [0.0, 1.0, 0.5]],
        "C": [0.2, -0.1],
        "h": [{"breakpoints": [0.0], "pieces": [{"p": 0.5, "q": -0.1, "r": 0.0},
                                               {"p": 0.5, "q": 0.1, "r": 0.0}]},
              {"breakpoints": [], "pieces": [{"p": 1.0, "q": 0.0, "r": 0.0}]},
              {"breakpoints": [], "pieces": [{"p": 0.75, "q": 0.0, "r": 0.0}]}],
        "X": {"kind": "free"},
        "Omega": {"kind": "box", "lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0, 1.0]},
    }


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("keys, value, json_path", [
    (("A", 0, 1), float("nan"), "$.A[0][1]"),
    (("B", 1, 0), float("nan"), "$.B[1][0]"),
    (("C", 0), float("inf"), "$.C[0]"),
    (("c", 2), float("nan"), "$.c[2]"),
    (("h", 0, "pieces", 1, "q"), float("nan"), "$.h[0].pieces[1].q"),
    (("H", 0, 0), float("nan"), "$.H[0][0]"),
    (("h", 0, "breakpoints", 0), float("nan"), "$.h[0].breakpoints[0]"),
    (("Omega", "hi", 1), float("-inf"), "$.Omega.hi[1]"),
    (("C", 1), 10**400, "$.C[1]"),   # an integer beyond the float range
])
def test_non_finite_number_exits_2_naming_its_path(command, keys, value, json_path,
                                                   tmp_path, capsys):
    doc = _three_dim_doc()
    clean = tmp_path / "clean.json"
    clean.write_text(json.dumps(doc))
    assert main(["validate", str(clean)]) == 0
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(doc))   # writes NaN / Infinity / -Infinity literals
    capsys.readouterr()
    argv = [command, str(path)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json_path in err[0]


def test_run_toy_converges(toy_file, tmp_path, capsys):
    out = tmp_path / "runout"
    assert main(["run", toy_file, "--out", str(out), "--t-end", "20"]) == 0
    text = capsys.readouterr().out
    assert "terminated_by = stop_tol" in text
    assert (out / "trajectory.csv").exists()
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,y_1,lambda_1,drift_norm"


def test_run_prints_plain_numbers(toy_file, tmp_path, capsys):
    # numpy 2 scalars would print as np.float64(...)
    assert main(["run", toy_file, "--out", str(tmp_path), "--t-end", "2", "--seed", "3"]) == 0
    lines = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines()
                 if " = " in line)
    assert set(lines) == {"samples", "t_final", "drift_final", "terminated_by"}
    assert int(lines["samples"]) > 1
    assert float(lines["t_final"]) > 0.0 and float(lines["drift_final"]) >= 0.0
    assert lines["terminated_by"] in {reason.value for reason in TerminationReason}


def test_run_initial_point_outside_omega_exits_4(tmp_path, capsys):
    # Omega = [1, 2] does not contain the default start y(0) = 0
    doc = {
        "n": 1, "m": 1, "p": 1,
        "H": {"diag": [1.0]}, "c": [0.0],
        "A": [[1.0]], "B": [[1.0]], "C": [1.5],
        "h": [{"breakpoints": [], "pieces": [{"p": 0.5, "q": 0.0, "r": 0.0}]}],
        "X": {"kind": "free"},
        "Omega": {"kind": "box", "lo": [1.0], "hi": [2.0]},
    }
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 4
    assert "InitialPointOutsideOmega" in capsys.readouterr().err


def test_run_diverging_multiplier_exits_4_without_integrating_to_t_end(tmp_path):
    # the box-X problem of test_diverging_multiplier_raises_non_finite_state:
    # lam leaves DATA_RANGE at the first step of a grid of 1e8 steps, which
    # used to run on for hours before the recorded lam was checked
    doc = {
        "n": 1, "m": 1, "p": 1,
        "H": {"diag": [1.0]}, "c": [0.0],
        "A": [[1.0]], "B": [[1.0]], "C": [0.5],
        "h": [{"breakpoints": [], "pieces": [{"p": 0.5, "q": 0.0, "r": 0.0}]}],
        "X": {"kind": "box", "lo": [-2.0], "hi": [2.0]},
        "Omega": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
    }
    path = tmp_path / "diverging.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "ppdgd.cli", "run", str(path), "--out", str(tmp_path / "out"),
         "--dt", "1e300", "--t-end", "1e308"],
        capture_output=True, text=True, timeout=5,
    )
    assert proc.returncode == 4
    assert proc.stderr.splitlines() == [
        "integration failure: NonFiniteState: recorded lam left [-1e+150, 1e+150] at t = 1e+300; "
        "dt*tau*L = 4e+300 with drift Lipschitz estimate L = 4; reduce dt"]
    assert not (tmp_path / "out").exists()


def test_run_seed_draws_start_inside_omega(tmp_path, capsys):
    # same shifted-box problem; with a seed the start is drawn inside Omega
    doc = {
        "n": 1, "m": 1, "p": 1,
        "H": {"diag": [1.0]}, "c": [0.0],
        "A": [[1.0]], "B": [[1.0]], "C": [1.5],
        "h": [{"breakpoints": [], "pieces": [{"p": 0.5, "q": 0.0, "r": 0.0}]}],
        "X": {"kind": "free"},
        "Omega": {"kind": "box", "lo": [1.0], "hi": [2.0]},
    }
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path), "--seed", "3"]) == 0


def test_run_deterministic_output(toy_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["run", toy_file, "--out", str(out), "--seed", "11",
                     "--t-end", "5"]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_certify_case_exits_0(case_file, tmp_path, capsys):
    out = tmp_path / "cert"
    code = main(["certify", case_file, "--out", str(out), "--t-end", "15",
                 "--record-every", "50"])
    assert code == 0
    text = capsys.readouterr().out
    assert "envelope_ok = True" in text
    assert "invariance_ok = True" in text
    report = json.loads((out / "report.json").read_text())
    assert report["envelope_ok"] is True
    assert (out / "envelope.csv").exists()


def test_casestudy_sweep_files(tmp_path, capsys, monkeypatch):
    from ppdgd import casestudy
    builds = []
    monkeypatch.setattr(casestudy, "build_case", lambda: builds.append(1) or build_case())
    out = tmp_path / "cs"
    code = main(["casestudy", "--tau", "1", "--tau", "2", "--out", str(out),
                 "--t-end", "12", "--record-every", "200"])
    assert code == 0
    assert len(builds) == 1   # one problem serves problem.json and every tau
    names = {p.name for p in out.iterdir()}
    assert {"problem.json", "trajectory_tau1.csv", "envelope_tau1.csv",
            "report_tau1.json", "trajectory_tau2.csv", "envelope_tau2.csv",
            "report_tau2.json"} <= names
    text = capsys.readouterr().out
    assert "tau = 1" in text and "tau = 2" in text
    # integration flags reach the sweep: 12 / (1e-3 * 200) strided samples + final
    rows = (out / "trajectory_tau1.csv").read_text().splitlines()
    assert len(rows) - 1 == 61
    assert rows[-1].startswith("12,") or rows[-1].startswith("12.0")


def test_casestudy_runs_the_oracle_once_per_sweep(tmp_path, monkeypatch):
    calls = []
    oracle = cli.equilibrium_oracle
    monkeypatch.setattr(cli, "equilibrium_oracle", lambda P: calls.append(1) or oracle(P))
    assert main(["casestudy", "--tau", "1", "--tau", "2", "--tau", "5", "--t-end", "5",
                 "--record-every", "500", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_envelope_series_runs_once_per_certified_run(case_file, tmp_path, monkeypatch):
    # the series certify_envelope checks is the one envelope.csv gets: one pass per tau
    calls = []
    series = analysis.envelope_series

    def spy(P, traj, eq):
        calls.append(traj.config.tau)
        return series(P, traj, eq)

    for owner in (analysis, cli):
        monkeypatch.setattr(owner, "envelope_series", spy)
    assert main(["casestudy", "--tau", "1", "--tau", "2", "--t-end", "5", "--record-every", "500",
                 "--out", str(tmp_path / "cs")]) == 0
    assert calls == [1.0, 2.0]
    calls.clear()
    assert main(["certify", case_file, "--t-end", "5", "--out", str(tmp_path / "cert")]) == 0
    assert calls == [1.0]


def test_casestudy_seed_matches_certify_on_its_problem(tmp_path):
    flags = ["--seed", "7", "--t-end", "5", "--record-every", "100"]
    cs_out, cert_out = tmp_path / "cs", tmp_path / "cert"
    assert main(["casestudy", "--tau", "1", *flags, "--out", str(cs_out)]) == 0
    assert main(["certify", str(cs_out / "problem.json"), *flags, "--out", str(cert_out)]) == 0
    for stem, ext in (("trajectory", "csv"), ("envelope", "csv"), ("report", "json")):
        assert (cs_out / f"{stem}_tau1.{ext}").read_bytes() == \
            (cert_out / f"{stem}.{ext}").read_bytes()
    # the seed moves the start away from y(0) = 0
    assert main(["casestudy", "--tau", "1", "--t-end", "5", "--record-every", "100",
                 "--out", str(tmp_path / "zero")]) == 0
    assert (tmp_path / "zero" / "trajectory_tau1.csv").read_bytes() != \
        (cs_out / "trajectory_tau1.csv").read_bytes()


@pytest.mark.parametrize("command", ["run", "certify", "casestudy"])
@pytest.mark.parametrize("error, code, label", [
    (RankDeficient, 3, "assumption failure"),
    (NonFiniteState, 4, "integration failure"),
    (OracleFailed, 5, "certification failure"),
])
def test_failure_classes_map_to_one_exit_code_table(command, error, code, label, case_file,
                                                    tmp_path, monkeypatch, capsys):
    def fail(*_args):
        raise error("boom")

    monkeypatch.setattr(cli, "integrate", fail)
    argv = [command] + ([case_file] if command != "casestudy" else [])
    assert main(argv + ["--out", str(tmp_path / "out")]) == code
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"{label}: {error.__name__}: boom"]
    assert captured.out == ""


def test_certify_oracle_failure_exits_5_without_output(toy_file, tmp_path, monkeypatch, capsys):
    def fail(_P):
        raise OracleFailed("no candidate met the KKT target")

    monkeypatch.setattr(cli, "equilibrium_oracle", fail)
    out = tmp_path / "out"
    assert main(["certify", toy_file, "--t-end", "1", "--out", str(out)]) == 5
    err = capsys.readouterr().err.splitlines()
    assert err == ["certification failure: OracleFailed: no candidate met the KKT target"]
    assert not out.exists()


def test_casestudy_failing_tau_keeps_its_files_and_exits_5(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "omega_invariant", lambda P, traj: False)
    out = tmp_path / "cs"
    assert main(["casestudy", "--tau", "1", "--tau", "2", "--t-end", "2",
                 "--record-every", "200", "--out", str(out)]) == 5
    assert {p.name for p in out.iterdir()} == {
        "problem.json", "trajectory_tau1.csv", "envelope_tau1.csv", "report_tau1.json",
        "trajectory_tau2.csv", "envelope_tau2.csv", "report_tau2.json"}
    captured = capsys.readouterr()
    assert "tau = 1:" in captured.out and "tau = 2:" in captured.out
    assert captured.err.splitlines() == [
        f"certification failure: tau = {tau}: envelope_ok = True, invariance_ok = False"
        for tau in (1, 2)]


@pytest.mark.parametrize("argv", [
    ["run", "CASE", "--dt", "nan"],
    ["run", "CASE", "--dt", "inf"],
    ["run", "CASE", "--t-end", "inf"],
    ["run", "CASE", "--record-every", "0"],
    ["run", "CASE", "--tau", "-1"],
    ["run", "CASE", "--stop-tol", "nan"],
    ["certify", "CASE", "--dt", "nan"],
    ["casestudy", "--tau", "1", "--tau", "nan"],
    # t_end / dt overflows, or (dt * tau)^2 underflows: no grid to integrate on
    ["certify", "CASE", "--dt", "5e-324"],
    ["casestudy", "--dt", "1e-300", "--t-end", "1e10"],
    ["certify", "CASE", "--dt", "1e-170", "--t-end", "1e-168"],
    ["certify", "CASE", "--dt", "1e200", "--tau", "1e200"],
    # t_end / dt <= 1e-12: the grid has no step, and y(0) alone certifies nothing
    ["certify", "CASE", "--dt", "1e14"],
    ["certify", "CASE", "--dt", "1e300"],
    # argparse's own rejections end in the same single line
    ["certify", "CASE", "--dt", "abc"],
    ["run", "CASE", "--seed", "-1"],
])
def test_rejected_integrator_flag_exits_2_before_any_output(argv, case_file, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [case_file if a == "CASE" else a for a in argv] + ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("parse error: ")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("taus, clash", [
    (["1", "1"], ("1", "1")),
    (["1", "1.0000001"], ("1", "1.0000001")),   # both print as 1 under :g
    (["2", "5", "2.0"], ("2", "2.0")),
])
def test_casestudy_rejects_taus_that_share_a_file_tag(taus, clash, tmp_path, capsys):
    # each tau writes trajectory, envelope and report files tagged _tau{tau:g}: a
    # second tau with the same tag would overwrite the first one's files
    out = tmp_path / "out"
    argv = ["casestudy", *(a for tau in taus for a in ("--tau", tau)), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not out.exists()
    first, second = (repr(float(tau)) for tau in clash)
    assert captured.err.splitlines() == [
        f"parse error: InvalidConfig: --tau {first} and --tau {second} would both write "
        f"the files tagged _tau{float(second):g}"]


def test_case_study_step_sizes_report_dt_tau_l_only_on_failure(case_file, tmp_path, capsys):
    # the step-size warning used to add two stderr lines to both runs
    assert main(["certify", case_file, "--dt", "0.5", "--t-end", "3",
                 "--out", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().err == ""
    assert main(["certify", case_file, "--dt", "3", "--t-end", "3000",
                 "--out", str(tmp_path / "b")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("integration failure: NonFiniteState: ")
    assert "dt*tau*L = 15.3 " in err[0]
    assert not (tmp_path / "b").exists()


def test_a_missing_file_is_an_io_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("i/o error: ")


def test_every_error_class_carries_an_exit_code_and_a_label():
    labels = {2: "parse error", 3: "assumption failure", 4: "integration failure",
              5: "certification failure"}
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, PpdgdError) and c is not PpdgdError]
    assert len(classes) == 18   # four categories and every concrete class
    for cls in classes:
        assert labels[cls.exit_code] == cls.label, cls


def test_certify_huge_hessian_ends_with_one_error_line(tmp_path):
    # 0.5 * (H + H.T) used to overflow here: validate printed alpha = nan and
    # certify hung in a least-squares solve
    doc = {
        "n": 2, "m": 2, "p": 1,
        "H": {"diag": [1e308, 1e308]}, "c": [0.0, 0.0],
        "A": [[1.0, 1.0]], "B": [[1.0, -1.0]], "C": [0.2],
        "h": [{"breakpoints": [], "pieces": [{"p": 0.5, "q": 0.0, "r": 0.0}]}] * 2,
        "X": {"kind": "free"},
        "Omega": {"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "ppdgd.cli", "certify", str(path), "--out", str(tmp_path / "out"),
         "--t-end", "5"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode in (3, 5)
    err = proc.stderr.splitlines()
    assert len(err) == 1 and "Traceback" not in proc.stderr
