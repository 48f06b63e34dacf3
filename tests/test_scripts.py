import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

SUITE = Path(__file__).resolve().parents[1] / "scripts" / "random_stability_suite.py"


def _run_suite(*flags):
    return subprocess.run([sys.executable, str(SUITE), *flags], capture_output=True,
                          text=True, timeout=120, env=subprocess_env())


@pytest.mark.parametrize("count", ["0", "-3"])
def test_stability_suite_rejects_a_count_below_one(count):
    # a campaign of no instance used to print "instances: 0" and exit 0
    proc = _run_suite("--count", count)
    assert proc.returncode == 2
    assert f"--count must be at least 1, got {count}" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("flags, message", [
    (["--dt", "0"], "--dt 0.0: dt, tau and t_end must be positive"),
    (["--dt", "nan"], "--dt nan: dt, tau, t_end and stop_tol must be finite"),
    (["--dt", "1e30"], "--dt 1e+30: t_end / dt = 6e-29 takes no step"),
    (["--seed", "-1"], "--seed must be at least 0, got -1"),
])
def test_stability_suite_rejects_a_bad_dt_or_seed(flags, message):
    # these ended in a traceback (InvalidConfig, numpy's ValueError) and exit 1,
    # the code of a failing instance
    proc = _run_suite("--count", "1", *flags)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
