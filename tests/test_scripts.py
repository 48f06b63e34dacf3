import os
import subprocess
import sys
from pathlib import Path

import pytest

import ppdgd

SUITE = Path(__file__).resolve().parents[1] / "scripts" / "random_stability_suite.py"


@pytest.mark.parametrize("count", ["0", "-3"])
def test_stability_suite_rejects_a_count_below_one(count):
    # a campaign of no instance used to print "instances: 0" and exit 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(ppdgd.__file__).parents[1])] + env.get("PYTHONPATH", "").split(os.pathsep))
    proc = subprocess.run([sys.executable, str(SUITE), "--count", count],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 2
    assert f"--count must be at least 1, got {count}" in proc.stderr
    assert proc.stdout == ""
