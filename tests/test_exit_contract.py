"""Exit-code contract of `ppdgd certify` and `ppdgd validate` on mutated problem files.

Every certify run ends with an exit code in {0, 2, 3, 4, 5} and no
traceback. Exit 0 prints nothing on stderr and exits 2-4 print exactly one
line. Exit 5 prints one line, or none after its `envelope_ok = ` report line
(a failed envelope or invariance check). validate, which runs the oracle but
does not integrate, ends with 0, 2, 3 or 5, and every exit but 0 prints
exactly one stderr line.
"""

import contextlib
import copy
import functools
import io
import json
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import ppdgd
from ppdgd import equilibrium_oracle, kkt_residual
from ppdgd.cli import main
from ppdgd.problem_io import load_problem

# the README example with a box X
BASE = {
    "n": 2, "m": 2, "p": 1,
    "H": {"diag": [1.0, 2.0]},
    "c": [0.0, 0.0],
    "A": [[1.0, 1.0]],
    "B": [[1.0, -1.0]],
    "C": [0.5],
    "h": [
        {"breakpoints": [], "pieces": [{"p": 0.5, "q": 0.0, "r": 0.0}]},
        {"breakpoints": [0.2], "pieces": [{"p": 0.5, "q": 0.0, "r": 0.0},
                                           {"p": 1.0, "q": -0.2, "r": 0.02}]},
    ],
    "X": {"kind": "box", "lo": [-2.0, -2.0], "hi": [2.0, 2.0]},
    "Omega": {"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
}
MAX_STEPS = 1e4   # a longer grid is a long run, not a fault

NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
    st.builds(lambda sign, exp: float(f"{sign}1e{exp}"),
              st.sampled_from(["", "-"]), st.integers(-320, 308)),
    st.floats(-3.0, 3.0),
)
WRONG_TYPES = st.sampled_from(["x", None, True, [], {}, [1.0], {"kind": "box"}, 3])


def _paths(node, path=()):
    """Paths of every value below node, as tuples of keys and indices."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutated_docs(draw, kinds=("number", "number", "type", "drop", "nest")):
    doc = copy.deepcopy(BASE)
    for _ in range(draw(st.integers(0, 3))):
        *head, key = draw(st.sampled_from(list(_paths(doc))))
        parent = functools.reduce(operator.getitem, head, doc)
        kind = draw(st.sampled_from(kinds))
        if kind == "number":
            parent[key] = draw(NUMBERS)
        elif kind == "type":   # a copy: a later mutation must not change WRONG_TYPES
            parent[key] = copy.deepcopy(draw(WRONG_TYPES))
        elif kind == "drop":   # a missing key, or a list one entry short
            del parent[key]
        else:                  # a value one level too deep
            parent[key] = [parent[key], copy.deepcopy(parent[key])]
    return doc


# usable flag values, and values that are odd or rejected; a run draws at
# most one flag from ODD, so most runs get past the flags to the file
USUAL = {"dt": [1e-3, 5e-3, 0.05, 0.5, 3.0, 1e300], "t-end": [0.5, 5.0, 1e10, 1e308],
         "tau": [1.0, 2.0, 0.5], "stop-tol": [1e-8, 0.0, 1e-3],
         "record-every": [1, 10, 1000], "seed": [None, 0, 7]}
ODD = {"dt": st.one_of(st.sampled_from([5e-324, 1e-170, 0.0, -1e-3, math.inf]), NUMBERS),
       "t-end": st.sampled_from([1e-168, 0.0, -1.0, math.nan, math.inf]),
       "tau": st.sampled_from([1e300, 1e-300, 0.0, math.nan]),
       "stop-tol": st.sampled_from([-1.0, math.nan, math.inf]),
       "record-every": st.sampled_from([0, -3, 10**30]),
       "seed": st.just(-1)}


@st.composite
def flags(draw):
    values = {name: draw(st.sampled_from(usual)) for name, usual in USUAL.items()}
    odd = draw(st.sampled_from([None] * 12 + list(ODD)))
    if odd is not None:
        values[odd] = draw(ODD[odd])
    dt, t_end = values["dt"], values["t-end"]
    if dt > 0 and math.isfinite(t_end / dt) and t_end / dt > MAX_STEPS:
        values["t-end"] = MAX_STEPS * dt
    # --flag=value, so that a negative value is not read as a flag
    return [f"--{name}={value!r}" for name, value in values.items() if value is not None]


def certify_keeps_the_exit_contract(doc, argv, tmp_path: Path):
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(doc))   # writes NaN / Infinity / -Infinity literals
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(ppdgd.__file__).parents[1])] + env.get("PYTHONPATH", "").split(os.pathsep))
    proc = subprocess.run(
        [sys.executable, "-m", "ppdgd.cli", "certify", str(path), *argv,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=env)
    err = proc.stderr.splitlines()
    case = f"file {json.dumps(doc)}, flags {argv}: exit {proc.returncode}, stderr {err}"
    assert "Traceback" not in proc.stderr, case
    assert proc.returncode in (0, 2, 3, 4, 5), case
    if proc.returncode == 0:
        assert err == [], case
    elif proc.returncode == 5:
        assert len(err) == 1 or (err == [] and "envelope_ok = " in proc.stdout), case
    else:
        assert len(err) == 1, case


@settings(max_examples=50, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate], suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_docs(), argv=flags())
def test_certify_keeps_the_exit_contract_on_mutants(doc, argv, tmp_path_factory):
    certify_keeps_the_exit_contract(doc, argv, tmp_path_factory.mktemp("mutant"))


def validate_in_process(doc, tmp_path: Path):
    """(exit code, stdout, stderr lines) of `ppdgd validate` on doc, run through cli.main."""
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", str(path)])
    return code, out.getvalue(), err.getvalue().splitlines()


# in process, so cheap: more examples, half of them with only numbers changed,
# which reach the oracle more often
@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          phases=[Phase.generate], suppress_health_check=[HealthCheck.too_slow])
@given(doc=st.one_of(mutated_docs(), mutated_docs(kinds=("number",))))
def test_validate_keeps_the_exit_contract_on_mutants(doc, tmp_path_factory):
    code, _, err = validate_in_process(doc, tmp_path_factory.mktemp("mutant"))
    case = f"file {json.dumps(doc)}: exit {code}, stderr {err}"
    assert code in (0, 2, 3, 5), case
    assert len(err) == (0 if code == 0 else 1), case


def test_validate_solves_the_mutant_with_curvature_1e114(tmp_path):
    # the KKT matrix of this equilibrium has singular values from about 1 to
    # 2e114: an exact solve meets the KKT target, a least-squares solve that
    # drops the small ones gives x = lam = 0 with r_eq = 0.5
    doc = copy.deepcopy(BASE)
    doc["h"][0]["pieces"][0]["p"] = 1e114
    code, out, err = validate_in_process(doc, tmp_path)
    assert (code, err) == (0, [])
    assert out.splitlines()[-1] == "check feasible: pass"
    P = load_problem(tmp_path / "mutant.json")
    x, y, lam = equilibrium_oracle(P)
    assert np.allclose(x, [0.2, 0.1], rtol=1e-14, atol=0.0)
    assert np.allclose(y, [1e-115, -0.2], rtol=1e-14, atol=0.0)
    assert np.allclose(lam, [-0.2], rtol=1e-14, atol=0.0)
    assert kkt_residual(P, x, y, lam).total <= 1e-15
