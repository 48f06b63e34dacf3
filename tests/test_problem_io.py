import json

import numpy as np
import pytest

from ppdgd import (
    ProblemFormatError,
    RankDeficient,
    dump_problem,
    load_problem,
    problem_from_dict,
    problem_to_dict,
)


def minimal_doc():
    return {
        "n": 2, "m": 2, "p": 1,
        "H": {"diag": [1.0, 2.0]},
        "c": [0.0, 0.0],
        "A": [[1.0, 1.0]],
        "B": [[1.0, -1.0]],
        "C": [0.5],
        "h": [
            {"breakpoints": [], "pieces": [{"p": 0.5, "q": 0.0, "r": 0.0}]},
            {"breakpoints": [0.0], "pieces": [
                {"p": 0.5, "q": 0.0, "r": 0.0},
                {"p": 1.0, "q": 0.0, "r": 0.0},
            ]},
        ],
        "X": {"kind": "free"},
        "Omega": {"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
    }


def test_load_round_trip(tmp_path):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(minimal_doc()))
    P = load_problem(path)
    assert P.n == 2 and P.m == 2 and P.p == 1
    assert P.X.is_free
    assert P.kappa1 == pytest.approx(2.0)
    out = tmp_path / "copy.json"
    dump_problem(P, out)
    P2 = load_problem(out)
    assert np.array_equal(P2.A, P.A)
    assert np.array_equal(P2.hpack.bp, P.hpack.bp)
    assert P2.gamma == P.gamma


def test_dense_and_diagonal_hessian_forms():
    doc = minimal_doc()
    doc["H"] = [[1.0, 0.0], [0.0, 2.0]]
    P = problem_from_dict(doc)
    assert P.alpha == 1.0 and P.alpha_m == 2.0
    rebuilt = problem_to_dict(P)
    assert rebuilt["H"] == {"diag": [1.0, 2.0]}  # diagonal form preferred


def test_error_cites_path_of_bad_number():
    doc = minimal_doc()
    doc["h"][1]["pieces"][0]["p"] = "not a number"
    with pytest.raises(ProblemFormatError, match=r"\$\.h\[1\]\.pieces\[0\]\.p"):
        problem_from_dict(doc)


def test_error_cites_path_of_wrong_row_length():
    doc = minimal_doc()
    doc["A"] = [[1.0]]
    with pytest.raises(ProblemFormatError, match=r"\$\.A\[0\]"):
        problem_from_dict(doc)


def test_error_on_missing_field():
    doc = minimal_doc()
    del doc["Omega"]
    with pytest.raises(ProblemFormatError, match=r"\$\.Omega"):
        problem_from_dict(doc)


def test_error_on_free_omega():
    doc = minimal_doc()
    doc["Omega"] = {"kind": "free"}
    with pytest.raises(ProblemFormatError, match=r"\$\.Omega\.kind"):
        problem_from_dict(doc)


def test_error_on_piece_count_mismatch():
    doc = minimal_doc()
    doc["h"][0]["pieces"] = []
    with pytest.raises(ProblemFormatError, match=r"\$\.h\[0\]\.pieces"):
        problem_from_dict(doc)


def test_invalid_json_reports_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ProblemFormatError, match="invalid JSON"):
        load_problem(path)


def test_semantic_errors_pass_through():
    doc = minimal_doc()
    doc["n"] = 2
    doc["p"] = 2
    doc["A"] = [[1.0, 0.0], [2.0, 0.0]]  # rank deficient
    doc["B"] = [[1.0, -1.0], [0.0, 1.0]]
    doc["C"] = [0.0, 0.0]
    with pytest.raises(RankDeficient):
        problem_from_dict(doc)
