import json

import numpy as np
import pytest

from ppdgd import (
    ProblemFormatError,
    RankDeficient,
    build_case,
    dump_problem,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    solve_inner,
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


def dense_box_doc():
    doc = minimal_doc()
    doc["H"] = [[2.0, 0.5], [0.5, 1.0]]
    doc["X"] = {"kind": "box", "lo": [-1.0, -2.0], "hi": [1.0, 0.5]}
    return doc


@pytest.mark.parametrize("doc", [minimal_doc(), dense_box_doc()], ids=["diag_free", "dense_box"])
def test_load_round_trip(doc, tmp_path):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    P = load_problem(path)
    assert P.n == 2 and P.m == 2 and P.p == 1
    assert P.X.is_free == (doc["X"]["kind"] == "free")
    assert P.kappa1 == pytest.approx(2.0)
    out = tmp_path / "copy.json"
    dump_problem(P, out)
    assert json.loads(out.read_text()) == {**doc, "d": 0.0}   # a file without "d" has d = 0
    P2 = load_problem(out)
    assert np.array_equal(P2.A, P.A)
    assert np.array_equal(P2.hpack.bp, P.hpack.bp)
    assert P2.gamma == P.gamma


def test_constant_of_f_round_trips(tmp_path):
    # the case study's f = (a/2)||U - 1||^2 has d = a n / 2 = 28, which phi carries
    P = build_case()
    path = tmp_path / "case.json"
    dump_problem(P, path)
    assert json.loads(path.read_text())["d"] == 28.0
    Q = load_problem(path)
    assert Q.f.d == P.f.d
    assert solve_inner(Q, np.zeros(Q.p)).phi == solve_inner(P, np.zeros(P.p)).phi


def test_missing_constant_of_f_reads_as_zero_and_a_bad_one_is_cited():
    doc = minimal_doc()
    assert "d" not in doc and problem_from_dict(doc).f.d == 0.0
    assert problem_from_dict({**doc, "d": -2.5}).f.d == -2.5
    for bad in ("2", None, True, float("nan")):
        with pytest.raises(ProblemFormatError, match=r"^\$\.d: expected "):
            problem_from_dict({**doc, "d": bad})


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


@pytest.mark.parametrize("raw", [
    b"{not json",
    b"\xff\xfe{}",                      # not UTF-8: used to raise UnicodeDecodeError
    b'{"n": ' + b"1" * 5000 + b"}",      # beyond int's digit limit: used to raise ValueError
    b"[" * 100000 + b"]" * 100000,        # too deep: used to raise RecursionError
], ids=["syntax", "encoding", "long_integer", "deep"])
def test_invalid_json_reports_parse_error(raw, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
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
