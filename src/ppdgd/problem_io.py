"""Problem files: UTF-8 JSON with the schema

    {"n": int, "m": int, "p": int,
     "H": [[...], ...] row-major, or {"diag": [...]},
     "c": [...], "d": number (optional, 0 if absent),
     "A": [[...], ...], "B": [[...], ...], "C": [...],
     "h": [{"breakpoints": [...], "pieces": [{"p":, "q":, "r":}, ...]}, ...],
     "X": {"kind": "free"} or {"kind": "box", "lo": [...], "hi": [...]},
     "Omega": {"kind": "box", "lo": [...], "hi": [...]}}

Structural errors, non-finite numbers (NaN, Infinity) included, raise
ProblemFormatError citing the JSON path of the offending value; semantic
violations surface as the model's build errors.
"""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

from .errors import ProblemFormatError
from .model import (
    BoxSet,
    PiecewiseScalarFn,
    Problem,
    QuadraticSmoothFn,
    build_problem,
)


def _get(obj, key, path):
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"{path}: expected object")
    if key not in obj:
        raise ProblemFormatError(f"{path}.{key}: missing")
    return obj[key]


def _number(v, path) -> float:
    if not isinstance(v, numbers.Real) or isinstance(v, bool):
        raise ProblemFormatError(f"{path}: expected number, got {type(v).__name__}")
    try:
        x = float(v)
    except OverflowError:   # an integer literal beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ProblemFormatError(f"{path}: expected a finite number, got {x}")
    return x


def _integer(v, path) -> int:
    if not isinstance(v, numbers.Integral) or isinstance(v, bool):
        raise ProblemFormatError(f"{path}: expected integer, got {type(v).__name__}")
    return int(v)


def _vector(v, length, path) -> np.ndarray:
    if not isinstance(v, list):
        raise ProblemFormatError(f"{path}: expected array")
    if len(v) != length:
        raise ProblemFormatError(f"{path}: expected length {length}, got {len(v)}")
    return np.array([_number(e, f"{path}[{i}]") for i, e in enumerate(v)])

def _matrix(v, rows, cols, path) -> np.ndarray:
    if not isinstance(v, list):
        raise ProblemFormatError(f"{path}: expected array of rows")
    if len(v) != rows:
        raise ProblemFormatError(f"{path}: expected {rows} rows, got {len(v)}")
    return np.stack([_vector(r, cols, f"{path}[{i}]") for i, r in enumerate(v)])


def _hessian(v, n, path) -> np.ndarray:
    if isinstance(v, dict):
        return np.diag(_vector(_get(v, "diag", path), n, f"{path}.diag"))
    return _matrix(v, n, n, path)


def _box_set(v, dim, path, allow_free) -> BoxSet:
    kind = _get(v, "kind", path)
    if kind == "free":
        if not allow_free:
            raise ProblemFormatError(f"{path}.kind: 'free' is not allowed here")
        return BoxSet.free(dim)
    if kind != "box":
        raise ProblemFormatError(f"{path}.kind: expected 'free' or 'box', got {kind!r}")
    lo = _vector(_get(v, "lo", path), dim, f"{path}.lo")
    hi = _vector(_get(v, "hi", path), dim, f"{path}.hi")
    return BoxSet.box(lo, hi)


def _piecewise(v, path) -> PiecewiseScalarFn:
    bp_raw = _get(v, "breakpoints", path)
    if not isinstance(bp_raw, list):
        raise ProblemFormatError(f"{path}.breakpoints: expected array")
    bp = np.array([_number(b, f"{path}.breakpoints[{i}]") for i, b in enumerate(bp_raw)])
    pieces_raw = _get(v, "pieces", path)
    if not isinstance(pieces_raw, list):
        raise ProblemFormatError(f"{path}.pieces: expected array")
    if len(pieces_raw) != len(bp) + 1:
        raise ProblemFormatError(
            f"{path}.pieces: expected {len(bp) + 1} pieces for {len(bp)} breakpoints, "
            f"got {len(pieces_raw)}"
        )
    coeffs = np.array([
        [
            _number(_get(piece, "p", f"{path}.pieces[{i}]"), f"{path}.pieces[{i}].p"),
            _number(_get(piece, "q", f"{path}.pieces[{i}]"), f"{path}.pieces[{i}].q"),
            _number(_get(piece, "r", f"{path}.pieces[{i}]"), f"{path}.pieces[{i}].r"),
        ]
        for i, piece in enumerate(pieces_raw)
    ])
    return PiecewiseScalarFn(bp, coeffs)


def problem_from_dict(doc: dict) -> Problem:
    root = "$"
    n = _integer(_get(doc, "n", root), "$.n")
    m = _integer(_get(doc, "m", root), "$.m")
    p = _integer(_get(doc, "p", root), "$.p")
    if min(n, m, p) < 1:
        raise ProblemFormatError("$.n/$.m/$.p: dimensions must be >= 1")
    H = _hessian(_get(doc, "H", root), n, "$.H")
    c = _vector(_get(doc, "c", root), n, "$.c")
    d = _number(doc["d"], "$.d") if "d" in doc else 0.0
    A = _matrix(_get(doc, "A", root), p, n, "$.A")
    B = _matrix(_get(doc, "B", root), p, m, "$.B")
    C = _vector(_get(doc, "C", root), p, "$.C")
    h_raw = _get(doc, "h", root)
    if not isinstance(h_raw, list):
        raise ProblemFormatError("$.h: expected array")
    if len(h_raw) != m:
        raise ProblemFormatError(f"$.h: expected {m} components, got {len(h_raw)}")
    h = [_piecewise(v, f"$.h[{j}]") for j, v in enumerate(h_raw)]
    X = _box_set(_get(doc, "X", root), n, "$.X", allow_free=True)
    Omega = _box_set(_get(doc, "Omega", root), m, "$.Omega", allow_free=False)
    return build_problem(QuadraticSmoothFn(H, c, d), h, A, B, C, X, Omega)


def load_problem(path) -> Problem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:   # also bad UTF-8, too long an int, too deep
            raise ProblemFormatError(f"$: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ProblemFormatError("$: expected top-level object")
    return problem_from_dict(doc)


def problem_to_dict(P: Problem) -> dict:
    if P.f.is_diagonal:
        H = {"diag": np.diagonal(P.f.H).tolist()}
    else:
        H = P.f.H.tolist()
    if P.X.is_free:
        X = {"kind": "free"}
    else:
        X = {"kind": "box", "lo": P.X.lo.tolist(), "hi": P.X.hi.tolist()}
    return {
        "n": P.n, "m": P.m, "p": P.p,
        "H": H,
        "c": P.f.c.tolist(),
        "d": float(P.f.d),
        "A": P.A.tolist(),
        "B": P.B.tolist(),
        "C": P.C.tolist(),
        "h": [
            {
                "breakpoints": fj.breakpoints.tolist(),
                "pieces": [
                    {"p": pc[0], "q": pc[1], "r": pc[2]} for pc in fj.coeffs.tolist()
                ],
            }
            for fj in P.h
        ],
        "X": X,
        "Omega": {"kind": "box", "lo": P.Omega.lo.tolist(), "hi": P.Omega.hi.tolist()},
    }


def dump_problem(P: Problem, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_dict(P), fh, indent=2)
        fh.write("\n")
