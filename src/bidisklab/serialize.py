"""JSON encodings for polynomials, inner functions, tables, and reports.

The polynomial interchange format is a list of term objects
``{"a": int, "b": int, "re": float, "im": float}`` with omitted terms
zero; matrices of polynomials are nested lists of such term lists.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .inner import RationalInnerMatrix
from .modelspace import RankLevel, RankReport, SweepVerdict
from .polynomials import BiPoly, MatPoly
from .taylor import TaylorTable


def poly_to_terms(p: BiPoly) -> list[dict]:
    return [{"a": a, "b": b, "re": float(v.real), "im": float(v.imag)}
            for a, b, v in p.terms()]


def _number(value, what: str, integer: bool = False):
    """`value` if it is a JSON integer (or any JSON number, unless `integer`);
    a bool or a string is not one."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ValueError(f"{what} must be {'an integer' if integer else 'a real number'}, "
                         f"not {value!r}")
    return value


def poly_from_terms(terms) -> BiPoly:
    return BiPoly.from_terms(
        (_number(t["a"], "exponent", True), _number(t["b"], "exponent", True),
         _number(t.get("re", 0.0), "coefficient") + 1j * _number(t.get("im", 0.0), "coefficient"))
        for t in terms)


def theta_to_json(theta: RationalInnerMatrix) -> dict:
    return {
        "d": theta.d,
        "p": poly_to_terms(theta.p),
        "Q": [[poly_to_terms(theta.Q[i, j]) for j in range(theta.d)]
              for i in range(theta.d)],
        "label": theta.label,
    }


def theta_from_json(data: dict) -> RationalInnerMatrix:
    """Decode an inner-function candidate; innerness is NOT validated here.

    Only the shape, an integer d, Q as d lists of d term lists, integer
    exponents, real coefficients and p(0, 0) != 0 are checked; ``inner.require_inner``
    admits the candidate before any model-space computation trusts it.
    """
    d = _number(data["d"], "d", True)
    rows = data["Q"]
    if not (isinstance(rows, list) and len(rows) == d and all(
            isinstance(row, list) and len(row) == d
            and all(isinstance(entry, list) for entry in row) for row in rows)):
        raise ValueError(f"Q must be a {d} x {d} list of term lists")
    p = poly_from_terms(data.get("p", [{"a": 0, "b": 0, "re": 1.0}]))
    Q = MatPoly([[poly_from_terms(entry) for entry in row] for row in rows])
    return RationalInnerMatrix(d, Q, p, data.get("label", ""))


def taylor_to_json(table: TaylorTable) -> dict:
    coeffs = np.stack([table.coeffs.real, table.coeffs.imag], axis=-1)
    return {
        "d": table.d,
        "A": table.A,
        "B": table.B,
        "tail_norm": table.tail_norm,
        "finite_support": table.finite_support,
        "coeffs": coeffs.tolist(),
    }


def taylor_from_json(data: dict) -> TaylorTable:
    raw = np.asarray(data["coeffs"], dtype=float)
    coeffs = raw[..., 0] + 1j * raw[..., 1]
    return TaylorTable(int(data["d"]), int(data["A"]), int(data["B"]),
                       coeffs, float(data["tail_norm"]),
                       bool(data["finite_support"]))


def rank_report_to_json(report: RankReport) -> dict:
    return {
        "label": report.label,
        "deg": list(report.deg),
        "det_deg": list(report.det_deg),
        "levels": [
            {"A": lv.A, "B": lv.B, "dim_model": lv.dim_model,
             "sigmas": [float(s) for s in lv.sigmas], "rank": lv.rank}
            for lv in report.levels
        ],
        "stabilized_rank": report.stabilized_rank,
        "verdict": report.verdict.value,
        "warnings": list(report.warnings),
    }


def rank_report_from_json(data: dict) -> RankReport:
    levels = tuple(
        RankLevel(int(lv["A"]), int(lv["B"]), int(lv["dim_model"]),
                  np.asarray(lv["sigmas"], dtype=float), int(lv["rank"]))
        for lv in data["levels"])
    stab = data.get("stabilized_rank")
    return RankReport(data.get("label", ""), tuple(data["deg"]),
                      tuple(data["det_deg"]), levels,
                      None if stab is None else int(stab),
                      SweepVerdict(data["verdict"]),
                      tuple(data.get("warnings", [])))


def conjecture_record_to_json(record) -> dict:
    return {
        "label": record.label,
        "deg": list(record.deg),
        "det_deg": list(record.det_deg),
        "predicted_rank": ("INFINITE" if record.predicted_rank is None
                           else record.predicted_rank),
        "verdict": record.verdict,
        "warnings": list(record.warnings),
        "report": rank_report_to_json(record.report),
    }


def agler_summary_to_json(dim_hkmax1: int, dim_hkmin2: int,
                          det_deg: tuple[int, int],
                          residual: float | None) -> dict:
    return {
        "dim_hkmax1": dim_hkmax1,
        "dim_hkmin2": dim_hkmin2,
        "det_deg": list(det_deg),
        "residual": residual,
        "dims_match": (dim_hkmax1, dim_hkmin2) == (det_deg[1], det_deg[0]),
    }


def save_json(payload: dict, path) -> Path:
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    return path


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
