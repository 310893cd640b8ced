import json

import numpy as np
import pytest

from bidisklab import serialize
from bidisklab.inner import (UnstableDenominatorError, builtin, require_inner,
                              verify_inner_exact)
from bidisklab.modelspace import rank_sweep
from bidisklab.polynomials import BiPoly, reflect
from bidisklab.taylor import expand


def test_poly_roundtrip():
    p = BiPoly.from_terms([(0, 0, 2), (1, 0, -1 + 0.5j), (0, 3, 0.25j)])
    q = serialize.poly_from_terms(serialize.poly_to_terms(p))
    assert (p - q).is_zero


def test_theta_roundtrip_preserves_innerness():
    for name in ("hadamard_deg21", "scalar_favorite"):
        th = builtin(name)
        back = serialize.theta_from_json(serialize.theta_to_json(th))
        assert back.d == th.d
        assert back.label == th.label
        assert verify_inner_exact(back).passed
        assert (back.p - th.p).is_zero


def test_theta_loading_does_not_validate():
    data = {"d": 1, "p": [{"a": 0, "b": 0, "re": 1.0, "im": 0.0}],
            "Q": [[[{"a": 0, "b": 0, "re": 2.0, "im": 0.0}]]], "label": "x"}
    th = serialize.theta_from_json(data)
    assert not verify_inner_exact(th).passed


def test_theta_loading_rejects_unstable_denominator():
    # decoding only decodes; the gate rejects the candidate it returns
    p = BiPoly.from_terms([(0, 0, 1), (1, 0, -2), (0, 1, 0.1)])
    data = {"d": 1, "p": serialize.poly_to_terms(p),
            "Q": [[serialize.poly_to_terms(reflect(p, 1, 1))]], "label": "unstable"}
    th = serialize.theta_from_json(data)
    assert th.label == "unstable" and (th.p - p).is_zero
    check = verify_inner_exact(th)
    assert not check.passed and check.reason == "UNSTABLE_DENOMINATOR"
    with pytest.raises(UnstableDenominatorError):
        require_inner(th)


def test_taylor_roundtrip_reproduces_operators(tmp_path):
    th = builtin("hadamard_z1z2")
    table = expand(th, 5, 5)
    path = serialize.save_json(serialize.taylor_to_json(table), tmp_path / "t.json")
    back = serialize.taylor_from_json(serialize.load_json(path))
    assert (back.d, back.A, back.B) == (table.d, table.A, table.B)
    assert np.array_equal(back.coeffs, table.coeffs)
    assert back.finite_support == table.finite_support
    assert back.tail_norm == table.tail_norm


def test_rank_report_roundtrip():
    report = rank_sweep(builtin("scalar_z1z2"), [(3, 3), (5, 5), (7, 7)])
    data = serialize.rank_report_to_json(report)
    assert data["verdict"] == "STABLE"
    assert data["stabilized_rank"] == 1
    back = serialize.rank_report_from_json(json.loads(json.dumps(data)))
    assert back.verdict is report.verdict
    assert back.stabilized_rank == report.stabilized_rank
    assert [lv.rank for lv in back.levels] == [lv.rank for lv in report.levels]


def test_agler_summary_schema():
    data = serialize.agler_summary_to_json(1, 2, (2, 1), 3e-9)
    assert set(data) == {"dim_hkmax1", "dim_hkmin2", "det_deg", "residual",
                         "dims_match"}
    assert data["dims_match"] is True
    data2 = serialize.agler_summary_to_json(2, 2, (2, 1), None)
    assert data2["dims_match"] is False
