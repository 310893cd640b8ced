import csv
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bidisklab.experiments import (
    BatchScreeningError,
    CONSISTENT,
    INCONCLUSIVE,
    VIOLATION_CANDIDATE,
    conjecture_report,
    generate_family,
    run_batch,
)
from bidisklab.inner import RationalInnerMatrix, builtin, verify_inner_exact
from bidisklab.modelspace import RankReport, SweepVerdict
from bidisklab.polynomials import BiPoly, MatPoly, reflect

SCHED = [(4, 4), (6, 6), (8, 8)]


def test_builtin_reports_consistent():
    for name in ("hadamard_z1z2", "diag_z1z2_1"):
        rec = conjecture_report(builtin(name), SCHED)
        assert rec.predicted_rank == 1
        assert rec.report.stabilized_rank == 1
        assert rec.verdict == CONSISTENT, name


def test_divergent_high_degree_is_consistent():
    rec = conjecture_report(builtin("hadamard_deg21"), SCHED)
    assert rec.predicted_rank is None
    assert rec.verdict == CONSISTENT


def test_boundary_singular_never_upgrades():
    rec = conjecture_report(builtin("scalar_favorite"),
                            [(8, 8), (11, 11), (14, 14)])
    assert "SLOW_TAYLOR_DECAY" in rec.warnings
    assert rec.verdict != VIOLATION_CANDIDATE
    if rec.verdict == CONSISTENT:
        assert rec.report.stabilized_rank == 1


def test_generic_product_exposes_violation_candidates():
    # Misaligned one-variable products genuinely break the rank-degree
    # prediction: the commutator singular values converge to {c^2, s^2}
    # for a rotated factor pair, giving a stable rank of 2 with
    # determinant z2-degree 1.  The harness must surface these.
    c, s = 0.6, 0.8
    z1 = BiPoly.monomial(1, 0)
    z2 = BiPoly.monomial(0, 1)
    one = BiPoly.one()
    Q = MatPoly([[c * (z1 * z2), -s * z1], [s * z2, c * one]])
    th = RationalInnerMatrix(2, Q, one, "rotated_product")
    assert verify_inner_exact(th).passed
    rec = conjecture_report(th, SCHED)
    assert rec.deg == (1, 1)
    assert rec.det_deg == (1, 1)
    assert rec.report.stabilized_rank == 2
    assert rec.verdict == VIOLATION_CANDIDATE
    sig = rec.report.levels[-1].sigmas
    assert np.allclose(sig[:2], [s * s, c * c], atol=1e-10)


SLOW = "SLOW_TAYLOR_DECAY"
STABLE, DIVERGENT = SweepVerdict.STABLE, SweepVerdict.DIVERGENT


@pytest.mark.parametrize("deg1,sweep,stabilized,warnings,d2,verdict,graded_warnings,predicted", [
    # deg1 <= 1: the prediction is a STABLE sweep at rank deg2 det Theta
    (0, STABLE, 1, (), 1, CONSISTENT, (), 1),
    (1, STABLE, 1, (), 1, CONSISTENT, (), 1),
    (1, STABLE, 2, (SLOW,), 1, INCONCLUSIVE,
     (SLOW, "rank 2 != predicted 1 under truncation warnings"), 1),
    (1, STABLE, 2, (), 1, VIOLATION_CANDIDATE, (), 1),
    (0, DIVERGENT, None, (), 2, INCONCLUSIVE, (), 2),
    (1, SweepVerdict.INCONCLUSIVE, None, (SLOW,), 1, INCONCLUSIVE, (SLOW,), 1),
    # deg1 >= 2: the prediction is an infinite rank, a DIVERGENT sweep
    (2, DIVERGENT, None, (), 1, CONSISTENT, (), None),
    (3, DIVERGENT, None, (SLOW,), 2, CONSISTENT, (SLOW,), None),
    (2, STABLE, 1, (SLOW,), 1, INCONCLUSIVE,
     (SLOW, "stabilized despite deg1 >= 2, under truncation warnings"), None),
    (2, STABLE, 1, (), 1, VIOLATION_CANDIDATE, (), None),
    (2, SweepVerdict.INCONCLUSIVE, None, (), 1, INCONCLUSIVE, (), None),
])
def test_grade_table(monkeypatch, deg1, sweep, stabilized, warnings, d2, verdict,
                     graded_warnings, predicted):
    # every outcome of the grade on a synthetic sweep, the generated
    # families reaching only a few of them
    import bidisklab.experiments as xp

    report = RankReport("synthetic", (deg1, 2), (deg1, d2), (), stabilized, sweep, warnings)
    monkeypatch.setattr(xp, "rank_sweep", lambda theta, schedule: report)
    rec = conjecture_report(SimpleNamespace(label="synthetic"), SCHED)
    assert (rec.verdict, rec.warnings, rec.predicted_rank) == (verdict, graded_warnings, predicted)
    assert rec.report is report


def test_family_determinism():
    a = generate_family("diagonal", 5, d=2, seed=11)
    b = generate_family("diagonal", 5, d=2, seed=11)
    for ta, tb in zip(a, b):
        assert ta.label == tb.label
        assert (ta.p - tb.p).is_zero
        for i in range(2):
            for j in range(2):
                assert (ta.Q[i, j] - tb.Q[i, j]).is_zero


def test_diagonal_family_respects_caps():
    for th in generate_family("diagonal", 8, d=2, seed=7, m1_cap=1, m2_cap=2):
        m1, m2 = th.deg
        assert m1 <= 1 and m2 <= 2
        assert verify_inner_exact(th).passed


def test_product_family_identity_slots_reduce_to_diagonal():
    from bidisklab.inner import product_one_var
    z1 = BiPoly.monomial(1, 0)
    z2 = BiPoly.monomial(0, 1)
    one = BiPoly.one()
    phi = MatPoly.diag([z1, one])
    psi = MatPoly.diag([z2, one])
    th = product_one_var([(phi, psi)], "aligned")
    ref = builtin("diag_z1z2_1")
    for i in range(2):
        for j in range(2):
            assert (th.Q[i, j] - ref.Q[i, j]).is_zero


def test_conjugated_family_keeps_det_degree():
    fam = generate_family("conjugated", 6, d=2, seed=3)
    for i, th in enumerate(fam):
        base = builtin(["hadamard_z1z2", "diag_z1z2_1", "hadamard_deg21"][i % 3])
        assert th.det_deg == base.det_deg


def test_conjugated_family_refuses_other_dimensions():
    # its bases are the 2 x 2 builtins, so a d = 3 request cannot be met
    for d in (1, 3):
        with pytest.raises(ValueError, match="d must be 2"):
            generate_family("conjugated", 3, d=d)
    assert [th.d for th in generate_family("conjugated", 3, d=2)] == [2, 2, 2]


def test_unknown_family_kind():
    with pytest.raises(ValueError):
        generate_family("mystery", 3)


def test_run_batch_builtins_consistent(tmp_path):
    fam = [builtin("hadamard_z1z2"), builtin("diag_z1z2_1"), builtin("hadamard_deg21")]
    summary = run_batch(fam, SCHED, out_dir=tmp_path)
    assert summary.verdict_counts == {CONSISTENT: 3}
    assert (tmp_path / "summary.csv").exists()
    rows = list(csv.DictReader(open(tmp_path / "summary.csv")))
    assert [r["verdict"] for r in rows] == [CONSISTENT] * 3
    assert rows[1]["stabilized_rank"] == "1"


def test_run_batch_empty(tmp_path):
    summary = run_batch([], SCHED, out_dir=tmp_path)
    assert summary.items == ()
    assert (tmp_path / "summary.csv").read_text() == \
        "label,m1,m2,D1,D2,stabilized_rank,verdict\n"


def test_run_batch_validates_the_schedule_once(tmp_path):
    # a bad schedule is the batch's error, not one error per item
    fam = generate_family("diagonal", 2, seed=1)
    with pytest.raises(ValueError, match="at least three levels"):
        run_batch(fam, [(4, 4)], out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()
    # a schedule given as a one-pass iterable reaches every item
    summary = run_batch(fam, iter(SCHED))
    assert [len(it.record.report.levels) for it in summary.items] == [3, 3]


def test_run_batch_isolates_bad_item(tmp_path):
    bad_Q = MatPoly([[BiPoly.one() + BiPoly.monomial(1, 0), BiPoly.zero()],
                     [BiPoly.zero(), BiPoly.one()]])
    bad = RationalInnerMatrix(2, bad_Q, BiPoly.one(), "not_inner")
    fam = [builtin("hadamard_z1z2"), bad, builtin("diag_z1z2_1")]
    summary = run_batch(fam, SCHED, out_dir=tmp_path)
    counts = summary.verdict_counts
    assert counts.get("ERROR") == 1
    assert counts.get(CONSISTENT) == 2
    rows = list(csv.DictReader(open(tmp_path / "summary.csv")))
    assert rows[1]["verdict"] == "ERROR"


def test_run_batch_isolates_items_the_gate_rejects(tmp_path):
    # p = 1 - 2 z1 + 0.1 z2 satisfies the Laurent identity but vanishes at
    # (1/2, 0); without the stability half of the gate its ranks exceed the
    # proven bound and the whole batch aborts with BatchScreeningError
    p = BiPoly.from_terms([(0, 0, 1), (1, 0, -2), (0, 1, 0.1)])
    unstable = RationalInnerMatrix(1, MatPoly.from_scalar(reflect(p, 1, 1)), p, "unstable")
    not_inner = RationalInnerMatrix(1, MatPoly.from_scalar(BiPoly.from_terms([(0, 0, 2.0)])),
                                    BiPoly.one(), "x")
    good = [builtin("hadamard_z1z2"), builtin("hadamard_deg21")]
    summary = run_batch([good[0], unstable, not_inner, good[1]], SCHED, out_dir=tmp_path)
    bad = [it for it in summary.items if it.record is None]
    assert [it.index for it in bad] == [1, 2]
    assert "UNSTABLE_DENOMINATOR" in bad[0].error
    assert "NOT_INNER" in bad[1].error
    rows = list(csv.DictReader(open(tmp_path / "summary.csv")))
    assert [r["verdict"] for r in rows[1:3]] == ["ERROR", "ERROR"]

    def grades(items):
        return [(r.deg, r.det_deg, r.verdict, [lv.rank for lv in r.report.levels])
                for r in (it.record for it in items)]

    alone = run_batch(good, SCHED)
    assert grades(summary.items[::3]) == grades(alone.items)


def test_run_batch_rerun_is_byte_identical(tmp_path):
    fam = generate_family("diagonal", 4, d=2, seed=5)
    run_batch(fam, SCHED, out_dir=tmp_path / "a")
    run_batch(generate_family("diagonal", 4, d=2, seed=5), SCHED,
              out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "summary.csv").read_bytes() == \
        (tmp_path / "b" / "summary.csv").read_bytes()


def test_screening_error_aborts_loudly(tmp_path, monkeypatch):
    # force an impossible rank to confirm the proven-bound screen trips
    import bidisklab.experiments as xp

    real_report = xp.conjecture_report

    def fake_report(theta, schedule):
        rec = real_report(theta, schedule)
        lv = rec.report.levels[0]
        forged = lv.__class__(lv.A, lv.B, lv.dim_model, lv.sigmas, 99)
        forged_report = rec.report.__class__(
            rec.report.label, rec.report.deg, rec.report.det_deg,
            (forged,) + rec.report.levels[1:], rec.report.stabilized_rank,
            rec.report.verdict, rec.report.warnings)
        return rec.__class__(rec.label, rec.deg, rec.det_deg, forged_report,
                             rec.predicted_rank, rec.verdict, rec.warnings)

    monkeypatch.setattr(xp, "conjecture_report", fake_report)
    with pytest.raises(BatchScreeningError, match=r"rank 99 at \(4,4\) exceeds .* = 2"):
        xp.run_batch([builtin("hadamard_z1z2")], SCHED, out_dir=tmp_path)


def test_thread_env_controls_workers(monkeypatch, tmp_path):
    monkeypatch.setenv("BIDISK_LAB_THREADS", "2")
    fam = generate_family("diagonal", 3, d=2, seed=9)
    summary = run_batch(fam, SCHED, out_dir=tmp_path)
    assert len(summary.items) == 3
    assert all(it.record is not None for it in summary.items)


@pytest.mark.parametrize("kind", ["product", "diagonal"])
def test_run_batch_summary_does_not_depend_on_worker_count(kind, tmp_path):
    fam = generate_family(kind, 6, d=2, seed=42)
    one = run_batch(fam, SCHED, out_dir=tmp_path / "one", max_workers=1)
    two = run_batch(fam, SCHED, out_dir=tmp_path / "two", max_workers=2)
    assert one.csv_path.read_bytes() == two.csv_path.read_bytes()
