import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import bidisklab
from bidisklab import _blas, modelspace
from bidisklab.agler import agler_spaces
from bidisklab.experiments import generate_family, run_batch
from bidisklab.inner import builtin, builtin_names
from bidisklab.modelspace import rank_sweep
from bidisklab.tolerances import RANK_REL_TOL

setter = _blas._thread_setter()
needs_setter = pytest.mark.skipif(setter is None,
                                  reason="numpy's BLAS has no openblas_set_num_threads_local")


def numpy_blas_threads() -> int:
    """numpy's OpenBLAS thread count, read through the setter's return value."""
    count = setter(1)
    setter(count)
    return count


@pytest.fixture
def two_threads():
    before = setter(2)
    yield
    setter(before)


@_blas.one_blas_thread
def observe(inner=None):
    seen = [numpy_blas_threads()]
    if inner is not None:
        seen += inner()
        seen.append(numpy_blas_threads())
    return seen


@needs_setter
def test_scope_restores_after_return(two_threads):
    assert observe() == [1]
    assert numpy_blas_threads() == 2
    assert _blas._entries.depth == 0


@needs_setter
def test_scope_restores_after_exception(two_threads):
    @_blas.one_blas_thread
    def fails():
        assert numpy_blas_threads() == 1
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        fails()
    assert numpy_blas_threads() == 2
    assert _blas._entries.depth == 0


@needs_setter
def test_scope_nests(two_threads):
    # outer, inner, outer again after the inner call returned
    assert observe(observe) == [1, 1, 1]
    assert numpy_blas_threads() == 2


@needs_setter
def test_overlapping_calls_on_two_threads_restore_once(two_threads):
    # the first thread leaves while the second is still inside: the count
    # must stay capped until the second returns, then come back
    inside = threading.Barrier(2, timeout=10)
    first_left = threading.Event()
    seen = {}

    @_blas.one_blas_thread
    def work(name):
        inside.wait()
        if name == "second":
            assert first_left.wait(timeout=10)
        seen[name] = numpy_blas_threads()

    def first():
        work("first")
        first_left.set()

    threads = [threading.Thread(target=first),
               threading.Thread(target=work, args=("second",))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=20)
        assert not t.is_alive()
    assert seen == {"first": 1, "second": 1}
    assert numpy_blas_threads() == 2
    assert _blas._entries.depth == 0


@needs_setter
def test_many_threads_entering_and_leaving(two_threads):
    # more threads than cores and a short switch interval: a lost update of
    # the entry count would restore the pool early or never
    seen = []

    @_blas.one_blas_thread
    def work():
        seen.append(numpy_blas_threads())

    def loop():
        for _ in range(200):
            work()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=loop) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert seen == [1] * 1600
    assert numpy_blas_threads() == 2
    assert _blas._entries.depth == 0


@needs_setter
def test_scope_is_a_no_op_without_the_symbol(two_threads, monkeypatch):
    monkeypatch.setattr(_blas, "_thread_setter", lambda: None)
    assert observe() == [2]
    assert numpy_blas_threads() == 2


@pytest.mark.parametrize("name", ["hadamard_z1z2", "scalar_stable4"])
def test_rank_sweep_does_not_depend_on_the_scope(name, monkeypatch):
    theta = builtin(name)
    schedule = [(8, 8), (10, 10), (12, 12)]
    capped = rank_sweep(theta, schedule)
    monkeypatch.setattr(_blas, "_thread_setter", lambda: None)
    free = rank_sweep(theta, schedule)
    assert capped.verdict is free.verdict
    assert capped.stabilized_rank == free.stabilized_rank
    for a, b in zip(capped.levels, free.levels, strict=True):
        assert (a.rank, a.dim_model) == (b.rank, b.dim_model)
        assert np.abs(a.sigmas - b.sigmas).max() <= 1e-12


# -- the rank-revealing basis and a library without scipy ------------------

def _complex(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def _qr_cases():
    rng = np.random.default_rng(11)
    low_rank = _complex(rng, 40, 3) @ _complex(rng, 3, 25)
    near = _complex(rng, 60, 12)
    near[:, 7] = near[:, 2] + 1e-12 * _complex(rng, 60, 1)[:, 0]
    return {"tall": _complex(rng, 50, 9), "wide": _complex(rng, 9, 50),
            "rank_deficient": low_rank, "wide_rank_deficient": low_rank.conj().T,
            "near_dependent": near,
            "empty_cols": _complex(rng, 5, 0), "empty_rows": _complex(rng, 0, 5),
            "level_frame": _complex(rng, 1568, 66), "level_coords": _complex(rng, 56, 1568)}


@pytest.mark.parametrize("case", sorted(_qr_cases()))
def test_orth_columns_spans_the_pivoted_qr(case):
    import scipy.linalg  # the reference only; the library runs without scipy

    a = _qr_cases()[case]
    before = a.copy()
    U = modelspace._orth_columns(a)
    assert np.array_equal(a, before)  # the input is not overwritten
    if a.size == 0:
        assert U.shape == (a.shape[0], 0)
        return
    Q, R, _ = scipy.linalg.qr(a, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    ref = Q[:, : int(np.sum(diag > RANK_REL_TOL * diag[0]))]
    assert U.shape == ref.shape
    widths = {"rank_deficient": 3, "wide_rank_deficient": 3, "near_dependent": 11}
    assert U.shape[1] == widths.get(case, min(a.shape))
    assert np.abs(U.conj().T @ U - np.eye(U.shape[1])).max() <= 1e-13
    assert np.linalg.norm(ref - U @ (U.conj().T @ ref), 2) <= 1e-12


def _dims_and_ranks():
    """Model dims and ranks of two sweeps, wandering dims of one Agler level,
    and the graded answers of a three-item batch."""
    schedule = [(4, 4), (6, 6), (8, 8)]
    out = {}
    for name in ("hadamard_z1z2", "scalar_stable4"):
        report = rank_sweep(builtin(name), schedule)
        out[name] = [[lv.dim_model, lv.rank] for lv in report.levels]
    spaces = agler_spaces(builtin("scalar_stable4"), 8, 8)
    out["agler"] = [spaces.model.dim, spaces.smax1.dim, spaces.smin2.dim,
                    spaces.hkmax1.dim, spaces.hkmin2.dim]
    batch = run_batch(generate_family("diagonal", 3, seed=42), schedule, max_workers=1)
    out["batch"] = [[it.label, it.error, it.record.verdict, it.record.report.stabilized_rank,
                     [[lv.dim_model, lv.rank] for lv in it.record.report.levels]]
                    for it in batch.items]
    return out


def test_library_runs_without_scipy():
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(bidisklab.__file__).resolve().parents[1])
    code = ("import json, sys\n"
            "sys.modules['scipy'] = None  # any scipy import now raises\n"
            "from test_blas import _dims_and_ranks\n"
            "print(json.dumps(_dims_and_ranks()))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])},
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == _dims_and_ranks()


# -- thread_map and batch workers ------------------------------------------

def test_thread_map_keeps_input_order(monkeypatch):
    monkeypatch.setenv("BIDISK_LAB_THREADS", "2")
    started = []

    def slow_square(x):
        started.append(x)
        time.sleep(0.01 * (5 - x))
        return x * x

    assert _blas.thread_map(slow_square, range(5)) == [0, 1, 4, 9, 16]
    assert sorted(started) == list(range(5))


def test_thread_map_raises_the_first_failure_in_input_order(monkeypatch):
    monkeypatch.setenv("BIDISK_LAB_THREADS", "2")

    def fails_late(x):
        if x in (1, 3):
            time.sleep(0.05 if x == 1 else 0.0)
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match="item 1"):
        _blas.thread_map(fails_late, range(4))


def _sweep_fingerprint(report):
    levels = [(lv.A, lv.B, lv.dim_model, lv.rank, lv.sigmas.tobytes()) for lv in report.levels]
    return (report.label, report.stabilized_rank, report.verdict, report.warnings, levels)


def _batch_fingerprints(family, schedule, workers):
    items = run_batch(family, schedule, max_workers=workers).items
    return [(it.label, it.error, it.record and _sweep_fingerprint(it.record.report))
            for it in items]


def test_run_batch_reports_are_bitwise_equal_on_one_and_two_workers():
    thetas = [builtin(name) for name in builtin_names() if name != "scalar_z2n(k)"]
    thetas.append(builtin("scalar_z2n(3)"))
    thetas += generate_family("product", 25, seed=42) + generate_family("diagonal", 25, seed=42)
    schedule = [(4, 4), (6, 6), (8, 8)]
    assert _batch_fingerprints(thetas, schedule, 1) == _batch_fingerprints(thetas, schedule, 2)


def test_rank_sweep_runs_its_levels_on_the_calling_thread(monkeypatch):
    level_threads, real = [], modelspace._rank_level

    def recording_level(ws, *args):
        level_threads.append(threading.get_ident())
        return real(ws, *args)

    monkeypatch.setattr(modelspace, "_rank_level", recording_level)
    monkeypatch.setenv("BIDISK_LAB_THREADS", "4")
    rank_sweep(builtin("hadamard_z1z2"), [(4, 4), (6, 6), (8, 8)])
    assert level_threads == [threading.get_ident()] * 3


def test_run_batch_workers_run_their_levels_inline(monkeypatch, tmp_path):
    pools, level_threads = [], {}
    real_level, real_pool = modelspace._rank_level, _blas.ThreadPoolExecutor

    def counting_pool(*args, **kwargs):
        pools.append(kwargs.get("max_workers"))
        return real_pool(*args, **kwargs)

    def recording_level(ws, *args):
        level_threads.setdefault(ws.theta.label, []).append(threading.get_ident())
        return real_level(ws, *args)

    monkeypatch.setattr(_blas, "ThreadPoolExecutor", counting_pool)
    monkeypatch.setattr(modelspace, "_rank_level", recording_level)
    fam = generate_family("diagonal", 4, d=2, seed=9)
    summary = run_batch(fam, [(4, 4), (6, 6), (8, 8)], out_dir=tmp_path, max_workers=2)
    assert all(it.record is not None for it in summary.items)
    assert pools == [2]  # the batch's pool, and none per sweep
    assert sorted(level_threads) == sorted(th.label for th in fam)
    for threads in level_threads.values():
        assert len(threads) == 3 and len(set(threads)) == 1


def test_batch_items_share_no_state_under_thread_stress():
    # more workers than cores and a short switch interval, on items that share
    # one theta: state shared between sweeps (theta's cached degrees) would
    # show as an item that differs from the sequential sweep
    theta = builtin("scalar_stable4")
    schedule = [(4, 4), (5, 5), (6, 6), (7, 7), (8, 8)]
    expected = _sweep_fingerprint(rank_sweep(builtin("scalar_stable4"), schedule))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        items = run_batch([theta] * 8, schedule, max_workers=8).items
    finally:
        sys.setswitchinterval(interval)
    assert [_sweep_fingerprint(it.record.report) for it in items] == [expected] * 8
