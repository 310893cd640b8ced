import sys
import threading

import numpy as np
import pytest

from bidisklab import _blas
from bidisklab.inner import builtin
from bidisklab.modelspace import rank_sweep

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
