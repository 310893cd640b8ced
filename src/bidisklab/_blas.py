"""numpy's OpenBLAS as bidisklab's only BLAS, on one thread per call.

Everything here is found in the OpenBLAS that numpy links, through numpy's
own extension, so dlsym searches that library whatever its file is called.
Only the thread count is set this way: every factorization goes through
``numpy.linalg``, so no LAPACK symbol is looked up and no scipy is loaded.

``one_blas_thread`` caps numpy's pool at one thread while a decorated call
runs and puts the previous count back when the last such call returns.  The
matrices here are small, so a second BLAS thread only spins.  The setter is
OpenBLAS's ``openblas_set_num_threads_local``.  In the pthreads builds that
numpy ships it sets the count of the whole process, not of the calling
thread, so entries are counted: the first of overlapping calls (nested, or
on ``thread_map`` workers) caps the pool and the last restores it.  Without
the symbol (MKL, Accelerate, an older OpenBLAS) the decorator does nothing.

``thread_map`` runs a batch's items side by side.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

THREADS_ENV = "BIDISK_LAB_THREADS"

# Overlapping capped calls and the count to restore after the last one; one
# record for the process, as the thread count it guards is process-wide.
_entries = SimpleNamespace(lock=threading.Lock(), depth=0, saved=0)


@functools.cache
def _numpy_blas():
    """numpy's extension module as a ctypes library, or None."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    try:
        return ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None


@functools.cache
def _thread_setter():
    """numpy's ``openblas_set_num_threads_local``, or None; resolved on first use."""
    fn = getattr(_numpy_blas(), "openblas_set_num_threads_local", None)
    if fn is not None:
        fn.argtypes = [ctypes.c_int]
        fn.restype = ctypes.c_int
    return fn


def _worker_count(requested: int | None) -> int:
    """`requested` if positive, else ``BIDISK_LAB_THREADS``, else min(4, cpus)."""
    if requested is not None and requested > 0:
        return requested
    try:
        n = int(os.environ.get(THREADS_ENV, "0"))
    except ValueError:
        n = 0
    return n if n > 0 else min(4, os.cpu_count() or 1)


def thread_map(fn, items, max_workers: int | None = None) -> list:
    """``[fn(x) for x in items]`` on up to ``_worker_count(max_workers)`` threads.

    Results come back in input order, and the first item in input order that
    fails raises, as in the loop.  With one thread the loop runs inline.
    """
    items = list(items)
    workers = min(_worker_count(max_workers), len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, x) for x in items]
        try:
            return [f.result() for f in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def one_blas_thread(fn):
    """Decorate a compute entry point to run with numpy's BLAS on one thread."""

    @functools.wraps(fn)
    def capped(*args, **kwargs):
        setter = _thread_setter()
        if setter is None:
            return fn(*args, **kwargs)
        with _entries.lock:
            if _entries.depth == 0:
                _entries.saved = setter(1)
            _entries.depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _entries.lock:
                _entries.depth -= 1
                if _entries.depth == 0:
                    setter(_entries.saved)

    return capped
