"""Run numpy's OpenBLAS on one thread while bidisklab code runs.

numpy and scipy each bundle an OpenBLAS with its own thread pool.  The
matrices here are small, so a second numpy BLAS thread buys nothing, and
its spinning takes the core that scipy's LAPACK (whose pivoted QRs do use
threads at large windows) is working on.  ``one_blas_thread`` caps numpy's
pool while a decorated call runs and puts the previous count back when the
last such call returns.  scipy's pool keeps the inherited threads.

The setter is OpenBLAS's ``openblas_set_num_threads_local``, found through
numpy's own extension, so dlsym searches the OpenBLAS that numpy links,
whatever its file is called.  In the pthreads builds that numpy ships it
sets the count of the whole process, not of the calling thread, so entries
are counted: the first of overlapping calls (nested, or on ``run_batch``
workers) caps the pool and the last restores it.  Without the symbol (MKL,
Accelerate, an older OpenBLAS) the decorator does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from types import SimpleNamespace

# Overlapping capped calls and the count to restore after the last one; one
# record for the process, as the thread count it guards is process-wide.
_entries = SimpleNamespace(lock=threading.Lock(), depth=0, saved=0)


@functools.cache
def _thread_setter():
    """numpy's ``openblas_set_num_threads_local``, or None; resolved on first use."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    try:
        fn = ctypes.CDLL(_multiarray_umath.__file__).openblas_set_num_threads_local
    except (AttributeError, OSError):
        return None
    fn.argtypes = [ctypes.c_int]
    fn.restype = ctypes.c_int
    return fn


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
