"""numpy's OpenBLAS as bidisklab's only BLAS, on one thread per call.

Everything here is found in the OpenBLAS that numpy links, through numpy's
own extension, so dlsym searches that library whatever its file is called.

``one_blas_thread`` caps numpy's pool at one thread while a decorated call
runs and puts the previous count back when the last such call returns.  The
matrices here are small, so a second BLAS thread only spins.  The setter is
OpenBLAS's ``openblas_set_num_threads_local``.  In the pthreads builds that
numpy ships it sets the count of the whole process, not of the calling
thread, so entries are counted: the first of overlapping calls (nested, or
on ``thread_map`` workers) caps the pool and the last restores it.  Without
the symbol (MKL, Accelerate, an older OpenBLAS) the decorator does nothing.

``pivoted_qr`` is LAPACK's column-pivoted QR, xGEQP3 (Quintana-Orti, Sun &
Bischof, SIAM J. Sci. Comput. 19, 1998), and xUNGQR, called through the
LAPACKE interface that numpy's OpenBLAS exports.  Where numpy's BLAS
exports no LAPACKE it returns None and the caller falls back to scipy.

``thread_map`` runs a batch's items side by side.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np

THREADS_ENV = "BIDISK_LAB_THREADS"

# Overlapping capped calls and the count to restore after the last one; one
# record for the process, as the thread count it guards is process-wide.
_entries = SimpleNamespace(lock=threading.Lock(), depth=0, saved=0)

_COL_MAJOR = 102  # LAPACK_COL_MAJOR

# numpy's wheels link an OpenBLAS with 64-bit integers, whose symbols end in
# 64_: scipy-openblas64 (numpy >= 2) prefixes them with scipy_, openblas64_
# (numpy 1.x) does not.  Unsuffixed LAPACKE symbols are left to the scipy
# fallback, as their name does not tell their integer width.
_LAPACKE_PREFIXES = ("scipy_", "")


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


@functools.cache
def _lapack_qr():
    """numpy's 64-bit-integer LAPACKE zgeqp3 and zungqr, or None."""
    lib, i64, ptr = _numpy_blas(), ctypes.c_int64, ctypes.c_void_p
    for prefix in _LAPACKE_PREFIXES:
        geqp3 = getattr(lib, f"{prefix}LAPACKE_zgeqp364_", None)
        ungqr = getattr(lib, f"{prefix}LAPACKE_zungqr64_", None)
        if geqp3 is not None and ungqr is not None:
            geqp3.argtypes = [ctypes.c_int, i64, i64, ptr, i64, ptr, ptr]
            ungqr.argtypes = [ctypes.c_int, i64, i64, i64, ptr, i64, ptr]
            geqp3.restype = ungqr.restype = i64
            return SimpleNamespace(geqp3=geqp3, ungqr=ungqr)
    return None


def pivoted_qr(a: np.ndarray):
    """Economic column-pivoted QR (Q, R, piv) of a complex matrix, or None.

    The factors are those of ``scipy.linalg.qr(a, mode="economic",
    pivoting=True)``: a[:, piv] = Q R with |diag R| non-increasing.  None
    means numpy's BLAS exports no LAPACKE.
    """
    lapack = _lapack_qr()
    if lapack is None:
        return None
    qr = np.array(a, dtype=complex, order="F")
    m, n = qr.shape
    k, lda = min(m, n), max(1, m)
    piv = np.zeros(n, dtype=np.int64)
    tau = np.zeros(k, dtype=complex)
    info = lapack.geqp3(_COL_MAJOR, m, n, qr.ctypes.data, lda, piv.ctypes.data,
                        tau.ctypes.data)
    if info == 0:
        R = np.triu(qr[:k])
        # the first k columns of the reflectors give the economic Q, in place
        info = lapack.ungqr(_COL_MAJOR, m, k, k, qr.ctypes.data, lda, tau.ctypes.data)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACKE pivoted QR failed (info {info})")
    return qr[:, :k], R, piv - 1


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
