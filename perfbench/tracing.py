"""Per-layer tracing installed from outside the library.

A traced pass wraps the public functions of each bidisklab layer module in
every module namespace that binds them, plus ``ModelWorkspace.__init__`` on
the class.  Each wrapper records a span (id, parent id, name, start, end,
thread) on a per-thread stack; spans stay in memory and are written out once
the run ends.  Counts that the benchmark cites (matrix sizes, Taylor
coefficients, basis yield, verdicts, GCD slice warnings) are computed at the
same boundaries from the shapes of arguments and results, so they repeat
exactly from run to run.

Nothing is patched while a ``Tracer`` is not installed, so untraced passes
run the library exactly as shipped.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
import warnings
from collections import defaultdict

LAYERS = ("polynomials", "inner", "taylor", "modelspace", "agler",
          "experiments", "serialize")

# complex128 entries held by one ModelWorkspace: mult, its product with its
# adjoint, and proj, each n x n on the padded grid
_WORKSPACE_MATRICES = 3
_COMPLEX_BYTES = 16


def library_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "bidisklab" or name.startswith("bidisklab."))]


def patch_everywhere(target, replacement) -> list:
    """Rebind every module-level name bound to `target` to `replacement`.

    Returns the (module, name, original) triples needed to undo the patch.
    """
    undo = []
    for mod in library_modules():
        for name, value in list(vars(mod).items()):
            if value is target:
                setattr(mod, name, replacement)
                undo.append((mod, name, value))
    return undo


def unpatch(undo) -> None:
    for owner, name, value in reversed(undo):
        setattr(owner, name, value)


def public_functions(layer_module) -> dict:
    """Public functions defined (not merely imported) in a layer module."""
    return {name: fn for name, fn in vars(layer_module).items()
            if not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == layer_module.__name__}


class _CountingWarnings:
    """Stand-in for the ``warnings`` module that counts one category."""

    def __init__(self, category, tracer: "Tracer", counter: str):
        self._category = category
        self._tracer = tracer
        self._counter = counter

    def warn(self, message, category=None, *args, **kwargs):
        if category is not None and issubclass(category, self._category):
            self._tracer.count(self._counter, 1)
        # one frame deeper than the caller expected
        kwargs["stacklevel"] = kwargs.get("stacklevel", 1) + 1
        return warnings.warn(message, category, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(warnings, name)


class Tracer:
    """Span recorder; ``install()`` patches the library, ``remove()`` undoes it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def maximum(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts[name], value)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, on_return=None):
        tracer = self
        signature = inspect.signature(fn) if on_return is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1, threading.get_ident()))
            if on_return is not None:
                on_return(tracer, signature.bind(*args, **kwargs).arguments, out)
            return out

        return traced

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        import bidisklab  # noqa: F401  (loads every layer module)

        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in library_modules()}
        for layer in LAYERS:
            mod = mods[layer]
            for fname, fn in public_functions(mod).items():
                name = f"{layer}.{fname}"
                self._undo += patch_everywhere(fn, self.wrap(name, fn, _COUNT_HOOKS.get(name)))
        ws_cls = mods["modelspace"].ModelWorkspace
        init = ws_cls.__init__
        ws_cls.__init__ = self.wrap("modelspace.ModelWorkspace", init, _workspace_counts)
        self._undo.append((ws_cls, "__init__", init))
        poly = mods["polynomials"]
        self._undo.append((poly, "warnings", poly.warnings))
        poly.warnings = _CountingWarnings(poly.GcdSliceWarning, self,
                                          "polynomials.gcd_slice_warnings")

    def remove(self) -> None:
        unpatch(self._undo)
        self._undo = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # ------------------------------------------------------------------
    # reduction
    # ------------------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """calls, busy_s (outermost spans only) and self_s per span name."""
        by_id = {s[0]: s for s in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _, t0, t1, _ in self.spans:
            if parent:
                child_time[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for sid, parent, name, t0, t1, _ in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (t1 - t0) - child_time[sid]
            outermost = True
            while parent:
                anc = by_id[parent]
                if anc[2] == name:
                    outermost = False
                    break
                parent = anc[1]
            if outermost:
                entry["busy_s"] += t1 - t0
        return dict(out)

    def write_spans(self, fh, **tags) -> None:
        """Write the recorded spans to an open file, one JSON object a line."""
        for sid, parent, name, t0, t1, tid in self.spans:
            fh.write(json.dumps({**tags, "id": sid, "parent": parent, "name": name,
                                 "start": t0, "end": t1, "thread": tid}) + "\n")


# ----------------------------------------------------------------------
# counts computed at the wrapper boundaries
# ----------------------------------------------------------------------

def _workspace_counts(tracer, args, out):
    n = args["self"].padded.dim  # __init__ returns None
    tracer.maximum("modelspace.ModelWorkspace.dim_max", n)
    tracer.count("modelspace.ModelWorkspace.bytes",
                 _WORKSPACE_MATRICES * _COMPLEX_BYTES * n * n)


def _model_basis_counts(tracer, args, out):
    tracer.count("modelspace.basis_dim", out.dim)
    tracer.count("modelspace.probe_columns", args["grid"].dim)


def _probe_model_basis_counts(tracer, args, out):
    tracer.count("modelspace.basis_dim", out.dim)
    tracer.count("modelspace.probe_columns",
                 (args["A"] + 1) * (args["B"] + 1) * args["theta"].d)


def _expand_counts(tracer, args, out):
    tracer.count("taylor.expand.coeffs", out.coeffs.size)


def _run_batch_counts(tracer, args, out):
    counts = out.verdict_counts
    for verdict in ("ERROR", "VIOLATION_CANDIDATE", "INCONCLUSIVE"):
        tracer.count(f"experiments.items.{verdict.lower()}", counts.get(verdict, 0))


_COUNT_HOOKS = {
    "modelspace.model_basis": _model_basis_counts,
    "modelspace.probe_model_basis": _probe_model_basis_counts,
    "taylor.expand": _expand_counts,
    "experiments.run_batch": _run_batch_counts,
}
