"""bidisklab benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from ``src``.
Workloads are defined in ``workloads.py``: ``rank-deep``, ``agler-deep`` and
``conjecture-batch``.

``--trace 0`` measures the end-to-end metrics:

- ``setup_s``: median wall time of fresh interpreters that import bidisklab
  and build the workload's fixed inputs;
- ``wall_s``: median time of one timed pass, passes repeated for ``--seconds``;
- ``items_per_s``: items graded per second, median over the passes;
- ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates untraced and traced passes for ``--seconds`` and
reports the per-layer metrics from the traced ones (see ``tracing.py``),
the tracing overhead, process CPU time, import times and code size.

Every pass checks its answers.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; ``failed /
attempted`` is the fail ratio: failed checks, errored passes and set-up
probes that exited nonzero, over all of them.  Machine and code facts are
printed on the line before it, and written with the result and the spans of
a traced run under ``.perfbench/``.  The library's thread settings are left
as inherited; the facts record them.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BIDISK_LAB_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}

# Per-layer metrics of a traced run.  Span metrics (<span>.calls, .busy_s,
# .self_s) come from the wrappers' spans, counts from the wrapper boundaries;
# process.* from the untraced passes of the same run.
PER_LAYER = {
    "modelspace.ModelWorkspace.calls": "count",
    "modelspace.ModelWorkspace.self_s": "s",
    "modelspace.ModelWorkspace.dim_max": "count",
    "modelspace.ModelWorkspace.bytes": "bytes",
    "modelspace.model_basis.self_s": "s",
    "modelspace.probe_model_basis.self_s": "s",
    "modelspace.basis_yield": "ratio",
    "modelspace.compressed_shift.self_s": "s",
    "modelspace.commutator.self_s": "s",
    "modelspace.numerical_rank.self_s": "s",
    "modelspace.rank_at_level.calls": "count",
    "modelspace.rank_at_level.busy_s": "s",
    "modelspace.rank_at_level.self_s": "s",
    "modelspace.rank_sweep.busy_s": "s",
    "modelspace.decay_class.busy_s": "s",
    "agler.agler_spaces.calls": "count",
    "agler.agler_spaces.busy_s": "s",
    "agler.agler_spaces.self_s": "s",
    "agler.compute_smax1.self_s": "s",
    "agler.compute_smin2.self_s": "s",
    "agler.agler_kernel_residual.busy_s": "s",
    "agler.commutator_kernel_formula.busy_s": "s",
    "taylor.expand.calls": "count",
    "taylor.expand.busy_s": "s",
    "taylor.expand.coeffs": "count",
    "taylor.tail_diagnostic.busy_s": "s",
    "polynomials.reduce_fraction.calls": "count",
    "polynomials.reduce_fraction.busy_s": "s",
    "polynomials.mat_determinant.busy_s": "s",
    "polynomials.poly_divexact.busy_s": "s",
    "polynomials.gcd_slice_warnings": "count",
    "inner.verify_inner_exact.calls": "count",
    "inner.verify_inner_exact.busy_s": "s",
    "inner.degree.busy_s": "s",
    "inner.det_degree.busy_s": "s",
    "experiments.generate_family.busy_s": "s",
    "experiments.run_batch.busy_s": "s",
    "experiments.run_batch.default_workers_s": "s",
    "experiments.conjecture_report.calls": "count",
    "experiments.conjecture_report.busy_s": "s",
    "experiments.conjecture_report.self_s": "s",
    "experiments.items.error": "count",
    "experiments.items.violation_candidate": "count",
    "experiments.items.inconclusive": "count",
    "serialize.conjecture_record_to_json.busy_s": "s",
    "process.cpu_s": "s",
    "process.cpu_per_wall": "ratio",
    "setup.import_scipy_signal_s": "s",
    "setup.import_bidisklab_s": "s",
    "trace.overhead": "ratio",
    "src.lines": "count",
}

# Counts computed at the wrapper boundaries from array shapes, not measured;
# they repeat exactly from run to run.
COMPUTED = {"modelspace.ModelWorkspace.dim_max", "modelspace.ModelWorkspace.bytes",
            "modelspace.basis_yield", "taylor.expand.coeffs"}


class Tally:
    """Checks attempted and failed across the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def record(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(label)


# ----------------------------------------------------------------------
# machine and code facts
# ----------------------------------------------------------------------

def _library_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _openblas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _openblas_threads()},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_lines": src_lines(),
    }


def import_times(tally: Tally) -> dict[str, float]:
    """Cumulative import times from ``python -X importtime -c 'import bidisklab'``."""
    wanted = {"scipy.signal": "setup.import_scipy_signal_s",
              "bidisklab": "setup.import_bidisklab_s"}
    samples: dict[str, list[float]] = {v: [] for v in wanted.values()}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bidisklab"],
                              env=_library_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        tally.record("importtime.exit", proc.returncode == 0)
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                found[wanted[parts[2].strip()]] = int(parts[1]) / 1e6
        for key in samples:
            samples[key].append(found.get(key, 0.0))
    return {k: statistics.median(v) for k, v in samples.items()}


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------

def setup_times(workload: str, seed: int, tally: Tally) -> list[float]:
    """Wall time of fresh interpreters building the workload's inputs."""
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                              env=_library_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        out.append(time.perf_counter() - t0)
        tally.record("setup.exit", proc.returncode == 0)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
    return out


def timed_pass(wl, tally: Tally, scratch: Path, **run_kwargs) -> tuple[float, float]:
    """Run and check one pass; returns (wall seconds, CPU seconds) of the run."""
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = wl.run(Path(tmp), **run_kwargs)
        except Exception:
            traceback.print_exc()
            result = None
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if result is None:
        tally.record(f"{wl.name}.pass", False)
    else:
        for label, ok in wl.check(result).items():
            tally.record(label, ok)
    return wall, cpu


def end_to_end(wl, seconds: float, tally: Tally, scratch: Path) -> dict[str, float]:
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(timed_pass(wl, tally, scratch)[0])
    print(f"passes {len(walls)}: " + " ".join(f"{w:.3f}" for w in walls))
    return {
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(wl.items / w for w in walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _traced_values(tracer) -> dict[str, float]:
    flat = {f"{span}.{field}": value for span, fields in tracer.layer_times().items()
            for field, value in fields.items()}
    flat.update(tracer.counts)
    probes = tracer.counts.get("modelspace.probe_columns", 0)
    flat["modelspace.basis_yield"] = (tracer.counts["modelspace.basis_dim"] / probes
                                      if probes else 0.0)
    return flat


def per_layer(wl, seconds: float, tally: Tally, scratch: Path, spans_path: Path):
    from tracing import Tracer
    from workloads import ConjectureBatch

    plain, cpus, traced, values = [], [], [], []
    tracers = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        wall, cpu = timed_pass(wl, tally, scratch)
        plain.append(wall)
        cpus.append(cpu)
        with Tracer() as tracer:
            traced.append(timed_pass(wl, tally, scratch)[0])
        tracers.append(tracer)
        values.append(_traced_values(tracer))
    print(f"untraced {' '.join(f'{w:.3f}' for w in plain)}; "
          f"traced {' '.join(f'{w:.3f}' for w in traced)}")
    with open(spans_path, "w") as fh:
        for i, tracer in enumerate(tracers):
            tracer.write_spans(fh, traced_pass=i)

    metrics = {name: statistics.median(v.get(name, 0) for v in values) for name in PER_LAYER}
    metrics["process.cpu_s"] = statistics.median(cpus)
    metrics["process.cpu_per_wall"] = statistics.median(c / w for c, w in zip(cpus, plain))
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1
    metrics["experiments.run_batch.default_workers_s"] = 0.0
    if isinstance(wl, ConjectureBatch):
        # ungated: the library's default worker count on top of BLAS threads;
        # its summary.csv must still match the one-worker passes
        metrics["experiments.run_batch.default_workers_s"] = timed_pass(
            wl, tally, scratch, max_workers=None)[0]
    metrics.update(import_times(tally))
    metrics["src.lines"] = src_lines()
    return metrics


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "bidisklab" / "__init__.py").is_file():
        print(f"perfbench: no bidisklab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tally = Tally()
    try:
        cls = WORKLOADS[args.workload]
        metrics = {}
        if not args.trace:
            metrics["setup_s"] = statistics.median(setup_times(args.workload, args.seed, tally))
        wl = cls(args.seed)
        warm = cls(args.seed, tiny=True)  # first-call costs stay out of the timing
        timed_pass(warm, tally, scratch)
        if args.trace:
            metrics.update(per_layer(wl, args.seconds, tally, scratch,
                                     OUT_DIR / f"spans-{tag}.jsonl"))
            units = PER_LAYER
        else:
            metrics.update(end_to_end(wl, args.seconds, tally, scratch))
            units = END_TO_END
    finally:
        shutil.rmtree(scratch)

    facts = machine_facts()
    result = {
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({"facts": facts, "failed_checks": tally.failed,
                    "computed": sorted(COMPUTED & set(units)), **result}, indent=1))
    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]:.6g} {unit}" + (" (computed)" if name in COMPUTED else ""))
    print(f"fail_ratio {len(tally.failed)}/{tally.attempted}"
          + (f" (failed: {', '.join(sorted(set(tally.failed)))})" if tally.failed else ""))
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
