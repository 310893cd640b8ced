"""Self-test of the benchmark: answer checks, metric tables and tracing.

    python3 perfbench/selftest.py

For each workload at its tiny size it runs a clean pass (fail ratio must be
0), then a pass with one library answer corrupted by patching the function
that produces it (fail ratio must rise).  It also runs one traced tiny pass
per workload, checks that every span the per-layer table reads belongs to a
wrapped library function, and that the metric tables match BENCHMARK.json.
Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

from bidisklab import agler, experiments, modelspace  # noqa: E402
from tracing import (LAYERS, Tracer, library_modules, patch_everywhere,  # noqa: E402
                     public_functions, unpatch)
from workloads import WORKLOADS  # noqa: E402

_numerical_rank = modelspace.numerical_rank
_agler_kernel_residual = agler.agler_kernel_residual


def _off_by_one_rank(C, *args, **kwargs):
    rank, sig = _numerical_rank(C, *args, **kwargs)
    return rank + 1, sig


def _bad_residual(*args, **kwargs):
    return _agler_kernel_residual(*args, **kwargs) + 1.0


def _failing_report(*args, **kwargs):
    raise RuntimeError("corrupted conjecture report")

CORRUPTIONS = {
    "rank-deep": (modelspace.numerical_rank, _off_by_one_rank),
    "agler-deep": (agler.agler_kernel_residual, _bad_residual),
    "conjecture-batch": (experiments.conjecture_report, _failing_report),
}


def fail_ratio(wl, scratch: Path) -> float:
    tally = run.Tally()
    run.timed_pass(wl, tally, scratch)
    return len(tally.failed) / tally.attempted


def span_names() -> set[str]:
    names = {"modelspace.ModelWorkspace"}
    for layer in LAYERS:
        mod = sys.modules[f"bidisklab.{layer}"]
        names |= {f"{layer}.{fn}" for fn in public_functions(mod)}
    return names


def main() -> int:
    problems = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        if {m["name"]: m["unit"] for m in spec[key]} != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py")

    known = span_names()
    for name in run.PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("calls", "busy_s", "self_s") and span not in known:
            problems.append(f"{name}: no wrapped function {span}")

    bindings = {(m.__name__, k): v for m in library_modules() for k, v in vars(m).items()}
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        scratch = Path(tmp)
        for name, cls in WORKLOADS.items():
            clean = fail_ratio(cls(1, tiny=True), scratch)
            target, bad = CORRUPTIONS[name]
            undo = patch_everywhere(target, bad)
            try:
                corrupted = fail_ratio(cls(1, tiny=True), scratch)
            finally:
                unpatch(undo)
            with Tracer() as tracer:
                run.timed_pass(cls(1, tiny=True), run.Tally(), scratch)
            spans = {s[2] for s in tracer.spans}
            print(f"{name}: clean fail_ratio {clean:.3f}, corrupted {corrupted:.3f}, "
                  f"{len(tracer.spans)} spans over {len(spans)} names")
            if clean != 0.0:
                problems.append(f"{name}: clean pass failed its checks")
            if corrupted <= clean:
                problems.append(f"{name}: corrupted answer not caught")
            if not tracer.spans or spans - known:
                problems.append(f"{name}: traced pass recorded no or unknown spans")
    if any(vars(sys.modules[mod]).get(k) is not v for (mod, k), v in bindings.items()):
        problems.append("library left patched")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
