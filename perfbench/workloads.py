"""The benchmark's workloads: seeded inputs, one pass, and answer checks.

Each workload builds its fixed inputs from a seed in ``__init__`` (this is
what the set-up time measures), does its timed work in ``run`` and grades
the outputs in ``check``, which returns one boolean per check.  ``tiny=True``
gives the same pipeline at a size that runs in about a second; it warms the
process up before timing and feeds the self-test.

Library calls go through the ``bidisklab`` package attributes, so a traced
pass sees every call the wrappers in ``tracing`` intercept.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

import bidisklab as bl

# The seed at which outputs are also compared with the values the library
# produced when the benchmark was defined.
DEFAULT_SEED = 0

RANK_FUNCTIONS = ("hadamard_z1z2", "scalar_stable4")


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed d x d unitary (QR of a complex Gaussian, phases fixed)."""
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _with_degrees(theta):
    """Fill the instance's cached degree data now, outside the timed pass."""
    _ = theta.deg, theta.det_deg
    return theta


def _disk_point(rng: np.random.Generator, radius: float) -> tuple[complex, complex]:
    return tuple(radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                 for _ in range(2))


class RankDeep:
    """Dense rank sweeps at (16,16), (20,20), (24,24).

    Each builtin is conjugated by seeded constant unitaries, U Theta V.  That
    keeps deg, det_deg, the truncated model dimensions and the commutator
    rank, so every seed has the same known answers, while the inputs carry
    generic complex coefficients rather than the builtins' real ones.
    """

    name = "rank-deep"
    items = len(RANK_FUNCTIONS)
    golden_dims = {"hadamard_z1z2": [34, 42, 50], "scalar_stable4": [33, 41, 49]}

    def __init__(self, seed: int, tiny: bool = False):
        self.tiny = tiny
        self.schedule = [(4, 4), (6, 6), (8, 8)] if tiny else [(16, 16), (20, 20), (24, 24)]
        rng = np.random.default_rng(seed)
        self.thetas = []
        for name in RANK_FUNCTIONS:
            base = bl.builtin(name)
            theta = bl.unitary_conjugate(base, random_unitary(rng, base.d),
                                         random_unitary(rng, base.d), name)
            self.thetas.append(_with_degrees(theta))

    def run(self, scratch: Path):
        return [bl.rank_sweep(theta, self.schedule) for theta in self.thetas]

    def check(self, reports) -> dict[str, bool]:
        out = {}
        for rep in reports:
            out[f"{rep.label}.stable"] = rep.verdict is bl.SweepVerdict.STABLE
            out[f"{rep.label}.rank1"] = rep.stabilized_rank == 1
            if not self.tiny:
                out[f"{rep.label}.dims"] = ([lv.dim_model for lv in rep.levels]
                                            == self.golden_dims[rep.label])
        return out


class AglerDeep:
    """Agler spaces at (24,24) with kernel-residual and closed-form checks.

    The seed draws the 25 point pairs of the two-kernel residual (radius
    0.7) and the 10 (w, e) probes of the commutator formula per function
    (radius 0.5), as acceptance criteria 9 and 10 do.
    """

    name = "agler-deep"
    items = len(RANK_FUNCTIONS)
    residual_tol = 1e-8
    formula_tol = 1e-6

    def __init__(self, seed: int, tiny: bool = False):
        # the formula route truncates the kernel's z1-tail at degree T, so the
        # tiny size keeps the probes closer to the origin
        self.trunc, n_pairs, n_probes, r_pair, r_probe = (
            (10, 5, 2, 0.3, 0.2) if tiny else (24, 25, 10, 0.7, 0.5))
        rng = np.random.default_rng(seed)
        self.thetas = [_with_degrees(bl.builtin(name)) for name in RANK_FUNCTIONS]
        self.pairs = [(_disk_point(rng, r_pair), _disk_point(rng, r_pair))
                      for _ in range(n_pairs)]
        self.probes = []
        for theta in self.thetas:
            per = []
            for _ in range(n_probes):
                e = rng.standard_normal(theta.d) + 1j * rng.standard_normal(theta.d)
                per.append((_disk_point(rng, r_probe), e / np.linalg.norm(e)))
            self.probes.append(per)

    def run(self, scratch: Path):
        out = []
        for theta, probes in zip(self.thetas, self.probes):
            spaces = bl.agler_spaces(theta, self.trunc, self.trunc)
            residual = bl.agler_kernel_residual(theta, spaces, self.pairs)
            gap = 0.0
            for w, e in probes:
                cmp = bl.commutator_kernel_formula(theta, spaces, w, e)
                gap = max(gap,
                          float(np.linalg.norm(cmp.formula_invariant - cmp.matrix_invariant)),
                          float(np.linalg.norm(cmp.formula_complement - cmp.matrix_complement)))
            out.append((theta, bl.kernel_space_dims(theta, spaces), residual, gap))
        return out

    def check(self, results) -> dict[str, bool]:
        out = {}
        for theta, dims, residual, gap in results:
            d1, d2 = theta.det_deg
            out[f"{theta.label}.wandering_dims"] = dims == (d2, d1) == (1, 1)
            out[f"{theta.label}.kernel_residual"] = residual < self.residual_tol
            out[f"{theta.label}.formula_gap"] = gap < self.formula_tol
        return out


def canonical_csv_digest(raw: bytes) -> str:
    """Digest of a summary.csv with item positions dropped and rows sorted."""
    header, *rows = raw.decode().splitlines()
    rows = sorted(row.split("_", 1)[1] for row in rows)
    return hashlib.sha256("\n".join([header, *rows]).encode()).hexdigest()


class ConjectureBatch:
    """Two seeded families of 25 graded at schedule 4,4;6,6;8,8, one worker.

    The families are fixed (family seed 42); the benchmark seed permutes the
    order in which each family is graded.  The identity order at the default
    seed reproduces the library's own summary.csv byte for byte; at every
    seed the verdict counts and the order-free digest are known.
    """

    name = "conjecture-batch"
    kinds = ("product", "diagonal")
    family_seed = 42
    schedule = [(4, 4), (6, 6), (8, 8)]
    golden_counts = {"product": {"CONSISTENT": 20, "VIOLATION_CANDIDATE": 5},
                     "diagonal": {"CONSISTENT": 25}}
    golden_raw = {
        "product": "1987a2e49c57104b3a58369f4596beaed3896224e428392151d40776871fb629",
        "diagonal": "c2ba20a740d7e2aa954e1029e0073ee11ffab59e6fed9bebe4442b9a470256a9",
    }
    golden_canonical = {
        "product": "b516c97d0f275dc317d416bb54f6b80cc56e32a152f46f8b4390d9d047c9cfce",
        "diagonal": "f8c2e0062b47d72bd8fcf1b8ca71ad5df774cb80b64e9b3f4cd25c26404390ca",
    }

    def __init__(self, seed: int, tiny: bool = False):
        self.tiny = tiny
        self.seed = seed
        self.count = 3 if tiny else 25
        self.items = self.count * len(self.kinds)
        rng = np.random.default_rng(seed)
        self.orders = {kind: (np.arange(self.count) if seed == DEFAULT_SEED
                              else rng.permutation(self.count))
                       for kind in self.kinds}
        self.first_csv: dict[str, bytes] = {}

    def run(self, scratch: Path, max_workers: int | None = 1):
        out = {}
        for kind in self.kinds:
            family = bl.generate_family(kind, self.count, seed=self.family_seed)
            family = [family[i] for i in self.orders[kind]]
            summary = bl.run_batch(family, self.schedule, scratch / kind,
                                   max_workers=max_workers)
            out[kind] = (summary.verdict_counts, summary.csv_path.read_bytes())
        return out

    def check(self, results) -> dict[str, bool]:
        out = {}
        for kind, (counts, raw) in results.items():
            first = self.first_csv.setdefault(kind, raw)
            out[f"{kind}.no_error"] = "ERROR" not in counts
            out[f"{kind}.csv_repeats"] = raw == first
            if self.tiny:
                continue
            out[f"{kind}.verdict_counts"] = counts == self.golden_counts[kind]
            out[f"{kind}.canonical_digest"] = (canonical_csv_digest(raw)
                                               == self.golden_canonical[kind])
            if self.seed == DEFAULT_SEED:
                out[f"{kind}.csv_digest"] = (hashlib.sha256(raw).hexdigest()
                                             == self.golden_raw[kind])
        return out


WORKLOADS = {w.name: w for w in (RankDeep, AglerDeep, ConjectureBatch)}
