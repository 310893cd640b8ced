"""Conjecture harness: generated families, batch runs, verdict logic.

The conjecture under test connects the self-commutator rank of the first
compressed shift to the z2-degree of det Theta whenever deg1 Theta <= 1,
and predicts an infinite rank otherwise.  Each record pairs the exact
degree data with a truncation rank sweep and grades the combination; the
grading is deliberately conservative, so numerical artifacts are reported
as INCONCLUSIVE rather than dressed up as counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import serialize
from ._blas import one_blas_thread, thread_map
from .inner import (
    RationalInnerMatrix,
    builtin,
    diagonal,
    from_scalar,
    from_stable_poly,
    product_one_var,
    require_inner,
    unitary_conjugate,
)
from .modelspace import RankReport, SweepVerdict, rank_sweep
from .polynomials import BiPoly, MatPoly

CONSISTENT = "CONSISTENT"
VIOLATION_CANDIDATE = "VIOLATION_CANDIDATE"
INCONCLUSIVE = "INCONCLUSIVE"


class BatchScreeningError(AssertionError):
    """A generated function violated the proven rank bound: implementation bug."""


@dataclass(frozen=True)
class ConjectureRecord:
    label: str
    deg: tuple[int, int]
    det_deg: tuple[int, int]
    report: RankReport
    predicted_rank: int | None  # None encodes the infinite prediction
    verdict: str
    warnings: tuple[str, ...]


@one_blas_thread
def conjecture_report(theta: RationalInnerMatrix, schedule) -> ConjectureRecord:
    """Grade one inner function against the rank-degree conjecture.

    CONSISTENT needs either a stabilized rank equal to the determinant
    degree (when deg1 <= 1) or a divergent sweep (when deg1 >= 2).  A
    stabilized rank that contradicts the prediction is only reported as a
    VIOLATION_CANDIDATE when no truncation warning is present; with
    warnings it degrades to INCONCLUSIVE, mismatch noted.
    """
    report = rank_sweep(theta, schedule)
    m1, _ = report.deg
    d2 = report.det_deg[1]
    predicted = d2 if m1 <= 1 else None
    warnings = list(report.warnings)
    if m1 <= 1:
        if report.verdict is SweepVerdict.STABLE:
            if report.stabilized_rank == d2:
                verdict = CONSISTENT
            elif warnings:
                verdict = INCONCLUSIVE
                warnings.append(f"rank {report.stabilized_rank} != predicted {d2} "
                                "under truncation warnings")
            else:
                verdict = VIOLATION_CANDIDATE
        else:
            verdict = INCONCLUSIVE
    else:
        if report.verdict is SweepVerdict.DIVERGENT:
            verdict = CONSISTENT
        elif report.verdict is SweepVerdict.STABLE:
            if warnings:
                verdict = INCONCLUSIVE
                warnings.append("stabilized despite deg1 >= 2, under truncation warnings")
            else:
                verdict = VIOLATION_CANDIDATE
        else:
            verdict = INCONCLUSIVE
    return ConjectureRecord(theta.label, report.deg, report.det_deg, report,
                            predicted, verdict, tuple(warnings))


# ----------------------------------------------------------------------
# seeded families
# ----------------------------------------------------------------------

def _random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _random_scalar_inner(rng: np.random.Generator, m1_cap: int,
                         m2_cap: int) -> RationalInnerMatrix:
    """Monomial or stable-polynomial scalar inner function within degree caps."""
    if rng.uniform() < 0.5 or m2_cap == 0:
        a = int(rng.integers(0, m1_cap + 1))
        b = int(rng.integers(0, m2_cap + 1))
        return from_scalar(BiPoly.monomial(a, b), BiPoly.one(), f"mono_z1^{a}z2^{b}")
    k = int(rng.integers(1, m2_cap + 1))
    use_z1 = m1_cap >= 1 and rng.uniform() < 0.7
    terms = [(1, 0, -_unit_coeff(rng))] if use_z1 else []
    terms += [(0, j, -_unit_coeff(rng)) for j in range(1, k + 1)]
    total = sum(abs(t[2]) for t in terms)
    c = total * rng.uniform(1.2, 1.8)
    p = BiPoly.from_terms([(0, 0, c)] + terms)
    return from_stable_poly(p, 1 if use_z1 else 0, k,
                            f"stable_deg({1 if use_z1 else 0},{k})")


def _unit_coeff(rng: np.random.Generator) -> complex:
    # moduli bounded away from zero keep commutator spectra well separated
    return rng.uniform(0.4, 1.0) * np.exp(2j * np.pi * rng.uniform())


def _monomial_diag(d: int, var: int, exps) -> MatPoly:
    mono = [BiPoly.monomial(e, 0) if var == 1 else BiPoly.monomial(0, e)
            for e in exps]
    return MatPoly.diag(mono)


# one-variable factor pairs in a product item
_N_FACTORS = 2


def _random_product(rng: np.random.Generator, d: int, m1_cap: int, m2_cap: int,
                    label: str) -> RationalInnerMatrix:
    """Product of conjugated monomial-diagonal one-variable inner factors."""
    z1_budget = int(rng.integers(0, m1_cap + 1))
    z2_budget = int(rng.integers(1, m2_cap + 1)) if m2_cap else 0
    factors = []
    for i in range(_N_FACTORS):
        e1 = [0] * d
        if z1_budget > 0:
            take = int(rng.integers(1, z1_budget + 1)) if i + 1 < _N_FACTORS else z1_budget
            e1[int(rng.integers(0, d))] = take
            z1_budget -= take
        e2 = [0] * d
        if z2_budget > 0:
            take = int(rng.integers(1, z2_budget + 1)) if i + 1 < _N_FACTORS else z2_budget
            slots = rng.permutation(d)[: int(rng.integers(1, d + 1))]
            for s in slots:
                e2[int(s)] = take
            z2_budget -= take
        phi = _monomial_diag(d, 1, e1).left_mul(_random_unitary(rng, d)) \
                                      .right_mul(_random_unitary(rng, d))
        psi = _monomial_diag(d, 2, e2).left_mul(_random_unitary(rng, d)) \
                                      .right_mul(_random_unitary(rng, d))
        factors.append((phi, psi))
    return product_one_var(factors, label)


_CONJUGATION_BASE = ("hadamard_z1z2", "diag_z1z2_1", "hadamard_deg21")


def generate_family(kind: str, count: int, d: int = 2, seed: int = 0,
                    m1_cap: int = 1, m2_cap: int = 2) -> list[RationalInnerMatrix]:
    """Deterministic list of verified inner functions of the requested kind.

    Kinds: ``diagonal`` (scalar monomial / stable-polynomial entries),
    ``product`` (one-variable matrix factors with random unitaries), and
    ``conjugated`` (U Theta V over the builtin matrix examples).  The same
    (kind, count, d, seed, caps) always yields the same list.
    """
    rng = np.random.default_rng(seed)
    out = []
    kind = kind.lower()
    for i in range(count):
        label = f"{kind}{i:03d}"
        if kind == "diagonal":
            scalars = [_random_scalar_inner(rng, m1_cap, m2_cap) for _ in range(d)]
            theta = diagonal(scalars, label)
        elif kind == "product":
            theta = _random_product(rng, d, m1_cap, m2_cap, label)
        elif kind == "conjugated":
            base = builtin(_CONJUGATION_BASE[i % len(_CONJUGATION_BASE)])
            U = _random_unitary(rng, base.d)
            V = _random_unitary(rng, base.d)
            theta = unitary_conjugate(base, U, V, f"{label}_{base.label}")
        else:
            raise ValueError(f"unknown family kind {kind!r}")
        out.append(theta)
    return out


# ----------------------------------------------------------------------
# batch execution
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BatchItem:
    index: int
    label: str
    record: ConjectureRecord | None
    error: str | None


@dataclass(frozen=True)
class BatchSummary:
    items: tuple[BatchItem, ...]
    csv_path: Path | None

    @property
    def verdict_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for it in self.items:
            key = it.record.verdict if it.record else "ERROR"
            counts[key] = counts.get(key, 0) + 1
        return counts


@one_blas_thread
def run_batch(family, schedule, out_dir=None,
              max_workers: int | None = None) -> BatchSummary:
    """Run the conjecture report over a family, persisting per-item records.

    Per-item failures, an item ``require_inner`` rejects among them, are
    recorded and the batch continues.  A function with deg1 <= 1 whose
    per-level rank exceeds d * deg2 violates a proven bound and aborts the
    whole batch: that is an implementation bug, not mathematics.  Writes
    one JSON file per item plus a ``summary.csv`` (stable byte-for-byte
    across reruns) when ``out_dir`` is given.  Items run on
    ``_blas.thread_map`` threads (``max_workers``, else
    ``BIDISK_LAB_THREADS``, else min(4, cpus)).
    """
    family = list(family)

    def run_one(idx_theta) -> BatchItem:
        idx, theta = idx_theta
        label = f"item{idx:03d}_{theta.label}"
        try:
            record = conjecture_report(require_inner(theta), schedule)
            m1, m2 = record.deg
            if m1 <= 1:
                bound = theta.d * m2
                for lv in record.report.levels:
                    if lv.rank > bound:
                        raise BatchScreeningError(
                            f"{label}: rank {lv.rank} at ({lv.A},{lv.B}) exceeds "
                            f"the proven bound d*deg2 = {bound}")
            return BatchItem(idx, label, record, None)
        except BatchScreeningError:
            raise
        except Exception as exc:  # error isolation: record and continue
            return BatchItem(idx, label, None, f"{type(exc).__name__}: {exc}")

    items = thread_map(run_one, enumerate(family), max_workers)

    csv_path = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for it in items:
            payload = (serialize.conjecture_record_to_json(it.record)
                       if it.record else {"label": it.label, "error": it.error,
                                          "verdict": "ERROR"})
            serialize.save_json(payload, out / f"{it.label}.json")
        csv_path = out / "summary.csv"
        with open(csv_path, "w", newline="") as fh:
            fh.write("label,m1,m2,D1,D2,stabilized_rank,verdict\n")
            for it in items:
                if it.record is None:
                    fh.write(f"{it.label},,,,,,ERROR\n")
                    continue
                r = it.record
                stab = "" if r.report.stabilized_rank is None else r.report.stabilized_rank
                fh.write(f"{it.label},{r.deg[0]},{r.deg[1]},{r.det_deg[0]},"
                         f"{r.det_deg[1]},{stab},{r.verdict}\n")
    return BatchSummary(tuple(items), csv_path)
