"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Criterion 12's zero-violation clause is asserted
faithfully and is expected to fail: misaligned one-variable products are
genuine stable counterexamples to the rank-degree prediction (see the
rotated-product analysis in tests/test_experiments.py), and the harness
correctly refuses to hide them.
"""

import time

import numpy as np
import pytest

from bidisklab import agler as ag
from bidisklab import experiments as xp
from bidisklab.cli import run as cli_run
from bidisklab.inner import (
    builtin,
    from_scalar,
    unitary_conjugate,
    verify_inner_exact,
)
from bidisklab.modelspace import (
    ModelWorkspace,
    SweepVerdict,
    TruncGrid,
    commutator,
    compressed_shift,
    model_basis,
    probe_model_basis,
    rank_sweep,
)
from bidisklab.polynomials import BiPoly
from bidisklab.taylor import DecayClass, expand, tail_diagnostic


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


# -- shared heavy fixtures ----------------------------------------------

SCHED_688 = [(6, 6), (8, 8), (10, 10)]
SCHED_468 = [(4, 4), (6, 6), (8, 8)]


def scalar_cases():
    return [
        (builtin("scalar_z1z2"), 1),
        (from_scalar(BiPoly.monomial(0, 2), BiPoly.one(), "z2^2"), 2),
        (from_scalar(BiPoly.monomial(1, 2), BiPoly.one(), "z1z2^2"), 2),
        (builtin("scalar_z2n(3)"), 3),
        (builtin("scalar_stable4"), 1),
    ]


@pytest.fixture(scope="module")
def scalar_suite():
    results = []
    for theta, expected in scalar_cases():
        t0 = time.perf_counter()
        rep = rank_sweep(theta, SCHED_688)
        results.append((theta, expected, rep, time.perf_counter() - t0))
    return results


@pytest.fixture(scope="module")
def diagonal_pairs():
    fam = xp.generate_family("diagonal", 20, d=2, seed=2025)
    out = []
    for theta in fam:
        rep = rank_sweep(theta, SCHED_468)
        parts = [from_scalar(theta.Q[i, i], theta.p, f"{theta.label}[{i}]")
                 for i in range(2)]
        part_reps = [rank_sweep(p, SCHED_468) for p in parts]
        out.append((theta, rep, parts, part_reps))
    return out


@pytest.fixture(scope="module")
def product_batch():
    fam = xp.generate_family("product", 100, d=2, seed=777, m1_cap=1, m2_cap=2)
    t0 = time.perf_counter()
    reports = [rank_sweep(theta, SCHED_468) for theta in fam]
    return fam, reports, time.perf_counter() - t0


# -- criteria ------------------------------------------------------------

def test_criterion_01_scalar_rank_degree(scalar_suite):
    ok = True
    details = []
    for theta, expected, rep, elapsed in scalar_suite:
        good = (rep.verdict is SweepVerdict.STABLE
                and rep.stabilized_rank == expected and elapsed < 15.0)
        ok = ok and good
        details.append(f"{theta.label}->{rep.stabilized_rank} ({elapsed:.1f}s)")
    report(1, ok, "; ".join(details))
    assert ok


def test_criterion_02_boundary_singular_stress():
    theta = builtin("scalar_favorite")
    sched = [(8, 8), (10, 10), (12, 12), (14, 14)]
    rep = rank_sweep(theta, sched)
    diag = tail_diagnostic(expand(theta, 40, 40))
    slow = diag.decay_class is DecayClass.SLOW and "SLOW_TAYLOR_DECAY" in rep.warnings
    benign = (rep.verdict is SweepVerdict.STABLE and rep.stabilized_rank == 1) or \
        (rep.verdict is SweepVerdict.INCONCLUSIVE and rep.warnings)
    never_wrong = not (rep.verdict is SweepVerdict.STABLE and rep.stabilized_rank != 1)
    ok = slow and benign and never_wrong
    report(2, ok, f"verdict={rep.verdict.value} rank={rep.stabilized_rank} "
                  f"warnings={list(rep.warnings)}")
    assert ok


def test_criterion_03_hadamard_goldens():
    theta = builtin("hadamard_z1z2")
    rep = rank_sweep(theta, SCHED_468)
    rank_ok = rep.verdict is SweepVerdict.STABLE and rep.stabilized_rank == 1
    dim = model_basis(theta, TruncGrid(8, 8, 2)).dim
    dim_ok = dim == 8 + 8 + 2
    spaces = ag.agler_spaces(theta, 8, 8)
    g = spaces.smax1.grid
    target = np.zeros((g.dim, 9))
    for a in range(9):
        target[g.flat(a, 0, 0), a] = -1 / np.sqrt(2)
        target[g.flat(a, 0, 1), a] = 1 / np.sqrt(2)
    q, _ = np.linalg.qr(target)
    P = spaces.smax1.basis @ spaces.smax1.basis.conj().T
    angle = float(np.linalg.norm(q - P @ q, 2))
    span_ok = angle < 1e-7
    hk_ok = spaces.hkmax1.dim == 1
    ok = rank_ok and dim_ok and span_ok and hk_ok
    report(3, ok, f"rank={rep.stabilized_rank} dim={dim} angle={angle:.1e} "
                  f"dim_hkmax1={spaces.hkmax1.dim}")
    assert ok


def test_criterion_04_deg21_divergence():
    theta = builtin("hadamard_deg21")
    rep = rank_sweep(theta, SCHED_468)
    ranks = [lv.rank for lv in rep.levels]
    diverging = rep.verdict is SweepVerdict.DIVERGENT and ranks[0] < ranks[1] < ranks[2]
    basis = probe_model_basis(theta, 8, 8)
    C = commutator(compressed_shift(theta, basis, 1))
    g = basis.grid
    f = np.zeros(g.dim, dtype=complex)
    f[g.flat(0, 1, 0)] = 1.0
    out = basis.basis @ (C @ basis.coords(f))
    err = float(np.linalg.norm(out - (-0.5) * f))
    action_ok = err < 1e-7
    ok = diverging and action_ok
    report(4, ok, f"ranks={ranks} commutator([1;0]z2) error={err:.1e}")
    assert ok


def test_criterion_05_diagonal_additivity(diagonal_pairs):
    rep = rank_sweep(builtin("diag_z1z2_1"), SCHED_468)
    base_ok = rep.verdict is SweepVerdict.STABLE and rep.stabilized_rank == 1
    add_ok = True
    for theta, rep_d, parts, part_reps in diagonal_pairs:
        stable = (rep_d.verdict is SweepVerdict.STABLE
                  and all(r.verdict is SweepVerdict.STABLE for r in part_reps))
        additive = rep_d.stabilized_rank == sum(r.stabilized_rank for r in part_reps)
        add_ok = add_ok and stable and additive
    ok = base_ok and add_ok
    report(5, ok, f"diag(z1z2,1)->{rep.stabilized_rank}; additivity 20 pairs "
                  f"{'exact' if add_ok else 'FAILED'}")
    assert ok


def test_criterion_06_wandering_dims_equal_det_degrees():
    names = ["diag_z1z2_1", "hadamard_z1z2", "hadamard_deg21", "scalar_z1z2",
             "scalar_favorite", "scalar_stable4", "scalar_z2n(3)"]
    ok = True
    details = []
    for name in names:
        theta = builtin(name)
        spaces = ag.agler_spaces(theta, 8, 8)
        d1, d2 = theta.det_deg
        good = (spaces.hkmax1.dim, spaces.hkmin2.dim) == (d2, d1)
        ok = ok and good
        details.append(f"{name}:({spaces.hkmax1.dim},{spaces.hkmin2.dim})")
    report(6, ok, " ".join(details))
    assert ok


def test_criterion_07_rank_bound_on_products(product_batch):
    fam, reports, elapsed = product_batch
    passes = 0
    for theta, rep in zip(fam, reports):
        m1, m2 = rep.deg
        if m1 <= 1 and all(lv.rank <= 2 * m2 for lv in rep.levels):
            passes += 1
    ok = passes == 100 and elapsed < 600.0
    report(7, ok, f"{passes}/100 within d*deg2 bound in {elapsed:.0f}s")
    assert ok


def test_criterion_08_wandering_dim_below_rank(scalar_suite, diagonal_pairs,
                                               product_batch):
    cases = [(theta, rep) for theta, _, rep, _ in scalar_suite]
    cases.append((builtin("hadamard_z1z2"), rank_sweep(builtin("hadamard_z1z2"),
                                                       SCHED_468)))
    cases.append((builtin("diag_z1z2_1"), rank_sweep(builtin("diag_z1z2_1"),
                                                     SCHED_468)))
    cases.extend((theta, rep) for theta, rep, _, _ in diagonal_pairs)
    fam, reports, _ = product_batch
    cases.extend(zip(fam, reports))
    checked = 0
    ok = True
    worst_margin = float("inf")
    for theta, rep in cases:
        if rep.verdict is not SweepVerdict.STABLE:
            continue
        checked += 1
        spaces = ag.agler_spaces(theta, 8, 8)
        margin = ag.injectivity_margin(theta, spaces)
        worst_margin = min(worst_margin, margin)
        if not (spaces.hkmax1.dim <= rep.stabilized_rank and margin > 1e-6):
            ok = False
    report(8, ok, f"{checked} stable cases; min margin {worst_margin:.2e}")
    assert ok


def test_criterion_09_agler_decomposition_residual():
    rng = np.random.default_rng(909)

    def point():
        return tuple(0.7 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                     for _ in range(2))

    pairs = [(point(), point()) for _ in range(25)]
    worst = 0.0
    for name in ("scalar_z1z2", "hadamard_z1z2"):
        theta = builtin(name)
        spaces = ag.agler_spaces(theta, 10, 10)
        worst = max(worst, ag.agler_kernel_residual(theta, spaces, pairs))
    ok = worst < 1e-6
    report(9, ok, f"max residual {worst:.2e} over 25 pairs, both functions")
    assert ok


def test_criterion_10_commutator_formula_oracle():
    # the matrix route truncates the kernel's z1-tail at degree A, so the
    # two routes agree up to |w1|^(A+1); radius 0.5 at (24,24) leaves more
    # than an order of magnitude under the 1e-6 target
    rng = np.random.default_rng(1010)
    worst = 0.0
    for name in ("scalar_z1z2", "hadamard_z1z2"):
        theta = builtin(name)
        spaces = ag.agler_spaces(theta, 24, 24)
        for _ in range(10):
            w = tuple(0.5 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                      for _ in range(2))
            e = rng.standard_normal(theta.d) + 1j * rng.standard_normal(theta.d)
            e /= np.linalg.norm(e)
            cmp = ag.commutator_kernel_formula(theta, spaces, w, e)
            worst = max(
                worst,
                float(np.linalg.norm(cmp.formula_invariant - cmp.matrix_invariant)),
                float(np.linalg.norm(cmp.formula_complement - cmp.matrix_complement)))
    ok = worst < 1e-6
    report(10, ok, f"max formula/matrix gap {worst:.2e} over 10 pairs each")
    assert ok


def test_criterion_11_property_suite():
    herm_ok = True
    inner_ok = True
    for name in ("scalar_z1z2", "hadamard_z1z2", "hadamard_deg21",
                 "diag_z1z2_1", "scalar_favorite", "scalar_stable4"):
        theta = builtin(name)
        check = verify_inner_exact(theta)
        inner_ok = inner_ok and check.residual <= 1e-13
        basis = model_basis(theta, TruncGrid(6, 6, theta.d))
        C = commutator(compressed_shift(theta, basis, 1))
        herm_ok = herm_ok and np.linalg.norm(C - C.conj().T, "fro") <= 1e-12

    rng = np.random.default_rng(111)
    interior_ok = True
    for name in ("scalar_z1z2", "hadamard_z1z2", "diag_z1z2_1"):
        theta = builtin(name)
        ws = ModelWorkspace(theta, TruncGrid(8, 8, theta.d))
        m1, m2 = theta.deg
        small = TruncGrid(8 - m1, 8 - m2, theta.d)
        f = rng.standard_normal(small.dim) + 1j * rng.standard_normal(small.dim)
        fp = small.embed(f, ws.padded)
        scale = np.linalg.norm(fp)
        P = ws.padded
        iso = abs(np.linalg.norm(ws.mult(fp, P)) - scale)
        pf = fp - ws.mult(ws.mult(fp, P, adjoint=True), P)
        idem = np.linalg.norm(pf - ws.mult(ws.mult(pf, P, adjoint=True), P) - pf)
        interior_ok = interior_ok and iso <= 1e-8 * scale and idem <= 1e-8 * scale

    conj_ok = True
    base_names = ("hadamard_z1z2", "diag_z1z2_1")
    refs = {n: rank_sweep(builtin(n), SCHED_468) for n in base_names}
    for i in range(10):
        name = base_names[i % 2]
        theta = builtin(name)
        Q1, R1 = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        Q2, R2 = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        rep = rank_sweep(unitary_conjugate(theta, Q1, Q2), SCHED_468)
        conj_ok = conj_ok and rep.stabilized_rank == refs[name].stabilized_rank \
            and rep.verdict is refs[name].verdict
    ok = herm_ok and inner_ok and interior_ok and conj_ok
    report(11, ok, f"hermiticity={herm_ok} innerness={inner_ok} "
                   f"interior={interior_ok} conjugation={conj_ok}")
    assert ok


def test_criterion_12_determinism(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    args = ["conjecture", "run", "--kind", "product", "--count", "25",
            "--seed", "42", "-q"]
    assert cli_run(args + ["--out", str(out1)]) == 0
    assert cli_run(args + ["--out", str(out2)]) == 0
    same = (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    report(12, same, "two seeded runs produce byte-identical CSVs")
    assert same


def test_criterion_12_zero_violation_candidates(tmp_path):
    # Faithful reading of the criterion: no VIOLATION_CANDIDATE on the
    # builtin family or any generated family.  Misaligned products are
    # stable genuine counterexamples to the rank-degree prediction, so
    # this assertion fails by design; see the rotated-product test for
    # the closed-form witness (commutator singular values {c^2, s^2}).
    builtin_family = [builtin(n) for n in
                      ("hadamard_z1z2", "diag_z1z2_1", "hadamard_deg21",
                       "scalar_z1z2", "scalar_favorite", "scalar_stable4")]
    offenders = []
    summary = xp.run_batch(builtin_family, SCHED_468)
    offenders += [it.label for it in summary.items
                  if it.record and it.record.verdict == xp.VIOLATION_CANDIDATE]
    for kind in ("diagonal", "conjugated", "product"):
        fam = xp.generate_family(kind, 25, d=2, seed=42)
        summary = xp.run_batch(fam, SCHED_468)
        offenders += [it.label for it in summary.items
                      if it.record and it.record.verdict == xp.VIOLATION_CANDIDATE]
    ok = not offenders
    report(12, ok, f"violation candidates: {offenders if offenders else 'none'}")
    assert ok, (f"stable counterexamples to the rank-degree conjecture among "
                f"generated products: {offenders}")
