import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.signal import convolve2d

from bidisklab import agler, modelspace, taylor
from bidisklab._blas import one_blas_thread
from bidisklab.agler import agler_kernel_residual, agler_spaces
from bidisklab.experiments import generate_family
from bidisklab.inner import (
    RationalInnerMatrix,
    builtin,
    diagonal,
    from_scalar,
    require_inner,
    scalar_z2n,
    swap_variables,
    unitary_conjugate,
)
from bidisklab.modelspace import (
    _family_level,
    ModelWorkspace,
    TruncGrid,
    commutator,
    compressed_shift,
    model_basis,
    numerical_rank,
    probe_model_basis,
    rank_at_level,
    rank_sweep,
    shift_mult,
    Subspace,
    SweepVerdict,
)
from bidisklab.polynomials import BiPoly, _convolve2d
from bidisklab.taylor import expand, tail_diagnostic, DecayClass
from bidisklab.tolerances import RANK_REL_TOL, rank_count
from oracles import (
    _expand_pointwise,
    _wold_basis,
    analytic_mult,
    dense_mult,
    raised_box_shift,
)


def test_grid_index_bijection():
    g = TruncGrid(3, 2, 2)
    seen = set()
    for a in range(4):
        for b in range(3):
            for k in range(2):
                idx = g.flat(a, b, k)
                assert g.unflat(idx) == (a, b, k)
                seen.add(idx)
    assert seen == set(range(g.dim))
    assert g.dim == 2 * 4 * 3


def test_analytic_mult_monomial_shift():
    th = builtin("scalar_z1z2")
    g = TruncGrid(3, 3, 1)
    M = dense_mult(th, g)
    for a in range(4):
        for b in range(4):
            col = M[:, g.flat(a, b, 0)]
            if a + 1 <= 3 and b + 1 <= 3:
                expected = np.zeros(g.dim)
                expected[g.flat(a + 1, b + 1, 0)] = 1.0
                assert np.allclose(col, expected)
            else:
                assert np.allclose(col, 0.0)  # overflow dropped


def test_analytic_mult_identity():
    from bidisklab.inner import RationalInnerMatrix
    from bidisklab.polynomials import MatPoly
    th = RationalInnerMatrix(2, MatPoly.identity(2), BiPoly.one(), "I")
    g = TruncGrid(2, 2, 2)
    M = dense_mult(th, g)
    assert np.allclose(M, np.eye(g.dim))


def test_analytic_mult_hadamard_first_column():
    th = builtin("hadamard_z1z2")
    g = TruncGrid(1, 1, 2)
    M = dense_mult(th, g)
    for k in range(2):
        col = M[:, g.flat(0, 0, k)].reshape(2, 2, 2)
        sign = 1.0 if k == 0 else -1.0
        assert np.allclose(col[1, 0], [0.5, 0.5])
        assert np.allclose(col[0, 1], [0.5 * sign, -0.5 * sign])


def test_analytic_mult_cutoff_mismatch():
    th = builtin("scalar_z1z2")
    with pytest.raises(ValueError):
        analytic_mult(_expand_pointwise(th, 2, 2), TruncGrid(3, 3, 1))


def test_adjoint_backward_shift():
    th = builtin("scalar_z1z2")
    g = TruncGrid(3, 3, 1)
    M = dense_mult(th, g).conj().T
    for a in range(4):
        for b in range(4):
            col = M[:, g.flat(a, b, 0)]
            if a >= 1 and b >= 1:
                expected = np.zeros(g.dim)
                expected[g.flat(a - 1, b - 1, 0)] = 1.0
                assert np.allclose(col, expected)
            else:
                assert np.allclose(col, 0.0)


def test_adjoint_double_backward_shift():
    th = scalar_z2n(2)
    g = TruncGrid(2, 4, 1)
    M = dense_mult(th, g).conj().T
    f = np.zeros(g.dim)
    f[g.flat(0, 3, 0)] = 1.0  # z2^3
    out = M @ f
    expected = np.zeros(g.dim)
    expected[g.flat(0, 1, 0)] = 1.0  # z2
    assert np.allclose(out, expected)


def test_adjoint_equals_restricted_padded_transpose():
    th = builtin("hadamard_deg21")
    g = TruncGrid(4, 4, 2)
    big = TruncGrid(7, 6, 2)
    coeffs = _expand_pointwise(th, 7, 6)
    direct = analytic_mult(coeffs, g).conj().T
    padded = analytic_mult(coeffs, big).conj().T
    idx = g.indices_in(big)
    assert np.allclose(direct, padded[np.ix_(idx, idx)])


def test_project_model_constants_fixed():
    th = builtin("scalar_z1z2")
    g = TruncGrid(3, 3, 1)
    f = np.zeros(g.dim)
    f[g.flat(0, 0, 0)] = 1.0
    assert np.allclose(ModelWorkspace(th, g).grid_images(f)[1], f)


def test_project_model_kills_range():
    th = builtin("scalar_z1z2")
    g = TruncGrid(3, 3, 1)
    ws = ModelWorkspace(th, g)
    for (a, b) in [(1, 1), (2, 1)]:
        f = np.zeros(g.dim)
        f[g.flat(a, b, 0)] = 1.0
        assert np.linalg.norm(ws.grid_images(f)[1]) < 1e-14


def test_model_basis_monomial_dimension():
    th = builtin("scalar_z1z2")
    sub = model_basis(th, TruncGrid(2, 2, 1))
    assert sub.dim == 5
    # span check: monomials z1^a z2^b with min(a, b) = 0
    g = sub.grid
    target = np.zeros((g.dim, 5))
    for i, (a, b) in enumerate([(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)]):
        target[g.flat(a, b, 0), i] = 1.0
    P = sub.basis @ sub.basis.conj().T
    assert np.linalg.norm(target - P @ target) < 1e-10


def test_model_basis_identity_trivial():
    from bidisklab.inner import RationalInnerMatrix
    from bidisklab.polynomials import MatPoly
    th = RationalInnerMatrix(2, MatPoly.identity(2), BiPoly.one(), "I")
    sub = model_basis(th, TruncGrid(3, 3, 2))
    assert sub.dim == 0


@pytest.mark.parametrize("A,B", [(3, 3), (5, 2), (8, 8)])
def test_model_basis_hadamard_dimension(A, B):
    sub = model_basis(builtin("hadamard_z1z2"), TruncGrid(A, B, 2))
    assert sub.dim == A + B + 2


def test_compressed_shift_vanishes_for_z1():
    th = from_scalar(BiPoly.monomial(1, 0), BiPoly.one(), "z1")
    sub = model_basis(th, TruncGrid(3, 3, 1))
    S = compressed_shift(th, sub, 1)
    assert np.linalg.norm(S) < 1e-12


def test_compressed_shift_hadamard_kills_z2_block():
    th = builtin("hadamard_z1z2")
    sub = model_basis(th, TruncGrid(4, 4, 2))
    S = compressed_shift(th, sub, 1)
    g = sub.grid
    for b in range(3):  # interior z2 powers
        f = np.zeros(g.dim, dtype=complex)
        f[g.flat(0, b, 0)] = 1.0
        f[g.flat(0, b, 1)] = 1.0
        coords = sub.coords(f)
        assert np.linalg.norm(S @ coords) < 1e-10


def test_compressed_shift_monomial_action():
    th = builtin("scalar_z1z2")
    sub = model_basis(th, TruncGrid(3, 3, 1))
    S = compressed_shift(th, sub, 1)
    g = sub.grid

    def vec(a, b):
        v = np.zeros(g.dim, dtype=complex)
        v[g.flat(a, b, 0)] = 1.0
        return v

    for b in range(1, 4):
        assert np.linalg.norm(S @ sub.coords(vec(0, b))) < 1e-12
    for a in range(3):
        out = sub.basis @ (S @ sub.coords(vec(a, 0)))
        assert np.linalg.norm(out - vec(a + 1, 0)) < 1e-12


def test_commutator_of_zero_and_unitary():
    th = from_scalar(BiPoly.monomial(1, 0), BiPoly.one(), "z1")
    sub = model_basis(th, TruncGrid(2, 2, 1))
    C = commutator(compressed_shift(th, sub, 1))
    assert np.linalg.norm(C) < 1e-12
    # a unitary operator matrix commutes with its adjoint
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert np.linalg.norm(commutator(Q)) < 1e-12


def test_commutator_window_edge_reflection():
    # On the raw (3,3) basis the truncated shift is not shift-like at the
    # top degree, so the commutator shows one genuine unit singular value
    # (projection onto constants) plus one unit edge reflection; the edge
    # value disappears under the probe compression used by rank sweeps.
    th = builtin("scalar_z1z2")
    sub = model_basis(th, TruncGrid(3, 3, 1))
    C = commutator(compressed_shift(th, sub, 1))
    sig = np.linalg.svd(C, compute_uv=False)
    assert np.sum(sig > 1e-8) == 2
    assert np.allclose(sig[:2], 1.0)
    level = rank_at_level(th, 3, 3)
    assert level.rank == 1
    assert abs(level.sigmas[0] - 1.0) < 1e-12


def test_commutator_hermitian():
    for name in ("hadamard_z1z2", "hadamard_deg21", "scalar_favorite"):
        th = builtin(name)
        sub = model_basis(th, TruncGrid(6, 6, th.d))
        C = commutator(compressed_shift(th, sub, 1))
        assert np.linalg.norm(C - C.conj().T, "fro") <= 1e-12


def test_numerical_rank_conventions():
    assert numerical_rank(np.zeros((4, 4)))[0] == 0
    assert numerical_rank(np.diag([1.0, 1e-12]))[0] == 1
    assert numerical_rank(np.diag([1.0, 0.5, 1e-9]))[0] == 2


def test_rank_sweep_monomial():
    r = rank_sweep(builtin("scalar_z1z2"), [(4, 4), (6, 6), (8, 8)])
    assert r.verdict is SweepVerdict.STABLE
    assert r.stabilized_rank == 1


def test_rank_sweep_z2_cubed():
    r = rank_sweep(scalar_z2n(3), [(4, 4), (6, 6), (8, 8)])
    assert r.verdict is SweepVerdict.STABLE
    assert r.stabilized_rank == 3


def test_rank_sweep_divergent():
    r = rank_sweep(builtin("hadamard_deg21"), [(4, 4), (6, 6), (8, 8)])
    assert r.verdict is SweepVerdict.DIVERGENT
    ranks = [lv.rank for lv in r.levels]
    assert ranks[0] < ranks[1] < ranks[2]


def test_rank_sweep_slow_warning():
    r = rank_sweep(builtin("scalar_favorite"), [(8, 8), (10, 10), (12, 12)])
    assert "SLOW_TAYLOR_DECAY" in r.warnings


def test_rank_sweep_schedule_validation():
    th = builtin("scalar_z1z2")
    with pytest.raises(ValueError):
        rank_sweep(th, [(4, 4), (6, 6)])
    with pytest.raises(ValueError):
        rank_sweep(th, [(4, 4), (6, 6), (6, 8)])
    with pytest.raises(ValueError, match="negative"):
        rank_sweep(th, [(-2, -2), (-1, -1), (0, 0)])


def test_rank_sweep_refuses_fractional_levels():
    # a level that operator.index refuses names itself, before any level
    # runs; numpy integers are integral
    th = builtin("scalar_z1z2")
    for sched, bad in (([(4.9, 4.9), (6, 6), (8, 8)], r"\(4\.9, 4\.9\)"),
                       ([(4, 4), (6, 6.0), (8, 8)], r"\(6, 6\.0\)")):
        with pytest.raises(ValueError, match=bad + " is not a pair of integers"):
            rank_sweep(th, sched)
    report = rank_sweep(th, [(np.int64(4), np.int32(4)), (6, 6), (8, 8)])
    assert [(lv.A, lv.B) for lv in report.levels] == [(4, 4), (6, 6), (8, 8)]
    assert all(type(lv.A) is int for lv in report.levels)


def test_single_levels_refuse_fractional_boxes():
    # a box that operator.index refuses names itself at the one grid every
    # rank and Agler level builds its window from, not deep inside numpy
    for make, bad in ((lambda: rank_at_level(builtin("hadamard_z1z2"), 4.9, 4.9), r"\(4\.9, 4\.9\)"),
                      (lambda: agler_spaces(builtin("scalar_stable4"), 4.5, 4), r"\(4\.5, 4\)"),
                      (lambda: TruncGrid(2, "3", 1), r"\(2, 3\)")):
        with pytest.raises(ValueError, match="degree box " + bad + " is not a pair of integers"):
            make()
    assert TruncGrid(np.int64(2), np.int32(3), 1).dim == 12


def test_negative_boxes_are_rejected():
    th = builtin("hadamard_z1z2")
    for make in (lambda: TruncGrid(-1, 0, 2), lambda: ModelWorkspace.window(th, 0, -1),
                 lambda: rank_at_level(th, -1, 3), lambda: probe_model_basis(th, 2, -2)):
        with pytest.raises(ValueError, match="negative"):
            make()
    # the empty-degree box (0, 0) is a window
    assert rank_at_level(th, 0, 0).dim_model == 2


def test_decay_is_finite_exactly_for_constant_denominator():
    # the padded grid's edge lies past deg Theta, so the Taylor tail there
    # vanishes exactly when Theta is a polynomial: the rank floor and the
    # Agler null-space floor read p's degree instead of classifying the tail
    thetas = [builtin(name) for name in BUILTINS] + [scalar_z2n(3)]
    for kind in ("product", "diagonal", "conjugated"):
        thetas += generate_family(kind, 25, seed=42)
    assert {th.p.is_constant for th in thetas} == {True, False}
    for th in thetas:
        for A, B in ((0, 0), (1, 2), (4, 4), (8, 8)):
            padded = ModelWorkspace.window(th, A, B).padded
            table = expand(th, padded.A, padded.B)
            finite = tail_diagnostic(table).decay_class is DecayClass.FINITE
            assert finite == th.p.is_constant, (th.label, A, B)


def test_rank_invariant_under_unitary_conjugation():
    rng = np.random.default_rng(77)
    base = builtin("hadamard_z1z2")
    sched = [(4, 4), (6, 6), (8, 8)]
    ref = rank_sweep(base, sched)
    for _ in range(3):
        Q1, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        Q2, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        r = rank_sweep(unitary_conjugate(base, Q1, Q2), sched)
        assert r.stabilized_rank == ref.stabilized_rank
        assert r.verdict is ref.verdict


def test_interior_isometry_and_idempotence():
    rng = np.random.default_rng(5)
    for name in ("hadamard_z1z2", "scalar_stable4"):
        th = builtin(name)
        ws = ModelWorkspace(th, TruncGrid(8, 8, th.d))
        m1, m2 = th.deg
        small = TruncGrid(8 - m1, 8 - m2, th.d)
        f = rng.standard_normal(small.dim) + 1j * rng.standard_normal(small.dim)
        fp = small.embed(f, ws.padded)
        P = ws.padded
        iso = abs(np.linalg.norm(ws.mult(fp, P)) - np.linalg.norm(fp))
        pf = fp - ws.mult(ws.mult(fp, P, adjoint=True), P)
        idem = np.linalg.norm(pf - ws.mult(ws.mult(pf, P, adjoint=True), P) - pf)
        scale = np.linalg.norm(fp)
        if th.p.is_constant:
            bound = 1e-8 * scale
        else:
            bound = 10 * expand(th, ws.padded.A, ws.padded.B).tail_norm * scale
        assert iso <= bound
        assert idem <= bound


def test_shift_mult_roundtrip():
    g = TruncGrid(3, 2, 2)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(g.dim)
    w = shift_mult(v, g, 1)
    box_v = g.as_box(np.asarray(v, dtype=complex))
    box_w = g.as_box(w)
    assert np.allclose(box_w[1:], box_v[:-1])
    assert np.allclose(box_w[0], 0.0)


def test_probe_basis_orthonormal_and_sized():
    sub = probe_model_basis(builtin("hadamard_z1z2"), 6, 6)
    assert sub.dim == 14
    gram = sub.basis.conj().T @ sub.basis
    assert np.linalg.norm(gram - np.eye(sub.dim)) < 1e-10


# -- convolution engine against dense references ---------------------------

BUILTINS = ("diag_z1z2_1", "hadamard_deg21", "hadamard_z1z2", "scalar_favorite",
            "scalar_stable4", "scalar_z1z2")


def _defect_theta(name):
    if name == "diagonal006":  # deg1 p = 2, deg2 p = deg2 Q = 3
        return generate_family("diagonal", 25, seed=42)[6]
    if name == "seed7_d3_diagonal000":  # d = 3, p a polynomial in z2 alone
        return generate_family("diagonal", 25, d=3, seed=7, m1_cap=2, m2_cap=3)[0]
    if name == "hadamard_deg21/3":  # a constant p with p(0, 0) = 3
        th = builtin("hadamard_deg21")
        return require_inner(RationalInnerMatrix(th.d, th.Q.scale(3), th.p.scale(3), name))
    if name != "conjugated_stable4_favorite":
        return builtin(name)
    # a non-diagonal d = 2 rational Theta
    rng = np.random.default_rng(11)
    U, V = (np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
            for _ in range(2))
    return unitary_conjugate(diagonal([builtin("scalar_stable4"), builtin("scalar_favorite")]), U, V)


ALL_THETAS = list(BUILTINS) + ["scalar_z2n(3)", "conjugated_stable4_favorite"]
# ... and Theta whose boxes may be shorter than deg1 p or narrower than deg2 p
# and deg2 Q, with d = 3, or with a constant p other than 1
KERNEL_THETAS = ALL_THETAS + ["diagonal006", "seed7_d3_diagonal000", "hadamard_deg21/3"]


def _fft_mult(coeffs, grid, x, adjoint=False):
    """Multiplication by the coefficient block on the grid as an FFT convolution.

    The circular length 2A + 1 (2B + 1) keeps the wrap-around off degrees
    0..A (0..B) for the causal product and the anti-causal adjoint alike.
    """
    shape = (2 * grid.A + 1, 2 * grid.B + 1)
    kernel = np.fft.fft2(coeffs[: grid.A + 1, : grid.B + 1], s=shape, axes=(0, 1))
    box = np.asarray(x).reshape(grid.A + 1, grid.B + 1, grid.d, -1)
    spec = np.fft.fft2(box, s=shape, axes=(0, 1))
    if adjoint:
        kernel = kernel.conj().swapaxes(2, 3)
    out = np.fft.ifft2(kernel @ spec, axes=(0, 1))[: grid.A + 1, : grid.B + 1]
    return out.reshape(np.shape(x))


# The reference is the dense matrix ("direct") or an FFT convolution of the
# oracle's Taylor coefficients ("fft").  Inputs are real unit vectors and
# complex columns: a complex-coefficient Theta fed a real input must keep
# its imaginary part.  Q is applied both by its blocks and by the dense T_c,
# whichever of the two the box would take.
@pytest.mark.parametrize("reference", ["direct", "fft"])
@pytest.mark.parametrize("name", KERNEL_THETAS)
@pytest.mark.parametrize("A,B", [(3, 3), (4, 2), (2, 5), (0, 4), (4, 1)])
def test_convolution_operators_match_dense(name, A, B, reference, monkeypatch):
    th = _defect_theta(name)
    ws = ModelWorkspace(th, TruncGrid(A, B, th.d))
    n = ws.padded.dim
    coeffs = _expand_pointwise(th, ws.padded.A, ws.padded.B)
    M = analytic_mult(coeffs, ws.padded)
    P = ws.padded
    eye = np.eye(n)
    proj = eye - M @ M.conj().T
    work = ws.grid.indices_in(ws.padded)
    for dense_side in (0, np.inf):  # Q's blocks, then the dense T_c
        monkeypatch.setattr(modelspace, "_DENSE_SIDE", dense_side)
        rng = np.random.default_rng(A + 10 * B)
        for x in (eye, rng.standard_normal((n, 7)) + 1j * rng.standard_normal((n, 7))):
            if reference == "direct":
                ref, ref_h = M @ x, M.conj().T @ x
            else:
                ref = _fft_mult(coeffs, ws.padded, x)
                ref_h = _fft_mult(coeffs, ws.padded, x, adjoint=True)
            assert np.abs(ws.mult(x, P) - ref).max() < 1e-13
            assert np.abs(ws.mult(x, P, adjoint=True) - ref_h).max() < 1e-13
        assert np.abs(eye - ws.mult(ws.mult(eye, P, adjoint=True), P) - proj).max() < 1e-13
        # anti-causal identity: the padded projection cut to the working grid
        # is the projection built on the working grid alone
        assert np.abs(ws.grid_images(np.eye(ws.grid.dim))[1]
                      - proj[np.ix_(work, work)]).max() < 1e-13


@pytest.mark.parametrize("name", ["scalar_favorite", "scalar_stable4",
                                  "conjugated_stable4_favorite"])
def test_recursion_forward_error_at_64(name):
    # the z1-row recursion against an FFT convolution of the oracle's Taylor
    # coefficients on the padded (64,64) window, where a dense matrix would
    # take about 320 MB
    th = _defect_theta(name)
    ws = ModelWorkspace(th, TruncGrid(64, 64, th.d))
    coeffs = _expand_pointwise(th, ws.padded.A, ws.padded.B)
    rng = np.random.default_rng(64)
    n = ws.padded.dim
    x = rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6))
    for adjoint in (False, True):
        ref = _fft_mult(coeffs, ws.padded, x, adjoint)
        err = np.linalg.norm(ws.mult(x, ws.padded, adjoint) - ref, axis=0) \
            / np.linalg.norm(ref, axis=0)
        assert err.max() < 1e-12


@pytest.mark.parametrize("name", KERNEL_THETAS)
def test_sliced_operator_matches_fresh_operator(name):
    # every box of a window cuts the leading blocks of the kernel built on
    # its padded grid; they must act as a fresh window on the box does, also
    # on boxes that no coefficient block of Q reaches (scalar_z2n(3) with
    # B < 3)
    th = _defect_theta(name)
    ws = ModelWorkspace(th, TruncGrid(6, 5, th.d))
    rng = np.random.default_rng(3)
    for A, B in ((0, 0), (2, 1), (1, 2), (6, 5), (7, 5), (6, 6), (ws.padded.A, ws.padded.B)):
        box = TruncGrid(A, B, th.d)
        x = rng.standard_normal((box.dim, 4)) + 1j * rng.standard_normal((box.dim, 4))
        fresh = ModelWorkspace(th, box)
        for adjoint in (False, True):
            assert np.abs(ws.mult(x, box, adjoint) - fresh.mult(x, box, adjoint)).max() \
                <= 1e-15 * np.abs(x).max(), (A, B)


def _arrays(kernel):
    if isinstance(kernel, np.ndarray):
        return [kernel]
    if isinstance(kernel, (tuple, list)):
        return [a for part in kernel for a in _arrays(part)]
    return []


@pytest.mark.parametrize("name", ["scalar_stable4", "seed7_d3_diagonal000"])
def test_window_kernel_holds_nothing_larger_than_r0(name):
    # at (64,64) the window applies Q by its nonzero blocks and p by R_0 and
    # p's band on each of its boxes: it keeps no dense Toeplitz matrix of Q
    # or p beside R_0
    th = _defect_theta(name)
    ws = ModelWorkspace.window(th, 64, 64)
    for box in (ws.nominal, ws.grid, ws.padded):
        for adjoint in (False, True):
            ws.mult(np.ones((box.dim, 2)), box, adjoint)
    sizes = [a.size for a in _arrays(list(vars(ws).values()))]
    assert max(sizes) == ws.inv_p0.size == (ws.padded.B + 1) ** 2
    assert sizes.count(ws.inv_p0.size) == 1


def _outside_points(ws):
    outside = np.ones(ws.padded.dim, dtype=bool)
    outside[ws.grid.indices_in(ws.padded)] = False
    return np.flatnonzero(outside)


# (probe, working grid): square and non-square probes; for every Theta
# here the padded grid has more outside points than probe points in the
# first and third case, fewer in the second and fourth
DEFECT_CASES = [((5, 4), (8, 7)), ((10, 10), (10, 10)),
                ((3, 7), (4, 8)), ((14, 6), (14, 6))]


@pytest.mark.parametrize("name", ALL_THETAS)
def test_chopped_defect_matches_dense_columns(name, monkeypatch):
    th = _defect_theta(name)
    more = []
    for (pa, pb), (wa, wb) in DEFECT_CASES:
        probe = TruncGrid(pa, pb, th.d)
        ws = ModelWorkspace(th, TruncGrid(wa, wb, th.d))
        more.append(_outside_points(ws).size > probe.dim)
        M = dense_mult(th, ws.padded)
        cols = (np.eye(ws.padded.dim) - M @ M.conj().T)[:, probe.indices_in(ws.padded)]
        ref = float(np.linalg.norm(cols[_outside_points(ws)], axis=0).max())
        assert abs(ws.chopped_defect(probe) - ref) <= 1e-14 + 1e-12 * ref
        # one outside point per block, and blocks of three, the last one partial
        for points in (1, 3):
            with monkeypatch.context() as m:
                m.setattr(modelspace, "_DEFECT_BLOCK_POINTS", points)
                assert abs(ws.chopped_defect(probe) - ref) <= 1e-14 + 1e-12 * ref
    assert more == [True, False, True, False]


def _defect_windows():
    return [(builtin("scalar_stable4"), 24, 2e6),
            (generate_family("diagonal", 25, seed=42)[2], 32, 16e6)]


@pytest.mark.parametrize("theta,N,limit", _defect_windows(),
                         ids=["scalar_stable4-24", "diagonal002-32"])
def test_chopped_defect_blocks_bound_memory(theta, N, limit, monkeypatch):
    # the defect takes its outside points in small blocks: its traced peak
    # stays far below one block of every outside point, and the value is
    # that of one such block to round-off
    ws = ModelWorkspace.window(theta, N, N)
    ws.inv_p0  # the kernel belongs to the window, not to the defect
    tracemalloc.start()
    try:
        defect = ws.chopped_defect(ws.nominal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit
    outside = (ws.padded.A + 1) * (ws.padded.B + 1) - (ws.grid.A + 1) * (ws.grid.B + 1)
    assert outside > 4 * modelspace._DEFECT_BLOCK_POINTS
    monkeypatch.setattr(modelspace, "_DEFECT_BLOCK_POINTS", outside)
    assert abs(ws.chopped_defect(ws.nominal) - defect) <= 1e-15 * defect


def test_convolution_operators_vector_and_block_agree():
    th = builtin("hadamard_z1z2")
    ws = ModelWorkspace(th, TruncGrid(5, 3, 2))
    rng = np.random.default_rng(3)
    F = rng.standard_normal((ws.padded.dim, 4)) + 1j * rng.standard_normal((ws.padded.dim, 4))
    P = ws.padded
    block = F - ws.mult(ws.mult(F, P, adjoint=True), P)
    for k in range(4):
        assert np.allclose(F[:, k] - ws.mult(ws.mult(F[:, k], P, adjoint=True), P),
                           block[:, k], atol=1e-14)
    assert ws.mult(F[:, :0], P).shape == (ws.padded.dim, 0)


def test_polynomial_convolution_matches_scipy():
    rng = np.random.default_rng(5)
    for shape_a, shape_b in [((3, 2), (2, 4)), ((1, 1), (3, 3)), ((5, 1), (1, 5))]:
        a = rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)
        b = rng.standard_normal(shape_b) + 1j * rng.standard_normal(shape_b)
        assert np.abs(_convolve2d(a, b) - convolve2d(a, b)).max() < 1e-14
    # a stack of grids along trailing axes is convolved grid by grid
    a = rng.standard_normal((4, 3, 2, 5)) + 1j * rng.standard_normal((4, 3, 2, 5))
    b = rng.standard_normal((2, 3))
    y = _convolve2d(a, b)
    assert y.shape == (5, 5, 2, 5)
    for k in range(2):
        for i in range(5):
            assert np.abs(y[:, :, k, i] - convolve2d(a[:, :, k, i], b)).max() < 1e-14


def _dense_reference_basis(theta, work, probe):
    """Pivoted QR over every restricted probe column of the dense projection."""
    ws = ModelWorkspace(theta, work)
    M = dense_mult(theta, ws.padded)
    proj = np.eye(ws.padded.dim) - M @ M.conj().T
    cols = proj[:, probe.indices_in(ws.padded)][work.indices_in(ws.padded)]
    Q, R, _ = scipy.linalg.qr(cols, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    return Q[:, : int(np.sum(diag > 1e-8 * diag[0]))]


def _largest_angle_sine(U, V):
    assert U.shape == V.shape
    return float(np.linalg.norm(V - U @ (U.conj().T @ V), 2))


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("A,B", [(3, 3), (5, 2)])
def test_sketched_bases_span_dense_reference(name, A, B):
    th = builtin(name)
    grid = TruncGrid(A, B, th.d)
    sub = model_basis(th, grid)
    ref = _dense_reference_basis(th, grid, grid)
    assert _largest_angle_sine(sub.basis, ref) < 1e-12
    probe = probe_model_basis(th, A, B)
    ref = _dense_reference_basis(th, probe.grid, grid)
    assert _largest_angle_sine(probe.basis, ref) < 1e-12


def test_sketch_widens_until_it_is_not_full(monkeypatch):
    th = builtin("hadamard_z1z2")
    ref = probe_model_basis(th, 6, 6)
    calls = _sketch_widths(monkeypatch)
    # the first sketch takes min(rank bound 2 (7 + 7) = 28, model dimension
    # 7 + 7 = 14) plus the oversampling: start it at 4, below dimension 14,
    # so the next sketch takes the bound, 28 - 10 = 18
    monkeypatch.setattr(modelspace, "_SKETCH_OVERSAMPLE", -10)
    to_bound = probe_model_basis(th, 6, 6)
    # with deg and det_deg read as (0, 0) both rules give 4 columns at
    # oversampling 4, so only doubling reaches past dimension 14; the
    # headroom shrinks to (2, 2), still past the degree-7 support of the
    # projected probe monomials, so the span is the same on a smaller grid
    understated = builtin("hadamard_z1z2")
    understated.__dict__.update(deg=(0, 0), det_deg=(0, 0))
    monkeypatch.setattr(modelspace, "_SKETCH_OVERSAMPLE", 4)
    doubled = probe_model_basis(understated, 6, 6)
    assert calls == [[(4, 4), (18, 14)], [(4, 4), (8, 8), (16, 14)]]
    assert (doubled.grid.A, doubled.grid.B) == (8, 8) != (ref.grid.A, ref.grid.B)
    for sub in (to_bound, doubled):
        assert sub.dim == ref.dim == 14
        basis = sub.grid.embed(sub.basis, ref.grid)
        assert _largest_angle_sine(basis, ref.basis) < 1e-12


def test_sketch_keeps_a_direction_just_above_the_rank_rule():
    # A Hermitian stand-in for the projection: eleven spread-out directions
    # of weight 1 and one of weight 2e-8 on the monomial at index 0.  The
    # Ritz values of the projection keep the weak direction (2e-8 of the
    # largest), but the Gaussian sketch sees it below 1e-8 of its own
    # largest singular value, so a frame cut by the rank rule would drop it;
    # the frame is the sketch's plain QR, one orthonormal column per sample
    # column, and only the Ritz values decide the rank.  H = I - S S* for
    # the Hermitian S below, which stands in for Theta and Theta* wherever
    # model_span applies them: twice on the sample, once on the frame.
    th = builtin("scalar_stable4")
    grid = TruncGrid(6, 6, 1)
    rng = np.random.default_rng(7)
    G = rng.standard_normal((grid.dim, 12)) + 1j * rng.standard_normal((grid.dim, 12))
    G[0] = 0.0
    G[:, -1] = 0.0
    G[0, -1] = 1.0
    U, _ = np.linalg.qr(G)
    weights = np.r_[np.ones(11), 2e-8]
    H = (U * weights) @ U.conj().T
    S = np.eye(grid.dim) - (U * (1 - np.sqrt(1 - weights))) @ U.conj().T
    ws, widths = ModelWorkspace(th, grid), []
    ws.mult = lambda x, box, adjoint=False: widths.append(x.shape[1]) or S @ x
    sig = np.linalg.svd(H, compute_uv=False)
    assert np.sum(sig > 1e-8 * sig[0]) == 12
    span, adj, ritz = ws.model_span(grid)
    assert widths[-3:] == [widths[-1]] * 3 and widths[-1] > 12
    assert np.abs(span.conj().T @ span - np.eye(span.shape[1])).max() < 1e-13
    assert span.shape[1] == 12
    assert _largest_angle_sine(span, U) < 1e-6
    assert np.abs(adj - S @ span).max() < 1e-13
    assert np.abs(H @ span - span * ritz).max() < 1e-13
    assert np.abs(np.sort(ritz) - np.sort(weights)).max() < 1e-13


def test_workspace_holds_no_square_array():
    th = builtin("hadamard_z1z2")
    sub = model_basis(th, TruncGrid(40, 40, 2))
    compressed_shift(th, sub, 1)
    ws = sub.workspace
    limit = ws.grid.dim ** 2
    seen, stack, sizes = set(), [ws], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            sizes.append(obj.size)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__") and type(obj).__module__.startswith("bidisklab"):
            stack.extend(vars(obj).values())
    assert sizes and max(sizes) < limit


def _padded_chopped_mass(ws, probe, from_probe):
    """Largest norm over the outside points of the padded M M* e_m, m in `probe`."""
    rows, outside = probe.indices_in(ws.padded), _outside_points(ws)
    apply, read = (rows, outside) if from_probe else (outside, rows)
    P = ws.padded
    mass = np.zeros(rows.size)
    for start in range(0, apply.size, 64):
        cols = apply[start: start + 64]
        unit = np.zeros((ws.padded.dim, cols.size))
        unit[cols, np.arange(cols.size)] = 1.0
        chopped = np.abs(ws.mult(ws.mult(unit, P, adjoint=True), P)[read]) ** 2
        if from_probe:
            mass[start: start + cols.size] = chopped.sum(axis=0)
        else:
            mass += chopped.sum(axis=1)
    return float(np.sqrt(mass.max()))


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("N", [4, 24])
def test_chopped_defect_sides_agree(name, N):
    # the gathered-block defect against M M* on the padded grid, applied to
    # the probe monomials and to the outside unit vectors
    th = builtin(name)
    ws = ModelWorkspace.window(th, N, N)
    probe = ws.nominal
    defect = ws.chopped_defect(probe)
    for from_probe in (True, False):
        ref = _padded_chopped_mass(ws, probe, from_probe)
        assert abs(defect - ref) <= 1e-15 + 1e-12 * ref


# Goldens of rank_at_level at the benchmark's windows: (name, N, rank,
# model dim, chopped defect, leading singular values).  The defect sets the
# floor, so it decides the rank of these rational Theta.
RANK_GOLDENS = [
    ("scalar_stable4", 16, 1, 33, 0.0015916791086831182,
     (0.9955555555555555, 3.294628056752623e-05, 2.708370483071913e-06,
      1.4032390952344465e-07, 9.747063651323073e-09, 7.041639182763849e-10)),
    ("scalar_stable4", 24, 1, 49, 0.0015916791086831147,
     (0.9955555555555562, 3.2946280566695716e-05, 2.708370483099854e-06,
      1.4032390887294391e-07, 9.747063651689567e-09, 7.04163990005286e-10)),
    ("scalar_favorite", 16, 1, 33, 0.07115270361891349,
     (0.8877736974281489, 0.07385853008598985, 0.039434944243188795,
      0.024175481052128137, 0.01982308190671865, 0.011858742475425177)),
    ("scalar_favorite", 24, 1, 49, 0.07116089679177419,
     (0.8882468991251923, 0.07753515936993038, 0.04135975330894958,
      0.026687673343780426, 0.022530511153844118, 0.017064186137147233)),
]


@pytest.mark.parametrize("name,N,rank,dim,defect,sigmas", RANK_GOLDENS,
                         ids=[f"{g[0]}-{g[1]}" for g in RANK_GOLDENS])
def test_rank_level_and_floor_match_goldens(name, N, rank, dim, defect, sigmas):
    th = builtin(name)
    level = rank_at_level(th, N, N)
    assert (level.rank, level.dim_model, level.sigmas.size) == (rank, dim, dim)
    assert np.abs(level.sigmas[: len(sigmas)] - sigmas).max() <= 1e-12 * sigmas[0]
    ws = ModelWorkspace.window(th, N, N)
    assert abs(ws.chopped_defect(ws.nominal) - defect) <= 1e-12 * defect


# -- one projection pass per level, operators only ---------------------------

def _sketch_widths(monkeypatch):
    """Record, per model_span call, (sample width, rank) of each of its
    sketches: the frame has a column per sample column, and the rank is the
    one decision inside model_span, the Ritz count of a whole-grid probe
    (``_ritz_pairs``) or the coordinate rank of a smaller one (``_orth_columns``)."""
    calls, inside, span = [], [], ModelWorkspace.model_span

    def spy_span(self, probe):
        calls.append([])
        inside.append(calls[-1])
        try:
            return span(self, probe)
        finally:
            inside.pop()

    def spy(decide, width):
        def wrapped(cols):
            out = decide(cols)
            if inside:
                inside[-1].append((width(cols), out[0].shape[1] if isinstance(out, tuple)
                                   else out.shape[1]))
            return out
        return wrapped

    monkeypatch.setattr(ModelWorkspace, "model_span", spy_span)
    monkeypatch.setattr(modelspace, "_orth_columns",
                        spy(modelspace._orth_columns, lambda cols: cols.shape[0]))
    monkeypatch.setattr(modelspace, "_ritz_pairs",
                        spy(modelspace._ritz_pairs, lambda adj: adj.shape[1]))
    return calls


def test_first_sketch_is_never_full(monkeypatch):
    calls, expected = _sketch_widths(monkeypatch), 0
    for name in BUILTINS:
        th = builtin(name)
        for N in (4, 8, 16, 24):
            rank_at_level(th, N, N)
            probe_model_basis(th, N, N)
        # a polynomial Theta's rank levels sketch only its one small Agler
        # level, the family read, once per Theta
        expected += 4 + (1 if th.p.is_constant else 4)
    for kind in ("product", "diagonal"):
        for th in generate_family(kind, 25, seed=42):
            rank_sweep(th, [(4, 4), (6, 6), (8, 8)])
            expected += 1 if th.p.is_constant else 3
    assert len(calls) == expected == 124
    for sketches in calls:
        assert len(sketches) == 1
        width, rank = sketches[0]
        assert rank < width


def _ritz_windows():
    """Whole-grid windows of the rational builtins at 4/8/16/24 and of the
    seed-42 rational diagonal items at 4/6/8, as (Theta, N)."""
    out = [(builtin(name), N) for name in ("scalar_favorite", "scalar_stable4")
           for N in (4, 8, 16, 24)]
    items = [th for th in generate_family("diagonal", 25, seed=42) if not th.p.is_constant]
    return out + [(th, N) for th in items for N in (4, 6, 8)]


def _span_and_frame(ws):
    """``model_span`` of the working grid with the frame F it took, the last
    block it applied Theta* to."""
    blocks, mult = [], ws.mult
    ws.mult = lambda x, box, adjoint=False: (adjoint and blocks.append(x)) or mult(x, box, adjoint)
    try:
        return ws.model_span(ws.grid), blocks[-1]
    finally:
        del ws.mult


def _check_ritz_route(ws, frame, span, ritz, key):
    """The basis rank is the rank_count of the singular values of P F, the
    Ritz values are those singular values, and the basis lies in the frame."""
    sig = np.linalg.svd(ws.grid_images(frame)[1], compute_uv=False)
    assert span.shape[1] == ritz.size == rank_count(sig), key
    assert np.abs(ritz - sig[: ritz.size]).max() <= 1e-12 * ritz[0], key
    assert np.abs(frame @ (frame.conj().T @ span) - span).max() <= 1e-12, key


def test_ritz_values_are_the_singular_values_of_the_projected_frame(monkeypatch):
    for th, N in _ritz_windows():
        ws = ModelWorkspace.window(th, N, N)
        (span, _, ritz), frame = _span_and_frame(ws)
        _check_ritz_route(ws, frame, span, ritz, (th.label, N))
    # a first sketch below the model dimension comes back full, so the
    # widening loop runs on Ritz counts: 14 columns hold 14 directions, the
    # next sketch takes twice as many and holds the 23 of the working grid
    th = builtin("scalar_stable4")
    ws = ModelWorkspace.window(th, 8, 8)
    ref = ws.model_span(ws.grid)
    calls = _sketch_widths(monkeypatch)
    monkeypatch.setattr(modelspace, "_SKETCH_OVERSAMPLE", -10)
    (span, adj, ritz), frame = _span_and_frame(ws)
    assert calls == [[(14, 14), (28, 23)]] and ref[0].shape[1] == 23
    _check_ritz_route(ws, frame, span, ritz, "widened")
    assert _largest_angle_sine(span, ref[0]) < 1e-12
    assert np.abs(ritz - ref[2]).max() <= 1e-12 * ref[2][0]


def test_rational_level_applies_theta_three_times(monkeypatch):
    # one sketch pass of a rational level applies Theta* and Theta to the
    # sample and Theta* to the frame; the shift applies nothing, and the
    # chopped defect applies Theta on the nominal box.  compressed_shift
    # applies Theta* once
    applied, mult, defect = [], ModelWorkspace.mult, ModelWorkspace.chopped_defect
    in_defect = []

    def spy_mult(self, x, box, adjoint=False):
        applied.append(("defect" if in_defect else (box.A, box.B), adjoint))
        return mult(self, x, box, adjoint)

    def spy_defect(self, probe):
        in_defect.append(True)
        try:
            return defect(self, probe)
        finally:
            in_defect.pop()

    monkeypatch.setattr(ModelWorkspace, "mult", spy_mult)
    monkeypatch.setattr(ModelWorkspace, "chopped_defect", spy_defect)
    for name in ("scalar_favorite", "scalar_stable4"):
        th = builtin(name)
        for N in (4, 16, 24):
            ws = ModelWorkspace.window(th, N, N)
            applied.clear()
            rank_at_level(th, N, N)
            grid = (ws.grid.A, ws.grid.B)
            sketch = [(grid, True), (grid, False), (grid, True)]
            assert [a for a in applied if a[0] != "defect"] == sketch, (name, N)
            assert ("defect", False) in applied, (name, N)
        basis = model_basis(th, TruncGrid(9, 7, th.d))
        applied.clear()
        compressed_shift(th, basis, 2)
        assert applied == [((9, 7), True)], name


def _spy_kernels(monkeypatch):
    """Record the kernels windows build, the boxes Theta is applied on, and
    each call of ``_denominator_kernel`` with whether a kernel build made it.

    Every original is captured before anything is patched, and
    ``_denominator_kernel`` is rebound in every module that binds it.
    """
    built, applied, denominators, building = [], [], [], []
    kernel, mult, den = modelspace._rational_kernel, ModelWorkspace.mult, taylor._denominator_kernel

    def spy_kernel(theta, grid):
        built.append((grid.A, grid.B))
        building.append(grid)
        try:
            return kernel(theta, grid)
        finally:
            building.pop()

    def spy_mult(self, x, box, adjoint=False):
        applied.append((box.A, box.B))
        return mult(self, x, box, adjoint)

    def spy_den(poly, A, B):
        denominators.append((A, B, bool(building)))
        return den(poly, A, B)

    monkeypatch.setattr(modelspace, "_rational_kernel", spy_kernel)
    monkeypatch.setattr(ModelWorkspace, "mult", spy_mult)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("bidisklab") \
                and getattr(module, "_denominator_kernel", None) is den:
            monkeypatch.setattr(module, "_denominator_kernel", spy_den)
    assert modelspace._denominator_kernel is taylor._denominator_kernel is spy_den
    return built, applied, denominators


def test_rank_level_builds_no_padded_grid_operator(monkeypatch):
    # a rational rank level builds one kernel, on its padded grid, and p's
    # R_0 and R_c only inside that build: the chopped defect reads Theta's
    # coefficients off it.  Theta is never applied on the padded grid.  A
    # polynomial level builds no kernel on its window, only on the small
    # Agler level its Wold family comes from.  A sweep's only other p-kernel
    # is its decay probe's, for rational Theta only
    built, applied, denominators = _spy_kernels(monkeypatch)
    probed, probe = [], modelspace.decay_class

    def spy_probe(theta, schedule=None):
        probed.append(schedule)
        return probe(theta, schedule)

    monkeypatch.setattr(modelspace, "decay_class", spy_probe)

    def clear():
        for seen in (built, applied, denominators, probed):
            seen.clear()

    th = builtin("scalar_stable4")
    padded = ModelWorkspace.window(th, 8, 8).padded
    rank_at_level(th, 8, 8)
    assert built == [(padded.A, padded.B)]
    assert applied and (padded.A, padded.B) not in applied
    assert denominators == [(padded.A, padded.B, True)]
    th = builtin("hadamard_z1z2")  # deg (1, 1): its Agler level is the (1, 1) window
    small = ModelWorkspace.window(th, 1, 1).padded
    clear()
    rank_at_level(th, 8, 8)
    assert built == [(small.A, small.B)]
    assert applied and all(a <= small.A and b <= small.B for a, b in applied)
    assert ModelWorkspace.window(th, 8, 8).grid.A > small.A
    assert denominators == [(small.A, small.B, True)]
    sched = [(4, 4), (6, 6), (8, 8)]
    for name in ("hadamard_z1z2", "scalar_stable4"):
        th = builtin(name)
        clear()
        rank_sweep(th, sched)
        assert probed == [sched], name
        windows = [(small.A, small.B)] if th.p.is_constant else [
            (ws.padded.A, ws.padded.B) for ws in (ModelWorkspace.window(th, A, B)
                                                  for A, B in sched)]
        assert sorted(built) == sorted(windows), name
        assert sorted((A, B) for A, B, inside in denominators if inside) == sorted(windows)
        probes = [] if th.p.is_constant else [(modelspace.DECAY_PROBE_DEPTH,) * 2]
        assert [(A, B) for A, B, inside in denominators if not inside] == probes, name


@pytest.mark.parametrize("name", ["hadamard_z1z2", "scalar_stable4"])
def test_agler_spaces_build_one_kernel(name, monkeypatch):
    # the model basis, the invariance block and the noise floor all apply the
    # one window's Theta, so one call builds one kernel and one p-kernel.  A
    # polynomial level is assembled from its Wold family: it builds and
    # applies exactly what the family's sketch level at (1, 1) does, and
    # applies Theta nowhere on its own window
    built, applied, denominators = _spy_kernels(monkeypatch)
    th = builtin(name)
    ws = ModelWorkspace.window(th, 6, 6)
    agler_spaces(th, 6, 6)
    if not th.p.is_constant:
        assert built == [(ws.padded.A, ws.padded.B)]
        assert denominators == [(ws.padded.A, ws.padded.B, True)]
        assert (ws.grid.A + 6, ws.grid.B) in applied  # the invariance block's deep box
        return
    small = ModelWorkspace.window(th, 1, 1).padded
    assert th.deg == (1, 1) and ws.grid.A > small.A and ws.grid.B > small.B
    assert built == [(small.A, small.B)]
    assert denominators == [(small.A, small.B, True)]
    assert applied and all(a <= small.A and b <= small.B for a, b in applied)
    seen = [list(spied) for spied in (built, applied, denominators)]
    for spied in (built, applied, denominators):
        spied.clear()
    agler._sketch_spaces(th, 1, 1)
    assert seen == [built, applied, denominators]


def test_mult_rejects_boxes_the_kernel_does_not_cover():
    th = builtin("scalar_stable4")
    ws = ModelWorkspace(th, TruncGrid(4, 4, th.d))
    tall = TruncGrid(2, ws.padded.B + 1, th.d)
    with pytest.raises(ValueError, match="taller in z2"):
        ws.mult(np.zeros(tall.dim), tall)
    with pytest.raises(ValueError, match="taller in z2"):
        ws.mult(np.zeros(tall.dim), tall, adjoint=True)
    with pytest.raises(ValueError, match="vector length"):
        ws.mult(np.zeros(ws.grid.dim + 1), ws.grid)
    with pytest.raises(ValueError, match="grid dimension"):
        ws.mult(np.zeros(ws.grid.dim * 2), TruncGrid(4, 4, 2))
    # a z1-extent past the padded grid is covered: the kernel holds every z1-shift
    long = TruncGrid(ws.padded.A + 5, 3, th.d)
    x = np.random.default_rng(2).standard_normal(long.dim)
    assert np.abs(ws.mult(x, long) - ModelWorkspace(th, long).mult(x, long)).max() \
        <= 1e-15 * np.abs(x).max()


def _reference_level(th, N):
    """rank_at_level rebuilt from the public stages, every projection applied afresh."""
    m1, m2 = th.deg
    work = TruncGrid(N + m1 + 2, N + m2 + 2, th.d)
    basis = model_basis(th, work)
    C = commutator(compressed_shift(th, basis, 1))
    probe = TruncGrid(N, N, th.d)
    coords = basis.workspace.grid_images(basis.basis)[1][probe.indices_in(work)].conj().T
    Q, R, _ = scipy.linalg.qr(coords, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    X = Q[:, : int(np.sum(diag > RANK_REL_TOL * diag[0]))]
    floor = modelspace.RANK_ABS_TOL
    if not th.p.is_constant:
        floor = max(floor, modelspace.TRUNC_NOISE_SLACK * basis.workspace.chopped_defect(probe))
    return numerical_rank(X.conj().T @ C @ X, tol_abs=floor)


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("N", [4, 12, 24])
def test_rank_level_matches_fresh_projections(name, N):
    th = builtin(name)
    level = rank_at_level(th, N, N)
    rank, sig = _reference_level(th, N)
    assert (level.rank, level.dim_model, level.sigmas.size) == (rank, sig.size, sig.size)
    assert np.abs(level.sigmas - sig).max() <= 1e-12 * sig[0]


def _shift_cases():
    """The Theta of the shift oracle test: four builtins, the seed-42
    diagonal002 (rational, d = 1) and the seed-7 d = 3 diagonal000 (rational)."""
    thetas = [builtin(name) for name in ("scalar_stable4", "scalar_favorite",
                                         "hadamard_z1z2", "hadamard_deg21")]
    thetas.append(generate_family("diagonal", 25, seed=42)[2])
    thetas.append(generate_family("diagonal", 25, d=3, seed=7, m1_cap=2, m2_cap=3)[0])
    return thetas


@pytest.mark.parametrize("theta", _shift_cases(), ids=lambda th: th.label)
def test_compressed_shift_matches_the_raised_box(theta):
    # the shift continued from Theta* B, against Theta* applied to z_j B on
    # the raised box, on the sketch bases and on a basis outside the model
    # space, for both variables
    rng = np.random.default_rng(3)
    grid = TruncGrid(7, 9, theta.d)
    G = rng.standard_normal((grid.dim, 10)) + 1j * rng.standard_normal((grid.dim, 10))
    bases = [model_basis(theta, grid), probe_model_basis(theta, 6, 5),
             Subspace(grid, np.linalg.qr(G)[0])]
    for basis in bases:
        ws = basis.workspace_for(theta)
        adj = ws.mult(basis.basis, basis.grid, adjoint=True)
        for j in (1, 2):
            S, ref = compressed_shift(theta, basis, j), raised_box_shift(ws, basis, adj, j)
            assert np.abs(S - ref).max() <= 1e-13 * np.linalg.norm(ref, 2), (basis.label, j)


def test_compressed_shift_of_an_empty_basis():
    # a constant unitary Theta has the zero model space: its compressed
    # shifts, its Agler spaces' shift and the kernel formula are empty or
    # zero, and its (0, 0) rank level, which takes the sketch, is empty
    th = scalar_z2n(0)
    basis = model_basis(th, TruncGrid(4, 4, 1))
    assert basis.dim == 0
    for j in (1, 2):
        assert compressed_shift(th, basis, j).shape == (0, 0), j
    spaces = agler_spaces(th, 8, 8)
    assert spaces.model.dim == 0 and spaces.shift.shape == (0, 0)
    cmp = agler.commutator_kernel_formula(th, spaces, (0.3, 0.2 + 0.1j), [1.0])
    for vec in dataclasses.astuple(cmp):
        assert vec.shape == (spaces.model.grid.dim,) and np.abs(vec).max() <= 1e-15
    level = rank_at_level(th, 0, 0)
    assert (level.dim_model, level.rank, level.sigmas.size) == (0, 0, 0)


@pytest.mark.parametrize("name", list(BUILTINS) + ["scalar_z2n(3)"])
def test_sweep_shares_one_table_bitwise(name):
    # every sweep level is bitwise the level rank_at_level computes afresh
    th = builtin(name)
    sched = [(4, 5), (6, 7), (9, 8)]
    report = rank_sweep(th, sched)
    for (A, B), level in zip(sched, report.levels):
        fresh = rank_at_level(th, A, B)
        assert (level.rank, level.dim_model) == (fresh.rank, fresh.dim_model)
        assert np.array_equal(level.sigmas, fresh.sigmas)


# -- Wold bases of polynomial Theta against the sketch ------------------------

def _wold_items(group):
    """Polynomial Theta of one test group: the builtins, a seed-42 family, or
    the seed-7 product and diagonal items of size d with caps (2, 3)."""
    if group == "builtins":
        return [builtin(n) for n in ("diag_z1z2_1", "hadamard_deg21", "hadamard_z1z2",
                                     "scalar_z1z2", "scalar_z2n(3)")]
    if group.startswith("seed7"):
        d = int(group[-1])
        thetas = [th for kind in ("product", "diagonal")
                  for th in generate_family(kind, 25, d=d, seed=7, m1_cap=2, m2_cap=3)]
    else:
        thetas = generate_family(group, 25, seed=42)
    return [th for th in thetas if th.p.is_constant]


WOLD_GROUPS = ("builtins", "product", "diagonal", "conjugated", "seed7-d2", "seed7-d3")


@pytest.mark.parametrize("group", WOLD_GROUPS)
def test_wold_level_matches_the_sketch_level(group, monkeypatch):
    # the same dims, ranks and spectra as the sketch; every Wold column lies
    # in the sketch span and in the model space, and the two nominal
    # compressions span one space (the sketch may hold window-edge
    # directions the Wold basis lacks; the compression drops them).  The
    # sketch's compression is read off the nominal rows of P B = B diag(ritz),
    # as the sketch level builds it
    spans, span = [], ModelWorkspace.model_span
    monkeypatch.setattr(ModelWorkspace, "model_span",
                        lambda ws, probe: spans.append(span(ws, probe)) or spans[-1])
    items = _wold_items(group)
    assert items
    for th in items:
        wold = modelspace._wold_family(th)
        assert wold is not None, th.label
        for N in (4, 8, 16):
            ws = ModelWorkspace.window(th, N, N)
            rows = ws.nominal.indices_in(ws.grid)
            spans.clear()
            ref = modelspace._rank_level(ws, None)
            level = modelspace._rank_level(ws, wold)
            key = (th.label, N)
            assert (level.dim_model, level.rank) == (ref.dim_model, ref.rank), key
            assert np.abs(level.sigmas - ref.sigmas).max() <= 1e-12 * ref.sigmas[0], key
            sketch, _, ritz = spans[0]
            wb = _wold_basis(wold, ws.grid)
            assert np.linalg.norm(sketch.conj().T @ wb, axis=0).min() >= 1 - 1e-12, key
            assert np.abs(ws.mult(wb, ws.grid, adjoint=True)).max() <= 1e-12, key
            X = modelspace._orth_columns((sketch[rows] * ritz).conj().T)
            Xw = modelspace._orth_columns(wb[rows].conj().T)
            assert _largest_angle_sine(sketch @ X, wb @ Xw) <= 1e-12, key


# nominal boxes below, at and just above the family's degree boxes, and
# boxes whose z1 or z2 side alone is below deg Theta - 1
SMALL_BOXES = [(0, 0), (1, 1), (2, 2), (3, 3), (1, 4), (4, 1), (2, 7), (7, 2), (5, 5),
               (8, 8), (12, 9)]


@pytest.mark.parametrize("group", WOLD_GROUPS)
def test_wold_level_matches_the_sketch_on_small_boxes(group, monkeypatch):
    # rank_at_level routes each box by the family level: a box below it, in
    # z1 or in z2, is the sketch level, bitwise; a box at or above it runs in
    # Wold coordinates, with the sketch's dims, ranks and spectrum, and runs
    # no SVD there, since the edge cuts come with the family
    routed, svds = [], []
    coordinates, svd = modelspace._wold_coordinates, np.linalg.svd

    def counting_coordinates(ws, wold):
        before = len(svds)
        out = coordinates(ws, wold)
        routed.append((ws.nominal.A, ws.nominal.B, len(svds) - before))
        return out

    monkeypatch.setattr(modelspace, "_wold_coordinates", counting_coordinates)
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: svds.append(args) or svd(*args, **kw))
    sketch_level = one_blas_thread(modelspace._rank_level)  # as rank_at_level runs it
    for th in _wold_items(group):
        f1, f2 = _family_level(th)
        for A, B in SMALL_BOXES:
            routed.clear()
            level = rank_at_level(th, A, B)
            ref = sketch_level(ModelWorkspace.window(th, A, B), None)
            key = (th.label, A, B)
            assert (level.dim_model, level.rank) == (ref.dim_model, ref.rank), key
            if A < f1 or B < f2:
                assert routed == [] and np.array_equal(level.sigmas, ref.sigmas), key
                continue
            assert routed == [(A, B, 0)], key
            scale = ref.sigmas.max(initial=0.0)
            assert np.abs(level.sigmas - ref.sigmas).max(initial=0.0) <= 1e-12 * scale, key


def test_wold_level_forms_no_working_grid_array():
    # a Wold level never forms its d (A_w + 1)(B_w + 1) x dim basis on the
    # working grid, so its traced peak stays below that one block
    th = builtin("hadamard_z1z2")
    ws = ModelWorkspace.window(th, 64, 64)
    rank_at_level(th, 4, 4)  # caches on Theta and first-call allocations
    tracemalloc.start()
    try:
        level = rank_at_level(th, 64, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (m1, m2), (n1, n2) = th.deg, th.det_deg
    columns = (ws.grid.A - m1 + 1) * n2 + (ws.grid.B - m2 + 1) * n1
    assert level.dim_model == 130
    assert peak < ws.grid.dim * columns * np.dtype(complex).itemsize


def test_wold_level_rejects_a_family_that_is_not_orthonormal():
    th = builtin("hadamard_z1z2")
    wold = modelspace._wold_family(th)
    modelspace._rank_level(ModelWorkspace.window(th, 8, 8), wold)
    with pytest.raises(ValueError, match="basis columns not orthonormal"):
        modelspace._rank_level(ModelWorkspace.window(th, 8, 8),
                               wold._replace(phi=1.01 * wold.phi))


@pytest.mark.parametrize("group", WOLD_GROUPS)
def test_wold_coordinates_match_the_dense_basis_entrywise(group):
    # S and the Gram assembled from small degree boxes against B* (z1 B) and
    # B* B of the basis the oracle places on the working grid, entry by entry
    for th in _wold_items(group):
        wold = modelspace._wold_family(th)
        m1, m2 = th.deg
        for A, B in ((4, 4), (8, 8), (12, 9)):
            ws = ModelWorkspace.window(th, A, B)
            wb = _wold_basis(wold, ws.grid)
            K1, K2 = ws.grid.A - m1 + 1, ws.grid.B - m2 + 1
            key = (th.label, A, B)
            S = modelspace._wold_coordinates(ws, wold)[0]
            assert np.abs(S - wb.conj().T @ shift_mult(wb, ws.grid, 1)).max() <= 1e-13, key
            gram = modelspace._wold_gram(wold, K1, K2, 0)
            assert np.linalg.norm(gram - wb.conj().T @ wb) <= 1e-13, key


@pytest.mark.parametrize("group", WOLD_GROUPS)
def test_wandering_vectors_stay_in_their_degree_boxes(group):
    for th in _wold_items(group):
        (m1, m2), (n1, n2) = th.deg, th.det_deg
        spaces = agler_spaces(th, *_family_level(th))
        assert (spaces.hkmax1.dim, spaces.hkmin2.dim) == (n2, n1), th.label
        for space, (a, b) in ((spaces.hkmax1, (m1, m2 - 1)), (spaces.hkmin2, (m1 - 1, m2))):
            box = space.grid.as_box(space.basis).copy()
            box[: a + 1, : b + 1] = 0.0
            assert np.abs(box).max(initial=0.0) <= 1e-13, th.label


def test_mismatched_wandering_dims_fall_back_to_the_sketch(monkeypatch):
    # a family read one W1 vector short is refused: rank levels and Agler
    # spaces above the family's level run the sketch, bitwise
    th = generate_family("conjugated", 1, seed=42)[0]
    sched = [(4, 4), (6, 6), (8, 8)]
    wold_report = rank_sweep(th, sched)
    real = agler._sketch_spaces
    level = _family_level(th)

    def one_short(theta, A, B):
        spaces = real(theta, A, B)
        if (A, B) != level:
            return spaces
        w1 = spaces.hkmax1
        return dataclasses.replace(spaces, hkmax1=Subspace(w1.grid, w1.basis[:, 1:]))

    monkeypatch.setattr(agler, "_sketch_spaces", one_short)
    th = generate_family("conjugated", 1, seed=42)[0]  # the sweep cached the good family
    assert modelspace._wold_family(th) is None and th.wold is None
    spaces, ref = agler_spaces(th, 8, 8), one_blas_thread(real)(th, 8, 8)
    for name in ("model", "smax1", "smin2", "hkmax1", "hkmin2"):
        assert np.array_equal(getattr(spaces, name).basis, getattr(ref, name).basis), name
    report = rank_sweep(th, sched)
    sketch_level = one_blas_thread(modelspace._rank_level)  # as the sweep runs it
    for (A, B), level, wold_level in zip(sched, report.levels, wold_report.levels):
        ref = sketch_level(ModelWorkspace.window(th, A, B), None)
        assert np.array_equal(level.sigmas, ref.sigmas) and level.rank == ref.rank
        assert (level.dim_model, level.rank) == (wold_level.dim_model, wold_level.rank)
        assert np.abs(level.sigmas - wold_level.sigmas).max() <= 1e-12 * level.sigmas[0]


def _agler_level_boxes(th, deepest):
    """Square and asymmetric boxes at and above the level (max(m1, 1),
    max(m2, 1)) that a polynomial Theta's Wold family is read at, up to
    (deepest, deepest)."""
    f1, f2 = _family_level(th)
    boxes = [(f1, f2), (f1, f2 + 3), (f1 + 4, f2 + 1), (12, 12), (deepest, deepest)]
    return sorted({(max(A, f1), max(B, f2)) for A, B in boxes})


@pytest.mark.parametrize("group", WOLD_GROUPS)
def test_wold_edge_cuts_span_what_the_level_svds_keep(group):
    # the family's edge cuts give what the per-level work they replace gave:
    # the Wold Agler level's wandering spaces are those the shift Grams of
    # its smax1 and smin2 give (agler._wandering), and the rank level's
    # compression X spans the directions of one SVD of all the nominal rows
    # of the Wold basis
    wold_spaces = one_blas_thread(agler._wold_spaces)
    for th in _wold_items(group):
        wold = modelspace._wold_family(th)
        for A, B in _agler_level_boxes(th, 16 if group == "builtins" else 12):
            key = (th.label, A, B)
            spaces = wold_spaces(th, wold, A, B)
            for j, space, whole in ((1, spaces.hkmax1, spaces.smax1),
                                    (2, spaces.hkmin2, spaces.smin2)):
                ref = agler._wandering(th, whole, j, True).basis
                assert space.basis.shape == ref.shape, key + (j,)
                assert _largest_angle_sine(space.basis, ref) <= 1e-12, key + (j,)
            ws = ModelWorkspace.window(th, A, B)
            X = modelspace._wold_coordinates(ws, wold)[1]
            wb = _wold_basis(wold, ws.grid)
            Xw = modelspace._orth_columns(wb[ws.nominal.indices_in(ws.grid)].conj().T)
            assert X.shape == Xw.shape, key
            assert _largest_angle_sine(X, Xw) <= 1e-12, key


@pytest.mark.parametrize("group", WOLD_GROUPS)
def test_wold_agler_level_matches_the_sketch(group):
    # at and above the family's level agler_spaces assembles its spaces from
    # the Wold family: the sketch level's dims and spans, every space.  The
    # sketch reference at (16, 16) takes 50 ms a Theta for d = 3, so only
    # the builtins go that deep
    items = _wold_items(group)
    assert items
    sketch = one_blas_thread(agler._sketch_spaces)
    for th in items:
        for A, B in _agler_level_boxes(th, 16 if group == "builtins" else 12):
            spaces, ref = agler_spaces(th, A, B), sketch(th, A, B)
            key = (th.label, A, B)
            assert spaces.model.grid == ref.model.grid, key
            for name in ("model", "smax1", "smin2", "hkmax1", "hkmin2"):
                got, want = getattr(spaces, name).basis, getattr(ref, name).basis
                assert got.shape == want.shape, key + (name,)
                assert _largest_angle_sine(got, want) <= 1e-12, key + (name,)


def test_agler_levels_below_the_family_run_the_sketch():
    # below the level (2, 1) of hadamard_deg21's family the answers stay the
    # sketch's, where a Wold assembly would differ; A = 0 has no invariance
    # depth and is refused
    th = builtin("hadamard_deg21")
    sketch = one_blas_thread(agler._sketch_spaces)
    for (A, B), dims in (((1, 1), (3, 3)), ((1, 4), (3, 9))):
        spaces, ref = agler_spaces(th, A, B), sketch(th, A, B)
        assert (spaces.smax1.dim, spaces.smin2.dim) == dims, (A, B)
        for name in ("model", "smax1", "smin2", "hkmax1", "hkmin2"):
            assert np.array_equal(getattr(spaces, name).basis, getattr(ref, name).basis)
    with pytest.raises(ValueError, match="invariance depth"):
        agler_spaces(th, 0, 4)


@pytest.mark.parametrize("group", WOLD_GROUPS)
def test_agler_family_level_runs_one_sketch(group, monkeypatch):
    # at exactly the family's level the first call reads the family, one
    # sketch, and assembles from it; a second call only assembles.  Both
    # have the sketch level's dims and residual
    sketches, assembled = [], []
    sketch, wold_spaces = agler._sketch_spaces, agler._wold_spaces
    monkeypatch.setattr(agler, "_sketch_spaces",
                        lambda *args: sketches.append(args[1:]) or sketch(*args))
    monkeypatch.setattr(agler, "_wold_spaces",
                        lambda *args: assembled.append(args[2:]) or wold_spaces(*args))
    rng = np.random.default_rng(9)
    pairs = [tuple(tuple(0.5 * rng.uniform(size=2) * np.exp(2j * np.pi * rng.uniform(size=2)))
                   for _ in range(2)) for _ in range(4)]
    for th in _wold_items(group):
        level = _family_level(th)
        sketches.clear()
        assembled.clear()
        spaces = agler_spaces(th, *level)
        assert (sketches, assembled) == ([level], [level]), th.label
        again = agler_spaces(th, *level)
        assert (sketches, assembled) == ([level], [level, level]), th.label
        ref = one_blas_thread(sketch)(th, *level)
        for name in ("model", "smax1", "smin2", "hkmax1", "hkmin2"):
            assert getattr(spaces, name).dim == getattr(ref, name).dim, (th.label, name)
            assert np.array_equal(getattr(again, name).basis, getattr(spaces, name).basis)
        residual = agler_kernel_residual(th, spaces, pairs)
        assert residual <= 1e-12, th.label
        assert abs(residual - agler_kernel_residual(th, ref, pairs)) <= 1e-12, th.label


def _family_reads(monkeypatch):
    """The boxes of every sketch Agler level run from now on, the family read among them."""
    boxes, sketch = [], agler._sketch_spaces
    monkeypatch.setattr(agler, "_sketch_spaces", lambda *args: boxes.append(args[1:]) or sketch(*args))
    return boxes


def test_wold_family_is_read_once_per_theta(monkeypatch):
    # rank and Agler levels at or above the family level (2, 1) share one
    # read, on first use; a level below it never reads the family
    boxes = _family_reads(monkeypatch)
    th = builtin("hadamard_deg21")
    assert "wold" not in vars(th)
    for A, B in ((6, 6), (8, 5)):
        rank_at_level(th, A, B)
        agler_spaces(th, A, B)
    assert boxes == [_family_level(th)] == [(2, 1)]
    boxes.clear()
    fresh = builtin("hadamard_deg21")
    rank_at_level(fresh, 1, 1)
    assert boxes == [] and "wold" not in vars(fresh)


def test_derived_theta_reads_its_own_family():
    # swap_variables and unitary_conjugate build new Theta: a family cached
    # on the source is not carried over, so their levels are those of the
    # same functions of a Theta that never read its family, bitwise
    rng = np.random.default_rng(5)
    U, V = (np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
            for _ in range(2))
    cached = builtin("hadamard_deg21")
    assert cached.wold is not None
    for derive in (swap_variables, lambda th: unitary_conjugate(th, U, V)):
        got, want = derive(cached), derive(builtin("hadamard_deg21"))
        assert "wold" not in vars(got)
        for A, B in ((1, 1), (2, 2), (6, 4), (8, 8)):
            level, ref = rank_at_level(got, A, B), rank_at_level(want, A, B)
            assert (level.dim_model, level.rank) == (ref.dim_model, ref.rank), (got.label, A, B)
            assert np.array_equal(level.sigmas, ref.sigmas), (got.label, A, B)
        assert np.array_equal(got.wold.phi, want.wold.phi), got.label


def test_decay_probe_is_finite_for_constant_denominators(monkeypatch):
    # a polynomial's expansion is finite: a constant-p Theta is FINITE with
    # no table, no operator and no diagnostic; a rational Theta's table is
    # its expansion on the depth-40 box, within round-off of the oracle
    seen, built = [], []
    diagnose, kernel, mult = (modelspace.tail_diagnostic, modelspace._rational_kernel,
                              ModelWorkspace.mult)
    monkeypatch.setattr(modelspace, "tail_diagnostic",
                        lambda table: seen.append(table) or diagnose(table))
    monkeypatch.setattr(modelspace, "_rational_kernel",
                        lambda *args: built.append(args) or kernel(*args))
    monkeypatch.setattr(ModelWorkspace, "mult",
                        lambda *args, **kw: built.append(args) or mult(*args, **kw))
    thetas = [builtin(name) for name in BUILTINS] + [scalar_z2n(3)]
    for kind in ("product", "diagonal", "conjugated"):
        thetas += generate_family(kind, 25, seed=42)
    assert {th.p.is_constant for th in thetas} == {True, False}
    for th in thetas:
        seen.clear()
        built.clear()
        cls = modelspace.decay_class(th, [(4, 4), (6, 6), (8, 8)])
        if th.p.is_constant:
            assert (cls, seen, built) == (DecayClass.FINITE, [], []), th.label
            continue
        (table,) = seen
        assert (table.A, table.B, table.finite_support) == (40, 40, False), th.label
        ref = _expand_pointwise(th, table.A, table.B)
        assert np.abs(table.coeffs - ref).max() <= 1e-15 * np.abs(ref).max(), th.label
        assert cls is diagnose(table).decay_class, th.label
