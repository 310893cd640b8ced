import numpy as np
import pytest

from bidisklab.agler import (
    _wandering,
    agler_kernel_residual,
    agler_spaces,
    commutator_kernel_formula,
    compute_smax1,
    compute_smin2,
    injectivity_margin,
    kernel_space_dims,
)
from bidisklab.inner import (
    RationalInnerMatrix,
    builtin,
    diagonal,
    from_scalar,
    scalar_z2n,
    swap_variables,
)
from bidisklab.modelspace import Subspace, TruncGrid, probe_model_basis
from bidisklab.polynomials import BiPoly, MatPoly


def span_defect(space, target):
    """Largest sine of a principal angle from target columns to the space."""
    if target.shape[1] == 0:
        return 0.0
    q, _ = np.linalg.qr(target)
    P = space.basis @ space.basis.conj().T
    return float(np.linalg.norm(q - P @ q, 2))


def sample_pairs(n, seed=0, rmax=0.6):
    rng = np.random.default_rng(seed)

    def point():
        return tuple(rmax * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                     for _ in range(2))

    return [(point(), point()) for _ in range(n)]


# -- invariant subspaces -----------------------------------------------

def test_smax1_monomial_case():
    th = builtin("scalar_z1z2")
    sp = agler_spaces(th, 3, 3)
    assert sp.smax1.dim == 4
    g = sp.smax1.grid
    target = np.zeros((g.dim, 4))
    for a in range(4):
        target[g.flat(a, 0, 0), a] = 1.0
    assert span_defect(sp.smax1, target) < 1e-10


def test_smax1_everything_for_z2():
    th = scalar_z2n(1)
    sp = agler_spaces(th, 4, 4)
    assert sp.smax1.dim == sp.model.dim
    assert sp.smin2.dim == 0


def test_smax1_hadamard_line():
    th = builtin("hadamard_z1z2")
    sp = agler_spaces(th, 6, 6)
    g = sp.smax1.grid
    target = np.zeros((g.dim, 7))
    for a in range(7):
        target[g.flat(a, 0, 0), a] = -1 / np.sqrt(2)
        target[g.flat(a, 0, 1), a] = 1 / np.sqrt(2)
    assert sp.smax1.dim == 7
    assert span_defect(sp.smax1, target) < 1e-10


def test_smin2_monomial_case():
    th = builtin("scalar_z1z2")
    sp = agler_spaces(th, 3, 3)
    g = sp.smin2.grid
    target = np.zeros((g.dim, 3))
    for b in range(1, 4):
        target[g.flat(0, b, 0), b - 1] = 1.0
    assert sp.smin2.dim == 3
    assert span_defect(sp.smin2, target) < 1e-10


def test_smin2_hadamard_block():
    th = builtin("hadamard_z1z2")
    sp = agler_spaces(th, 5, 5)
    g = sp.smin2.grid
    target = np.zeros((g.dim, 6))
    for b in range(6):
        target[g.flat(0, b, 0), b] = 1 / np.sqrt(2)
        target[g.flat(0, b, 1), b] = 1 / np.sqrt(2)
    assert sp.smin2.dim == 6
    assert span_defect(sp.smin2, target) < 1e-10


def test_direct_sum_dimensions():
    for name in ("scalar_z1z2", "hadamard_z1z2", "hadamard_deg21",
                 "scalar_favorite", "scalar_stable4"):
        sp = agler_spaces(builtin(name), 7, 7)
        assert sp.smax1.dim + sp.smin2.dim == sp.model.dim, name


def test_smax1_invariance_witness():
    # every invariant-space column with z1-headroom stays put under z1
    th = builtin("hadamard_z1z2")
    sp = agler_spaces(th, 6, 6)
    ws = sp.model.workspace
    from bidisklab.modelspace import shift_mult
    shifted = shift_mult(sp.smax1.basis, sp.smax1.grid, 1)
    for col in range(sp.smax1.dim):
        v = shifted[:, col]
        pv = ws.grid_images(v)[1]
        assert np.linalg.norm(pv - v) <= 1e-7


def test_smax1_floor_does_not_follow_basis_orientation():
    # The noise floor of compute_smax1 is read off the window, not off the
    # basis columns, so rotating the (24, 24) basis of scalar_stable4 by a
    # random unitary (the Q of a complex Gaussian 49 x 49 matrix) changes
    # neither the invariant subspace nor the wandering dimensions.
    th = builtin("scalar_stable4")
    basis = probe_model_basis(th, 24, 24)
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.standard_normal((49, 49)) + 1j * rng.standard_normal((49, 49)))
    rotated = Subspace(basis.grid, basis.basis @ Q, basis.label, basis.workspace)
    for b in (basis, rotated):
        assert b.dim == 49
        smax1 = compute_smax1(th, b, 24)
        smin2 = compute_smin2(th, b, smax1)
        assert smax1.dim == 25
        assert (_wandering(th, smax1, 1, False).dim, _wandering(th, smin2, 2, False).dim) == (1, 1)


def test_smax1_without_workspace_builds_one():
    th = builtin("scalar_stable4")
    basis = probe_model_basis(th, 8, 8)
    bare = Subspace(basis.grid, basis.basis, basis.label)
    assert compute_smax1(th, bare, 8).dim == 9


# -- wandering dimensions ----------------------------------------------

def test_kernel_dims_monomial():
    th = builtin("scalar_z1z2")
    sp = agler_spaces(th, 8, 8)
    assert kernel_space_dims(th, sp) == (1, 1)


def test_kernel_dims_hadamard():
    th = builtin("hadamard_z1z2")
    sp = agler_spaces(th, 8, 8)
    assert kernel_space_dims(th, sp)[0] == 1


def test_kernel_dims_diagonal_pair():
    th = diagonal([builtin("scalar_z1z2"), scalar_z2n(1)])
    sp = agler_spaces(th, 8, 8)
    assert kernel_space_dims(th, sp)[0] == 2  # deg2 det = 2


@pytest.mark.parametrize("name", ["scalar_z1z2", "hadamard_z1z2", "hadamard_deg21",
                                  "diag_z1z2_1", "scalar_stable4", "scalar_favorite",
                                  "scalar_z2n(3)"])
def test_kernel_dims_match_det_degree(name):
    th = builtin(name)
    sp = agler_spaces(th, 8, 8)
    d1, d2 = th.det_deg
    assert kernel_space_dims(th, sp) == (d2, d1)


@pytest.mark.parametrize("N", [10, 12, 16, 24])
def test_kernel_dims_of_scalar_favorite_survive_deep_truncations(N):
    # the chopped-defect floor no longer swallows the model space
    th = builtin("scalar_favorite")
    assert kernel_space_dims(th, agler_spaces(th, N, N)) == (1, 1)


def test_swap_symmetry_of_dims():
    for name in ("hadamard_deg21", "diag_z1z2_1"):
        th = builtin(name)
        sw = swap_variables(th)
        dims = kernel_space_dims(th, agler_spaces(th, 8, 8))
        dims_sw = kernel_space_dims(sw, agler_spaces(sw, 8, 8))
        assert dims == dims_sw[::-1], name


# -- kernel decomposition ----------------------------------------------

def test_kernel_residual_monomial_algebra():
    # 1 - z1 z2 conj(w1 w2) = (1 - z1 conj(w1)) z2 conj(w2) + (1 - z2 conj(w2))
    th = builtin("scalar_z1z2")
    sp = agler_spaces(th, 10, 10)
    assert agler_kernel_residual(th, sp, sample_pairs(25)) < 1e-8


def test_kernel_residual_hadamard():
    th = builtin("hadamard_z1z2")
    sp = agler_spaces(th, 10, 10)
    assert agler_kernel_residual(th, sp, sample_pairs(25, seed=3)) < 1e-8


def test_kernel_residual_identity_function():
    th = RationalInnerMatrix(2, MatPoly.identity(2), BiPoly.one(), "I")
    sp = agler_spaces(th, 4, 4)
    assert agler_kernel_residual(th, sp, sample_pairs(5)) == 0.0


def test_hadamard_kernels_are_the_displayed_ones():
    th = builtin("hadamard_z1z2")
    sp = agler_spaces(th, 8, 8)
    from bidisklab.agler import _kernel_matrix
    z, w = (0.3, -0.2 + 0.1j), (0.05j, 0.4)
    K1 = _kernel_matrix(sp.hkmax1, z, w)
    K2 = _kernel_matrix(sp.hkmin2, z, w)
    v1 = np.array([-1.0, 1.0]) / np.sqrt(2)
    v2 = np.array([1.0, 1.0]) / np.sqrt(2)
    assert np.allclose(K1, np.outer(v1, v1), atol=1e-10)
    assert np.allclose(K2, np.outer(v2, v2), atol=1e-10)


# -- commutator action on the summand kernels ---------------------------

def formula_gap(theta, spaces, w, e):
    cmp = commutator_kernel_formula(theta, spaces, w, e)
    return max(np.linalg.norm(cmp.formula_invariant - cmp.matrix_invariant),
               np.linalg.norm(cmp.formula_complement - cmp.matrix_complement))


def test_formula_monomial_point():
    th = builtin("scalar_z1z2")
    sp = agler_spaces(th, 16, 16)
    assert formula_gap(th, sp, (0.3, 0.2), [1.0]) < 1e-6


def test_formula_hadamard_point():
    th = builtin("hadamard_z1z2")
    sp = agler_spaces(th, 16, 16)
    assert formula_gap(th, sp, (0.1, 0.4), [1.0, 0.0]) < 1e-6


def test_formula_origin_is_exact():
    for name in ("scalar_z1z2", "hadamard_z1z2"):
        th = builtin(name)
        sp = agler_spaces(th, 10, 10)
        e = np.zeros(th.d)
        e[0] = 1.0
        assert formula_gap(th, sp, (0.0, 0.0), e) < 1e-12


def test_formula_rejects_high_degree():
    th = builtin("hadamard_deg21")
    sp = agler_spaces(th, 6, 6)
    with pytest.raises(ValueError):
        commutator_kernel_formula(th, sp, (0.1, 0.1), [1.0, 0.0])


# -- injectivity margin --------------------------------------------------

def test_injectivity_monomial():
    th = builtin("scalar_z1z2")
    sp = agler_spaces(th, 8, 8)
    assert abs(injectivity_margin(th, sp) - 1.0) < 1e-10


def test_injectivity_z2():
    th = scalar_z2n(1)
    sp = agler_spaces(th, 6, 6)
    assert abs(injectivity_margin(th, sp) - 1.0) < 1e-10


def test_injectivity_hadamard():
    th = builtin("hadamard_z1z2")
    sp = agler_spaces(th, 8, 8)
    assert injectivity_margin(th, sp) >= 0.1


def test_compressed_shift_is_computed_once_per_spaces(monkeypatch):
    import bidisklab.agler as ag

    calls = []
    real = ag.compressed_shift

    def counting(theta, basis, j):
        calls.append(j)
        return real(theta, basis, j)

    monkeypatch.setattr(ag, "compressed_shift", counting)
    th = builtin("hadamard_z1z2")
    sp = agler_spaces(th, 8, 8)
    margin = injectivity_margin(th, sp)
    commutator_kernel_formula(th, sp, (0.2, 0.1), [1.0, 0.0])
    assert injectivity_margin(th, sp) == margin
    assert calls == [1]


def test_injectivity_trivial_space_is_inf():
    th = RationalInnerMatrix(1, MatPoly.from_scalar(BiPoly.one()), BiPoly.one(), "1")
    sp = agler_spaces(th, 4, 4)
    assert injectivity_margin(th, sp) == float("inf")


def test_wandering_dim_bounded_by_rank():
    from bidisklab.modelspace import rank_sweep, SweepVerdict
    for name in ("scalar_z1z2", "hadamard_z1z2", "diag_z1z2_1", "scalar_stable4"):
        th = builtin(name)
        report = rank_sweep(th, [(4, 4), (6, 6), (8, 8)])
        if report.verdict is SweepVerdict.STABLE:
            sp = agler_spaces(th, 8, 8)
            assert sp.hkmax1.dim <= report.stabilized_rank, name


def test_compute_ops_compose_like_agler_spaces():
    th = builtin("hadamard_z1z2")
    basis = probe_model_basis(th, 6, 6)
    smax1 = compute_smax1(th, basis, 6)
    smin2 = compute_smin2(th, basis, smax1)
    sp = agler_spaces(th, 6, 6)
    assert smax1.dim == sp.smax1.dim
    assert smin2.dim == sp.smin2.dim
