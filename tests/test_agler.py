import numpy as np
import pytest

from bidisklab.agler import (
    _null_vectors,
    _wandering,
    agler_kernel_residual,
    agler_spaces,
    commutator_kernel_formula,
    compute_smax1,
    compute_smin2,
    injectivity_margin,
    kernel_space_dims,
)
from bidisklab.experiments import generate_family
from bidisklab.inner import (
    RationalInnerMatrix,
    builtin,
    builtin_names,
    diagonal,
    from_scalar,
    scalar_z2n,
    swap_variables,
)
from bidisklab.modelspace import (
    ModelWorkspace,
    Subspace,
    TruncGrid,
    commutator,
    probe_model_basis,
)
from bidisklab.polynomials import BiPoly, MatPoly
from bidisklab.tolerances import RANK_REL_TOL
from oracles import formula_padded_vectors, padded_projection, pairwise_kernel_residual


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


@pytest.mark.parametrize("name", ["hadamard_deg21", "hadamard_z1z2", "scalar_stable4",
                                  "scalar_z2n(3)", "z1"])
def test_smin2_is_the_complement_of_smax1(name):
    # smin2 and smax1 split the model span orthogonally; for theta = z1 no
    # direction is z1-invariant, so smin2 is the model basis itself
    th = from_scalar(BiPoly.monomial(1, 0), BiPoly.one(), "z1") if name == "z1" else builtin(name)
    for N in (2, 5, 9):
        sp = agler_spaces(th, N, N)
        model, smin2 = sp.model.basis, sp.smin2.basis
        assert sp.smax1.dim + sp.smin2.dim == sp.model.dim, (name, N)
        assert np.abs(sp.smax1.basis.conj().T @ smin2).max(initial=0.0) <= 1e-12, (name, N)
        assert np.abs(smin2 - model @ (model.conj().T @ smin2)).max(initial=0.0) <= 1e-12
        if name == "z1":
            assert sp.smax1.dim == 0 and np.array_equal(smin2, model)


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


RESIDUAL_CASES = ([(name, 6) for name in builtin_names() if "(" not in name]
                  + [("scalar_z2n(3)", 6), ("diagonal002", 16)])


@pytest.mark.parametrize("name, N", RESIDUAL_CASES)
def test_batched_kernel_residual_matches_the_pairwise_loop(name, N):
    # one batched evaluation of every pair gives the residual that the
    # pair-at-a-time loop of the oracle gives
    th = (generate_family("diagonal", 25, seed=42)[2] if name == "diagonal002"
          else builtin(name))
    assert th.label == name
    spaces = agler_spaces(th, N, N)
    pairs = sample_pairs(25, seed=4, rmax=0.7)
    got, ref = agler_kernel_residual(th, spaces, pairs), pairwise_kernel_residual(th, spaces, pairs)
    assert abs(got - ref) <= 1e-14 * max(1.0, ref), (got, ref)


def test_points_outside_the_open_bidisk_are_refused():
    # a residual or a formula at a point on or outside the unit torus would
    # be a finite number that means nothing; the point is named instead
    th = builtin("scalar_stable4")
    sp = agler_spaces(th, 8, 8)
    inside = ((0.1, 0.2), (0.3j, -0.2))
    for z in ((1.5, 0.1), (0.1, 1.0), (0.2, np.nan)):
        with pytest.raises(ValueError, match="outside the open bidisk"):
            agler_kernel_residual(th, sp, [inside, (z, inside[1])])
        with pytest.raises(ValueError, match="outside the open bidisk"):
            agler_kernel_residual(th, sp, [inside, (inside[0], z)])
    with pytest.raises(ValueError, match=r"point \(\(1\.2\+0j\), \(0\.1\+0j\)\)"):
        commutator_kernel_formula(th, sp, (1.2, 0.1), [1.0])
    assert agler_kernel_residual(th, sp, [inside]) < 1e-6
    assert agler_kernel_residual(th, sp, []) == 0.0


@pytest.mark.parametrize("A, B", [(0, 0), (0, 4), (-1, 2), (3, -1)])
def test_agler_truncation_is_validated_at_entry(A, B, monkeypatch):
    # the CLI's rule, A >= 1 (the invariance depth) and B >= 0, named with
    # the truncation before any window is built
    import bidisklab.agler as ag

    monkeypatch.setattr(ag, "_wold_route", lambda *args: pytest.fail("reached the routes"))
    with pytest.raises(ValueError, match=rf"truncation \({A}, {B}\).*invariance depth"):
        agler_spaces(builtin("hadamard_deg21"), A, B)


def test_wold_spaces_check_the_family_orthonormal():
    # the Wold route forms no Gram of its spaces; its one check of the
    # family's Gram still refuses a family whose phi is scaled by 1.01
    import bidisklab.agler as ag
    from bidisklab import modelspace

    th = builtin("hadamard_deg21")
    wold = modelspace._wold_family(th)
    ag._wold_spaces(th, wold, 12, 12)
    with pytest.raises(ValueError, match="not orthonormal"):
        ag._wold_spaces(th, wold._replace(phi=1.01 * wold.phi), 12, 12)


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


FORMULA_THETAS = [name for name in builtin_names()
                  if "(" not in name and builtin(name).deg[0] <= 1] + ["scalar_z2n(3)"]


@pytest.mark.parametrize("name", FORMULA_THETAS)
@pytest.mark.parametrize("N", [4, 24])
def test_formula_projection_matches_the_padded_grid(name, N):
    # the formula vectors sum projections computed once per spaces, and the
    # matrix route reads the kernel's model coordinates off the adjoint image
    # of the basis; both are what P on the padded grid, cut to the working
    # grid, gives of the kernel vectors built at the point (oracles), to
    # 1e-14 of the largest projection
    th = builtin(name)
    spaces = agler_spaces(th, N, N)
    model, w, e = spaces.model, (0.3, 0.2 + 0.1j), np.ones(th.d) / np.sqrt(th.d)
    cmp = commutator_kernel_formula(th, spaces, w, e)
    proj = padded_projection(model.workspace, formula_padded_vectors(th, spaces, w, e),
                             model.grid)
    kw, formula1, formula2 = proj.T
    comm, y = -commutator(spaces.shift), model.coords(kw)
    matrix1, matrix2 = (model.basis @ (comm @ (X @ (X.conj().T @ y)))
                        for X in (model.coords(spaces.smax1.basis),
                                  model.coords(spaces.smin2.basis)))
    ref = np.column_stack([formula1, formula2, matrix1, matrix2])
    got = np.column_stack([cmp.formula_invariant, cmp.formula_complement,
                           cmp.matrix_invariant, cmp.matrix_complement])
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(proj).max()


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
    # the shift is built once from the spaces' Theta* image of the model
    # basis, and building it applies no operator, on the Wold route of a
    # polynomial Theta and the sketch route of a rational one
    import bidisklab.agler as ag

    calls, mults = [], []
    real, mult = ag._shift_matrix, ModelWorkspace.mult

    def counting(theta, basis, adj, j):
        calls.append(j)
        return real(theta, basis, adj, j)

    monkeypatch.setattr(ag, "_shift_matrix", counting)
    for name, e in (("hadamard_z1z2", [1.0, 0.0]), ("scalar_stable4", [1.0])):
        calls.clear()
        th = builtin(name)
        sp = agler_spaces(th, 8, 8)
        monkeypatch.setattr(ModelWorkspace, "mult",
                            lambda *args, **kw: mults.append(args) or mult(*args, **kw))
        sp.shift
        assert mults == [], name
        monkeypatch.setattr(ModelWorkspace, "mult", mult)
        margin = injectivity_margin(th, sp)
        commutator_kernel_formula(th, sp, (0.2, 0.1), e)
        assert injectivity_margin(th, sp) == margin, name
        assert calls == [1], name


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


@pytest.mark.parametrize("rows", [3, 8, 60])
def test_null_vectors_span_the_null_space_of_the_full_svd(rows):
    # a tall block is reduced to its QR triangle first; the null vectors
    # still span what the full SVD of the block leaves uncounted
    rng = np.random.default_rng(5)
    G = rng.standard_normal((rows, 5)) + 1j * rng.standard_normal((rows, 5))
    G = G @ np.diag([1.0, 0.5, 1e-3, 1e-10, 0.0]) @ np.linalg.qr(
        rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
    null = _null_vectors(G, 0.0, RANK_REL_TOL)
    Vh = np.linalg.svd(G)[2]
    ref = Vh[min(rows, 3):].conj().T
    assert null.shape == ref.shape
    assert np.linalg.norm(null.conj().T @ null - np.eye(null.shape[1])) <= 1e-12
    assert np.linalg.norm(null - ref @ (ref.conj().T @ null), 2) <= 1e-12
