"""Canonical shift-invariant subspaces and Agler kernel data.

Inside a truncated model space the maximal z1-invariant subspace is the
common null space of the maps f -> Theta*(z1^k f); its orthogonal
complement is the minimal z2-type summand.  Quotienting each by one more
shift yields the finite-dimensional "wandering" spaces whose dimensions,
for rational inner functions, equal the determinant degrees, and whose
orthonormal bases reproduce the Agler kernels in the decomposition

    I - Theta(z) Theta(w)* = (1 - z1 conj(w1)) K2 + (1 - z2 conj(w2)) K1.

The spaces take one of two routes.  The sketch level (``_sketch_spaces``)
reads them off the sketched model basis of the window: smax1 is the null
space of an invariance block, smin2 its complement.  A polynomial Theta's
spaces above its family level, where ``modelspace._wold_family`` reads its
Wold family off the sketch, are assembled from that family instead
(``_wold_spaces``), with no operator.  Rational Theta keep the sketch.

The module also evaluates the closed-form commutator action on the
reproducing kernels of the two summands next to the direct matrix
computation, so the two routes can be compared numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from ._blas import one_blas_thread
from .inner import RationalInnerMatrix
from .modelspace import (
    ModelWorkspace,
    Subspace,
    TruncGrid,
    _family_level,
    _nominal_view,
    _shifted,
    _wold_family,
    backward_shift,
    commutator,
    compressed_shift,
    probe_model_basis,
    shift_mult,
)
from .polynomials import _convolve2d
from .tolerances import RANK_REL_TOL, rank_count


@dataclass(frozen=True)
class AglerSpaces:
    """Invariant subspaces and wandering quotients of a truncated model space."""

    smax1: Subspace
    smin2: Subspace
    hkmax1: Subspace
    hkmin2: Subspace
    model: Subspace

    @cached_property
    def shift(self) -> np.ndarray:
        """Compressed z1-shift on the model basis, computed on first use."""
        return compressed_shift(self.model.workspace.theta, self.model, 1)

    @cached_property
    def _formula_data(self) -> SimpleNamespace:
        """What ``commutator_kernel_formula`` reads of these spaces, computed once.

        [S*, S] on the model basis, the model coordinates of smax1 and smin2,
        and for the z1-wandering basis phi its cleared numerators
        f = p phi (``_den_polys``) and its backward z1-shift.
        """
        model, phi = self.model, self.hkmax1
        data = SimpleNamespace(comm=-commutator(self.shift),
                               Xmax=model.coords(self.smax1.basis),
                               Xmin=model.coords(self.smin2.basis))
        if phi.dim:
            data.fbox, data.fgrid = _den_polys(model.workspace.theta, phi.basis, phi.grid)
            data.tphi = backward_shift(phi.basis, phi.grid, 1)
        return data


def _null_vectors(G: np.ndarray, floor: float, tol_rel: float) -> np.ndarray:
    """Orthonormal right null vectors of G: the directions whose singular
    values ``rank_count`` (noise `floor`, relative `tol_rel`) does not count."""
    s = G.shape[1]
    if s == 0:
        return np.zeros((0, 0), dtype=complex)
    # a tall G is first reduced to the triangle R of G = Q R, which has G's
    # singular values and Vh; only a wide G needs the full Vh
    if G.shape[0] > s:
        G = np.linalg.qr(G, mode="r")
    _, sig, Vh = np.linalg.svd(G, full_matrices=G.shape[0] < s)
    return Vh[rank_count(sig, floor, tol_rel):].conj().T


def _invariance_block(ws: ModelWorkspace, basis: Subspace, K_depth: int) -> np.ndarray:
    """Stacked coefficients of Theta*(z1^k phi) for k = 0..K_depth.

    The k-th map only adds output rows below z1-degree zero of the k = 0
    map, so one adjoint application of the window's Theta (``ws.mult``) to
    z1^K_depth phi on the basis grid raised by K_depth degrees in z1 yields
    every constraint; the returned block has one row per coefficient of the
    deepest map and one column per basis vector.
    """
    grid = basis.grid
    deep = TruncGrid(grid.A + K_depth, grid.B, grid.d)
    lifted = np.zeros((deep.A + 1, grid.B + 1, grid.d, basis.dim), dtype=complex)
    lifted[K_depth:] = grid.as_box(basis.basis)
    return ws.mult(lifted.reshape(deep.dim, basis.dim), deep, adjoint=True)


def compute_smax1(theta: RationalInnerMatrix, basis: Subspace,
                  K_depth: int) -> Subspace:
    """Maximal z1-invariant subspace of the truncated model space.

    Returns the combinations f of basis columns with Theta*(z1^k f) = 0
    for k = 0..K_depth, orthonormal in the ambient grid.  The block and the
    zero test come from one window, ``basis.workspace_for(theta)``, whose
    ``noise_floor`` the test discounts: it depends on the window, not the basis.
    """
    if K_depth < 1:
        raise ValueError("invariance depth must be at least 1")
    ws = basis.workspace_for(theta)
    G = _invariance_block(ws, basis, K_depth)
    null = _null_vectors(G, ws.noise_floor(), RANK_REL_TOL)
    return Subspace(basis.grid, basis.basis @ null,
                    f"smax1({theta.label})", basis.workspace)


def compute_smin2(theta: RationalInnerMatrix, basis: Subspace,
                  smax1: Subspace) -> Subspace:
    """Orthogonal complement of the invariant subspace inside the model basis:
    the null space of smax1's model coordinates X* (X's singular values are 1)."""
    X = basis.coords(smax1.basis)
    comp = basis.basis @ _null_vectors(X.conj().T, 0.0, RANK_REL_TOL)
    return Subspace(basis.grid, comp, f"smin2({theta.label})", basis.workspace)


# For slowly converging expansions the shift Gram matrix of an invariant
# subspace splits into a bulk near its top singular value and wandering
# directions at least this factor below it; the gap is wide (measured
# >= 15x on the boundary-singular cases), so the fraction is not delicate.
_WANDER_GAP_FRACTION = 0.3


def _wandering(theta: RationalInnerMatrix, space: Subspace, j: int,
               exact: bool) -> Subspace:
    """space minus z_j times space, via the shift Gram matrix null space."""
    shifted = shift_mult(space.basis, space.grid, j)
    G = shifted.conj().T @ space.basis
    null = _null_vectors(G, 0.0, RANK_REL_TOL if exact else _WANDER_GAP_FRACTION)
    return Subspace(space.grid, space.basis @ null,
                    f"wandering{j}({theta.label})", space.workspace)


def _sketch_spaces(theta: RationalInnerMatrix, A: int, B: int) -> AglerSpaces:
    """The sketch level of ``agler_spaces``.

    The model space is spanned by the projections of the (A, B) monomials
    but represented with degree headroom, so the invariant-subspace tests
    are not polluted by window-edge chopping.  The invariance depth is A:
    deeper z1-powers leave the degree window, so further constraints are
    vacuous at this truncation.
    """
    basis = probe_model_basis(theta, A, B)
    smax1 = compute_smax1(theta, basis, A)
    smin2 = compute_smin2(theta, basis, smax1)
    exact = theta.p.is_constant
    return AglerSpaces(smax1, smin2, _wandering(theta, smax1, 1, exact),
                       _wandering(theta, smin2, 2, exact), basis)


def _wold_spaces(theta: RationalInnerMatrix, wold, A: int, B: int) -> AglerSpaces:
    """The Agler spaces at (A, B) of a polynomial Theta from its Wold family.

    For phi in W1 and psi in W2 (``_wold_family``), smax1 is spanned by the
    z1^k phi, k <= A, and smin2 by the z2^l psi, l <= B, each cut to what
    the nominal box sees as the rank level's compression is
    (``_nominal_view``), and placed on the working grid of the (A, B)
    window; the model basis is [smax1 | smin2].  The wandering spaces are
    phi and psi: the kernel of an edge cut's rows is invariant under the
    up-shift, so a kept combination with no s = 0 part is z_j times one in
    the space.  Requires (A, B) at or above the family level.
    """
    ws, label = ModelWorkspace.window(theta, A, B), theta.label
    cols = [_nominal_view(_shifted(group[0], j, range(N + 1), ws.grid), group, j, N)
            for j, (group, N) in enumerate(zip(wold, (A, B)), 1)]
    phi, psi = (c[:, : box.shape[3]] for c, (box, _) in zip(cols, wold))  # the shifts s = 0
    return AglerSpaces(Subspace(ws.grid, cols[0], f"smax1({label})", ws),
                       Subspace(ws.grid, cols[1], f"smin2({label})", ws),
                       Subspace(ws.grid, phi, f"wandering1({label})", ws),
                       Subspace(ws.grid, psi, f"wandering2({label})", ws),
                       Subspace(ws.grid, np.hstack(cols), f"model({label})@({A},{B})", ws))


@one_blas_thread
def agler_spaces(theta: RationalInnerMatrix, A: int, B: int) -> AglerSpaces:
    """Compute the invariant subspaces and wandering quotients at (A, B).

    A polynomial Theta's spaces above its family level (``_family_level``)
    are assembled from its Wold family (``_wold_spaces``); each call reads
    the family afresh.  The others, rational Theta, a family whose
    wandering dimensions do not match det_deg Theta, boxes below the family
    level and the family level itself, whose sketch is the family read, run
    the sketch level (``_sketch_spaces``): the invariant subspaces are null
    spaces of an invariance block on the sketched model basis.
    """
    f1, f2 = _family_level(theta)
    if A >= f1 and B >= f2 and (A, B) != (f1, f2):
        wold = _wold_family(theta)
        if wold is not None:
            return _wold_spaces(theta, wold, A, B)
    return _sketch_spaces(theta, A, B)


def kernel_space_dims(theta: RationalInnerMatrix,
                      spaces: AglerSpaces) -> tuple[int, int]:
    """Dimensions of the two wandering quotients.

    For rational inner Theta at sufficient truncation these match the
    determinant degrees (deg2 det, deg1 det).
    """
    return spaces.hkmax1.dim, spaces.hkmin2.dim


# ----------------------------------------------------------------------
# kernel evaluation
# ----------------------------------------------------------------------

def eval_columns(cols: np.ndarray, grid: TruncGrid, z) -> np.ndarray:
    """Evaluate flat coefficient columns as C^d-valued polynomials at z."""
    z1, z2 = z
    box = cols.reshape(grid.A + 1, grid.B + 1, grid.d, -1)
    pw1 = np.asarray(z1, dtype=complex) ** np.arange(grid.A + 1)
    pw2 = np.asarray(z2, dtype=complex) ** np.arange(grid.B + 1)
    return np.einsum("a,b,abdn->dn", pw1, pw2, box)


def _kernel_matrix(space: Subspace, z, w) -> np.ndarray:
    """sum_i phi_i(z) phi_i(w)* over the columns of the space."""
    Ez = eval_columns(space.basis, space.grid, z)
    Ew = eval_columns(space.basis, space.grid, w)
    return Ez @ Ew.conj().T


@one_blas_thread
def agler_kernel_residual(theta: RationalInnerMatrix, spaces: AglerSpaces,
                          sample_pairs) -> float:
    """Max defect of the two-kernel decomposition over sample point pairs.

    Reconstructs K1 from the z1-wandering basis and K2 from the
    z2-wandering basis and measures

        || I - Theta(z) Theta(w)* - (1 - z1 conj(w1)) K2 - (1 - z2 conj(w2)) K1 ||_F.

    Sample coordinates should stay well inside the bidisk (modulus at most
    0.7); truncated bases lose accuracy toward the boundary.
    """
    d = theta.d
    eye = np.eye(d)
    worst = 0.0
    for z, w in sample_pairs:
        K1 = _kernel_matrix(spaces.hkmax1, z, w)
        K2 = _kernel_matrix(spaces.hkmin2, z, w)
        lhs = eye - theta(*z) @ theta(*w).conj().T
        rhs = (1 - z[0] * np.conj(w[0])) * K2 + (1 - z[1] * np.conj(w[1])) * K1
        worst = max(worst, float(np.linalg.norm(lhs - rhs, "fro")))
    return worst


# ----------------------------------------------------------------------
# commutator action on the summand reproducing kernels
# ----------------------------------------------------------------------

def _den_polys(theta: RationalInnerMatrix, cols: np.ndarray, grid: TruncGrid):
    """Clear the denominator of numerical columns: f_i = p * phi_i.

    Returns the boxes of the f_i on a grid enlarged by the degree of p.
    """
    dp1, dp2 = theta.p.deg1, theta.p.deg2
    big = TruncGrid(grid.A + dp1, grid.B + dp2, grid.d)
    box = cols.reshape(grid.A + 1, grid.B + 1, grid.d, cols.shape[1])
    return _convolve2d(box, theta.p.coeffs), big


@dataclass(frozen=True)
class KernelCommutatorComparison:
    """Formula route versus matrix route for [S*, S] on the summand kernels.

    All four entries are flat coefficient vectors on the model grid; the
    caller compares formula against matrix for each summand.
    """

    formula_invariant: np.ndarray
    matrix_invariant: np.ndarray
    formula_complement: np.ndarray
    matrix_complement: np.ndarray


@one_blas_thread
def commutator_kernel_formula(theta: RationalInnerMatrix, spaces: AglerSpaces,
                              w, e) -> KernelCommutatorComparison:
    """Evaluate [S*_{z1}, S_{z1}] on the summand kernels two ways.

    The formula route expands, for the orthonormal z1-wandering family
    phi_i with cleared numerators f_i = p phi_i,

        [S*, S] K^1_w e = P( sum_i f_i(0, z2)/p(0, z2) * (f_i(w)/p(w))^* e )
        [S*, S] K^2_w e = P( sum_i Tbar1 f_i / p(0, z2) * (Tbar1(f_i/p)(w))^* e ),

    with Tbar1 the backward shift in z1.  The matrix route projects the
    model reproducing kernel at w onto each summand and applies the
    commutator matrix of the compressed shift.  Requires deg1 Theta <= 1,
    the hypothesis of the closed forms.
    """
    if theta.deg[0] > 1:
        raise ValueError("closed-form commutator action requires deg1 Theta <= 1")
    model = spaces.model
    grid, ws = model.grid, model.workspace
    data = spaces._formula_data
    e = np.asarray(e, dtype=complex).reshape(theta.d)
    w1, w2 = w
    padded = ws.padded
    # the padded-grid vectors to project: the Szego kernel at w times e, then
    # the formula route's two numerators (zero without a wandering space)
    vecs = np.zeros((padded.A + 1, padded.B + 1, theta.d, 3), dtype=complex)
    pw1 = np.conj(w1) ** np.arange(padded.A + 1)
    pw2 = np.conj(w2) ** np.arange(padded.B + 1)
    vecs[..., 0] = pw1[:, None, None] * pw2[None, :, None] * e[None, None, :]

    phi = spaces.hkmax1
    if phi.dim:
        fbox = data.fbox
        pw = complex(theta.p(w1, w2))
        fvals = eval_columns(fbox.reshape(-1, phi.dim), data.fgrid, (w1, w2))
        weights1 = (fvals / pw).conj().T @ e  # (f_i(w)/p(w))^* e
        # division by p(0, z2) on the padded z2-range is a product by R_0
        nB = min(padded.B + 1, fbox.shape[1])
        inv0 = ws.inv_p0[:, :nB]
        # sum_i w1_i f_i(0, z2), then divide by p(0, z2)
        g1 = np.einsum("bdn,n->bd", fbox[0, :nB], weights1)
        vecs[0, :, :, 1] = inv0 @ g1
        # backward z1-shift of the phi columns, evaluated at w, and of the f_i
        weights2 = eval_columns(data.tphi, grid, (w1, w2)).conj().T @ e
        g2 = np.einsum("abdn,n->abd", fbox[1:][: padded.A + 1, :nB], weights2)
        vecs[: g2.shape[0], :, :, 2] = np.matmul(inv0, g2)
    # Theta is causal, so P x cut to the grid is x there minus Theta applied
    # on the grid to Theta* x cut to the grid
    x = vecs.reshape(padded.dim, 3)
    adj = padded.restrict(ws.mult(x, padded, adjoint=True), grid)
    kw, formula1, formula2 = (padded.restrict(x, grid) - ws.mult(adj, grid)).T

    # matrix route: coordinates of the kernel at w, split by summand
    y = model.coords(kw)
    y1 = data.Xmax @ (data.Xmax.conj().T @ y)
    y2 = data.Xmin @ (data.Xmin.conj().T @ y)
    matrix1 = model.basis @ (data.comm @ y1)
    matrix2 = model.basis @ (data.comm @ y2)
    return KernelCommutatorComparison(formula1, matrix1, formula2, matrix2)


@one_blas_thread
def injectivity_margin(theta: RationalInnerMatrix, spaces: AglerSpaces) -> float:
    """Smallest singular value of the commutator on the z1-wandering space.

    A positive margin witnesses that the self-commutator has no kernel
    inside the wandering quotient; returns +inf when that space is trivial.
    """
    if spaces.hkmax1.dim == 0:
        return float("inf")
    X = spaces.model.coords(spaces.hkmax1.basis)
    M = commutator(spaces.shift) @ X
    sig = np.linalg.svd(M, compute_uv=False)
    return float(sig[-1])
