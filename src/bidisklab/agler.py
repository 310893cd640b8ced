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
spaces at or above its family level (``modelspace._wold_route``) are
assembled from its Wold family record ``theta.wold``, read once per Theta
off the family level's sketch (``_wold_spaces``), with no operator and one
orthonormality check of the family's Gram (``modelspace._wold_gram``).
Rational Theta keep the sketch.  Either way the spaces keep Theta* of the
model basis, the sketch's image or zero on the Wold route.

The module also evaluates the closed-form commutator action on the
reproducing kernels of the two summands next to the direct matrix
computation, so the two routes can be compared numerically.  The shift and
what the formula reads are built once per spaces from Theta* of the basis;
a formula call and the batched kernel residual apply no operator.
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
    WoldFamily,
    _check_orthonormal,
    _nominal_view,
    _shifted,
    _shift_matrix,
    _wold_gram,
    _wold_route,
    backward_shift,
    commutator,
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
    adj: np.ndarray | None  # Theta* of the model basis; None where it is zero

    @cached_property
    def shift(self) -> np.ndarray:
        """Compressed z1-shift on the model basis from ``adj``, on first use; no operator."""
        return _shift_matrix(self.model.workspace.theta, self.model, self.adj, 1)

    @cached_property
    def _formula_data(self) -> SimpleNamespace:
        """What ``commutator_kernel_formula`` reads of these spaces, computed once.

        [S*, S] on the model basis B, the model coordinates of smax1 and
        smin2 (the identity's column blocks on the Wold route, where B is
        [smax1 | smin2]), Theta E adj on the padded grid (Theta* E B = E adj, as Theta*
        is anti-causal), and for the z1-wandering phi_i, f_i = p phi_i,
        Tbar1 phi_i and the formula's two terms projected to the working grid.
        """
        model, phi = self.model, self.hkmax1
        grid, ws, padded = model.grid, model.workspace, model.workspace.padded
        data = SimpleNamespace(comm=-commutator(self.shift))
        if self.adj is None:
            data.Xmax, data.Xmin = np.split(np.eye(model.dim), [self.smax1.dim], axis=1)
        else:
            data.Xmax, data.Xmin = model.coords(self.smax1.basis), model.coords(self.smin2.basis)
            data.tadj = ws.mult(grid.embed(self.adj, padded), padded)
        if phi.dim:
            fbox = _convolve2d(grid.as_box(phi.basis), ws.theta.p.coeffs)  # f_i = p phi_i
            data.fgrid = TruncGrid(fbox.shape[0] - 1, fbox.shape[1] - 1, grid.d)
            data.f, data.tphi = fbox.reshape(-1, phi.dim), backward_shift(phi.basis, grid, 1)
            # rows of f_i / p(0, z2) by R_0: row 0 the first term, the rest the second
            nB = min(padded.B + 1, fbox.shape[1])
            g = np.einsum("cb,abdn->acdn", ws.inv_p0[:, :nB], fbox[: padded.A + 2, :nB])
            num = np.zeros((padded.A + 1, padded.B + 1, grid.d, 2, phi.dim), dtype=complex)
            num[0, :, :, 0], num[: len(g) - 1, :, :, 1] = g[0], g[1:]
            # Theta is causal: P x cut to the grid is x - Theta (Theta* x cut to it)
            x = num.reshape(padded.dim, -1)
            x_adj = padded.restrict(ws.mult(x, padded, adjoint=True), grid)
            proj = padded.restrict(x, grid) - ws.mult(x_adj, grid)
            data.P1, data.P2 = proj.reshape(grid.dim, 2, phi.dim).transpose(1, 0, 2)
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
    ws = ModelWorkspace.window(theta, A, B)
    span, adj, _ = ws.model_span(ws.nominal)
    basis = Subspace(ws.grid, span, f"model({theta.label})@({A},{B})", ws)
    smax1 = compute_smax1(theta, basis, A)
    smin2 = compute_smin2(theta, basis, smax1)
    exact = theta.p.is_constant
    return AglerSpaces(smax1, smin2, _wandering(theta, smax1, 1, exact),
                       _wandering(theta, smin2, 2, exact), basis, adj)


def _wold_spaces(theta: RationalInnerMatrix, wold: WoldFamily, A: int, B: int) -> AglerSpaces:
    """The Agler spaces at (A, B) of a polynomial Theta from its Wold family.

    For phi in W1 and psi in W2 (``theta.wold``), smax1 is spanned by the
    z1^k phi, k <= A, and smin2 by the z2^l psi, l <= B, each cut to what
    the nominal box sees as the rank level's compression is
    (``_nominal_view``), and placed on the working grid of the (A, B)
    window; the model basis is [smax1 | smin2].  The wandering spaces are
    phi and psi: the kernel of an edge cut's rows is invariant under the
    up-shift, so a kept combination with no s = 0 part is z_j times one in
    the space.  Theta* of these model-space columns is zero.  Each space
    is a sub-block or an orthonormal compression of the first A + 1 and
    B + 1 shifts, so one check of their Gram (``_wold_gram``) bounds all
    five.  Requires (A, B) at or above the family level.
    """
    ws, label, boxes = ModelWorkspace.window(theta, A, B), theta.label, (wold.phi, wold.psi)
    _check_orthonormal(_wold_gram(wold, A + 1, B + 1, 0))
    cols = [_nominal_view(_shifted(box, j, range(N + 1), ws.grid), wold, j, N)
            for j, (box, N) in enumerate(zip(boxes, (A, B)), 1)]
    model = np.hstack(cols)  # smax1, smin2, phi and psi are views of it
    cols = model[:, : cols[0].shape[1]], model[:, cols[0].shape[1]:]
    phi, psi = (c[:, : box.shape[3]] for c, box in zip(cols, boxes))  # the shifts s = 0
    spaces = [Subspace._checked(ws.grid, basis, name, ws) for basis, name in (
        (cols[0], f"smax1({label})"), (cols[1], f"smin2({label})"),
        (phi, f"wandering1({label})"), (psi, f"wandering2({label})"),
        (model, f"model({label})@({A},{B})"))]
    return AglerSpaces(*spaces, None)


@one_blas_thread
def agler_spaces(theta: RationalInnerMatrix, A: int, B: int) -> AglerSpaces:
    """Compute the invariant subspaces and wandering quotients at (A, B).

    A polynomial Theta's spaces at or above its family level (``_wold_route``)
    are assembled from its Wold family ``theta.wold`` (``_wold_spaces``),
    read by the first such call.  The others, rational Theta, a family
    whose wandering dimensions do not match det_deg Theta and boxes below
    the family level, run the sketch level (``_sketch_spaces``): the
    invariant subspaces are null spaces of an invariance block on the
    sketched model basis.
    """
    if A < 1 or B < 0:
        raise ValueError(f"Agler truncation ({A}, {B}) needs A >= 1 (invariance depth), B >= 0")
    wold = _wold_route(theta, A, B)
    return _sketch_spaces(theta, A, B) if wold is None else _wold_spaces(theta, wold, A, B)


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
    """Evaluate flat coefficient columns as C^d-valued polynomials at z = (z1, z2):
    (d, columns) at one point, (points, d, columns) at arrays of points."""
    z1, z2 = (np.asarray(v, dtype=complex) for v in z)
    pw = (z1[..., None, None] ** np.arange(grid.A + 1)[:, None]
          * z2[..., None, None] ** np.arange(grid.B + 1))
    n = (grid.A + 1) * (grid.B + 1)
    vals = pw.reshape(z1.shape + (n,)) @ cols.reshape(n, -1)
    return vals.reshape(z1.shape + (grid.d, cols.shape[1]))


def _kernel_matrix(space: Subspace, z, w) -> np.ndarray:
    """sum_i phi_i(z) phi_i(w)* over the space's columns, at one pair or arrays of them."""
    Ez, Ew = (eval_columns(space.basis, space.grid, point) for point in (z, w))
    return Ez @ Ew.conj().swapaxes(-1, -2)


def _require_bidisk(points: np.ndarray) -> None:
    """Raise ValueError naming the first (z1, z2) row outside the open bidisk."""
    outside = points[~(np.abs(points) < 1).all(axis=1)]
    if outside.size:
        raise ValueError(f"point {tuple(outside[0].tolist())} lies outside the open bidisk")


@one_blas_thread
def agler_kernel_residual(theta: RationalInnerMatrix, spaces: AglerSpaces,
                          sample_pairs) -> float:
    """Max defect of the two-kernel decomposition over sample point pairs.

    Reconstructs K1 from the z1-wandering basis and K2 from the
    z2-wandering basis and measures

        || I - Theta(z) Theta(w)* - (1 - z1 conj(w1)) K2 - (1 - z2 conj(w2)) K1 ||_F,

    Theta and both bases evaluated at every pair in one batch.  A point
    outside the open bidisk raises ValueError; points should stay well inside
    it (modulus at most 0.7), as truncated bases lose accuracy toward the boundary.
    """
    pts = np.asarray(sample_pairs, dtype=complex).reshape(-1, 2, 2)
    _require_bidisk(pts.reshape(-1, 2))
    z, w = pts[:, 0].T, pts[:, 1].T  # (z1, z2) rows of the points
    K1, K2 = (_kernel_matrix(space, z, w) for space in (spaces.hkmax1, spaces.hkmin2))
    Tz, Tw = (np.moveaxis(theta(*pt), -1, 0) for pt in (z, w))
    lhs = np.eye(theta.d) - Tz @ Tw.conj().swapaxes(1, 2)
    rhs = ((1 - z[0] * w[0].conj())[:, None, None] * K2
           + (1 - z[1] * w[1].conj())[:, None, None] * K1)
    return float(np.linalg.norm(lhs - rhs, axis=(1, 2)).max(initial=0.0))


# ----------------------------------------------------------------------
# commutator action on the summand reproducing kernels
# ----------------------------------------------------------------------

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
    commutator matrix of the compressed shift.  A call applies no operator:
    the formula sums the projected terms of each phi_i, which the spaces
    fix (``AglerSpaces._formula_data``), weighted at w, and the kernel's
    model coordinates are B* P(k_w e) = (P E B)(w)* e by the reproducing
    property, P E B = E B - Theta E (Theta* B) on the padded grid.
    Requires deg1 Theta <= 1, the hypothesis of the closed forms, and w in
    the open bidisk.
    """
    if theta.deg[0] > 1:
        raise ValueError("closed-form commutator action requires deg1 Theta <= 1")
    _require_bidisk(np.asarray([w], dtype=complex))
    model, data = spaces.model, spaces._formula_data
    e = np.asarray(e, dtype=complex).reshape(theta.d)
    y = eval_columns(model.basis, model.grid, w).conj().T @ e
    if spaces.adj is not None:
        y -= eval_columns(data.tadj, model.workspace.padded, w).conj().T @ e
    matrix1 = model.basis @ (data.comm @ (data.Xmax @ (data.Xmax.conj().T @ y)))
    matrix2 = model.basis @ (data.comm @ (data.Xmin @ (data.Xmin.conj().T @ y)))
    formula1 = formula2 = np.zeros(model.grid.dim, dtype=complex)
    if spaces.hkmax1.dim:
        fvals = eval_columns(data.f, data.fgrid, w) / complex(theta.p(*w))
        formula1 = data.P1 @ (fvals.conj().T @ e)
        formula2 = data.P2 @ (eval_columns(data.tphi, model.grid, w).conj().T @ e)
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
