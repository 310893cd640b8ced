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
spaces above the small level its Wold family is read at
(``modelspace._wold_family``, itself that level's sketch) are assembled
from that family instead (``_wold_spaces``): smax1 and smin2 are the shifts of
the two wandering spaces the nominal box sees, placed on the working grid,
and no operator is applied.  Rational Theta keep the sketch.

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
    _edge_rows,
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


def _spaces(theta: RationalInnerMatrix, smax1: Subspace, smin2: Subspace,
            model: Subspace) -> AglerSpaces:
    """The Agler spaces of a split model basis: the wandering quotients added."""
    exact = theta.p.is_constant
    hkmax1 = _wandering(theta, smax1, 1, exact)
    hkmin2 = _wandering(theta, smin2, 2, exact)
    return AglerSpaces(smax1, smin2, hkmax1, hkmin2, model)


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
    return _spaces(theta, smax1, compute_smin2(theta, basis, smax1), basis)


def _shifted(box: np.ndarray, j: int, shifts: range, grid: TruncGrid) -> np.ndarray:
    """The columns z_j^s f on `grid`, s in `shifts` then f in the degree box
    (a, b, component, vector), every shifted box inside the grid."""
    out = np.zeros((grid.A + 1, grid.B + 1, grid.d, len(shifts), box.shape[3]), dtype=complex)
    a, b = box.shape[:2]
    for i, s in enumerate(shifts):
        if j == 1:
            out[s: s + a, :b, :, i] = box
        else:
            out[:a, s: s + b, :, i] = box
    return out.reshape(grid.dim, -1)


def _wold_spaces(theta: RationalInnerMatrix, wold, A: int, B: int) -> AglerSpaces:
    """The Agler spaces at (A, B) of a polynomial Theta from its Wold family.

    For phi in W1 and psi in W2 (``_wold_family``), smax1 is spanned by the
    z1^k phi, k <= A, and smin2 by the z2^l psi, l <= B, the shifts the
    nominal box sees, each cut to the directions it sees: the shifts whose
    degree box lies inside the nominal box are kept as they are, and the
    leading right singular vectors of the few edge shifts' nominal rows
    (``_edge_rows``), one SVD per group, combine the others.  One
    ``rank_count`` judges [1, ..., 1, sigma_edge] over both groups, as
    ``_wold_coordinates`` does.  The spaces live on the working grid of the
    (A, B) window and the model basis is [smax1 | smin2]; no operator is
    applied.  Requires (A, B) at or above the family's level.
    """
    ws = ModelWorkspace.window(theta, A, B)
    phi, psi = wold
    m1, m2, n2, n1 = phi.shape[0] - 1, psi.shape[1] - 1, phi.shape[3], psi.shape[3]
    inner, seen = (A - m1 + 1, B - m2 + 1), (A + 1, B + 1)
    edges = [np.linalg.svd(_edge_rows(wold, ws.nominal, inner, count), full_matrices=False)[1:]
             for count in ((seen[0], inner[1]), (inner[0], seen[1]))]
    sig = np.concatenate([s for s, _ in edges])
    interior = inner[0] * n2 + inner[1] * n1
    keep = rank_count(np.sort(np.r_[np.ones(interior), sig])[::-1]) - interior
    # each group keeps the prefix of its sigma that is among the keep largest
    kept1 = int((np.argsort(-sig, kind="stable")[:keep] < edges[0][0].size).sum())
    groups = []
    for j, (box, (_, Vh), kept) in enumerate(zip(wold, edges, (kept1, keep - kept1))):
        edge = _shifted(box, j + 1, range(inner[j], seen[j]), ws.grid) @ Vh[:kept].conj().T
        groups.append(np.hstack([_shifted(box, j + 1, range(inner[j]), ws.grid), edge]))
    label = theta.label
    smax1 = Subspace(ws.grid, groups[0], f"smax1({label})", ws)
    smin2 = Subspace(ws.grid, groups[1], f"smin2({label})", ws)
    model = Subspace(ws.grid, np.hstack(groups), f"model({label})@({A},{B})", ws)
    return _spaces(theta, smax1, smin2, model)


@one_blas_thread
def agler_spaces(theta: RationalInnerMatrix, A: int, B: int) -> AglerSpaces:
    """Compute the invariant subspaces and wandering quotients at (A, B).

    A polynomial Theta's spaces above the level its Wold family is read at,
    (max(m1, 1), max(m2, 1)) for (m1, m2) = deg Theta, are assembled from
    that family (``_wold_spaces``); each call reads the family afresh.  The
    others, rational Theta, a family whose wandering dimensions do not match
    det_deg Theta, boxes below the family's level and the family's level
    itself, whose sketch is the family read, run the sketch level
    (``_sketch_spaces``): the invariant subspaces are null spaces of an
    invariance block on the sketched model basis.
    """
    level = tuple(max(m, 1) for m in theta.deg)
    if theta.p.is_constant and (A, B) != level and A >= level[0] and B >= level[1]:
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
    x = vecs.reshape(padded.dim, 3)
    kw, formula1, formula2 = padded.restrict(
        x - ws.mult(ws.mult(x, padded, adjoint=True), padded), grid).T

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
