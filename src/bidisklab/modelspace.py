"""Truncated vector Hardy-space machinery.

Functions on the bidisk with d components are coordinatized on a finite
degree box: index (a, b, k) with z1-degree a <= A, z2-degree b <= B and
component k maps to a flat position lexicographically.  On that box the
module applies the multiplication operator of an inner function, its
adjoint and the induced truncated model projection, and builds
orthonormal model-space bases, compressed shifts, self-commutators, and
numerical rank estimates swept over a truncation schedule.

No operator is stored as an n x n matrix.  Multiplication by Theta = Q / p
is causal, so on a lower box it is T_Q T_p^-1: ``BlockToeplitz`` applies
T_Q by shifted adds and T_p^-1 by a recursion over z1-rows, and the model
projection is x - M (M* x); memory grows with the grid, not with its
square.  ``analytic_mult`` is the dense test reference.

Multiplication is causal and its adjoint anti-causal: Theta* only lowers
degrees.  So on any lower box W inside a larger box, the projection's
columns at lattice points of W, cut back to W, equal I - M_W M_W* built
on W alone.  So bases work on the working grid and the shift one degree
beyond it.  The headroom grid ("padded") enters the rank pipeline only as
the set of points outside the working grid, where ``chopped_defect``
measures the coefficient mass a restriction chops off, from Theta's
coefficients that the operator on the padded grid gives as its images of
the d constant unit columns.

Model-space bases come from one builder, ``ModelWorkspace.model_span``: a
randomized range finder (Halko, Martinsson & Tropp, SIAM Review 53, 2011)
sketches the span of the projected probe monomials, and a pivoted QR of
the small coordinate matrix restores the orientation and the rank rule of
a pivoted QR over all probe columns.  The sketch is sized by det_deg Theta
(falling back to a bound proven from deg Theta), and one projection pass per
rank level gives the basis, its Theta* image and its projection.

Truncation is the artifact here, not an afterthought.  A ``ModelWorkspace``
is one window: the nominal (A, B) box that estimates are read on, the
working box raised by the headroom deg Theta + (2, 2), so that one variable
multiplication plus one application of the function never spills over its
edge, and the padded box raised by the headroom again.  Rank estimates are
read off after compressing back to the nominal box, which keeps edge
reflections away from the reported singular values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._blas import one_blas_thread, pivoted_qr
from .inner import RationalInnerMatrix
from .taylor import DecayClass, TaylorTable, expand, tail_diagnostic
from .tolerances import (
    BASIS_ORTHO_TOL,
    COMMUTATOR_HERM_TOL,
    RANK_ABS_TOL,
    RANK_REL_TOL,
    TRUNC_NOISE_SLACK,
    rank_count,
)


@dataclass(frozen=True)
class TruncGrid:
    """Degree box [0..A] x [0..B] with d vector components, flat-indexed."""

    A: int
    B: int
    d: int

    def __post_init__(self):
        if self.A < 0 or self.B < 0:
            raise ValueError(f"degree box ({self.A}, {self.B}) has a negative side")

    @property
    def dim(self) -> int:
        return self.d * (self.A + 1) * (self.B + 1)

    def flat(self, a: int, b: int, k: int) -> int:
        if not (0 <= a <= self.A and 0 <= b <= self.B and 0 <= k < self.d):
            raise IndexError("grid index out of range")
        return (a * (self.B + 1) + b) * self.d + k

    def unflat(self, idx: int) -> tuple[int, int, int]:
        k = idx % self.d
        ab = idx // self.d
        return ab // (self.B + 1), ab % (self.B + 1), k

    def as_box(self, vec: np.ndarray) -> np.ndarray:
        """View a flat vector (or stack of columns) as a degree box."""
        if vec.ndim == 1:
            return vec.reshape(self.A + 1, self.B + 1, self.d)
        return vec.reshape(self.A + 1, self.B + 1, self.d, vec.shape[1])

    def indices_in(self, big: "TruncGrid") -> np.ndarray:
        """Flat indices inside `big` of this grid's lattice points."""
        if big.A < self.A or big.B < self.B or big.d != self.d:
            raise ValueError("target grid does not contain this grid")
        a = np.arange(self.A + 1)[:, None, None]
        b = np.arange(self.B + 1)[None, :, None]
        k = np.arange(self.d)[None, None, :]
        return ((a * (big.B + 1) + b) * self.d + k).ravel()

    def embed(self, vec: np.ndarray, big: "TruncGrid") -> np.ndarray:
        out_shape = (big.dim,) + vec.shape[1:]
        out = np.zeros(out_shape, dtype=complex)
        out[self.indices_in(big)] = vec
        return out

    def restrict(self, vec: np.ndarray, small: "TruncGrid") -> np.ndarray:
        return vec[small.indices_in(self)]


def shift_mult(vec: np.ndarray, grid: TruncGrid, j: int) -> np.ndarray:
    """Multiply by z_j on the grid; degrees that overflow are dropped."""
    box = grid.as_box(vec.copy())
    out = np.zeros_like(box)
    if j == 1:
        out[1:] = box[:-1]
    elif j == 2:
        out[:, 1:] = box[:, :-1]
    else:
        raise ValueError("variable index must be 1 or 2")
    return out.reshape(vec.shape)


def backward_shift(vec: np.ndarray, grid: TruncGrid, j: int) -> np.ndarray:
    """Drop the degree-zero slice in z_j and divide by z_j."""
    box = grid.as_box(vec.copy())
    out = np.zeros_like(box)
    if j == 1:
        out[:-1] = box[1:]
    elif j == 2:
        out[:, :-1] = box[:, 1:]
    else:
        raise ValueError("variable index must be 1 or 2")
    return out.reshape(vec.shape)


@dataclass(frozen=True)
class Subspace:
    """Column-orthonormal basis of a subspace of a truncated grid."""

    grid: TruncGrid
    basis: np.ndarray  # (grid.dim, dim) with orthonormal columns
    label: str = ""
    workspace: "ModelWorkspace | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.basis.shape[0] != self.grid.dim:
            raise ValueError("basis rows disagree with the grid dimension")
        if self.basis.shape[1]:
            gram = self.basis.conj().T @ self.basis
            defect = np.linalg.norm(gram - np.eye(self.basis.shape[1]), "fro")
            if defect > BASIS_ORTHO_TOL:
                raise ValueError(f"basis columns not orthonormal (defect {defect:.2e})")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def coords(self, vec: np.ndarray) -> np.ndarray:
        return self.basis.conj().T @ vec

    def workspace_for(self, theta: RationalInnerMatrix) -> "ModelWorkspace":
        """The basis workspace if it is one of Theta, else a new one on the grid."""
        ws = self.workspace
        return ws if ws is not None and ws.theta is theta else ModelWorkspace(theta, self.grid)


@dataclass(frozen=True)
class OpMatrix:
    """Matrix of an operator between subspace bases."""

    matrix: np.ndarray
    domain: Subspace
    codomain: Subspace

    def __post_init__(self):
        if self.matrix.shape != (self.codomain.dim, self.domain.dim):
            raise ValueError("matrix shape disagrees with its subspaces")


# ----------------------------------------------------------------------
# multiplication by Theta = Q / p on a box
# ----------------------------------------------------------------------

def analytic_mult(table: TaylorTable, grid: TruncGrid) -> np.ndarray:
    """Dense matrix of multiplication by Theta on the grid.

    Block Toeplitz in both degree indices; output degrees beyond the grid
    are discarded.  The Taylor cutoffs must cover the grid.  This is the
    dense reference for ``BlockToeplitz``; the library never forms it.
    """
    if table.A < grid.A or table.B < grid.B or table.d != grid.d:
        raise ValueError("Taylor table does not cover the grid")
    A, B, d = grid.A, grid.B, grid.d
    n = grid.dim
    M = np.zeros((n, n), dtype=complex)
    norms = np.linalg.norm(table.coeffs[: A + 1, : B + 1], axis=(2, 3))
    kd = np.arange(d)
    for c, e in zip(*np.nonzero(norms > 0.0)):
        blk = table.coeffs[c, e]
        a = np.arange(A + 1 - c)[:, None]
        b = np.arange(B + 1 - e)[None, :]
        src = (a * (B + 1) + b) * d
        dst = ((a + c) * (B + 1) + (b + e)) * d
        rows = dst[:, :, None, None] + kd[None, None, :, None]
        cols = src[:, :, None, None] + kd[None, None, None, :]
        M[rows, cols] += blk[None, None, :, :]
    return M


def _lower_toeplitz(series: np.ndarray) -> np.ndarray:
    """Lower-triangular Toeplitz matrices of a stack of series (..., n)."""
    lag = np.subtract.outer(np.arange(series.shape[-1]), np.arange(series.shape[-1]))
    return np.where(lag >= 0, series[..., np.maximum(lag, 0)], 0.0)


def _rational_kernel(theta: RationalInnerMatrix, grid: TruncGrid):
    """Q's nonzero (c, e) blocks, R_0 and the (c, R_c, R_c^H) of p on the box.

    For constant p, 1 / p is folded into the blocks and there are no rows.
    """
    A, B, d = grid.A, grid.B, grid.d
    p = np.zeros((min(A, theta.p.deg1) + 1, B + 1), dtype=complex)
    for a, b, v in theta.p.terms():
        if a <= A and b <= B:
            p[a, b] = v
    # R_0 is the Toeplitz matrix of the series s = 1 / p_0, which solves
    # P_0 s = e_0, and R_c = -R_0 P_c that of -p_c / p_0
    P = _lower_toeplitz(p)
    R0 = _lower_toeplitz(np.linalg.solve(P[0], np.eye(B + 1)[:, 0]))
    scale = p[0, 0] if theta.p.is_constant else 1.0
    blocks = {}
    for i in range(d):
        for j in range(d):
            q = theta.Q[i, j].coeffs[: A + 1, : B + 1] / scale
            for c, e in zip(*np.nonzero(q)):
                blocks.setdefault((c, e), np.zeros((d, d), dtype=complex))[i, j] = q[c, e]
    rows = None if theta.p.is_constant else []
    for c in range(1, len(p)):
        if p[c].any():
            Rc = -R0 @ P[c]
            rows.append((c, Rc, Rc.conj().T))
    return list(blocks.items()), R0, rows


class BlockToeplitz:
    """Multiplication by Theta = Q / p on one degree box.

    ``M @ x`` and ``M.H @ x`` take a flat vector on the box or a block of
    such columns.  Output degrees beyond the box are dropped, as in
    ``analytic_mult``, whose matrix this operator never forms.  M is causal
    and the box a lower box, so compressions multiply: M = T_Q T_p^-1 on
    the box and M* = T_p^-* T_Q*.  T_Q is one shifted block product per
    nonzero coefficient block of Q.  T_p^-1 solves p y = x one z1-row at a
    time: with p = sum_c p_c(z2) z1^c,

        y[a] = R_0 x[a] + sum_{c = 1..m1} R_c y[a - c],

    where R_0 (``inv_p0``) and R_c are the (B + 1) x (B + 1) lower-triangular
    Toeplitz matrices of the series 1 / p_0 and -p_c / p_0.  The adjoint runs
    the same recursion from the top row down with R_c^H; lower-triangular
    Toeplitz matrices commute, so it needs no others.  This is a
    quarter-plane recursive filter (Dudgeon & Mersereau, *Multidimensional
    Digital Signal Processing*, 1984).
    """

    def __init__(self, theta: RationalInnerMatrix, grid: TruncGrid,
                 adjoint: bool = False, _kernel=None):
        if theta.d != grid.d:
            raise ValueError("grid dimension disagrees with Theta")
        self.theta, self.grid, self.adjoint = theta, grid, adjoint
        self._kernel = _kernel or _rational_kernel(theta, grid)
        self.inv_p0 = self._kernel[1]

    @property
    def H(self) -> "BlockToeplitz":
        return BlockToeplitz(self.theta, self.grid, not self.adjoint, self._kernel)

    def _numerator(self, box: np.ndarray) -> np.ndarray:
        A, B = self.grid.A, self.grid.B
        out = np.zeros(box.shape, dtype=complex)
        for (c, e), blk in self._kernel[0]:
            low, high = np.s_[: A + 1 - c, : B + 1 - e], np.s_[c:, e:]
            if self.adjoint:
                blk, src, dst = blk.conj().T, box[high], out[low]
            else:
                src, dst = box[low], out[high]
            dst += blk @ src
        return out

    def _denominator(self, box: np.ndarray) -> np.ndarray:
        _, R0, rows = self._kernel
        A, step = self.grid.A, 1 if self.adjoint else -1
        y = np.matmul(R0.conj().T if self.adjoint else R0,
                      box.reshape(A + 1, self.grid.B + 1, -1))
        for a in (range(A - 1, -1, -1) if self.adjoint else range(1, A + 1)):
            for c, Rc, RcH in rows:
                if 0 <= a + step * c <= A:
                    y[a] += (RcH if self.adjoint else Rc) @ y[a + step * c]
        return y.reshape(box.shape)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        g = self.grid
        if x.shape[0] != g.dim:
            raise ValueError("vector length disagrees with the grid dimension")
        if x.size == 0:
            return np.zeros(x.shape, dtype=complex)
        box = x.reshape(g.A + 1, g.B + 1, g.d, -1)
        if self._kernel[2] is None:
            out = self._numerator(box)
        elif self.adjoint:
            out = self._denominator(self._numerator(box))
        else:
            out = self._numerator(self._denominator(box))
        return out.reshape(x.shape)


# ----------------------------------------------------------------------
# workspace: one truncation window
# ----------------------------------------------------------------------

def _headroom(grid: TruncGrid, theta: RationalInnerMatrix) -> TruncGrid:
    """`grid` raised by deg Theta + (2, 2), so z_j then Theta never overflow it."""
    m1, m2 = theta.deg
    return TruncGrid(grid.A + m1 + 2, grid.B + m2 + 2, grid.d)


# The range finder samples this many columns beyond its rank bound, and
# draws them from a fixed seed so every basis is reproducible.
_SKETCH_OVERSAMPLE = 10
_SKETCH_SEED = 0
# The sketch's frame keeps directions this much weaker than the rank rule
# allows: a Gaussian sketch rescales directions unevenly, and the rank rule
# belongs to the pivoted QR of the coordinates alone.  Round-off in the
# projected probe columns sits near 1e-15 of the largest, far below.
_FRAME_TOL_REL = 1e-3 * RANK_REL_TOL

# Complex entries of the probe-box column block one defect batch may hold (16 MB).
_DEFECT_BATCH_ENTRIES = 1 << 20


class ModelWorkspace:
    """One truncation window of Theta: nominal, working and padded boxes.

    Estimates are read on the ``nominal`` box, bases live on the working
    ``grid``, and ``padded`` is the working grid raised by the headroom; its
    points outside the working grid are where ``chopped_defect`` measures
    truncation noise.  ``ModelWorkspace(theta, grid)`` takes the working grid
    as its nominal box; ``ModelWorkspace.window(theta, A, B)`` raises the
    nominal (A, B) box by the headroom first.  The workspace holds only
    operators: multiplication by Theta on a box, built on first use by
    ``mult_on``.  Bases and shifts run on the working grid or one degree
    beyond it, where the anti-causal identity (module docstring) makes them
    agree with the padded projection.  The operator on the padded grid is
    built only for rational Theta, in ``chopped_defect``, which sets the
    ``noise_floor`` of a rank level and of the rational Agler spaces.
    """

    def __init__(self, theta: RationalInnerMatrix, grid: TruncGrid):
        if grid.d != theta.d:
            raise ValueError("grid dimension disagrees with Theta")
        self.theta = theta
        self.grid = self.nominal = grid
        self.padded = _headroom(grid, theta)
        self._mults: dict[tuple[int, int], BlockToeplitz] = {}

    @classmethod
    def window(cls, theta: RationalInnerMatrix, A: int, B: int) -> "ModelWorkspace":
        """Workspace of the nominal (A, B) box, on that box raised by the headroom."""
        nominal = TruncGrid(A, B, theta.d)
        ws = cls(theta, _headroom(nominal, theta))
        ws.nominal = nominal
        return ws

    def mult_on(self, grid: TruncGrid) -> BlockToeplitz:
        """Multiplication by Theta on a box inside the padded grid (cached)."""
        key = (grid.A, grid.B)
        if key not in self._mults:
            self._mults[key] = BlockToeplitz(self.theta, grid)
        return self._mults[key]

    def grid_images(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Theta* vec and P vec = vec - Theta Theta* vec for working-grid vectors (or columns)."""
        mult = self.mult_on(self.grid)
        adj = mult.H @ vec
        return adj, vec - mult @ adj

    def model_span(self, probe: TruncGrid) -> tuple[np.ndarray, ...]:
        """Frame F, Theta* F, P F and coordinates Qc of the projected probe monomials.

        B = F Qc is an orthonormal basis, on the working grid, of their span,
        and Theta* B = (Theta* F) Qc and P B = (P F) Qc cost one product each.
        The frame F of a seeded complex Gaussian sketch is projected once
        (``grid_images``); Qc is the pivoted QR of the rows of P F at the
        probe monomials.  F is cut only far below the rank rule, so that QR
        alone picks the basis and its rank, as a pivoted QR over every probe
        column would.  With (m1, m2) = deg Theta, the proven bound
        d (m1 (B + 1) + m2 (A + 1)) counts the probe monomials beyond the
        d (A + 1 - m1) (B + 1 - m2) dimensions of Q g = Theta (p g), g of
        degree (A - m1, B - m2), which P annihilates.  The first sketch is
        the smaller of that bound and the model dimension
        n2 (A + 1) + n1 (B + 1), (n1, n2) = det_deg Theta, plus oversampling;
        while a sketch comes back full the next takes at least the bound,
        then doubles, so B is right whatever det_deg returns.
        """
        idx = probe.indices_in(self.grid)
        (m1, m2), (n1, n2) = self.theta.deg, self.theta.det_deg
        bound = probe.d * (m1 * (probe.B + 1) + m2 * (probe.A + 1)) + _SKETCH_OVERSAMPLE
        width = min(bound, n2 * (probe.A + 1) + n1 * (probe.B + 1) + _SKETCH_OVERSAMPLE)
        rng = np.random.default_rng(_SKETCH_SEED)
        while True:
            sample = np.zeros((self.grid.dim, min(width, idx.size)), dtype=complex)
            if width >= idx.size:
                sample[idx, np.arange(idx.size)] = 1.0
            else:
                sample.real[idx] = rng.standard_normal((idx.size, width))
                sample.imag[idx] = rng.standard_normal((idx.size, width))
            frame = _orth_columns(self.grid_images(sample)[1], _FRAME_TOL_REL)
            if width >= idx.size or frame.shape[1] < width:
                break
            width = max(2 * width, bound)
        adj, proj = self.grid_images(frame)
        return frame, adj, proj, _orth_columns(proj[idx].conj().T)

    def chopped_defect(self, probe: TruncGrid) -> float:
        """Largest mass a projected probe monomial carries outside the working grid.

        Measures the truncation noise that restricting to the working grid
        introduces; it vanishes for polynomial Theta, whose Taylor support
        the headroom covers.  Outside the working grid P e_m is -M M* e_m.
        M is causal and the probe box Q is a lower box, so on the padded
        points O outside the working grid (M M*)_{O,Q} = M_{O,Q} M_{Q,Q}*,
        and the mass of probe column m is the m-th row norm of
        M_{Q,Q} (M_{O,Q})*.  Column (p, k) of (M_{O,Q})* holds
        conj(Theta_{p-q}[k, j]) at (q, j), gathered from the operator on the
        padded grid applied to the d constant unit columns; M_{Q,Q} is the
        operator on the probe box.  Outside points are taken in batches of
        bounded memory.
        """
        outside = np.ones((self.padded.A + 1, self.padded.B + 1), dtype=bool)
        outside[: self.grid.A + 1, : self.grid.B + 1] = False
        pa, pb = np.nonzero(outside)
        if pa.size == 0 or probe.dim == 0:
            return 0.0
        mult, d = self.mult_on(probe), probe.d
        # Theta's coefficients on the padded grid, [a, b, i, k] = Theta_ab[i, k]:
        # the operator applied to the d constant unit columns
        pad = self.padded
        coeffs = pad.as_box(self.mult_on(pad) @ np.eye(pad.dim, d))
        batch = max(1, _DEFECT_BATCH_ENTRIES // (probe.dim * d))
        mass = np.zeros(probe.dim)
        for start in range(0, pa.size, batch):
            da = pa[None, start: start + batch] - np.arange(probe.A + 1)[:, None]
            db = pb[None, start: start + batch] - np.arange(probe.B + 1)[:, None]
            causal = (da >= 0)[:, None, :] & (db >= 0)[None, :, :]
            blocks = coeffs[np.maximum(da, 0)[:, None, :], np.maximum(db, 0)[None, :, :]]
            blocks = np.where(causal[..., None, None], blocks.conj(), 0.0)
            cols = blocks.transpose(0, 1, 4, 2, 3).reshape(probe.dim, -1)
            mass += (np.abs(mult @ cols) ** 2).sum(axis=1)
        return float(np.sqrt(mass.max()))

    def noise_floor(self) -> float:
        """Rank floor of the window: ``TRUNC_NOISE_SLACK`` times the chopped
        defect of the nominal box, 0 for polynomial Theta; no basis enters it."""
        if self.theta.p.is_constant:
            return 0.0
        return TRUNC_NOISE_SLACK * self.chopped_defect(self.nominal)


def _orth_columns(cols: np.ndarray, tol_rel: float = RANK_REL_TOL) -> np.ndarray:
    """Rank-revealing orthonormalization (pivoted QR) of a column family.

    The QR is ``_blas.pivoted_qr`` on numpy's LAPACK; scipy's, imported
    here, only where numpy's BLAS exports no LAPACKE.
    """
    n = cols.shape[0]
    if cols.size == 0:
        return np.zeros((n, 0), dtype=complex)
    factors = pivoted_qr(cols)
    if factors is None:
        import scipy.linalg

        factors = scipy.linalg.qr(cols, mode="economic", pivoting=True)
    Q, R, _ = factors
    return np.ascontiguousarray(Q[:, :rank_count(np.abs(np.diag(R)), tol_rel=tol_rel)])


@one_blas_thread
def model_basis(theta: RationalInnerMatrix, grid: TruncGrid) -> Subspace:
    """Orthonormal basis of the truncated model space on `grid`.

    Spans the projections of every monomial of the grid, restricted to the
    grid, with the rank decided by the pivoted-QR rule.
    """
    ws = ModelWorkspace(theta, grid)
    frame, _, _, coords = ws.model_span(grid)
    return Subspace(grid, frame @ coords, f"model({theta.label})", ws)


@one_blas_thread
def probe_model_basis(theta: RationalInnerMatrix, A: int, B: int) -> Subspace:
    """Model-space span of the (A, B) monomial projections, with headroom.

    Unlike ``model_basis`` the returned vectors live on the working grid of
    the (A, B) window (``ModelWorkspace.window``), so for polynomial Theta
    nothing is chopped and the span sits exactly inside the model space;
    the span itself is still indexed by the nominal window.  This is the
    basis of choice when invariant-subspace structure is read off the
    truncation.
    """
    ws = ModelWorkspace.window(theta, A, B)
    frame, _, _, coords = ws.model_span(ws.nominal)
    return Subspace(ws.grid, frame @ coords, f"model({theta.label})@({A},{B})", ws)


def _shift_matrix(ws: ModelWorkspace, basis: Subspace, adj: np.ndarray,
                  j: int) -> OpMatrix:
    """Matrix of the compressed shift on `basis`, given `adj` = Theta* basis.

    Entries are <P(z_j phi_beta), phi_alpha> = <z_j phi_beta, phi_alpha>
    - <Theta*(z_j phi_beta), Theta* phi_alpha>, evaluated on the basis grid
    raised by one degree in z_j, so the multiplication never overflows.
    Theta* is anti-causal, so on that grid Theta* of the embedded basis is
    `adj` embedded, and only z_j times the basis needs the adjoint.
    """
    g = basis.grid
    big = TruncGrid(g.A + (j == 1), g.B + (j == 2), g.d)
    Z = shift_mult(g.embed(basis.basis, big), big, j)
    rows = g.indices_in(big)
    S = basis.basis.conj().T @ Z[rows] - adj.conj().T @ (ws.mult_on(big).H @ Z)[rows]
    return OpMatrix(S, basis, basis)


@one_blas_thread
def compressed_shift(theta: RationalInnerMatrix, basis: Subspace, j: int) -> OpMatrix:
    """Matrix of the compressed shift: project z_j times each basis column."""
    if j not in (1, 2):
        raise ValueError("variable index must be 1 or 2")
    ws = basis.workspace_for(theta)
    return _shift_matrix(ws, basis, ws.mult_on(basis.grid).H @ basis.basis, j)


def commutator(S: OpMatrix) -> OpMatrix:
    """Self-commutator S S* - S* S of a square operator matrix."""
    M = S.matrix
    if M.shape[0] != M.shape[1]:
        raise ValueError("commutator needs a square operator")
    C = M @ M.conj().T - M.conj().T @ M
    herm_defect = np.linalg.norm(C - C.conj().T, "fro")
    if herm_defect > COMMUTATOR_HERM_TOL:
        raise AssertionError(f"commutator lost hermiticity ({herm_defect:.2e})")
    return OpMatrix(C, S.domain, S.domain)


def numerical_rank(C, tol_rel: float = RANK_REL_TOL,
                   tol_abs: float = RANK_ABS_TOL) -> tuple[int, np.ndarray]:
    """Count singular values by ``rank_count``, with `tol_abs` as the floor."""
    M = C.matrix if isinstance(C, OpMatrix) else np.asarray(C)
    if M.size == 0:
        return 0, np.zeros(0)
    sig = np.linalg.svd(M, compute_uv=False)
    return rank_count(sig, tol_abs, tol_rel), sig


# ----------------------------------------------------------------------
# rank sweeps over truncation schedules
# ----------------------------------------------------------------------

class SweepVerdict(Enum):
    STABLE = "STABLE"
    DIVERGENT = "DIVERGENT"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class RankLevel:
    A: int
    B: int
    dim_model: int
    sigmas: np.ndarray
    rank: int


@dataclass(frozen=True)
class RankReport:
    label: str
    deg: tuple[int, int]
    det_deg: tuple[int, int]
    levels: tuple[RankLevel, ...]
    stabilized_rank: int | None
    verdict: SweepVerdict
    warnings: tuple[str, ...]


# Polynomial tail ratios stabilize slowly; fitting shallower than this
# depth mistakes slow decay for geometric decay.
DECAY_PROBE_DEPTH = 40


def decay_class(theta: RationalInnerMatrix, schedule=None) -> DecayClass:
    """Decay class of Theta's expansion, probed at a trustworthy depth."""
    A, B = schedule[-1] if schedule else (0, 0)
    depth = max(DECAY_PROBE_DEPTH, A + 2), max(DECAY_PROBE_DEPTH, B + 2)
    return tail_diagnostic(expand(theta, *depth)).decay_class


def _validate_schedule(schedule) -> list[tuple[int, int]]:
    """Levels as int pairs: at least three, increasing strictly from a box."""
    sched = [(int(a), int(b)) for a, b in schedule]
    if len(sched) < 3:
        raise ValueError("schedule needs at least three levels")
    for (a0, b0), (a1, b1) in zip(sched, sched[1:]):
        if a1 <= a0 or b1 <= b0:
            raise ValueError("schedule must increase strictly in both coordinates")
    TruncGrid(*sched[0], 1)  # rejects a negative first level
    return sched


def _rank_level(ws: ModelWorkspace, tol_rel: float) -> RankLevel:
    """``rank_at_level`` on the workspace of a nominal window."""
    frame, adj, proj, coords = ws.model_span(ws.grid)
    probe = ws.nominal
    X = _orth_columns((proj[probe.indices_in(ws.grid)] @ coords).conj().T)
    basis = Subspace(ws.grid, frame @ coords, f"model({ws.theta.label})", ws)
    adj = adj @ coords
    del frame, proj  # only B and Theta* B outlive the frame
    C = commutator(_shift_matrix(ws, basis, adj, 1))
    rank, sig = numerical_rank(X.conj().T @ C.matrix @ X, tol_rel, ws.noise_floor())
    return RankLevel(probe.A, probe.B, X.shape[1], sig, rank)


@one_blas_thread
def rank_at_level(theta: RationalInnerMatrix, A: int, B: int,
                  tol_rel: float = RANK_REL_TOL) -> RankLevel:
    """Commutator rank estimate at one nominal truncation level.

    The shift and its commutator are computed on the working grid of the
    (A, B) window (``ModelWorkspace.window``), then compressed onto the
    span of the projected monomials of the nominal (A, B) box before
    reading singular values; the compression keeps truncation-edge
    reflections out of the estimate.  For non-polynomial Theta an additional absolute floor
    proportional to the chopped-mass defect discounts truncation noise.
    The basis, the shift and the compression share one projection of the
    sketch's frame.
    """
    return _rank_level(ModelWorkspace.window(theta, A, B), tol_rel)


@one_blas_thread
def rank_sweep(theta: RationalInnerMatrix, schedule,
               tol_rel: float = RANK_REL_TOL) -> RankReport:
    """Sweep commutator rank estimates across a truncation schedule.

    STABLE requires the last three levels to agree; ranks strictly
    increasing across every level mean DIVERGENT; anything else is
    INCONCLUSIVE.  A SLOW Taylor decay is surfaced as a warning since the
    estimates then carry substantial truncation noise; ``decay_class``
    expands Theta once for it, and no level expands Theta.  The levels run
    one after another on the calling thread: on two threads they contend
    for the GIL, and the time a sweep takes then follows the load on the
    host rather than the work.
    """
    sched = _validate_schedule(schedule)
    levels = [_rank_level(ModelWorkspace.window(theta, A, B), tol_rel) for A, B in sched]
    ranks = [lv.rank for lv in levels]
    if ranks[-1] == ranks[-2] == ranks[-3]:
        verdict, stabilized = SweepVerdict.STABLE, ranks[-1]
    elif all(r1 > r0 for r0, r1 in zip(ranks, ranks[1:])):
        verdict, stabilized = SweepVerdict.DIVERGENT, None
    else:
        verdict, stabilized = SweepVerdict.INCONCLUSIVE, None
    warnings: list[str] = []
    if decay_class(theta, sched) is DecayClass.SLOW:
        warnings.append("SLOW_TAYLOR_DECAY")
    return RankReport(theta.label, theta.deg, theta.det_deg, tuple(levels),
                      stabilized, verdict, tuple(warnings))
