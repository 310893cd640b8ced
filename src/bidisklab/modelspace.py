"""Truncated vector Hardy-space machinery.

Functions on the bidisk with d components are coordinatized on a finite
degree box: index (a, b, k) with z1-degree a <= A, z2-degree b <= B and
component k maps to a flat position lexicographically.  On that box the
module applies the multiplication operator of an inner function, its
adjoint and the induced truncated model projection, and builds
orthonormal model-space bases, compressed shifts, self-commutators, and
numerical rank estimates swept over a truncation schedule.

No operator is stored as an n x n matrix.  Multiplication by Theta = Q / p
is causal, so on a lower box it is T_Q T_p^-1, and a truncation window
(``ModelWorkspace.mult``) applies it by one shifted-slice product per
nonzero block of Q and a recursion over z1-rows, one product with 1 / p(0,
z2) per row; the model projection is x - M (M* x), and memory grows with
the grid, not with its square.

Multiplication is causal and its adjoint anti-causal: Theta* only lowers
degrees.  So on any lower box W inside a larger box, the projection's
columns at lattice points of W, cut back to W, equal I - M_W M_W* built
on W alone.  So bases and shifts work on the working grid.  The headroom
grid ("padded") enters the rank pipeline only as the set of points
outside the working grid, where ``chopped_defect`` measures the
coefficient mass a restriction chops off, from Theta's coefficients on
the padded grid, which the window's own series of 1 / p gives
(``taylor._coefficients``).

Model-space bases come from one builder, ``ModelWorkspace.model_span``: a
randomized range finder (Halko, Martinsson & Tropp, SIAM Review 53, 2011,
Alg. 4.1) sketches the span of the projected probe monomials and takes a
plain QR of the sketch as its frame F.  On the whole working grid the Ritz
pairs of P on F (``_ritz_pairs``) give the basis, its Theta* image and its
projection; a smaller probe box takes the singular vectors of F's
projected rows there (``_orth_columns``).  Either way the values are those
of the probe columns themselves and decide the rank by ``rank_count`` at
``RANK_REL_TOL``, the one tolerance of every rank in this module.  The
sketch is sized by det_deg Theta (falling back to a bound proven from
deg Theta).  The compressed shift continues Theta*(z_j B) from Theta* B
(``_shift_matrix``) and applies no operator.

Rank levels of a polynomial Theta take a second route.  By the Wold
decomposition of the canonical pair S_max1 + S_min2 (Bickel & Knese, JFA
265, 2013) the model space is the orthogonal sum of the shifts z1^k W1 and
z2^l W2 of the two wandering spaces, W1 = ``hkmax1`` of dimension n2 and
W2 = ``hkmin2`` of dimension n1, (n1, n2) = det_deg Theta.  For constant
p these are polynomials of degree at most (m1, m2 - 1) and (m1 - 1, m2),
(m1, m2) = deg Theta, read once off the sketch level of one small
``agler_spaces`` window, the family level (``_wold_family``).  Their
shifts that fit the working grid are an exact orthonormal basis there, and
a level at or above the family level never forms it: in these Wold
coordinates the compressed shift is a block shift, a coupling block and a
finite block Toeplitz section, each entry the inner product of two small
degree boxes, and the nominal compression is the identity on the shifts
inside the nominal box and the family's edge cut on the next few
(``_wold_coordinates``).  No sketch, no grid-sized array and no operator
application.  ``agler_spaces`` above the family level places the same
shifts on its working grid.  Boxes below the family level, rational
Theta, and polynomial Theta whose small-level wandering dimensions are not
(n2, n1) keep the sketch.

Truncation is the artifact here, not an afterthought.  A ``ModelWorkspace``
is one window: the nominal (A, B) box that estimates are read on, the
working box raised by the headroom deg Theta + (2, 2), so that one variable
multiplication plus one application of the function never spills over its
edge, and the padded box raised by the headroom again.  Rank estimates are
read off after compressing back to the nominal box, which keeps edge
reflections away from the reported singular values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cached_property

import numpy as np

from ._blas import one_blas_thread
from .inner import RationalInnerMatrix
from .taylor import (
    DecayClass,
    _coefficients,
    _denominator_kernel,
    _lower_toeplitz,
    _solve_denominator,
    expand,
    tail_diagnostic,
)
from .tolerances import (
    BASIS_ORTHO_TOL,
    COMMUTATOR_HERM_TOL,
    RANK_ABS_TOL,
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
    box = grid.as_box(vec)
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
    box = grid.as_box(vec)
    out = np.zeros_like(box)
    if j == 1:
        out[:-1] = box[1:]
    elif j == 2:
        out[:, :-1] = box[:, 1:]
    else:
        raise ValueError("variable index must be 1 or 2")
    return out.reshape(vec.shape)


def _check_orthonormal(defect: float) -> None:
    """Reject a basis whose Frobenius defect ||B* B - I|| exceeds ``BASIS_ORTHO_TOL``."""
    if defect > BASIS_ORTHO_TOL:
        raise ValueError(f"basis columns not orthonormal (defect {defect:.2e})")


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
            _check_orthonormal(np.linalg.norm(gram - np.eye(self.basis.shape[1]), "fro"))

    @classmethod
    def _checked(cls, *values) -> "Subspace":
        """A Subspace whose columns the caller checked from small Grams (``_wold_grams``)."""
        out = object.__new__(cls)
        out.__dict__.update(zip((f.name for f in fields(cls)), values))
        return out

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def coords(self, vec: np.ndarray) -> np.ndarray:
        return self.basis.conj().T @ vec

    def workspace_for(self, theta: RationalInnerMatrix) -> "ModelWorkspace":
        """The basis workspace if it is one of Theta, else a new one on the grid."""
        ws = self.workspace
        return ws if ws is not None and ws.theta is theta else ModelWorkspace(theta, self.grid)


# ----------------------------------------------------------------------
# multiplication by Theta = Q / p on a box
# ----------------------------------------------------------------------

def _rational_kernel(theta: RationalInnerMatrix, grid: TruncGrid):
    """R_0 and the band of p on the box (``taylor._denominator_kernel``), and
    Q's nonzero coefficient blocks (c, e, Q_ce) there, by z2-shift e; for
    constant p, 1 / p is folded into the blocks and ``mult`` skips p."""
    q = theta.Q.coeffs[:, :, : grid.A + 1, : grid.B + 1]
    if theta.p.is_constant:
        q = q / theta.p.coeffs[0, 0]
    blocks = zip(*np.nonzero(q.any(axis=(0, 1)).T))
    return (*_denominator_kernel(theta.p, grid.A, grid.B),
            [(int(c), int(e), q[:, :, c, e].copy()) for e, c in blocks])


def _block_product(blocks, x: np.ndarray, out: np.ndarray, k: int, adjoint: bool) -> np.ndarray:
    """out = T_Q x (T_Q* x if `adjoint`) for z1-rows (A + 1, d, n k) of components
    by (z2-degree, column), one shifted-slice product per block Q_ce: a z2-shift
    by e moves a row by e k entries.  Chunks of z1-rows go from the top down; a
    chunk reads only rows at or below it, so the forward product may be in place."""
    A, d, L = out.shape[0] - 1, out.shape[1], out.shape[2]
    product = np.matmul if d > 1 else np.multiply  # d = 1: a scalar block
    terms = [(c, e * k, Q.conj().T if adjoint else Q) for c, e, Q in blocks
             if c <= A and e * k < L]
    step = max(1, _MULT_CHUNK_BYTES // out[0].nbytes)
    for hi in range(A + 1, 0, -step):
        lo = max(0, hi - step)
        acc = np.zeros((hi - lo, d, L), dtype=complex)
        for c, s, M in terms:
            if adjoint and lo + c <= A:
                top = min(hi, A + 1 - c)
                acc[: top - lo, :, : L - s] += product(M, x[lo + c: top + c, :, s:])
            elif not adjoint and hi > c:
                low = max(lo, c)
                acc[low - lo:, :, s:] += product(M, x[low - c: hi - c, :, : L - s])
        out[lo:hi] = acc
    return out


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

# A block of Q costs about as much as this many rows of a dense T_c, which a
# box narrower in z2 than _DENSE_SIDE blocks per z1-shift of Q takes instead;
# ``_block_product`` takes z1-rows in chunks of this many bytes, small enough
# to stay in cache and off the allocator's mapped pages.
_DENSE_SIDE = 10
_MULT_CHUNK_BYTES = 1 << 17

# Outside points one chopped-defect block takes: few enough that a block's
# gathered columns and mult's temporaries on a (24,24) probe box stay in cache.
_DEFECT_BLOCK_POINTS = 32


class ModelWorkspace:
    """One truncation window of Theta: nominal, working and padded boxes.

    Estimates are read on the ``nominal`` box, bases live on the working
    ``grid``, and ``padded`` is the working grid raised by the headroom; its
    points outside the working grid are where ``chopped_defect`` measures
    truncation noise.  ``ModelWorkspace(theta, grid)`` takes the working grid
    as its nominal box; ``ModelWorkspace.window(theta, A, B)`` raises the
    nominal (A, B) box by the headroom first.  The window is the one thing
    that applies Theta (``mult``), from one kernel built on the padded grid
    on first use.  Bases and shifts run on the working grid or a box inside
    it, where the anti-causal identity (module docstring) makes them agree
    with the padded projection; only the Agler formula data
    (``agler.AglerSpaces``) applies Theta on the padded grid.
    ``chopped_defect`` sets the ``noise_floor`` of rational rank levels and
    Agler spaces from the same kernel.
    """

    def __init__(self, theta: RationalInnerMatrix, grid: TruncGrid):
        if grid.d != theta.d:
            raise ValueError("grid dimension disagrees with Theta")
        self.theta = theta
        self.grid = self.nominal = grid
        self.padded = _headroom(grid, theta)

    @classmethod
    def window(cls, theta: RationalInnerMatrix, A: int, B: int) -> "ModelWorkspace":
        """Workspace of the nominal (A, B) box, on that box raised by the headroom."""
        nominal = TruncGrid(A, B, theta.d)
        ws = cls(theta, _headroom(nominal, theta))
        ws.nominal = nominal
        return ws

    @cached_property
    def _kernel(self):
        return _rational_kernel(self.theta, self.padded)

    @cached_property
    def _toeplitz(self) -> np.ndarray:
        """Dense lower block-Toeplitz T_c of Q per z1-shift c on the padded grid,
        T_c[(b, i), (b', j)] = Q_{c, b - b'}[i, j]: [i, j, c, b, b'] -> [c, (b, i), (b', j)]."""
        n, d, blocks = self.padded.B + 1, self.padded.d, self._kernel[2]
        series = np.zeros((d, d, 1 + max(c for c, _, _ in blocks), n), dtype=complex)
        for c, e, Q in blocks:
            series[:, :, c, e] = Q
        return _lower_toeplitz(series).transpose(2, 3, 0, 4, 1).reshape(-1, n * d, n * d)

    @property
    def inv_p0(self) -> np.ndarray:
        """R_0 on the padded grid: division by p(0, z2) of z2-series up to padded.B."""
        return self._kernel[0]

    def mult(self, x: np.ndarray, box: TruncGrid, adjoint: bool = False) -> np.ndarray:
        """Theta x, or Theta* x if `adjoint`, for a flat vector or column block x
        on a lower box; degrees beyond the box are dropped.

        Theta is causal and the box a lower box, so compressions multiply:
        Theta = T_Q T_p^-1 and Theta* = T_p^-* T_Q*.  T_p^-1 is a quarter-plane
        recursive filter (Dudgeon & Mersereau, *Multidimensional Digital
        Signal Processing*, 1984; ``taylor._solve_denominator``): one product
        per z1-row with R_0 (``inv_p0``), the Toeplitz matrix of 1 / p(0, z2),
        after p's band has taken the rows below off.  T_Q is one shifted-slice
        product per nonzero block Q_ce (``_block_product``), or, on a box
        narrower in z2 than ``_DENSE_SIDE`` blocks per z1-shift, one product
        per z1-shift with the dense block-Toeplitz T_c.  The box cuts the
        padded kernel, so it may be no taller in z2 than the padded grid; any
        z1-extent works.
        """
        x = np.asarray(x)
        if box.d != self.theta.d:
            raise ValueError("grid dimension disagrees with Theta")
        if x.shape[0] != box.dim:
            raise ValueError("vector length disagrees with the grid dimension")
        if box.B > self.padded.B:
            raise ValueError("box is taller in z2 than the padded grid")
        if x.size == 0:
            return np.zeros(x.shape, dtype=complex)
        R0, band, blocks = self._kernel
        A, n, d = box.A, box.B + 1, box.d
        shape, x = x.shape, x.reshape(A + 1, n, d, -1)
        k = x.shape[3]
        # z1-rows of components by (z2-degree, column) for Q's blocks, of (z2-degree,
        # component) by column for the T_c, blocks of z2-shift 0; p acts on the z2-degree
        if n * len({c for c, _, _ in blocks}) < _DENSE_SIDE * len(blocks):
            rows, layout = (A + 1, 1, n, d * k), (A + 1, n * d, k)
            blocks = [(c, 0, T) for c, T in enumerate(self._toeplitz[: A + 1, : n * d, : n * d])]
            x = x.reshape(rows)
        else:
            rows, layout = (A + 1, d, n, k), (A + 1, d, n * k)
            x = x.swapaxes(1, 2)
        rational = not self.theta.p.is_constant
        if not adjoint:
            x = np.array(x, dtype=complex, order="C")
            if rational:
                _solve_denominator(R0, band, x)
        x = x.reshape(layout)
        out = _block_product(blocks, x, np.empty(layout, dtype=complex) if adjoint else x,
                             k, adjoint)
        if rational and adjoint:
            _solve_denominator(R0, band, out.reshape(rows), adjoint=True)
        return out.reshape(rows).swapaxes(1, 2).reshape(shape)

    def grid_images(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Theta* vec and P vec = vec - Theta Theta* vec for working-grid vectors (or columns)."""
        adj = self.mult(vec, self.grid, adjoint=True)
        return adj, vec - self.mult(adj, self.grid)

    def model_span(self, probe: TruncGrid) -> tuple[np.ndarray, ...]:
        """Frame F, Theta* F, coordinates V and Ritz values of the projected
        probe monomials.

        B = F V is an orthonormal basis, on the working grid, of their span,
        and Theta* B = (Theta* F) V.  F is the uncut reduced QR of a seeded
        complex Gaussian sketch's projection (``grid_images``); it spans all
        the sample holds, and its columns past the sample's rank add only
        round-off.  On a whole-grid probe the span is the range of P, so V
        and the values are the leading Ritz pairs of P on F (``_ritz_pairs``)
        and P B = B diag(ritz).  A smaller probe projects F's rows there,
        (P F)[probe] = F[probe] - Theta (Theta* F)[probe] on the probe box, V
        holds the leading left singular vectors of their adjoint
        (``_orth_columns``) and ritz is None.  Either way the values alone
        pick the basis, its rank and whether the sketch came back full.
        With (m1, m2) = deg Theta, the proven bound
        d (m1 (B + 1) + m2 (A + 1)) counts the probe monomials beyond the
        d (A + 1 - m1) (B + 1 - m2) dimensions of Q g = Theta (p g), g of
        degree (A - m1, B - m2), which P annihilates.  The first sketch is
        the smaller of that bound and the model dimension
        n2 (A + 1) + n1 (B + 1), (n1, n2) = det_deg Theta, plus oversampling;
        while a sketch comes back full the next takes at least the bound,
        then doubles, so B is right whatever det_deg returns.
        """
        idx, whole = probe.indices_in(self.grid), probe == self.grid
        (m1, m2), (n1, n2) = self.theta.deg, self.theta.det_deg
        bound = probe.d * (m1 * (probe.B + 1) + m2 * (probe.A + 1)) + _SKETCH_OVERSAMPLE
        width = min(bound, n2 * (probe.A + 1) + n1 * (probe.B + 1) + _SKETCH_OVERSAMPLE)
        rng = np.random.default_rng(_SKETCH_SEED)
        while True:
            if width >= idx.size:
                sample = probe.embed(np.eye(idx.size), self.grid)
            else:
                sample = np.empty((idx.size, width), dtype=complex)
                sample.real = rng.standard_normal((idx.size, width))
                sample.imag = rng.standard_normal((idx.size, width))
                if not whole:
                    sample = probe.embed(sample, self.grid)
            frame = np.linalg.qr(self.grid_images(sample)[1])[0]
            del sample
            adj = self.mult(frame, self.grid, adjoint=True)
            if whole:
                coords, ritz = _ritz_pairs(adj)
            else:
                coords, ritz = _orth_columns(
                    (frame[idx] - self.mult(adj[idx], probe)).conj().T), None
            if width >= idx.size or coords.shape[1] < width:
                return frame, adj, coords, ritz
            width = max(2 * width, bound)

    def chopped_defect(self, probe: TruncGrid) -> float:
        """Largest mass a projected probe monomial carries outside the working grid.

        Measures the truncation noise that restricting to the working grid
        introduces; it vanishes for polynomial Theta, whose Taylor support
        the headroom covers.  Outside the working grid P e_m is -M M* e_m.
        M is causal and the probe box Q is a lower box, so on the padded
        points O outside the working grid (M M*)_{O,Q} = M_{O,Q} M_{Q,Q}*,
        and the mass of probe column m is the m-th row norm of
        M_{Q,Q} (M_{O,Q})*.  Column (p, k) of (M_{O,Q})* holds
        conj(Theta_{p-q}[k, j]) at (q, j), zero unless q <= p, gathered from
        Theta's coefficients on the padded grid, which the window's R_0 and
        band of p give (``taylor._coefficients``); M_{Q,Q} is ``mult`` on the probe
        box.  The columns do not depend on one another, so the outside points
        are taken in blocks of ``_DEFECT_BLOCK_POINTS``; one block of them all
        would be the level's largest allocation and its memory peak.
        """
        outside = np.ones((self.padded.A + 1, self.padded.B + 1), dtype=bool)
        outside[: self.grid.A + 1, : self.grid.B + 1] = False
        pa, pb = np.nonzero(outside)
        if pa.size == 0 or probe.dim == 0:
            return 0.0
        # conj(Theta_c[k, j]) at [c + (probe.A, probe.B), j, k], zero at
        # non-causal offsets, so that a block's columns are one gather
        coeffs = _coefficients(self.theta, self.padded.A, *self._kernel[:2])
        table = np.zeros((self.padded.A + probe.A + 1, self.padded.B + probe.B + 1)
                         + coeffs.shape[2:], dtype=complex)
        table[probe.A:, probe.B:] = coeffs.conj().transpose(0, 1, 3, 2)
        qa = np.arange(probe.A, -1, -1)[:, None, None, None]
        qb = np.arange(probe.B, -1, -1)[None, :, None, None]
        j = np.arange(probe.d)[None, None, :, None]
        mass = np.zeros(probe.dim)
        for start in range(0, pa.size, _DEFECT_BLOCK_POINTS):
            block = slice(start, start + _DEFECT_BLOCK_POINTS)
            # [q, j, (p, k)]: p - q + (A, B) indexes the table
            cols = table[pa[block] + qa, pb[block] + qb, j].reshape(probe.dim, -1)
            mass += (np.abs(self.mult(cols, probe)) ** 2).sum(axis=1)
        return float(np.sqrt(mass.max()))

    def noise_floor(self) -> float:
        """Rank floor of the window: ``TRUNC_NOISE_SLACK`` times the chopped
        defect of the nominal box, 0 for polynomial Theta; no basis enters it."""
        if self.theta.p.is_constant:
            return 0.0
        return TRUNC_NOISE_SLACK * self.chopped_defect(self.nominal)


def _orth_columns(cols: np.ndarray) -> np.ndarray:
    """Orthonormal basis of a column family's span, its rank decided on
    singular values.

    The leading left singular vectors, as many as ``rank_count`` counts of
    the singular values at ``RANK_REL_TOL``.  A wide family is first
    reduced by the QR cols* = Q R: cols = R* Q*, so the small triangle R*
    has its singular values and left singular vectors.
    """
    n, m = cols.shape
    if cols.size == 0:
        return np.zeros((n, 0), dtype=complex)
    if n < m:
        cols = np.linalg.qr(cols.conj().T, mode="r").conj().T
    U, sig, _ = np.linalg.svd(cols, full_matrices=False)
    return np.ascontiguousarray(U[:, :rank_count(sig)])


def _ritz_pairs(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leading Ritz vectors and values of P = I - Theta Theta* on an
    orthonormal frame F, from adj = Theta* F.

    F* P F = I - adj* adj is Hermitian positive semidefinite (Halko,
    Martinsson & Tropp, SIAM Review 53, 2011, sec. 5.3), so its left
    singular vectors and values are its eigenpairs, and ``rank_count``
    counts them.  An SVD rather than ``eigh``: the library runs no other
    Hermitian eigensolver, and ``eigh`` would page in LAPACK code for it.
    """
    V, lam, _ = np.linalg.svd(np.eye(adj.shape[1]) - adj.conj().T @ adj)
    keep = rank_count(lam)
    return V[:, :keep], lam[:keep]


@one_blas_thread
def model_basis(theta: RationalInnerMatrix, grid: TruncGrid) -> Subspace:
    """Orthonormal basis of the truncated model space on `grid`.

    Spans the projections of every monomial of the grid, restricted to the
    grid, with the rank decided on the Ritz values of P.
    """
    ws = ModelWorkspace(theta, grid)
    frame, _, coords, _ = ws.model_span(grid)
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
    frame, _, coords, _ = ws.model_span(ws.nominal)
    return Subspace(ws.grid, frame @ coords, f"model({theta.label})@({A},{B})", ws)


def _entering_slice(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The degree-0 slice of U* (z x) for the polynomial U = sum_k coeffs[k] z^k
    and a degree box x (a, b, component, column), the shifted variable first
    in both: sum over k = (c, e), c >= 1, of coeffs[c, e]^H x[c - 1, b + e]."""
    out = np.zeros(x.shape[1:], dtype=complex)
    n = x.shape[1]
    for c, e in zip(*np.nonzero(coeffs.any(axis=(2, 3)))):
        if 1 <= c <= x.shape[0] and e < n:
            out[: n - e] += coeffs[c, e].conj().T @ x[c - 1, e:]
    return out


def _shift_matrix(theta: RationalInnerMatrix, basis: Subspace, adj: np.ndarray | None,
                  j: int) -> np.ndarray:
    """Matrix of the compressed shift on `basis`, given `adj` = Theta* basis, or None for 0.

    Entries are <P(z_j phi_beta), phi_alpha> = <z_j phi_beta, phi_alpha>
    - <Theta*(z_j phi_beta), Theta* phi_alpha> on the basis grid.  Theta*
    commutes with the backward shift, so Theta*(z_j f) is z_j Theta* f plus
    a slice D at z_j-degree 0, exactly on the grid: Theta* = T_p^-* T_Q*
    only lowers degrees.  Applying T_p* gives T_p* D = T_Q* (z_j f)
    - T_p* (z_j Theta* f), which lies in that slice; the polynomial
    adjoints reach it only from the first m_j slices of z_j f and
    z_j Theta* f (``_entering_slice``), and on it T_p* is the Toeplitz
    adjoint of p at z_j = 0, solved for D.  So z_j never leaves the grid
    and no operator is applied; for j = 1 and constant p,
    D = sum_(c >= 1) (Q_c / p)* f[c - 1].
    """
    if basis.dim == 0:
        return np.zeros((0, 0), dtype=complex)
    axes = (0, 1) if j == 1 else (1, 0)  # the shifted variable first
    f = basis.grid.as_box(basis.basis).transpose(*axes, 2, 3)
    n, k = f.shape[1], basis.dim
    S = f[1:].reshape(-1, k).conj().T @ f[:-1].reshape(-1, k)
    if adj is None:
        return S
    fa = basis.grid.as_box(adj).transpose(*axes, 2, 3)
    p = theta.p.coeffs.transpose(axes)
    rhs = _entering_slice(theta.Q.coeffs.transpose(*(a + 2 for a in axes), 0, 1), f)
    rhs -= _entering_slice(p[:, :, None, None] * np.eye(basis.grid.d), fa)
    p0 = np.zeros(n, dtype=complex)
    p0[: p.shape[1]] = p[0, :n]
    D = np.linalg.solve(_lower_toeplitz(p0).conj().T, rhs.reshape(n, -1))
    S -= fa[1:].reshape(-1, k).conj().T @ fa[:-1].reshape(-1, k)
    return S - fa[0].reshape(-1, k).conj().T @ D.reshape(-1, k)


@one_blas_thread
def compressed_shift(theta: RationalInnerMatrix, basis: Subspace, j: int) -> np.ndarray:
    """Matrix of the compressed shift: project z_j times each basis column,
    from one application of Theta* to the basis (``_shift_matrix``)."""
    if j not in (1, 2):
        raise ValueError("variable index must be 1 or 2")
    ws = basis.workspace_for(theta)
    return _shift_matrix(theta, basis, ws.mult(basis.basis, basis.grid, adjoint=True), j)


def commutator(S: np.ndarray) -> np.ndarray:
    """Self-commutator S S* - S* S of a square operator matrix."""
    if S.shape[0] != S.shape[1]:
        raise ValueError("commutator needs a square operator")
    C = S @ S.conj().T - S.conj().T @ S
    herm_defect = np.linalg.norm(C - C.conj().T, "fro")
    if herm_defect > COMMUTATOR_HERM_TOL:
        raise AssertionError(f"commutator lost hermiticity ({herm_defect:.2e})")
    return C


def numerical_rank(C: np.ndarray, tol_abs: float = RANK_ABS_TOL) -> tuple[int, np.ndarray]:
    """Count singular values by ``rank_count`` at ``RANK_REL_TOL``, with
    `tol_abs` as the floor."""
    if C.size == 0:
        return 0, np.zeros(0)
    sig = np.linalg.svd(C, compute_uv=False)
    return rank_count(sig, tol_abs), sig


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
    """Decay class of Theta's expansion, probed at a trustworthy depth.

    A polynomial's expansion is finite, so constant p is FINITE outright;
    otherwise ``tail_diagnostic`` classifies the ``expand`` table on the
    box of depth ``DECAY_PROBE_DEPTH``, raised where needed to two degrees
    past the schedule's last level.
    """
    if theta.p.is_constant:
        return DecayClass.FINITE
    A, B = schedule[-1] if schedule else (0, 0)
    table = expand(theta, max(DECAY_PROBE_DEPTH, A + 2), max(DECAY_PROBE_DEPTH, B + 2))
    return tail_diagnostic(table).decay_class


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


def _family_level(theta: RationalInnerMatrix) -> tuple[int, int]:
    """(max(m1, 1), max(m2, 1)), (m1, m2) = deg Theta: the box a polynomial
    Theta's Wold family is read at, and at or above which its levels take it."""
    m1, m2 = theta.deg
    return max(m1, 1), max(m2, 1)


def _wold_family(theta: RationalInnerMatrix):
    """Wandering bases of polynomial Theta as degree boxes with their edge
    cuts, ((phi, V1), (psi, V2)), or None.

    phi and psi are ``hkmax1`` and ``hkmin2`` of the family level's sketch
    (``agler._sketch_spaces``), cut to their degree boxes (m1, m2 - 1) and
    (m1 - 1, m2), (m1, m2) = deg Theta, as (a, b, component, vector) arrays.
    A nominal box at or above the family level sees the m1 shifts past those
    inside it as z1^s phi, s < m1, cut to m1 z1-degrees, whatever its size:
    V1 holds the right singular vectors of these rows that ``rank_count``
    keeps, judged on [1, sigma]; V2 likewise for psi in z2.  None for
    rational Theta, and for a polynomial one whose wandering dimensions
    there are not (n2, n1), (n1, n2) = det_deg Theta.  Each call reads the
    family afresh.
    """
    if not theta.p.is_constant:
        return None
    from .agler import _sketch_spaces  # agler builds on this module

    (m1, m2), (n1, n2) = theta.deg, theta.det_deg
    spaces = _sketch_spaces(theta, *_family_level(theta))
    w1, w2 = spaces.hkmax1, spaces.hkmin2
    if (w1.dim, w2.dim) != (n2, n1):
        return None
    family = []
    for j, box in enumerate((w1.grid.as_box(w1.basis)[: m1 + 1, : m2],
                             w2.grid.as_box(w2.basis)[: m1, : m2 + 1])):
        along = np.moveaxis(box, j, 0)  # the shifted variable first
        m, cells, n = along.shape[0] - 1, along.shape[1] * along.shape[2], along.shape[3]
        rows = np.zeros((m, cells, m, n), dtype=complex)
        for s in range(m):
            rows[s:, :, s] = along[: m - s].reshape(m - s, cells, n)
        _, sig, Vh = np.linalg.svd(rows.reshape(m * cells, m * n), full_matrices=False)
        family.append((box, Vh[: rank_count(np.r_[1.0, sig]) - 1].conj().T))
    return tuple(family)


def _overlap(size: int, moved: int, shift: int) -> tuple[int, int]:
    """Index range [lo, hi) of a box side of `size` cells that a side of
    `moved` cells covers once shifted by `shift`; empty when lo >= hi."""
    return max(0, shift), min(size, moved + shift)


def _box_inner(g: np.ndarray, f: np.ndarray, s1: int, s2: int) -> np.ndarray:
    """g* (z1^s1 z2^s2 f) for degree boxes (a, b, component, vector) at the
    origin: the inner products of g's vectors with f's shifted ones, summed
    over the overlap of the two boxes.  The shift may be negative."""
    a0, a1 = _overlap(g.shape[0], f.shape[0], s1)
    b0, b1 = _overlap(g.shape[1], f.shape[1], s2)
    if a0 >= a1 or b0 >= b1:
        return np.zeros((g.shape[3], f.shape[3]), dtype=complex)
    gs = g[a0:a1, b0:b1].reshape(-1, g.shape[3])
    return gs.conj().T @ f[a0 - s1: a1 - s1, b0 - s2: b1 - s2].reshape(-1, f.shape[3])


def _shifted(box: np.ndarray, j: int, shifts: range, grid: TruncGrid) -> np.ndarray:
    """The columns z_j^s f on `grid`, s in `shifts` then f in the degree box
    (a, b, component, vector), every shifted box inside the grid."""
    out = np.zeros((grid.A + 1, grid.B + 1, grid.d, len(shifts), box.shape[3]), dtype=complex)
    view, along = np.moveaxis(out, j - 1, 0), np.moveaxis(box, j - 1, 0)
    for i, s in enumerate(shifts):
        view[s: s + along.shape[0], : along.shape[1], :, i] = along
    return out.reshape(grid.dim, -1)


def _nominal_view(cols: np.ndarray, group, j: int, N: int) -> np.ndarray:
    """The columns of a Wold group (box, cut) (``_wold_family``) that a
    nominal box of z_j-side N at or above the family level sees, from `cols`,
    its shifts in order: those inside the box, then the next m_j by the cut."""
    box, cut = group
    inner = (N - box.shape[j - 1] + 2) * box.shape[3]
    return np.hstack([cols[:, :inner], cols[:, inner: inner + cut.shape[0]] @ cut])


def _toeplitz_section(blocks: dict, rows: int, cols: int) -> np.ndarray:
    """Finite section of a block Toeplitz matrix: block (i, j) is blocks[i - j],
    and zero where the offset i - j has no block, for i < rows and j < cols."""
    n, m = next(iter(blocks.values())).shape
    out = np.zeros((rows, n, cols, m), dtype=complex)
    for t, block in blocks.items():
        j = np.arange(max(0, -t), min(cols, rows - t))
        out[j + t, :, j, :] = block
    return out.reshape(rows * n, cols * m)


def _wold_grams(wold, K1: int, K2: int) -> tuple[dict, dict]:
    """Check the shifts z1^k phi, k < K1, and z2^l psi, l < K2, of a Wold family
    orthonormal as ``Subspace`` would, ||B* B - I|| summed from small Grams
    weighted by how often B repeats them; return <phi, z1^s phi>, <psi, z2^t psi>."""
    (phi, _), (psi, _) = wold
    m1, m2, n2, n1 = phi.shape[0] - 1, psi.shape[1] - 1, phi.shape[3], psi.shape[3]
    lags = {s: _box_inner(phi, phi, s, 0) for s in range(-m1, m1 + 1)}
    grams = {t: _box_inner(psi, psi, 0, t) for t in range(-m2, m2 + 1)}
    sq = sum((K1 - abs(s)) * np.linalg.norm(g - (s == 0) * np.eye(n2)) ** 2
             for s, g in lags.items() if abs(s) < K1)
    sq += sum((K2 - abs(t)) * np.linalg.norm(g - (t == 0) * np.eye(n1)) ** 2
              for t, g in grams.items() if abs(t) < K2)
    sq += 2 * sum(np.linalg.norm(_box_inner(psi, phi, k, -l)) ** 2
                  for k in range(min(K1, m1 + 1)) for l in range(min(K2, m2 + 1)))
    _check_orthonormal(np.sqrt(sq))
    return lags, grams


def _wold_coordinates(ws: ModelWorkspace, wold) -> tuple[np.ndarray, np.ndarray]:
    """Compressed shift S and nominal compression X of a polynomial Theta's
    rank level, in Wold coordinates.

    The coordinates are the columns z1^k phi, k < K1 = A_w - m1 + 1, then
    z2^l psi, l < K2 = B_w - m2 + 1, for phi in W1 and psi in W2
    (``_wold_family``): every shift whose degree box fits the working grid
    (A_w, B_w).  Theta* vanishes on these orthonormal model-space vectors,
    so S = B* (z1 B) for B the columns on the grid, and B is never formed:
    every entry of S is an inner product of two small boxes
    (``_box_inner``), structural zeros included.  S holds the block shift
    z1^k phi -> z1^(k+1) phi, whose top block leaves the grid, the
    couplings <z1 z2^l psi, z1^k phi>, and the finite section of the block
    Toeplitz T_(l'l) = F_(l' - l), F_t = <z1 psi, z2^t psi>.  The defect
    ||B* B - I|| is checked from small Grams too (``_wold_grams``).

    X is the leading right singular vectors of B's nominal rows: the
    identity on the columns inside the nominal box and the family's edge
    cut on the next m_j of each group (``_nominal_view``).  The groups'
    nominal rows are orthogonal, since what the box cuts off lies above A
    for the z1^k phi and above B for the z2^l psi, so the cuts keep what one
    SVD of all of them would.
    """
    (phi, _), (psi, _) = wold
    m1, m2, n2, n1 = phi.shape[0] - 1, psi.shape[1] - 1, phi.shape[3], psi.shape[3]
    K1, K2 = ws.grid.A - m1 + 1, ws.grid.B - m2 + 1
    lags, grams = _wold_grams(wold, K1, K2)
    n = K1 * n2  # the z1^k phi come first
    S = np.zeros((n + K2 * n1,) * 2, dtype=complex)
    S[:n, :n] = _toeplitz_section({1 - s: g for s, g in lags.items()}, K1, K1)
    S[n:, n:] = _toeplitz_section({t: _box_inner(psi, psi, 1, -t) for t in grams}, K2, K2)
    for k in range(min(K1, m1 + 1)):
        for l in range(min(K2, m2 + 1)):
            at_k, at_l = slice(k * n2, (k + 1) * n2), slice(n + l * n1, n + (l + 1) * n1)
            S[at_l, at_k] = _box_inner(psi, phi, k + 1, -l)
            S[at_k, at_l] = _box_inner(phi, psi, 1 - k, l)
    eye = np.eye(S.shape[0])
    X = np.hstack([_nominal_view(eye[:, :n], wold[0], 1, ws.nominal.A),
                   _nominal_view(eye[:, n:], wold[1], 2, ws.nominal.B)])
    return S, X


def _rank_level(ws: ModelWorkspace, wold=None) -> RankLevel:
    """``rank_at_level`` on the workspace of a nominal window.

    With a Wold family (``_wold_family``), at or above the family level,
    the shift S and the compression X are assembled in Wold coordinates
    (``_wold_coordinates``), and the noise floor is 0; no operator is
    applied and no array of the grid's size is formed.  Without one,
    ``model_span`` gives B and Theta* B from the sketch's frame and its one
    adjoint image, and X is built from the nominal rows of P B = B diag(ritz);
    the shift applies no operator (``_shift_matrix``).
    """
    if wold is None:
        frame, adj, coords, ritz = ws.model_span(ws.grid)
        basis = Subspace(ws.grid, frame @ coords, f"model({ws.theta.label})", ws)
        adj = adj @ coords
        del frame  # only B and Theta* B outlive the frame
        X = _orth_columns((basis.basis[ws.nominal.indices_in(ws.grid)] * ritz).conj().T)
        S = _shift_matrix(ws.theta, basis, adj, 1)
    else:
        S, X = _wold_coordinates(ws, wold)
    rank, sig = numerical_rank(X.conj().T @ commutator(S) @ X, ws.noise_floor())
    return RankLevel(ws.nominal.A, ws.nominal.B, X.shape[1], sig, rank)


def _rank_levels(theta: RationalInnerMatrix, schedule) -> list[RankLevel]:
    """Rank levels of (A, B) pairs: those at or above the family level in
    the Wold coordinates of one family read, read only for them, the others
    on the sketch."""
    f1, f2 = _family_level(theta)
    route = [A >= f1 and B >= f2 for A, B in schedule]
    wold = _wold_family(theta) if any(route) else None
    return [_rank_level(ModelWorkspace.window(theta, A, B), wold if on else None)
            for (A, B), on in zip(schedule, route)]


@one_blas_thread
def rank_at_level(theta: RationalInnerMatrix, A: int, B: int) -> RankLevel:
    """Commutator rank estimate at one nominal truncation level.

    The shift and its commutator are computed on the working grid of the
    (A, B) window (``ModelWorkspace.window``), then compressed onto the
    span of the projected monomials of the nominal (A, B) box before
    reading singular values; the compression keeps truncation-edge
    reflections out of the estimate.  Every rank in it, of the basis, the
    compression and the commutator, is counted by ``rank_count`` at
    ``RANK_REL_TOL``; for non-polynomial Theta an additional absolute floor
    proportional to the chopped-mass defect discounts truncation noise.
    A polynomial Theta's level at or above its family level runs in Wold
    coordinates (``_wold_coordinates``), from a family read off one small
    Agler level per call, and forms no array of the grid's size; otherwise
    the basis and the compression come from the Ritz pairs of the
    projection on the sketch's frame, and the level applies Theta three
    times: twice to project the sample and once to the frame
    (``model_span``), plus the chopped defect's.
    """
    return _rank_levels(theta, [(A, B)])[0]


@one_blas_thread
def rank_sweep(theta: RationalInnerMatrix, schedule) -> RankReport:
    """Sweep commutator rank estimates across a truncation schedule.

    STABLE requires the last three levels to agree; ranks strictly
    increasing across every level mean DIVERGENT; anything else is
    INCONCLUSIVE.  A SLOW Taylor decay is surfaced as a warning since the
    estimates then carry substantial truncation noise; ``decay_class``
    probes Theta's coefficients once for it.  A polynomial Theta's Wold
    family is read once for the levels at or above its family level; the
    others sketch each level (``_rank_levels``).  The levels run
    one after another on the calling thread: on two threads they contend
    for the GIL, and the time a sweep takes then follows the load on the
    host rather than the work.
    """
    sched = _validate_schedule(schedule)
    levels = _rank_levels(theta, sched)
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
