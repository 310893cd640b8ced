"""Dense references for the tests, sharing no code with the library's engines.

``_expand_pointwise`` solves p Theta = Q for Theta's Taylor coefficients one
coefficient at a time, and ``analytic_mult`` forms the dense matrix of
multiplication by a coefficient block; together they are the reference for
``taylor.expand`` and for ``modelspace.ModelWorkspace.mult``, which never
forms the matrix.  ``_wold_basis`` places a polynomial Theta's Wold family
on a grid, the basis that a Wold rank level never forms.
``raised_box_shift`` is the compressed shift computed on the basis grid
raised one degree in z_j, where the window applies Theta* to z_j times the
basis; ``modelspace._shift_matrix`` applies no operator.
``padded_projection`` is P = I - Theta Theta* applied on a whole padded grid
and cut to a smaller grid, and ``formula_padded_vectors`` builds the
padded-grid vectors of the closed-form commutator action at one point
(the Szego kernel and the two numerators), whose projections
``agler.commutator_kernel_formula`` assembles from data it computes once
per spaces.  ``pairwise_kernel_residual`` is the two-kernel residual one
point pair at a time, where ``agler.agler_kernel_residual`` evaluates every
pair in one batch.
"""

import numpy as np

from bidisklab.modelspace import TruncGrid, shift_mult


def _expand_pointwise(theta, A, B):
    """Theta's coefficients on [0..A] x [0..B] as an (A + 1, B + 1, d, d) array:
    the convolution recursion p(0,0) Theta_ab = Q_ab - sum p_ce Theta_{a-c, b-e}
    over (c, e) != (0, 0), one coefficient at a time, over every (a, b)."""
    p00 = complex(theta.p(0.0, 0.0))
    d = theta.d
    Qc = np.zeros((A + 1, B + 1, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            entry = theta.Q[i, j].coeffs
            a, b = min(A + 1, entry.shape[0]), min(B + 1, entry.shape[1])
            Qc[:a, :b, i, j] = entry[:a, :b]
    p_terms = [(a, b, v) for a, b, v in theta.p.terms() if (a, b) != (0, 0)]
    if not p_terms:
        return Qc / p00
    coeffs = np.zeros((A + 1, B + 1, d, d), dtype=complex)
    for a in range(A + 1):
        for b in range(B + 1):
            acc = Qc[a, b].copy()
            for c, e, v in p_terms:
                if c <= a and e <= b:
                    acc -= v * coeffs[a - c, b - e]
            coeffs[a, b] = acc / p00
    return coeffs


def analytic_mult(coeffs, grid):
    """Dense matrix of multiplication by the coefficient block on the grid.

    Block Toeplitz in both degree indices; output degrees beyond the grid
    are discarded.  The block, (A + 1, B + 1, d, d), must cover the grid.
    """
    if coeffs.shape[0] <= grid.A or coeffs.shape[1] <= grid.B or coeffs.shape[2] != grid.d:
        raise ValueError("coefficient block does not cover the grid")
    A, B, d = grid.A, grid.B, grid.d
    n = grid.dim
    M = np.zeros((n, n), dtype=complex)
    norms = np.linalg.norm(coeffs[: A + 1, : B + 1], axis=(2, 3))
    kd = np.arange(d)
    for c, e in zip(*np.nonzero(norms > 0.0)):
        blk = coeffs[c, e]
        a = np.arange(A + 1 - c)[:, None]
        b = np.arange(B + 1 - e)[None, :]
        src = (a * (B + 1) + b) * d
        dst = ((a + c) * (B + 1) + (b + e)) * d
        rows = dst[:, :, None, None] + kd[None, None, :, None]
        cols = src[:, :, None, None] + kd[None, None, None, :]
        M[rows, cols] += blk[None, None, :, :]
    return M


def dense_mult(theta, grid):
    """Dense matrix of multiplication by Theta on the grid, from the oracle."""
    return analytic_mult(_expand_pointwise(theta, grid.A, grid.B), grid)


def _wold_basis(wold, grid):
    """The columns z1^k phi, k = 0..A - m1, then z2^l psi, l = 0..B - m2, on
    the grid, for phi in W1 and psi in W2 (``modelspace._wold_family``,
    whose edge cuts it ignores): every shift whose degree box fits.  The
    columns are orthonormal and lie in the model space exactly."""
    (phi, _), (psi, _) = wold
    m1, m2, n2, n1 = phi.shape[0] - 1, psi.shape[1] - 1, phi.shape[3], psi.shape[3]
    k1, k2 = grid.A - m1 + 1, grid.B - m2 + 1
    box = np.zeros((grid.A + 1, grid.B + 1, grid.d, k1 * n2 + k2 * n1), dtype=complex)
    for k in range(k1):
        box[k: k + m1 + 1, : m2, :, k * n2: (k + 1) * n2] = phi
    for l in range(k2):
        box[: m1, l: l + m2 + 1, :, k1 * n2 + l * n1: k1 * n2 + (l + 1) * n1] = psi
    return box.reshape(grid.dim, -1)


def raised_box_shift(ws, basis, adj, j):
    """Matrix of the compressed shift on `basis`, given `adj` = Theta* basis.

    Entries are <P(z_j phi_beta), phi_alpha> = <z_j phi_beta, phi_alpha>
    - <Theta*(z_j phi_beta), Theta* phi_alpha>, evaluated on the basis grid
    raised by one degree in z_j, so the multiplication never overflows.
    Theta* is anti-causal, so on that grid Theta* of the embedded basis is
    `adj` embedded, and only z_j times the basis needs the adjoint, which
    the window `ws` applies on the raised box.
    """
    g = basis.grid
    big = TruncGrid(g.A + (j == 1), g.B + (j == 2), g.d)
    Z = shift_mult(g.embed(basis.basis, big), big, j)
    rows = g.indices_in(big)
    return basis.basis.conj().T @ Z[rows] - adj.conj().T @ ws.mult(Z, big, adjoint=True)[rows]


def padded_projection(ws, x, grid):
    """P x = x - Theta Theta* x for columns x on the window's padded grid,
    both products applied there, cut to `grid`."""
    P = ws.padded
    return P.restrict(x - ws.mult(ws.mult(x, P, adjoint=True), P), grid)


def _eval_box(cols, grid, z):
    """Flat coefficient columns on the grid evaluated at one point z: (d, columns)."""
    box = cols.reshape(grid.A + 1, grid.B + 1, grid.d, -1)
    pw1 = complex(z[0]) ** np.arange(grid.A + 1)
    pw2 = complex(z[1]) ** np.arange(grid.B + 1)
    return np.einsum("a,b,abdn->dn", pw1, pw2, box)


def pairwise_kernel_residual(theta, spaces, sample_pairs):
    """max || I - Theta(z) Theta(w)* - (1 - z1 conj(w1)) K2 - (1 - z2 conj(w2)) K1 ||_F
    over the pairs, one pair at a time, K1 and K2 summed over the wandering
    bases evaluated at z and w."""
    worst = 0.0
    for z, w in sample_pairs:
        K1, K2 = (_eval_box(s.basis, s.grid, z) @ _eval_box(s.basis, s.grid, w).conj().T
                  for s in (spaces.hkmax1, spaces.hkmin2))
        lhs = np.eye(theta.d) - theta(*z) @ theta(*w).conj().T
        rhs = (1 - z[0] * np.conj(w[0])) * K2 + (1 - z[1] * np.conj(w[1])) * K1
        worst = max(worst, float(np.linalg.norm(lhs - rhs, "fro")))
    return worst


def formula_padded_vectors(theta, spaces, w, e):
    """The three padded-grid columns whose projections the closed-form
    commutator action at w reads: the Szego kernel k_w e, then
    sum_i f_i(0, z2) / p(0, z2) (f_i(w) / p(w))^* e and
    sum_i Tbar1 f_i / p(0, z2) (Tbar1 phi_i(w))^* e for the z1-wandering
    basis phi_i, f_i = p phi_i, Tbar1 the backward z1-shift, each series
    cut to the padded grid; f_i and the series of 1 / p(0, z2) are formed
    here by direct convolution and recursion."""
    grid, padded = spaces.model.grid, spaces.model.workspace.padded
    d, PA, PB = theta.d, padded.A + 1, padded.B + 1
    x = np.zeros((PA, PB, d, 3), dtype=complex)
    x[..., 0] = np.multiply.outer(np.outer(np.conj(w[0]) ** np.arange(PA),
                                           np.conj(w[1]) ** np.arange(PB)), e)
    phi = spaces.hkmax1
    if phi.dim == 0:
        return x.reshape(padded.dim, 3)
    p = theta.p.coeffs
    box = phi.basis.reshape(grid.A + 1, grid.B + 1, d, phi.dim)
    f = np.zeros((grid.A + p.shape[0], grid.B + p.shape[1], d, phi.dim), dtype=complex)
    for c, k in np.ndindex(p.shape):
        f[c: c + grid.A + 1, k: k + grid.B + 1] += p[c, k] * box
    r = np.zeros(PB, dtype=complex)  # 1 / p(0, z2) to degree padded.B
    for b in range(PB):
        acc = (b == 0) - sum(p[0, k] * r[b - k] for k in range(1, min(b, p.shape[1] - 1) + 1))
        r[b] = acc / p[0, 0]
    w1 = (_eval_box(f.reshape(-1, phi.dim), TruncGrid(f.shape[0] - 1, f.shape[1] - 1, d), w)
          / complex(theta.p(*w))).conj().T @ e
    w2 = _eval_box(box[1:].reshape(-1, phi.dim), TruncGrid(grid.A - 1, grid.B, d), w).conj().T @ e
    for col, rows, weights in ((1, f[:1], w1), (2, f[1:PA + 1], w2)):
        g = np.einsum("abdn,n->abd", rows, weights)
        for b in range(PB):
            x[: g.shape[0], b, :, col] = sum(r[b - k] * g[:, k] for k in range(min(b + 1, g.shape[1])))
    return x.reshape(padded.dim, 3)
