"""Bivariate complex polynomial arithmetic on dense coefficient grids.

A polynomial in the two disk variables is stored as a 2-D complex array
``coeffs`` with ``coeffs[a, b]`` multiplying ``z1**a * z2**b``.  Grids are
kept trimmed: the top row and top column always carry at least one
coefficient above the trim tolerance unless the polynomial is zero.

The module also provides the Laurent-grid carrier used to state torus
identities such as ``|p(tau)|**2`` in coefficient form, matrices with
polynomial entries, exact determinants, conjugate reflection, and the
float-tolerant fraction reduction everything downstream relies on.

Fractions are reduced by singular value decompositions of Sylvester
matrices, the matrices of (u, v) -> u f - v g over bivariate coefficient
grids: the GCD degree is read off their rank deficiency and the reduced
numerator and denominator off a null vector (Corless, Gianni, Trager &
Watt, ISSAC 1995; Zeng & Dayton, ISSAC 2004).  The same rank rule on
univariate slices cross-checks the GCD degree in z1.
"""

from __future__ import annotations

import warnings

import numpy as np

from .tolerances import DIVISION_ZERO_REL, TRIM_TOL, rank_count


class PolyDivisionError(ArithmeticError):
    """Raised when a division expected to be exact leaves a remainder."""


class GcdSliceWarning(UserWarning):
    """Bivariate GCD degree disagrees with the univariate slice oracle."""


def _convolve2d(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full 2-D linear convolution of coefficient grids over their first two axes.

    `a` may carry trailing axes (a stack of grids, each convolved with the
    grid `b`).  One shifted add of `a` per nonzero coefficient of `b`, after
    swapping two plain grids so that `b` is the smaller; polynomial grids
    here have a handful of coefficients.
    """
    if a.ndim == 2 and a.size < b.size:
        a, b = b, a
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1) + a.shape[2:],
                   dtype=np.result_type(a, b))
    for i, j in zip(*np.nonzero(b)):
        out[i: i + a.shape[0], j: j + a.shape[1]] += b[i, j] * a
    return out


def _trim_grid(c: np.ndarray) -> np.ndarray:
    """Drop top rows/columns whose entries are all below the trim tolerance."""
    mask = np.abs(c) > TRIM_TOL
    if not mask.any():
        return np.zeros((1, 1), dtype=complex)
    rows = np.nonzero(mask.any(axis=1))[0]
    cols = np.nonzero(mask.any(axis=0))[0]
    return np.ascontiguousarray(c[: rows[-1] + 1, : cols[-1] + 1])


class BiPoly:
    """Dense bivariate polynomial; index (a, b) holds the z1^a z2^b coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, trim: bool = True):
        c = np.atleast_2d(np.asarray(coeffs, dtype=complex))
        if c.ndim != 2:
            raise ValueError("coefficient grid must be 2-D")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        self.coeffs = _trim_grid(c) if trim else c.astype(complex)

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "BiPoly":
        return cls(np.zeros((1, 1)))

    @classmethod
    def one(cls) -> "BiPoly":
        return cls(np.ones((1, 1)))

    @classmethod
    def const(cls, value) -> "BiPoly":
        return cls(np.array([[value]]))

    @classmethod
    def monomial(cls, a: int, b: int, value=1.0) -> "BiPoly":
        c = np.zeros((a + 1, b + 1), dtype=complex)
        c[a, b] = value
        return cls(c)

    @classmethod
    def from_terms(cls, terms) -> "BiPoly":
        """Build from an iterable of (a, b, value) triples."""
        terms = list(terms)
        if not terms:
            return cls.zero()
        amax = max(t[0] for t in terms)
        bmax = max(t[1] for t in terms)
        c = np.zeros((amax + 1, bmax + 1), dtype=complex)
        for a, b, v in terms:
            c[a, b] += v
        return cls(c)

    # -- structure ----------------------------------------------------
    @property
    def deg1(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def deg2(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def is_zero(self) -> bool:
        return bool(np.all(np.abs(self.coeffs) <= TRIM_TOL))

    @property
    def is_constant(self) -> bool:
        return self.coeffs.shape == (1, 1)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return (self - other).is_zero

    __hash__ = None

    # -- arithmetic ---------------------------------------------------
    def _aligned(self, other: "BiPoly"):
        m = max(self.coeffs.shape[0], other.coeffs.shape[0])
        n = max(self.coeffs.shape[1], other.coeffs.shape[1])
        a = np.zeros((m, n), dtype=complex)
        b = np.zeros((m, n), dtype=complex)
        a[: self.coeffs.shape[0], : self.coeffs.shape[1]] = self.coeffs
        b[: other.coeffs.shape[0], : other.coeffs.shape[1]] = other.coeffs
        return a, b

    def __add__(self, other: "BiPoly") -> "BiPoly":
        a, b = self._aligned(other)
        return BiPoly(a + b)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        a, b = self._aligned(other)
        return BiPoly(a - b)

    def __neg__(self) -> "BiPoly":
        return BiPoly(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, BiPoly):
            if self.is_zero or other.is_zero:
                return BiPoly.zero()
            return BiPoly(_convolve2d(self.coeffs, other.coeffs))
        return BiPoly(self.coeffs * complex(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, factor) -> "BiPoly":
        return BiPoly(self.coeffs * complex(factor))

    def swap_vars(self) -> "BiPoly":
        """Exchange the roles of z1 and z2 (transpose the grid)."""
        return BiPoly(self.coeffs.T)

    def __call__(self, z1, z2):
        return np.polynomial.polynomial.polyval2d(z1, z2, self.coeffs)

    def terms(self):
        """Yield (a, b, coefficient) for every nonzero grid entry."""
        for a, b in zip(*np.nonzero(np.abs(self.coeffs) > TRIM_TOL)):
            yield int(a), int(b), complex(self.coeffs[a, b])

    def __repr__(self) -> str:
        parts = [f"({v:.4g})*z1^{a}*z2^{b}" for a, b, v in self.terms()]
        return "BiPoly(" + (" + ".join(parts) if parts else "0") + ")"


def reflect(p: BiPoly, m: int, n: int) -> BiPoly:
    """Conjugate reflection z1^m z2^n conj(p(1/conj(z1), 1/conj(z2))).

    The output coefficient at (a, b) is the conjugate of p's coefficient
    at (m - a, n - b).  Requires m >= deg1(p) and n >= deg2(p).
    """
    if m < p.deg1 or n < p.deg2:
        raise ValueError(f"reflection degrees ({m}, {n}) below polynomial degrees "
                         f"({p.deg1}, {p.deg2})")
    out = np.zeros((m + 1, n + 1), dtype=complex)
    out[m - p.deg1:, n - p.deg2:] = np.conj(p.coeffs)[::-1, ::-1]
    return BiPoly(out)


# ----------------------------------------------------------------------
# Laurent grids
# ----------------------------------------------------------------------

class LaurentBiPoly:
    """Laurent polynomial on a symmetric exponent window [-A..A] x [-B..B]."""

    __slots__ = ("coeffs", "win1", "win2")

    def __init__(self, coeffs, win1: int, win2: int):
        c = np.asarray(coeffs, dtype=complex)
        if c.shape != (2 * win1 + 1, 2 * win2 + 1):
            raise ValueError("coefficient grid does not match the window")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        self.coeffs = c
        self.win1 = win1
        self.win2 = win2

    @classmethod
    def zero(cls, win1: int = 0, win2: int = 0) -> "LaurentBiPoly":
        return cls(np.zeros((2 * win1 + 1, 2 * win2 + 1)), win1, win2)

    @classmethod
    def from_terms(cls, terms) -> "LaurentBiPoly":
        terms = list(terms)
        w1 = max((abs(t[0]) for t in terms), default=0)
        w2 = max((abs(t[1]) for t in terms), default=0)
        c = np.zeros((2 * w1 + 1, 2 * w2 + 1), dtype=complex)
        for a, b, v in terms:
            c[a + w1, b + w2] += v
        return cls(c, w1, w2)

    def coeff(self, a: int, b: int) -> complex:
        if abs(a) > self.win1 or abs(b) > self.win2:
            return 0.0
        return complex(self.coeffs[a + self.win1, b + self.win2])

    def expand_window(self, win1: int, win2: int) -> "LaurentBiPoly":
        if win1 < self.win1 or win2 < self.win2:
            raise ValueError("window can only grow")
        c = np.zeros((2 * win1 + 1, 2 * win2 + 1), dtype=complex)
        c[win1 - self.win1: win1 + self.win1 + 1,
          win2 - self.win2: win2 + self.win2 + 1] = self.coeffs
        return LaurentBiPoly(c, win1, win2)

    def __add__(self, other: "LaurentBiPoly") -> "LaurentBiPoly":
        w1 = max(self.win1, other.win1)
        w2 = max(self.win2, other.win2)
        a = self.expand_window(w1, w2)
        b = other.expand_window(w1, w2)
        return LaurentBiPoly(a.coeffs + b.coeffs, w1, w2)

    def __sub__(self, other: "LaurentBiPoly") -> "LaurentBiPoly":
        return self + LaurentBiPoly(-other.coeffs, other.win1, other.win2)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))


def mul_star(f: BiPoly, g: BiPoly) -> LaurentBiPoly:
    """Laurent coefficients of f(z) * conj(g)(1/z1, 1/z2).

    On the torus this is f(tau) * conj(g(tau)); the product lives on the
    exponent window given by the participating degrees.
    """
    rev = np.conj(g.coeffs)[::-1, ::-1]
    prod = _convolve2d(f.coeffs, rev)
    # prod index (i, j) carries exponent (i - deg1(g), j - deg2(g))
    w1 = max(f.deg1, g.deg1)
    w2 = max(f.deg2, g.deg2)
    out = np.zeros((2 * w1 + 1, 2 * w2 + 1), dtype=complex)
    out[w1 - g.deg1: w1 + f.deg1 + 1, w2 - g.deg2: w2 + f.deg2 + 1] = prod
    return LaurentBiPoly(out, w1, w2)


# ----------------------------------------------------------------------
# Univariate helpers (coefficient arrays, ascending powers)
# ----------------------------------------------------------------------

def _uv_trim(c, tol=TRIM_TOL):
    c = np.asarray(c, dtype=complex).ravel()
    nz = np.nonzero(np.abs(c) > tol)[0]
    if nz.size == 0:
        return np.zeros(1, dtype=complex)
    return c[: nz[-1] + 1]


def _uv_divmod(f, g):
    f = np.asarray(f, dtype=complex).copy()
    g = _uv_trim(g)
    dg = len(g) - 1
    lead = g[-1]
    if len(f) - 1 < dg:
        return np.zeros(1, dtype=complex), f
    q = np.zeros(len(f) - dg, dtype=complex)
    for k in range(len(f) - 1, dg - 1, -1):
        c = f[k] / lead
        q[k - dg] = c
        if c != 0:
            f[k - dg: k + 1] -= c * g
    rem = f[:dg] if dg > 0 else np.zeros(1, dtype=complex)
    return q, rem


def _uv_divexact(f, g, scale):
    q, r = _uv_divmod(f, g)
    if np.max(np.abs(r)) > DIVISION_ZERO_REL * max(scale, 1e-300):
        raise PolyDivisionError("univariate division left a remainder")
    return _uv_trim(q)


# ----------------------------------------------------------------------
# Exact bivariate division
# ----------------------------------------------------------------------

def poly_divexact(f: BiPoly, g: BiPoly, rel_tol: float = DIVISION_ZERO_REL) -> BiPoly:
    """Quotient f / g when the division is exact; raises PolyDivisionError else.

    Long division in z1 with coefficients in C[z2]; each leading-row
    division must itself be exact, which holds whenever g divides f.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero:
        return BiPoly.zero()
    scale = f.max_abs()
    if g.is_constant:
        return BiPoly(f.coeffs / g.coeffs[0, 0])
    df1, dg1 = f.deg1, g.deg1
    if df1 < dg1 or f.deg2 < g.deg2:
        raise PolyDivisionError("degree of the divisor exceeds the dividend")
    width = f.deg2 + 1
    F = np.zeros((df1 + 1, width), dtype=complex)
    F[:, : f.deg2 + 1] = f.coeffs
    G = g.coeffs
    g_lead = _uv_trim(G[dg1])
    q_deg1 = df1 - dg1
    Q = np.zeros((q_deg1 + 1, width), dtype=complex)
    for a in range(q_deg1, -1, -1):
        qa = _uv_divexact(_uv_trim(F[a + dg1], TRIM_TOL * max(1.0, scale)), g_lead, scale)
        Q[a, : len(qa)] = qa
        for i in range(dg1 + 1):
            conv = np.convolve(qa, G[i])
            if len(conv) > width:
                conv = _uv_trim(conv, DIVISION_ZERO_REL * scale)
                if len(conv) > width:
                    raise PolyDivisionError("quotient degree overflow")
            F[a + i, : len(conv)] -= conv
    if np.max(np.abs(F)) > rel_tol * max(scale, 1e-300):
        raise PolyDivisionError("bivariate division left a remainder")
    return BiPoly(Q)


# ----------------------------------------------------------------------
# GCD from Sylvester null spaces, fraction reduction
# ----------------------------------------------------------------------

def _mult_matrix(f: np.ndarray, shape, out) -> np.ndarray:
    """Matrix of u -> u f, from coefficient grids of `shape` to grids of `out`."""
    M = np.zeros(out + shape, dtype=complex)
    for a, b in np.ndindex(*shape):
        M[a: a + f.shape[0], b: b + f.shape[1], a, b] = f
    return M.reshape(out[0] * out[1], shape[0] * shape[1])


def _sylvester(f: np.ndarray, g: np.ndarray, j1: int, j2: int):
    """Matrix of the Sylvester map (u, v) -> u f - v g on grids f and g.

    u ranges over bidegree <= deg g - j and v over bidegree <= deg f - j,
    with u's coefficients first; f and g enter with unit norm.  None when
    j exceeds the degrees of f or g.
    """
    ushape = (g.shape[0] - j1, g.shape[1] - j2)
    vshape = (f.shape[0] - j1, f.shape[1] - j2)
    if min(ushape + vshape) < 1:
        return None
    out = (f.shape[0] + ushape[0] - 1, f.shape[1] + ushape[1] - 1)
    return np.hstack([_mult_matrix(f / np.linalg.norm(f), ushape, out),
                      -_mult_matrix(g / np.linalg.norm(g), vshape, out)])


def _nullity(f: np.ndarray, g: np.ndarray, j1: int = 0, j2: int = 0) -> int:
    """Numerical nullity of the Sylvester map at j = (j1, j2).

    With h = gcd(f, g), the solutions are u = w g/h, v = w f/h for w of
    bidegree <= deg h - j, so the nullity is (h1 - j1 + 1)(h2 - j2 + 1),
    or 0 once j exceeds h.  The rank is ``rank_count`` of the singular
    values; every column of S holds a unit-norm grid, so the largest is at
    least 1 and the relative tolerance decides.
    """
    S = _sylvester(f, g, j1, j2)
    if S is None:
        return 0
    # S.T has the same singular values; LAPACK's path for a wide matrix
    # leaves the heap fragmented, which raised a later pass's peak memory
    sig = np.linalg.svd(S if S.shape[0] >= S.shape[1] else S.T, compute_uv=False)
    return S.shape[1] - rank_count(sig)


def _gcd_degree(f: np.ndarray, g: np.ndarray) -> tuple[int, int]:
    """Bidegree (h1, h2) of gcd(f, g) from the nullities at j = (0, 0) and (1, 0)."""
    n0 = _nullity(f, g)
    n1 = _nullity(f, g, 1, 0)
    h2 = n0 - n1 - 1
    return n1 // (h2 + 1), h2


# slice oracle ---------------------------------------------------------

_SLICE_RNG_SEED = 0x51D3
_N_SLICES = 5


def _slice_gcd_deg1(f: BiPoly, g: BiPoly) -> int:
    """Consensus z1-degree of gcd(f, g) from univariate z2-slices."""
    rng = np.random.default_rng(_SLICE_RNG_SEED)
    degs = []
    for _ in range(_N_SLICES):
        r = rng.uniform(0.4, 0.9)
        t = r * np.exp(2j * np.pi * rng.uniform())
        u = f.coeffs @ (t ** np.arange(f.coeffs.shape[1]))
        v = g.coeffs @ (t ** np.arange(g.coeffs.shape[1]))
        degs.append(_nullity(_uv_trim(u)[:, None], _uv_trim(v)[:, None]) - 1)
    counts = np.bincount(degs)
    return int(np.argmax(counts))


def reduce_fraction(q: BiPoly, p: BiPoly, slice_check: bool = True):
    """Cancel the common factor of q and p, returning (q', p') with q/p = q'/p'.

    The bidegree h of gcd(q, p) is read off the rank deficiency of two
    Sylvester matrices (Corless, Gianni, Trager & Watt, ISSAC 1995), and
    the cofactors q/h, p/h are the null vector of the Sylvester matrix at
    j = h (Zeng & Dayton, ISSAC 2004).  The z1-degree of h is cross-checked
    against the same rank rule on random z2 slices, and a GcdSliceWarning
    flags any disagreement.  Coprime inputs are returned unchanged.
    """
    if p.is_zero:
        raise ZeroDivisionError("denominator is identically zero")
    if q.is_zero:
        return BiPoly.zero(), BiPoly.one()
    if q.is_constant or p.is_constant:
        return q, p
    h1, h2 = _gcd_degree(q.coeffs, p.coeffs)
    if slice_check:
        oracle = _slice_gcd_deg1(q, p)
        if oracle != h1:
            warnings.warn(
                f"GCD z1-degree {h1} disagrees with slice oracle {oracle}; "
                "keeping the Sylvester result",
                GcdSliceWarning,
                stacklevel=2,
            )
    if h1 == h2 == 0:
        return q, p
    # at j = h the null space is spanned by (u, v) = (p/h, q/h), scaled:
    # u q/|q| = v p/|p|, so q/p = (|q| v)/(|p| u)
    x = np.linalg.svd(_sylvester(q.coeffs, p.coeffs, h1, h2))[2][-1].conj()
    nu = (p.deg1 - h1 + 1) * (p.deg2 - h2 + 1)
    u = x[:nu].reshape(p.deg1 - h1 + 1, p.deg2 - h2 + 1)
    v = x[nu:].reshape(q.deg1 - h1 + 1, q.deg2 - h2 + 1)
    return BiPoly(np.linalg.norm(q.coeffs) * v), BiPoly(np.linalg.norm(p.coeffs) * u)


# ----------------------------------------------------------------------
# Matrix polynomials
# ----------------------------------------------------------------------

class MatPoly:
    """Square matrix with BiPoly entries."""

    __slots__ = ("d", "entries")

    def __init__(self, entries):
        rows = [list(r) for r in entries]
        d = len(rows)
        if d < 1 or any(len(r) != d for r in rows):
            raise ValueError("entries must form a square matrix")
        for r in rows:
            for e in r:
                if not isinstance(e, BiPoly):
                    raise TypeError("entries must be BiPoly instances")
        self.d = d
        self.entries = rows

    @classmethod
    def identity(cls, d: int) -> "MatPoly":
        return cls([[BiPoly.one() if i == j else BiPoly.zero() for j in range(d)]
                    for i in range(d)])

    @classmethod
    def diag(cls, polys) -> "MatPoly":
        polys = list(polys)
        d = len(polys)
        return cls([[polys[i] if i == j else BiPoly.zero() for j in range(d)]
                    for i in range(d)])

    @classmethod
    def from_scalar(cls, p: BiPoly) -> "MatPoly":
        return cls([[p]])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    @property
    def deg1(self) -> int:
        return max(e.deg1 if not e.is_zero else 0 for r in self.entries for e in r)

    @property
    def deg2(self) -> int:
        return max(e.deg2 if not e.is_zero else 0 for r in self.entries for e in r)

    def __matmul__(self, other: "MatPoly") -> "MatPoly":
        if self.d != other.d:
            raise ValueError("matrix size mismatch")
        d = self.d
        out = []
        for i in range(d):
            row = []
            for j in range(d):
                s = BiPoly.zero()
                for k in range(d):
                    s = s + self.entries[i][k] * other.entries[k][j]
                row.append(s)
            out.append(row)
        return MatPoly(out)

    def left_mul(self, U) -> "MatPoly":
        """Constant matrix times this matrix polynomial."""
        U = np.asarray(U, dtype=complex)
        out = []
        for i in range(self.d):
            row = []
            for j in range(self.d):
                s = BiPoly.zero()
                for k in range(self.d):
                    if abs(U[i, k]) > 0:
                        s = s + U[i, k] * self.entries[k][j]
                row.append(s)
            out.append(row)
        return MatPoly(out)

    def right_mul(self, V) -> "MatPoly":
        V = np.asarray(V, dtype=complex)
        out = []
        for i in range(self.d):
            row = []
            for j in range(self.d):
                s = BiPoly.zero()
                for k in range(self.d):
                    if abs(V[k, j]) > 0:
                        s = s + V[k, j] * self.entries[i][k]
                row.append(s)
            out.append(row)
        return MatPoly(out)

    def scale(self, factor) -> "MatPoly":
        return MatPoly([[e.scale(factor) for e in row] for row in self.entries])

    def swap_vars(self) -> "MatPoly":
        return MatPoly([[e.swap_vars() for e in row] for row in self.entries])

    def __call__(self, z1, z2) -> np.ndarray:
        return np.array([[self.entries[i][j](z1, z2) for j in range(self.d)]
                         for i in range(self.d)])

    def max_abs(self) -> float:
        return max(e.max_abs() for row in self.entries for e in row)


def _det_cofactor(rows) -> BiPoly:
    d = len(rows)
    if d == 1:
        return rows[0][0]
    if d == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = BiPoly.zero()
    for j in range(d):
        minor = [[rows[i][k] for k in range(d) if k != j] for i in range(1, d)]
        term = rows[0][j] * _det_cofactor(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _det_interpolation(M: MatPoly) -> BiPoly:
    """Determinant by evaluation on roots-of-unity grids plus inverse FFT.

    The determinant degree in each variable is bounded by the sum over rows
    of the row-wise maximum entry degree, so sampling on a grid one larger
    recovers the coefficients exactly up to roundoff.  Unit-modulus nodes
    keep the interpolation perfectly conditioned.
    """
    d = M.d
    deg1 = sum(max(M.entries[i][j].deg1 for j in range(d)) for i in range(d))
    deg2 = sum(max(M.entries[i][j].deg2 for j in range(d)) for i in range(d))
    n1, n2 = deg1 + 1, deg2 + 1
    w1 = np.exp(2j * np.pi * np.arange(n1) / n1)
    w2 = np.exp(2j * np.pi * np.arange(n2) / n2)
    vals = np.empty((n1, n2), dtype=complex)
    for k in range(n1):
        for l in range(n2):
            vals[k, l] = np.linalg.det(M(w1[k], w2[l]))
    coeffs = np.fft.fft2(vals) / (n1 * n2)
    top = np.max(np.abs(coeffs))
    if top > 0:
        coeffs[np.abs(coeffs) < 1e-10 * top] = 0.0
    return BiPoly(coeffs)


def mat_determinant(M: MatPoly) -> BiPoly:
    """Exact polynomial determinant.

    Cofactor expansion for d <= 4; interpolation through unit-modulus
    sample grids for larger matrices (fraction-free elimination amplifies
    float error through its exact polynomial divisions).
    """
    if M.d <= 4:
        return _det_cofactor(M.entries)
    return _det_interpolation(M)
