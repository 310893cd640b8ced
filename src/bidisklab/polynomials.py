"""Bivariate complex polynomial arithmetic on dense coefficient grids.

A polynomial in the two disk variables is stored as a 2-D complex array
``coeffs`` with ``coeffs[a, b]`` multiplying ``z1**a * z2**b``.  Grids are
kept trimmed: the top row and top column always carry at least one
coefficient above the trim tolerance unless the polynomial is zero.

The module also provides the Laurent-grid carrier used to state torus
identities such as ``|p(tau)|**2`` in coefficient form, matrices with
polynomial entries, exact determinants, conjugate reflection, and the
float-tolerant fraction reduction (bivariate GCD with a slice oracle
cross-check) everything downstream relies on.
"""

from __future__ import annotations

import warnings

import numpy as np

from .tolerances import GCD_ZERO_REL, RANK_REL_TOL, TRIM_TOL


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

    def conj_coeffs(self) -> "BiPoly":
        return BiPoly(np.conj(self.coeffs))

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


def poly_mul(f: BiPoly, g: BiPoly) -> BiPoly:
    """Product of two bivariate polynomials (2-D coefficient convolution)."""
    return f * g


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


def laurent_identity_residual(L: LaurentBiPoly) -> float:
    """Largest coefficient modulus; zero exactly when L vanishes identically."""
    return L.max_abs()


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


def _uv_gcd(f, g):
    """Euclidean GCD of univariate float polynomials, largest coefficient 1."""
    a = _uv_trim(f)
    b = _uv_trim(g)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    thr = GCD_ZERO_REL * scale
    while np.max(np.abs(b)) > thr:
        _, r = _uv_divmod(a, b)
        a, b = b, _uv_trim(r, thr)
    top = np.argmax(np.abs(a))
    if np.abs(a[top]) <= thr:
        return np.ones(1, dtype=complex)
    return a / a[top]


def _uv_gcd_many(polys):
    g = np.ones(1, dtype=complex)
    first = True
    for p in polys:
        p = _uv_trim(p)
        if np.max(np.abs(p)) <= TRIM_TOL:
            continue
        g = p.copy() if first else _uv_gcd(g, p)
        first = False
        if len(g) == 1:
            break
    if first:
        return np.ones(1, dtype=complex)
    top = np.argmax(np.abs(g))
    return g / g[top]


def _uv_divexact(f, g, scale):
    q, r = _uv_divmod(f, g)
    if np.max(np.abs(r)) > GCD_ZERO_REL * max(scale, 1e-300):
        raise PolyDivisionError("univariate division left a remainder")
    return _uv_trim(q)


# ----------------------------------------------------------------------
# Exact bivariate division, GCD, fraction reduction
# ----------------------------------------------------------------------

def poly_divexact(f: BiPoly, g: BiPoly, rel_tol: float = GCD_ZERO_REL) -> BiPoly:
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
                conv = _uv_trim(conv, GCD_ZERO_REL * scale)
                if len(conv) > width:
                    raise PolyDivisionError("quotient degree overflow")
            F[a + i, : len(conv)] -= conv
    if np.max(np.abs(F)) > rel_tol * max(scale, 1e-300):
        raise PolyDivisionError("bivariate division left a remainder")
    return BiPoly(Q)


def _rows_content(C: np.ndarray):
    """Content in C[z2] of a grid viewed as a z1-polynomial over C[z2]."""
    return _uv_gcd_many([C[a] for a in range(C.shape[0])])


def _rows_div_uv(C: np.ndarray, u, scale):
    """Divide every z2-row of a grid by the univariate z2-polynomial u."""
    if len(u) == 1:
        return C / u[0]
    rows = [_uv_divexact(C[a], u, scale) for a in range(C.shape[0])]
    width = max(len(r) for r in rows)
    out = np.zeros((C.shape[0], width), dtype=complex)
    for a, r in enumerate(rows):
        out[a, : len(r)] = r
    return out


def _rows_trim_top(C: np.ndarray, thr: float) -> np.ndarray:
    keep = C.shape[0]
    while keep > 1 and np.max(np.abs(C[keep - 1])) <= thr:
        keep -= 1
    if keep == 1 and np.max(np.abs(C[0])) <= thr:
        return np.zeros((1, 1), dtype=complex)
    return C[:keep]


def _pseudo_rem(A: np.ndarray, B: np.ndarray, thr: float) -> np.ndarray:
    """Pseudo-remainder of A by B as z1-polynomials over C[z2]."""
    R = A.copy()
    db = B.shape[0] - 1
    b_lead = _uv_trim(B[db])
    while R.shape[0] - 1 >= db and np.max(np.abs(R)) > thr:
        dr = R.shape[0] - 1
        r_lead = _uv_trim(R[dr])
        width = max(R.shape[1] + len(b_lead) - 1, B.shape[1] + len(r_lead) - 1)
        new = np.zeros((dr + 1, width), dtype=complex)
        for a in range(dr + 1):
            conv = np.convolve(R[a], b_lead)
            new[a, : len(conv)] += conv
        shift = dr - db
        for a in range(db + 1):
            conv = np.convolve(B[a], r_lead)
            new[a + shift, : len(conv)] -= conv
        if dr == 0:
            # divisor has z1-degree 0: elimination exhausts every row
            return np.zeros((1, 1), dtype=complex)
        # leading rows cancel by construction; force the trim
        new = _rows_trim_top(new[:dr], max(thr, TRIM_TOL * np.max(np.abs(new))))
        R = new
        # keep coefficients in range
        m = np.max(np.abs(R))
        if m > 1e6:
            R = R / m
    return R


def _poly_gcd(f: BiPoly, g: BiPoly) -> BiPoly:
    """GCD up to scale, normalized so its largest coefficient equals 1."""
    if f.is_zero and g.is_zero:
        return BiPoly.one()
    if f.is_zero:
        return _normalize_max(g)
    if g.is_zero:
        return _normalize_max(f)
    if f.is_constant or g.is_constant:
        return BiPoly.one()
    scale = max(f.max_abs(), g.max_abs())
    thr = GCD_ZERO_REL * scale
    A, B = f.coeffs, g.coeffs
    if A.shape[0] == 1 and B.shape[0] == 1:
        return BiPoly(_uv_gcd(A[0], B[0])[None, :])
    cont_a = _rows_content(A)
    cont_b = _rows_content(B)
    cont = _uv_gcd(cont_a, cont_b) if (len(cont_a) > 1 and len(cont_b) > 1) \
        else np.ones(1, dtype=complex)
    Ap = _rows_div_uv(A, cont_a, scale) if len(cont_a) > 1 else A
    Bp = _rows_div_uv(B, cont_b, scale) if len(cont_b) > 1 else B
    if Ap.shape[0] < Bp.shape[0]:
        Ap, Bp = Bp, Ap
    while True:
        if Bp.shape[0] == 1 and np.max(np.abs(Bp)) <= thr:
            prim = Ap
            break
        R = _pseudo_rem(Ap, Bp, thr)
        if np.max(np.abs(R)) <= thr:
            prim = Bp
            break
        rc = _rows_content(R)
        if len(rc) > 1:
            R = _rows_div_uv(R, rc, np.max(np.abs(R)))
        if R.shape[0] >= Bp.shape[0]:
            # no z1-degree progress: numerically coprime in z1
            prim = np.ones((1, 1), dtype=complex)
            break
        Ap, Bp = Bp, R
    if prim.shape[0] == 1:
        prim_poly = BiPoly(np.ones((1, 1)))
    else:
        pc = _rows_content(prim)
        if len(pc) > 1:
            prim = _rows_div_uv(prim, pc, np.max(np.abs(prim)))
        prim_poly = BiPoly(prim)
    out = prim_poly * BiPoly(cont[None, :]) if len(cont) > 1 else prim_poly
    return _normalize_max(out)


def _normalize_max(p: BiPoly) -> BiPoly:
    flat = np.argmax(np.abs(p.coeffs))
    top = p.coeffs.ravel()[flat]
    if np.abs(top) <= TRIM_TOL:
        return BiPoly.one()
    return BiPoly(p.coeffs / top)


# slice oracle ---------------------------------------------------------

_SLICE_RNG_SEED = 0x51D3
_N_SLICES = 5


def _sylvester_gcd_degree(u, v) -> int:
    u = _uv_trim(u)
    v = _uv_trim(v)
    m, n = len(u) - 1, len(v) - 1
    if m == 0 or n == 0:
        return 0
    S = np.zeros((m + n, m + n), dtype=complex)
    for i in range(n):
        S[i, i: i + m + 1] = u[::-1]
    for i in range(m):
        S[n + i, i: i + n + 1] = v[::-1]
    sig = np.linalg.svd(S, compute_uv=False)
    rank = int(np.sum(sig > RANK_REL_TOL * sig[0]))
    return m + n - rank


def _slice_gcd_deg1(f: BiPoly, g: BiPoly) -> int:
    """Consensus z1-degree of gcd(f, g) from univariate z2-slices."""
    rng = np.random.default_rng(_SLICE_RNG_SEED)
    degs = []
    for _ in range(_N_SLICES):
        r = rng.uniform(0.4, 0.9)
        t = r * np.exp(2j * np.pi * rng.uniform())
        u = f.coeffs @ (t ** np.arange(f.coeffs.shape[1]))
        v = g.coeffs @ (t ** np.arange(g.coeffs.shape[1]))
        degs.append(_sylvester_gcd_degree(u, v))
    counts = np.bincount(degs)
    return int(np.argmax(counts))


def reduce_fraction(q: BiPoly, p: BiPoly, slice_check: bool = True):
    """Cancel the common factor of q and p, returning (q', p') with q/p = q'/p'.

    The cancelled factor is computed by a Euclidean remainder sequence over
    C[z2]; its z1-degree is cross-checked against Sylvester-rank GCD degrees
    on random z2 slices, and a GcdSliceWarning flags any disagreement.
    Coprime inputs are returned unchanged.
    """
    if p.is_zero:
        raise ZeroDivisionError("denominator is identically zero")
    if q.is_zero:
        return BiPoly.zero(), BiPoly.one()
    g = _poly_gcd(q, p)
    if slice_check and not (q.is_constant or p.is_constant):
        oracle = _slice_gcd_deg1(q, p)
        if oracle != g.deg1:
            warnings.warn(
                f"GCD z1-degree {g.deg1} disagrees with slice oracle {oracle}; "
                "keeping the Euclidean result",
                GcdSliceWarning,
                stacklevel=2,
            )
    if g.is_constant:
        return q, p
    return poly_divexact(q, g), poly_divexact(p, g)


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

    @classmethod
    def from_constant(cls, M) -> "MatPoly":
        M = np.asarray(M, dtype=complex)
        return cls([[BiPoly.const(M[i, j]) for j in range(M.shape[1])]
                    for i in range(M.shape[0])])

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

    def mul_poly(self, p: BiPoly) -> "MatPoly":
        return MatPoly([[e * p for e in row] for row in self.entries])

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
