"""Bivariate complex polynomial arithmetic on dense coefficient grids.

A polynomial in the two disk variables is stored as a 2-D complex array
``coeffs`` with ``coeffs[a, b]`` multiplying ``z1**a * z2**b``.  Grids are
kept trimmed: the top row and top column always carry at least one
coefficient above the trim tolerance unless the polynomial is zero.

A matrix polynomial (``MatPoly``) is one complex tensor ``coeffs[i, j, a,
b]``, trimmed over all entries at once, so products and constant
multiples run as whole-array operations rather than entry by entry.

The module also provides determinants of matrix polynomials (one route
for every size: interpolation on roots-of-unity grids), conjugate
reflection, exact division, and the float-tolerant fraction reduction
everything downstream relies on.

Division and reduction both solve on multiplication matrices, the
matrices of u -> u f from one box of coefficient grids to another.  Exact
division solves u g = f on the quotient's box by least squares and
accepts a residual at the remainder threshold.  Fractions are reduced by
singular value decompositions of Sylvester matrices, the matrices of
(u, v) -> u f - v g: the GCD degree is read off their rank deficiency and
the reduced numerator and denominator off a null vector (Corless,
Gianni, Trager & Watt, ISSAC 1995; Zeng & Dayton, ISSAC 2004).  The same
rank rule on univariate slices cross-checks the GCD degree in z1.
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
    """Drop top rows/columns of the last two axes whose entries are all below
    the trim tolerance, across every grid of a stack (..., M1, M2)."""
    mask = (np.abs(c) > TRIM_TOL).reshape((-1,) + c.shape[-2:]).any(axis=0)
    if not mask.any():
        return np.zeros(c.shape[:-2] + (1, 1), dtype=complex)
    rows = np.nonzero(mask.any(axis=1))[0]
    cols = np.nonzero(mask.any(axis=0))[0]
    return np.ascontiguousarray(c[..., : rows[-1] + 1, : cols[-1] + 1])


class BiPoly:
    """Dense bivariate polynomial; index (a, b) holds the z1^a z2^b coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_2d(np.asarray(coeffs, dtype=complex))
        if c.ndim != 2:
            raise ValueError("coefficient grid must be 2-D")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        self.coeffs = _trim_grid(c)

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "BiPoly":
        return cls(np.zeros((1, 1)))

    @classmethod
    def one(cls) -> "BiPoly":
        return cls(np.ones((1, 1)))

    @classmethod
    def monomial(cls, a: int, b: int, value=1.0) -> "BiPoly":
        return cls.from_terms([(a, b, value)])

    @classmethod
    def from_terms(cls, terms) -> "BiPoly":
        """Build from an iterable of (a, b, value) triples; the exponents a and
        b must be nonnegative integers."""
        terms = list(terms)
        for a, b, _ in terms:
            if not all(isinstance(e, (int, np.integer)) and e >= 0 for e in (a, b)):
                raise ValueError(f"exponents must be nonnegative integers, not ({a!r}, {b!r})")
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
# Exact bivariate division
# ----------------------------------------------------------------------

def poly_divexact(f: BiPoly, g: BiPoly) -> BiPoly:
    """Quotient f / g when the division is exact; raises PolyDivisionError else.

    The quotient u has bidegree deg f - deg g, so u g = f is a linear
    system on that box: the multiplication matrix of g (``_mult_matrix``)
    applied to u's coefficients.  It is solved by least squares through a
    thin SVD, and the division is exact when the residual stays within
    ``DIVISION_ZERO_REL`` of f's largest coefficient.  No coefficient of g
    is divided by, so a small leading term of g does not amplify rounding.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero:
        return BiPoly.zero()
    if g.is_constant:
        return BiPoly(f.coeffs / g.coeffs[0, 0])
    shape = (f.deg1 - g.deg1 + 1, f.deg2 - g.deg2 + 1)
    if min(shape) < 1:
        raise PolyDivisionError("degree of the divisor exceeds the dividend")
    M = _mult_matrix(g.coeffs, shape, f.coeffs.shape)
    U, sig, Vh = np.linalg.svd(M, full_matrices=False)
    u = Vh.conj().T @ ((U.conj().T @ f.coeffs.ravel()) / sig)
    if np.max(np.abs(M @ u - f.coeffs.ravel())) > DIVISION_ZERO_REL * f.max_abs():
        raise PolyDivisionError("bivariate division left a remainder")
    return BiPoly(u.reshape(shape))


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
        degs.append(_nullity(_trim_grid(u[:, None]), _trim_grid(v[:, None])) - 1)
    counts = np.bincount(degs)
    return int(np.argmax(counts))


def reduce_fraction(q: BiPoly, p: BiPoly):
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
    """Square matrix polynomial held as one coefficient tensor.

    ``coeffs[i, j, a, b]`` multiplies z1^a z2^b in entry (i, j).  The tensor
    is trimmed like a BiPoly grid, over all entries at once, and ``Q[i, j]``
    returns entry (i, j) as a trimmed BiPoly on demand.  Products, constant
    multiples, variable swaps and degrees are whole-array operations.
    """

    __slots__ = ("coeffs",)

    def __init__(self, entries):
        rows = [list(r) for r in entries]
        d = len(rows)
        if d < 1 or any(len(r) != d for r in rows):
            raise ValueError("entries must form a square matrix")
        if not all(isinstance(e, BiPoly) for r in rows for e in r):
            raise TypeError("entries must be BiPoly instances")
        shape = np.max([e.coeffs.shape for r in rows for e in r], axis=0)
        c = np.zeros((d, d) + tuple(shape), dtype=complex)
        for i, r in enumerate(rows):
            for j, e in enumerate(r):
                c[i, j, : e.coeffs.shape[0], : e.coeffs.shape[1]] = e.coeffs
        self.coeffs = _trim_grid(c)

    @classmethod
    def _of(cls, coeffs: np.ndarray) -> "MatPoly":
        """Wrap a (d, d, M1, M2) coefficient tensor, trimmed."""
        out = cls.__new__(cls)
        out.coeffs = _trim_grid(coeffs)
        return out

    @classmethod
    def identity(cls, d: int) -> "MatPoly":
        return cls._of(np.eye(d, dtype=complex)[:, :, None, None])

    @classmethod
    def diag(cls, polys) -> "MatPoly":
        polys = list(polys)
        d = len(polys)
        return cls([[polys[i] if i == j else BiPoly.zero() for j in range(d)]
                    for i in range(d)])

    @classmethod
    def from_scalar(cls, p: BiPoly) -> "MatPoly":
        return cls([[p]])

    @property
    def d(self) -> int:
        return self.coeffs.shape[0]

    def __getitem__(self, ij):
        i, j = ij
        return BiPoly(self.coeffs[i, j])

    @property
    def deg1(self) -> int:
        return self.coeffs.shape[2] - 1

    @property
    def deg2(self) -> int:
        return self.coeffs.shape[3] - 1

    def __matmul__(self, other: "MatPoly") -> "MatPoly":
        if self.d != other.d:
            raise ValueError("matrix size mismatch")
        a, b = self.coeffs, other.coeffs
        out = np.zeros(a.shape[:2] + (a.shape[2] + b.shape[2] - 1, a.shape[3] + b.shape[3] - 1),
                       dtype=complex)
        # one shifted add of self times each nonzero coefficient block of other
        for s, t in zip(*np.nonzero(np.abs(b).max(axis=(0, 1)))):
            out[:, :, s: s + a.shape[2], t: t + a.shape[3]] += np.einsum(
                "ikab,kj->ijab", a, b[:, :, s, t])
        return MatPoly._of(out)

    def left_mul(self, U) -> "MatPoly":
        """Constant matrix times this matrix polynomial."""
        return MatPoly._of(np.einsum("ik,kjab->ijab", np.asarray(U, dtype=complex), self.coeffs))

    def right_mul(self, V) -> "MatPoly":
        return MatPoly._of(np.einsum("ikab,kj->ijab", self.coeffs, np.asarray(V, dtype=complex)))

    def scale(self, factor) -> "MatPoly":
        return MatPoly._of(self.coeffs * complex(factor))

    def swap_vars(self) -> "MatPoly":
        return MatPoly._of(self.coeffs.transpose(0, 1, 3, 2))

    def __call__(self, z1, z2) -> np.ndarray:
        """Values at (z1, z2); array arguments give shape (d, d) + z1.shape."""
        return np.polynomial.polynomial.polyval2d(z1, z2, self.coeffs.transpose(2, 3, 0, 1))

    def max_abs(self) -> float:
        return float(np.abs(self.coeffs).max())


def mat_determinant(M: MatPoly) -> BiPoly:
    """Polynomial determinant by interpolation on roots-of-unity grids.

    The degree of det M in each variable is at most the sum over rows of
    the row's largest entry degree, so samples on a grid one larger
    determine its coefficients: the FFT evaluates M there, each sample's
    determinant is taken at once, and the inverse FFT returns the
    coefficients.  Unit-modulus nodes keep the interpolation perfectly
    conditioned, and the cost is polynomial in d for every size.
    """
    nz = np.abs(M.coeffs) > TRIM_TOL
    # the largest z1- and z2-degree among each row's entries, summed over rows
    n1 = 1 + int(np.max(nz.any(axis=(1, 3)) * np.arange(nz.shape[2]), axis=1).sum())
    n2 = 1 + int(np.max(nz.any(axis=(1, 2)) * np.arange(nz.shape[3]), axis=1).sum())
    vals = np.fft.fft2(M.coeffs, (n1, n2)).transpose(2, 3, 0, 1)
    coeffs = np.fft.ifft2(np.linalg.det(vals))
    top = np.max(np.abs(coeffs))
    if top > 0:
        coeffs[np.abs(coeffs) < 1e-10 * top] = 0.0
    return BiPoly(coeffs)
