"""Exact-arithmetic oracles for fraction reduction, division and determinants
(sympy, an optional test dependency).

Products of small factors with Gaussian-integer coefficients are exact in
floating point, so sympy's GCD over Z[i] gives the true reduced degrees,
sympy's product and remainder the true quotients, and sympy's determinant
over Q[i] the true determinant.
"""

import warnings

import numpy as np
import pytest
from scipy.signal import convolve2d

sympy = pytest.importorskip("sympy")

from bidisklab.experiments import generate_family  # noqa: E402
from bidisklab.inner import builtin, builtin_names, det_degree  # noqa: E402
from bidisklab.polynomials import (  # noqa: E402
    BiPoly,
    GcdSliceWarning,
    MatPoly,
    PolyDivisionError,
    mat_determinant,
    poly_divexact,
    reduce_fraction,
)

Z1, Z2 = sympy.symbols("z1 z2")


def _gaussian_factor(rng, max_deg):
    shape = tuple(int(n) for n in rng.integers(1, max_deg + 2, 2))
    grid = rng.integers(-2, 3, shape) + 1j * rng.integers(-2, 3, shape)
    if not grid.any():
        grid[0, 0] = 1
    return BiPoly(grid)


def _exact(poly: BiPoly):
    """The polynomial whose coefficients are exactly the floats of `poly`."""
    terms = {(a, b): sympy.Rational(c.real) + sympy.I * sympy.Rational(c.imag)
             for (a, b), c in np.ndenumerate(poly.coeffs) if c != 0}
    return sympy.Poly.from_dict(terms, Z1, Z2, domain="QQ_I")


def _exact_det(M: MatPoly):
    entries = sympy.Matrix(M.d, M.d, lambda i, j: _exact(M[i, j]).as_expr())
    return sympy.Poly(entries.det(method="berkowitz"), Z1, Z2, domain="QQ_I")


def _grid(poly) -> np.ndarray:
    out = np.zeros((poly.degree(Z1) + 1, poly.degree(Z2) + 1), dtype=complex)
    for (a, b), c in poly.terms():
        out[a, b] = complex(c)
    return out


def _degrees(poly) -> tuple[int, int]:
    if isinstance(poly, BiPoly):
        return poly.deg1, poly.deg2
    return poly.degree(Z1), poly.degree(Z2)


@pytest.mark.parametrize("seed", range(30))
def test_reduce_fraction_degrees_match_exact_gcd(seed):
    rng = np.random.default_rng(seed)
    h = _gaussian_factor(rng, 2)
    q, p = _gaussian_factor(rng, 1) * h, _gaussian_factor(rng, 1) * h
    with warnings.catch_warnings():
        warnings.simplefilter("error", GcdSliceWarning)
        q_red, p_red = reduce_fraction(q, p)
    Q, P = _exact(q), _exact(p)
    _, q_exact, p_exact = Q.cancel(P)
    gcd = Q.gcd(P)
    assert _degrees(q_exact) == tuple(np.subtract(_degrees(Q), _degrees(gcd)))
    assert _degrees(q_red) == _degrees(q_exact)
    assert _degrees(p_red) == _degrees(p_exact)


def _stable_factor(rng):
    """Gaussian-integer grid of bidegree (1, 1) whose constant term outweighs
    all its other coefficients together, as a stable denominator's does."""
    grid = rng.integers(-2, 3, (2, 2)) + 1j * rng.integers(-2, 3, (2, 2))
    grid[1, 1] = grid[1, 1] or 1
    grid[0, 0] = 0
    grid[0, 0] = np.ceil(np.abs(grid).sum()) + 1
    return BiPoly(grid)


@pytest.mark.parametrize("seed", range(20))
def test_divexact_matches_exact_product(seed):
    rng = np.random.default_rng(seed)
    p, h = _stable_factor(rng), _gaussian_factor(rng, 2)
    P, F = _exact(p), _exact(p) * _exact(h)
    quotient = poly_divexact(BiPoly(_grid(F)), p)
    assert quotient.coeffs.shape == h.coeffs.shape
    assert np.abs(quotient.coeffs - h.coeffs).max() <= 1e-12 * np.abs(h.coeffs).max()
    # one Gaussian-integer monomial more, inside the box of p h, leaves a
    # remainder over Q[i]
    a, b = (int(rng.integers(0, n + 1)) for n in (F.degree(Z1), F.degree(Z2)))
    re, im = (int(v) for v in rng.integers(1, 3, 2))
    G = F + sympy.Poly((re + im * sympy.I) * Z1 ** a * Z2 ** b, Z1, Z2, domain="QQ_I")
    assert not G.rem(P).is_zero
    with pytest.raises(PolyDivisionError):
        poly_divexact(BiPoly(_grid(G)), p)


def test_divexact_by_small_leading_terms():
    # stable denominators have a dominant constant term and small leading
    # terms; dividing by those amplifies rounding past the remainder threshold
    theta = generate_family("diagonal", 25, d=3, seed=0)[0]
    det = mat_determinant(theta.Q)
    quotient = poly_divexact(poly_divexact(det, theta.p), theta.p)
    assert (quotient.deg1, quotient.deg2) == (det.deg1 - 2 * theta.p.deg1,
                                              det.deg2 - 2 * theta.p.deg2)
    assert (quotient * theta.p * theta.p - det).max_abs() <= 1e-12 * det.max_abs()
    g = np.array([[2, -0.5], [1e-3, 3e-4]], dtype=complex)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        quotient = poly_divexact(BiPoly(convolve2d(h, g)), BiPoly(g))
        assert np.abs(quotient.coeffs - h).max() <= 1e-12 * np.abs(h).max()


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_mat_determinant_matches_exact_det(d):
    rng = np.random.default_rng(d)
    M = MatPoly([[_gaussian_factor(rng, 1) for _ in range(d)] for _ in range(d)])
    exact = _grid(_exact_det(M))
    det = mat_determinant(M).coeffs
    shape = np.maximum(exact.shape, det.shape)
    diff = np.zeros(shape, dtype=complex)
    diff[: exact.shape[0], : exact.shape[1]] += exact
    diff[: det.shape[0], : det.shape[1]] -= det
    assert np.abs(diff).max() <= 1e-12 * np.abs(exact).max()


def _chopped_degrees(poly) -> tuple[int, int]:
    """Degrees of `poly` without coefficients below 1e-12 of its largest.

    A unitary conjugate's floats carry rounding, so the exact determinant of
    the rounded entries has coefficients of order 1e-16 where the true
    determinant has none; every other coefficient here is of order one.
    """
    grid = _grid(poly)
    rows, cols = np.nonzero(np.abs(grid) > 1e-12 * np.abs(grid).max())
    return int(rows.max()), int(cols.max())


# the first six seed-42 diagonal items hold at most one stable entry, so
# their numerators and denominator are exact products in floating point;
# the conjugated and product items have p = 1
_DET_ITEMS = ([builtin(n) for n in builtin_names() if "(" not in n]
              + [builtin("scalar_z2n(3)")] + generate_family("diagonal", 6, seed=42)
              + generate_family("conjugated", 3, seed=42) + generate_family("product", 6, seed=42))


@pytest.mark.parametrize("theta", _DET_ITEMS, ids=lambda theta: theta.label)
def test_det_degree_matches_exact_cancel(theta):
    _, num, den = _exact_det(theta.Q).cancel(_exact(theta.p) ** theta.d)
    expected = np.maximum(_chopped_degrees(num), _chopped_degrees(den))
    assert det_degree(theta) == tuple(int(e) for e in expected)
