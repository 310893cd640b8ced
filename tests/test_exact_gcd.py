"""Exact-arithmetic oracle for fraction reduction (sympy, an optional test dependency).

Products of small factors with Gaussian-integer coefficients are exact in
floating point, so sympy's GCD over Z[i] gives the true reduced degrees.
"""

import warnings

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

from bidisklab.polynomials import BiPoly, GcdSliceWarning, reduce_fraction  # noqa: E402

Z1, Z2 = sympy.symbols("z1 z2")


def _gaussian_factor(rng, max_deg):
    shape = tuple(int(n) for n in rng.integers(1, max_deg + 2, 2))
    grid = rng.integers(-2, 3, shape) + 1j * rng.integers(-2, 3, shape)
    if not grid.any():
        grid[0, 0] = 1
    return BiPoly(grid)


def _exact(poly: BiPoly):
    terms = {(a, b): int(c.real) + sympy.I * int(c.imag)
             for (a, b), c in np.ndenumerate(poly.coeffs) if c != 0}
    return sympy.Poly.from_dict(terms, Z1, Z2, domain="ZZ_I")


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
