import numpy as np
import pytest
from scipy.signal import convolve2d

from bidisklab import polynomials
from bidisklab.experiments import generate_family
from bidisklab.inner import builtin
from bidisklab.polynomials import (
    BiPoly,
    MatPoly,
    PolyDivisionError,
    mat_determinant,
    poly_divexact,
    reduce_fraction,
    reflect,
)

z1 = BiPoly.monomial(1, 0)
z2 = BiPoly.monomial(0, 1)
one = BiPoly.one()


def test_monomial_product():
    assert z1 * z2 == BiPoly.monomial(1, 1)


def test_multiplicative_identity():
    f = BiPoly.from_terms([(0, 0, 2), (1, 2, -1.5 + 1j), (3, 0, 0.25)])
    assert one * f == f


def test_from_terms_rejects_negative_and_fractional_exponents():
    # a negative exponent used to wrap to the top row: 6 z1^2 here
    for terms in ([(2, 0, 1), (-1, 0, 5)], [(0, -2, 1)], [(1.5, 0, 1)], [(0, 1.0, 1)]):
        with pytest.raises(ValueError, match="nonnegative integers"):
            BiPoly.from_terms(terms)
    assert BiPoly.from_terms([(np.int64(2), 0, 1)]) == BiPoly.monomial(2, 0)


def test_monomial_rejects_negative_and_fractional_exponents():
    # refused by name, not by an IndexError from numpy
    for a, b in ((-1, 0), (0, -2), (1.5, 0)):
        with pytest.raises(ValueError, match="nonnegative integers"):
            BiPoly.monomial(a, b)
    assert BiPoly.monomial(1, 2, 3.0) == BiPoly.from_terms([(1, 2, 3.0)])


def test_square_of_sum():
    s = z1 + z2
    expected = BiPoly.from_terms([(2, 0, 1), (1, 1, 2), (0, 2, 1)])
    assert s * s == expected


def test_convolution_degrees_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = BiPoly(rng.standard_normal((rng.integers(1, 4), rng.integers(1, 4))))
        g = BiPoly(rng.standard_normal((rng.integers(1, 4), rng.integers(1, 4))))
        h = f * g
        assert h.deg1 <= f.deg1 + g.deg1
        assert h.deg2 <= f.deg2 + g.deg2
        lead = f.coeffs[f.deg1, f.deg2] * g.coeffs[g.deg1, g.deg2]
        if abs(lead) > 1e-12:
            assert h.deg1 == f.deg1 + g.deg1
            assert h.deg2 == f.deg2 + g.deg2


def test_reflect_constant():
    assert reflect(one, 1, 1) == BiPoly.monomial(1, 1)


def test_reflect_coefficient_reversal():
    p = BiPoly.from_terms([(0, 0, 2), (1, 0, -1), (0, 1, -1)])
    r = reflect(p, 1, 1)
    # oracle: coefficient (a, b) of output = conj of coefficient (1-a, 1-b)
    expected = BiPoly.from_terms([(1, 1, 2), (0, 1, -1), (1, 0, -1)])
    assert r == expected


def test_reflect_involution():
    rng = np.random.default_rng(3)
    p = BiPoly(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
    assert reflect(reflect(p, 3, 4), 3, 4) == p


def test_reflect_rejects_small_degrees():
    p = z1 * z1
    with pytest.raises(ValueError):
        reflect(p, 1, 1)


def test_reduce_fraction_cancels_common_factor():
    den = BiPoly.from_terms([(0, 0, 2), (1, 0, -1)])
    num = z1 * z2 * den
    q, p = reduce_fraction(num, den)
    # back-multiplication oracle: q * den == num * p exactly
    assert (q * den) == (num * p)
    assert (q.deg1, q.deg2) == (1, 1)
    assert p.is_constant


def test_reduce_fraction_identical_inputs():
    p = BiPoly.from_terms([(0, 0, 2), (1, 0, -1), (0, 1, -1)])
    q, r = reduce_fraction(p, p)
    assert q.is_constant and r.is_constant
    assert abs(complex(q.coeffs[0, 0]) - complex(r.coeffs[0, 0])) < 1e-12


def test_reduce_fraction_coprime_unchanged():
    # coprime pairs come back as the very objects given, so a reduced
    # function keeps its coefficients bitwise
    fav = builtin("scalar_favorite")
    for q, p in ((z1, z2), (fav.Q[0, 0], fav.p)):
        q_out, p_out = reduce_fraction(q, p)
        assert q_out is q and p_out is p


def test_sylvester_nullity_counts_gcd_degree():
    # with h = gcd of bidegree (1, 2), the nullity at j is (h1-j1+1)(h2-j2+1)
    rng = np.random.default_rng(4)
    h, a, b = (BiPoly(rng.standard_normal(s) + 1j * rng.standard_normal(s))
               for s in ((2, 3), (2, 2), (3, 1)))
    f, g = (a * h).coeffs, (b * h).coeffs
    assert polynomials._nullity(f, g) == 6
    assert polynomials._nullity(f, g, 1, 0) == 3
    assert polynomials._nullity(f, g, 1, 2) == 1
    assert polynomials._nullity(f, g, 2, 0) == 0
    assert polynomials._gcd_degree(f, g) == (1, 2)


def test_reduce_fraction_zero_numerator():
    q, p = reduce_fraction(BiPoly.zero(), z1)
    assert q.is_zero and p == one


def test_reduce_fraction_back_multiplication_random():
    rng = np.random.default_rng(9)
    for _ in range(10):
        g = BiPoly(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        a = BiPoly(rng.standard_normal((2, 2)))
        b = BiPoly(rng.standard_normal((2, 2)))
        q, p = reduce_fraction(a * g, b * g)
        diff = q * (b * g) - (a * g) * p
        assert diff.max_abs() <= 1e-8 * max((a * g).max_abs(), 1.0)


def test_determinant_identity():
    assert mat_determinant(MatPoly.identity(3)) == one


def test_determinant_diagonal():
    p1 = BiPoly.from_terms([(0, 0, 2), (1, 0, -1)])
    p2 = z1 * z2
    assert mat_determinant(MatPoly.diag([p1, p2])) == p1 * p2


def test_determinant_symmetric_numerator():
    # (1/2)[[z1+z2, z1-z2], [z1-z2, z1+z2]]: cofactor expansion gives z1 z2
    s = 0.5 * (z1 + z2)
    t = 0.5 * (z1 - z2)
    Q = MatPoly([[s, t], [t, s]])
    assert mat_determinant(Q) == BiPoly.monomial(1, 1)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_determinant_matches_pointwise(d):
    rng = np.random.default_rng(d)
    M = MatPoly([[BiPoly(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
                  for _ in range(d)] for _ in range(d)])
    det = mat_determinant(M)
    for _ in range(20):
        w1 = rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform())
        w2 = rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform())
        ref = np.linalg.det(M(w1, w2))
        assert abs(det(w1, w2) - ref) <= 1e-10 * max(1.0, abs(ref))


def test_divexact_and_failure():
    den = BiPoly.from_terms([(0, 0, 2), (1, 0, -1)])
    num = (z1 * z2) * den
    assert poly_divexact(num, den) == z1 * z2
    with pytest.raises(PolyDivisionError):
        poly_divexact(num + one, den)
    # the quotient box of bidegree (0, 0) holds no u with u (z1 + z2) = z1 z2
    with pytest.raises(PolyDivisionError):
        poly_divexact(z1 * z2, z1 + z2)


def test_divexact_quotient_stays_in_its_degree_box():
    # f = p h plus 1e-13-relative noise, p the denominator of a d = 3 diagonal
    # item: the quotient is solved on the box of bidegree deg f - deg p, so
    # the noise cannot raise its degree
    p = generate_family("diagonal", 25, d=3, seed=5)[4].p
    rng = np.random.default_rng(0)
    h = BiPoly(rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
    f = p * h
    noisy = BiPoly(f.coeffs + 1e-13 * f.max_abs() * rng.standard_normal(f.coeffs.shape))
    q = poly_divexact(noisy, p)
    assert (q.deg1, q.deg2) == (h.deg1, h.deg2)
    assert (q - h).max_abs() <= 1e-8 * h.max_abs()


def test_reflection_preserves_torus_modulus():
    # p~ p~* == p p* as Laurent polynomials, for any p
    rng = np.random.default_rng(7)
    p = BiPoly(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    r = reflect(p, p.deg1, p.deg2)
    # the Laurent coefficients of f(z) conj(f)(1/z), on one window for p and r
    pp, rr = (convolve2d(f.coeffs, np.conj(f.coeffs)[::-1, ::-1]) for f in (p, r))
    assert np.abs(pp - rr).max() < 1e-12
