from math import comb

import numpy as np
import pytest
from scipy.signal import convolve2d

from bidisklab.experiments import generate_family
from bidisklab.inner import RationalInnerMatrix, builtin, scalar_z2n
from bidisklab.polynomials import BiPoly, MatPoly
from bidisklab.taylor import (
    DecayClass,
    coefficient_energy,
    expand,
    tail_diagnostic,
)
from oracles import _expand_pointwise


def test_monomial_expansion():
    t = expand(builtin("scalar_z1z2"), 4, 4)
    assert abs(t.coeff(1, 1)[0, 0] - 1.0) < 1e-15
    total = np.abs(t.coeffs).sum()
    assert abs(total - 1.0) < 1e-15


def test_hadamard_two_coefficients():
    t = expand(builtin("hadamard_z1z2"), 3, 3)
    assert np.allclose(t.coeff(1, 0), 0.5 * np.ones((2, 2)))
    assert np.allclose(t.coeff(0, 1), 0.5 * np.array([[1, -1], [-1, 1]]))
    mask = np.ones((4, 4), dtype=bool)
    mask[1, 0] = mask[0, 1] = False
    assert np.abs(t.coeffs[mask]).max() == 0.0


def test_favorite_low_order_coefficients():
    t = expand(builtin("scalar_favorite"), 2, 2)
    assert abs(t.coeff(0, 0)[0, 0]) < 1e-15
    assert abs(t.coeff(1, 0)[0, 0] + 0.5) < 1e-15
    assert abs(t.coeff(0, 1)[0, 0] + 0.5) < 1e-15
    assert abs(t.coeff(1, 1)[0, 0] - 0.5) < 1e-15


def test_favorite_against_geometric_series_oracle():
    # theta = q(z) * (1/2) * sum_k ((z1+z2)/2)^k, expanded independently
    fav = builtin("scalar_favorite")
    K = 12
    inv = np.zeros((K + 1, K + 1))
    for k in range(2 * K + 1):
        for a in range(k + 1):
            b = k - a
            if a <= K and b <= K:
                inv[a, b] = comb(k, a) / 2.0 ** (k + 1)
    oracle = convolve2d(fav.Q[0, 0].coeffs, inv)[: K + 1, : K + 1]
    t = expand(fav, K, K)
    assert np.max(np.abs(oracle - t.coeffs[:, :, 0, 0])) < 1e-12


def test_stable4_coefficients_geometric_bound():
    th = builtin("scalar_stable4")
    t = expand(th, 12, 12)
    mags = np.abs(t.coeffs[:, :, 0, 0])
    for a in range(13):
        for b in range(13):
            assert mags[a, b] <= 4.0 * 0.5 ** (a + b)


def test_parseval_mass_bounded():
    for name in ("scalar_z1z2", "scalar_favorite", "hadamard_z1z2", "diag_z1z2_1"):
        th = builtin(name)
        t = expand(th, 16, 16)
        assert coefficient_energy(t) <= th.d + 1e-9


def test_parseval_saturates_for_polynomials():
    t = expand(builtin("hadamard_z1z2"), 6, 6)
    assert abs(coefficient_energy(t) - 2.0) < 1e-12


def test_decay_finite():
    assert tail_diagnostic(expand(builtin("scalar_z1z2"), 5, 5)).decay_class \
        is DecayClass.FINITE


def test_decay_geometric():
    d = tail_diagnostic(expand(builtin("scalar_stable4"), 20, 20))
    assert d.decay_class is DecayClass.GEOMETRIC
    assert d.fitted_ratio < 0.6


def test_decay_slow():
    d = tail_diagnostic(expand(builtin("scalar_favorite"), 40, 40))
    assert d.decay_class is DecayClass.SLOW
    assert d.fitted_ratio >= 0.95
    assert d.tail_norm > 1e-4


def test_rejects_negative_cutoffs():
    with pytest.raises(ValueError):
        expand(builtin("scalar_z1z2"), -1, 3)


def test_undersized_cutoff_flags_untrustworthy_tail():
    # z2^3 truncated at degree 3: its only coefficient sits on the outer
    # frame, so the table records a unit tail and is not classified FINITE
    t = expand(scalar_z2n(3), 3, 3)
    assert t.tail_norm == 1.0
    assert tail_diagnostic(t).decay_class is not DecayClass.FINITE


def test_expand_matches_the_pointwise_oracle():
    # Q times the series of 1 / p against the coefficient-at-a-time recursion
    fns = [builtin(name) for name in ("diag_z1z2_1", "hadamard_deg21", "hadamard_z1z2",
                                      "scalar_favorite", "scalar_stable4", "scalar_z1z2",
                                      "scalar_z2n(3)")]
    for seed, kind in enumerate(("diagonal", "product", "conjugated")):
        fns += generate_family(kind, 31, d=2, seed=seed)
    assert len(fns) == 100
    for theta in fns:
        for A, B in [(40, 40), (13, 29), (64, 64)]:
            ref = _expand_pointwise(theta, A, B)
            err = np.abs(expand(theta, A, B).coeffs - ref).max()
            assert err <= 1e-15 * np.abs(ref).max(), (theta.label, A, B)
