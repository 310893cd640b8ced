import hashlib
import warnings

import numpy as np
import pytest
from scipy.signal import convolve2d

from bidisklab import inner
from bidisklab.inner import (
    InnerFunctionError,
    RationalInnerMatrix,
    UnstableDenominatorError,
    builtin,
    builtin_names,
    degree,
    det_degree,
    diagonal,
    from_scalar,
    from_stable_poly,
    product_one_var,
    require_inner,
    scalar_z2n,
    swap_variables,
    unitary_conjugate,
    verify_inner_exact,
    verify_inner_grid,
)
from bidisklab.experiments import generate_family
from bidisklab.polynomials import BiPoly, GcdSliceWarning, MatPoly, reflect

z1 = BiPoly.monomial(1, 0)
z2 = BiPoly.monomial(0, 1)
one = BiPoly.one()


def all_builtins():
    names = [n for n in builtin_names() if "(" not in n] + ["scalar_z2n(3)"]
    return [builtin(n) for n in names]


def rand_unitary(rng, d):
    Q, R = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


# -- verification ------------------------------------------------------

def test_builtins_pass_exact_check():
    families = [th for kind in ("diagonal", "product", "conjugated")
                for th in generate_family(kind, 25, seed=42)]
    for th in all_builtins() + families:
        check = verify_inner_exact(th)
        assert check.passed and check.reason is None, th.label
        assert check.residual < 1e-12, th.label
        assert require_inner(th) is th


def _entrywise_laurent_defect(Q, p):
    """Max coefficient modulus of QQ* - pp* I and Q*Q - pp* I, entry by entry.

    The coefficient-exact check that ``inner._gram_defect`` replaced, kept
    as its oracle: every entry is padded to one grid shape, so each Laurent
    product f(z) conj(g)(1/z) is the full 2-D convolution of f with g
    conjugated and reversed, on one common exponent window.
    """
    m1 = max(Q.coeffs.shape[2], p.deg1 + 1)
    m2 = max(Q.coeffs.shape[3], p.deg2 + 1)

    def star(f, g):
        grids = [np.pad(h.coeffs, ((0, m1 - h.deg1 - 1), (0, m2 - h.deg2 - 1))) for h in (f, g)]
        return convolve2d(grids[0], np.conj(grids[1])[::-1, ::-1])

    pp = star(p, p)
    worst = 0.0
    for i in range(Q.d):
        for j in range(Q.d):
            left = sum(star(Q[i, k], Q[j, k]) for k in range(Q.d))  # (Q Q*)_ij
            right = sum(star(Q[k, j], Q[k, i]) for k in range(Q.d))  # (Q* Q)_ij
            if i == j:
                left, right = left - pp, right - pp
            worst = max(worst, np.abs(left).max(), np.abs(right).max())
    return worst


def _defect_candidates():
    rng = np.random.default_rng(23)
    stable = BiPoly.from_terms([(0, 0, 3.0), (1, 0, -1.0), (0, 1, 0.5j), (1, 1, 0.4)])
    out = all_builtins()
    for kind in ("product", "diagonal", "conjugated"):
        out += generate_family(kind, 25, seed=42)
    out.append(diagonal([builtin("scalar_stable4"), builtin("scalar_favorite"),
                         builtin("scalar_z1z2")]))
    # not inner: the bad_Q of the batch tests, a polynomial over a rational p
    # for d = 1, 2 and 3, and a unitary rotation of an inner numerator over
    # the wrong denominator
    out.append(RationalInnerMatrix(2, MatPoly([[one + z1, BiPoly.zero()],
                                               [BiPoly.zero(), one]]), one, "bad_Q"))
    for d in (1, 2, 3):
        Q = MatPoly([[BiPoly(rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
                      for _ in range(d)] for _ in range(d)])
        out.append(RationalInnerMatrix(d, Q, stable, f"random{d}"))
    fav = builtin("scalar_favorite")
    out.append(RationalInnerMatrix(1, builtin("scalar_stable4").Q, fav.p, "wrong_p"))
    return out


def test_gram_defect_matches_entrywise_laurent_oracle():
    passed = []
    for th in _defect_candidates():
        oracle = _entrywise_laurent_defect(th.Q, th.p)
        residual = verify_inner_exact(th).residual
        assert abs(residual - oracle) <= 1e-13 * max(1.0, oracle), th.label
        passed.append(verify_inner_exact(th).passed)
    assert passed.count(False) == 5


def test_identity_passes_with_zero_residual():
    th = RationalInnerMatrix(2, MatPoly.identity(2), one, "I")
    check = verify_inner_exact(th)
    assert check.passed and check.residual == 0.0


def test_non_inner_fails_exact():
    Q = MatPoly([[one + z1, BiPoly.zero()], [BiPoly.zero(), one]])
    th = RationalInnerMatrix(2, Q, one, "bad")
    check = verify_inner_exact(th)
    # at tau = (1, 1) the product has a diagonal entry 4 instead of 1
    assert not check.passed and check.reason == "NOT_INNER"
    assert check.residual >= 1.0


def test_grid_check_matches_exact_on_builtins():
    for th in all_builtins():
        ge = verify_inner_exact(th)
        gg = verify_inner_grid(th, 16)
        assert ge.passed == gg.passed, th.label
        assert gg.residual < 1e-12


def test_grid_check_flags_non_inner():
    Q = MatPoly([[one + z1, BiPoly.zero()], [BiPoly.zero(), one]])
    th = RationalInnerMatrix(2, Q, one, "bad")
    check = verify_inner_grid(th, 16)
    assert not check.passed and check.reason == "NOT_INNER"
    assert check.residual >= 1.0  # attained near tau1 = 1


def test_grid_check_needs_two_points():
    with pytest.raises(ValueError):
        verify_inner_grid(builtin("scalar_z1z2"), 1)


def test_grid_check_dense_grid_on_deg21():
    assert verify_inner_grid(builtin("hadamard_deg21"), 64).residual <= 1e-12


def test_diag_z1z2_grid_small():
    th = diagonal([builtin("scalar_z1z2"), scalar_z2n(0)])
    assert verify_inner_grid(th, 8).residual < 1e-12


# -- degrees -----------------------------------------------------------

def test_degree_builtins():
    assert builtin("hadamard_z1z2").deg == (1, 1)
    assert builtin("hadamard_deg21").deg == (2, 1)
    assert scalar_z2n(3).deg == (0, 3)
    th = RationalInnerMatrix(2, MatPoly.identity(2), one, "I")
    assert degree(th) == (0, 0)


def test_det_degree_builtins():
    assert builtin("hadamard_z1z2").det_deg[1] == 1
    assert builtin("diag_z1z2_1").det_deg == (1, 1)
    th = RationalInnerMatrix(3, MatPoly.identity(3), one, "I")
    assert det_degree(th) == (0, 0)


def test_det_degree_deg21():
    # det Q = z1^2 z2 exactly
    assert builtin("hadamard_deg21").det_deg == (2, 1)


def test_det_degree_repeated_denominator():
    fav = builtin("scalar_favorite")
    th = diagonal([fav, fav], "fafa")
    assert th.det_deg == (2, 2)
    # det Q / p^3, with det Q interpolated to 1.5e-15 relative: dividing by p
    # once left 1e-8 coefficients past the quotient's z2-degree, so this read
    # (3, 7) for the sum (3, 5) of the three scalar degrees
    assert generate_family("diagonal", 25, d=3, seed=5)[4].det_deg == (3, 5)


# (deg, det_deg) of every builtin, and "m1m2n1n2" per item of the seed-42
# families: the values the earlier Euclidean GCD gave, which the Sylvester
# GCD must reproduce
GOLDEN_BUILTIN_DEGREES = {
    "diag_z1z2_1": ((1, 1), (1, 1)),
    "hadamard_deg21": ((2, 1), (2, 1)),
    "hadamard_z1z2": ((1, 1), (1, 1)),
    "scalar_favorite": ((1, 1), (1, 1)),
    "scalar_stable4": ((1, 1), (1, 1)),
    "scalar_z1z2": ((1, 1), (1, 1)),
    "scalar_z2n(3)": ((0, 3), (0, 3)),
}
GOLDEN_FAMILY_DEGREES = {
    "product": """
        0202 1111 0102 0101 1212 1214 1213 0204 0202 0202 1112 1111 0204
        0101 0202 0203 0102 1214 0102 0204 1112 0101 1111 0203 0101""",
    "diagonal": """
        0204 0202 1122 1111 1223 0203 1223 1122 1121 1213 1223 1213 1010
        1212 1111 1213 1213 1213 1121 1223 0204 1122 1121 1222 1213""",
    "conjugated": """
        1111 1111 2121 1111 1111 2121 1111 1111 2121 1111 1111 2121 1111
        1111 2121 1111 1111 2121 1111 1111 2121 1111 1111 2121 1111""",
}


def test_degrees_match_golden_values_without_slice_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error", GcdSliceWarning)
        assert set(GOLDEN_BUILTIN_DEGREES) == {th.label for th in all_builtins()}
        for th in all_builtins():
            assert (th.deg, th.det_deg) == GOLDEN_BUILTIN_DEGREES[th.label], th.label
        for kind, codes in GOLDEN_FAMILY_DEGREES.items():
            got = ["%d%d%d%d" % (th.deg + th.det_deg)
                   for th in generate_family(kind, 25, d=2, seed=42)]
            assert got == codes.split(), kind


# SHA-256 of one "label m1 m2 n1 n2" line per function, (m1, m2) = deg and
# (n1, n2) = det_deg, over the builtins and seeds 0-3 of each family at
# d = 2 and 3 (607 functions)
DEGREE_DIGEST = "5e1e03f86551d4c9e8201c59bee3d71255c86484988d1f16b181def36fccf05e"


def test_degrees_match_digest_over_seeded_families():
    items = all_builtins() + [th for kind in ("diagonal", "product", "conjugated")
                              for d in (2, 3) for seed in range(4)
                              for th in generate_family(kind, 25, d=d, seed=seed)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", GcdSliceWarning)
        rows = "\n".join("%s %d %d %d %d" % ((th.label,) + th.deg + th.det_deg)
                         for th in items)
    assert hashlib.sha256(rows.encode()).hexdigest() == DEGREE_DIGEST


# -- constructors ------------------------------------------------------

def test_from_scalar_monomial():
    th = from_scalar(z1 * z2, one, "m")
    assert th.d == 1 and th.deg == (1, 1)


def test_from_scalar_rejects_non_inner():
    with pytest.raises(InnerFunctionError) as info:
        from_scalar(one + z1, one)
    assert info.value.reason == "NOT_INNER"
    assert "NOT_INNER" in str(info.value)


def test_from_stable_poly_four():
    p = BiPoly.from_terms([(0, 0, 4), (1, 0, -1), (0, 1, -1)])
    th = from_stable_poly(p, 1, 1)
    assert verify_inner_exact(th).residual < 1e-12
    expected = BiPoly.from_terms([(1, 1, 4), (0, 1, -1), (1, 0, -1)])
    assert th.Q[0, 0] == expected


def test_from_stable_poly_boundary_singular():
    p = BiPoly.from_terms([(0, 0, 2), (1, 0, -1), (0, 1, -1)])
    th = from_stable_poly(p, 1, 1)
    assert verify_inner_exact(th).passed
    # boundary zero at tau = (1, 1): both numerator and denominator vanish
    assert abs(th.p(1.0, 1.0)) < 1e-14


def test_unstable_denominator_rejected():
    # p(z1, 0) = 1 - 2 z1 vanishes at z1 = 1/2; the Laurent identity holds
    # anyway, and before the gate a sweep over (4,4), (6,6), (8,8) read
    # ranks [4, 6, 6], INCONCLUSIVE, with only SLOW_TAYLOR_DECAY
    p = BiPoly.from_terms([(0, 0, 1), (1, 0, -2), (0, 1, 0.1)])
    with pytest.raises(UnstableDenominatorError) as info:
        from_stable_poly(p)
    assert info.value.reason == "UNSTABLE_DENOMINATOR"
    assert "UNSTABLE_DENOMINATOR" in str(info.value)
    assert isinstance(info.value, InnerFunctionError)
    # the slice p(z1, 0) = 1 + 0.1 z1 is stable; only the torus half sees
    # the zero of 1 - 2 z2 + 0.1 z1
    with pytest.raises(UnstableDenominatorError):
        from_stable_poly(p.swap_vars())
    # built directly, Theta passes the boundary test; both checks still fail
    # it, and the gate names the zero at (1/2, 0)
    th = RationalInnerMatrix(1, MatPoly.from_scalar(reflect(p, 1, 1)), p, "unstable")
    for check in (verify_inner_exact(th), verify_inner_grid(th, 64)):
        assert check.residual < 1e-12
        assert not check.passed and check.reason == "UNSTABLE_DENOMINATOR"
    with pytest.raises(UnstableDenominatorError, match=r"near \(0\.5\+0j, 0\+0j\)"):
        require_inner(th)
    with pytest.raises(UnstableDenominatorError):
        swap_variables(th)


def test_require_inner_decides_each_theta_once(monkeypatch):
    # the gate reads Theta's cached check: a Theta its constructor admitted
    # is not checked again, and a directly built one is checked on its first
    # pass through the gate only, pass or fail
    th = builtin("scalar_stable4")
    calls, check = [], inner.verify_inner_exact
    monkeypatch.setattr(inner, "verify_inner_exact",
                        lambda theta: calls.append(theta.label) or check(theta))
    assert require_inner(th) is th and calls == []
    fresh = RationalInnerMatrix(th.d, th.Q, th.p, "fresh")
    assert require_inner(fresh) is fresh and require_inner(fresh) is fresh
    p = BiPoly.from_terms([(0, 0, 1), (1, 0, -2), (0, 1, 0.1)])
    bad = RationalInnerMatrix(1, MatPoly.from_scalar(reflect(p, 1, 1)), p, "unstable")
    for _ in range(2):
        with pytest.raises(UnstableDenominatorError):
            require_inner(bad)
    assert calls == ["fresh", "unstable"]


def test_stability_gate_keeps_boundary_zeros():
    # 2 - z1 - z2 vanishes at (1, 1) and 1 - z1 z2 on the whole curve
    # z2 = conj(z1) of the torus; neither has a zero inside
    assert inner._open_bidisk_zero(builtin("scalar_favorite").p) is None
    assert inner._open_bidisk_zero(one - z1 * z2) is None
    # the z2-coefficient is negligible at every torus sample; the only
    # z2-root is near -5e12
    assert inner._open_bidisk_zero(BiPoly.from_terms([(0, 0, 10), (0, 1, 2e-12)])) is None
    assert inner._open_bidisk_zero(BiPoly.from_terms([(0, 0, 10), (1, 1, 2e-12)])) is None


def _interior_zero_margin(p, rng):
    """Smallest |z2|-root of p(z1, .) over random z1 in the disk, minus 1."""
    r = np.sqrt(rng.uniform(size=400))
    pts = r * np.exp(2j * np.pi * rng.uniform(size=400))
    best = np.inf
    for w in pts:
        col = np.polynomial.polynomial.polyval(w, p.coeffs)  # coefficients in z2
        roots = np.roots(col[::-1])
        if roots.size:
            best = min(best, np.abs(roots).min())
    return best - 1.0


def test_stability_gate_matches_interior_root_sampling():
    # an oracle that shares no code with the gate: z2-roots of p(w, .) for
    # sampled w inside the disk; only clear-cut polynomials are compared
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(60):
        shape = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        c[0, 0] = rng.uniform(0.5, 4.0) * np.abs(c).sum() / 2
        p = BiPoly(c)
        margin = _interior_zero_margin(p, rng)
        if abs(margin) < 0.05:
            continue
        assert (inner._open_bidisk_zero(p) is None) == (margin > 0)
        checked += 1
    assert checked >= 30


def test_diagonal_matches_builtin():
    th = diagonal([builtin("scalar_z1z2"), scalar_z2n(0)])
    ref = builtin("diag_z1z2_1")
    for i in range(2):
        for j in range(2):
            assert th.Q[i, j] == ref.Q[i, j]


def test_diagonal_scalar_multiple():
    th = diagonal([scalar_z2n(1), scalar_z2n(1)])
    assert th.deg == (0, 1)
    assert th.det_deg == (0, 2)


def test_diagonal_mixed_degrees():
    th = diagonal([builtin("scalar_z1z2"), scalar_z2n(2)])
    assert th.deg == (1, 2)
    assert th.det_deg == (1, 3)


def test_product_single_pair():
    rng = np.random.default_rng(0)
    U = rand_unitary(rng, 2)
    V = rand_unitary(rng, 2)
    phi = MatPoly.diag([z1, one]).left_mul(U).right_mul(V)
    psi = MatPoly.identity(2)
    th = product_one_var([(phi, psi)], "single")
    assert th.deg == (1, 0)
    assert verify_inner_exact(th).passed


def test_product_identity_factors():
    th = product_one_var([(MatPoly.identity(2), MatPoly.identity(2))])
    assert th.deg == (0, 0)


def test_product_scalar_shifts():
    th = product_one_var([(MatPoly.diag([z1, z1]), MatPoly.diag([z2, z2]))])
    assert th.deg == (1, 1)
    assert th.det_deg == (2, 2)


def test_product_rejects_mixed_variable_factor():
    with pytest.raises(InnerFunctionError):
        product_one_var([(MatPoly.diag([z1 * z2, one]), MatPoly.identity(2))])


def test_product_rejects_non_inner_factor():
    bad = MatPoly.diag([one + z1, one])
    with pytest.raises(InnerFunctionError):
        product_one_var([(bad, MatPoly.identity(2))])


def test_builtin_unknown_name():
    with pytest.raises(KeyError):
        builtin("nope")


def test_builtin_z2n_parsing():
    assert builtin("scalar_z2n(3)").deg == (0, 3)
    with pytest.raises(KeyError):
        builtin("scalar_z2n(x)")


# -- symmetries --------------------------------------------------------

def test_swap_symmetric_function():
    th = builtin("scalar_z1z2")
    sw = swap_variables(th)
    assert sw.Q[0, 0] == th.Q[0, 0]


def test_swap_monomial():
    sw = swap_variables(scalar_z2n(2))
    assert sw.deg == (2, 0)


def test_swap_reverses_degree():
    for th in all_builtins():
        assert swap_variables(th).deg == th.deg[::-1]


def test_unitary_conjugate_identity():
    th = builtin("hadamard_z1z2")
    cc = unitary_conjugate(th, np.eye(2), np.eye(2))
    for i in range(2):
        for j in range(2):
            assert cc.Q[i, j] == th.Q[i, j]


def test_unitary_conjugate_sign_flip():
    th = builtin("hadamard_z1z2")
    D = np.diag([1.0, -1.0])
    cc = unitary_conjugate(th, D, D)
    assert verify_inner_exact(cc).passed
    assert cc.deg == th.deg


def test_unitary_conjugate_preserves_det_degree():
    rng = np.random.default_rng(12)
    th = builtin("diag_z1z2_1")
    cc = unitary_conjugate(th, rand_unitary(rng, 2), rand_unitary(rng, 2))
    assert verify_inner_exact(cc).passed
    assert cc.det_deg == th.det_deg


def test_unitary_conjugate_rejects_non_unitary():
    th = builtin("hadamard_z1z2")
    with pytest.raises(ValueError):
        unitary_conjugate(th, np.diag([1.0, 2.0]), np.eye(2))


def test_det_degree_bound_on_random_families():
    rng = np.random.default_rng(4)
    for _ in range(5):
        scalars = [from_scalar(BiPoly.monomial(int(rng.integers(0, 2)),
                                               int(rng.integers(0, 3))), one)
                   for _ in range(2)]
        th = diagonal(scalars)
        m2 = th.deg[1]
        assert th.det_deg[1] <= th.d * m2


def test_origin_denominator_rejected():
    # the origin lies in the open bidisk; the error is still a ValueError
    with pytest.raises(UnstableDenominatorError):
        RationalInnerMatrix(1, MatPoly.from_scalar(z1), z2, "pole")
