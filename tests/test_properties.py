"""Property-based tests (Hypothesis, an optional test dependency)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bidisklab.inner import builtin, swap_variables, unitary_conjugate  # noqa: E402
from bidisklab.modelspace import rank_at_level  # noqa: E402
from bidisklab.polynomials import (  # noqa: E402
    BiPoly,
    MatPoly,
    mat_determinant,
    reduce_fraction,
    reflect,
)

BUILTINS = ("diag_z1z2_1", "hadamard_deg21", "hadamard_z1z2", "scalar_favorite",
            "scalar_stable4", "scalar_z1z2")


def _haar_unitary(rng, d):
    Q, R = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(BUILTINS), A=st.integers(2, 9), B=st.integers(2, 9),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rank_level_invariant_under_conjugation_and_swap(name, A, B, seed):
    # U Theta V H^2 = U Theta H^2 and U acts pointwise on the components,
    # so the truncated model space and the commutator only rotate; on a
    # square window, swapping the variables maps the model space onto that
    # of the swapped function
    th = builtin(name)
    rng = np.random.default_rng(seed)
    ref = rank_at_level(th, A, B)
    conj = rank_at_level(unitary_conjugate(th, _haar_unitary(rng, th.d),
                                           _haar_unitary(rng, th.d)), A, B)
    assert (conj.rank, conj.dim_model) == (ref.rank, ref.dim_model)
    square = ref if A == B else rank_at_level(th, A, A)
    assert rank_at_level(swap_variables(th), A, A).dim_model == square.dim_model


_SHAPES = st.tuples(st.integers(1, 3), st.integers(1, 3))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(shapes=st.tuples(_SHAPES, _SHAPES, _SHAPES), seed=st.integers(0, 2 ** 32 - 1))
def test_reduce_fraction_round_trips(shapes, seed):
    # q/p = q'/p' as polynomials, q' p = q p', with no larger degrees
    rng = np.random.default_rng(seed)
    h, a, b = (BiPoly(rng.standard_normal(s) + 1j * rng.standard_normal(s)) for s in shapes)
    q, p = a * h, b * h
    q_red, p_red = reduce_fraction(q, p)
    scale = max((q_red * p).max_abs(), (q * p_red).max_abs())
    assert scale > 0.0
    assert (q_red * p - q * p_red).max_abs() <= 1e-8 * scale
    assert q_red.deg1 <= q.deg1 and q_red.deg2 <= q.deg2
    assert p_red.deg1 <= p.deg1 and p_red.deg2 <= p.deg2


def _random_poly(rng, shape, zeros):
    """Complex Gaussian coefficients on `shape`, with the `zeros` mask set to 0."""
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return BiPoly(np.where(zeros, 0.0, c))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(shape=_SHAPES, extra=st.tuples(st.integers(0, 2), st.integers(0, 2)),
       seed=st.integers(0, 2 ** 32 - 1), sparsity=st.floats(0.0, 0.8))
def test_reflect_is_an_involution(shape, extra, seed, sparsity):
    # zero rows and columns at the low degrees become top rows and columns
    # of the reflection, which trimming drops; reflecting back restores them
    rng = np.random.default_rng(seed)
    p = _random_poly(rng, shape, rng.uniform(size=shape) < sparsity)
    m, n = p.deg1 + extra[0], p.deg2 + extra[1]
    assert np.array_equal(reflect(reflect(p, m, n), m, n).coeffs, p.coeffs)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 5), shape=_SHAPES, seed=st.integers(0, 2 ** 32 - 1))
def test_mat_determinant_matches_pointwise_det(d, shape, seed):
    # d <= 4 takes the cofactor expansion, d = 5 the interpolation path
    rng = np.random.default_rng(seed)
    M = MatPoly([[_random_poly(rng, shape, rng.uniform(size=shape) < 0.3)
                  for _ in range(d)] for _ in range(d)])
    det = mat_determinant(M)
    for _ in range(4):
        z = 1.2 * (rng.uniform(size=2) * np.exp(2j * np.pi * rng.uniform(size=2)))
        ref = np.linalg.det(M(*z))
        scale = np.prod(np.linalg.norm(M(*z), axis=1))  # Hadamard's bound on |det|
        assert abs(det(*z) - ref) <= 1e-10 * max(scale, 1.0)
