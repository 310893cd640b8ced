"""Property-based tests (Hypothesis, an optional test dependency)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bidisklab.inner import builtin, swap_variables, unitary_conjugate  # noqa: E402
from bidisklab.modelspace import rank_at_level  # noqa: E402
from bidisklab.polynomials import BiPoly, reduce_fraction  # noqa: E402

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
