"""Power-series expansion of Theta = Q / p into matrix Taylor coefficients.

The model-space machinery never expands Theta: it applies Q / p as an
operator (``modelspace.BlockToeplitz``), and its decay probe classifies
the coefficients that operator returns with ``tail_diagnostic``.
``expand`` feeds ``bidisklab inner expand`` and the tests only; it runs
the convolution recursion

    p(0,0) Theta_ab  =  Q_ab - sum_{(c,e) != (0,0)} p_ce Theta_{a-c, b-e},

which is exact (to roundoff) whenever p(0,0) != 0.  The outer frame of a
table carries a recorded tail norm; decay diagnostics downstream decide
how much a truncation may be trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .inner import RationalInnerMatrix
from .tolerances import SLOW_DECAY_RATIO


class DecayClass(Enum):
    FINITE = "FINITE"
    GEOMETRIC = "GEOMETRIC"
    SLOW = "SLOW"


@dataclass(frozen=True)
class TaylorTable:
    """Matrix Taylor coefficients Theta_ab for 0 <= a <= A, 0 <= b <= B."""

    d: int
    A: int
    B: int
    coeffs: np.ndarray  # shape (A+1, B+1, d, d)
    tail_norm: float
    finite_support: bool  # denominator constant, so Theta is a polynomial

    def coeff(self, a: int, b: int) -> np.ndarray:
        return self.coeffs[a, b]

    def frame_norms(self) -> np.ndarray:
        """Max Frobenius norm on each complete L-frame max(a, b) = k."""
        norms = np.linalg.norm(self.coeffs, axis=(2, 3))
        K = min(self.A, self.B)
        out = np.empty(K + 1)
        for k in range(K + 1):
            frame = np.concatenate([norms[k, : k + 1], norms[: k, k]])
            out[k] = frame.max()
        return out


@dataclass(frozen=True)
class TailDiagnostic:
    tail_norm: float
    decay_class: DecayClass
    fitted_ratio: float


def expand(theta: RationalInnerMatrix, A: int, B: int) -> TaylorTable:
    """Expand Theta = Q/p to the coefficient block [0..A] x [0..B]."""
    if A < 0 or B < 0:
        raise ValueError("cutoffs must be nonnegative")
    p00 = complex(theta.p(0.0, 0.0))
    d = theta.d
    Qc = np.zeros((A + 1, B + 1, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            entry = theta.Q[i, j].coeffs
            a = min(A + 1, entry.shape[0])
            b = min(B + 1, entry.shape[1])
            Qc[:a, :b, i, j] = entry[:a, :b]
    p_terms = [(a, b, v) for a, b, v in theta.p.terms() if (a, b) != (0, 0)]
    coeffs = np.zeros((A + 1, B + 1, d, d), dtype=complex)
    if not p_terms:
        coeffs = Qc / p00
    else:
        # every term lowers a + b, so each antidiagonal a + b = s depends
        # only on earlier ones and is solved at once, term by term in order
        for s in range(A + B + 1):
            a = np.arange(max(0, s - B), min(A, s) + 1)
            acc = Qc[a, s - a]
            for c, e, v in p_terms:
                i, j = np.searchsorted(a, [c, s - e + 1])
                if i < j:
                    acc[i:j] -= v * coeffs[a[i:j] - c, s - a[i:j] - e]
            coeffs[a, s - a] = acc / p00
    return TaylorTable(d, A, B, coeffs, _tail_norm(coeffs), not p_terms)


def _tail_norm(coeffs: np.ndarray) -> float:
    """Largest coefficient norm on the outer edges a = A and b = B."""
    norms = np.linalg.norm(coeffs, axis=(2, 3))
    return float(max(norms[-1, :].max(), norms[:, -1].max()))


def coefficient_energy(table: TaylorTable) -> float:
    """Sum of squared Frobenius norms over the block (Parseval mass <= d)."""
    return float(np.sum(np.abs(table.coeffs) ** 2))


# outer frames the decay ratio is fitted on
_FIT_FRAMES = 5


def tail_diagnostic(table: TaylorTable) -> TailDiagnostic:
    """Classify the truncation tail as FINITE, GEOMETRIC, or SLOW.

    FINITE means the outer frame vanishes outright (polynomial Theta).
    Otherwise a frame-to-frame decay ratio is fitted on the outer frames;
    ratios at or above the SLOW threshold flag a boundary-singular
    denominator whose truncations converge too slowly to trust blindly.
    """
    frames = table.frame_norms()
    top = float(np.max(frames)) if frames.size else 0.0
    exhausted = table.tail_norm <= 1e-13 * max(top, 1.0)
    if top <= 0.0 or (table.finite_support and exhausted):
        return TailDiagnostic(table.tail_norm, DecayClass.FINITE, 0.0)
    outer = frames[-(_FIT_FRAMES + 1):]
    outer = outer[outer > 0]
    if len(outer) < 2:
        return TailDiagnostic(table.tail_norm, DecayClass.SLOW, 1.0)
    ratio = float((outer[-1] / outer[0]) ** (1.0 / (len(outer) - 1)))
    cls = DecayClass.GEOMETRIC if ratio < SLOW_DECAY_RATIO else DecayClass.SLOW
    return TailDiagnostic(table.tail_norm, cls, ratio)
