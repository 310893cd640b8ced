"""Power-series expansion of Theta = Q / p into matrix Taylor coefficients.

``expand`` is the one engine of Theta's coefficients on a degree box.  The
series s of 1 / p is T_p^-1 of the unit at the origin, by the quarter-plane
recursion (``_solve_denominator``) with which ``modelspace.ModelWorkspace.mult``
also divides by p, and Theta = Q s is one shifted copy of s per nonzero
coefficient block of Q (``_coefficients``); both steps are exact (to
round-off) whenever p(0,0) != 0.  It feeds ``bidisklab inner expand`` and
the decay probe of rank sweeps (``modelspace.decay_class``); a window's
chopped defect runs ``_coefficients`` on the window's own R_0 and band.
The outer frame of a table carries a recorded tail norm; decay diagnostics
downstream decide how much a truncation may be trusted.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .inner import RationalInnerMatrix
from .polynomials import BiPoly
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


def _lower_toeplitz(series: np.ndarray) -> np.ndarray:
    """Lower-triangular Toeplitz matrices of a stack of series (..., n)."""
    lag = np.subtract.outer(np.arange(series.shape[-1]), np.arange(series.shape[-1]))
    return np.where(lag >= 0, series[..., np.maximum(lag, 0)], 0.0)


def _denominator_kernel(p: BiPoly, A: int, B: int):
    """R_0, the Toeplitz matrix of the series 1 / p(0, z2), and the band of p:
    its coefficients (c, e, p_ce), 1 <= c <= A, on the (A, B) box."""
    c = p.coeffs[: A + 1, : B + 1]
    p0 = np.zeros(B + 1, dtype=complex)
    p0[: c.shape[1]] = c[0]
    if not p0.imag.any():
        p0 = p0.real  # a real R_0 multiplies complex rows by one real product
    # 1 / p(0, z2) solves P_0 s = e_0
    return (_lower_toeplitz(np.linalg.solve(_lower_toeplitz(p0), np.eye(B + 1)[:, 0])),
            [(a, e, c[a, e]) for a, e in zip(*np.nonzero(c)) if a])


def _solve_denominator(R0, band, y: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """T_p^-1 y (T_p^-* y if `adjoint`) in place on z1-rows y (A + 1, m, n, k),
    n the z2-degree: from the bottom row up y[a] = R_0 (y[a] - sum p_ce z2^e
    y[a - c]); the adjoint from the top row down with R_0^H and conj p_ce."""
    A, n, real = len(y) - 1, y.shape[2], R0.dtype.kind == "f"
    R = R0[:n, :n].conj().T if adjoint else R0[:n, :n]
    band = [(c, e, np.conj(v) if adjoint else v) for c, e, v in band if e < n]
    # without a band the rows are independent: one product for all of them
    for a in (range(A, -1, -1) if adjoint else range(A + 1)) if band else [Ellipsis]:
        row = y[a]
        for c, e, v in band:
            if adjoint and a + c <= A:
                row[:, : n - e] -= v * y[a + c, :, e:]
            elif not adjoint and a >= c:
                row[:, e:] -= v * y[a - c, :, : n - e]
        # a real R_0 takes the row's real and imaginary parts as one real block
        y[a] = (R @ row.view(np.float64)).view(complex) if real else R @ row
    return y


def _coefficients(theta: RationalInnerMatrix, A: int, R0, band) -> np.ndarray:
    """Theta's coefficients on the (A, len(R0) - 1) box, from p's R_0 and band
    there: Q times the series of 1 / p, T_p^-1 of the unit at the origin."""
    B = len(R0) - 1
    s = np.zeros((A + 1 if band else 1, 1, B + 1, 1), dtype=complex)  # no band: row 0 alone
    s[0, 0, 0] = 1.0
    s = _solve_denominator(R0, band, s)[:, 0]
    a, b = np.nonzero(s[..., 0])
    s = s[: a.max() + 1, : b.max() + 1]  # its support: the origin alone for constant p
    Q = theta.Q.coeffs[:, :, : A + 1, : B + 1]
    coeffs = np.zeros((A + 1, B + 1, theta.d, theta.d), dtype=complex)
    for c, e in zip(*np.nonzero(Q.any(axis=(0, 1)))):
        block = s[: A + 1 - c, : B + 1 - e, :, None] * Q[:, :, c, e]
        coeffs[c: c + block.shape[0], e: e + block.shape[1]] += block
    return coeffs


def expand(theta: RationalInnerMatrix, A: int, B: int) -> TaylorTable:
    """Expand Theta = Q/p to the coefficient block [0..A] x [0..B] (``_coefficients``)."""
    try:
        valid = operator.index(A) >= 0 and operator.index(B) >= 0
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"cutoffs ({A!r}, {B!r}) must be nonnegative integers")
    coeffs = _coefficients(theta, A, *_denominator_kernel(theta.p, A, B))
    return TaylorTable(theta.d, A, B, coeffs, _tail_norm(coeffs), theta.p.is_constant)


def _tail_norm(coeffs: np.ndarray) -> float:
    """Largest coefficient norm on the outer edges a = A and b = B."""
    edges = np.concatenate([coeffs[-1], coeffs[:, -1]])
    return float(np.linalg.norm(edges, axis=(1, 2)).max())


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
