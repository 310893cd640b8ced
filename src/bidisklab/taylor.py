"""Power-series expansion of Theta = Q / p into matrix Taylor coefficients.

``expand`` is the one engine of Theta's coefficients on a degree box.  The
series s of 1 / p is T_p^-1 of the unit at the origin, by the z1-row
recursion (``_solve_denominator``) with which ``modelspace.ModelWorkspace.mult``
also divides by p, and Theta = Q s is one shifted copy of s per nonzero
coefficient block of Q (``_coefficients``); both steps are exact (to
round-off) whenever p(0,0) != 0.  It feeds ``bidisklab inner expand`` and
the decay probe of rank sweeps (``modelspace.decay_class``); a window's
chopped defect runs ``_coefficients`` on the window's own R_0 and R_c.  The
outer frame of a table carries a recorded tail norm; decay diagnostics
downstream decide how much a truncation may be trusted.
"""

from __future__ import annotations

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
    """R_0 and the (c, R_c, R_c^H) of p = sum_c p_c(z2) z1^c on the (A, B) box: the
    Toeplitz matrices of the series 1 / p_0 and -p_c / p_0 (``_solve_denominator``)."""
    coeffs = np.zeros((min(A, p.deg1) + 1, B + 1), dtype=complex)
    for a, b, v in p.terms():
        if a <= A and b <= B:
            coeffs[a, b] = v
    # R_0 is the Toeplitz matrix of the series s = 1 / p_0, which solves
    # P_0 s = e_0, and R_c = -R_0 P_c that of -p_c / p_0
    P = _lower_toeplitz(coeffs)
    R0 = _lower_toeplitz(np.linalg.solve(P[0], np.eye(B + 1)[:, 0]))
    rows = []
    for c in range(1, len(P)):
        if coeffs[c].any():
            Rc = -R0 @ P[c]
            rows.append((c, Rc, Rc.conj().T))
    return R0, rows


def _solve_denominator(R0, rows, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """T_p^-1 x (T_p^-* x if `adjoint`) for a stack x of z1-rows (A + 1, B + 1, k),
    by the z1-row recursion of ``modelspace.ModelWorkspace.mult``."""
    return _row_recursion(rows, np.matmul(R0.conj().T if adjoint else R0, x), adjoint)


def _row_recursion(rows, y: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """The z1-row recursion of T_p^-1 on y = R_0 x, in place: y[a] += sum_c
    R_c y[a - c] from the bottom row up; if `adjoint`, that of T_p^-* on
    y = R_0^H x, y[a] += sum_c R_c^H y[a + c] from the top row down."""
    A, step = len(y) - 1, 1 if adjoint else -1
    for a in (range(A - 1, -1, -1) if adjoint else range(1, A + 1)):
        for c, Rc, RcH in rows:
            if 0 <= a + step * c <= A:
                y[a] += (RcH if adjoint else Rc) @ y[a + step * c]
    return y


def _coefficients(theta: RationalInnerMatrix, A: int, R0, rows) -> np.ndarray:
    """Theta's coefficients on the (A, len(R0) - 1) box, from p's R_0 and R_c
    there: Q times the series of 1 / p, T_p^-1 of the unit at the origin."""
    B = len(R0) - 1
    s = np.zeros((A + 1, B + 1, 1), dtype=complex)
    s[0, :, 0] = R0[:, 0]  # R_0 times the unit; the unit's other rows are zero
    s = _row_recursion(rows, s)
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
    if A < 0 or B < 0:
        raise ValueError("cutoffs must be nonnegative")
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
