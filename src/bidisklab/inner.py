"""Matrix-valued rational inner functions on the bidisk.

A function here is a square matrix of rational functions written over a
single scalar denominator, Theta = Q / p, with Q a polynomial matrix and
p a polynomial.  Theta is *inner* when it is holomorphic on the bidisk,
so p has no zero in the open bidisk, and its boundary values on the torus
are unitary; in coefficient form the second is the exact Laurent identity

    Q(z) Q~(1/z) = Q~(1/z) Q(z) = p(z) conj-p(1/z) I,

where ~ conjugates coefficients.  ``verify_inner_exact`` decides both
halves, and ``require_inner``, the one gate, admits Theta: every
constructor, the CLI and ``run_batch`` call it, so everything downstream
may assume innerness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .polynomials import (
    BiPoly,
    MatPoly,
    PolyDivisionError,
    mat_determinant,
    poly_divexact,
    reduce_fraction,
    reflect,
)
from .tolerances import DENOMINATOR_ROOT_TOL, INNER_EXACT_TOL, UNITARY_TOL


class InnerFunctionError(ValueError):
    """A candidate failed the innerness validation; ``reason`` says how."""

    reason = "NOT_INNER"


class UnstableDenominatorError(InnerFunctionError):
    """p vanishes in the open bidisk, which the Laurent identity does not see."""

    reason = "UNSTABLE_DENOMINATOR"


@dataclass(frozen=True)
class InnerCheck:
    """Outcome of an innerness verification."""

    passed: bool
    residual: float
    method: str
    reason: str | None = None  # on a fail: NOT_INNER or UNSTABLE_DENOMINATOR


@dataclass(frozen=True)
class RationalInnerMatrix:
    """Theta = Q / p with cached degree data.

    Instances built through the module constructors are verified inner.
    Building one directly checks only p(0, 0) != 0, so the verification
    routines and the CLI can inspect failing candidates.
    """

    d: int
    Q: MatPoly
    p: BiPoly
    label: str = ""

    def __post_init__(self):
        if self.Q.d != self.d:
            raise ValueError("numerator size disagrees with d")
        if abs(self.p(0.0, 0.0)) <= 1e-14:
            raise UnstableDenominatorError(
                f"candidate {self.label or '<unnamed>'} is not inner: UNSTABLE_DENOMINATOR, "
                "p vanishes at the origin")

    @cached_property
    def deg(self) -> tuple[int, int]:
        return degree(self)

    @cached_property
    def det_deg(self) -> tuple[int, int]:
        return det_degree(self)

    @cached_property
    def inner_check(self) -> InnerCheck:
        """``verify_inner_exact`` of Theta, decided once for ``require_inner``."""
        return verify_inner_exact(self)

    @cached_property
    def wold(self):
        """``modelspace._wold_family`` of Theta, read when a level first needs it."""
        from .modelspace import _wold_family  # modelspace builds on this module
        return _wold_family(self)

    def __call__(self, z1, z2) -> np.ndarray:
        return self.Q(z1, z2) / self.p(z1, z2)

    def __repr__(self) -> str:
        name = self.label or "<unnamed>"
        return f"RationalInnerMatrix(d={self.d}, label={name!r}, deg={self.deg})"


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------

def _gram_defect(Q: np.ndarray, p: np.ndarray) -> float:
    """Largest Laurent coefficient of Q Q* - |p|^2 I and Q* Q - |p|^2 I.

    Q is a (d, d, M1, M2) coefficient tensor and p a coefficient grid.  The
    exponents of both identities span 2 L - 1 values per variable, L the
    larger coefficient count, so samples on that many roots of unity
    determine the coefficients, which the inverse FFT returns.
    """
    n1 = 2 * max(Q.shape[2], p.shape[0]) - 1
    n2 = 2 * max(Q.shape[3], p.shape[1]) - 1
    Qv = np.fft.fft2(Q, (n1, n2)).transpose(2, 3, 0, 1)
    QH = Qv.conj().swapaxes(-1, -2)
    pp = np.abs(np.fft.fft2(p, (n1, n2))) ** 2
    gram = np.stack([Qv @ QH, QH @ Qv]) - pp[..., None, None] * np.eye(Q.shape[0])
    return float(np.abs(np.fft.ifft2(gram, axes=(1, 2))).max())


def verify_inner_exact(theta: RationalInnerMatrix) -> InnerCheck:
    """Exact Laurent-coefficient innerness check.

    The residual is the largest coefficient modulus of Q Q* - |p|^2 I and
    Q* Q - |p|^2 I, read off samples on roots of unity (``_gram_defect``),
    which determine those Laurent polynomials exactly; a zero of p in the
    open bidisk fails the check too.  Returns a report rather than raising:
    failing candidates are data, not errors, for the verification surface.
    """
    residual = _gram_defect(theta.Q.coeffs, theta.p.coeffs)
    return _inner_check(theta, residual, residual <= INNER_EXACT_TOL, "exact")


def verify_inner_grid(theta: RationalInnerMatrix, N: int) -> InnerCheck:
    """Innerness residual sampled on the N x N uniform torus grid.

    Uses the division-free form || Q Q* - |p|^2 I ||_F / (1 + |p|^2) so
    boundary zeros of p cannot blow the quotient up; p must be stable too.
    """
    if N < 2:
        raise ValueError("grid size must be at least 2")
    tau = np.exp(2j * np.pi * np.arange(N) / N)
    T1, T2 = np.meshgrid(tau, tau, indexing="ij")
    Qv = theta.Q(T1, T2).transpose(2, 3, 0, 1)
    pv = theta.p(T1, T2)
    G = Qv @ np.conj(np.swapaxes(Qv, -1, -2))
    G -= (np.abs(pv) ** 2)[:, :, None, None] * np.eye(theta.d)
    res = np.linalg.norm(G, axis=(-2, -1)) / (1.0 + np.abs(pv) ** 2)
    worst = float(res.max())
    return _inner_check(theta, worst, worst <= 1e-9, f"grid{N}")


def _inner_check(theta: RationalInnerMatrix, residual: float, unitary: bool,
                 method: str) -> InnerCheck:
    if not unitary:
        return InnerCheck(False, residual, method, "NOT_INNER")
    if not theta.p.is_constant and _open_bidisk_zero(theta.p) is not None:
        return InnerCheck(False, residual, method, "UNSTABLE_DENOMINATOR")
    return InnerCheck(True, residual, method)


# Points of the unit circle where the torus half of the stability test
# solves for z2-roots, offset by half a step from z1 = 1, where
# boundary-singular denominators such as 2 - z1 - z2 vanish.
_TORUS = np.exp(2j * np.pi * (np.arange(128) + 0.5) / 128)


def _open_bidisk_zero(p: BiPoly):
    """A zero (z1, z2) of p in the open bidisk, or None when p has none.

    Torus-plus-slice test (Huang 1972; DeCarlo, Murray & Saeks 1977): p has
    no zero there exactly when p(z1, 0) has none with |z1| < 1 and p(z1, .)
    has none with |z2| < 1 for every |z1| = 1.  The torus roots of sampled
    z1 come from one batched eigenvalue call on companion matrices.  Roots
    inside by at most ``DENOMINATOR_ROOT_TOL`` are boundary zeros, allowed.
    z2-powers whose coefficients are negligible at every sample only carry
    roots near infinity, so the z2-degree m is cut below them.
    """
    inside = 1.0 - DENOMINATOR_ROOT_TOL
    for root in np.roots(p.coeffs[::-1, 0]):
        if abs(root) < inside:
            return complex(root), 0j
    rows = np.vander(_TORUS, p.deg1 + 1, increasing=True) @ p.coeffs  # z2-coefficients
    mags = np.abs(rows)
    m = int(np.flatnonzero(mags.max(axis=0) > 1e-12 * mags.max())[-1])
    if m == 0:
        return None
    # the sample where column m is largest passes, so keep is never empty
    keep = mags[:, m] > 1e-12 * mags.max(axis=1)
    companion = np.zeros((keep.sum(), m, m), dtype=complex)
    companion[:, np.arange(1, m), np.arange(m - 1)] = 1.0
    companion[:, :, -1] = -rows[keep, :m] / rows[keep, m:]
    roots = np.linalg.eigvals(companion)
    k, j = np.unravel_index(np.argmin(np.abs(roots)), roots.shape)
    if abs(roots[k, j]) < inside:
        return complex(_TORUS[keep][k]), complex(roots[k, j])
    return None


def require_inner(theta: RationalInnerMatrix) -> RationalInnerMatrix:
    """Theta if ``verify_inner_exact`` passes it, else raise the error of its
    reason, naming the zero of an unstable p.  Boundary zeros are allowed:
    ``scalar_favorite`` vanishes at (1, 1).  The check is Theta's cached
    ``inner_check``, so gating Theta again costs nothing.
    """
    check = theta.inner_check
    if check.passed:
        return theta
    name = theta.label or "<unnamed>"
    if check.reason == "NOT_INNER":
        raise InnerFunctionError(f"candidate {name} is not inner: NOT_INNER, "
                                 f"Laurent residual {check.residual:.3e}")
    z1, z2 = _open_bidisk_zero(theta.p)
    raise UnstableDenominatorError(f"candidate {name} is not inner: UNSTABLE_DENOMINATOR, "
                                   f"p vanishes near ({z1:.4g}, {z2:.4g}) inside the bidisk")


# ----------------------------------------------------------------------
# degrees
# ----------------------------------------------------------------------

def degree(theta: RationalInnerMatrix) -> tuple[int, int]:
    """Entrywise degree pair (m1, m2).

    Each entry Q_ij / p is put in reduced form first, and the degree of a
    scalar rational function is the max of its numerator and denominator
    degrees per variable; the matrix degree is the entrywise maximum.  For
    constant p that is the degree of Q's trimmed coefficient tensor.
    """
    if theta.p.is_constant:
        return theta.Q.deg1, theta.Q.deg2
    m1 = m2 = 0
    for i in range(theta.d):
        for j in range(theta.d):
            q = theta.Q[i, j]
            if q.is_zero:
                continue
            num, den = reduce_fraction(q, theta.p)
            m1 = max(m1, num.deg1, den.deg1)
            m2 = max(m2, num.deg2, den.deg2)
    return m1, m2


def det_degree(theta: RationalInnerMatrix) -> tuple[int, int]:
    """Degree pair of the scalar rational inner function det Theta.

    Computes det Q exactly and reduces det Q / p^d one denominator copy at
    a time: whole copies cancel by exact division (``poly_divexact``, a
    least-squares solve on the multiplication matrix of p), stray common
    factors by ``reduce_fraction``.  Working copy by copy keeps every Sylvester
    matrix at the size of a GCD against p rather than against p^d.  A
    slice-oracle disagreement inside a reduction surfaces as a
    GcdSliceWarning.
    """
    num = mat_determinant(theta.Q)
    if theta.p.is_constant:
        return num.deg1, num.deg2
    remaining = theta.d
    while remaining > 0:
        try:
            num = poly_divexact(num, theta.p)
        except PolyDivisionError:
            break
        remaining -= 1
    den_deg1 = den_deg2 = 0
    for used in range(remaining):
        num, part = reduce_fraction(num, theta.p)
        den_deg1 += part.deg1
        den_deg2 += part.deg2
        if part.deg1 == theta.p.deg1 and part.deg2 == theta.p.deg2:
            rest = remaining - used - 1
            den_deg1 += rest * theta.p.deg1
            den_deg2 += rest * theta.p.deg2
            break
    return max(num.deg1, den_deg1), max(num.deg2, den_deg2)


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------

def from_scalar(q: BiPoly, p: BiPoly, label: str = "") -> RationalInnerMatrix:
    """Scalar inner function q / p (validated, reduced to lowest terms)."""
    qr, pr = reduce_fraction(q, p)
    return require_inner(RationalInnerMatrix(1, MatPoly.from_scalar(qr), pr, label))


def from_stable_poly(p: BiPoly, m: int | None = None, n: int | None = None,
                     label: str = "") -> RationalInnerMatrix:
    """Scalar inner function reflect(p) / p for a stable polynomial p.

    The reflection degrees default to the degrees of p.  The Laurent
    identity holds for any p, so a p with a zero in the open bidisk raises
    ``UnstableDenominatorError``; boundary zeros are allowed.
    """
    m = p.deg1 if m is None else m
    n = p.deg2 if n is None else n
    return from_scalar(reflect(p, m, n), p, label or "stable_poly_inner")


def diagonal(scalars, label: str = "") -> RationalInnerMatrix:
    """Diagonal matrix inner function from scalar inner functions.

    The common denominator is the product of the (already reduced) scalar
    denominators and each numerator is scaled by the complementary factor.
    """
    scalars = list(scalars)
    if not scalars:
        raise ValueError("need at least one scalar inner function")
    if any(t.d != 1 for t in scalars):
        raise ValueError("diagonal entries must be scalar inner functions")
    d = len(scalars)
    p = BiPoly.one()
    for t in scalars:
        p = p * t.p
    entries = []
    for i in range(d):
        qi = scalars[i].Q[0, 0]
        for j, t in enumerate(scalars):
            if j != i:
                qi = qi * t.p
        entries.append(qi)
    return require_inner(RationalInnerMatrix(d, MatPoly.diag(entries), p, label or "diagonal"))


def product_one_var(factors, label: str = "") -> RationalInnerMatrix:
    """Product of alternating one-variable polynomial inner factors.

    ``factors`` is a sequence of (Phi, Psi) pairs of MatPoly values, Phi
    depending on z1 only and Psi on z2 only.  Each factor must itself be
    unitary-valued on the circle; the product is then inner with trivial
    denominator.
    """
    factors = list(factors)
    d = None
    Q = None
    for idx, (phi, psi) in enumerate(factors):
        if phi.deg2 != 0:
            raise InnerFunctionError(f"factor {idx}: Phi must depend on z1 only")
        if psi.deg1 != 0:
            raise InnerFunctionError(f"factor {idx}: Psi must depend on z2 only")
        for name, F in (("Phi", phi), ("Psi", psi)):
            defect = _gram_defect(F.coeffs, np.ones((1, 1)))
            if defect > INNER_EXACT_TOL:
                raise InnerFunctionError(
                    f"factor {idx}: {name} is not inner (defect {defect:.3e})")
        if d is None:
            d = phi.d
        if phi.d != d or psi.d != d:
            raise ValueError("factor sizes disagree")
        step = phi @ psi
        Q = step if Q is None else Q @ step
    if Q is None:
        raise ValueError("need at least one factor")
    return require_inner(RationalInnerMatrix(d, Q, BiPoly.one(), label or "product"))


def unitary_conjugate(theta: RationalInnerMatrix, U, V,
                      label: str = "") -> RationalInnerMatrix:
    """U Theta V for constant unitary U and V (degree and rank invariants)."""
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    for name, W in (("U", U), ("V", V)):
        if W.shape != (theta.d, theta.d):
            raise ValueError(f"{name} has the wrong shape")
        defect = np.linalg.norm(W @ W.conj().T - np.eye(theta.d), "fro")
        if defect > UNITARY_TOL:
            raise ValueError(f"{name} is not unitary (defect {defect:.3e})")
    Q = theta.Q.left_mul(U).right_mul(V)
    return require_inner(RationalInnerMatrix(theta.d, Q, theta.p,
                                             label or f"conjugated({theta.label})"))


def swap_variables(theta: RationalInnerMatrix) -> RationalInnerMatrix:
    """Theta with the two disk variables exchanged."""
    return require_inner(RationalInnerMatrix(theta.d, theta.Q.swap_vars(), theta.p.swap_vars(),
                                             f"swap({theta.label})" if theta.label else ""))


# ----------------------------------------------------------------------
# builtin examples
# ----------------------------------------------------------------------

def _z1() -> BiPoly:
    return BiPoly.monomial(1, 0)


def _z2() -> BiPoly:
    return BiPoly.monomial(0, 1)


def _builtin_diag_z1z2_1() -> RationalInnerMatrix:
    Q = MatPoly.diag([_z1() * _z2(), BiPoly.one()])
    return require_inner(RationalInnerMatrix(2, Q, BiPoly.one(), "diag_z1z2_1"))


def _builtin_hadamard_z1z2() -> RationalInnerMatrix:
    s = _z1() + _z2()
    t = _z1() - _z2()
    Q = MatPoly([[0.5 * s, 0.5 * t], [0.5 * t, 0.5 * s]])
    return require_inner(RationalInnerMatrix(2, Q, BiPoly.one(), "hadamard_z1z2"))


def _builtin_hadamard_deg21() -> RationalInnerMatrix:
    s = _z1() + _z2()
    t = _z1() - _z2()
    Q = MatPoly([[0.5 * (_z1() * s), 0.5 * (_z1() * t)],
                 [0.5 * t, 0.5 * s]])
    return require_inner(RationalInnerMatrix(2, Q, BiPoly.one(), "hadamard_deg21"))


def _builtin_scalar_z1z2() -> RationalInnerMatrix:
    return from_scalar(_z1() * _z2(), BiPoly.one(), "scalar_z1z2")


def _builtin_scalar_favorite() -> RationalInnerMatrix:
    p = BiPoly.from_terms([(0, 0, 2), (1, 0, -1), (0, 1, -1)])
    return from_stable_poly(p, 1, 1, "scalar_favorite")


def _builtin_scalar_stable4() -> RationalInnerMatrix:
    p = BiPoly.from_terms([(0, 0, 4), (1, 0, -1), (0, 1, -1)])
    return from_stable_poly(p, 1, 1, "scalar_stable4")


def scalar_z2n(n: int) -> RationalInnerMatrix:
    return from_scalar(BiPoly.monomial(0, n), BiPoly.one(), f"scalar_z2n({n})")


_BUILTINS = {
    "diag_z1z2_1": (_builtin_diag_z1z2_1,
                    "diag(z1*z2, 1); rank bound 2 is not attained"),
    "hadamard_z1z2": (_builtin_hadamard_z1z2,
                      "(1/2)[[z1+z2, z1-z2], [z1-z2, z1+z2]]"),
    "hadamard_deg21": (_builtin_hadamard_deg21,
                       "degree (2,1) variant with z1-scaled top row"),
    "scalar_z1z2": (_builtin_scalar_z1z2, "theta = z1*z2"),
    "scalar_favorite": (_builtin_scalar_favorite,
                        "(2 z1 z2 - z1 - z2)/(2 - z1 - z2); boundary singular"),
    "scalar_stable4": (_builtin_scalar_stable4,
                       "(4 z1 z2 - z1 - z2)/(4 - z1 - z2); smooth on the torus"),
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS) + ["scalar_z2n(k)"]


def builtin_descriptions() -> dict[str, str]:
    out = {name: desc for name, (_, desc) in sorted(_BUILTINS.items())}
    out["scalar_z2n(k)"] = "theta = z2**k for a nonnegative integer k"
    return out


def builtin(name: str) -> RationalInnerMatrix:
    """Return a named builtin inner function.

    Accepts the parameterized family as ``scalar_z2n(<k>)``.
    """
    name = name.strip()
    if name in _BUILTINS:
        return _BUILTINS[name][0]()
    if name.startswith("scalar_z2n(") and name.endswith(")"):
        try:
            n = int(name[len("scalar_z2n("):-1])
        except ValueError:
            raise KeyError(f"bad exponent in {name!r}") from None
        return scalar_z2n(n)
    raise KeyError(f"unknown builtin {name!r}; available: {', '.join(builtin_names())}")
