"""Shared numerical tolerances and the one rank rule.

One knob per concern, collected here so the test suite and the library
agree on what "zero" means at each stage of the pipeline.  Every rank,
null space and GCD degree is counted by ``rank_count``.
"""

# Coefficients with modulus at or below this are trimmed from polynomial grids.
TRIM_TOL = 1e-12

# Max Laurent-coefficient residual accepted by the exact innerness check.
INNER_EXACT_TOL = 1e-9

# Relative threshold declaring the remainder of an exact polynomial division zero.
DIVISION_ZERO_REL = 1e-9

# The thresholds of ``rank_count``: relative to the largest value, and an
# absolute floor below which a value never counts toward a rank.
RANK_REL_TOL = 1e-8
RANK_ABS_TOL = 1e-10

# Orthonormality slack allowed on stored subspace bases.
BASIS_ORTHO_TOL = 1e-10

# Denominator roots at most this far inside the unit circle are boundary zeros.
DENOMINATOR_ROOT_TOL = 1e-6

# Unitarity slack for constant conjugating matrices.
UNITARY_TOL = 1e-12

# Hermiticity slack for self-commutators.
COMMUTATOR_HERM_TOL = 1e-12

# Taylor tails decaying slower than this frame-to-frame ratio are SLOW.
SLOW_DECAY_RATIO = 0.95

# Truncation-noise multiplier for non-polynomial (non-FINITE) expansions.
# Rank estimates and null-space detections discount singular values below
# this multiple of the measured truncation defect (the coefficient mass a
# restriction chops off), in the same spirit as the tail-scaled slack on
# the interior-isometry contract.
TRUNC_NOISE_SLACK = 2.0


def rank_count(values, floor: float = 0.0, tol_rel: float = RANK_REL_TOL) -> int:
    """Entries of a non-increasing array above RANK_ABS_TOL, `floor` (a
    truncation-noise floor) and `tol_rel` times the first; 0 when empty."""
    if len(values) == 0:
        return 0
    return int((values > max(RANK_ABS_TOL, floor, tol_rel * values[0])).sum())
