"""Shared numerical tolerances.

One knob per concern, collected here so the test suite and the library
agree on what "zero" means at each stage of the pipeline.
"""

# Coefficients with modulus at or below this are trimmed from polynomial grids.
TRIM_TOL = 1e-12

# Max Laurent-coefficient residual accepted by the exact innerness check.
INNER_EXACT_TOL = 1e-9

# Relative threshold declaring the remainder of an exact polynomial division zero.
DIVISION_ZERO_REL = 1e-9

# Relative tolerance shared by every rank-revealing factorization
# (model-space bases, invariant-subspace null spaces, numerical rank).
RANK_REL_TOL = 1e-8

# Absolute floor below which singular values never count toward a rank.
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
