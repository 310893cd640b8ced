"""Numerical operator theory for matrix rational inner functions on the bidisk.

The package represents inner functions Theta = Q / p exactly through
polynomial coefficient grids, expands them into Taylor tables, builds
truncated model spaces H^2 (x) C^d minus Theta H^2 with their compressed
shifts, estimates self-commutator ranks across truncation schedules,
computes the canonical invariant subspaces behind Agler kernel
decompositions, and batches all of it into a conjecture-testing harness.
"""

from .polynomials import (
    BiPoly,
    GcdSliceWarning,
    MatPoly,
    PolyDivisionError,
    mat_determinant,
    poly_divexact,
    reduce_fraction,
    reflect,
)
from .inner import (
    InnerCheck,
    InnerFunctionError,
    RationalInnerMatrix,
    UnstableDenominatorError,
    builtin,
    builtin_descriptions,
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
from .taylor import (
    DecayClass,
    TailDiagnostic,
    TaylorTable,
    coefficient_energy,
    expand,
    tail_diagnostic,
)
from .modelspace import (
    ModelWorkspace,
    RankLevel,
    RankReport,
    Subspace,
    SweepVerdict,
    TruncGrid,
    backward_shift,
    commutator,
    compressed_shift,
    model_basis,
    numerical_rank,
    probe_model_basis,
    rank_at_level,
    rank_sweep,
    shift_mult,
)
from .agler import (
    AglerSpaces,
    KernelCommutatorComparison,
    agler_kernel_residual,
    agler_spaces,
    commutator_kernel_formula,
    compute_smax1,
    compute_smin2,
    eval_columns,
    injectivity_margin,
    kernel_space_dims,
)
from .experiments import (
    BatchScreeningError,
    BatchSummary,
    ConjectureRecord,
    conjecture_report,
    generate_family,
    run_batch,
)

__version__ = "0.1.0"
