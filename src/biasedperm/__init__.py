"""Biased-permutation Markov chains: models, kernels, and exact analysis.

The package builds the probability-model families (general pairwise,
class-structured, weight-induced, tree-structured), enumerates the exact
one-step transitions of the associated chains, and verifies stationary
distributions, detailed balance, spectral gaps, mixing times, canonical
paths and congestion constants by exact computation at small sizes and
seeded Monte Carlo at moderate ones.
"""

from .errors import BudgetExceededError, PropertyViolationError, ValidationError
from .model import (
    ClassPartition,
    KClassParams,
    MonotonicityReport,
    ProbabilitySet,
    WeightVector,
    build_from_weights,
    build_general,
    build_kclass,
    check_weak_monotonicity,
    constant_bias_set,
    kclass_params_from_weights,
    model_from_config,
    random_monotone_set,
    uniform_set,
    validate_kclass,
)
from .permcore import (
    format_permutation,
    format_word,
    log_weight,
    project,
    transpose,
)
from .kernels import (
    AdjacentTranspositionChain,
    ChainKernel,
    ClassTranspositionChain,
    CrossClassChain,
    GeneralizedExclusionChain,
    ParticleProcessChain,
    SameClassChain,
    TreeSwapChain,
    constant_bias,
    make_bias,
    make_kernel,
    sample_step,
    sample_steps,
    square_table_bias,
    word_hash_bias,
)
from .exclusion import (
    BiasReport,
    HittingSummary,
    StaircaseWalk,
    area,
    bottom_word,
    hitting_time_to_top,
    measure_boundedness,
    top_word,
    walk_to_word,
    word_to_walk,
)
from .treerep import (
    LeagueTree,
    induced_probabilities,
    parse_tree,
    permutation_to_tree_strings,
    tree_strings_to_permutation,
)
from .analysis import (
    CanonicalPath,
    CongestionReport,
    DecompositionReport,
    PathFamily,
    ScalingFit,
    StateSpace,
    blocks_by_class_positions,
    build_csr,
    build_matrix,
    canonical_path,
    check_detailed_balance,
    collect_canonical_paths,
    comparison_bound,
    congestion,
    enumerate_states,
    fill_spot_check,
    fit_loglog,
    gap_scaling,
    mixing_bracket,
    mixing_time_exact,
    scaling_values,
    space_for_kernel,
    spectral_gap,
    stationary_exact,
    stationary_formula,
    tv_curve,
    verify_decomposition,
)

__version__ = "0.1.0"
