"""Weighted scoring-rule elections: exact winner evaluation, coalition
manipulation solvers, the easy/hard complexity classifier, and
partition-reduction gadgets with two-way witness translation."""

from .core import (
    CandidateOutOfRange,
    DimensionMismatch,
    ElectionError,
    InvalidInstance,
    ManipulationInstance,
    NonMonotoneAlpha,
    NonPermutationOrder,
    NonPositiveWeight,
    Order,
    ScoringVector,
    ValidationIssue,
    WeightedVote,
    is_permutation,
    require_valid,
    tally,
    unique_winner,
    winners,
)
from .dichotomy import (
    DichotomyClass,
    ExplicitFamilyUnsupported,
    FamilyClassification,
    NonPositiveScale,
    NotHard,
    RuleClass,
    ScoringFamily,
    UnsupportedM,
    classify,
    classify_family,
    family_vector,
    hardness_params,
    normalize_last_zero,
    scale,
    shift,
)
from .manipulation import (
    DEFAULT_NODE_CAP,
    CapExhausted,
    ManipulationAnswer,
    SearchStats,
    WrongClass,
    brute_force,
    solve,
    solve_all_equal,
    solve_plurality_like,
)
from .reduction import (
    GadgetCase,
    NotAWinner,
    OddSum,
    PartitionInstance,
    ReductionArtifact,
    RoleMap,
    VerificationReport,
    build_core_voters,
    build_equalizer_voters,
    extract_witness,
    forward_witness,
    reduce_partition,
    solve_partition,
    verify_reduction,
)

__version__ = "0.1.0"
