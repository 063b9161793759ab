"""Exact and asymptotic analysis of weighted random permutations whose
cycle lengths are capped.

The model: permutations of n elements weighted by theta per cycle,
conditioned on every cycle having length at most alpha. The package
computes the normalizing constant and exact distributions by dynamic
programming, solves the tilt (saddle-point) equation and its asymptotic
replacements, draws exact samples via a counter-based deterministic RNG,
and tests the limit laws (longest-cycle behaviour, Poisson point-process
structure, total-variation Poisson approximation, and the central limit
theorem for single cycle counts) against those exact references.
"""

from .errors import (
    ConfigError,
    ConstraintError,
    CycleCapError,
    DegenerateWeightsError,
    DomainError,
    NumericalError,
    RegimeError,
    SizeGuardError,
    StructuralError,
)
from .exact import (
    CoefficientTable,
    CompoundPoissonDist,
    TVReport,
    brute_force_distribution,
    chernoff_tail_bound,
    compound_poisson_pmf,
    cycle_count_distribution,
    egf_coefficients,
    exact_tv_distance,
    expected_cycle_count,
    joint_cycle_count_logpmf,
    longest_cycle_cdf,
    partition_function,
)
from .limits import (
    CLTReport,
    CriticalTable,
    ProcessBatteryReport,
    TightnessEstimate,
    check_longest_critical,
    check_longest_diverging,
    clt_battery,
    d_cutoff,
    exact_standardized_ks,
    gamma_floor_pmf,
    poisson_process_battery,
    tightness_moment_estimate,
)
from .model import (
    ConstraintModel,
    CycleType,
    Permutation,
    WeightArray,
    bounded_partitions,
    ewens_log_weight,
)
from .numerics import LogReal, log_sum_exp_value
from .saddle import (
    AsymptoticTilt,
    HCalculus,
    SaddleSolution,
    admissibility_report,
    asymptotic_x,
    clt_h_calculus,
    mu,
    mu_alpha_of,
    regime_report,
    saddle_point_coefficient,
    solve_model_saddle,
    solve_saddle,
)
from .sampler import (
    RNG_ID,
    SamplerState,
    sample_lengths,
    sample_permutation,
    sample_type_array,
)

__version__ = "0.1.12"

__all__ = [
    "__version__",
    # errors
    "CycleCapError",
    "ConfigError",
    "DomainError",
    "ConstraintError",
    "StructuralError",
    "DegenerateWeightsError",
    "SizeGuardError",
    "NumericalError",
    "RegimeError",
    # numerics
    "LogReal",
    "log_sum_exp_value",
    # model
    "ConstraintModel",
    "WeightArray",
    "CycleType",
    "Permutation",
    "ewens_log_weight",
    "bounded_partitions",
    # exact
    "CoefficientTable",
    "egf_coefficients",
    "partition_function",
    "CompoundPoissonDist",
    "compound_poisson_pmf",
    "joint_cycle_count_logpmf",
    "TVReport",
    "exact_tv_distance",
    "chernoff_tail_bound",
    "brute_force_distribution",
    "cycle_count_distribution",
    "expected_cycle_count",
    "longest_cycle_cdf",
    # saddle
    "SaddleSolution",
    "solve_saddle",
    "solve_model_saddle",
    "mu",
    "mu_alpha_of",
    "AsymptoticTilt",
    "asymptotic_x",
    "regime_report",
    "admissibility_report",
    "saddle_point_coefficient",
    "HCalculus",
    "clt_h_calculus",
    # sampler
    "RNG_ID",
    "SamplerState",
    "sample_permutation",
    "sample_lengths",
    "sample_type_array",
    # limits
    "d_cutoff",
    "gamma_floor_pmf",
    "check_longest_diverging",
    "CriticalTable",
    "check_longest_critical",
    "ProcessBatteryReport",
    "poisson_process_battery",
    "TightnessEstimate",
    "tightness_moment_estimate",
    "CLTReport",
    "clt_battery",
    "exact_standardized_ks",
]
