"""Probabilistic cloning machines with supplementary information, at desk scale.

Feasibility analysis via residual Gram matrices, decomposition of a joint
machine into a classically-coordinated two-step protocol and the reverse
composition, explicit unitary synthesis with exact measurement statistics,
and success-probability optimization with closed-form and brute-force
cross-checks.
"""

from .analysis import (
    OptimizationProblem,
    OptimizationResult,
    discrimination_bound,
    discrimination_convergence,
    duan_guo_bound,
    grid_oracle,
    ncmsi_advantage,
    optimize,
    uqcm_distance,
)
from .errors import CloneKitError, InfeasibleError, NumericalError, ValidationError
from .machine import (
    FeasibilityReport,
    MachineSpec,
    dominance_premise,
    feasible,
    optimal_probe_overlaps,
    ray_limit,
    ray_terms,
    reduced_inequality,
    residual_gram,
)
from .protocol import TwoStepPlan, compose, decompose_two_step, f_value, strategy_success
from .qlinalg import DEFAULT_TOL, cholesky_psd2, extend_to_unitary, inner, psd2_check, tensor
from .states import (
    PureState,
    SpaceLayout,
    basis_state,
    canonical_pair,
    embed_input,
    overlap,
    qubit,
    target_output,
    tensor_power,
)
from .synthesis import OutcomeDistribution, UnitaryRealization, exact_statistics, global_success, realize, sample

__version__ = "0.1.0"

__all__ = [
    "CloneKitError",
    "DEFAULT_TOL",
    "FeasibilityReport",
    "InfeasibleError",
    "MachineSpec",
    "NumericalError",
    "OptimizationProblem",
    "OptimizationResult",
    "OutcomeDistribution",
    "PureState",
    "SpaceLayout",
    "TwoStepPlan",
    "UnitaryRealization",
    "ValidationError",
    "basis_state",
    "canonical_pair",
    "cholesky_psd2",
    "compose",
    "decompose_two_step",
    "discrimination_bound",
    "discrimination_convergence",
    "dominance_premise",
    "duan_guo_bound",
    "embed_input",
    "exact_statistics",
    "extend_to_unitary",
    "f_value",
    "feasible",
    "global_success",
    "grid_oracle",
    "inner",
    "ncmsi_advantage",
    "optimal_probe_overlaps",
    "optimize",
    "overlap",
    "psd2_check",
    "qubit",
    "ray_limit",
    "ray_terms",
    "realize",
    "reduced_inequality",
    "residual_gram",
    "sample",
    "strategy_success",
    "target_output",
    "tensor",
    "tensor_power",
    "uqcm_distance",
]
