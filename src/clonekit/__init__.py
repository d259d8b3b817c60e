"""Probabilistic cloning machines with supplementary information, at desk scale.

Feasibility analysis via residual Gram matrices, decomposition of a joint
machine into a classically-coordinated two-step protocol and the reverse
composition, explicit unitary synthesis with exact measurement statistics,
and success-probability optimization with closed-form and brute-force
cross-checks.

The public names below load their submodule on first use (PEP 562), so a
process that runs one CLI command imports only the modules it needs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "OptimizationProblem", "OptimizationResult", "discrimination_bound",
        "discrimination_convergence", "discrimination_convergence_many", "duan_guo_bound", "grid_oracle",
        "ncmsi_advantage", "ncmsi_advantage_many", "optimize", "optimize_many", "uqcm_distance",
    ),
    "errors": (
        "CloneKitError", "InfeasibleError", "NumericalError", "ValidationError",
    ),
    "machine": (
        "FeasibilityReport", "MachineBatch", "MachineSpec", "dominance_premise", "feasibility_core", "feasible",
        "optimal_probe_overlaps", "ray_limit", "ray_terms", "reduced_inequality", "residual_gram",
    ),
    "protocol": (
        "TwoStepBatch", "TwoStepPlan", "compose", "compose_arrays", "compose_many", "decompose_arrays",
        "decompose_many", "decompose_two_step",
        "f_value", "strategy_success",
    ),
    "qlinalg": (
        "DEFAULT_TOL", "cholesky_psd2", "inner", "psd2_check", "tensor",
    ),
    "states": (
        "PureState", "SpaceLayout", "basis_state", "canonical_pair", "embed_input", "overlap",
        "qubit", "target_output", "tensor_power",
    ),
    "synthesis": (
        "OutcomeDistribution", "UnitaryRealization", "exact_statistics", "global_success",
        "realize", "sample",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
