"""Splitting a joint machine into a two-step protocol, and merging back.

A feasible joint machine (original plus supplementary input) can always be
decomposed into a supplementary-only machine run first and an original-only
machine run on failure, coordinated by classical communication, without
losing total success probability.  Conversely, any feasible pair composes
into a feasible joint machine.  Both directions are constructive here.

The decomposition's hard case pins the supplementary member exactly on its
feasibility boundary along the ray r_B = t * r.  With optimal probe
overlaps the member's residual determinant there is

    (1 - t R1)(1 - t R2) - (|beta| - t * sum_k S_k |alpha|^k)^2,

with R_i the row sums and S_k = sqrt(r_k1 r_k2), a quadratic in t that is
nonnegative at t = 0 and negative at t = 1, so the boundary t* is its exact
root (:func:`clonekit.machine.ray_limit`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, NumericalError, ValidationError
from .machine import MachineSpec, feasible, optimal_probe_overlaps, ray_limit, ray_terms
from .qlinalg import DEFAULT_TOL


@dataclass(frozen=True)
class TwoStepPlan:
    """Decomposition of a joint machine into classical-communication members.

    ``composed_success[i]`` is sum r_B + (1 - sum r_B) * sum r_A for input i.
    ``root_t`` is the boundary scaling parameter; it only carries meaning
    for the ``case2_II`` tag.
    """

    supp: MachineSpec
    ncm: MachineSpec
    composed_success: tuple[float, float]
    case_tag: str
    root_t: float


def f_value(x, y, alpha_abs: float, beta_abs: float) -> float:
    """The paper's feasibility ratio F.

    sqrt((1 - sum x)(1 - sum y)) / (beta_abs - sum_k sqrt(x_k y_k) alpha_abs^k);
    with optimal probe overlaps and a positive denominator, the
    supplementary member with rows x, y is feasible exactly where F >= 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("x and y must be equal-length vectors")
    if np.any(x < 0) or np.any(y < 0) or x.sum() > 1 + 1e-12 or y.sum() > 1 + 1e-12:
        raise ValidationError("x and y must lie in [0,1]^m with sums <= 1")
    ks = np.arange(1, x.size + 1)
    denom = beta_abs - float(np.sum(np.sqrt(x * y) * alpha_abs**ks))
    if denom <= 0.0:
        raise NumericalError("nonpositive denominator in feasibility ratio")
    num = np.sqrt(max(1.0 - x.sum(), 0.0) * max(1.0 - y.sum(), 0.0))
    return float(num / denom)


def _case1_fill(r: np.ndarray) -> np.ndarray:
    """Raise entries slot by slot until each row sums to exactly 1."""
    out = r.copy()
    for i in range(2):
        deficit = 1.0 - out[i].sum()
        for k in range(out.shape[1]):
            if deficit <= 0.0:
                break
            room = 1.0 - out[i, k]
            add = min(room, deficit)
            out[i, k] += add
            deficit -= add
        # Absorb float residue so the row sum is exactly 1.
        out[i, -1] += 1.0 - out[i].sum()
    return out


def decompose_two_step(joint: MachineSpec, tol: float = DEFAULT_TOL) -> TwoStepPlan:
    """Split a feasible joint machine into feasible two-step members.

    The members satisfy, for each input i,
    sum r_B + (1 - sum r_B) sum r_A >= sum r - tol, i.e. the classical
    protocol is at least as successful as the joint machine.

    Case 1 (|beta| below the success sum): the supplementary member can be
    pushed to certain success, so r_B fills to row sums of 1 and r_A = 0.
    Case 2-I (the member r_B = r is already feasible): r_B = r, r_A = 0.
    Case 2-II: t* is the exact root of the member's determinant along the
    ray t * r; then r_B = t* r and r_A = (r - r_B) / (1 - sum r_B) row-wise.
    """
    if joint.kind != "joint":
        raise ValidationError("decompose_two_step expects a joint machine")
    report = feasible(joint, tol)
    if not report.feasible:
        raise InfeasibleError("joint machine is infeasible; nothing to decompose")

    r1, r2, s, b = ray_terms("supplementary", joint.alpha, joint.beta, joint.r)
    zeros = np.zeros_like(joint.r)

    if b <= s + tol:
        r_b = _case1_fill(joint.r)
        r_a = zeros
        case_tag, root_t = "case1", 1.0
    else:
        root_t = ray_limit(r1, r2, s, b, 1.0)
        if root_t >= 1.0:
            r_b = joint.r.copy()
            r_a = zeros
            case_tag = "case2_I"
        else:
            r_b = root_t * joint.r
            denom = 1.0 - r_b.sum(axis=1)
            if np.any(denom <= tol):
                raise NumericalError("degenerate failure weight in the boundary construction")
            r_a = (joint.r - r_b) / denom[:, None]
            case_tag = "case2_II"

    supp = MachineSpec("supplementary", joint.alpha, joint.beta, joint.m, r_b)
    ncm = MachineSpec("ncm", joint.alpha, None, joint.m, r_a)
    if not feasible(supp, tol).feasible or not feasible(ncm, tol).feasible:
        raise NumericalError("decomposition produced an infeasible member")

    sum_b = supp.sum_r
    sum_a = ncm.sum_r
    composed = tuple(float(sum_b[i] + (1.0 - sum_b[i]) * sum_a[i]) for i in range(2))
    originals = joint.sum_r
    if any(composed[i] < originals[i] - tol for i in range(2)):
        raise NumericalError("two-step success fell below the joint machine's")
    return TwoStepPlan(supp=supp, ncm=ncm, composed_success=composed, case_tag=case_tag, root_t=root_t)


def compose(supp: MachineSpec, ncm: MachineSpec, tol: float = DEFAULT_TOL) -> MachineSpec:
    """Merge feasible two-step members into one feasible joint machine.

    Per slot, r_k = r_kB + (1 - sum r_B) r_kA.  Feasibility of the result
    is a theorem, but it is asserted here rather than assumed.
    """
    if supp.kind != "supplementary" or ncm.kind != "ncm":
        raise ValidationError("compose expects a supplementary member and an ncm member")
    if supp.m != ncm.m:
        raise ValidationError("members disagree on copy depth m")
    if abs(supp.alpha - ncm.alpha) > tol:
        raise ValidationError("members disagree on the original-state overlap alpha")
    if not feasible(supp, tol).feasible:
        raise InfeasibleError("supplementary member is infeasible")
    if not feasible(ncm, tol).feasible:
        raise InfeasibleError("ncm member is infeasible")

    sum_b = supp.sum_r
    r = supp.r + (1.0 - sum_b)[:, None] * ncm.r
    joint = MachineSpec("joint", supp.alpha, supp.beta, supp.m, r)
    joint = joint.with_p(optimal_probe_overlaps(joint))
    if not feasible(joint, tol).feasible:
        raise NumericalError("composed joint machine failed the feasibility assertion")
    return joint


def strategy_success(sum_ra, sum_rb, strategy: str) -> tuple[float, float]:
    """Per-input success of the two-step protocol under one communication pattern.

    The three patterns -- supplementary first ("b_to_a"), original first
    ("a_to_b"), both independently ("two_way") -- are evaluated from their
    own expressions, which are algebraically identical.
    """
    ra = tuple(float(v) for v in sum_ra)
    rb = tuple(float(v) for v in sum_rb)
    for v in ra + rb:
        if not 0.0 <= v <= 1.0:
            raise ValidationError("success sums must lie in [0, 1]")
    if strategy == "b_to_a":
        return tuple(rb[i] + (1.0 - rb[i]) * ra[i] for i in range(2))
    if strategy == "a_to_b":
        return tuple(ra[i] + (1.0 - ra[i]) * rb[i] for i in range(2))
    if strategy == "two_way":
        return tuple(ra[i] + rb[i] - ra[i] * rb[i] for i in range(2))
    raise ValidationError(f"unknown strategy {strategy!r}")
