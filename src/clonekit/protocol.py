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

:func:`decompose_arrays` decomposes a whole :class:`~clonekit.machine.MachineBatch`
of joint machines at once: the cases, roots and members are arrays (a
:class:`TwoStepBatch`), and the members of all rows are validated and
asserted in one core call per member kind.  :func:`decompose_many` is its
list of :class:`TwoStepPlan` per row, and :func:`decompose_two_step` its
length-1 call.  :func:`compose_arrays` composes two member batches row by
row: the joint machines of all rows are validated and asserted in one core
call, and their optimal probes are set on that validated batch
(:meth:`~clonekit.machine.MachineBatch.with_p`) without a second one.
:func:`compose_many` is its list of joint machines, and :func:`compose` its
length-1 call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, NumericalError, ValidationError, unwrap
from .machine import FeasibilityReport, MachineBatch, MachineSpec, feasibility_core, ray_limit, ray_terms
from .qlinalg import DEFAULT_TOL


@dataclass(frozen=True)
class TwoStepPlan:
    """Decomposition of a joint machine into classical-communication members.

    ``composed_success[i]`` is sum r_B + (1 - sum r_B) * sum r_A for input i.
    ``root_t`` is the boundary scaling parameter; it only carries meaning
    for the ``case2_II`` tag.  ``supp_report`` and ``ncm_report`` are the
    members' feasibility reports that the decomposition asserted.
    """

    supp: MachineSpec
    ncm: MachineSpec
    composed_success: tuple[float, float]
    case_tag: str
    root_t: float
    supp_report: FeasibilityReport
    ncm_report: FeasibilityReport


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
    """Raise entries slot by slot until each row sums to exactly 1 (r of shape (N, 2, m))."""
    out = r.copy()
    for i in range(2):
        deficit = 1.0 - out[:, i].sum(axis=-1)
        for k in range(out.shape[-1]):
            active = deficit > 0.0
            add = np.minimum(1.0 - out[:, i, k], deficit)
            out[:, i, k] = np.where(active, out[:, i, k] + add, out[:, i, k])
            deficit = np.where(active, deficit - add, deficit)
        # Absorb float residue so the row sum is exactly 1.
        out[:, i, -1] += 1.0 - out[:, i].sum(axis=-1)
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

    A length-1 call of :func:`decompose_many`.
    """
    return unwrap(decompose_many(joint.as_batch(), tol)[0])


class TwoStepBatch:
    """The decompositions of N joint machines as arrays (:func:`decompose_arrays`).

    errors
        One entry per row: None, or the error that row's
        :func:`decompose_two_step` raises.  The other fields are
        meaningless on failing rows, and None when every row failed before
        the members were built.
    supp, ncm
        The members of every row, one :class:`~clonekit.machine.MachineBatch` each.
    composed_success, case_tag, root_t
        (N, 2), (N,) and (N,): the :class:`TwoStepPlan` fields of every row.
    tol
        The tolerance the members' verdicts and reports use.

    A plain slotted class, like MachineBatch: it is defined at every import.
    """

    __slots__ = ("errors", "supp", "ncm", "composed_success", "case_tag", "root_t", "tol")

    def __init__(self, errors: list, tol: float, supp=None, ncm=None, composed_success=None, case_tag=None,
                 root_t=None):
        self.errors, self.tol, self.supp, self.ncm = errors, tol, supp, ncm
        self.composed_success, self.case_tag, self.root_t = composed_success, case_tag, root_t

    def plan(self, i: int) -> TwoStepPlan:
        """Row i as a :class:`TwoStepPlan` (a row without an error)."""
        return TwoStepPlan(
            supp=self.supp.spec(i), ncm=self.ncm.spec(i),
            composed_success=(float(self.composed_success[i, 0]), float(self.composed_success[i, 1])),
            case_tag=str(self.case_tag[i]), root_t=float(self.root_t[i]),
            supp_report=self.supp.report(i, self.tol), ncm_report=self.ncm.report(i, self.tol),
        )


def decompose_arrays(joints: MachineBatch, tol: float = DEFAULT_TOL) -> TwoStepBatch:
    """:func:`decompose_two_step` for every row of a batch, in three core calls, as arrays.

    The joint machines' own call is ``joints``; the supplementary and the
    ncm members of all rows are validated and solved in one call each.
    Each row's error is the one its :func:`decompose_two_step` raises,
    checked in the same order -- the row's validation fault, the joint
    feasibility, the boundary construction, the members' validation and
    feasibility, and the composed success.  No per-row object is built.
    """
    n = len(joints)
    errors: list = [None] * n
    for i in joints.fault.nonzero()[0].tolist():
        errors[i] = joints.error(i)
    if joints.det is None:  # a fault of the whole call: every row carries it
        return TwoStepBatch(errors, tol)
    if joints.kind != "joint":
        return TwoStepBatch([e or ValidationError("decompose_two_step expects a joint machine") for e in errors], tol)
    r = joints.r
    ok = joints.verdict(tol)
    with np.errstate(all="ignore"):  # faulted rows may overflow or hold NaN; degenerate rows divide by 0
        r1, r2, s, b = ray_terms("supplementary", joints.alpha, joints.beta, r)
        case1 = b <= s + tol
        root = np.where(case1, 1.0, ray_limit(r1, r2, s, b, 1.0))
        case2_ii = ~case1 & (root < 1.0)
        r_b = np.where(case2_ii[:, None, None], root[:, None, None] * r, r)
        if case1.any():
            r_b = np.where(case1[:, None, None], _case1_fill(r), r_b)
        denom = 1.0 - r_b.sum(axis=-1)
        degenerate = case2_ii & (denom <= tol).any(axis=1)
        r_a = np.where(case2_ii[:, None, None], (r - r_b) / denom[:, :, None], 0.0)
    supp = feasibility_core("supplementary", joints.alpha, joints.beta, joints.m, r_b)
    ncm = feasibility_core("ncm", joints.alpha, None, joints.m, r_a)
    members_ok = supp.verdict(tol) & ncm.verdict(tol)
    composed = supp.sums + (1.0 - supp.sums) * ncm.sums
    short = (composed < joints.sums - tol).any(axis=1)
    bad = ~(ok & members_ok) | degenerate | short | ((supp.fault | ncm.fault) != 0)
    for i in bad.nonzero()[0].tolist():  # a faulted joint row already holds its error
        if errors[i] is not None:
            continue
        if not ok[i]:
            errors[i] = InfeasibleError("joint machine is infeasible; nothing to decompose")
        elif degenerate[i]:
            errors[i] = NumericalError("degenerate failure weight in the boundary construction")
        elif supp.fault[i] or ncm.fault[i]:
            errors[i] = supp.error(i) or ncm.error(i)
        elif not members_ok[i]:
            errors[i] = NumericalError("decomposition produced an infeasible member")
        else:
            errors[i] = NumericalError("two-step success fell below the joint machine's")
    tags = np.where(case1, "case1", np.where(case2_ii, "case2_II", "case2_I"))
    return TwoStepBatch(errors, tol, supp, ncm, composed, tags, root)


def decompose_many(joints: MachineBatch, tol: float = DEFAULT_TOL) -> list:
    """:func:`decompose_two_step` for every row of a batch: the length-N view of :func:`decompose_arrays`.

    Returns one outcome per row (see :mod:`clonekit.errors`): the plan, or
    the error that row's :func:`decompose_two_step` raises.
    """
    two = decompose_arrays(joints, tol)
    return [error or two.plan(i) for i, error in enumerate(two.errors)]


def compose(supp: MachineSpec, ncm: MachineSpec, tol: float = DEFAULT_TOL) -> MachineSpec:
    """Merge feasible two-step members into one feasible joint machine.

    Per slot, r_k = r_kB + (1 - sum r_B) r_kA.  Feasibility of the result
    is a theorem, but it is asserted here rather than assumed.  The joint
    machine carries its optimal probe overlaps as explicit ``p``.

    A length-1 call of :func:`compose_many`.
    """
    return unwrap(compose_many(supp.as_batch(), ncm.as_batch(), tol)[0])


def compose_arrays(supp: MachineBatch, ncm: MachineBatch, tol: float = DEFAULT_TOL) -> tuple:
    """:func:`compose` for every row of two member batches of one length, in one core call: (errors, joint).

    Row i composes supp row i with ncm row i.  ``errors[i]`` is None or the
    error row i's :func:`compose` raises, checked in the same order: the
    members' validation faults (supp, then ncm), their kinds, their depths,
    their overlaps alpha, their feasibility (supp, then ncm), the joint
    machine's validation fault and its feasibility.  ``joint`` is the
    :class:`~clonekit.machine.MachineBatch` of the composed machines with
    their optimal probes set (:meth:`~clonekit.machine.MachineBatch.with_p`),
    meaningless on failing rows; it is None when every row failed before it
    was built, and then the joint core call is not made.
    """
    n = len(supp)
    if len(ncm) != n:
        raise ValidationError(f"member batches differ in length: {n} and {len(ncm)}")
    errors: list = [None] * n
    for i in (supp.fault | ncm.fault).nonzero()[0].tolist():
        errors[i] = supp.error(i) or ncm.error(i)
    if supp.det is None or ncm.det is None:  # a fault of the whole call: every row carries one
        return errors, None
    if supp.kind != "supplementary" or ncm.kind != "ncm":
        return [e or ValidationError("compose expects a supplementary member and an ncm member") for e in errors], None
    if supp.m != ncm.m:
        return [e or ValidationError("members disagree on copy depth m") for e in errors], None
    with np.errstate(all="ignore"):  # faulted rows may overflow or hold NaN
        apart = np.abs(supp.alpha - ncm.alpha) > tol
    supp_ok, ncm_ok = supp.verdict(tol), ncm.verdict(tol)
    for i in (apart | ~(supp_ok & ncm_ok)).nonzero()[0].tolist():
        if errors[i] is not None:
            continue
        if apart[i]:
            errors[i] = ValidationError("members disagree on the original-state overlap alpha")
        elif not supp_ok[i]:
            errors[i] = InfeasibleError("supplementary member is infeasible")
        else:
            errors[i] = InfeasibleError("ncm member is infeasible")
    if None not in errors:
        return errors, None
    r = supp.r + (1.0 - supp.sums)[:, :, None] * ncm.r  # the core clipped r to [0, 1], or NaN: no warning
    joint = feasibility_core("joint", supp.alpha, supp.beta, supp.m, r)
    joint = joint.with_p(joint.p_opt)
    for i in ((joint.fault != 0) | ~joint.verdict(tol)).nonzero()[0].tolist():
        if errors[i] is None:
            errors[i] = joint.error(i) or NumericalError("composed joint machine failed the feasibility assertion")
    return errors, joint


def compose_many(supp: MachineBatch, ncm: MachineBatch, tol: float = DEFAULT_TOL) -> list:
    """:func:`compose` for every row of two member batches: the length-N view of :func:`compose_arrays`.

    Returns one outcome per row (see :mod:`clonekit.errors`): the joint
    machine, or the error that row's :func:`compose` raises.
    """
    errors, joint = compose_arrays(supp, ncm, tol)
    return [error or joint.spec(i) for i, error in enumerate(errors)]


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
