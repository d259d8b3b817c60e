"""Closed-form bounds, success-probability optimization, and the universal-cloner checkpoint.

With optimal probes an optimum puts all success weight in slot 1, which
carries the largest overlap power, so it does not depend on the depth m.  A
symmetric optimum is one ray boundary (:func:`clonekit.machine.ray_limit`);
an asymmetric one is the best of the symmetric point, two row maxima and
the KKT point of the boundary arc between them, a bracketed Newton root (at
alpha = 0, the Jaeger-Shimony value).  A grid oracle, scored in chunks by
the feasibility core, checks any optimum independently.  Every solver is
batched: :func:`optimize_many`, :func:`ncmsi_advantage_many` and
:func:`discrimination_convergence_many` solve the problems of one kind and
depth as one array and assert them in one core call; the unbatched
functions are their length-1 calls.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, capture, unwrap
from .machine import (
    _clamp_unit,
    _overlap_powers,
    _target,
    feasibility_core,
    ray_limit,
    ray_terms,
)
from .qlinalg import DEFAULT_TOL, kron_vectors
from .states import KINDS

_GRID_BUDGET = 10_000_000
# Grid points scored per array evaluation; keeps the oracle's memory flat.
_GRID_CHUNK = 1 << 16
# Strict-sum machines cannot sit exactly at total success 1; stop just below.
_CAP_MARGIN = 1e-12


def duan_guo_bound(alpha_abs: float) -> float:
    """Ceiling 1/(1 + |alpha|) on the symmetric one-slot copy probability."""
    a = float(alpha_abs)
    if not 0.0 <= a < 1.0:
        raise ValidationError("alpha_abs must lie in [0, 1); identical states have no bound")
    return 1.0 / (1.0 + a)


def discrimination_bound(alpha_abs: float, beta_abs: float, m: int, p_m_abs: float) -> float:
    """Upper bound (1 - |alpha beta|) / (1 - |alpha|^m |p_m|) on one-slot success.

    ``m`` is the exponent of |alpha|, not a slot number: a joint slot k
    carries |alpha|^(k+1), so the optimal-probe joint slot-m optimum is
    ``discrimination_bound(a, b, m + 1, 1)``.  With ``p_m_abs`` = 0 this is
    1 - |alpha beta|, the unambiguous discrimination ceiling for the
    product pair.
    """
    a, b, q = float(alpha_abs), float(beta_abs), float(p_m_abs)
    if m < 1:
        raise ValidationError("m must be >= 1")
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0 and 0.0 <= q <= 1.0):
        raise ValidationError("alpha_abs, beta_abs, p_m_abs must lie in [0, 1]")
    denom = 1.0 - a**m * q
    if denom <= 1e-15:
        raise NumericalError("degenerate denominator: |alpha|^m |p_m| reaches 1")
    return (1.0 - a * b) / denom


@dataclass(frozen=True)
class OptimizationProblem:
    """Maximize the prior-weighted total success over feasible r matrices."""

    kind: str
    alpha: complex
    beta: complex | None
    m: int
    priors: tuple[float, float] = (0.5, 0.5)
    symmetric: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown machine kind {self.kind!r}")
        if self.m < 1:
            raise ValidationError("m must be >= 1")
        pr = tuple(float(v) for v in self.priors)
        if len(pr) != 2 or any(v < 0 for v in pr) or abs(sum(pr) - 1.0) > 1e-9:
            raise ValidationError("priors must be two nonnegative numbers summing to 1")
        alpha = _clamp_unit(self.alpha, "alpha")
        if self.kind != "ncm" and self.beta is None:
            raise ValidationError(f"kind {self.kind!r} requires beta")
        beta = None if self.kind == "ncm" else _clamp_unit(self.beta, "beta")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "priors", pr)


@dataclass(frozen=True)
class OptimizationResult:
    r_star: np.ndarray
    p_star: np.ndarray
    value: float
    oracle_value: float | None
    method_trace: tuple[str, ...]


def _symmetric_limits(kind: str, alpha, beta, m: int, cap) -> np.ndarray:
    """Symmetric optimum R* per row: the slot-1 ray boundary of each (alpha, beta)."""
    slot1 = np.zeros((2, m))
    slot1[:, 0] = 1.0
    return ray_limit(*ray_terms(kind, alpha, beta, slot1), cap)


_CASES = ("symmetric", "row-1 maximum", "row-2 maximum", "KKT")  # candidates, in tie-break order
_TIE = 1e-15  # candidate values this close to the best differ by rounding
_NEWTON_TOL, _NEWTON_STEPS = 1e-12, 50  # a KKT root stops after a step below _NEWTON_TOL v_max


def _asymmetric_limits(kind: str, alpha, beta, priors: np.ndarray, cap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row maxima and the KKT point (R1, R2) per row, shape (N, 3, 2), in ``_CASES[1:]`` order, and |K/dK| there.

    The success branches cancel at most w_1 sqrt(R1 R2) of |T|, w_1 =
    |alpha|^pow_1 the largest slot weight (Cauchy-Schwarz), so for every m
    the optimum maximizes p1 R1 + p2 R2 subject to the convex
    sqrt((1 - R1)(1 - R2)) + w_1 sqrt(R1 R2) >= |T| and R_i <= cap.  Unless a
    cap binds (then the symmetric point reaches it), that is a row maximum
    R_i = (1 - |T|^2)/(1 - w_1^2) with tan theta_j = w_1 tan theta_i
    (R = sin^2 theta; the Jaeger-Shimony corner at w_1 = 0), or a KKT point.
    With X = cos(theta1 - theta2), Y = cos(theta1 + theta2) the boundary is
    Y = A - B X, A = 2|T|/(1 - w_1), B = (1 + w_1)/(1 - w_1); giving the
    larger prior the larger theta, the objective is unimodal in v =
    |theta1 - theta2| on the arc from the symmetric point (v = 0, where
    :func:`_kkt_slope`'s K >= 0) to that prior's row maximum (v_max, where
    K < 0 unless w_1 = 0).  Its one sign change of K is found by Newton steps
    from v = 0 that bisect the bracket when they leave it or do not halve
    (Numerical Recipes' rtsafe), each row stopped after a step of at most
    _NEWTON_TOL v_max, so that rows stay independent.  Rows with a zero
    prior, w_1 = 1 or the Jaeger-Shimony corner as optimum have no KKT point (NaN).
    """
    w = np.abs(alpha) ** _overlap_powers(kind, 1)[0]
    t = np.abs(_target(kind, alpha, beta))
    kkt, residual = np.full((len(t), 2), np.nan), np.full(len(t), np.nan)
    # At w_1 = 0 the arc ends in the Jaeger-Shimony corner, a root of K; it is the optimum (and
    # the row maximum) when p_min < |T|^2 p_max, and K has no sign change inside the arc.
    corner = (w == 0.0) & (priors.min(axis=1) < t * t * priors.max(axis=1))
    live = (priors[:, 0] * priors[:, 1] > 0.0) & (w < 1.0) & ~corner
    with np.errstate(divide="ignore", invalid="ignore"):
        top = np.fmin(cap, (1.0 - t) * (1.0 + t) / ((1.0 - w) * (1.0 + w)))
        lean = w * w * top  # sin^2 theta_j = lean / (cos^2 theta_i + lean)
        other = np.where(lean > 0.0, lean / (1.0 - top + lean), 0.0)
        w, t, delta = w[live], t[live], priors[live, 0] - priors[live, 1]
        a, b, gap = 2.0 * t / (1.0 - w), (1.0 + w) / (1.0 - w), np.abs(delta)
        # theta_top = arctan2(sqrt(top), cos) and theta_other = arctan(w_1 tan theta_top), with
        # cos = cos theta_top read without 1 - top's cancellation: v_max keeps its digits near pi/2.
        cos = np.sqrt(np.fmax(1.0 - cap[live], (t - w) * (t + w) / ((1.0 - w) * (1.0 + w))))
        lo, hi = np.zeros(len(t)), np.arctan2(np.sqrt(top[live]), cos) - np.arctan2(w * np.sqrt(top[live]), cos)
        su2 = (1.0 - a + b) * (1.0 + a - b)  # sin^2 u at v = 0, where K = gap sin^2 u and dK = sin u (Y - B)
        v, k, dk, done = lo.copy(), gap * su2, np.sqrt(su2) * (a - 2.0 * b), gap == 0.0
        step = k / dk
        older = last = hi - lo
        tol = _NEWTON_TOL * hi  # steps are measured against the arc, which is short as w_1 nears 1
        for _ in range(_NEWTON_STEPS):
            if done.all():
                break
            np.copyto(lo, v, where=k > 0.0)
            np.copyto(hi, v, where=k <= 0.0)
            size, to = np.abs(step), v - step
            newton = ~(size > tol) | (lo < to) & (to < hi) & (size <= 0.5 * np.abs(older))  # NaN: stop
            step = np.where(newton, step, v - 0.5 * (lo + hi))
            older, last = last, step
            np.copyto(v, v - step, where=~done)
            done |= ~(np.abs(step) > tol)
            k, dk = _kkt_slope(v, a, b, gap)
            step = k / dk
            done |= v - step == v  # the next step would not move v
        kkt[live] = _boundary_point(v, a, b, np.sign(delta))
        residual[live] = np.abs(step)
    out = np.stack([np.stack([top, other], axis=-1), np.stack([other, top], axis=-1), kkt], axis=1)
    return np.minimum(out, cap[:, None, None]), residual


def _boundary_point(v: np.ndarray, a, b, sign) -> np.ndarray:
    """(R1, R2) on the boundary Y = A - B X at v = |theta1 - theta2|; NaN where a theta leaves [0, pi/2]."""
    half_sum = 0.5 * np.arccos(a - b * np.cos(v))
    theta = np.stack([half_sum + 0.5 * sign * v, half_sum - 0.5 * sign * v], axis=-1)
    theta[~((theta >= 0.0) & (theta <= 0.5 * np.pi)).all(axis=-1)] = np.nan
    return np.sin(theta) ** 2


def _kkt_slope(v: np.ndarray, a, b, gap) -> tuple[np.ndarray, np.ndarray]:
    """K and dK/dv for the unsquared KKT condition: K = sin u sin v (Y - B X) + |p1 - p2| (X sin^2 u - B Y sin^2 v).

    K is twice the objective's slope along the line times sin u, u = arccos Y.
    """
    s, c = np.sin(v), np.cos(v)
    bc, bs2 = b * c, b * s * s
    y = a - bc
    su2 = (1.0 - y) * (1.0 + y)
    su, lever, ybs2 = np.sqrt(su2), y - bc, y * bs2
    k = su * s * lever + gap * (c * su2 - ybs2)
    dk = (su * c - ybs2 / su) * lever + 2.0 * su * bs2 - gap * s * (su2 + 4.0 * bc * y + b * bs2)
    return k, dk


def optimize(prob: OptimizationProblem, tol: float = DEFAULT_TOL,
             oracle_resolution: float | None = None) -> OptimizationResult:
    """Maximize prior-weighted success over the feasible region.

    The returned machine always passes :func:`clonekit.machine.feasible`.
    When ``oracle_resolution`` is given, the grid oracle runs as an
    independent cross-check and its value is attached to the result.
    A length-1 call of :func:`optimize_many`.
    """
    return unwrap(optimize_many([prob], tol, [oracle_resolution])[0])


def optimize_many(probs: list[OptimizationProblem], tol: float = DEFAULT_TOL,
                  oracle_resolutions: list[float | None] | None = None) -> list:
    """:func:`optimize` for every problem of a list; one outcome per problem.

    Problems of one kind and depth, symmetric or not, are solved as one
    array: a symmetric problem's one candidate is :func:`_symmetric_limits`,
    an asymmetric one adds those of :func:`_asymmetric_limits`.  One core
    call asserts every candidate, and each problem takes its best that
    passes.  Each outcome is the result, or the error that problem's
    :func:`optimize` raises (see :mod:`clonekit.errors`).
    """
    out: list = [None] * len(probs)
    groups: dict[tuple[str, int], list[int]] = {}
    for i, prob in enumerate(probs):
        groups.setdefault((prob.kind, prob.m), []).append(i)
    for (kind, m), rows in groups.items():
        group = [probs[i] for i in rows]
        alpha = np.array([prob.alpha for prob in group])
        beta = None if kind == "ncm" else np.array([prob.beta for prob in group])
        cap = np.where(np.abs(alpha * beta) > 0.0, 1.0 - _CAP_MARGIN, 1.0) if kind == "joint" else np.ones(len(group))
        best = _symmetric_limits(kind, alpha, beta, m, cap)
        asym = [j for j, prob in enumerate(group) if not prob.symmetric]
        cand = np.full((len(group), len(_CASES) if asym else 1, 2), np.nan)  # NaN faults in the core
        cand[:, 0] = best[:, None]
        if asym:
            priors = np.array([prob.priors for prob in group])
            at_root = np.full(len(group), np.nan)
            cand[asym, 1:], at_root[asym] = _asymmetric_limits(kind, alpha[asym], None if beta is None else beta[asym],
                                                            priors[asym], cap[asym])
        width = cand.shape[1]
        r = np.zeros((len(group) * width, 2, m))
        r[:, :, 0] = cand.reshape(-1, 2)
        batch = feasibility_core(kind, alpha.repeat(width), None if beta is None else beta.repeat(width), m, r)
        passed = (batch.fault == 0) & batch.verdict(tol)
        choice = [0] * len(group)
        if asym:
            score = np.where(passed.reshape(cand.shape[:2]), (cand * priors[:, None]).sum(axis=-1), -np.inf)
            choice = (score >= score.max(axis=1, keepdims=True) - _TIE).argmax(axis=1)
            at = cand[np.arange(len(group)), choice]  # off the KKT case, the residual is sin(priors, normal) there
            with np.errstate(divide="ignore", invalid="ignore"):  # NaN where a row is 0 or 1
                normal = (np.abs(alpha[:, None]) ** _overlap_powers(kind, 1)[0] * np.sqrt(at[:, ::-1] / at)
                          - np.sqrt((1.0 - at[:, ::-1]) / (1.0 - at)))
                cross = priors[:, 0] * normal[:, 1] - priors[:, 1] * normal[:, 0]
                residual = np.abs(cross) / (np.hypot(*priors.T) * np.hypot(*normal.T))
            residual = np.where(choice == len(_CASES) - 1, at_root, residual)
        for j, i in enumerate(rows):
            k = j * width + choice[j]
            if not passed[k]:
                out[i] = batch.error(k) or NumericalError("optimizer returned an infeasible point")
                continue
            if group[j].symmetric:
                value, trace = float(best[j]), (f"symmetric slot-1 boundary solve: R* = {best[j]:.17g}",)
            else:
                value = float(score[j, choice[j]])
                trace = (f"asymmetric slot-1 optimum, case {_CASES[choice[j]]}:"
                         f" R* = ({r[k, 0, 0]:.17g}, {r[k, 1, 0]:.17g})", f"KKT residual {residual[j]:.3g}")
            out[i] = OptimizationResult(r_star=batch.r[k], p_star=batch.p_used[k], value=value,
                                        oracle_value=None, method_trace=trace)
    for i, resolution in enumerate(oracle_resolutions or ()):
        if resolution is not None and isinstance(out[i], OptimizationResult):
            oracle = capture(grid_oracle, probs[i], resolution)
            out[i] = oracle if isinstance(oracle, Exception) else dataclasses.replace(out[i], oracle_value=oracle)
    return out


def _grid_feasible(prob: OptimizationProblem, r: np.ndarray, tol: float) -> np.ndarray:
    """Per-matrix verdict of building the spec and calling :func:`feasible` on a stack of r.

    ``r`` has shape (N, 2, m).  A matrix passes when the feasibility core
    accepts it as a machine and finds it feasible, and both rows sum to at
    most 1 (the core also accepts sums within rounding of 1).
    """
    batch = feasibility_core(prob.kind, prob.alpha, prob.beta, prob.m, r)
    sums = r.sum(axis=-1)
    return (batch.fault == 0) & batch.verdict(tol) & (sums[:, 0] <= 1.0) & (sums[:, 1] <= 1.0)


def grid_oracle(prob: OptimizationProblem, resolution: float) -> float:
    """Exhaustive feasibility scan of the r grid; independent of the optimizer.

    Returns the best prior-weighted success over grid points (step
    ``resolution``) that pass the determinant feasibility test with optimal
    probe overlaps.  A lower bound on the true optimum within the grid's
    resolution.  The grid is scored in chunks of at most ``_GRID_CHUNK``
    points, so memory stays flat up to ``_GRID_BUDGET``.
    """
    if resolution <= 0:
        raise ValidationError("resolution must be positive")
    values = np.arange(0.0, 1.0 + resolution / 2, resolution)
    dims = prob.m if prob.symmetric else 2 * prob.m
    n = len(values)
    if n**dims > _GRID_BUDGET:
        raise ValidationError(f"grid of {n}^{dims} points exceeds the budget")
    pr = prob.priors
    place = n ** np.arange(dims - 1, -1, -1)  # last coordinate varies fastest
    best = -1.0
    for start in range(0, n**dims, _GRID_CHUNK):
        index = np.arange(start, min(start + _GRID_CHUNK, n**dims))
        coords = values[index[:, None] // place % n]
        r = np.stack([coords, coords], axis=1) if prob.symmetric else coords.reshape(-1, 2, prob.m)
        ok = _grid_feasible(prob, r, DEFAULT_TOL)
        if ok.any():
            sums = r[ok].sum(axis=-1)
            best = max(best, float(np.max(pr[0] * sums[:, 0] + pr[1] * sums[:, 1])))
    if best < 0.0:
        raise NumericalError("no feasible grid point found; the zero machine should be feasible")
    return best


def ncmsi_advantage(alpha: complex, beta: complex, m: int,
                    priors: tuple[float, float] = (0.5, 0.5)) -> tuple[float, float, float]:
    """Optimal joint success, optimal original-only success, and their gap.

    The gap is nonnegative: any original-only machine's r matrix is feasible
    for the joint machine as well.  It vanishes when the supplementary
    states carry no information (|beta| = 1) and is strictly positive for
    overlaps in the open interior.  A length-1 call of
    :func:`ncmsi_advantage_many`.
    """
    return unwrap(ncmsi_advantage_many([(alpha, beta, m, priors)])[0])


def _advantage_problems(alpha, beta, m, priors) -> list:
    """The joint and the ncm problem of one advantage request, each as an outcome."""
    symmetric = abs(priors[0] - priors[1]) <= 1e-12
    return [capture(OptimizationProblem, "joint", alpha, beta, m, priors, symmetric),
            capture(OptimizationProblem, "ncm", alpha, None, m, priors, symmetric)]


def ncmsi_advantage_many(requests: list[tuple]) -> list:
    """:func:`ncmsi_advantage` for every (alpha, beta, m, priors) of a list; one outcome each.

    The joint and ncm optima of all requests go through one :func:`optimize_many`.
    """
    pairs = [capture(_advantage_problems, *req) for req in requests]
    probs = [prob for pair in pairs if not isinstance(pair, Exception) for prob in pair
             if not isinstance(prob, Exception)]
    solved = dict(zip(map(id, probs), optimize_many(probs)))
    out: list = []
    for pair in pairs:
        if isinstance(pair, Exception):
            out.append(pair)
            continue
        joint, ncm = (solved.get(id(prob), prob) for prob in pair)
        failed = next((res for res in (joint, ncm) if isinstance(res, Exception)), None)
        out.append(failed or (joint.value, ncm.value, joint.value - ncm.value))
    return out


def discrimination_convergence(alpha_abs: float, beta_abs: float, m_max: int) -> list[tuple[int, float]]:
    """Symmetric optimum of the single-slot machine with orthogonal probe flags, for m = 1..m_max.

    At depth m only slot m is active and its probe overlap is pinned to
    zero, so a success outcome identifies the input with certainty.  The
    success branch then cancels none of the off-diagonal, which stays
    |alpha beta|, so the optimum is min(cap, 1 - |alpha beta|) (to rounding;
    cap = 1 - 1e-12 keeps the joint machine below total success 1) at every
    depth, and the discrimination ceiling 1 - |alpha beta| holds by
    construction.  A length-1 call of :func:`discrimination_convergence_many`.
    """
    return unwrap(discrimination_convergence_many([(alpha_abs, beta_abs, m_max)])[0])


def discrimination_convergence_many(requests: list[tuple[float, float, int]]) -> list:
    """:func:`discrimination_convergence` for every (alpha_abs, beta_abs, m_max) of a list.

    A depth-m machine whose one active slot m carries r and probe 0 has
    the depth-1 machine's sums, diagonal, determinant and fault, bit for
    bit.  So the optima of all requests with m_max >= 1 are one array,
    asserted feasible at depth 1 in one core call, and each request
    repeats its value for m = 1..m_max.  One outcome per request.
    """
    out: list = [[] if 0.0 < float(a) < 1.0 and 0.0 < float(b) <= 1.0
                 else ValidationError("need 0 < alpha_abs < 1 and 0 < beta_abs <= 1") for a, b, _ in requests]
    rows = [i for i, res in enumerate(out) if isinstance(res, list) and requests[i][2] >= 1]
    if not rows:
        return out
    a, b = np.array([requests[i][:2] for i in rows], dtype=float).T
    # With the probe overlap pinned to 0 the success branch cancels none of
    # the off-diagonal, which stays |alpha beta| along the ray (S = 0).
    best = ray_limit(1.0, 1.0, 0.0, a * b, 1.0 - _CAP_MARGIN)
    batch = feasibility_core("joint", a, b, 1, np.repeat(best[:, None, None], 2, axis=1), np.zeros((len(rows), 1)))
    ok = batch.verdict()
    for k, i in enumerate(rows):
        if batch.fault[k]:
            out[i] = batch.error(k)
        elif not ok[k]:
            out[i] = NumericalError("single-slot optimum failed the feasibility assertion")
        else:
            out[i] = [(m, float(best[k])) for m in range(1, requests[i][2] + 1)]
    return out


_E0 = np.array([1.0, 0.0], dtype=np.complex128)
_E1 = np.array([0.0, 1.0], dtype=np.complex128)
_PLUS = (kron_vectors(_E1, _E0) + kron_vectors(_E0, _E1)) / np.sqrt(2.0)
# The universal copier's images of |0> and |1> on system a, blank b and a
# two-level machine register (up = |0>, down = |1>); they do not depend on
# the input.
_UQCM_OUT0 = np.sqrt(2.0 / 3.0) * kron_vectors(_E0, _E0, _E0) + np.sqrt(1.0 / 3.0) * kron_vectors(_PLUS, _E1)
_UQCM_OUT1 = np.sqrt(2.0 / 3.0) * kron_vectors(_E1, _E1, _E1) + np.sqrt(1.0 / 3.0) * kron_vectors(_PLUS, _E0)


def uqcm_distance(alpha_amp: float, beta_amp: float) -> float:
    """Single-copy distance Tr[(rho_out - rho_ideal)^2] of the universal copier.

    Applies the fixed state-independent copying transformation to the
    input alpha|0> + beta|1> on system a, blank b, and a two-level machine
    register, traces back down to system a, and returns the squared
    distance to the ideal output.  The value is 1/18 for every input,
    which is what makes the machine universal.
    """
    a, b = complex(alpha_amp), complex(beta_amp)
    # A part beyond 2 cannot be normalized; rejecting it first keeps every square finite.
    if not max(map(abs, (a.real, a.imag, b.real, b.imag))) <= 2.0 or abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-9:
        raise ValidationError("input amplitudes must satisfy |alpha|^2 + |beta|^2 = 1")
    # Tracing b and the register out of a pure state: rho_a = T T^dagger
    # with T the output reshaped to (a, b x register).
    t = (a * _UQCM_OUT0 + b * _UQCM_OUT1).reshape(2, 4)
    ideal = np.array([a, b], dtype=np.complex128)
    diff = t @ t.conj().T - np.outer(ideal, ideal.conj())
    return float(np.real(np.trace(diff @ diff)))
