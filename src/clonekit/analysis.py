"""Closed-form bounds, success-probability optimization, and the universal-cloner checkpoint.

The optimizer is deliberately derivative-free, and every boundary it meets is
an exact quadratic root.  Symmetric problems reduce to one ray boundary per
slot pattern (:func:`clonekit.machine.ray_limit`); asymmetric problems run
coordinate ascent from three fixed starting points, one of them the
symmetric optimum, and each coordinate step solves the determinant, a
concave quadratic in u = sqrt(r_ik), for its upper root.  A brute-force grid
oracle, scored in array chunks by the feasibility core, provides an
independent check on every optimum.

The symmetric optimum, the advantage and the single-slot sweep are
batched: :func:`optimize_many`, :func:`ncmsi_advantage_many` and
:func:`discrimination_convergence_many` solve every problem of one kind and
depth as one array and assert all their optima in one core call, and the
unbatched functions are their length-1 calls.  Asymmetric problems still
run one at a time.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, capture, unwrap
from .machine import (
    MachineSpec,
    _clamp_unit,
    _overlap_powers,
    _stable_roots,
    _target,
    feasibility_core,
    feasible,
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
    """Upper bound (1 - |alpha beta|) / (1 - |alpha|^m |p_m|) on slot-m success.

    With ``p_m_abs`` = 0 this is 1 - |alpha beta|, the unambiguous
    discrimination ceiling for the product pair.
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


def _spec(prob: OptimizationProblem, r: np.ndarray, p=None) -> MachineSpec:
    return MachineSpec(prob.kind, prob.alpha, prob.beta, prob.m, r, p)


def _strict_sum(prob: OptimizationProblem) -> bool:
    return prob.kind == "joint" and abs(prob.alpha * (prob.beta or 0.0)) > 0.0


def _row_cap(prob: OptimizationProblem) -> float:
    return 1.0 - _CAP_MARGIN if _strict_sum(prob) else 1.0


def _scale_limit(prob: OptimizationProblem, direction: np.ndarray, cap: float) -> float:
    """Largest s in [0, cap] with s * direction feasible."""
    return ray_limit(*ray_terms(prob.kind, prob.alpha, prob.beta, direction), cap)


def _slot_matrix(m: int, slot: int, value: float) -> np.ndarray:
    r = np.zeros((2, m))
    r[:, slot - 1] = value
    return r


def _symmetric_limits(kind: str, alpha, beta, m: int, cap) -> np.ndarray:
    """Symmetric optimum R* per row: the slot-1 ray boundary of each (alpha, beta)."""
    # All weight on slot 1: it carries the largest overlap power, so it
    # relaxes the boundary most per unit of success probability.
    return ray_limit(*ray_terms(kind, alpha, beta, _slot_matrix(m, 1, 1.0)), cap)


def _symmetric_trace(best: float) -> str:
    return f"symmetric slot-1 boundary solve: R* = {best:.17g}"


def _optimize_symmetric(prob: OptimizationProblem, tol: float) -> tuple[np.ndarray, float, list[str]]:
    best = _symmetric_limits(prob.kind, prob.alpha, prob.beta, prob.m, _row_cap(prob))
    return _slot_matrix(prob.m, 1, best), best, [_symmetric_trace(best)]


def _coordinate_limit(r: np.ndarray, i: int, k: int, cap: float, weights: np.ndarray, t: float) -> float:
    """Largest r[i, k] in [0, cap] that keeps r feasible with every other entry fixed.

    With u = sqrt(r_ik), row i's failure weight is (1 - A) - u^2 (A the rest
    of the row) and the off-diagonal modulus is max(0, D - w u) with
    w = sqrt(r_jk) |alpha|^pow_k and D = |T| minus the other slots' share.
    Below the kink D / w the determinant is the concave quadratic
    -(1 - R_j + w^2) u^2 + 2 w D u + (1 - A)(1 - R_j) - D^2; above it only the
    diagonal binds, and ``cap`` keeps that nonnegative.  Returns the current
    value when rounding leaves no real root below the kink; the caller moves
    only to a larger value.
    """
    j = 1 - i
    cur = r[i, k]
    amps = np.sqrt(r[0] * r[1]) * weights
    fail_rest = 1.0 - (r[i].sum() - cur)
    fail_j = 1.0 - r[j].sum()
    w = math.sqrt(r[j, k]) * weights[k]
    d = t - (amps.sum() - amps[k])
    if d <= w * math.sqrt(cur):  # already past the kink: only the diagonal binds
        return cap
    qa, half_b, qc = -(fail_j + w * w), w * d, fail_rest * fail_j - d * d
    _, hi = _stable_roots(qa, half_b, qc, half_b * half_b - qa * qc)
    hi = float(hi)
    if not 0.0 <= hi < math.inf:  # no real root, or w = 0 with row j at total success 1
        return cur
    return cap if w * hi >= d else min(cap, hi * hi)


def _coordinate_ascent(prob: OptimizationProblem, r0: np.ndarray, tol: float, trace: list[str]) -> np.ndarray:
    pr = np.asarray(prob.priors)
    r = r0.copy()
    strict = _strict_sum(prob)
    weights = abs(prob.alpha) ** _overlap_powers(prob.kind, prob.m)
    t = abs(_target(prob.kind, prob.alpha, prob.beta))
    for sweep in range(60):
        gained = 0.0
        for i in range(2):
            if pr[i] == 0.0:
                continue
            for k in range(prob.m):
                cur = r[i, k]
                room = 1.0 - r[i].sum() + cur
                if strict:
                    room -= _CAP_MARGIN
                hi = min(1.0, room)
                if hi <= cur + 1e-15:
                    continue
                new = _coordinate_limit(r, i, k, hi, weights, t)
                if new > cur:
                    r[i, k] = new
                    gained += new - cur
        trace.append(f"sweep {sweep}: objective {float(np.sum(pr * r.sum(axis=1))):.17g}")
        if gained < 1e-12:
            break
    return r


def _optimize_asymmetric(prob: OptimizationProblem, tol: float) -> tuple[np.ndarray, float, list[str]]:
    pr = np.asarray(prob.priors)
    trace: list[str] = []
    seeds: list[np.ndarray] = [np.zeros((2, prob.m))]
    # Ascent only raises the objective, so seeding from the symmetric optimum
    # itself keeps the asymmetric result at or above it.
    sym_r, _, _ = _optimize_symmetric(prob, tol)
    seeds.append(sym_r)
    uniform = np.full((2, prob.m), 1.0 / prob.m)
    scale = _scale_limit(prob, uniform, _row_cap(prob))
    seeds.append(0.9 * scale * uniform)

    best_r, best_val = None, -1.0
    for idx, seed in enumerate(seeds):
        trace.append(f"seed {idx}")
        r = _coordinate_ascent(prob, seed, tol, trace)
        val = float(np.sum(pr * r.sum(axis=1)))
        if val > best_val:
            best_r, best_val = r, val
    return best_r, best_val, trace


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

    Symmetric problems of one kind and depth are solved as one array and
    their optima asserted feasible in one core call; asymmetric problems
    run one at a time.  Each outcome is the result, or the error that
    problem's :func:`optimize` raises (see :mod:`clonekit.errors`).
    """
    out: list = [None] * len(probs)
    groups: dict[tuple[str, int], list[int]] = {}
    for i, prob in enumerate(probs):
        if prob.symmetric:
            groups.setdefault((prob.kind, prob.m), []).append(i)
        else:
            out[i] = capture(_optimize_asymmetric_checked, prob, tol)
    for (kind, m), rows in groups.items():
        group = [probs[i] for i in rows]
        alpha = [prob.alpha for prob in group]
        beta = None if kind == "ncm" else [prob.beta for prob in group]
        best = _symmetric_limits(kind, alpha, beta, m, np.array([_row_cap(prob) for prob in group]))
        r_star = np.zeros((len(group), 2, m))
        r_star[:, :, 0] = best[:, None]
        batch = feasibility_core(kind, alpha, beta, m, r_star)
        ok = batch.verdict(tol)
        for j, i in enumerate(rows):
            if batch.fault[j]:
                out[i] = batch.error(j)
            elif not ok[j]:
                out[i] = NumericalError("optimizer returned an infeasible point")
            else:
                out[i] = OptimizationResult(r_star=batch.r[j], p_star=batch.p_used[j], value=float(best[j]),
                                            oracle_value=None, method_trace=(_symmetric_trace(best[j]),))
    for i, resolution in enumerate(oracle_resolutions or ()):
        if resolution is not None and isinstance(out[i], OptimizationResult):
            oracle = capture(grid_oracle, probs[i], resolution)
            out[i] = oracle if isinstance(oracle, Exception) else dataclasses.replace(out[i], oracle_value=oracle)
    return out


def _optimize_asymmetric_checked(prob: OptimizationProblem, tol: float) -> OptimizationResult:
    r_star, value, trace = _optimize_asymmetric(prob, tol)
    spec = _spec(prob, r_star)
    report = feasible(spec, tol)
    if not report.feasible:
        raise NumericalError("optimizer returned an infeasible point")
    return OptimizationResult(r_star=spec.r, p_star=report.p_used, value=float(value),
                              oracle_value=None, method_trace=tuple(trace))


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
    """Symmetric optimum of the single-slot machine with orthogonal probe flags.

    For each depth m, only slot m is active and its probe overlap is pinned
    to zero, so a success outcome identifies the input with certainty.  The
    optimum is bounded by 1 - |alpha beta| for every m and approaches it:
    orthogonal flags let the machine discriminate first and copy second.
    A length-1 call of :func:`discrimination_convergence_many`.
    """
    return unwrap(discrimination_convergence_many([(alpha_abs, beta_abs, m_max)])[0])


def discrimination_convergence_many(requests: list[tuple[float, float, int]]) -> list:
    """:func:`discrimination_convergence` for every (alpha_abs, beta_abs, m_max) of a list.

    The single-slot optima of all requests are one array, and the depth-m
    machines of every request that reaches depth m are asserted feasible
    in one core call.  One outcome per request.
    """
    out: list = []
    live: list[tuple[int, float, float, int]] = []
    for i, (a, b, m_max) in enumerate(requests):
        a, b = float(a), float(b)
        if 0.0 < a < 1.0 and 0.0 < b <= 1.0:
            out.append([])
            live.append((i, a, b, m_max))
        else:
            out.append(ValidationError("need 0 < alpha_abs < 1 and 0 < beta_abs <= 1"))
    a = np.array([row[1] for row in live])
    b = np.array([row[2] for row in live])
    # With every probe overlap pinned to 0 the success branches cancel none
    # of the off-diagonal, which stays |alpha beta| along the ray (S = 0).
    best = ray_limit(1.0, 1.0, 0.0, a * b, 1.0 - _CAP_MARGIN)
    for m in range(1, max((row[3] for row in live), default=0) + 1):
        rows = [j for j, row in enumerate(live) if row[3] >= m and isinstance(out[row[0]], list)]
        if not rows:
            break
        r = np.zeros((len(rows), 2, m))
        r[:, :, m - 1] = best[rows, None]
        batch = feasibility_core("joint", a[rows], b[rows], m, r, np.zeros((len(rows), m)))
        ok = batch.verdict()
        for k, j in enumerate(rows):
            i = live[j][0]
            if batch.fault[k]:
                out[i] = batch.error(k)
            elif not ok[k]:
                out[i] = NumericalError("single-slot optimum failed the feasibility assertion")
            else:
                out[i].append((m, float(best[j])))
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
    if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-9:
        raise ValidationError("input amplitudes must satisfy |alpha|^2 + |beta|^2 = 1")
    # Tracing b and the register out of a pure state: rho_a = T T^dagger
    # with T the output reshaped to (a, b x register).
    t = (a * _UQCM_OUT0 + b * _UQCM_OUT1).reshape(2, 4)
    ideal = np.array([a, b], dtype=np.complex128)
    diff = t @ t.conj().T - np.outer(ideal, ideal.conj())
    return float(np.real(np.trace(diff @ diff)))
