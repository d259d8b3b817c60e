"""Closed-form bounds, success-probability optimization, and the universal-cloner checkpoint.

The optimizer is deliberately derivative-free, and every boundary it meets is
an exact quadratic root.  Symmetric problems reduce to one ray boundary per
slot pattern (:func:`clonekit.machine.ray_limit`); asymmetric problems run
coordinate ascent from three fixed starting points, one of them the
symmetric optimum, and each coordinate step solves the determinant, a
concave quadratic in u = sqrt(r_ik), for its upper root.  A brute-force grid
oracle, scored in array chunks from the closed-form determinant, provides an
independent check on every optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .machine import (
    MachineSpec,
    _clamp_unit,
    _overlap_powers,
    _stable_roots,
    _target,
    closed_form_det,
    feasible,
    ray_limit,
    ray_terms,
)
from .qlinalg import DEFAULT_TOL
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


def _scale_limit(prob: OptimizationProblem, direction: np.ndarray, cap: float,
                 probes_pinned: bool = False) -> float:
    """Largest s in [0, cap] with s * direction feasible.

    With every probe overlap pinned to 0 the success branches cancel none of
    the off-diagonal, which stays |T| along the whole ray (S = 0).
    """
    r1, r2, s, t = ray_terms(prob.kind, prob.alpha, prob.beta, direction)
    return ray_limit(r1, r2, 0.0 if probes_pinned else s, t, cap)


def _slot_matrix(m: int, slot: int, value: float) -> np.ndarray:
    r = np.zeros((2, m))
    r[:, slot - 1] = value
    return r


def _optimize_symmetric(prob: OptimizationProblem, tol: float) -> tuple[np.ndarray, float, list[str]]:
    # All weight on slot 1: it carries the largest overlap power, so it
    # relaxes the boundary most per unit of success probability.
    best = _scale_limit(prob, _slot_matrix(prob.m, 1, 1.0), _row_cap(prob))
    trace = [f"symmetric slot-1 boundary solve: R* = {best:.17g}"]
    return _slot_matrix(prob.m, 1, best), best, trace


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
    _, hi = _stable_roots(-(fail_j + w * w), 2.0 * w * d, fail_rest * fail_j - d * d)
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
    """
    if prob.symmetric:
        r_star, value, trace = _optimize_symmetric(prob, tol)
    else:
        r_star, value, trace = _optimize_asymmetric(prob, tol)
    spec = _spec(prob, r_star)
    report = feasible(spec, tol)
    if not report.feasible:
        raise NumericalError("optimizer returned an infeasible point")
    oracle = grid_oracle(prob, oracle_resolution) if oracle_resolution is not None else None
    r_out = np.asarray(r_star, dtype=float)
    r_out.setflags(write=False)
    return OptimizationResult(
        r_star=r_out,
        p_star=report.p_used,
        value=float(value),
        oracle_value=oracle,
        method_trace=tuple(trace),
    )


def _grid_feasible(prob: OptimizationProblem, r: np.ndarray, tol: float) -> np.ndarray:
    """Per-matrix verdict of building the spec and calling :func:`feasible` on a stack of r.

    ``r`` has shape (N, 2, m).  A matrix passes when both rows sum to at
    most 1 (strictly below 1 for a joint problem with alpha*beta != 0, which
    ``MachineSpec`` would reject), so both diagonal entries are nonnegative,
    and its closed-form determinant with optimal probe overlaps is >= -tol.
    """
    r1, r2, s, t = ray_terms(prob.kind, prob.alpha, prob.beta, r)
    ok = (r1 < 1.0) & (r2 < 1.0) if _strict_sum(prob) else (r1 <= 1.0) & (r2 <= 1.0)
    return ok & (closed_form_det(r1, r2, s, t) >= -tol)


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
    overlaps in the open interior.
    """
    symmetric = abs(priors[0] - priors[1]) <= 1e-12
    joint = optimize(OptimizationProblem("joint", alpha, beta, m, priors, symmetric))
    ncm = optimize(OptimizationProblem("ncm", alpha, None, m, priors, symmetric))
    return joint.value, ncm.value, joint.value - ncm.value


def discrimination_convergence(alpha_abs: float, beta_abs: float, m_max: int) -> list[tuple[int, float]]:
    """Symmetric optimum of the single-slot machine with orthogonal probe flags.

    For each depth m, only slot m is active and its probe overlap is pinned
    to zero, so a success outcome identifies the input with certainty.  The
    optimum is bounded by 1 - |alpha beta| for every m and approaches it:
    orthogonal flags let the machine discriminate first and copy second.
    """
    a, b = float(alpha_abs), float(beta_abs)
    if not (0.0 < a < 1.0 and 0.0 < b <= 1.0):
        raise ValidationError("need 0 < alpha_abs < 1 and 0 < beta_abs <= 1")
    out: list[tuple[int, float]] = []
    for m in range(1, m_max + 1):
        prob = OptimizationProblem("joint", a, b, m)
        best = _scale_limit(prob, _slot_matrix(m, m, 1.0), _row_cap(prob), probes_pinned=True)
        spec = _spec(prob, _slot_matrix(m, m, best), np.zeros(m))
        if not feasible(spec).feasible:
            raise NumericalError("single-slot optimum failed the feasibility assertion")
        out.append((m, best))
    return out


def _ptrace_last(rho: np.ndarray, d_keep: int, d_drop: int) -> np.ndarray:
    """Partial trace over the trailing factor of a (d_keep*d_drop)^2 density matrix."""
    return np.einsum("ijkj->ik", rho.reshape(d_keep, d_drop, d_keep, d_drop))


def uqcm_distance(alpha_amp: float, beta_amp: float) -> float:
    """Single-copy distance Tr[(rho_out - rho_ideal)^2] of the universal copier.

    Builds the input alpha|0> + beta|1>, applies the fixed
    state-independent copying transformation on system a, blank b, and a
    two-level machine register, traces back down to system a, and returns
    the squared distance to the ideal output.  The value is 1/18 for every
    input, which is what makes the machine universal.
    """
    a, b = complex(alpha_amp), complex(beta_amp)
    if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-9:
        raise ValidationError("input amplitudes must satisfy |alpha|^2 + |beta|^2 = 1")
    e0 = np.array([1.0, 0.0], dtype=np.complex128)
    e1 = np.array([0.0, 1.0], dtype=np.complex128)
    up, down = e0, e1
    plus = (np.kron(e1, e0) + np.kron(e0, e1)) / np.sqrt(2.0)
    out0 = np.sqrt(2.0 / 3.0) * np.kron(np.kron(e0, e0), up) + np.sqrt(1.0 / 3.0) * np.kron(plus, down)
    out1 = np.sqrt(2.0 / 3.0) * np.kron(np.kron(e1, e1), down) + np.sqrt(1.0 / 3.0) * np.kron(plus, up)
    out = a * out0 + b * out1

    rho_abx = np.outer(out, out.conj())
    rho_ab = _ptrace_last(rho_abx, 4, 2)
    rho_a = _ptrace_last(rho_ab, 2, 2)
    ideal = np.array([a, b], dtype=np.complex128)
    diff = rho_a - np.outer(ideal, ideal.conj())
    return float(np.real(np.trace(diff @ diff)))
