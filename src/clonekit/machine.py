"""Machine specifications and the Gram-feasibility theory.

A cloning machine for two nonorthogonal inputs exists exactly when its
residual Gram matrix -- the 2x2 input-overlap matrix minus the success-branch
overlap contribution -- is positive semidefinite.  For 2x2 matrices that
reduces to nonnegative diagonal entries plus a nonnegative determinant, and
when the probe overlaps are chosen optimally and the dominance premise holds,
to a single scalar inequality.

Conventions: ``r`` is a 2 x m matrix of per-slot success probabilities
(row i = input i); slots are 1-based in the mathematics and map to columns
0..m-1.  ``alpha`` is the overlap of the original states, ``beta`` the
overlap of the supplementary states.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .qlinalg import DEFAULT_TOL, psd2_check
from .states import KINDS

# Overlap moduli this close to 1 are treated as rounding and clamped.
_CLAMP = 1e-12


def _clamp_unit(z: complex, name: str) -> complex:
    z = complex(z)
    mod = abs(z)
    if mod > 1.0 + _CLAMP:
        raise ValidationError(f"|{name}| = {mod:.12g} exceeds 1")
    if mod > 1.0:
        z = z / mod
    return z


@dataclass(frozen=True)
class MachineSpec:
    """Parameters of one cloning machine.

    kind
        "joint" (original plus supplementary input), "ncm" (original only),
        or "supplementary" (supplementary only).
    alpha, beta
        Input overlaps; ``beta`` is required for joint/supplementary kinds
        and ignored for ncm.
    m
        Copy depth (number of success slots).
    r
        2 x m success probabilities.  Row sums must stay within [0, 1]; a
        joint machine with nonzero alpha*beta must keep them strictly
        below 1.
    p
        Optional per-slot probe overlaps on the closed unit disk.  When
        omitted, feasibility queries substitute the optimal choice.
    """

    kind: str
    alpha: complex
    beta: complex | None
    m: int
    r: np.ndarray
    p: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown machine kind {self.kind!r}")
        if self.m < 1:
            raise ValidationError("copy depth m must be >= 1")

        alpha = _clamp_unit(self.alpha, "alpha")
        if self.kind == "ncm":
            beta = None
        else:
            if self.beta is None:
                raise ValidationError(f"kind {self.kind!r} requires beta")
            beta = _clamp_unit(self.beta, "beta")

        r = np.asarray(self.r, dtype=float)
        if r.shape != (2, self.m):
            raise ValidationError(f"r must have shape (2, {self.m}), got {r.shape}")
        if not np.all(np.isfinite(r)):
            raise ValidationError("r has non-finite entries")
        if np.any(r < -_CLAMP) or np.any(r > 1.0 + _CLAMP):
            raise ValidationError("success probabilities must lie in [0, 1]")
        r = np.clip(r, 0.0, 1.0)
        sums = r.sum(axis=1)
        if np.any(sums > 1.0 + _CLAMP):
            raise ValidationError(f"per-input success probabilities sum to {sums.max():.12g} > 1")
        if self.kind == "joint" and abs(alpha * beta) > 0.0 and np.any(sums >= 1.0):
            raise ValidationError(
                "a joint machine with nonzero alpha*beta cannot have total success 1"
            )
        r.setflags(write=False)

        p = self.p
        if p is not None:
            p = np.asarray(p, dtype=np.complex128)
            if p.shape != (self.m,):
                raise ValidationError(f"p must have shape ({self.m},), got {p.shape}")
            mods = np.abs(p)
            if np.any(mods > 1.0 + _CLAMP):
                raise ValidationError("probe overlaps must lie on the closed unit disk")
            over = mods > 1.0
            if np.any(over):
                p = p.copy()
                p[over] /= mods[over]
            p.setflags(write=False)

        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "p", p)

    @property
    def sum_r(self) -> np.ndarray:
        """Per-input total success probability, shape (2,)."""
        return self.r.sum(axis=1)

    def with_p(self, p) -> "MachineSpec":
        return dataclasses.replace(self, p=p)


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a feasibility query.

    ``slack`` is the value of the governing reduced inequality's left side
    (square-root product minus overlap target plus the success sum); it is
    meaningful as a verdict only when ``reduced_applicable`` is True.
    """

    residual: np.ndarray
    det: float
    slack: float
    feasible: bool
    reduced_applicable: bool
    p_used: np.ndarray


def _overlap_powers(kind: str, m: int) -> np.ndarray:
    """Power of alpha carried by slots 1..m: k for supplementary, k + 1 otherwise."""
    ks = np.arange(1, m + 1)
    return ks if kind == "supplementary" else ks + 1


def _target(kind: str, alpha: complex, beta: complex | None) -> complex:
    """Input overlap the residual off-diagonal starts from."""
    if kind == "joint":
        return alpha * beta
    return alpha if kind == "ncm" else beta


def _off_diag_terms(spec: MachineSpec) -> tuple[complex, np.ndarray]:
    """Target overlap T and per-slot coefficients c with off-diag = T - sum c_k p_k."""
    amps = np.sqrt(spec.r[0] * spec.r[1])
    c = amps * spec.alpha ** _overlap_powers(spec.kind, spec.m)
    return complex(_target(spec.kind, spec.alpha, spec.beta)), c


def _dominance_margin(spec: MachineSpec) -> float:
    """Left-minus-right of the dominance premise for this kind."""
    amps = np.sqrt(spec.r[0] * spec.r[1])
    ks = np.arange(1, spec.m + 1)
    weighted = float(np.sum(amps * np.abs(spec.alpha) ** ks))
    lead = 1.0 if spec.kind == "ncm" else abs(spec.beta)
    return lead - weighted


def dominance_premise(spec: MachineSpec) -> bool:
    """True when the reduced inequality is equivalent to the determinant test."""
    return _dominance_margin(spec) > 0.0


def optimal_probe_overlaps(spec: MachineSpec) -> np.ndarray:
    """Probe overlaps minimizing the residual off-diagonal magnitude.

    The off-diagonal is T - sum_k c_k p_k with each p_k free on the closed
    unit disk, so the attainable minimum of its magnitude is
    max(0, |T| - sum_k |c_k|).  When |T| covers the sum the choice is the
    unit-modulus phase alignment of every c_k p_k with T; otherwise the
    slots are filled greedily, in index order, until the sum meets T
    exactly (some moduli then drop below 1).  Slots with c_k = 0 get 1.
    """
    t, c = _off_diag_terms(spec)
    absc = np.abs(c)
    total = float(absc.sum())
    arg_t = np.angle(t)
    p = np.ones(spec.m, dtype=np.complex128)
    if abs(t) >= total:
        nz = absc > 0.0
        p[nz] = np.exp(1j * (arg_t - np.angle(c[nz])))
        return p
    remaining = abs(t)
    for k in range(spec.m):
        if absc[k] == 0.0:
            continue
        take = min(absc[k], remaining)
        remaining -= take
        p[k] = (take / absc[k]) * np.exp(1j * (arg_t - np.angle(c[k])))
    return p


def _residual_with_p(spec: MachineSpec, p: np.ndarray) -> np.ndarray:
    t, c = _off_diag_terms(spec)
    off = t - complex(np.sum(c * p))
    diag = 1.0 - spec.sum_r
    return np.array([[diag[0], off], [np.conj(off), diag[1]]], dtype=np.complex128)


def residual_gram(spec: MachineSpec) -> np.ndarray:
    """Residual 2x2 Gram matrix for the spec's own probe overlaps.

    Diagonal entries are 1 minus the per-input total success probability;
    the off-diagonal is the input overlap target minus the success-branch
    contribution sum_k sqrt(r_k1 r_k2) alpha^pow p_k.
    """
    if spec.p is None:
        raise ValidationError("residual_gram requires explicit probe overlaps p")
    return _residual_with_p(spec, spec.p)


def _reduced_sides(spec: MachineSpec) -> tuple[float, float]:
    sums = spec.sum_r
    lhs = float(np.sqrt(max(1.0 - sums[0], 0.0) * max(1.0 - sums[1], 0.0)))
    t, c = _off_diag_terms(spec)
    rhs = abs(t) - float(np.abs(c).sum())
    return lhs, rhs


def feasible(spec: MachineSpec, tol: float = DEFAULT_TOL) -> FeasibilityReport:
    """Determinant-route feasibility verdict.

    Uses the spec's probe overlaps when present, otherwise the optimal
    ones.  ``reduced_applicable`` is set only when the dominance premise
    holds and the optimal overlaps were substituted, in which case the
    verdict agrees with the sign of the reduced inequality.
    """
    p_used = spec.p if spec.p is not None else optimal_probe_overlaps(spec)
    residual = _residual_with_p(spec, p_used)
    det, verdict = psd2_check(residual, tol)
    lhs, rhs = _reduced_sides(spec)
    return FeasibilityReport(
        residual=residual,
        det=det,
        slack=lhs - rhs,
        feasible=verdict,
        reduced_applicable=dominance_premise(spec) and spec.p is None,
        p_used=p_used,
    )


def reduced_inequality(spec: MachineSpec) -> tuple[float, float, bool]:
    """Scalar form of the feasibility condition under the dominance premise.

    Returns (lhs, rhs, holds) with lhs the square-root product of the
    failure totals and rhs the overlap target minus the success sum; the
    machine is feasible (with optimal probe overlaps) iff lhs >= rhs.
    Raises when the premise does not hold, since the equivalence then
    breaks and the caller must use :func:`feasible`.
    """
    if not dominance_premise(spec):
        raise ValidationError("dominance premise violated; use feasible() instead")
    lhs, rhs = _reduced_sides(spec)
    return lhs, rhs, lhs >= rhs


# ---------------------------------------------------------------------------
# closed-form boundary kernel
#
# With optimal probe overlaps the off-diagonal modulus is max(0, |T| - S),
# S = sum_k sqrt(r_1k r_2k) |alpha|^pow_k, so the determinant of the machines
# x * r along a ray is (1 - x R1)(1 - x R2) - max(0, |T| - x S)^2.  Below the
# kink |T|/S that is the quadratic
#
#     (R1 R2 - S^2) x^2 - (R1 + R2 - 2 |T| S) x + (1 - |T|^2),
#
# convex (S^2 <= R1 R2 by Cauchy-Schwarz) and nonnegative at x = 0.  The
# feasible x form one interval from 0 (the test is sqrt((1 - x R1)(1 - x R2)),
# a concave function, against |T| - x S, an affine one), so every ray
# boundary is an exact root.


def ray_terms(kind: str, alpha: complex, beta: complex | None, r) -> tuple:
    """(R1, R2, S, |T|) of machines r, which may carry leading batch axes (..., 2, m).

    R_i are the row sums, S = sum_k sqrt(r_1k r_2k) |alpha|^pow_k is the most
    the success branches can cancel of the off-diagonal, and |T| the modulus
    of the kind's target overlap.  Along x * r, R1, R2 and S scale by x and
    |T| stays fixed.
    """
    if kind not in KINDS:
        raise ValidationError(f"unknown machine kind {kind!r}")
    r = np.asarray(r, dtype=float)
    weights = abs(alpha) ** _overlap_powers(kind, r.shape[-1])
    s = (np.sqrt(r[..., 0, :] * r[..., 1, :]) * weights).sum(axis=-1)
    return r[..., 0, :].sum(axis=-1), r[..., 1, :].sum(axis=-1), s, abs(_target(kind, alpha, beta))


def closed_form_det(r1, r2, s, t):
    """Residual determinant (1 - R1)(1 - R2) - max(0, |T| - S)^2 with optimal probes."""
    return (1.0 - r1) * (1.0 - r2) - np.maximum(0.0, t - s) ** 2


def _stable_roots(qa, qb, qc):
    """Real roots (lo, hi) of qa x^2 + qb x + qc over arrays; NaN where there are none.

    Cancellation-free (citardauq) form: q = -(qb + sign(qb) sqrt(disc)) / 2,
    roots q / qa and qc / q, so neither root loses digits when 4 qa qc is
    small against qb^2.  qa = 0 leaves the linear root qc / q = -qc / qb and
    an infinite one.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4.0 * qa * qc), qb))
        x1, x2 = q / qa, qc / q
    return np.fmin(x1, x2), np.fmax(x1, x2)


def ray_limit(r1, r2, s, t, cap=np.inf):
    """Largest x in [0, cap] at which x * r passes both diagonal tests and the determinant test.

    Arguments are the :func:`ray_terms` of the direction r and broadcast
    against each other.  The limit is the smallest root of the ray quadratic
    in [0, |T|/S) when there is one; otherwise the determinant stays
    nonnegative until the diagonal limit 1/max(R1, R2).  Scalar arguments
    run as a length-1 call and return a float.
    """
    scalar = all(np.ndim(v) == 0 for v in (r1, r2, s, t, cap))
    r1, r2, s, t = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (r1, r2, s, t))
    lo, _ = _stable_roots(r1 * r2 - s * s, 2.0 * t * s - r1 - r2, 1.0 - t * t)
    with np.errstate(divide="ignore", invalid="ignore"):
        kink = t / s  # inf for S = 0 < |T|; NaN for S = |T| = 0, where only the diagonal binds
        diag = 1.0 / np.maximum(r1, r2)
    limit = np.minimum(np.where((lo >= 0.0) & (lo < kink), lo, diag), cap)
    return float(limit[0]) if scalar else limit
