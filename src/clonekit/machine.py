"""Machine specifications and the Gram-feasibility theory.

A cloning machine for two nonorthogonal inputs exists exactly when its
residual Gram matrix -- the 2x2 input-overlap matrix minus the success-branch
overlap contribution -- is positive semidefinite.  For 2x2 matrices that
reduces to nonnegative diagonal entries plus a nonnegative determinant, and
when the probe overlaps are chosen optimally and the dominance premise holds,
to a single scalar inequality.

Everything is computed once, by one array-native core:
:func:`feasibility_core` validates a stack of N machines of one kind and
depth (r of shape (N, 2, m), alpha and beta per row or shared, optional
explicit probes) and returns their residual Gram matrices, determinants, reduced
slacks, dominance premises and optimal probes as arrays (a
:class:`MachineBatch`).  A :class:`MachineSpec` is a length-1 call of the
core, or one row of a larger call; :func:`feasible`,
:func:`dominance_premise` and :func:`reduced_inequality` read its row, so
building a spec is the only work they need.  Rows are independent: row i
of a stack is bit-identical to the same machine's length-1 call.
Explicit probes set on a validated batch (:meth:`MachineBatch.with_p`, of
which :meth:`MachineSpec.with_p` is a row) validate only the probes and
recompute only what depends on them, with no second core call.

Conventions: ``r`` is a 2 x m matrix of per-slot success probabilities
(row i = input i); slots are 1-based in the mathematics and map to columns
0..m-1.  ``alpha`` is the overlap of the original states, ``beta`` the
overlap of the supplementary states.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .qlinalg import DEFAULT_TOL
from .states import KINDS

# Overlap moduli this close to 1 are treated as rounding and clamped.
_CLAMP = 1e-12
_QUIET = contextlib.nullcontext()


def _onto_disk(z: np.ndarray) -> np.ndarray:
    """Entries of modulus just above 1 (a copy) put on the closed unit disk, modulus <= 1 exactly.

    Each is divided by its modulus, which can leave it 1 ulp outside; then
    both components step one ulp toward 0 until it is inside by numpy's
    modulus and by Python's (they can differ in the last bit).  So a
    clamped value is not clamped again, by the core or by
    :func:`_clamp_unit`: validation is a fixed point.
    """
    z = z / np.abs(z)
    while (over := (np.abs(z) > 1.0) | np.array([abs(v) > 1.0 for v in z.tolist()], dtype=bool)).any():
        z.real[over] = np.nextafter(z.real[over], 0.0)
        z.imag[over] = np.nextafter(z.imag[over], 0.0)
    return z


def _modulus_fault(name: str, mod: float) -> str:
    """The message for an overlap whose modulus ``mod`` is above 1 beyond the clamp, or NaN or infinite."""
    return f"{name} is non-finite" if not mod < np.inf else f"|{name}| = {mod:.12g} exceeds 1"


def _clamp_unit(z: complex, name: str) -> complex:
    z = complex(z)
    mod = abs(z)
    if not mod <= 1.0 + _CLAMP:  # NaN lands here too
        raise ValidationError(_modulus_fault(name, mod))
    if mod > 1.0:
        z = complex(_onto_disk(np.array([z]))[0])
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

    Construction is a length-1 call of :func:`feasibility_core`, which
    validates the fields and computes the residual Gram arrays at once.
    """

    kind: str
    alpha: complex
    beta: complex | None
    m: int
    r: np.ndarray
    p: np.ndarray | None = None
    _batch: "MachineBatch" = field(init=False, repr=False, compare=False)
    _row: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        batch = feasibility_core(
            self.kind, [self.alpha], None if self.beta is None or self.kind == "ncm" else [self.beta], self.m,
            np.asarray(self.r, dtype=float)[None],
            None if self.p is None else np.asarray(self.p, dtype=np.complex128)[None],
        )
        error = batch.error(0)
        if error is not None:
            raise error
        _bind(self, batch, 0)

    @property
    def sum_r(self) -> np.ndarray:
        """Per-input total success probability, shape (2,)."""
        return self.r.sum(axis=1)

    def with_p(self, p) -> "MachineSpec":
        """This machine with probe overlaps ``p`` (None: the optimal ones).

        An explicit ``p`` is the only field validated again, on the
        machine's own arrays (:meth:`MachineBatch.with_p`), with no core
        call; the result equals ``dataclasses.replace(self, p=p)`` bit for bit.
        """
        if p is None:
            return dataclasses.replace(self, p=None)
        batch = self.as_batch().with_p(np.asarray(p, dtype=np.complex128)[None])
        error = batch.error(0)
        if error is not None:
            raise error
        return batch.spec(0)

    def as_batch(self) -> "MachineBatch":
        """This machine as a length-1 :class:`MachineBatch`: its own, or its row of a larger one."""
        return self._batch if len(self._batch) == 1 else self._batch.row(self._row)


def _bind(spec: MachineSpec, batch: "MachineBatch", i: int) -> None:
    """Point the fields of ``spec`` at row i of a validated batch."""
    set_ = object.__setattr__
    set_(spec, "kind", batch.kind)
    set_(spec, "alpha", complex(batch.alpha[i]))
    set_(spec, "beta", None if batch.beta is None else complex(batch.beta[i]))
    set_(spec, "m", batch.m)
    set_(spec, "r", batch.r[i])
    set_(spec, "p", None if batch.p is None else batch.p[i])
    set_(spec, "_batch", batch)
    set_(spec, "_row", i)


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


# Per-row validation faults of the core, in the order MachineSpec checks them.
_OK, _KIND, _DEPTH, _ALPHA, _NO_BETA, _BETA, _SHAPE, _NONFINITE, _RANGE, _SUM, _STRICT, _P_SHAPE, _P_DISK = range(13)
# Per-row arrays the core computes once the stack is well formed.
_ARRAYS = ("sums", "amps", "diag", "det", "lhs", "rhs", "premise")


class MachineBatch:
    """N machines of one kind and depth with their residual-Gram arrays.

    Fields, all read-only:

    kind, m
        The kind and copy depth shared by every row.
    alpha, beta
        (N,) complex overlaps, clamped to the unit disk; beta is None for ncm.
    r
        (N, 2, m) success probabilities, clipped to [0, 1].
    p
        (N, m) explicit probe overlaps, clamped; None when the optimal
        ones are used.
    fault
        (N,) each row's first validation failure, 0 for a valid row;
        :meth:`error` turns it into the message ``MachineSpec`` raises.
    sums, amps, diag, det, off
        (N, 2) row sums of r; (N, m) sqrt(r_1k r_2k); (N, 2) residual
        diagonal 1 - sums; (N,) residual determinant and off-diagonal.
    lhs, rhs, premise
        (N,) the reduced inequality's sides (square root of the failure
        weights; |T| minus the success-branch sum) and the dominance premise.
    p_opt, p_used
        (N, m) optimal probe overlaps, and the probes of the residual (p,
        else p_opt).

    With optimal probes the verdict needs only the off-diagonal's modulus,
    so ``off`` (then T scaled to modulus max(0, |T| - S)) and ``p_opt``
    are computed for the whole batch when a report first asks for them.

    The arrays from ``sums`` on are computed for every row once the whole
    stack has the right shapes; they are meaningless on faulted rows, and
    None when a fault of the whole call (kind, depth, missing beta, shape)
    stopped the core early.  A plain slotted class rather than a dataclass:
    it is built on every core call and defined at every import.
    """

    __slots__ = ("kind", "m", "alpha", "beta", "r", "p", "fault", *_ARRAYS, "_off", "_p_opt")

    def __init__(self, kind: str, m: int, alpha, beta, r, p, fault, sums=None, amps=None, diag=None, det=None,
                 off=None, lhs=None, rhs=None, premise=None):
        self.kind, self.m, self.alpha, self.beta, self.r, self.p, self.fault = kind, m, alpha, beta, r, p, fault
        self.sums, self.amps, self.diag, self.det, self._off = sums, amps, diag, det, off
        self.lhs, self.rhs, self.premise, self._p_opt = lhs, rhs, premise, None

    @property
    def off(self) -> np.ndarray:
        if self._off is None:  # optimal probes: T scaled to modulus max(0, |T| - S)
            with _silent_faults(self.fault):
                t = _target(self.kind, self.alpha, self.beta)
                gap = np.maximum(self.rhs, 0.0)
                positive = gap > 0.0  # then |T| > S >= 0
                self._off = np.where(positive, t * (gap / np.where(positive, np.abs(t), 1.0)), 0.0j)
        return self._off

    @property
    def p_opt(self) -> np.ndarray:
        if self._p_opt is None:
            with _silent_faults(self.fault):
                self._p_opt = _optimal_probes(_target(self.kind, self.alpha, self.beta),
                                              _slot_couplings(self.kind, self.alpha, self.amps))
            self._p_opt.setflags(write=False)
        return self._p_opt

    @property
    def p_used(self) -> np.ndarray:
        return self.p_opt if self.p is None else self.p

    def __len__(self) -> int:
        return len(self.fault)

    def error(self, i: int) -> ValidationError | None:
        """The ValidationError ``MachineSpec`` raises for row i, or None for a valid row."""
        code = self.fault[i]
        if code == _OK:
            return None
        if code == _KIND:
            msg = f"unknown machine kind {self.kind!r}"
        elif code == _DEPTH:
            msg = "copy depth m must be >= 1"
        elif code == _ALPHA:
            msg = _modulus_fault("alpha", float(abs(self.alpha[i])))
        elif code == _NO_BETA:
            msg = f"kind {self.kind!r} requires beta"
        elif code == _BETA:
            msg = _modulus_fault("beta", float(abs(self.beta[i])))
        elif code == _SHAPE:
            msg = f"r must have shape (2, {self.m}), got {self.r.shape[1:]}"
        elif code == _NONFINITE:
            msg = "r has non-finite entries"
        elif code == _RANGE:
            msg = "success probabilities must lie in [0, 1]"
        elif code == _SUM:
            msg = f"per-input success probabilities sum to {float(self.r[i].sum(axis=1).max()):.12g} > 1"
        elif code == _STRICT:
            msg = "a joint machine with nonzero alpha*beta cannot have total success 1"
        elif code == _P_SHAPE:
            msg = f"p must have shape ({self.m},), got {self.p.shape[1:]}"
        elif np.isfinite(self.p[i]).all():
            msg = "probe overlaps must lie on the closed unit disk"
        else:
            msg = "p has non-finite entries"
        return ValidationError(msg)

    def verdict(self, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Per-row PSD verdict: both diagonal entries and the determinant >= -tol."""
        return (self.diag[:, 0] >= -tol) & (self.diag[:, 1] >= -tol) & (self.det >= -tol)

    def row(self, i: int) -> "MachineBatch":
        """Row i as a length-1 batch: every array sliced, nothing validated or computed again."""
        def cut(x):
            return None if x is None else x[i:i + 1]

        batch = MachineBatch(self.kind, self.m, cut(self.alpha), cut(self.beta), cut(self.r), cut(self.p),
                             cut(self.fault), cut(self.sums), cut(self.amps), cut(self.diag), cut(self.det),
                             cut(self._off), cut(self.lhs), cut(self.rhs), cut(self.premise))
        batch._p_opt = cut(self._p_opt)
        return batch

    def with_p(self, p) -> "MachineBatch":
        """These machines with explicit probe overlaps ``p`` of shape (N, m): only ``p`` is validated.

        Equal, array for array, to a core call on the batch's fields with
        ``p``: its shape, the disk and the clamp are checked as the core
        checks them, after each row's own faults; ``off`` and ``det``, which
        depend on p, are computed again by the core's own helper, and every
        other array is shared.  A batch that a fault of the whole call
        stopped early goes through the core again.
        """
        if self.det is None:
            return feasibility_core(self.kind, self.alpha, self.beta, self.m, self.r, p)
        fault = self.fault.copy()
        if self.p is not None:  # the old probes' faults go with them
            fault[fault >= _P_SHAPE] = _OK
        p, shaped = _checked_probes(p, fault, self.m)
        if not shaped:
            _flag(fault, True, _P_SHAPE)
            return MachineBatch(self.kind, self.m, self.alpha, self.beta, self.r, p, fault)
        with _silent_faults(fault):
            off, det = _probe_residual(_target(self.kind, self.alpha, self.beta),
                                       _slot_couplings(self.kind, self.alpha, self.amps), self.diag, p)
        batch = MachineBatch(self.kind, self.m, self.alpha, self.beta, self.r, p, fault, self.sums, self.amps,
                             self.diag, det, off, self.lhs, self.rhs, self.premise)
        batch._p_opt = self._p_opt
        return batch

    def spec(self, i: int) -> MachineSpec:
        """Row i as a MachineSpec, without validating it again."""
        spec = object.__new__(MachineSpec)
        _bind(spec, self, i)
        return spec

    def report_scalars(self, tol: float = DEFAULT_TOL) -> dict:
        """The scalar :class:`FeasibilityReport` fields of every row, one array each.

        Faulted rows are included and their values are meaningless; a row's
        validation error is :meth:`error`'s.  ``lhs`` is finite or NaN, so
        ``lhs - rhs`` raises no new warning.
        """
        return {
            "det": self.det,
            "slack": self.lhs - self.rhs,
            "feasible": self.verdict(tol),
            "reduced_applicable": self.premise if self.p is None else np.zeros_like(self.premise),
        }

    def report(self, i: int, tol: float = DEFAULT_TOL) -> FeasibilityReport:
        """Row i as the report :func:`feasible` returns."""
        diag = self.diag[i]
        det = float(self.det[i])
        off = self.off[i]
        residual = np.array([[diag[0], off], [np.conj(off), diag[1]]], dtype=np.complex128)
        return FeasibilityReport(
            residual=residual,
            det=det,
            slack=float(self.lhs[i] - self.rhs[i]),
            feasible=bool(diag[0] >= -tol and diag[1] >= -tol and det >= -tol),
            reduced_applicable=bool(self.premise[i]) and self.p is None,
            p_used=self.p_used[i],
        )


@functools.lru_cache(maxsize=64)
def _overlap_powers(kind: str, m: int) -> np.ndarray:
    """Power of alpha carried by slots 1..m: k for supplementary, k + 1 otherwise (read-only)."""
    ks = np.arange(1, m + 1) if kind == "supplementary" else np.arange(2, m + 2)
    ks.setflags(write=False)
    return ks


def _silent_faults(fault: np.ndarray):
    """A context that hides numpy's warnings when some rows are faulted: they may overflow or hold NaN."""
    return np.errstate(all="ignore") if fault.any() else _QUIET


def _target(kind: str, alpha, beta):
    """Input overlap the residual off-diagonal starts from (scalars or arrays)."""
    if kind == "joint":
        return alpha * beta
    return alpha if kind == "ncm" else beta


def _flag(fault: np.ndarray, mask, code: int) -> None:
    """Record ``code`` on the rows of ``mask`` that have no fault yet."""
    fault[(fault == _OK) & mask] = code


def _beyond_one(mods: np.ndarray) -> bool:
    """Whether some modulus is above 1 or NaN: one NaN-propagating reduction, as the core's r check."""
    return not np.maximum.reduce(mods, axis=None, initial=0.0) <= 1.0


def _checked_probes(p, fault: np.ndarray, m: int) -> tuple:
    """Explicit probes validated as the core validates them, after every other check of a row.

    Returns (p, True): p as a read-only (N, m) complex array, its rows off
    the closed unit disk or non-finite faulted in ``fault``, and moduli
    within the clamp of 1 put on the disk.  A p of another shape returns
    (p, False) and faults nothing: that is a fault of the whole call.
    """
    p = np.array(p, dtype=np.complex128)  # a copy: freezing it leaves the caller's array writable
    if p.shape != (len(fault), m):
        return p, False
    mods = np.abs(p)
    if _beyond_one(mods):
        _flag(fault, ~(mods <= 1.0 + _CLAMP).all(axis=1), _P_DISK)
        p = _clamp_rows(p, mods)
    p.setflags(write=False)
    return p, True


def _probe_residual(t: np.ndarray, c: np.ndarray, diag: np.ndarray, p: np.ndarray) -> tuple:
    """(off, det) of the residuals with explicit probes: off = T - sum_k c_k p_k, det = d1 d2 - |off|^2."""
    off = t - (c * p).sum(axis=-1)
    return off, diag[:, 0] * diag[:, 1] - np.abs(off) ** 2


def _clamp_rows(z: np.ndarray, mods: np.ndarray) -> np.ndarray:
    """Moduli within _CLAMP above 1 put on the unit disk by :func:`_onto_disk`; larger ones left for the fault check."""
    fix = (mods > 1.0) & (mods <= 1.0 + _CLAMP)
    z = z.copy()
    z[fix] = _onto_disk(z[fix])
    return z


def _slot_couplings(kind: str, alpha: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """c_k = sqrt(r_1k r_2k) alpha^pow_k per row: the residual off-diagonal is T - sum_k c_k p_k."""
    return amps * alpha[:, None] ** _overlap_powers(kind, amps.shape[-1])


def _optimal_probes(t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Probe overlaps minimizing |T - sum_k c_k p_k| per row; see :func:`optimal_probe_overlaps`."""
    phase = np.exp(1j * (np.arctan2(t.imag, t.real)[:, None] - np.arctan2(c.imag, c.real)))
    absc = np.abs(c)
    nz = absc > 0.0
    t_abs = np.abs(t)
    partial = t_abs < absc.sum(axis=-1)
    if np.logical_or.reduce(partial):
        scale = np.empty_like(absc)
        remaining = t_abs
        with np.errstate(divide="ignore", invalid="ignore"):
            for k in range(c.shape[1]):
                take = np.minimum(absc[:, k], remaining)
                remaining = np.where(nz[:, k], remaining - take, remaining)
                scale[:, k] = take / absc[:, k]
        phase = np.where(partial[:, None], scale * phase, phase)
    return np.where(nz, phase, 1.0 + 0.0j)


def feasibility_core(kind: str, alpha, beta, m: int, r, p=None) -> MachineBatch:
    """Validate and solve a stack of N machines of one kind and depth in one array pass.

    ``alpha`` (and ``beta`` unless None) hold one overlap per row, or one
    for every row, ``r`` has shape (N, 2, m) and ``p``, when given, (N, m).  Each row is checked
    as ``MachineSpec`` checks one machine, in the same order; its first
    failure is recorded in ``fault`` rather than raised, so one bad row
    leaves the others' answers intact.  For every row the core forms the
    residual Gram matrix with the given probes (or, when ``p`` is None,
    with the optimal ones, whose off-diagonal has the closed-form modulus
    max(0, |T| - S)), its determinant and diagonal, the two sides of the
    reduced inequality and the dominance premise.  Each check first runs
    over the whole stack and looks at single rows only when it fails
    somewhere.
    """
    r = np.asarray(r, dtype=float)
    n = r.shape[0]
    fault = np.zeros(n, dtype=np.int8)

    def per_row(x):  # one overlap given for every row is broadcast, not copied
        return np.broadcast_to(x, (n,)) if isinstance(x, np.ndarray) and x.shape != (n,) else x

    def stopped(code, beta=None, p=None):
        _flag(fault, True, code)
        return MachineBatch(kind, m, per_row(alpha), per_row(beta), r, p, fault)

    if kind not in KINDS:
        return stopped(_KIND)
    if m < 1:
        return stopped(_DEPTH)
    alpha = np.array(alpha, dtype=np.complex128, ndmin=1)
    alpha_abs = np.abs(alpha)
    if _beyond_one(alpha_abs):
        _flag(fault, ~(alpha_abs <= 1.0 + _CLAMP), _ALPHA)
        alpha = _clamp_rows(alpha, alpha_abs)
        alpha_abs = np.abs(alpha)
    if kind == "ncm":
        beta = None
    elif beta is None:
        return stopped(_NO_BETA)
    else:
        beta = np.array(beta, dtype=np.complex128, ndmin=1)
        beta_abs = np.abs(beta)
        if _beyond_one(beta_abs):
            _flag(fault, ~(beta_abs <= 1.0 + _CLAMP), _BETA)
            beta = _clamp_rows(beta, beta_abs)
    if r.shape != (n, 2, m):
        return stopped(_SHAPE, beta=beta)
    if not (np.minimum.reduce(r, axis=None, initial=0.0) >= -_CLAMP
            and np.maximum.reduce(r, axis=None, initial=0.0) <= 1.0 + _CLAMP):  # NaN lands here too
        _flag(fault, ~np.isfinite(r).all(axis=(1, 2)), _NONFINITE)
        _flag(fault, ((r < -_CLAMP) | (r > 1.0 + _CLAMP)).any(axis=(1, 2)), _RANGE)
    r = r.clip(0.0, 1.0)
    sums = r.sum(axis=-1)
    largest = np.fmax.reduce(sums, axis=None, initial=-np.inf)  # NaN ignored: a NaN row is faulted above
    if largest > 1.0 + _CLAMP:
        _flag(fault, (sums > 1.0 + _CLAMP).any(axis=1), _SUM)
    if kind == "joint" and largest >= 1.0:
        _flag(fault, (np.abs(alpha * beta) > 0.0) & (sums >= 1.0).any(axis=1), _STRICT)
    r.setflags(write=False)
    if p is not None:
        p, shaped = _checked_probes(p, fault, m)
        if not shaped:
            return stopped(_P_SHAPE, beta=beta, p=p)

    with _silent_faults(fault):
        t = _target(kind, alpha, beta)
        t_abs = np.abs(t)
        amps = np.sqrt(r[:, 0] * r[:, 1])
        # S = sum_k |c_k|: the most the success branches can cancel of T.
        total = (amps * alpha_abs[:, None] ** _overlap_powers(kind, m)).sum(axis=-1)
        rhs = t_abs - total
        diag = 1.0 - sums
        if p is None:
            # Optimal probes align every c_k p_k with T until the sum meets it,
            # so the off-diagonal has modulus max(0, |T| - S); its value waits
            # for a report (MachineBatch.off).
            off = None
            det = diag[:, 0] * diag[:, 1] - np.maximum(rhs, 0.0) ** 2
        else:
            off, det = _probe_residual(t, _slot_couplings(kind, alpha, amps), diag, p)
        failure = np.maximum(diag, 0.0)
        lhs = np.sqrt(failure[:, 0] * failure[:, 1])
        lead = 1.0 if kind == "ncm" else np.abs(beta)
        premise = lead - (amps * alpha_abs[:, None] ** _overlap_powers("supplementary", m)).sum(axis=-1) > 0.0
    return MachineBatch(kind, m, per_row(alpha), per_row(beta), r, p, fault, sums=sums, amps=amps, diag=diag, det=det, off=off, lhs=lhs,
                        rhs=rhs, premise=premise)


def dominance_premise(spec: MachineSpec) -> bool:
    """True when the reduced inequality is equivalent to the determinant test."""
    return bool(spec._batch.premise[spec._row])


def optimal_probe_overlaps(spec: MachineSpec) -> np.ndarray:
    """Probe overlaps minimizing the residual off-diagonal magnitude.

    The off-diagonal is T - sum_k c_k p_k with each p_k free on the closed
    unit disk, so the attainable minimum of its magnitude is
    max(0, |T| - sum_k |c_k|).  When |T| covers the sum the choice is the
    unit-modulus phase alignment of every c_k p_k with T; otherwise the
    slots are filled greedily, in index order, until the sum meets T
    exactly (some moduli then drop below 1).  Slots with c_k = 0 get 1.
    """
    return spec._batch.p_opt[spec._row].copy()


def residual_gram(spec: MachineSpec) -> np.ndarray:
    """Residual 2x2 Gram matrix for the spec's own probe overlaps.

    Diagonal entries are 1 minus the per-input total success probability;
    the off-diagonal is the input overlap target minus the success-branch
    contribution sum_k sqrt(r_k1 r_k2) alpha^pow p_k.
    """
    if spec.p is None:
        raise ValidationError("residual_gram requires explicit probe overlaps p")
    return feasible(spec).residual


def feasible(spec: MachineSpec, tol: float = DEFAULT_TOL) -> FeasibilityReport:
    """Determinant-route feasibility verdict.

    Uses the spec's probe overlaps when present, otherwise the optimal
    ones.  ``reduced_applicable`` is set only when the dominance premise
    holds and the optimal overlaps were substituted, in which case the
    verdict agrees with the sign of the reduced inequality.
    """
    return spec._batch.report(spec._row, tol)


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
    lhs, rhs = float(spec._batch.lhs[spec._row]), float(spec._batch.rhs[spec._row])
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


def ray_terms(kind: str, alpha, beta, r) -> tuple:
    """(R1, R2, S, |T|) of machines r, which may carry leading batch axes (..., 2, m).

    R_i are the row sums, S = sum_k sqrt(r_1k r_2k) |alpha|^pow_k is the most
    the success branches can cancel of the off-diagonal, and |T| the modulus
    of the kind's target overlap.  Along x * r, R1, R2 and S scale by x and
    |T| stays fixed.  ``alpha`` and ``beta`` are scalars or arrays that
    broadcast against the batch axes of r.
    """
    if kind not in KINDS:
        raise ValidationError(f"unknown machine kind {kind!r}")
    r = np.asarray(r, dtype=float)
    alpha = np.asarray(alpha)
    beta = None if beta is None else np.asarray(beta)
    weights = np.abs(alpha)[..., None] ** _overlap_powers(kind, r.shape[-1])
    s = (np.sqrt(r[..., 0, :] * r[..., 1, :]) * weights).sum(axis=-1)
    return r[..., 0, :].sum(axis=-1), r[..., 1, :].sum(axis=-1), s, np.abs(_target(kind, alpha, beta))


def _stable_roots(qa, half_b, qc, disc):
    """Real roots (lo, hi) of qa x^2 + 2 half_b x + qc over arrays; NaN where there are none.

    ``disc`` is the quarter discriminant half_b^2 - qa qc, which the caller
    supplies in whatever form does not cancel.  Cancellation-free
    (citardauq) form: q = -(half_b + sign(half_b) sqrt(disc)), roots q / qa
    and qc / q, so neither root loses digits when qa qc is small against
    half_b^2.  qa = 0 leaves the linear root -qc / (2 half_b) and an
    infinite one.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -(half_b + np.copysign(np.sqrt(disc), half_b))
        x1, x2 = q / qa, qc / q
    return np.fmin(x1, x2), np.fmax(x1, x2)


def ray_limit(r1, r2, s, t, cap=np.inf):
    """Largest x in [0, cap] at which x * r passes both diagonal tests and the determinant test.

    Arguments are the :func:`ray_terms` of the direction r and broadcast
    against each other.  The limit is the smallest root of the ray quadratic
    in [0, |T|/S) when there is one; otherwise the determinant stays
    nonnegative until the diagonal limit 1/max(R1, R2).  Scalar arguments
    run as a length-1 call and return a float.

    With mean = (R1 + R2)/2 and half = (R1 - R2)/2 the quadratic's
    coefficients are (mean - S)(mean + S) - half^2, |T| S - mean and
    (1 - |T|)(1 + |T|), and its quarter discriminant is the sum of squares
    (mean |T| - S)^2 + half^2 (1 - |T|^2): it cannot cancel, so a double
    root keeps every digit.
    """
    scalar = all(np.ndim(v) == 0 for v in (r1, r2, s, t, cap))
    r1, r2, s, t = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (r1, r2, s, t))
    mean, half = 0.5 * (r1 + r2), 0.5 * (r1 - r2)
    one_minus_t2 = (1.0 - t) * (1.0 + t)
    lo, _ = _stable_roots((mean - s) * (mean + s) - half * half, t * s - mean, one_minus_t2,
                          (mean * t - s) ** 2 + half * half * one_minus_t2)
    with np.errstate(divide="ignore", invalid="ignore"):
        kink = t / s  # inf for S = 0 < |T|; NaN for S = |T| = 0, where only the diagonal binds
        diag = 1.0 / np.maximum(r1, r2)
    limit = np.minimum(np.where((lo >= 0.0) & (lo < kink), lo, diag), cap)
    return float(limit[0]) if scalar else limit
