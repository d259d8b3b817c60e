"""Pure states, tensor powers, and the fixed Hilbert-space layout of a machine.

A cloning machine acts on two registers: a copy register AB made of m+1
qubits and a probing register P of dimension 2m+3.  The probe basis is
partitioned once and for all:

    index 0            ready state, occupied before the machine runs
    indices 2k-1, 2k   slot k (k = 1..m), flagging the k-th success branch
    indices 2m+1, 2m+2 failure subspace

Slot subspaces are mutually orthogonal by construction, which is what makes
the post-selection measurement projective and slot-separating.  The blank
qubit state is fixed to |0>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .qlinalg import DEFAULT_TOL, as_cvector, inner, kron_vectors

KINDS = ("joint", "ncm", "supplementary")


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        vec = as_cvector(self.amplitudes)
        nrm = np.linalg.norm(vec)
        if abs(nrm - 1.0) > 1e-6:
            raise ValidationError(f"state is not normalized (norm {nrm:.6g})")
        vec = vec / nrm
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


def basis_state(dim: int, index: int) -> PureState:
    vec = np.zeros(dim, dtype=np.complex128)
    vec[index] = 1.0
    return PureState(vec)


def qubit(a0: complex, a1: complex) -> PureState:
    return PureState(np.array([a0, a1], dtype=np.complex128))


def canonical_pair(target_overlap: complex) -> tuple[PureState, PureState]:
    """Qubit pair (s1, s2) with <s1|s2> equal to ``target_overlap`` exactly."""
    ov = complex(target_overlap)
    if abs(ov) > 1.0 + 1e-12:
        raise ValidationError(f"|overlap| = {abs(ov):.6g} exceeds 1")
    mod = min(abs(ov), 1.0)
    s1 = qubit(1.0, 0.0)
    s2 = qubit(ov, np.sqrt(max(1.0 - mod * mod, 0.0)))
    return s1, s2


def overlap(a: PureState, b: PureState) -> complex:
    """<a|b> for two states of equal dimension."""
    return inner(a.amplitudes, b.amplitudes)


def tensor_power(s: PureState, n: int) -> PureState:
    """n-fold Kronecker power; overlaps obey <a|b>^n."""
    if n < 1:
        raise ValidationError("tensor power requires n >= 1")
    return PureState(kron_vectors(*[s.amplitudes] * n))


@dataclass(frozen=True)
class SpaceLayout:
    """Register layout for copy depth m: AB has m+1 qubits, P has 2m+3 levels."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValidationError("copy depth m must be >= 1")

    @property
    def ab_dim(self) -> int:
        return 2 ** (self.m + 1)

    @property
    def probe_dim(self) -> int:
        return 2 * self.m + 3

    @property
    def total_dim(self) -> int:
        return self.ab_dim * self.probe_dim

    def pad_stride(self, head_dim: int) -> int:
        """AB index step of head (x) blank^j, a head on the first qubits padded to m+1.

        The blank is |0>, so head[t] sits at index t * stride and every
        other entry is zero: a strided write replaces j Kronecker factors.
        """
        return self.ab_dim // head_dim

    def slot_indices(self, k: int) -> tuple[int, int]:
        """Probe basis indices owned by success slot k (1-based)."""
        if not 1 <= k <= self.m:
            raise ValidationError(f"slot {k} out of range 1..{self.m}")
        return 2 * k - 1, 2 * k

    @property
    def failure_indices(self) -> tuple[int, int]:
        return 2 * self.m + 1, 2 * self.m + 2

    def ready_probe(self) -> np.ndarray:
        vec = np.zeros(self.probe_dim, dtype=np.complex128)
        vec[0] = 1.0
        return vec

    def slot_probe(self, k: int, state_index: int, p_k: complex) -> np.ndarray:
        """Probe state flagging slot k for input ``state_index`` (0 or 1).

        The two flags of one slot are built so their overlap is exactly
        ``p_k``: the first is the slot's first basis vector, the second is
        p_k * first + sqrt(1 - |p_k|^2) * second.
        """
        if state_index not in (0, 1):
            raise ValidationError("state_index must be 0 or 1")
        lo, hi = self.slot_indices(k)
        p = complex(p_k)
        if abs(p) > 1.0 + 1e-12:
            raise ValidationError(f"|p_{k}| = {abs(p):.6g} exceeds 1")
        vec = np.zeros(self.probe_dim, dtype=np.complex128)
        if state_index == 0:
            vec[lo] = 1.0
        else:
            vec[lo] = p
            vec[hi] = np.sqrt(max(1.0 - min(abs(p), 1.0) ** 2, 0.0))
        return vec


_BLANK = np.array([1.0, 0.0], dtype=np.complex128)


def _require_qubit(s: PureState, name: str) -> np.ndarray:
    if s.dim != 2:
        raise ValidationError(f"{name} must be a qubit (dimension 2), got {s.dim}")
    return s.amplitudes


def embed_input(kind: str, psi: PureState, phi: PureState | None, layout: SpaceLayout) -> np.ndarray:
    """Machine input vector in the full AB x P space.

    joint          psi (x) phi (x) blank^(m-1) (x) ready
    ncm            psi (x) blank^m (x) ready
    supplementary  phi (x) blank^m (x) ready
    """
    if kind not in KINDS:
        raise ValidationError(f"unknown machine kind {kind!r}")
    m = layout.m
    if kind == "joint":
        parts = [_require_qubit(psi, "psi"), _require_qubit(phi, "phi")]
        parts += [_BLANK] * (m - 1)
    elif kind == "ncm":
        parts = [_require_qubit(psi, "psi")] + [_BLANK] * m
    else:
        if phi is None:
            raise ValidationError("supplementary kind requires phi")
        parts = [_require_qubit(phi, "phi")] + [_BLANK] * m
    return kron_vectors(*parts, layout.ready_probe())


def copies_in_slot(kind: str, k: int, m: int) -> int:
    """Number of copies emitted by slot k: k+1 for joint/ncm, k for supplementary."""
    if kind not in KINDS:
        raise ValidationError(f"unknown machine kind {kind!r}")
    if not 1 <= k <= m:
        raise ValidationError(f"slot {k} out of range 1..{m}")
    return k if kind == "supplementary" else k + 1


def target_ab(kind: str, psi: PureState, k: int, layout: SpaceLayout) -> np.ndarray:
    """AB factor of a success branch: copies of psi padded with blanks."""
    n_copies = copies_in_slot(kind, k, layout.m)
    return kron_vectors(*[_require_qubit(psi, "psi")] * n_copies, *[_BLANK] * (layout.m + 1 - n_copies))


def target_output(kind: str, psi: PureState, k: int, layout: SpaceLayout, probe_vector) -> np.ndarray:
    """Unit-norm success branch for slot k with the given probe flag.

    The probe vector must be supported on slot k's two basis indices only.
    """
    if not 1 <= k <= layout.m:
        raise ValidationError(f"slot {k} out of range 1..{layout.m}")
    probe = as_cvector(probe_vector)
    if probe.shape[0] != layout.probe_dim:
        raise ValidationError("probe vector has the wrong dimension")
    lo, hi = layout.slot_indices(k)
    support = np.zeros(layout.probe_dim, dtype=bool)
    support[[lo, hi]] = True
    if np.any(np.abs(probe[~support]) > 1e-12):
        raise ValidationError(f"probe vector leaks outside slot {k}")
    nrm = np.linalg.norm(probe)
    if abs(nrm - 1.0) > 1e-9:
        raise ValidationError("probe vector must be unit norm")
    return kron_vectors(target_ab(kind, psi, k, layout), probe)
