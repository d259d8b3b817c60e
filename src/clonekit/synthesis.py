"""Explicit unitary construction for a feasible machine and its statistics.

Given a feasible spec and concrete input states, the machine's two required
input-output pairs are embedded in the full AB x P space and the failure
branch is completed from the Cholesky factor of the residual Gram matrix.
The inputs sit on the probe's ready index and the outputs on slot and
failure indices only, so the two pairs are orthogonal with equal Gram
matrices, and the unitary is the swap of their spans:
U = I + Q (W - I) Q^dagger with Q = [Q_X | Q_Y], four Gram-Schmidt
columns, and W = [[0, I], [I, 0]].  Measurement statistics are then exact:
apply U to each input through the factors, project the probe register onto
each slot subspace (or the failure subspace) and read off probabilities and
post-selected copy fidelities.

Every step costs O(dim), dim = 2^(m+1) (2m+3): the copies psi^(x)n are
built once per input from outer products, each output is written as an
(AB, probe) table with each slot's copies placed by stride (the blanks are
|0>), a fidelity is ||ideal^dagger cols||^2 / prob with no density matrix,
and the unitarity certificate ||U^dagger U - I||_2 is read from k x k
factors.  ``VECTOR_BYTES_BUDGET`` bounds the depth by the size of one
dim-sized vector; ``DENSE_BYTES_BUDGET`` bounds the dense matrix, which is
built only on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfeasibleError, ValidationError
from .machine import MachineSpec, feasible, optimal_probe_overlaps
from .qlinalg import DEFAULT_TOL, LowRankUnitary, cholesky_psd2, kron_vectors, low_rank_unitary
from .states import PureState, SpaceLayout, copies_in_slot, embed_input, overlap

# Bytes one dim-sized complex vector may take, 16 * 2^(m+1) * (2m+3): 4 MiB
# admits m <= 12 (3.5 MB).  realize, exact_statistics and the defect hold
# about 16 such vectors at their peak, so the deepest synthesis stays under
# 60 MB.
VECTOR_BYTES_BUDGET = 4 << 20
# Bytes the dense dim x dim matrix may take: 64 MiB admits m <= 6 (59 MB).
DENSE_BYTES_BUDGET = 64 << 20
_COMPLEX_BYTES = np.dtype(np.complex128).itemsize


@dataclass(frozen=True)
class UnitaryRealization:
    """A machine's unitary together with its labeled embedding.

    ``unitary`` holds the unitary in low-rank form; ``matrix`` builds the
    dense dim x dim matrix on first access, which costs O(dim^2) memory and
    raises ValidationError past ``DENSE_BYTES_BUDGET``.
    ``failure_amplitudes`` is the lower-triangular Cholesky factor L of the
    residual Gram matrix; row i holds the two failure-direction amplitudes
    of input i, so |L[i,0]|^2 + |L[i,1]|^2 = 1 - sum_k r_k^(i).
    ``copies[i][k-1]`` is psi_i^(x)n, the n = copies_in_slot(kind, k, m)
    copies slot k emits; the ideal AB state of that slot is those copies
    followed by blanks, i.e. the factor at stride
    ``layout.pad_stride(2^n)``.
    """

    layout: SpaceLayout
    unitary: LowRankUnitary
    inputs: tuple[np.ndarray, np.ndarray]
    outputs: tuple[np.ndarray, np.ndarray]
    spec: MachineSpec
    failure_amplitudes: np.ndarray
    psi: tuple[PureState, PureState]
    copies: tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]

    @cached_property
    def matrix(self) -> np.ndarray:
        dim = self.layout.total_dim
        if dim * dim * _COMPLEX_BYTES > DENSE_BYTES_BUDGET:
            raise ValidationError(
                f"the dense {dim} x {dim} matrix exceeds the {DENSE_BYTES_BUDGET} byte budget"
            )
        return self.unitary.dense()


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact measurement statistics, one row per input index.

    ``slot_probs[i, k-1]`` and ``copy_fidelities[i, k-1]`` describe success
    slot k; ``failure[i]`` collects the complement (failure subspace plus
    the never-populated ready direction).  Rows sum to 1.
    """

    slot_probs: np.ndarray
    copy_fidelities: np.ndarray
    failure: np.ndarray


def _check_overlap(pair: tuple[PureState, PureState], name: str, want: complex, field: str, tol: float) -> None:
    """Raise, naming the task's fields and both values, when a state pair's overlap is more than tol from ``want``."""
    seen = overlap(pair[0], pair[1])
    if abs(seen - want) > tol:
        raise ValidationError(f"{name} overlap {_number_text(seen)} disagrees with {field} = {_number_text(want)}")


def _number_text(z) -> str:
    z = complex(z) + 0.0  # + 0.0 turns a -0.0 real part into 0
    return f"{z.real:.12g}" if z.imag == 0.0 else f"{z.real:.12g}{z.imag:+.12g}j"


def realize(
    spec: MachineSpec,
    psi: tuple[PureState, PureState],
    phi: tuple[PureState, PureState] | None = None,
    tol: float = DEFAULT_TOL,
) -> UnitaryRealization:
    """Build the unitary realizing a feasible spec on concrete states.

    ``psi`` are the original qubits and ``phi`` the supplementary qubits
    (required unless kind is "ncm").  Their overlaps must match the spec's
    alpha and beta within ``tol``.  A depth whose dim-sized vector exceeds
    ``VECTOR_BYTES_BUDGET`` raises ValidationError before anything is built.
    The outputs reproduce the inputs' Gram matrix by construction and live
    on probe indices the inputs leave empty, so
    :func:`clonekit.qlinalg.low_rank_unitary` builds U as the swap of the
    input and output spans; it checks both facts, and raises
    ValidationError if a faulty failure factor breaks the Gram match.
    """
    layout = SpaceLayout(spec.m)
    if layout.total_dim * _COMPLEX_BYTES > VECTOR_BYTES_BUDGET:
        raise ValidationError(
            f"copy depth {spec.m} needs {layout.total_dim * _COMPLEX_BYTES} bytes per state vector,"
            f" over the {VECTOR_BYTES_BUDGET} byte budget"
        )
    _check_overlap(psi, "states.psi", spec.alpha, "alpha", tol)
    if spec.kind != "ncm":
        if phi is None:
            raise ValidationError(f"kind {spec.kind!r} requires supplementary states phi")
        _check_overlap(phi, "states.phi", spec.beta, "beta", tol)

    spec_p = spec.with_p(spec.p if spec.p is not None else optimal_probe_overlaps(spec))
    p = spec_p.p  # the validated probes, which rz.spec stores
    report = feasible(spec_p, tol)
    if not report.feasible:
        raise InfeasibleError("spec is infeasible; no unitary exists")
    failure_amps = cholesky_psd2(report.residual, tol)

    m = spec.m
    n_copies = [copies_in_slot(spec.kind, k, m) for k in range(1, m + 1)]
    inputs = []
    outputs = []
    copies = []
    for i in range(2):
        inputs.append(embed_input(spec.kind, psi[i], None if phi is None else phi[i], layout))
        powers = [psi[i].amplitudes]  # powers[n-1] = psi_i^(x)n
        while len(powers) < max(n_copies):
            powers.append(kron_vectors(powers[-1], psi[i].amplitudes))
        copies.append(tuple(powers[n - 1] for n in n_copies))
        # Output i as an (AB, probe) table: slot k's copies (x) blanks in its
        # two probe columns, the failure branch on |0...0> (x) failure probes.
        table = np.zeros((layout.ab_dim, layout.probe_dim), dtype=np.complex128)
        for k in range(1, m + 1):
            amp = np.sqrt(spec.r[i, k - 1])
            if amp == 0.0:
                continue
            lo, hi = layout.slot_indices(k)
            probe = layout.slot_probe(k, i, p[k - 1])[lo:hi + 1]
            head = copies[i][k - 1]
            # Added into the zero table, not assigned, so every zero entry is
            # +0 as in a sum of branches: U's swap basis for the outputs,
            # and so the emitted matrix, follows their exact bits.
            table[:: layout.pad_stride(head.size), lo:hi + 1] += amp * np.multiply.outer(head, probe)
        # Conjugated row of L so the failure branch's Gram equals L L^dagger,
        # i.e. the residual itself.
        table[0, list(layout.failure_indices)] += np.conj(failure_amps[i])
        outputs.append(table.ravel())

    return UnitaryRealization(
        layout=layout,
        unitary=low_rank_unitary(inputs, outputs, tol),
        inputs=(inputs[0], inputs[1]),
        outputs=(outputs[0], outputs[1]),
        spec=spec_p,
        failure_amplitudes=failure_amps,
        psi=(psi[0], psi[1]),
        copies=(copies[0], copies[1]),
    )


def exact_statistics(rz: UnitaryRealization) -> OutcomeDistribution:
    """Slot probabilities and post-selected copy fidelities, computed exactly.

    The machine output for input i is reshaped to (AB, probe); projecting
    the probe columns of slot k gives that slot's probability ``prob``, and
    the fidelity <ideal|rho|ideal> of the conditional AB state
    rho = cols cols^dagger / prob is ||ideal^dagger cols||^2 / prob.  The
    ideal copies are nonzero only on the rows at their pad stride, so each
    slot costs O(ab_dim) and no density matrix is formed.
    """
    layout = rz.layout
    m = rz.spec.m
    probs = np.zeros((2, m))
    fids = np.zeros((2, m))
    fails = np.zeros(2)
    non_slot = [0, *layout.failure_indices]
    for i in range(2):
        vec = rz.unitary.apply(rz.inputs[i])
        table = vec.reshape(layout.ab_dim, layout.probe_dim)
        for k in range(1, m + 1):
            cols = table[:, list(layout.slot_indices(k))]
            prob = float(np.sum(np.abs(cols) ** 2))
            probs[i, k - 1] = prob
            if prob > 1e-15:
                head = rz.copies[i][k - 1]
                amps = head.conj() @ cols[:: layout.pad_stride(head.size)]
                fids[i, k - 1] = float(np.sum(np.abs(amps) ** 2)) / prob
            else:
                fids[i, k - 1] = 1.0  # empty branch: nothing to post-select
        fails[i] = float(np.sum(np.abs(table[:, non_slot]) ** 2))
    return OutcomeDistribution(slot_probs=probs, copy_fidelities=fids, failure=fails)


def sample(rz: UnitaryRealization, input_index: int, n_shots: int, seed: int) -> dict[str, int]:
    """Multinomial draw from the exact outcome distribution.

    Outcomes are keyed "slot_1".."slot_m" and "failure"; counts sum to
    ``n_shots`` and are reproducible for a fixed seed.
    """
    return _draw(exact_statistics(rz), input_index, n_shots, seed)


def _draw(dist: OutcomeDistribution, input_index: int, n_shots: int, seed: int) -> dict[str, int]:
    """The multinomial draw of ``sample`` from an already computed distribution."""
    if n_shots < 1:
        raise ValidationError("n_shots must be >= 1")
    if input_index not in (0, 1):
        raise ValidationError("input_index must be 0 or 1")
    m = dist.slot_probs.shape[1]
    probs = np.append(dist.slot_probs[input_index], dist.failure[input_index])
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n_shots, probs)
    labels = [f"slot_{k}" for k in range(1, m + 1)] + ["failure"]
    return {label: int(c) for label, c in zip(labels, counts)}


def global_success(dist: OutcomeDistribution, priors: tuple[float, float]) -> float:
    """Prior-weighted total success probability."""
    pr = np.asarray(priors, dtype=float)
    if pr.shape != (2,) or np.any(pr < 0) or abs(pr.sum() - 1.0) > 1e-9:
        raise ValidationError("priors must be two nonnegative numbers summing to 1")
    return float(np.sum(pr * dist.slot_probs.sum(axis=1)))
