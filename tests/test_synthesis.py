import dataclasses
import tracemalloc

import numpy as np
import pytest

from clonekit import synthesis
from clonekit.errors import InfeasibleError, ValidationError
from clonekit.machine import MachineSpec
from clonekit.qlinalg import LowRankUnitary
from clonekit.states import (
    PureState, SpaceLayout, basis_state, canonical_pair, target_ab, target_output, tensor_power,
)
from clonekit.synthesis import exact_statistics, global_success, realize, sample
from helpers import boundary_scale, raw_r, random_feasible_spec


def unitarity_defect(u):
    return np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))


WORKED = MachineSpec("joint", 0.5, 0.9, 1, [[0.5], [0.5]])
PSI = canonical_pair(0.5)
PHI = canonical_pair(0.9)


class TestRealize:
    def test_orthogonal_states_clone_exactly(self):
        spec = MachineSpec("joint", 0.0, 0.0, 1, [[1.0], [1.0]])
        psi = (basis_state(2, 0), basis_state(2, 1))
        phi = (basis_state(2, 0), basis_state(2, 1))
        rz = realize(spec, psi, phi)
        assert unitarity_defect(rz.matrix) < 1e-10
        for i in range(2):
            mapped = rz.matrix @ rz.inputs[i]
            copies = tensor_power(psi[i], 2).amplitudes
            expected = np.kron(copies, rz.layout.slot_probe(1, i, rz.spec.p[0]))
            np.testing.assert_allclose(mapped, expected, atol=1e-10)

    def test_worked_instance_unitary(self):
        rz = realize(WORKED, PSI, PHI)
        assert unitarity_defect(rz.matrix) < 1e-10
        for i in range(2):
            np.testing.assert_allclose(rz.matrix @ rz.inputs[i], rz.outputs[i], atol=1e-10)

    def test_failure_amplitudes_normalization(self):
        rz = realize(WORKED, PSI, PHI)
        row_power = np.sum(np.abs(rz.failure_amplitudes) ** 2, axis=1)
        np.testing.assert_allclose(row_power, 1.0 - WORKED.sum_r, atol=1e-12)

    def test_duan_guo_boundary_rank_one_failure(self):
        a = 0.5
        r = 1.0 / (1.0 + a)
        spec = MachineSpec("ncm", a, None, 1, [[r], [r]])
        rz = realize(spec, PSI)
        assert unitarity_defect(rz.matrix) < 1e-10
        # residual is rank 1 at the ceiling: second failure direction unused
        assert np.max(np.abs(rz.failure_amplitudes[:, 1])) < 1e-6

    def test_overlap_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            realize(WORKED, canonical_pair(0.6), PHI)

    def test_infeasible_rejected(self):
        bad = MachineSpec("joint", 0.5, 0.8, 1, [[0.9], [0.9]])
        with pytest.raises(InfeasibleError):
            realize(bad, PSI, canonical_pair(0.8))

    def test_dimension_cap(self, monkeypatch):
        # The byte budget on one state vector admits m = 12 and refuses m = 13
        # before anything dim-sized is built.
        assert SpaceLayout(12).total_dim * 16 <= synthesis.VECTOR_BYTES_BUDGET < SpaceLayout(13).total_dim * 16
        deep = MachineSpec("joint", 0.5, 0.9, 13, np.full((2, 13), 0.01))
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="byte budget"):
                realize(deep, PSI, PHI)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < SpaceLayout(13).total_dim * 16
        spec = MachineSpec("joint", 0.5, 0.9, 3, np.full((2, 3), 0.05))
        realize(spec, PSI, PHI)
        monkeypatch.setattr(synthesis, "VECTOR_BYTES_BUDGET", SpaceLayout(2).total_dim * 16)
        with pytest.raises(ValidationError, match="byte budget"):
            realize(spec, PSI, PHI)

    def test_outputs_are_the_branch_sum_bit_for_bit(self):
        # Reference: the sum of each slot's target_output and the failure
        # branches over the full space.  The low-rank completion off the input
        # span follows the exact bits of the outputs, signed zeros included.
        rng = np.random.default_rng(2028)
        for _ in range(20):
            spec, rz = _random_realization(rng)
            layout = rz.layout
            p = rz.spec.p  # the probes realize used
            for i in range(2):
                ref = np.zeros(layout.total_dim, dtype=np.complex128)
                for k in range(1, spec.m + 1):
                    amp = np.sqrt(spec.r[i, k - 1])
                    if amp != 0.0:
                        probe = layout.slot_probe(k, i, p[k - 1])
                        ref += amp * target_output(spec.kind, rz.psi[i], k, layout, probe)
                for d, index in enumerate(layout.failure_indices):
                    ref[index] += np.conj(rz.failure_amplitudes[i, d])
                assert rz.outputs[i].tobytes() == ref.tobytes()

    def test_gram_mismatch_is_a_validation_error(self, monkeypatch):
        # A failure factor that breaks Gram(out) = Gram(in) is caught once,
        # by low_rank_unitary's precondition (CLI exit 2).
        exact = synthesis.cholesky_psd2
        monkeypatch.setattr(synthesis, "cholesky_psd2", lambda h, tol: 0.5 * exact(h, tol))
        with pytest.raises(ValidationError, match="Gram matrices"):
            realize(WORKED, PSI, PHI)

    def test_dense_matrix_budget(self):
        # The dense matrix stays available up to m = 6 and is refused past it.
        assert SpaceLayout(6).total_dim ** 2 * 16 <= synthesis.DENSE_BYTES_BUDGET
        spec = MachineSpec("joint", 0.5, 0.9, 7, np.full((2, 7), 0.05))
        rz = realize(spec, PSI, PHI)
        with pytest.raises(ValidationError, match="byte budget"):
            rz.matrix


class TestExactStatistics:
    def test_worked_instance(self):
        rz = realize(WORKED, PSI, PHI)
        dist = exact_statistics(rz)
        np.testing.assert_allclose(dist.slot_probs, 0.5, atol=1e-12)
        np.testing.assert_allclose(dist.failure, 0.5, atol=1e-12)
        np.testing.assert_allclose(dist.copy_fidelities, 1.0, atol=1e-12)

    def test_zero_machine_always_fails(self):
        spec = MachineSpec("joint", 0.5, 0.9, 1, [[0.0], [0.0]])
        rz = realize(spec, PSI, PHI)
        dist = exact_statistics(rz)
        np.testing.assert_allclose(dist.failure, 1.0, atol=1e-12)

    def test_two_slot_instance(self):
        spec = MachineSpec("joint", 0.5, 0.9, 2, [[0.2, 0.3], [0.2, 0.3]])
        rz = realize(spec, PSI, PHI)
        dist = exact_statistics(rz)
        np.testing.assert_allclose(dist.slot_probs, [[0.2, 0.3], [0.2, 0.3]], atol=1e-10)
        np.testing.assert_allclose(dist.failure, 0.5, atol=1e-10)
        np.testing.assert_allclose(dist.copy_fidelities, 1.0, atol=1e-10)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(127)
        for _ in range(20):
            spec = random_feasible_spec(rng, m=int(rng.integers(1, 4)))
            psi = canonical_pair(spec.alpha)
            phi = canonical_pair(spec.beta) if spec.beta is not None else None
            dist = exact_statistics(realize(spec, psi, phi))
            totals = dist.slot_probs.sum(axis=1) + dist.failure
            np.testing.assert_allclose(totals, 1.0, atol=1e-10)

    def test_supplementary_copy_targets(self):
        spec = MachineSpec("supplementary", 0.5, 0.7, 2, [[0.2, 0.1], [0.2, 0.1]])
        rz = realize(spec, PSI, canonical_pair(0.7))
        dist = exact_statistics(rz)
        np.testing.assert_allclose(dist.slot_probs, [[0.2, 0.1], [0.2, 0.1]], atol=1e-10)
        np.testing.assert_allclose(dist.copy_fidelities, 1.0, atol=1e-10)

    def test_explicit_suboptimal_probe_overlaps(self):
        # a spec that fixes its own p still reproduces r and perfect copies
        spec = MachineSpec("joint", 0.5, 0.9, 1, [[0.3], [0.3]], p=[0.7])
        rz = realize(spec, PSI, PHI)
        np.testing.assert_array_equal(rz.spec.p, [0.7])
        dist = exact_statistics(rz)
        np.testing.assert_allclose(dist.slot_probs, 0.3, atol=1e-10)
        np.testing.assert_allclose(dist.copy_fidelities, 1.0, atol=1e-10)

    def test_complex_overlaps_and_probe_phases(self):
        alpha = 0.5 * np.exp(0.8j)
        beta = 0.7 * np.exp(-0.4j)
        spec = MachineSpec("joint", alpha, beta, 2, [[0.2, 0.1], [0.15, 0.1]], p=[0.6j, -0.5])
        psi = canonical_pair(alpha)
        phi = canonical_pair(beta)
        rz = realize(spec, psi, phi)
        assert unitarity_defect(rz.matrix) < 1e-10
        dist = exact_statistics(rz)
        np.testing.assert_allclose(dist.slot_probs, spec.r, atol=1e-10)
        np.testing.assert_allclose(dist.copy_fidelities, 1.0, atol=1e-10)

    def test_phase_covariance(self):
        # a global phase on psi_2 rotates alpha but not the statistics
        spec = MachineSpec("joint", 0.5, 0.9, 1, [[0.4], [0.3]])
        base = exact_statistics(realize(spec, PSI, PHI))
        phase = np.exp(1.3j)
        spec2 = MachineSpec("joint", 0.5 * phase, 0.9, 1, [[0.4], [0.3]])
        psi2 = canonical_pair(0.5 * phase)
        rot = exact_statistics(realize(spec2, psi2, PHI))
        np.testing.assert_allclose(base.slot_probs, rot.slot_probs, atol=1e-12)
        np.testing.assert_allclose(base.failure, rot.failure, atol=1e-12)


class TestSample:
    def test_deterministic_per_seed(self):
        rz = realize(WORKED, PSI, PHI)
        assert sample(rz, 0, 5000, seed=7) == sample(rz, 0, 5000, seed=7)

    def test_counts_sum_to_shots(self):
        rz = realize(WORKED, PSI, PHI)
        counts = sample(rz, 1, 1234, seed=3)
        assert sum(counts.values()) == 1234
        assert set(counts) == {"slot_1", "failure"}

    def test_within_three_sigma_on_worked_instance(self):
        rz = realize(WORKED, PSI, PHI)
        n = 10000
        counts = sample(rz, 0, n, seed=11)
        sigma = np.sqrt(n * 0.5 * 0.5)
        assert abs(counts["slot_1"] - 0.5 * n) <= 3 * sigma

    def test_certain_outcome(self):
        spec = MachineSpec("joint", 0.0, 0.0, 1, [[1.0], [1.0]])
        psi = (basis_state(2, 0), basis_state(2, 1))
        rz = realize(spec, psi, psi)
        counts = sample(rz, 0, 500, seed=5)
        assert counts["slot_1"] == 500

    def test_bad_arguments(self):
        rz = realize(WORKED, PSI, PHI)
        with pytest.raises(ValidationError):
            sample(rz, 2, 10, seed=0)
        with pytest.raises(ValidationError):
            sample(rz, 0, 0, seed=0)


class TestGlobalSuccess:
    def test_equal_priors_worked(self):
        dist = exact_statistics(realize(WORKED, PSI, PHI))
        assert global_success(dist, (0.5, 0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_priors(self):
        spec = MachineSpec("joint", 0.5, 0.9, 1, [[0.4], [0.3]])
        dist = exact_statistics(realize(spec, PSI, PHI))
        assert global_success(dist, (1.0, 0.0)) == pytest.approx(0.4, abs=1e-10)
        assert global_success(dist, (0.0, 1.0)) == pytest.approx(0.3, abs=1e-10)

    def test_bad_priors_rejected(self):
        dist = exact_statistics(realize(WORKED, PSI, PHI))
        with pytest.raises(ValidationError):
            global_success(dist, (0.7, 0.2))
        with pytest.raises(ValidationError):
            global_success(dist, (-0.1, 1.1))


class _DenseUnitary:
    """Applies a dense matrix; the reference route for exact_statistics."""

    def __init__(self, matrix):
        self.matrix = matrix

    def apply(self, v):
        return self.matrix @ v


def _random_realization(rng):
    spec = random_feasible_spec(rng, m=int(rng.integers(1, 5)))
    psi = canonical_pair(spec.alpha)
    phi = canonical_pair(spec.beta) if spec.beta is not None else None
    return spec, realize(spec, psi, phi)


class TestLowRankRealization:
    def test_factored_defect_matches_dense(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            _, rz = _random_realization(rng)
            assert abs(rz.unitary.unitarity_defect() - unitarity_defect(rz.matrix)) < 1e-14

    def test_non_unitary_w_reported_by_both_routes(self):
        rng = np.random.default_rng(2025)
        for _ in range(10):
            _, rz = _random_realization(rng)
            bad = dataclasses.replace(rz, unitary=LowRankUnitary(rz.unitary.q, rz.unitary.w * (1 + 1e-6)))
            factored = bad.unitary.unitarity_defect()
            dense = unitarity_defect(bad.matrix)
            assert 1e-6 < factored < 3e-6
            assert abs(factored - dense) < 1e-14

    def test_statistics_match_dense_route(self):
        rng = np.random.default_rng(2026)
        for _ in range(20):
            _, rz = _random_realization(rng)
            for i in range(2):
                np.testing.assert_allclose(rz.unitary.apply(rz.inputs[i]), rz.matrix @ rz.inputs[i],
                                           rtol=0, atol=1e-12)
            dense = exact_statistics(dataclasses.replace(rz, unitary=_DenseUnitary(rz.matrix)))
            factored = exact_statistics(rz)
            for name in ("slot_probs", "copy_fidelities", "failure"):
                np.testing.assert_allclose(getattr(factored, name), getattr(dense, name), rtol=0, atol=1e-12)

    def test_depth_six_without_dense_matrix(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dense matrix built")

        monkeypatch.setattr(LowRankUnitary, "dense", refuse)
        spec = MachineSpec("joint", 0.5, 0.9, 6, np.full((2, 6), 0.05))
        tracemalloc.start()
        try:
            rz = realize(spec, PSI, PHI)
            defect = rz.unitary.unitarity_defect()
            dist = exact_statistics(rz)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dim = rz.layout.total_dim
        assert dim == 1920
        assert peak < dim * dim * 16 / 8  # an eighth of one dense complex matrix
        assert "matrix" not in vars(rz)
        assert defect < 1e-10
        assert np.max(np.abs(dist.slot_probs - spec.r)) < 1e-9
        assert np.all(dist.copy_fidelities > 1.0 - 1e-9)

    def test_depth_ten_in_linear_memory(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dense matrix built")

        monkeypatch.setattr(LowRankUnitary, "dense", refuse)
        spec = MachineSpec("joint", 0.5, 0.9, 10, np.full((2, 10), 0.05))
        tracemalloc.start()
        try:
            rz = realize(spec, PSI, PHI)
            defect = rz.unitary.unitarity_defect()
            dist = exact_statistics(rz)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dim = rz.layout.total_dim
        assert dim == 47104
        assert peak < 32 * dim * 16  # 32 dim-sized complex vectors
        assert defect < 1e-10
        assert np.max(np.abs(dist.slot_probs - spec.r)) < 1e-9
        assert np.all(dist.copy_fidelities > 1.0 - 1e-9)


def _reference_fidelities(rz):
    """Copy fidelities through the conditional density matrix rho = cols cols^dagger / prob."""
    layout = rz.layout
    m = rz.spec.m
    fids = np.zeros((2, m))
    for i in range(2):
        table = rz.unitary.apply(rz.inputs[i]).reshape(layout.ab_dim, layout.probe_dim)
        for k in range(1, m + 1):
            cols = table[:, list(layout.slot_indices(k))]
            prob = float(np.sum(np.abs(cols) ** 2))
            if prob > 1e-15:
                rho = (cols @ cols.conj().T) / prob
                ideal = target_ab(rz.spec.kind, rz.psi[i], k, layout)
                fids[i, k - 1] = float(np.real(np.vdot(ideal, rho @ ideal)))
            else:
                fids[i, k - 1] = 1.0
    return fids


def _rotated_pair(rng, pair):
    """The pair under one random 2 x 2 unitary: generic complex states, same overlap."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    v, _ = np.linalg.qr(z)
    return tuple(PureState(v @ s.amplitudes) for s in pair)


class TestFidelityReference:
    def test_matches_density_matrix_route(self):
        rng = np.random.default_rng(2027)
        zero_slots = 0
        for _ in range(40):
            kind = ("joint", "ncm", "supplementary")[rng.integers(3)]
            m = int(rng.integers(1, 6))
            alpha = 0.9 * rng.random() * np.exp(2j * np.pi * rng.random())
            beta = None if kind == "ncm" else (0.1 + 0.85 * rng.random()) * np.exp(2j * np.pi * rng.random())
            r0 = raw_r(rng, m)
            r0[rng.random((2, m)) < 0.3] = 0.0  # zero-probability slots
            r = rng.uniform(0.1, 0.95) * boundary_scale(kind, alpha, beta, m, r0) * r0
            spec = MachineSpec(kind, alpha, beta, m, r)
            psi = _rotated_pair(rng, canonical_pair(alpha))
            phi = None if beta is None else _rotated_pair(rng, canonical_pair(beta))
            rz = realize(spec, psi, phi)
            dist = exact_statistics(rz)
            np.testing.assert_allclose(dist.copy_fidelities, _reference_fidelities(rz), rtol=0, atol=1e-13)
            empty = dist.slot_probs <= 1e-15
            assert np.all(dist.copy_fidelities[empty] == 1.0)
            zero_slots += int(empty.sum())
        assert zero_slots > 0
