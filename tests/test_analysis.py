import numpy as np
import pytest

from clonekit.analysis import (
    OptimizationProblem,
    discrimination_bound,
    discrimination_convergence,
    discrimination_convergence_many,
    duan_guo_bound,
    grid_oracle,
    ncmsi_advantage,
    ncmsi_advantage_many,
    optimize,
    optimize_many,
    uqcm_distance,
)
from clonekit.analysis import _grid_feasible
from clonekit.errors import NumericalError, ValidationError
from clonekit.machine import MachineSpec, feasible, ray_limit, ray_terms
from clonekit.qlinalg import DEFAULT_TOL
from helpers import rand_overlap


class TestDuanGuoBound:
    def test_values(self):
        assert duan_guo_bound(0.0) == 1.0
        assert duan_guo_bound(0.5) == pytest.approx(2 / 3)
        assert duan_guo_bound(0.9) == pytest.approx(1 / 1.9)

    def test_identical_states_rejected(self):
        with pytest.raises(ValidationError):
            duan_guo_bound(1.0)
        with pytest.raises(ValidationError):
            duan_guo_bound(-0.1)


class TestDiscriminationBound:
    def test_orthogonal_probe_limit(self):
        assert discrimination_bound(0.6, 0.5, 1, 0.0) == pytest.approx(0.7)

    def test_orthogonal_supplementary(self):
        assert discrimination_bound(0.6, 0.0, 1, 0.0) == 1.0

    def test_partial_probe_overlap(self):
        assert discrimination_bound(0.6, 0.5, 2, 0.5) == pytest.approx(0.7 / 0.82)

    def test_degenerate_denominator(self):
        with pytest.raises(NumericalError):
            discrimination_bound(1.0, 0.5, 1, 1.0)


class TestOptimize:
    def test_joint_symmetric_worked(self):
        res = optimize(OptimizationProblem("joint", 0.5, 0.8, 1), oracle_resolution=1e-3)
        assert res.value == pytest.approx(0.8, abs=1e-9)
        assert abs(res.value - res.oracle_value) <= 1e-3
        assert feasible(MachineSpec("joint", 0.5, 0.8, 1, res.r_star)).feasible

    def test_ncm_matches_duan_guo(self):
        res = optimize(OptimizationProblem("ncm", 0.5, None, 1))
        assert res.value == pytest.approx(2 / 3, abs=1e-9)

    def test_orthogonal_supplementary_gives_certainty(self):
        res = optimize(OptimizationProblem("joint", 0.5, 0.0, 1))
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_sweep(self):
        # symmetric one-slot joint optimum equals (1-|ab|)/(1-|a|^2), clamped
        # at the total-success ceiling
        for a in np.arange(0.1, 0.95, 0.1):
            for b in np.arange(0.1, 0.95, 0.1):
                res = optimize(OptimizationProblem("joint", a, b, 1))
                expect = min((1 - a * b) / (1 - a * a), 1.0)
                assert res.value == pytest.approx(expect, abs=1e-6)

    def test_oracle_attachment(self):
        res = optimize(OptimizationProblem("ncm", 0.5, None, 1), oracle_resolution=1e-3)
        assert res.oracle_value == pytest.approx(0.666, abs=1e-9)
        assert abs(res.value - res.oracle_value) <= 1e-3

    def test_asymmetric_against_oracle(self):
        prob = OptimizationProblem("joint", 0.5, 0.7, 1, priors=(0.7, 0.3), symmetric=False)
        res = optimize(prob, oracle_resolution=0.02)
        assert res.value >= res.oracle_value - 1e-9
        assert res.value <= res.oracle_value + 0.05

    def test_asymmetric_beats_symmetric_with_skewed_priors(self):
        sym = optimize(OptimizationProblem("ncm", 0.6, None, 1, priors=(0.9, 0.1)))
        asym = optimize(OptimizationProblem("ncm", 0.6, None, 1, priors=(0.9, 0.1), symmetric=False))
        assert asym.value >= sym.value - 1e-9

    def test_asymmetric_never_below_symmetric(self):
        rng = np.random.default_rng(137)
        for _ in range(200):
            alpha, beta = rand_overlap(rng), rand_overlap(rng, 0.05, 1.0)
            m = int(rng.integers(1, 4))
            p0 = rng.uniform(0.0, 1.0)
            priors = (p0, 1.0 - p0)
            sym = optimize(OptimizationProblem("joint", alpha, beta, m, priors))
            asym = optimize(OptimizationProblem("joint", alpha, beta, m, priors, symmetric=False))
            assert asym.value >= sym.value - 1e-12
            assert feasible(MachineSpec("joint", alpha, beta, m, asym.r_star)).feasible

    def test_bad_priors_rejected(self):
        with pytest.raises(ValidationError):
            OptimizationProblem("ncm", 0.5, None, 1, priors=(0.7, 0.2))


class TestClosedFormOptima:
    """The kernel's roots keep every digit, double roots included (alpha = beta)."""

    GRID = np.linspace(0.05, 0.95, 19)
    CAP = 1.0 - 1e-12  # joint rows stay strictly below total success 1

    def test_symmetric_joint_and_ncm_optima(self):
        for a in self.GRID:
            for b in self.GRID:
                value = optimize(OptimizationProblem("joint", a, b, 1)).value
                assert abs(value - min(self.CAP, (1.0 - a * b) / (1.0 - a * a))) <= 1e-13, (a, b)
            assert abs(optimize(OptimizationProblem("ncm", a, None, 1)).value - 1.0 / (1.0 + a)) <= 1e-13


class TestBatchedCalls:
    """The list versions return, per row, exactly what the unbatched call returns or raises."""

    def test_optimize_many_matches_optimize(self):
        rng = np.random.default_rng(151)
        probs = [OptimizationProblem(kind, rand_overlap(rng), rand_overlap(rng, 0.1, 1.0), int(rng.integers(1, 4)),
                                     symmetric=bool(rng.random() < 0.8))
                 for kind in ("joint", "ncm", "supplementary") for _ in range(20)]
        for prob, res in zip(probs, optimize_many(probs)):
            single = optimize(prob)
            assert res.value == single.value
            assert np.array_equal(res.r_star, single.r_star) and np.array_equal(res.p_star, single.p_star)
            assert res.method_trace == single.method_trace

    def test_advantage_and_convergence_many(self):
        rng = np.random.default_rng(157)
        requests = [(rng.uniform(0.05, 0.95), rng.uniform(0.05, 1.0), int(rng.integers(1, 4)), (0.5, 0.5))
                    for _ in range(30)]
        requests.append((0.5, 1.5, 1, (0.5, 0.5)))  # |beta| > 1 fails this row only
        out = ncmsi_advantage_many(requests)
        for req, res in zip(requests[:-1], out):
            assert res == ncmsi_advantage(*req)
        assert isinstance(out[-1], ValidationError)
        slots = [(a, b, m) for a, b, m, _ in requests[:-1]] + [(1.0, 0.5, 2), (0.5, 0.5, 0)]
        conv = discrimination_convergence_many(slots)
        for req, res in zip(slots[:-2], conv):
            assert res == discrimination_convergence(*req)
        assert isinstance(conv[-2], ValidationError) and conv[-1] == []


class TestGridOracle:
    def test_ncm_resolution_example(self):
        val = grid_oracle(OptimizationProblem("ncm", 0.5, None, 1), 1e-3)
        assert val == pytest.approx(2 / 3, abs=1e-3)

    def test_zero_machine_floor(self):
        val = grid_oracle(OptimizationProblem("supplementary", 0.5, 1.0, 1), 0.05)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_batched_verdict_matches_feasible(self):
        rng = np.random.default_rng(139)
        verdicts = {True: 0, False: 0}
        while sum(verdicts.values()) < 1000:
            kind = ("joint", "ncm", "supplementary")[rng.integers(3)]
            m = int(rng.integers(1, 3))
            prob = OptimizationProblem(kind, rand_overlap(rng), rand_overlap(rng, 0.0, 1.0), m)
            # points of the resolution-0.05 grid, some on or past total success 1
            steps = rng.integers(0, 21, size=(2, m))
            if rng.random() < 0.5:
                steps = np.floor(steps * rng.uniform(0.0, 1.0))
            r = steps * 0.05
            r1, r2, s, t = ray_terms(kind, prob.alpha, prob.beta, r)
            det = (1.0 - r1) * (1.0 - r2) - max(0.0, t - s) ** 2  # closed form with optimal probes
            if abs(det + DEFAULT_TOL) < 1e-12:  # the verdict's own edge
                continue
            try:
                spec = MachineSpec(kind, prob.alpha, prob.beta, m, r)
                want = bool(np.all(r.sum(axis=1) <= 1.0)) and feasible(spec).feasible
            except ValidationError:
                want = False
            assert bool(_grid_feasible(prob, r[None], DEFAULT_TOL)[0]) is want
            verdicts[want] += 1
        assert min(verdicts.values()) > 100
        # the joint strict-sum rule: det = 0 at total success 1, yet no such machine exists
        r = np.array([[1.0], [1.0]])
        assert not _grid_feasible(OptimizationProblem("joint", 0.5, 0.2, 1), r[None], DEFAULT_TOL)[0]
        assert _grid_feasible(OptimizationProblem("joint", 0.5, 0.0, 1), r[None], DEFAULT_TOL)[0]

    def test_budget_enforced(self):
        with pytest.raises(ValidationError):
            grid_oracle(OptimizationProblem("joint", 0.5, 0.8, 2, symmetric=False), 1e-3)


class TestAdvantage:
    def test_worked_value(self):
        joint_opt, ncm_opt, delta = ncmsi_advantage(0.5, 0.8, 1)
        assert joint_opt == pytest.approx(0.8, abs=1e-9)
        assert ncm_opt == pytest.approx(2 / 3, abs=1e-9)
        assert delta == pytest.approx(2 / 15, abs=1e-9)

    def test_dependent_supplementary_is_neutral(self):
        _, _, delta = ncmsi_advantage(0.5, 1.0, 1)
        assert abs(delta) < 1e-12

    def test_orthogonal_originals(self):
        joint_opt, ncm_opt, delta = ncmsi_advantage(0.0, 0.8, 1)
        assert joint_opt == 1.0 and ncm_opt == 1.0 and delta == 0.0


class TestDiscriminationConvergence:
    def test_monotone_and_bounded(self):
        seq = discrimination_convergence(0.6, 0.5, 10)
        vals = [v for _, v in seq]
        limit = 1 - 0.6 * 0.5
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(v <= limit + 1e-12 for v in vals)
        assert vals[-1] == pytest.approx(limit, abs=1e-9)

    def test_beta_one_reduces_to_original_overlap(self):
        seq = discrimination_convergence(0.4, 1.0, 4)
        assert seq[-1][1] == pytest.approx(1 - 0.4, abs=1e-9)

    @pytest.mark.parametrize("a, b", [(0.6, 0.5), (0.3, 0.8)])
    def test_optimal_probe_single_slot_matches_bound(self, a, b):
        # Companion to criterion 8: with optimal probes (not pinned to 0) the
        # single-slot-m optimum is (1 - |ab|)/(1 - |a|^(m+1)), capped below
        # total success 1, and it falls strictly toward the ceiling 1 - |ab|.
        cap = 1.0 - 1e-12
        limit = 1.0 - a * b
        values = []
        for m in range(1, 9):
            slot = np.zeros((2, m))
            slot[:, m - 1] = 1.0
            v = ray_limit(*ray_terms("joint", a, b, slot), cap)
            assert abs(v - min(cap, discrimination_bound(a, b, m + 1, 1.0))) <= 1e-12
            assert feasible(MachineSpec("joint", a, b, m, v * slot)).feasible
            if v < cap:
                assert not feasible(MachineSpec("joint", a, b, m, (v + 1e-6) * slot)).feasible
            values.append(v)
        assert all(later < earlier for earlier, later in zip(values, values[1:]))
        assert all(v > limit for v in values)
        assert values[-1] - limit < 0.01

    def test_domain_validated(self):
        with pytest.raises(ValidationError):
            discrimination_convergence(0.0, 0.5, 3)
        with pytest.raises(ValidationError):
            discrimination_convergence(0.5, 0.0, 3)


class TestUqcmDistance:
    def test_basis_input(self):
        assert uqcm_distance(1.0, 0.0) == pytest.approx(1 / 18, abs=1e-15)

    def test_balanced_input(self):
        s = 1 / np.sqrt(2)
        assert uqcm_distance(s, s) == pytest.approx(1 / 18, abs=1e-15)

    def test_generic_input(self):
        assert uqcm_distance(0.6, 0.8) == pytest.approx(1 / 18, abs=1e-15)

    def test_constant_over_random_inputs(self):
        rng = np.random.default_rng(131)
        for _ in range(100):
            theta = rng.uniform(0, 2 * np.pi)
            d = uqcm_distance(np.cos(theta), np.sin(theta))
            assert abs(d - 1 / 18) < 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(ValidationError):
            uqcm_distance(1.0, 0.5)
