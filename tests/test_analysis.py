import dataclasses

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
import clonekit.analysis
from clonekit.analysis import _CAP_MARGIN, _asymmetric_limits, _grid_feasible, _kkt_slope
from clonekit.errors import NumericalError, ValidationError
from clonekit.machine import MachineSpec, feasibility_core, feasible, ray_limit, ray_terms
from clonekit.qlinalg import DEFAULT_TOL
from helpers import boundary_scan, rand_overlap
from test_sweep_batching import _break_row, _count_core_calls


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


def _random_problems(rng, count: int) -> list:
    """Asymmetric problems of every kind, with alpha = 0, equal priors and zero priors among them."""
    probs = []
    for n in range(count):
        kind = ("joint", "ncm", "supplementary")[n % 3]
        alpha = 0.0 if n % 7 == 0 else rand_overlap(rng, 0.0, 0.99)
        p0 = {0: 0.5, 1: 0.0, 2: 1.0}.get(n % 11, rng.uniform())
        probs.append(OptimizationProblem(kind, alpha, rand_overlap(rng, 0.0, 1.0), int(rng.integers(1, 4)),
                                         (p0, 1.0 - p0), symmetric=False))
    return probs


def _jaeger_shimony(beta_abs: float, priors) -> float:
    """Unambiguous discrimination of two states with overlap |beta| (Phys. Lett. A 197, 83 (1995))."""
    lo, hi = sorted(priors)
    if lo >= hi * beta_abs**2:
        return 1.0 - 2.0 * np.sqrt(lo * hi) * beta_abs
    return hi * (1.0 - beta_abs**2)


def _assert_kkt_certificate(prob, res) -> str:
    """The KKT residual is small, or the trace names a closed-form case; returns the case."""
    case = res.method_trace[0].split("case ")[1].split(":")[0]
    if case == "KKT":
        assert float(res.method_trace[1].split()[-1]) <= 1e-9, prob
        assert _normal_sine(prob.kind, prob.alpha, prob.priors, res.r_star) <= 1e-9, prob
    else:
        assert case in ("symmetric", "row-1 maximum", "row-2 maximum"), res.method_trace
    return case


def _normal_sine(kind: str, alpha, priors, r_star) -> float:
    """Sine of the angle between the priors and the boundary normal at R* (complex-step gradient)."""
    w = abs(alpha) if kind == "supplementary" else abs(alpha) ** 2
    r = r_star.sum(axis=1).astype(complex)
    grad = []
    for i in range(2):
        z = r.copy()
        z[i] += 1e-30j
        grad.append((np.sqrt((1 - z[0]) * (1 - z[1])) + w * np.sqrt(z[0] * z[1])).imag / 1e-30)
    cross = priors[0] * grad[1] - priors[1] * grad[0]
    return abs(cross) / (np.hypot(*priors) * np.hypot(*grad))


class TestAsymmetricOptimum:
    """The asymmetric optimum is exact: closed forms, depth independence and independent scans."""

    @pytest.mark.parametrize("beta, priors", [(0.3, (0.7, 0.3)), (0.6, (0.8, 0.2))])
    def test_jaeger_shimony_at_alpha_zero(self, beta, priors):
        # (0.7, 0.3) has p_min/p_max above |beta|^2 and (0.8, 0.2) below it.
        for m in (1, 2, 3):
            res = optimize(OptimizationProblem("supplementary", 0.0, beta, m, priors, symmetric=False))
            assert abs(res.value - _jaeger_shimony(beta, priors)) <= 1e-13

    def test_jaeger_shimony_on_random_priors(self):
        rng = np.random.default_rng(163)
        for _ in range(100):
            beta, p0 = rand_overlap(rng, 0.0, 1.0), rng.uniform()
            prob = OptimizationProblem("supplementary", 0.0, beta, 1, (p0, 1.0 - p0), symmetric=False)
            res = optimize(prob)
            assert abs(res.value - _jaeger_shimony(abs(beta), (p0, 1.0 - p0))) <= 1e-13
            _assert_kkt_certificate(prob, res)  # below the threshold: the corner, not a root beside it

    def test_joint_worked_value_at_every_depth(self):
        for m in (1, 2, 3):
            res = optimize(OptimizationProblem("joint", 0.5, 0.7, m, (0.7, 0.3), symmetric=False))
            assert abs(res.value - 0.874662052065160) <= 1e-12
            assert np.all(res.r_star[:, 1:] == 0.0)  # all weight in slot 1

    def test_value_does_not_depend_on_depth(self):
        rng = np.random.default_rng(167)
        for prob in _random_problems(rng, 60):
            values = {optimize(dataclasses.replace(prob, m=m)).value for m in (1, 2, 3, 4)}
            assert len(values) == 1, prob

    def test_equal_priors_reproduce_the_symmetric_value(self):
        rng = np.random.default_rng(173)
        for prob in _random_problems(rng, 60):
            asym = optimize(dataclasses.replace(prob, priors=(0.5, 0.5)))
            sym = optimize(dataclasses.replace(prob, priors=(0.5, 0.5), symmetric=True))
            assert abs(asym.value - sym.value) <= 1e-13, prob

    def test_swapped_priors_swap_the_rows(self):
        rng = np.random.default_rng(179)
        for prob in _random_problems(rng, 60):
            res = optimize(prob)
            swapped = optimize(dataclasses.replace(prob, priors=prob.priors[::-1]))
            assert abs(res.value - swapped.value) <= 1e-15, prob
            np.testing.assert_allclose(swapped.r_star, res.r_star[::-1], rtol=0.0, atol=1e-15)

    def test_at_least_the_grid_oracle(self):
        for prob in (OptimizationProblem("joint", 0.5, 0.7, 1, (0.7, 0.3), symmetric=False),
                     OptimizationProblem("ncm", 0.6j, None, 1, (0.9, 0.1), symmetric=False),
                     OptimizationProblem("supplementary", 0.3, 0.6, 1, (0.25, 0.75), symmetric=False)):
            assert optimize(prob).value >= grid_oracle(prob, 1e-3) - 1e-12

    def test_at_least_the_boundary_scan(self):
        rng = np.random.default_rng(181)
        probs = _random_problems(rng, 150)
        for prob, res in zip(probs, optimize_many(probs)):
            assert res.value >= boundary_scan(prob.kind, prob.alpha, prob.beta, prob.priors) - 1e-12, prob
            assert feasible(MachineSpec(prob.kind, prob.alpha, prob.beta, prob.m, res.r_star)).feasible

    def test_kkt_certificate(self):
        rng = np.random.default_rng(191)
        cases = {_assert_kkt_certificate(prob, optimize(prob)) for prob in _random_problems(rng, 150)}
        assert cases == {"symmetric", "row-1 maximum", "row-2 maximum", "KKT"}

    def test_kkt_point_is_the_scanned_maximum_of_the_arc(self):
        # The objective along the boundary arc from the symmetric point
        # (v = 0) to the larger prior's row maximum (v_max), scanned at 10^5
        # values of v = |theta1 - theta2| without the optimizer's code.
        rng = np.random.default_rng(199)
        interior = 0
        for prob in _random_problems(rng, 150):
            a = abs(prob.alpha)
            w = a if prob.kind == "supplementary" else a * a
            t = {"joint": a * abs(prob.beta or 0.0), "ncm": a, "supplementary": abs(prob.beta or 0.0)}[prob.kind]
            top = (1.0 - t * t) / (1.0 - w * w)
            if min(prob.priors) == 0.0 or top >= 1.0 - 1e-9:
                continue  # no KKT point, or a cap binds
            other = w * w * top / (1.0 - top + w * w * top)
            v_max = np.arcsin(np.sqrt(top)) - np.arcsin(np.sqrt(other))
            v = np.linspace(0.0, v_max, 100_000)
            big, small = sorted(prob.priors, reverse=True)
            half_sum = 0.5 * np.arccos(2.0 * t / (1.0 - w) - (1.0 + w) / (1.0 - w) * np.cos(v))
            scan = big * np.sin(half_sum + 0.5 * v) ** 2 + small * np.sin(half_sum - 0.5 * v) ** 2
            best = int(np.nanargmax(scan))
            cand, root = _asymmetric_limits(prob.kind, np.array([prob.alpha]),
                                            None if prob.beta is None else np.array([prob.beta]),
                                            np.array([prob.priors]), np.ones(1))
            r1, r2 = cand[0, 2]
            if np.isnan(r1):  # the Jaeger-Shimony corner: the arc's end, a row maximum, is the optimum
                assert w == 0.0 and best == len(v) - 1 and big * t * t > small, prob
                continue
            v_kkt = abs(np.arcsin(np.sqrt(r1)) - np.arcsin(np.sqrt(r2)))
            assert abs(v_kkt - v[best]) <= v[1], prob
            if big == small:
                assert v_kkt == 0.0, prob
            elif 0 < best < len(v) - 1:
                interior += 1
                assert root[0] <= 1e-12, prob
                ab = (2.0 * t / (1.0 - w), (1.0 + w) / (1.0 - w), big - small)
                k = _kkt_slope(np.array([v_kkt - v[1], v_kkt + v[1]]), *ab)[0]
                assert k[0] > 0.0 > k[1], prob
        assert interior >= 40

    def test_no_linear_algebra_library_in_the_asymmetric_optimum(self, monkeypatch):
        rng = np.random.default_rng(211)
        probs = _random_problems(rng, 90)
        want = optimize_many(probs)

        def unavailable(*args, **kwargs):
            raise AssertionError("np.linalg called")

        class NoLinalg:
            def __getattr__(self, name):
                raise AssertionError(f"np.linalg.{name} looked up")

        monkeypatch.setattr(np.linalg, "eigvals", unavailable)
        monkeypatch.setattr(np, "linalg", NoLinalg())
        got = optimize_many(probs)
        assert {prob.kind for prob in probs} == {"joint", "ncm", "supplementary"}
        for prob, res, ref in zip(probs, got, want):
            assert isinstance(res, clonekit.analysis.OptimizationResult), prob
            assert res.value == ref.value and res.method_trace == ref.method_trace, prob


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

    def test_closed_form_on_the_uncapped_interior(self):
        # Criterion 7's gap (1 - |ab|)/(1 - |a|^2) - 1/(1 + |a|) wherever the
        # joint optimum stays below total success 1, i.e. |b| > |a|.
        grid = np.round(np.arange(0.1, 0.95, 0.1), 10)
        for a in grid:
            for b in grid[grid > a]:
                _, _, delta = ncmsi_advantage(a, b, 1)
                assert abs(delta - ((1.0 - a * b) / (1.0 - a * a) - 1.0 / (1.0 + a))) <= 1e-13, (a, b)

    def test_unequal_priors_use_the_exact_optima(self):
        rng = np.random.default_rng(193)
        priors = (0.6, 0.4)
        for _ in range(40):
            a, b, m = rand_overlap(rng, 0.05, 0.95), rand_overlap(rng, 0.05, 1.0), int(rng.integers(1, 4))
            joint_opt, ncm_opt, delta = ncmsi_advantage(a, b, m, priors)
            assert delta >= 0.0 and delta == joint_opt - ncm_opt
            for kind, value in (("joint", joint_opt), ("ncm", ncm_opt)):
                scan = boundary_scan(kind, a, b, priors)
                assert scan - 1e-12 <= value <= scan + 1e-8, (kind, a, b)


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

    @pytest.mark.parametrize("m", [1, 2, 7, 64, 1024])
    def test_single_slot_machine_does_not_depend_on_depth(self, m):
        # The reason one depth-1 assertion covers every depth: slot m alone
        # carries r, its probe is 0, and the core arrays the verdict reads
        # equal the depth-1 arrays bit for bit.
        rng = np.random.default_rng(211)
        a = rng.uniform(0.01, 0.99, 500)
        b = np.concatenate([[1.0] * 20, rng.uniform(0.01, 1.0, 480)])
        best = ray_limit(1.0, 1.0, 0.0, a * b, 1.0 - _CAP_MARGIN)

        def core(depth):
            r = np.zeros((len(a), 2, depth))
            r[:, :, depth - 1] = best[:, None]
            return feasibility_core("joint", a, b, depth, r, np.zeros((len(a), depth)))

        one, deep = core(1), core(m)
        for name in ("fault", "sums", "diag", "det"):
            assert np.array_equal(getattr(one, name), getattr(deep, name)), name
        assert np.array_equal(one.verdict(), deep.verdict()) and one.verdict().all()
        assert np.all(np.abs(best - np.minimum(1.0 - _CAP_MARGIN, 1.0 - a * b)) <= 1e-15)

    def test_one_core_call_for_every_request_and_depth(self, monkeypatch):
        calls = _count_core_calls(monkeypatch)
        requests = [(0.5, 0.7, 1024), (0.3, 1.0, 1), (0.9, 0.2, 100), (0.0, 0.5, 8), (0.6, 0.5, 0)]
        out = discrimination_convergence_many(requests)
        assert calls == ["joint"]
        assert [len(res) for res in out[:3]] == [1024, 1, 100]
        assert [m for m, _ in out[0]] == list(range(1, 1025))
        assert isinstance(out[3], ValidationError) and out[4] == []

    def test_zero_depth_is_empty(self, monkeypatch):
        calls = _count_core_calls(monkeypatch)
        assert discrimination_convergence(0.5, 0.7, 0) == []
        assert discrimination_convergence_many([(0.5, 0.7, 0), (0.4, 0.2, -3)]) == [[], []]
        assert calls == []

    def test_broken_row_fails_its_request_only(self, monkeypatch):
        requests = [(0.1 * k, 0.6, 4) for k in range(1, 6)]
        clean = discrimination_convergence_many(requests)
        _break_row(monkeypatch, clonekit.analysis, "joint", 2, "det", -1.0)
        out = discrimination_convergence_many(requests)
        assert isinstance(out[2], NumericalError)
        assert str(out[2]) == "single-slot optimum failed the feasibility assertion"
        assert out[:2] + out[3:] == clean[:2] + clean[3:]

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
