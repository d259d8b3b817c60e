import dataclasses

import numpy as np
import pytest

from clonekit.errors import InfeasibleError, NumericalError, ValidationError, capture
from clonekit.machine import MachineSpec, feasibility_core, feasible, optimal_probe_overlaps, ray_limit, ray_terms
from clonekit.protocol import (
    compose,
    compose_arrays,
    compose_many,
    decompose_many,
    decompose_two_step,
    f_value,
    strategy_success,
)
from helpers import random_dominant_spec, random_feasible_spec, random_member_pair


def sym_joint(alpha, beta, r_row):
    r = np.vstack([r_row, r_row])
    return MachineSpec("joint", alpha, beta, r.shape[1], r)


WORKED = sym_joint(0.5, 0.9, [0.5])  # root at t = 0.4


class TestFValue:
    def test_origin_value(self):
        assert f_value([0.0], [0.0], 0.5, 0.9) == pytest.approx(1 / 0.9)

    def test_worked_value(self):
        assert f_value([0.5], [0.5], 0.5, 0.9) == pytest.approx(10 / 13)

    def test_feasible_point_dominates_alpha(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            spec = random_dominant_spec(rng, feasible_only=True)
            val = f_value(spec.r[0], spec.r[1], abs(spec.alpha), abs(spec.beta))
            assert val >= abs(spec.alpha) - 1e-12

    def test_nonpositive_denominator_rejected(self):
        from clonekit.errors import NumericalError

        with pytest.raises(NumericalError):
            f_value([0.9], [0.9], 0.9, 0.1)


def supp_ray(spec):
    """Ray terms of the supplementary member t * r of a joint machine."""
    return ray_terms("supplementary", spec.alpha, spec.beta, spec.r)


class TestHValue:
    """H(t), the ratio F along the ray t * r, and the kernel that solves H(t*) = 1 exactly."""

    def test_endpoints(self):
        r = WORKED.r
        assert f_value(0.0 * r[0], 0.0 * r[1], 0.5, 0.9) == pytest.approx(1 / 0.9)
        assert f_value(r[0], r[1], 0.5, 0.9) == pytest.approx(10 / 13)
        # H(0) > 1 > H(1): the determinant changes sign along the ray
        assert feasible(MachineSpec("supplementary", 0.5, 0.9, 1, 0.0 * r)).det > 0.0
        assert feasible(MachineSpec("supplementary", 0.5, 0.9, 1, r)).det < 0.0

    def test_worked_root(self):
        # 0.1875 t^2 - 0.55 t + 0.19 = 0
        assert abs(ray_limit(*supp_ray(WORKED), 1.0) - 0.4) <= 1e-15
        assert f_value(0.4 * WORKED.r[0], 0.4 * WORKED.r[1], 0.5, 0.9) == pytest.approx(1.0)
        assert abs(ray_limit(*supp_ray(sym_joint(0.5, 0.9, [0.2, 0.3])), 1.0) - 4 / 13) <= 1e-15

    def test_couplings(self):
        # unequal rows and an empty slot: R_i are the row sums, S couples the rows slot by slot
        spec = MachineSpec("joint", 0.5, 0.9, 2, [[0.4, 0.0], [0.2, 0.2]])
        r1, r2, s, t = supp_ray(spec)
        assert (r1, r2, t) == (pytest.approx(0.4), pytest.approx(0.4), pytest.approx(0.9))
        assert s == pytest.approx(np.sqrt(0.4 * 0.2) * 0.5)

    def test_requires_joint(self):
        with pytest.raises(ValidationError):
            decompose_two_step(MachineSpec("ncm", 0.5, None, 1, [[0.1], [0.1]]))
        with pytest.raises(ValidationError):
            ray_terms("teleport", 0.5, 0.9, [[0.1], [0.1]])

    def test_ray_degenerates_outside_case2(self):
        # |beta| below the success sum: the ratio's denominator hits zero, while
        # the determinant stays nonnegative along the whole ray
        spec = sym_joint(0.5, 0.1, [0.3])
        with pytest.raises(NumericalError):
            f_value(spec.r[0], spec.r[1], 0.5, 0.1)
        assert ray_limit(*supp_ray(spec), 1.0) == 1.0
        assert decompose_two_step(spec).case_tag == "case1"


class TestDecompose:
    def test_case1_worked(self):
        plan = decompose_two_step(sym_joint(0.5, 0.1, [0.3]))
        assert plan.case_tag == "case1"
        np.testing.assert_allclose(plan.supp.r, 1.0)
        np.testing.assert_allclose(plan.ncm.r, 0.0)
        assert plan.composed_success == (1.0, 1.0)

    def test_case2_worked_m1(self):
        plan = decompose_two_step(WORKED)
        assert plan.case_tag == "case2_II"
        assert plan.root_t == pytest.approx(0.4, abs=1e-12)
        np.testing.assert_allclose(plan.supp.r, 0.2, atol=1e-12)
        np.testing.assert_allclose(plan.ncm.r, 0.375, atol=1e-12)
        assert plan.composed_success[0] == pytest.approx(0.5, abs=1e-12)

    def test_case2_worked_m2(self):
        plan = decompose_two_step(sym_joint(0.5, 0.9, [0.2, 0.3]))
        assert plan.root_t == pytest.approx(4 / 13, abs=1e-10)
        np.testing.assert_allclose(plan.supp.r[0], [0.8 / 13, 1.2 / 13], atol=1e-10)
        np.testing.assert_allclose(plan.ncm.r[0], [1.8 / 11, 2.7 / 11], atol=1e-10)
        assert plan.composed_success[0] == pytest.approx(0.5, abs=1e-10)

    def test_case2_I_keeps_r(self):
        spec = sym_joint(0.5, 0.9, [0.05])
        plan = decompose_two_step(spec)
        assert plan.case_tag == "case2_I"
        np.testing.assert_allclose(plan.supp.r, spec.r)
        np.testing.assert_allclose(plan.ncm.r, 0.0)

    def test_members_feasible_and_success_preserved(self):
        rng = np.random.default_rng(89)
        for _ in range(300):
            spec = random_feasible_spec(rng, kind="joint")
            plan = decompose_two_step(spec)
            assert feasible(plan.supp).feasible
            assert feasible(plan.ncm).feasible
            for i in range(2):
                assert plan.composed_success[i] >= spec.sum_r[i] - 1e-9

    def test_collinearity_identity_case2(self):
        rng = np.random.default_rng(97)
        checked = 0
        for _ in range(200):
            spec = random_feasible_spec(rng, kind="joint")
            plan = decompose_two_step(spec)
            if plan.case_tag != "case2_II":
                continue
            checked += 1
            r, rb = spec.r, plan.supp.r
            lhs = np.sqrt((r[0] - rb[0]) * (r[1] - rb[1]))
            rhs = np.sqrt(r[0] * r[1]) - np.sqrt(rb[0] * rb[1])
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)
        assert checked > 10

    def test_zero_slots_stay_zero(self):
        spec = MachineSpec("joint", 0.5, 0.9, 3, [[0.2, 0.0, 0.1], [0.1, 0.0, 0.2]])
        plan = decompose_two_step(spec)
        assert np.all(plan.supp.r[:, 1] == 0)
        assert np.all(plan.ncm.r[:, 1] == 0)

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleError):
            decompose_two_step(sym_joint(0.5, 0.8, [0.9]))

    def test_requires_joint_kind(self):
        with pytest.raises(ValidationError):
            decompose_two_step(MachineSpec("ncm", 0.5, None, 1, [[0.1], [0.1]]))


class TestDecomposeMany:
    def test_rows_match_single_calls(self):
        rng = np.random.default_rng(163)
        for m in (1, 2, 3):
            specs = [random_feasible_spec(rng, kind="joint", m=m, real_overlaps=bool(i % 2)) for i in range(40)]
            r = np.stack([s.r for s in specs])
            r[5, 0, 0] = 1.5  # an invalid row, and below a row that is likely infeasible
            r[7] = 0.98 / m
            batch = feasibility_core("joint", [s.alpha for s in specs], [s.beta for s in specs], m, r)
            cases = set()
            for i, plan in enumerate(decompose_many(batch)):
                try:
                    single = decompose_two_step(MachineSpec("joint", specs[i].alpha, specs[i].beta, m, r[i]))
                except (ValidationError, InfeasibleError) as exc:
                    assert type(plan) is type(exc) and str(plan) == str(exc)
                    continue
                for got in (plan, decompose_two_step(batch.spec(i))):  # a row, and a row's length-1 call
                    assert (got.case_tag, got.root_t, got.composed_success) == (
                        single.case_tag, single.root_t, single.composed_success)
                    assert np.array_equal(got.supp.r, single.supp.r) and np.array_equal(got.ncm.r, single.ncm.r)
                    assert (got.supp_report.det, got.ncm_report.slack) == (single.supp_report.det,
                                                                         single.ncm_report.slack)
                cases.add(plan.case_tag)
            assert isinstance(decompose_many(batch)[5], ValidationError)
        assert cases >= {"case2_I", "case2_II"}


class TestCompose:
    def test_worked_inverse(self):
        supp = MachineSpec("supplementary", 0.5, 0.9, 1, [[0.2], [0.2]])
        ncm = MachineSpec("ncm", 0.5, None, 1, [[0.375], [0.375]])
        joint = compose(supp, ncm)
        np.testing.assert_allclose(joint.r, 0.5, atol=1e-12)
        assert feasible(joint).feasible

    def test_zero_supplementary(self):
        supp = MachineSpec("supplementary", 0.5, 0.9, 2, np.zeros((2, 2)))
        ncm = MachineSpec("ncm", 0.5, None, 2, [[0.1, 0.2], [0.2, 0.1]])
        joint = compose(supp, ncm)
        np.testing.assert_allclose(joint.r, ncm.r)

    def test_zero_ncm(self):
        supp = MachineSpec("supplementary", 0.5, 0.9, 1, [[0.1], [0.15]])
        ncm = MachineSpec("ncm", 0.5, None, 1, np.zeros((2, 1)))
        joint = compose(supp, ncm)
        np.testing.assert_allclose(joint.r, supp.r)

    def test_random_pairs_compose_feasibly(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            supp, ncm = random_member_pair(rng)
            joint = compose(supp, ncm)
            assert feasible(joint).feasible
            # per-slot amplitude inequality for composed machines
            w = np.sqrt(np.prod(1.0 - supp.sum_r))
            lhs = np.sqrt(joint.r[0] * joint.r[1])
            rhs = w * np.sqrt(ncm.r[0] * ncm.r[1]) + np.sqrt(supp.r[0] * supp.r[1])
            assert np.all(lhs >= rhs - 1e-10)

    def test_alpha_mismatch_rejected(self):
        supp = MachineSpec("supplementary", 0.5, 0.9, 1, [[0.1], [0.1]])
        ncm = MachineSpec("ncm", 0.6, None, 1, [[0.1], [0.1]])
        with pytest.raises(ValidationError):
            compose(supp, ncm)

    def test_infeasible_member_rejected(self):
        supp = MachineSpec("supplementary", 0.9, 1.0, 1, [[0.5], [0.5]])
        ncm = MachineSpec("ncm", 0.9, None, 1, [[0.1], [0.1]])
        with pytest.raises(InfeasibleError):
            compose(supp, ncm)


def _bits(x) -> bytes:
    return np.ascontiguousarray(x).tobytes()


def _reference_compose(supp: MachineSpec, ncm: MachineSpec, tol: float) -> MachineSpec:
    """compose's checks and its joint machine, built by full validation only: a spec, then the spec with p."""
    if supp.kind != "supplementary" or ncm.kind != "ncm":
        raise ValidationError("compose expects a supplementary member and an ncm member")
    if supp.m != ncm.m:
        raise ValidationError("members disagree on copy depth m")
    if abs(supp.alpha - ncm.alpha) > tol:
        raise ValidationError("members disagree on the original-state overlap alpha")
    if not feasible(supp, tol).feasible:
        raise InfeasibleError("supplementary member is infeasible")
    if not feasible(ncm, tol).feasible:
        raise InfeasibleError("ncm member is infeasible")
    joint = MachineSpec("joint", supp.alpha, supp.beta, supp.m, supp.r + (1.0 - supp.sum_r)[:, None] * ncm.r)
    joint = dataclasses.replace(joint, p=optimal_probe_overlaps(joint))
    if not feasible(joint, tol).feasible:
        raise NumericalError("composed joint machine failed the feasibility assertion")
    return joint


def _outcome_bits(outcome) -> tuple:
    if isinstance(outcome, Exception):
        return type(outcome).__name__, str(outcome)
    rep = feasible(outcome)
    return (outcome.kind, _bits(np.complex128(outcome.alpha)), _bits(np.complex128(outcome.beta)), _bits(outcome.r),
            _bits(outcome.p), _bits(np.array([rep.det, rep.slack])), rep.feasible, rep.reduced_applicable,
            _bits(rep.residual), _bits(rep.p_used))


class TestComposeMany:
    """compose_many composes row i of two member batches exactly as compose composes that pair alone."""

    def _members(self, rng, n: int, m: int) -> tuple:
        alpha = np.array([complex(rng.uniform(0.0, 0.95) * np.exp(1j * rng.uniform(0, 2 * np.pi))) for _ in range(n)])
        beta = rng.uniform(0.0, 1.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        r_b = rng.dirichlet(np.ones(m + 1), (n, 2))[..., :m] * rng.uniform(0.0, 1.0, (n, 1, 1))
        r_a = rng.dirichlet(np.ones(m + 1), (n, 2))[..., :m] * rng.uniform(0.0, 1.0, (n, 1, 1))
        ncm_alpha = np.where(rng.random(n) < 0.1, alpha + 1e-3, alpha)  # some rows disagree on alpha
        r_a[::11] *= 3.0  # some ncm rows fail validation
        return (feasibility_core("supplementary", alpha, beta, m, r_b),
                feasibility_core("ncm", ncm_alpha, None, m, r_a))

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_rows_match_the_pair_alone(self, m):
        rng = np.random.default_rng(300 + m)
        supp, ncm = self._members(rng, 120, m)
        outcomes = compose_many(supp, ncm)
        kinds = set()
        for i, outcome in enumerate(outcomes):
            error = supp.error(i) or ncm.error(i)
            want = error if error is not None else capture(_reference_compose, supp.spec(i), ncm.spec(i), 1e-9)
            assert _outcome_bits(outcome) == _outcome_bits(want), i
            if error is None:  # and compose, its length-1 call, agrees
                assert _outcome_bits(capture(compose, supp.spec(i), ncm.spec(i))) == _outcome_bits(want), i
            kinds.add(type(outcome).__name__)
        assert kinds == {"MachineSpec", "ValidationError", "InfeasibleError"}

    def test_whole_batch_errors_in_order(self):
        r = np.full((2, 2, 1), 0.1)
        supp = feasibility_core("supplementary", [0.5, 1.5], [0.9, 0.9], 1, r)
        cases = [  # (supp, ncm, errors of the two rows)
            (supp, feasibility_core("ncm", [0.5, 0.5], None, 2, np.full((2, 2, 2), 0.1)),
             ["members disagree on copy depth m", "|alpha| = 1.5 exceeds 1"]),
            (supp, feasibility_core("joint", [0.5, 0.5], [0.9, 0.9], 1, r),
             ["compose expects a supplementary member and an ncm member", "|alpha| = 1.5 exceeds 1"]),
            (supp, feasibility_core("ncm", [0.5, 0.5], None, 2, r),
             ["r must have shape (2, 2), got (2, 1)", "|alpha| = 1.5 exceeds 1"]),
            (feasibility_core("ncm", [0.5, 0.5], None, 1, r), feasibility_core("ncm", [0.5, 2.0], None, 1, r),
             ["compose expects a supplementary member and an ncm member", "|alpha| = 2 exceeds 1"]),
        ]
        for supp_b, ncm_b, want in cases:
            errors, joint = compose_arrays(supp_b, ncm_b)
            assert [str(e) for e in errors] == want and joint is None
        with pytest.raises(ValidationError, match="differ in length"):
            compose_arrays(supp, feasibility_core("ncm", [0.5], None, 1, r[:1]))

    def test_joint_fault_then_joint_verdict(self):
        # a certain-success supplementary row composes onto the forbidden joint total 1
        supp = feasibility_core("supplementary", [0.9, 0.9], [0.1, 0.1], 1, np.array([[[1.0], [0.5]], [[0.9], [0.5]]]))
        ncm = feasibility_core("ncm", [0.9, 0.9], None, 1, np.zeros((2, 2, 1)))
        errors, joint = compose_arrays(supp, ncm)
        assert str(errors[0]) == "a joint machine with nonzero alpha*beta cannot have total success 1"
        assert errors[1] is None and joint.report(1).feasible and joint.p is not None
        with pytest.raises(ValidationError, match="total success 1"):
            compose(supp.spec(0), ncm.spec(0))


class TestRoundTrip:
    def test_decompose_then_compose(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            spec = random_feasible_spec(rng, kind="joint")
            plan = decompose_two_step(spec)
            if plan.case_tag == "case1":
                # composing a certain-success supplementary member would put a
                # joint machine on the forbidden total-success boundary
                continue
            joint = compose(plan.supp, plan.ncm)
            expect = plan.supp.r + (1.0 - plan.supp.sum_r)[:, None] * plan.ncm.r
            np.testing.assert_allclose(joint.r, expect, atol=1e-9)
            np.testing.assert_allclose(joint.sum_r, plan.composed_success, atol=1e-9)

    def test_compose_then_decompose(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            supp, ncm = random_member_pair(rng)
            joint = compose(supp, ncm)
            totals = [
                supp.sum_r[i] + (1.0 - supp.sum_r[i]) * ncm.sum_r[i] for i in range(2)
            ]
            plan = decompose_two_step(joint)
            for i in range(2):
                assert plan.composed_success[i] >= totals[i] - 1e-9
                if plan.case_tag != "case1":
                    assert plan.composed_success[i] == pytest.approx(totals[i], abs=1e-9)


class TestStrategySuccess:
    def test_worked_value(self):
        for strategy in ("b_to_a", "a_to_b", "two_way"):
            out = strategy_success((0.3, 0.3), (0.4, 0.4), strategy)
            assert out[0] == pytest.approx(0.58)

    def test_degenerate_values(self):
        assert strategy_success((0.0, 0.0), (0.7, 0.2), "b_to_a") == pytest.approx((0.7, 0.2))
        assert strategy_success((1.0, 1.0), (0.3, 0.9), "a_to_b") == pytest.approx((1.0, 1.0))

    def test_three_formulas_agree(self):
        rng = np.random.default_rng(109)
        for _ in range(2000):
            ra = tuple(rng.uniform(0, 1, 2))
            rb = tuple(rng.uniform(0, 1, 2))
            vals = [strategy_success(ra, rb, s) for s in ("b_to_a", "a_to_b", "two_way")]
            for i in range(2):
                assert abs(vals[0][i] - vals[1][i]) < 1e-12
                assert abs(vals[0][i] - vals[2][i]) < 1e-12

    def test_symmetric_and_monotone(self):
        rng = np.random.default_rng(113)
        for _ in range(200):
            ra, rb = rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)
            fwd = strategy_success(tuple(ra), tuple(rb), "two_way")
            rev = strategy_success(tuple(rb), tuple(ra), "two_way")
            assert fwd == pytest.approx(rev)
            bumped = np.minimum(ra + 0.05, 1.0)
            assert np.all(
                np.asarray(strategy_success(tuple(bumped), tuple(rb), "two_way"))
                >= np.asarray(fwd) - 1e-15
            )

    def test_range_validated(self):
        with pytest.raises(ValidationError):
            strategy_success((1.2, 0.0), (0.0, 0.0), "two_way")
