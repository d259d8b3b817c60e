import dataclasses
import re

import numpy as np
import pytest

from clonekit.errors import ValidationError
from clonekit.machine import (
    MachineSpec,
    _clamp_unit,
    dominance_premise,
    feasibility_core,
    feasible,
    optimal_probe_overlaps,
    ray_limit,
    ray_terms,
    reduced_inequality,
    residual_gram,
)
from helpers import rand_overlap, random_dominant_spec, random_feasible_spec, raw_r
from test_sweep_batching import _count_core_calls


def joint(alpha, beta, r, p=None, m=None):
    r = np.atleast_2d(r)
    if r.shape[0] == 1:
        r = np.vstack([r, r])
    return MachineSpec("joint", alpha, beta, m or r.shape[1], r, p)


class TestSpecValidation:
    def test_rejects_overlap_modulus_above_one(self):
        with pytest.raises(ValidationError):
            joint(1.5, 0.5, [[0.1]])
        with pytest.raises(ValidationError):
            joint(0.5, 1.0 + 1e-6, [[0.1]])

    def test_clamps_rounding_noise(self):
        spec = joint(1.0 + 5e-13, 0.5, [[0.1]])
        assert abs(spec.alpha) == 1.0

    def test_rejects_negative_r(self):
        with pytest.raises(ValidationError):
            joint(0.5, 0.5, [[-0.1]])

    def test_rejects_row_sum_above_one(self):
        with pytest.raises(ValidationError):
            joint(0.5, 0.5, [[0.6, 0.6]])

    def test_joint_total_one_rejected_when_overlaps_nonzero(self):
        with pytest.raises(ValidationError):
            joint(0.5, 0.5, [[1.0]])

    def test_total_one_allowed_at_zero_overlap_and_for_members(self):
        joint(0.0, 0.5, [[1.0]])  # alpha*beta = 0
        MachineSpec("ncm", 0.5, None, 1, [[1.0], [1.0]])
        MachineSpec("supplementary", 0.5, 0.3, 1, [[1.0], [1.0]])

    def test_ncm_ignores_beta(self):
        spec = MachineSpec("ncm", 0.5, 0.7, 1, [[0.2], [0.2]])
        assert spec.beta is None

    def test_requires_beta_for_joint(self):
        with pytest.raises(ValidationError):
            MachineSpec("joint", 0.5, None, 1, [[0.2], [0.2]])

    def test_rejects_probe_overlap_off_disk(self):
        with pytest.raises(ValidationError):
            joint(0.5, 0.5, [[0.1]], p=[1.5])

    @pytest.mark.parametrize("alpha,beta,p,message", [
        (np.nan, 0.5, None, "alpha is non-finite"),
        (complex(0.3, np.nan), 0.5, None, "alpha is non-finite"),
        (np.inf, 0.5, None, "alpha is non-finite"),
        (0.5, np.nan, None, "beta is non-finite"),
        (0.5, complex(-np.inf, 0.0), None, "beta is non-finite"),
        (0.5, 0.5, [np.nan], "p has non-finite entries"),
        (0.5, 0.5, [complex(0.0, np.inf)], "p has non-finite entries"),
        (np.nan, np.nan, [np.nan], "alpha is non-finite"),  # in MachineSpec's check order
        (0.5, np.nan, [np.nan], "beta is non-finite"),
    ])
    def test_rejects_non_finite_overlaps(self, alpha, beta, p, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            joint(alpha, beta, [[0.1]], p=p)
        # a core row faults alone, and the scalar clamp says the same
        batch = feasibility_core("joint", [0.5, alpha], [0.5, beta], 1, np.full((2, 2, 1), 0.1),
                                 None if p is None else [[1.0], p])
        assert batch.error(0) is None and str(batch.error(1)) == message
        if p is None:
            name, value = ("alpha", alpha) if message.startswith("alpha") else ("beta", beta)
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                _clamp_unit(value, name)


def _bits(x) -> bytes:
    return np.ascontiguousarray(x).tobytes()


class TestFeasibilityCore:
    FIELDS = ("fault", "sums", "diag", "det", "off", "lhs", "rhs", "premise", "p_opt", "p_used")

    @pytest.mark.parametrize("kind", ["joint", "ncm", "supplementary"])
    def test_rows_match_length_one_calls_bitwise(self, kind):
        rng = np.random.default_rng(181)
        for m in (1, 2, 4):
            n = 60
            alpha = np.array([rand_overlap(rng) for _ in range(n)])
            beta = np.array([rand_overlap(rng, 0.0, 1.0) for _ in range(n)])
            r = np.stack([raw_r(rng, m) * rng.uniform(0.0, 1.2) for _ in range(n)])
            r[::7] *= 2.0  # some rows fail validation
            for p in (None, 0.999 * np.exp(1j * rng.uniform(0, 2 * np.pi, (n, m)))):
                batch = feasibility_core(kind, alpha, beta, m, r, p)
                assert 0 < np.count_nonzero(batch.fault) < n
                for i in range(n):
                    one = feasibility_core(kind, alpha[i:i + 1], beta[i:i + 1], m, r[i:i + 1],
                                           None if p is None else p[i:i + 1])
                    assert one.fault[0] == batch.fault[i]
                    if batch.fault[i]:
                        assert str(one.error(0)) == str(batch.error(i))
                        continue
                    for name in self.FIELDS:
                        assert _bits(getattr(one, name)[0]) == _bits(getattr(batch, name)[i]), (name, i)

    def test_one_overlap_for_every_row(self):
        rng = np.random.default_rng(197)
        r = np.stack([raw_r(rng, 2) * rng.uniform(0.0, 1.3) for _ in range(30)])
        for kind, alpha, beta in (("joint", 0.4 + 0.3j, 0.8), ("supplementary", 0.6, -0.5j), ("ncm", 1.5, None)):
            shared = feasibility_core(kind, alpha, beta, 2, r)
            rows = feasibility_core(kind, np.full(30, alpha), None if beta is None else np.full(30, beta), 2, r)
            assert [str(shared.error(i)) for i in range(30)] == [str(rows.error(i)) for i in range(30)]
            if kind == "ncm":
                continue
            for name in self.FIELDS:
                assert _bits(getattr(shared, name)) == _bits(getattr(rows, name)), (kind, name)

    def test_optimal_residual_is_the_residual_of_its_probes(self):
        # the closed-form off-diagonal equals T - sum_k c_k p_k at the reported probes
        rng = np.random.default_rng(199)
        for _ in range(300):
            spec = random_feasible_spec(rng)
            rep = feasible(spec)
            explicit = residual_gram(spec.with_p(rep.p_used))
            assert abs(rep.residual[0, 1] - explicit[0, 1]) <= 1e-12
            assert abs(rep.residual[1, 0] - np.conj(rep.residual[0, 1])) == 0.0
            assert np.array_equal(rep.residual.diagonal(), explicit.diagonal())

    def test_spec_is_a_length_one_call(self):
        rng = np.random.default_rng(191)
        for _ in range(50):
            spec = random_feasible_spec(rng)
            batch = feasibility_core(spec.kind, [spec.alpha], None if spec.beta is None else [spec.beta],
                                     spec.m, spec.r[None])
            rep, want = feasible(spec), batch.report(0)
            assert (rep.det, rep.slack, rep.feasible, rep.reduced_applicable) == (
                want.det, want.slack, want.feasible, want.reduced_applicable)
            assert _bits(rep.residual) == _bits(want.residual) and _bits(rep.p_used) == _bits(want.p_used)

    def test_row_faults_carry_the_spec_messages(self):
        good = [[0.1], [0.1]]
        rows = [  # (alpha, beta, r, p, message or None), checked in MachineSpec's order
            (0.5, 0.5, good, [1.0], None),
            (1.5, 0.5, [[np.nan], [0.1]], [1.0], "|alpha| = 1.5 exceeds 1"),
            (0.5, 1.0 + 1e-6, good, [1.0], "|beta| = 1.000001 exceeds 1"),
            (0.5, 0.5, [[np.inf], [0.1]], [1.0], "r has non-finite entries"),
            (0.5, 0.5, [[-0.1], [0.1]], [1.0], "success probabilities must lie in [0, 1]"),
            (0.5, 0.5, [[1.0000001], [0.1]], [1.0], "success probabilities must lie in [0, 1]"),
            (0.5, 0.5, [[1.0], [0.1]], [1.0], "a joint machine with nonzero alpha*beta cannot have total success 1"),
            (0.5, 0.5, good, [1.5], "probe overlaps must lie on the closed unit disk"),
            (1.0 + 5e-13, 0.5, good, [1.0 + 5e-13], None),
        ]
        alpha, beta, r, p, want = zip(*rows)
        batch = feasibility_core("joint", alpha, beta, 1, np.array(r), np.array(p))
        for i, msg in enumerate(want):
            assert (None if batch.error(i) is None else str(batch.error(i))) == msg
            if msg is None:
                assert batch.report(i).feasible and abs(batch.alpha[i]) <= 1.0 and abs(batch.p[i, 0]) <= 1.0
            else:
                with pytest.raises(ValidationError, match=re.escape(msg)):
                    MachineSpec("joint", alpha[i], beta[i], 1, r[i], p[i])
        two = feasibility_core("ncm", [0.5, 0.5], None, 2, np.array([[[0.6, 0.6], [0.1, 0.1]]] * 2))
        assert str(two.error(1)) == "per-input success probabilities sum to 1.2 > 1"

    def test_whole_call_faults(self):
        r = np.full((2, 2, 1), 0.1)
        cases = [
            (("teleport", [0.5, 2.0], [0.5, 0.5], 1, r), ["unknown machine kind 'teleport'"] * 2),
            (("joint", [0.5, 0.5], [0.5, 0.5], 0, r), ["copy depth m must be >= 1"] * 2),
            (("joint", [0.5, 2.0], None, 1, r), ["kind 'joint' requires beta", "|alpha| = 2 exceeds 1"]),
            (("ncm", [0.5, 0.5], None, 2, r), ["r must have shape (2, 2), got (2, 1)"] * 2),
            (("ncm", [0.5, 0.5], None, 1, r, np.ones((2, 2))), ["p must have shape (1,), got (2,)"] * 2),
        ]
        for args, want in cases:
            batch = feasibility_core(*args)
            assert [str(batch.error(i)) for i in range(2)] == want


def _near_unit(rng, n: int) -> np.ndarray:
    """Random overlaps with modulus in (1, 1 + 1e-12]: rounding noise the validation clamps."""
    return (1.0 + rng.uniform(1e-16, 1e-12, n)) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))


class TestClampIsAFixedPoint:
    """A clamped overlap lies on the closed unit disk exactly, so validating it again moves no bit."""

    def test_scalar(self):
        clamped = []
        for z in _near_unit(np.random.default_rng(241), 20_000):
            once = _clamp_unit(z, "alpha")
            assert abs(once) <= 1.0
            assert _bits(np.complex128(_clamp_unit(once, "alpha"))) == _bits(np.complex128(once)), z
            clamped.append(once)
        # and the core, which measures moduli with numpy, keeps them too
        core = feasibility_core("ncm", clamped, None, 1, np.zeros((len(clamped), 2, 1)))
        assert _bits(core.alpha) == _bits(np.array(clamped))

    def test_batch_rows(self):
        rng = np.random.default_rng(251)
        n, m = 20_000, 2
        alpha, beta, p = _near_unit(rng, n), _near_unit(rng, n), _near_unit(rng, n * m).reshape(n, m)
        once = feasibility_core("joint", alpha, beta, m, np.full((n, 2, m), 0.01), p)
        assert not once.fault.any()
        again = feasibility_core("joint", once.alpha, once.beta, m, once.r, once.p)
        for name in ("alpha", "beta", "p"):
            assert np.abs(getattr(once, name)).max() <= 1.0
            assert _bits(getattr(again, name)) == _bits(getattr(once, name)), name

    def test_spec_validated_again(self):
        rng = np.random.default_rng(263)
        for alpha, beta, p in _near_unit(rng, 3000).reshape(1000, 3):
            spec = MachineSpec("joint", alpha, beta, 1, [[0.01], [0.01]], [p])
            again = spec.with_p(spec.p)
            assert (_bits(np.complex128(again.alpha)), _bits(np.complex128(again.beta)), _bits(again.p)) == (
                _bits(np.complex128(spec.alpha)), _bits(np.complex128(spec.beta)), _bits(spec.p))


def _probes(rng, n: int, m: int) -> np.ndarray:
    """Random probe overlaps: inside the disk, of modulus 1, or just outside it (the clamp)."""
    p = rng.uniform(0.0, 1.0, (n, m)) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (n, m)))
    unit = rng.random((n, m)) < 0.3
    p[unit] /= np.abs(p[unit])
    near = rng.random((n, m)) < 0.3
    p[near] = _near_unit(rng, int(near.sum()))
    return p


def _spec_bits(spec) -> tuple:
    """Every field of a spec, of its batch row and of its report, as bytes."""
    row = spec.as_batch()
    rep = feasible(spec)
    return (
        spec.kind, spec.m, _bits(np.complex128(spec.alpha)),
        None if spec.beta is None else _bits(np.complex128(spec.beta)), _bits(spec.r), _bits(spec.p),
        *(_bits(getattr(row, name)) for name in TestFeasibilityCore.FIELDS),
        _bits(np.array([rep.det, rep.slack])), rep.feasible, rep.reduced_applicable, _bits(rep.residual),
        _bits(rep.p_used),
    )


class TestWithP:
    """Probes set on a validated machine: only p is validated, and the result is a full validation's, bit for bit."""

    def _specs(self, rng, kind: str, m: int, n: int = 24) -> list:
        """Valid specs, built alone or as rows of one batch, some with probes and near-unit overlaps."""
        alpha = np.array([rand_overlap(rng) for _ in range(n)])
        beta = np.array([rand_overlap(rng, 0.0, 1.0) for _ in range(n)])
        alpha[::3], beta[1::3] = _near_unit(rng, len(alpha[::3])), _near_unit(rng, len(beta[1::3]))
        r = np.stack([raw_r(rng, m) * rng.uniform(0.0, 1.0) for _ in range(n)])
        p = _probes(rng, n, m)
        alone = [MachineSpec(kind, alpha[i], beta[i], m, r[i], p[i] if i % 2 else None) for i in range(n // 2)]
        batch = feasibility_core(kind, alpha, beta, m, r, None if rng.random() < 0.5 else p)
        assert not batch.fault.any()
        return alone + [batch.spec(i) for i in range(n // 2, n)]

    @pytest.mark.parametrize("kind", ["joint", "ncm", "supplementary"])
    def test_equals_full_validation_bitwise(self, kind, monkeypatch):
        rng = np.random.default_rng(271)
        calls = _count_core_calls(monkeypatch)
        for m in (1, 2, 3, 4):
            specs = self._specs(rng, kind, m)
            for spec, p in zip(specs, _probes(rng, len(specs), m)):
                want = dataclasses.replace(spec, p=p)
                calls.clear()
                got = spec.with_p(p)
                assert calls == []  # no core call
                assert _spec_bits(got) == _spec_bits(want)
                assert _spec_bits(got.with_p(got.p)) == _spec_bits(want)  # a fixed point
                assert _spec_bits(spec.with_p(None)) == _spec_bits(dataclasses.replace(spec, p=None))

    @pytest.mark.parametrize("p,message", [
        ([0.5, 0.5], "p must have shape (1,), got (2,)"),
        ([[0.5]], "p must have shape (1,), got (1, 1)"),
        ([1.5], "probe overlaps must lie on the closed unit disk"),
        ([1.0 + 2e-12], "probe overlaps must lie on the closed unit disk"),
        ([np.nan], "p has non-finite entries"),
    ])
    def test_errors_are_full_validation_errors(self, p, message):
        for spec in (joint(0.5, 0.5, [[0.1]]), joint(0.5, 0.5, [[0.1]], p=[0.5j])):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                spec.with_p(p)
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                dataclasses.replace(spec, p=p)

    @pytest.mark.parametrize("kind", ["joint", "ncm", "supplementary"])
    def test_batch_with_p_is_a_core_call_with_p(self, kind):
        rng = np.random.default_rng(277)
        n = 60
        for m in (1, 3):
            alpha = np.array([rand_overlap(rng) for _ in range(n)])
            beta = np.array([rand_overlap(rng, 0.0, 1.0) for _ in range(n)])
            r = np.stack([raw_r(rng, m) * rng.uniform(0.0, 1.2) for _ in range(n)])
            r[::7] *= 2.0  # rows that fail validation before p
            old, new = _probes(rng, n, m), _probes(rng, n, m)
            old[::5, 0], new[::4, -1], new[1::9, 0] = 1.5, 1.5, np.nan  # rows whose probes fail
            for base_p in (None, old):
                got = feasibility_core(kind, alpha, beta, m, r, base_p).with_p(new)
                want = feasibility_core(kind, alpha, beta, m, r, new)
                assert _bits(got.fault) == _bits(want.fault)
                assert [str(got.error(i)) for i in range(n)] == [str(want.error(i)) for i in range(n)]
                ok = want.fault == 0
                assert 0 < np.count_nonzero(ok) < n
                for name in ("alpha", "r", "p", *TestFeasibilityCore.FIELDS):
                    assert _bits(getattr(got, name)[ok]) == _bits(getattr(want, name)[ok]), name

    def test_caller_probes_are_not_frozen(self):
        # The batch keeps a read-only copy; the caller's own complex array
        # stays writable and unchanged.
        r = np.full((2, 2, 1), 0.1)
        for p in (np.array([[0.5], [0.25j]]), np.array([[1.0 + 1e-13], [0.5]], dtype=np.complex128)):
            before = p.copy()
            base = feasibility_core("joint", [0.5, 0.5], [0.5, 0.5], 1, r, p)
            assert base.p is not p and not base.p.flags.writeable
            assert p.flags.writeable and _bits(p) == _bits(before)
            batch = feasibility_core("joint", [0.5, 0.5], [0.5, 0.5], 1, r).with_p(p)
            assert batch.p is not p and not batch.p.flags.writeable
            assert p.flags.writeable and _bits(p) == _bits(before)

    def test_whole_call_faults_as_the_core(self):
        r = np.full((2, 2, 1), 0.1)
        for args in (("ncm", [0.5, 0.5], None, 2, r), ("joint", [0.5, 0.5], None, 1, r),
                     ("ncm", [0.5, 0.5], None, 1, r, np.ones((2, 2)))):
            base = feasibility_core(*args)
            for p in (np.ones((2, args[3])), np.ones((2, 3))):
                got, want = base.with_p(p), feasibility_core(*args[:5], p)
                assert [str(got.error(i)) for i in range(2)] == [str(want.error(i)) for i in range(2)]
        good = feasibility_core("ncm", [0.5, 0.5], None, 1, r)
        want = ["p must have shape (1,), got (3,)"] * 2
        assert [str(good.with_p(np.ones((2, 3))).error(i)) for i in range(2)] == want


class TestResidualGram:
    def test_zero_success_part(self):
        spec = joint(0.5, 0.8, [[0.0]], p=[1.0])
        res = residual_gram(spec)
        np.testing.assert_allclose(res, [[1.0, 0.4], [0.4, 1.0]])

    def test_joint_worked_values(self):
        spec = joint(0.5, 1.0, [[0.5]], p=[1.0])
        res = residual_gram(spec)
        np.testing.assert_allclose(res, [[0.5, 0.375], [0.375, 0.5]])

    def test_ncm_boundary(self):
        spec = MachineSpec("ncm", 0.5, None, 1, [[2 / 3], [2 / 3]], [1.0])
        res = residual_gram(spec)
        assert res[0, 1] == pytest.approx(1 / 3)
        det = res[0, 0].real * res[1, 1].real - abs(res[0, 1]) ** 2
        assert det == pytest.approx(0.0, abs=1e-15)

    def test_supplementary_power_is_k(self):
        spec = MachineSpec("supplementary", 0.5, 0.9, 1, [[0.4], [0.4]], [1.0])
        res = residual_gram(spec)
        # off-diagonal: beta - sqrt(r1 r2) * alpha^1 * p
        assert res[0, 1] == pytest.approx(0.9 - 0.4 * 0.5)

    def test_missing_p_rejected(self):
        with pytest.raises(ValidationError):
            residual_gram(joint(0.5, 0.8, [[0.1]]))

    def test_hermitian_for_complex_overlaps(self):
        spec = joint(0.5 * np.exp(0.3j), 0.8 * np.exp(-1.1j), [[0.2, 0.1]], p=[0.9, 0.4j])
        res = residual_gram(spec)
        assert res[1, 0] == pytest.approx(np.conj(res[0, 1]))


class TestOptimalProbeOverlaps:
    def test_real_aligned_case(self):
        spec = joint(0.5, 0.5, [[0.2]])
        np.testing.assert_allclose(optimal_probe_overlaps(spec), [1.0])

    def test_zero_success_returns_ones(self):
        spec = joint(0.5, 0.8, [[0.0, 0.0]])
        np.testing.assert_allclose(optimal_probe_overlaps(spec), [1.0, 1.0])

    def test_phase_alignment(self):
        # alpha carries phase pi/3: aligning alpha^(k+1) p_k with alpha*beta
        # puts phase -k*pi/3 on p_k.
        alpha = 0.5 * np.exp(1j * np.pi / 3)
        spec = joint(alpha, 0.7, [[0.1, 0.1, 0.1]])
        p = optimal_probe_overlaps(spec)
        for k in range(1, 4):
            assert np.angle(p[k - 1]) == pytest.approx(-k * np.pi / 3, abs=1e-12)
            assert abs(p[k - 1]) == pytest.approx(1.0)

    def test_dominant_case_magnitude(self):
        spec = joint(0.5, 0.9, [[0.5]])
        p = spec_p = optimal_probe_overlaps(spec)
        res = residual_gram(spec.with_p(spec_p))
        assert abs(res[0, 1]) == pytest.approx(0.45 - 0.5 * 0.25)

    def test_subdominant_case_zeroes_offdiagonal(self):
        spec = MachineSpec("supplementary", 0.9, 0.1, 1, [[0.9], [0.9]])
        p = optimal_probe_overlaps(spec)
        res = residual_gram(spec.with_p(p))
        assert abs(res[0, 1]) < 1e-12
        assert abs(p[0]) < 1.0  # needs a sub-unit modulus

    def test_beats_random_polydisk_points(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            spec = random_feasible_spec(rng)
            best = abs(residual_gram(spec.with_p(optimal_probe_overlaps(spec)))[0, 1])
            moduli = rng.uniform(0, 1, spec.m)
            rival = moduli * np.exp(1j * rng.uniform(0, 2 * np.pi, spec.m))
            assert best <= abs(residual_gram(spec.with_p(rival))[0, 1]) + 1e-12


class TestFeasible:
    def test_orthogonal_originals_always_feasible(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            r = rng.random((2, 3))
            r = r / r.sum(axis=1, keepdims=True) * rng.uniform(0, 1.0, (2, 1))
            spec = MachineSpec("joint", 0.0, rng.uniform(0, 1), 3, r)
            assert feasible(spec).feasible

    def test_symmetric_boundary_example(self):
        # alpha=0.5, beta=0.8, m=1 symmetric: feasible exactly up to r = 0.8
        for r, expect in [(0.79, True), (0.8, True), (0.81, False)]:
            assert feasible(joint(0.5, 0.8, [[r]])).feasible is expect

    def test_boundary_against_inline_grid(self):
        best = 0.0
        for r in np.arange(0.0, 1.0, 1e-3):
            if feasible(joint(0.5, 0.8, [[r]])).feasible:
                best = max(best, r)
        assert best == pytest.approx(0.8, abs=1e-3)

    def test_dependent_supplementary_states_forbid_success(self):
        # |beta| = 1 with |alpha| < 1: any positive success total is infeasible
        rng = np.random.default_rng(71)
        for _ in range(50):
            m = int(rng.integers(1, 4))
            r = rng.random((2, m)) * 0.3 + 1e-3
            spec = MachineSpec("supplementary", rng.uniform(0.1, 0.9), 1.0, m, r)
            assert not feasible(spec).feasible

    def test_report_fields(self):
        rep = feasible(joint(0.5, 0.8, [[0.8]]))
        assert rep.feasible
        assert rep.reduced_applicable
        assert rep.slack == pytest.approx(0.0, abs=1e-12)
        assert rep.det == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(rep.p_used, [1.0])

    def test_explicit_p_disables_reduced_flag(self):
        rep = feasible(joint(0.5, 0.8, [[0.2]], p=[1.0]))
        assert not rep.reduced_applicable

    def test_duan_guo_consistency_sweep(self):
        # one-slot symmetric machine feasible iff r <= 1/(1+|alpha|)
        for a in np.arange(0.0, 0.95, 0.1):
            bound = 1.0 / (1.0 + a)
            for r in (bound - 1e-6, bound + 1e-6):
                if r > 1:
                    continue
                spec = MachineSpec("ncm", a, None, 1, [[r], [r]])
                assert feasible(spec).feasible is bool(r <= bound)

    def test_slotwise_shrinking_preserves_feasibility(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            spec = random_feasible_spec(rng)
            scale = rng.uniform(0, 1, spec.m)
            shrunk = MachineSpec(spec.kind, spec.alpha, spec.beta, spec.m, spec.r * scale)
            assert feasible(shrunk).feasible


class TestReducedInequality:
    def test_worked_joint(self):
        lhs, rhs, holds = reduced_inequality(joint(0.5, 0.9, [[0.5]]))
        assert lhs == pytest.approx(0.5)
        assert rhs == pytest.approx(0.325)
        assert holds

    def test_worked_ncm_boundary(self):
        lhs, rhs, holds = reduced_inequality(MachineSpec("ncm", 0.5, None, 1, [[2 / 3], [2 / 3]]))
        assert lhs == pytest.approx(1 / 3)
        assert rhs == pytest.approx(1 / 3)
        assert holds

    def test_zero_machine(self):
        lhs, rhs, holds = reduced_inequality(joint(0.5, 0.9, [[0.0]]))
        assert lhs == 1.0
        assert rhs == pytest.approx(0.45)
        assert holds

    def test_premise_violation_rejected(self):
        # beta below the success sum: |0.1| <= 0.3 * 0.5
        spec = joint(0.5, 0.1, [[0.3]])
        assert not dominance_premise(spec)
        with pytest.raises(ValidationError):
            reduced_inequality(spec)

    def test_matches_determinant_verdict_under_premise(self):
        rng = np.random.default_rng(79)
        kinds = ("joint", "ncm", "supplementary")
        seen = {True: 0, False: 0}
        for trial in range(600):
            spec = random_dominant_spec(rng, kind=kinds[trial % 3])
            lhs, rhs, holds = reduced_inequality(spec)
            assert feasible(spec).feasible is holds
            seen[holds] += 1
        assert seen[True] > 0 and seen[False] > 0


def ray_cases(seed: int, kind: str, count: int = 200):
    """Seeded (alpha, beta, m, direction) rays whose rows sum to 1."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(1, 5))
        raw = rng.random((2, m)) + 1e-3
        yield rand_overlap(rng), rand_overlap(rng, 0.05, 1.0), m, raw / raw.sum(axis=1, keepdims=True)


def bisect_ray(kind, alpha, beta, m, d, cap, steps=200):
    """Bisection on feasible() (tolerance 0) for the largest t <= cap with t*d feasible."""

    def ok(t):
        return feasible(MachineSpec(kind, alpha, None if kind == "ncm" else beta, m, t * d), tol=0.0).feasible

    if ok(cap):
        return cap
    lo, hi = 0.0, cap
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # the bracket is two adjacent floats; further steps change nothing
            break
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


class TestRayLimit:
    CAP = 0.999  # rows of t*d stay below total success 1

    @pytest.mark.parametrize("kind", ["joint", "ncm", "supplementary"])
    def test_matches_bisection_on_feasible(self, kind):
        interior = 0
        for alpha, beta, m, d in ray_cases(211, kind):
            t = ray_limit(*ray_terms(kind, alpha, beta, d), self.CAP)
            assert abs(t - bisect_ray(kind, alpha, beta, m, d, self.CAP)) <= 1e-12
            interior += t < self.CAP
        assert interior > 50

    def test_array_call_matches_scalar_calls_bitwise(self):
        terms = np.array([
            ray_terms(kind, alpha, beta, d)
            for kind in ("joint", "ncm", "supplementary")
            for alpha, beta, m, d in ray_cases(223, kind)
        ])
        caps = np.linspace(0.5, 1.0, len(terms))
        batched = ray_limit(*terms.T, caps)
        single = np.array([ray_limit(*row, cap) for row, cap in zip(terms, caps)])
        assert isinstance(single[0], float)
        assert np.array_equal(batched, single)

    def test_degenerate_rays(self):
        # empty direction: nothing binds but the cap
        assert ray_limit(0.0, 0.0, 0.0, 0.5, 0.7) == 0.7
        # |T| = 1: only the zero machine is feasible
        assert ray_limit(0.5, 0.5, 0.25, 1.0, 1.0) == 0.0
        # S = 0 (one row empty): the linear root (1 - |T|^2) / R1
        assert ray_limit(0.8, 0.0, 0.0, 0.6, 1.0) == pytest.approx(0.64 / 0.8, abs=1e-15)
        # T = 0: only the diagonal binds
        assert ray_limit(0.5, 0.8, 0.3, 0.0, 2.0) == pytest.approx(1.25, abs=1e-15)
