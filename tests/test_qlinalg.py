import numpy as np
import pytest

from clonekit.errors import ValidationError
from clonekit.machine import MachineSpec
from clonekit.qlinalg import (
    LowRankUnitary,
    cholesky_psd2,
    inner,
    low_rank_unitary,
    psd2_check,
    tensor,
)
from clonekit.states import canonical_pair
from clonekit.synthesis import realize
from helpers import boundary_scale, random_gram_matched, random_psd2

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)


class TestInner:
    def test_orthonormal_basis(self):
        assert inner(E0, E0) == 1
        assert inner(E0, E1) == 0

    def test_superposition(self):
        plus = (E0 + E1) / np.sqrt(2)
        assert inner(plus, E0) == pytest.approx(1 / np.sqrt(2))

    def test_conjugate_linear_first_argument(self):
        a = np.array([1j, 0.5])
        b = np.array([0.25, -1j])
        assert inner(1j * a, b) == pytest.approx(-1j * inner(a, b))
        assert inner(a, 1j * b) == pytest.approx(1j * inner(a, b))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            inner(E0, np.ones(3))

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            a = rng.normal(size=4) + 1j * rng.normal(size=4)
            b = rng.normal(size=4) + 1j * rng.normal(size=4)
            lhs = abs(inner(a, b)) ** 2
            rhs = inner(a, a).real * inner(b, b).real
            assert lhs <= rhs + 1e-12


class TestTensor:
    def test_basis(self):
        out = tensor(E0, E0)
        assert out.shape == (4,)
        assert out[0] == 1

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        assert np.linalg.norm(tensor(a, b)) == pytest.approx(1.0, abs=1e-12)

    def test_inner_product_factorizes(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b, c, d = (rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(4))
            lhs = inner(tensor(a, b), tensor(c, d))
            assert lhs == pytest.approx(inner(a, c) * inner(b, d), abs=1e-10)

    def test_associative_up_to_flattening(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        np.testing.assert_allclose(
            tensor(tensor(a, b), c), tensor(a, tensor(b, c)), rtol=1e-14, atol=1e-15
        )


class TestPsd2Check:
    def test_identity(self):
        det, ok = psd2_check(np.eye(2))
        assert det == pytest.approx(1.0) and ok

    def test_rank_one_boundary(self):
        det, ok = psd2_check(np.ones((2, 2)))
        assert det == pytest.approx(0.0) and ok

    def test_indefinite(self):
        det, ok = psd2_check(np.array([[1.0, 1.1], [1.1, 1.0]]))
        assert det == pytest.approx(-0.21)
        assert not ok

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            psd2_check(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestCholeskyPsd2:
    def test_identity(self):
        np.testing.assert_allclose(cholesky_psd2(np.eye(2)), np.eye(2))

    def test_rank_one(self):
        L = cholesky_psd2(np.ones((2, 2)))
        np.testing.assert_allclose(L, np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_zero_leading_entry(self):
        L = cholesky_psd2(np.diag([0.0, 2.0]).astype(complex))
        np.testing.assert_allclose(L, np.diag([0.0, np.sqrt(2)]))
        assert np.all(L[:, 0] == 0)

    def test_reconstructs_random_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            h = random_psd2(rng)
            L = cholesky_psd2(h)
            assert np.max(np.abs(L @ L.conj().T - h)) < 1e-10
            assert L[0, 1] == 0  # lower triangular

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError):
            cholesky_psd2(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestExtendToUnitary:
    """The dense unitary of low_rank_unitary maps each input onto its output."""

    def test_identity_case(self):
        # Basis inputs onto orthogonal basis outputs: U swaps e0, e1 with
        # e2, e3 and is the identity on e4, e5.
        e = np.eye(6, dtype=complex)
        u = low_rank_unitary([e[0], e[1]], [e[2], e[3]]).dense()
        np.testing.assert_allclose(u, e[[2, 3, 0, 1, 4, 5]], atol=1e-12)

    def test_forced_mapped_direction(self):
        u = low_rank_unitary([E0], [E1]).dense()
        np.testing.assert_allclose(u @ E0, E1, atol=1e-12)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_random_gram_matched_dim8(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            ins, outs = random_gram_matched(rng, 8)
            u = low_rank_unitary(ins, outs).dense()
            assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-10
            for a, b in zip(ins, outs):
                assert np.max(np.abs(u @ a - b)) < 1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        ins, outs = random_gram_matched(rng, 6)
        u1 = low_rank_unitary(ins, outs).dense()
        u2 = low_rank_unitary(ins, outs).dense()
        np.testing.assert_array_equal(u1, u2)

    def test_gram_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            low_rank_unitary([E0], [0.5 * E0]).dense()

    def test_linear_dependence_rejected(self):
        with pytest.raises(ValidationError):
            low_rank_unitary([E0, E0], [E0, E0]).dense()

    def test_overlapping_inputs_and_outputs_rejected(self):
        with pytest.raises(ValidationError, match="not orthogonal"):
            low_rank_unitary([E0], [(E0 + E1) / np.sqrt(2)])


class TestLowRankUnitary:
    def test_factors_move_only_the_stacked_span(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            ins, outs = random_gram_matched(rng, 8)
            lr = low_rank_unitary(ins, outs)
            assert lr.q.shape == (8, 4) and lr.w.shape == (4, 4)
            assert np.max(np.abs(lr.q.conj().T @ lr.q - np.eye(4))) < 1e-12
            assert np.max(np.abs(lr.w.conj().T @ lr.w - np.eye(4))) < 1e-12
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            outside = v - lr.q @ (lr.q.conj().T @ v)
            np.testing.assert_allclose(lr.apply(outside), outside, rtol=0, atol=1e-12)
            np.testing.assert_allclose(lr.apply(v), lr.dense() @ v, rtol=0, atol=1e-12)
            for a, b in zip(ins, outs):
                assert np.max(np.abs(lr.apply(a) - b)) < 1e-12
                assert np.max(np.abs(lr.apply(b) - a)) < 1e-12  # a swap: U = U^dagger

    def test_factored_defect_of_exact_and_perturbed_factors(self):
        # The certificate is the spectral norm ||U^dagger U - I||_2, which
        # bounds the largest entry of U^dagger U - I from above.
        rng = np.random.default_rng(23)
        ins, outs = random_gram_matched(rng, 8)
        lr = low_rank_unitary(ins, outs)
        bad = LowRankUnitary(lr.q, lr.w * (1 + 1e-6))
        # A non-scalar error in W and a Q that is not orthonormal.
        skew_w = LowRankUnitary(lr.q, lr.w + 1e-6 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))))
        skew_q = LowRankUnitary(lr.q + 1e-6 * rng.normal(size=(8, 4)), lr.w)
        for u in (lr, bad, skew_w, skew_q):
            dense = u.dense()
            gap = dense.conj().T @ dense - np.eye(8)
            assert u.unitarity_defect() == pytest.approx(np.linalg.norm(gap, 2), abs=1e-14)
            assert u.unitarity_defect() >= np.max(np.abs(gap)) - 1e-15
        for u in (bad, skew_w, skew_q):
            assert u.unitarity_defect() > 1e-6

    @pytest.mark.parametrize("kind", ["joint", "supplementary", "ncm"])
    def test_defect_near_collinear_states(self, kind):
        # Gram-Schmidt with one re-orthogonalization pass keeps the factors
        # orthonormal to rounding as the two inputs become nearly parallel;
        # a single pass lets the defect grow to about 1e-12 at |alpha beta|
        # = 1 - 1e-7.
        r0 = np.array([[0.6, 0.4], [0.3, 0.7]])
        for gap in (1e-3, 1e-5, 1e-6, 1e-7):
            for phase in (1.0, np.exp(0.7j)):
                if kind == "ncm":
                    alpha, beta = (1.0 - gap) * phase, None
                else:
                    alpha, beta = np.sqrt(1.0 - gap) * phase, np.sqrt(1.0 - gap)
                for frac in (0.5, 0.999):
                    spec = MachineSpec(kind, alpha, beta, 2, frac * boundary_scale(kind, alpha, beta, 2, r0) * r0)
                    phi = None if beta is None else canonical_pair(beta)
                    rz = realize(spec, canonical_pair(alpha), phi)
                    assert rz.unitary.unitarity_defect() < 1e-14, (gap, phase, frac)
