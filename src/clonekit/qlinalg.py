"""Dense complex linear-algebra kernel for small state vectors and matrices.

Everything in here is plain numpy on immutable inputs: inner products,
Kronecker products of vectors (one outer product per factor, never
``np.kron``), 2x2 positive-semidefiniteness tests and Cholesky factors, and
the unitary that maps a few vectors onto orthogonal vectors with the same
Gram matrix.  That unitary swaps the two spans: Gram-Schmidt bases Q_X and
Q_Y with one triangular factor give Q = [Q_X | Q_Y] and the swap W, kept in
the low-rank form U = I + Q (W - I) Q^dagger.  Its unitarity certificate is
the spectral norm ||U^dagger U - I||_2, read from a k x k matrix in
O(dim k^2).  The 2x2 routines are closed-form on purpose; no eigensolver is
involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Single knob for every numerical comparison in the package; callers may
# override per call.
DEFAULT_TOL = 1e-9


def as_cvector(v) -> np.ndarray:
    """Coerce to a 1-D complex128 array, checking finiteness."""
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1 or arr.size < 1:
        raise ValidationError(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("vector has non-finite entries")
    return arr


def inner(a, b) -> complex:
    """Inner product <a|b>, conjugate-linear in the first argument."""
    a = as_cvector(a)
    b = as_cvector(b)
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return complex(np.vdot(a, b))


def kron_vectors(*vectors: np.ndarray) -> np.ndarray:
    """Kronecker product of 1-D arrays, left to right: one outer product and ravel per factor."""
    out = vectors[0]
    for v in vectors[1:]:
        out = np.multiply.outer(out, v).ravel()
    return out


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two vectors; dim(a)*dim(b) entries."""
    return kron_vectors(as_cvector(a), as_cvector(b))


def _require_2x2_hermitian(h: np.ndarray, tol: float) -> np.ndarray:
    h = np.asarray(h, dtype=np.complex128)
    if h.shape != (2, 2):
        raise ValidationError(f"expected a 2x2 matrix, got shape {h.shape}")
    if abs(h[0, 1] - np.conj(h[1, 0])) > tol or abs(h[0, 0].imag) > tol or abs(h[1, 1].imag) > tol:
        raise ValidationError("matrix is not Hermitian within tolerance")
    return h


def psd2_check(h, tol: float = DEFAULT_TOL) -> tuple[float, bool]:
    """Determinant and PSD verdict for a 2x2 Hermitian matrix.

    A 2x2 Hermitian matrix is positive semidefinite exactly when both
    diagonal entries and the determinant are nonnegative; all three are
    tested against ``-tol``.

    Returns
    -------
    (det, verdict) : tuple[float, bool]
    """
    h = _require_2x2_hermitian(h, tol)
    d00 = float(h[0, 0].real)
    d11 = float(h[1, 1].real)
    det = d00 * d11 - abs(h[0, 1]) ** 2
    verdict = d00 >= -tol and d11 >= -tol and det >= -tol
    return det, bool(verdict)


def cholesky_psd2(h, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Lower-triangular L with L L^dagger = H for a PSD 2x2 matrix.

    Handles the semidefinite boundary: when an eigenvalue sits within
    ``tol`` of zero the corresponding column of L is zero, so rank-1
    inputs factor exactly.
    """
    h = _require_2x2_hermitian(h, tol)
    det, ok = psd2_check(h, tol)
    if not ok:
        raise ValidationError(f"matrix is not PSD within tolerance (det={det:.3e})")
    d00 = h[0, 0].real
    d11 = h[1, 1].real
    L = np.zeros((2, 2), dtype=np.complex128)
    if d00 > tol:
        l00 = np.sqrt(d00)
        l10 = h[1, 0] / l00
        rem = d11 - abs(l10) ** 2
        L[0, 0] = l00
        L[1, 0] = l10
        L[1, 1] = np.sqrt(max(rem, 0.0))
    else:
        # First diagonal within tol of zero forces |H01| ~ 0 by PSD-ness.
        L[1, 1] = np.sqrt(max(d11, 0.0))
    return L


@dataclass(frozen=True)
class LowRankUnitary:
    """U = I + Q (W - I) Q^dagger, a unitary that moves only range(Q).

    ``q`` is dim x k with orthonormal columns and ``w`` a k x k unitary;
    U is the identity on the orthogonal complement of range(Q).  Applying
    U costs O(dim k), building it densely O(dim^2 k).
    """

    q: np.ndarray
    w: np.ndarray

    def _shift(self) -> np.ndarray:
        return self.w - np.eye(self.w.shape[0])

    def apply(self, v) -> np.ndarray:
        """U @ v without forming U."""
        v = np.asarray(v, dtype=np.complex128)
        return v + self.q @ (self._shift() @ (self.q.conj().T @ v))

    def dense(self) -> np.ndarray:
        """U as a dim x dim matrix."""
        dim = self.q.shape[0]
        return np.eye(dim, dtype=np.complex128) + (self.q @ self._shift()) @ self.q.conj().T

    def unitarity_defect(self) -> float:
        """Spectral norm ||U^dagger U - I||_2, from the factors alone in O(dim k^2).

        With A = W - I and G = Q^dagger Q, U^dagger U - I = Q M Q^dagger
        where M = A + A^dagger + A^dagger G A, an identity that needs
        neither Q nor W to be exactly orthonormal.  The Cholesky factor
        G = L L^dagger, which needs Q's columns linearly independent, leaves
        the norm at ||L^dagger M L||_2, a k x k matrix: Q = Q' L^dagger
        with orthonormal Q'.  The spectral norm
        bounds every entry of U^dagger U - I, so it is never below the
        largest one.
        """
        a = self._shift()
        gram = self.q.conj().T @ self.q
        low = np.linalg.cholesky(gram)
        core = low.conj().T @ (a + a.conj().T + a.conj().T @ gram @ a) @ low
        return float(np.linalg.norm(core, 2))


def _gram_schmidt(vectors: list) -> tuple[list, np.ndarray]:
    """Orthonormal q[j] and upper-triangular T with vectors[j] = sum_i q[i] T[i, j].

    Gram-Schmidt with one re-orthogonalization pass ("twice is enough"),
    so q stays orthonormal to rounding however close to parallel the
    vectors are.  T has a nonnegative real diagonal, the residual norms;
    a vector with residual exactly zero is kept as it is, and the caller
    reads linear dependence from the diagonal.
    """
    q: list = []
    t = np.zeros((len(vectors), len(vectors)), dtype=np.complex128)
    for j, v in enumerate(vectors):
        for _ in range(2):
            for i, u in enumerate(q):
                c = np.vdot(u, v)
                v = v - c * u
                t[i, j] += c
        t[j, j] = nrm = np.sqrt(np.vdot(v, v).real)
        q.append(v / nrm if nrm > 0.0 else v)
    return q, t


def low_rank_unitary(inputs, outputs, tol: float = DEFAULT_TOL) -> LowRankUnitary:
    """Unitary U with U @ inputs[j] = outputs[j] for orthogonal, Gram-matched vector lists.

    Preconditions: equal counts and dimensions, inputs orthogonal to every
    output (X^dagger Y = 0), Gram(inputs) equal to Gram(outputs), each
    within ``tol``, and linearly independent inputs.  Gram-Schmidt gives
    X = Q_X T_X and Y = Q_Y T_Y; equal Gram matrices give T_X = T_Y
    (Cholesky factors are unique), so the swap W = [[0, I], [I, 0]] on
    Q = [Q_X | Q_Y] maps each X column onto the matching Y column and each
    Y column back: U = U^dagger exchanges span(X) and span(Y) and is the
    identity off both.  The result is deterministic.
    """
    ins = [as_cvector(v) for v in inputs]
    outs = [as_cvector(v) for v in outputs]
    if len(ins) != len(outs):
        raise ValidationError("input and output counts differ")
    if not ins:
        raise ValidationError("need at least one vector pair")
    dim = ins[0].shape[0]
    if any(v.shape[0] != dim for v in ins + outs):
        raise ValidationError("all vectors must share one dimension")
    n = len(ins)
    if n > dim:
        raise ValidationError("more vectors than dimensions")

    qx, tx = _gram_schmidt(ins)
    qy, ty = _gram_schmidt(outs)
    if np.max(np.abs(tx.conj().T @ tx - ty.conj().T @ ty)) > tol:
        raise ValidationError("Gram matrices of inputs and outputs disagree beyond tolerance")
    if min(tx.diagonal().real.min(), ty.diagonal().real.min()) <= tol:
        raise ValidationError("vectors are linearly dependent beyond tolerance")
    if np.max(np.abs(np.conj(ins) @ np.transpose(outs))) > tol:
        raise ValidationError("inputs and outputs are not orthogonal beyond tolerance")
    return LowRankUnitary(q=np.array(qx + qy).T, w=np.eye(2 * n, k=n) + np.eye(2 * n, k=-n))
