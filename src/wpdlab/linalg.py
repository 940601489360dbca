"""Fixed-size complex matrix kernel (dimensions 2 and 4).

Everything in the interferometer model lives in C^2 (polarization, path) or
C^4 (path x polarization, marker x environment), so this module only handles
those two sizes and solves the 2x2 Hermitian eigenproblem in closed form
instead of calling an iterative solver.

Joint basis order is |0H>, |0V>, |1H>, |1V>: the first tensor factor is the
path (or marker) qubit, the second the polarization (or environment) qubit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionError, InvalidState

# Absolute tolerance for hermitian/unitary checks: ~100x double epsilon
# accumulated over products of <= 16-entry matrices.
TAG_TOL = 1e-12

SIGMA0 = np.eye(2, dtype=complex)
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA1, SIGMA2, SIGMA3)

KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)


def as_cmat(a, dim=None) -> np.ndarray:
    """Validate and return `a` as a finite complex square matrix of size 2 or 4."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
        raise DimensionError(f"expected a 2x2 or 4x4 matrix, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise DimensionError(f"expected a {dim}x{dim} matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidState("matrix entries must be finite (no NaN/inf)")
    return m


def is_hermitian(a) -> bool:
    m = as_cmat(a)
    return bool(np.max(np.abs(m - m.conj().T)) <= TAG_TOL)


def is_unitary(a) -> bool:
    m = as_cmat(a)
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= TAG_TOL)


def tensor2x2(a, b) -> np.ndarray:
    """Kronecker product C^2 x C^2 -> C^4 with the declared joint basis order.

    The first factor is the path qubit, the second the polarization qubit, so
    the result is indexed |0H>, |0V>, |1H>, |1V>.
    """
    return np.kron(as_cmat(a, 2), as_cmat(b, 2))


def partial_trace(m, keep) -> np.ndarray:
    """Trace a 4x4 operator down to 2x2, keeping the requested factor.

    `keep` is 0/"first" for the path factor or 1/"second" for the
    polarization factor under the joint basis order of `tensor2x2`.
    """
    m = as_cmat(m, 4).reshape(2, 2, 2, 2)
    if keep in (0, "first"):
        return np.einsum("ikjk->ij", m)
    if keep in (1, "second"):
        return np.einsum("kikj->ij", m)
    raise DimensionError(f"keep must be 0/'first' or 1/'second', got {keep!r}")


class HermEig2(NamedTuple):
    """Eigenpairs of a 2x2 Hermitian matrix, eigenvalues descending.

    `vectors[:, i]` is the orthonormal eigenvector for `values[i]`, with the
    largest-magnitude component made real-positive so results are
    reproducible across platforms.
    """

    values: np.ndarray
    vectors: np.ndarray


def _fix_phase(v: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(v)))
    ph = v[k] / abs(v[k])
    return v * ph.conjugate()


def herm_eig2(h) -> HermEig2:
    """Closed-form eigendecomposition of a 2x2 Hermitian matrix.

    Uses the quadratic characteristic formula; no iteration. A degenerate
    spectrum returns the (|H>, |V>) basis by convention.
    """
    h = as_cmat(h, 2)
    if not is_hermitian(h):
        raise InvalidState("herm_eig2 requires a Hermitian matrix")
    a = h[0, 0].real
    d = h[1, 1].real
    b = h[0, 1]
    mean = 0.5 * (a + d)
    r = np.hypot(0.5 * (a - d), abs(b))
    values = np.array([mean + r, mean - r])
    if r <= TAG_TOL:
        return HermEig2(values, np.eye(2, dtype=complex))
    if abs(b) <= TAG_TOL:
        # already diagonal: order basis vectors by eigenvalue
        vectors = np.eye(2, dtype=complex) if a >= d else np.eye(2, dtype=complex)[:, ::-1]
        return HermEig2(values, vectors)
    # eigenvector for the larger eigenvalue; pick the better-conditioned form
    lam = values[0]
    cand1 = np.array([b, lam - a])
    cand2 = np.array([lam - d, np.conj(b)])
    v1 = cand1 if np.linalg.norm(cand1) >= np.linalg.norm(cand2) else cand2
    v1 = _fix_phase(v1 / np.linalg.norm(v1))
    v2 = _fix_phase(np.array([-np.conj(v1[1]), np.conj(v1[0])]))
    return HermEig2(values, np.column_stack([v1, v2]))


def trace_norm_herm(h) -> float:
    """Trace norm sum|lambda_i| of a 2x2 Hermitian matrix (closed form)."""
    values, _ = herm_eig2(h)
    return float(np.sum(np.abs(values)))
