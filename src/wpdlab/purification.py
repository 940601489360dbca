"""Pure joint states over path x marker (x environment) and their functionals.

A mixed which-way marker is treated as one half of an entangled pure state of
marker (W) and environment (E); the which-path information then lives partly
in W and partly in the W-E correlations. This module carries the purification
bookkeeping: the visibility / predictability / concurrence triality for pure
joint states, the discriminating eigensystem of the joint-state difference,
and the joint-operator bound Tr(M Delta) <= D.

The environment is one effective qubit: only the two-dimensional subspace
spanned by the two branch states is ever populated. A W x E vector is held as
its 2x2 amplitude matrix A[marker, env]; `psi = A.reshape(4)` lists it in the
basis order |Ha>, |Hb>, |Va>, |Vb> (marker major). Column k of A is
sqrt(p_k) |phi_k>, the marker state of environment branch k, so
psi1 = (U x I_E) psi0 is `U @ A`, Tr_E |psi><psi| is `A A^+`, and
|det[phi_k0, phi_k1]| is the distinguishability of branch k. No 4x4 operator
is ever built. A rotated environment basis is always re-expressed in the
standard one; this is an isometry of the global state, so every functional is
unchanged by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import linalg, polarization
from .errors import InvalidState, NonUnitary

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class JointPureState:
    """c0 |0> (x) |psi0> + c1 |1> (x) |psi1> over path (x) R.

    R is the marker alone (2 amplitudes per branch) or marker x environment
    (4 amplitudes per branch); `amplitudes` is the assembled unit vector in
    path-major order.
    """

    amplitudes: np.ndarray
    c0: complex
    c1: complex
    psi0: np.ndarray
    psi1: np.ndarray


@dataclass(frozen=True)
class PurifiedWWM:
    """Marker mixture written as an entangled W x E pure-state pair.

    psi1 = (U x I_E) psi0 exactly by construction; tracing E out of psi0
    recovers the marker state that was purified. `psi0.reshape(2, 2)` is the
    amplitude matrix A[marker, env] of the module docstring.
    """

    c_alpha: float
    c_beta: float
    phi_alpha0: np.ndarray
    phi_beta0: np.ndarray
    psi0: np.ndarray
    psi1: np.ndarray
    unitary: np.ndarray

    @property
    def phi_alpha1(self) -> np.ndarray:
        return self.unitary @ self.phi_alpha0

    @property
    def phi_beta1(self) -> np.ndarray:
        return self.unitary @ self.phi_beta0


@dataclass(frozen=True)
class TrialityReport:
    visibility: float
    predictability: float
    concurrence: float
    path_polarization: float

    @property
    def pct_sum(self) -> float:
        """V^2 + Dp^2; equals P^2 for pure joint states."""
        return self.visibility**2 + self.predictability**2

    @property
    def triality_sum(self) -> float:
        return self.visibility**2 + self.predictability**2 + self.concurrence**2


def _unit(v, what: str, sizes=(2, 4)) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.size not in sizes:
        lengths = " or ".join(map(str, sizes))
        raise InvalidState(f"{what} must be a vector of length {lengths}, got shape {v.shape}")
    if abs(np.linalg.norm(v) - 1.0) > _NORM_TOL:
        raise InvalidState(f"{what} must be normalized, norm {np.linalg.norm(v)}")
    return v


def joint_state(c0, c1, psi0, psi1) -> JointPureState:
    """Assemble the entangled path-R state from amplitudes and branch vectors."""
    psi0 = _unit(psi0, "psi0")
    psi1 = _unit(psi1, "psi1")
    if psi0.size != psi1.size:
        raise InvalidState("psi0 and psi1 must live in the same space")
    c0 = complex(c0)
    c1 = complex(c1)
    if abs(abs(c0) ** 2 + abs(c1) ** 2 - 1.0) > _NORM_TOL:
        raise InvalidState("|c0|^2 + |c1|^2 must equal 1")
    amp = np.concatenate([c0 * psi0, c1 * psi1])
    return JointPureState(amplitudes=amp, c0=c0, c1=c1, psi0=psi0, psi1=psi1)


def path_density(state: JointPureState) -> np.ndarray:
    """Reduced 2x2 path state; off-diagonals carry c0 c1* <psi1|psi0>."""
    overlap = complex(state.psi1.conj() @ state.psi0)
    c0, c1 = state.c0, state.c1
    return np.array([
        [abs(c0) ** 2, c0 * np.conj(c1) * overlap],
        [np.conj(c0) * c1 * np.conj(overlap), abs(c1) ** 2],
    ])


def triality_report(state: JointPureState) -> TrialityReport:
    """Visibility, predictability, concurrence and path-mode polarization of a
    pure joint state; V^2 + Dp^2 = P^2 and V^2 + Dp^2 + C^2 = 1 hold."""
    overlap = complex(state.psi0.conj() @ state.psi1)
    v = abs(2.0 * state.c0 * state.c1 * overlap)
    dp = abs(abs(state.c0) ** 2 - abs(state.c1) ** 2)
    rho_q = path_density(state)
    gamma = float(np.trace(rho_q @ rho_q).real)
    p = float(np.sqrt(max(0.0, 2.0 * gamma - 1.0)))
    c = float(np.sqrt(max(0.0, 2.0 * (1.0 - gamma))))
    return TrialityReport(visibility=float(v), predictability=float(dp),
                          concurrence=c, path_polarization=p)


def _as_unitary(m, what: str) -> np.ndarray:
    u = linalg.as_cmat(m)
    if not linalg.is_unitary(u):
        raise NonUnitary(f"{what} must be unitary")
    return u


def _purified(c, phis, u) -> PurifiedWWM:
    """Unchecked builder from branch amplitudes c_k, unit branch states
    phi_k (the columns of `phis`) and the marker unitary U."""
    amp = phis * c
    amp = amp / np.linalg.norm(amp)
    return PurifiedWWM(
        c_alpha=float(c[0]), c_beta=float(c[1]),
        phi_alpha0=phis[:, 0], phi_beta0=phis[:, 1],
        psi0=amp.reshape(4), psi1=(u @ amp).reshape(4), unitary=u,
    )


def purify_from_mixture(probabilities, states, unitary) -> PurifiedWWM:
    """Purification carrying an explicit rank-2 convex decomposition:
    psi0 = sqrt(p_a) |phi_a>|a> + sqrt(p_b) |phi_b>|b>, psi1 = (U x I) psi0."""
    u = _as_unitary(unitary, "marker transformation")
    p = np.asarray(probabilities, dtype=float)
    if p.shape != (2,) or np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-10:
        raise InvalidState(f"need two branch probabilities summing to 1, got {p}")
    phis = np.column_stack([_unit(states[0], "phi_alpha", sizes=(2,)),
                            _unit(states[1], "phi_beta", sizes=(2,))])
    return _purified(np.sqrt(np.clip(p, 0.0, 1.0)), phis, u)


def purify(rho0, unitary, e_basis_rotation=None) -> PurifiedWWM:
    """Purify a marker state against a qubit environment.

    The default decomposition is the spectral one (branch weights are the
    eigenvalues of rho0); an optional unitary on E re-expresses the same
    global state in a rotated environment basis, which sweeps every rank-2
    convex decomposition of rho0.
    """
    p1, v1, p2, v2 = polarization.eigendecompose_pol(rho0)
    c = np.sqrt([p1, p2])
    phis = np.column_stack([v1, v2])
    if e_basis_rotation is not None:
        r = _as_unitary(e_basis_rotation, "environment basis rotation")
        # psi0 = sum_k w_k (x) |k>; in the basis |j'> = R|j> the marker
        # components become w'_j = sum_k conj(R_kj) w_k, i.e. A' = A conj(R)
        amp = (phis * c) @ r.conj()
        c = np.linalg.norm(amp, axis=0)
        phis = np.column_stack([amp[:, j] / c[j] if c[j] > 1e-15 else linalg.KET_H
                                for j in range(2)])
    return _purified(c, phis, _as_unitary(unitary, "marker transformation"))


def _amplitude_matrices(p: PurifiedWWM) -> Tuple[np.ndarray, np.ndarray]:
    return p.psi0.reshape(2, 2), p.psi1.reshape(2, 2)


def marker_states(p: PurifiedWWM) -> Tuple[np.ndarray, np.ndarray]:
    """Reduced marker states (rho0, rho1) = Tr_E of the two branches, A A^+."""
    a0, a1 = _amplitude_matrices(p)
    return a0 @ a0.conj().T, a1 @ a1.conj().T


def joint_vcd(p: PurifiedWWM) -> Tuple[float, float, float]:
    """(V, C, D) of the purified pair: V = |<psi0|psi1>|, C = D = sqrt(1-V^2).

    D is taken from the Lagrange identity
    1 - |<psi0|psi1>|^2 = (1/2) sum_ij |psi0_i psi1_j - psi0_j psi1_i|^2,
    which, unlike 1 - V^2, does not cancel when psi1 is close to psi0.
    """
    v = abs(complex(p.psi0.conj() @ p.psi1))
    w = np.outer(p.psi0, p.psi1)
    w = w - w.T
    cd = float(np.sqrt(0.5 * np.vdot(w, w).real))
    return float(v), cd, cd


def delta_eigensystem(p: PurifiedWWM):
    """Eigensystem of Delta = |psi0><psi0| - |psi1><psi1|.

    Delta has rank <= 2 with eigenvalues +/-D inside span{psi0, psi1}; the
    solve happens in a Gram-Schmidt frame (psi0 first), never as a generic
    4x4 eigenproblem. Returns (D, psi_plus, psi_minus); when the branches
    coincide (overlap 1 within 1e-12) D = 0 and the eigenvectors are None.
    """
    overlap = complex(p.psi0.conj() @ p.psi1)
    d = float(np.sqrt(max(0.0, 1.0 - abs(overlap) ** 2)))
    if abs(overlap) >= 1.0 - 1e-12:
        return 0.0, None, None
    # frame: e1 = psi0, e2 = orthonormalized psi1; psi1 = (g, h) with h real
    g = overlap
    w = p.psi1 - g * p.psi0
    h = float(np.linalg.norm(w))
    e2 = w / h
    # Delta in frame: [[1-|g|^2, -g h], [-g* h, -h^2]], eigenvalues +/-h
    v_plus = np.array([1.0 + h, -np.conj(g)])
    v_plus /= np.linalg.norm(v_plus)
    v_minus = np.array([g, 1.0 + h])
    v_minus /= np.linalg.norm(v_minus)
    psi_plus = v_plus[0] * p.psi0 + v_plus[1] * e2
    psi_minus = v_minus[0] * p.psi0 + v_minus[1] * e2
    return d, psi_plus, psi_minus


def projective_d_value(p: PurifiedWWM) -> float:
    """D evaluated through its defining projective measurement:
    Tr(Pi_D Delta) with Pi_D = (|psi+><psi+| - |psi-><psi-|) / 2, which
    reduces to <psi+|pi0|psi+> + <psi-|pi1|psi-> - 1."""
    d, psi_plus, psi_minus = delta_eigensystem(p)
    if psi_plus is None:
        return 0.0
    p0_plus = abs(complex(psi_plus.conj() @ p.psi0)) ** 2
    p1_minus = abs(complex(psi_minus.conj() @ p.psi1)) ** 2
    return float(p0_plus + p1_minus - 1.0)


def m_operator_value(p: PurifiedWWM) -> float:
    """Tr(M Delta) for the separable joint-operator combination M built from
    the per-branch discriminating eigenvectors.

    M = (1/2) sum_k (|phi_k+><phi_k+| - |phi_k-><phi_k-|) (x) |k><k| gives
    Tr(M Delta) = p_a D_a + p_b D_b with D_k = |det[phi_k0, phi_k1]|, read
    here as the 2x2 determinant of column k of A and of U A. It is bounded
    by D, with equality when the two branch overlaps <phi_a0|phi_a1> and
    <phi_b0|phi_b1> coincide.
    """
    a0, a1 = _amplitude_matrices(p)
    return float(np.sum(np.abs(a0[0] * a1[1] - a0[1] * a1[0])))
