"""Pure joint states over path x marker (x environment) and their functionals.

A mixed which-way marker is treated as one half of an entangled pure state of
marker (W) and environment (E); the which-path information then lives partly
in W and partly in the W-E correlations. This module carries the purification
bookkeeping: the visibility / predictability / concurrence triality for pure
joint states, the discriminating eigensystem of the joint-state difference,
and the joint-operator bound Tr(M Delta) <= D.

The environment is one effective qubit: only the two-dimensional subspace
spanned by the two branch states is ever populated. W x E vectors use the
basis order |Ha>, |Hb>, |Va>, |Vb> (marker major), matching
`linalg.tensor2x2`. A rotated environment basis is always re-expressed in the
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
_E_ALPHA = np.array([1.0, 0.0], dtype=complex)
_E_BETA = np.array([0.0, 1.0], dtype=complex)


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
    recovers the marker state that was purified.
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


def _unit(v, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.size not in (2, 4):
        raise InvalidState(f"{what} must be a 2- or 4-vector, got shape {v.shape}")
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


def purify_from_mixture(probabilities, states, unitary) -> PurifiedWWM:
    """Purification carrying an explicit rank-2 convex decomposition:
    psi0 = sqrt(p_a) |phi_a>|a> + sqrt(p_b) |phi_b>|b>, psi1 = (U x I) psi0."""
    u = linalg.as_cmat(unitary, 2)
    if not linalg.is_unitary(u):
        raise NonUnitary("marker transformation must be unitary")
    p = np.asarray(probabilities, dtype=float)
    if p.shape != (2,) or np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-10:
        raise InvalidState(f"need two branch probabilities summing to 1, got {p}")
    p = np.clip(p, 0.0, 1.0)
    phi_a = _unit(states[0], "phi_alpha")
    phi_b = _unit(states[1], "phi_beta")
    psi0 = np.sqrt(p[0]) * np.kron(phi_a, _E_ALPHA) + np.sqrt(p[1]) * np.kron(phi_b, _E_BETA)
    psi0 /= np.linalg.norm(psi0)
    u_we = np.kron(u, np.eye(2, dtype=complex))
    return PurifiedWWM(
        c_alpha=float(np.sqrt(p[0])), c_beta=float(np.sqrt(p[1])),
        phi_alpha0=phi_a, phi_beta0=phi_b,
        psi0=psi0, psi1=u_we @ psi0, unitary=u,
    )


def purify(rho0, unitary, e_basis_rotation=None) -> PurifiedWWM:
    """Purify a marker state against a qubit environment.

    The default decomposition is the spectral one (branch weights are the
    eigenvalues of rho0); an optional unitary on E re-expresses the same
    global state in a rotated environment basis, which sweeps every rank-2
    convex decomposition of rho0.
    """
    rho0 = polarization.as_density(rho0)
    p1, v1, p2, v2 = polarization.eigendecompose_pol(rho0)
    weights = [p1, p2]
    branch = [v1, v2]
    if e_basis_rotation is not None:
        r = linalg.as_cmat(e_basis_rotation, 2)
        if not linalg.is_unitary(r):
            raise NonUnitary("environment basis rotation must be unitary")
        # psi0 = sum_k w_k (x) |k>; in the basis |j'> = R|j> the marker
        # components become w'_j = sum_k <j'|k> w_k = sum_k conj(R_kj) w_k
        old = [np.sqrt(p1) * v1, np.sqrt(p2) * v2]
        new = [np.conj(r[0, j]) * old[0] + np.conj(r[1, j]) * old[1] for j in range(2)]
        norms = [float(np.linalg.norm(w)) for w in new]
        weights = [n**2 for n in norms]
        branch = [new[j] / norms[j] if norms[j] > 1e-15 else _E_ALPHA.copy()
                  for j in range(2)]
    return purify_from_mixture(weights, branch, unitary)


def marker_states(p: PurifiedWWM) -> Tuple[np.ndarray, np.ndarray]:
    """Reduced marker states (rho0, rho1) = Tr_E of the two branches."""
    rho0 = linalg.partial_trace(np.outer(p.psi0, p.psi0.conj()), keep="first")
    rho1 = linalg.partial_trace(np.outer(p.psi1, p.psi1.conj()), keep="first")
    return rho0, rho1


def joint_vcd(p: PurifiedWWM) -> Tuple[float, float, float]:
    """(V, C, D) of the purified pair: V = |<psi0|psi1>|, C = D = sqrt(1-V^2)."""
    v = abs(complex(p.psi0.conj() @ p.psi1))
    cd = float(np.sqrt(max(0.0, 1.0 - v * v)))
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


def _branch_eigvectors(phi0, phi1):
    """Eigenvectors of |phi0><phi0| - |phi1><phi1| (eigenvalues +/-D_branch).

    A coinciding pair makes the difference vanish; the convention basis from
    `herm_eig2` is returned (its contribution to Tr(M Delta) is zero).
    """
    diff = np.outer(phi0, phi0.conj()) - np.outer(phi1, phi1.conj())
    _, vectors = linalg.herm_eig2(diff)
    return vectors[:, 0], vectors[:, 1]


def m_operator_value(p: PurifiedWWM) -> float:
    """Tr(M Delta) for the separable joint-operator combination M built from
    the per-branch discriminating eigenvectors.

    Bounded by D, with equality when the two branch overlaps
    <phi_a0|phi_a1> and <phi_b0|phi_b1> coincide.
    """
    phi_a_plus, phi_a_minus = _branch_eigvectors(p.phi_alpha0, p.phi_alpha1)
    phi_b_plus, phi_b_minus = _branch_eigvectors(p.phi_beta0, p.phi_beta1)
    proj_e = [np.outer(_E_ALPHA, _E_ALPHA.conj()), np.outer(_E_BETA, _E_BETA.conj())]
    m_plus = (np.kron(np.outer(phi_a_plus, phi_a_plus.conj()), proj_e[0])
              + np.kron(np.outer(phi_b_plus, phi_b_plus.conj()), proj_e[1]))
    m_minus = (np.kron(np.outer(phi_a_minus, phi_a_minus.conj()), proj_e[0])
               + np.kron(np.outer(phi_b_minus, phi_b_minus.conj()), proj_e[1]))
    m = 0.5 * (m_plus - m_minus)
    delta = np.outer(p.psi0, p.psi0.conj()) - np.outer(p.psi1, p.psi1.conj())
    return float(np.trace(m @ delta).real)
