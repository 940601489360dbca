"""Reference forms that only the tests use, kept out of the package.

Each one restates a quantity that the package computes another way, so the
tests can check the package against it.
"""

from dataclasses import replace

import numpy as np

from wpdlab import duality, interferometer, linalg, montecarlo, polarization
from wpdlab.errors import DimensionError, NonUnitary, WpdError


class DegenerateSpan(WpdError):
    """The two joint states coincide; the discriminating eigenspace is undefined."""

    category = "degenerate-span"


def with_phase(cfg: interferometer.InterferometerConfig, phi: float):
    """The same interferometer at arm-0 phase `phi` (radians)."""
    return replace(cfg, phase_phi=float(phi))


def interference_coefficient(cfg: interferometer.InterferometerConfig, rho_in) -> complex:
    """Complex fringe coefficient C of the port-1 intensity.

    I1(phi) = (1/2) [1 + scale |C| cos(phi + arg C)] reproduces
    `output_density(port=1)` exactly; |C| is the fringe visibility. C equals
    minus the trace form Tr[U_R(t0) rho U~_R(t1)^+] because port 1 is dark at
    phi = 0 under the beamsplitter conventions of `interferometer`.
    """
    rho = polarization.as_density(rho_in)
    u0 = interferometer.retro_rotator(cfg.theta0_deg)
    u1t = interferometer.retro_rotator_flipped(cfg.theta1_deg)
    return -complex(np.trace(u0 @ rho @ u1t.conj().T))


def su2_decompose(u) -> duality.RotationSpec:
    """Euler-Rodrigues parameters of a 2x2 unitary, global phase stripped.

    The phase branch is chosen so that the stripped matrix has real
    nonnegative trace (e0 >= 0, up to rounding where Tr u ~ 0); every
    functional depends only on e0^2 and the dyad e e^T, so the branch is
    observationally inert. A trivial rotation keeps the axis (0, 1, 0).
    """
    u = linalg.as_cmat(u)
    if not linalg.is_unitary(u):
        raise NonUnitary("su2_decompose requires a unitary matrix")
    u = u / np.sqrt(np.linalg.det(u))
    tr = np.trace(u)
    if tr.real < 0 or (abs(tr.real) < 1e-15 and _first_e_component_negative(u)):
        u = -u
    e0 = float(np.trace(u).real / 2.0)
    e = np.array([float((np.trace(sigma @ u) / 2j).real) for sigma in linalg.PAULI])
    recon = e0 * linalg.SIGMA0 + 1j * (
        e[0] * linalg.SIGMA1 + e[1] * linalg.SIGMA2 + e[2] * linalg.SIGMA3
    )
    if np.max(np.abs(recon - u)) > 1e-12:
        raise NonUnitary("matrix is not SU(2) after phase stripping")
    norm_e = float(np.linalg.norm(e))
    axis = e / norm_e if norm_e >= 1e-12 else duality.ROTATION_AXIS.copy()
    return duality.RotationSpec(e0=max(-1.0, min(1.0, e0)), e=e, axis=axis)


def _first_e_component_negative(u) -> bool:
    # deterministic tie-break when Tr u is exactly zero (omega = pi)
    for sigma in linalg.PAULI:
        c = (np.trace(sigma @ u) / 2j).real
        if abs(c) > 1e-12:
            return c < 0
    return False


def range_values(start: float, stop: float, step: float) -> tuple:
    """An inclusive `start:stop:step` range built value by value, the
    generator that `cli.parse_scalar_or_range` replaced with one array."""
    n = (stop - start) / step + 0.5
    return tuple(start + k * step for k in range(int(n) + 1)
                 if start + k * step <= stop + 1e-9)


def pi_d_pure(phi0, phi1):
    """Pure-marker discriminating measurement: eigensystem of pi0 - pi1.

    Returns (D, phi_plus, phi_minus) with D = sqrt(1 - |<phi0|phi1>|^2) and
    <phi+|pi0|phi+> + <phi-|pi1|phi-> - 1 = D. Raises DegenerateSpan when the
    states coincide up to phase.
    """
    phi0 = np.asarray(phi0, dtype=complex)
    phi1 = np.asarray(phi1, dtype=complex)
    overlap = complex(phi0.conj() @ phi1)
    if abs(overlap) >= 1.0 - 1e-12:
        raise DegenerateSpan("phi0 and phi1 coincide up to phase; D = 0")
    d = float(np.sqrt(max(0.0, 1.0 - abs(overlap) ** 2)))
    return (d, *_branch_eigvectors(phi0, phi1))


def tensor2x2(a, b) -> np.ndarray:
    """Kronecker product C^2 x C^2 -> C^4 with the joint basis order of
    `linalg`: the result is indexed |0H>, |0V>, |1H>, |1V>."""
    return np.kron(linalg.as_cmat(a), linalg.as_cmat(b))


def partial_trace(m, keep) -> np.ndarray:
    """Trace a 4x4 operator down to 2x2, keeping the first (0/"first") or
    the second (1/"second") factor of `tensor2x2`'s basis order."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise DimensionError(f"expected a 4x4 matrix, got shape {m.shape}")
    m = m.reshape(2, 2, 2, 2)
    if keep in (0, "first"):
        return np.einsum("ikjk->ij", m)
    if keep in (1, "second"):
        return np.einsum("kikj->ij", m)
    raise DimensionError(f"keep must be 0/'first' or 1/'second', got {keep!r}")


def trace_norm_herm(h) -> float:
    """Trace norm sum |lambda_i| of a 2x2 Hermitian matrix from the
    eigenvalues of `linalg.herm_eig2`; half the trace norm of rho0 - rho1 is
    what `duality.dc_trace_distance` takes as half the Stokes distance."""
    values, _ = linalg.herm_eig2(h)
    return float(np.sum(np.abs(values)))


def _branch_eigvectors(phi0, phi1):
    """Eigenvectors of |phi0><phi0| - |phi1><phi1| (eigenvalues +/-D_branch).

    A coinciding pair makes the difference vanish; the convention basis from
    `herm_eig2` is returned (its contribution to Tr(M Delta) is zero).
    """
    diff = np.outer(phi0, phi0.conj()) - np.outer(phi1, phi1.conj())
    _, vectors = linalg.herm_eig2(diff)
    return vectors[:, 0], vectors[:, 1]


def m_operator_4x4(p) -> float:
    """Tr(M Delta) of `purification.m_operator_value` built as 4x4 operators:
    M = (1/2) sum_k (|phi_k+><phi_k+| - |phi_k-><phi_k-|) (x) |k><k| and
    Delta = |psi0><psi0| - |psi1><psi1|."""
    proj_e = [np.outer(linalg.KET_H, linalg.KET_H), np.outer(linalg.KET_V, linalg.KET_V)]
    m = np.zeros((4, 4), dtype=complex)
    for phi0, phi1, proj in zip((p.phi_alpha0, p.phi_beta0), (p.phi_alpha1, p.phi_beta1), proj_e):
        plus, minus = _branch_eigvectors(phi0, phi1)
        m += 0.5 * tensor2x2(np.outer(plus, plus.conj()) - np.outer(minus, minus.conj()), proj)
    delta = np.outer(p.psi0, p.psi0.conj()) - np.outer(p.psi1, p.psi1.conj())
    return float(np.trace(m @ delta).real)


def estimate_likelihood(record: montecarlo.CountRecord, rng: np.random.Generator,
                        resamples: int = montecarlo.DEFAULT_RESAMPLES):
    """Plug-in which-way likelihood of one count table with its own
    nonparametric bootstrap CI, the one-branch form of the D estimator."""
    value = montecarlo.likelihood_point_estimate(record)
    samples = montecarlo._bootstrap_likelihood(record, resamples, rng)
    lo, hi = montecarlo._percentile_ci(samples, value)
    return montecarlo.EstimateWithCI(value=value, ci_low=lo, ci_high=hi)


def csv_line(row) -> str:
    """One CSV line formatted value by value: `{:.12g}` for a float
    (np.float64 included), `str` for anything else."""
    return ",".join("{:.12g}".format(v) if isinstance(v, float) else str(v) for v in row)
