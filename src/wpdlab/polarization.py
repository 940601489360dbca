"""Polarization states: density matrices, Stokes vectors and scalar functionals.

The polarization qubit doubles as the which-way marker of the interferometer.
States are 2x2 density matrices `rho = (sigma0 + s . sigma) / 2` with `s` the
Stokes vector, |s| <= 1.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import InvalidState

# PSD check tolerance on the smallest eigenvalue.
PSD_TOL = 1e-12


def as_stokes(s) -> np.ndarray:
    """Validate a physical Stokes vector (|s| <= 1 within tolerance)."""
    s = np.asarray(s, dtype=float)
    if s.shape != (3,):
        raise InvalidState(f"Stokes vector must have 3 components, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise InvalidState("Stokes components must be finite")
    if np.linalg.norm(s) > 1.0 + 1e-12:
        raise InvalidState(f"unphysical Stokes vector, |s| = {np.linalg.norm(s)}")
    return s


def clip_stokes(s) -> np.ndarray:
    """Project an estimated Stokes vector back onto the Bloch ball.

    Finite-count tomography can produce |s| slightly above 1; the estimate is
    rescaled to unit length in that case.
    """
    s = np.asarray(s, dtype=float)
    n = np.linalg.norm(s)
    return s / n if n > 1.0 else s


def density_from_stokes(s) -> np.ndarray:
    s = as_stokes(s)
    rho = 0.5 * linalg.SIGMA0.copy()
    for sk, sigma in zip(s, linalg.PAULI):
        rho += 0.5 * sk * sigma
    return rho


def stokes_from_density(rho) -> np.ndarray:
    rho = as_density(rho)
    return np.array([np.trace(sigma @ rho).real for sigma in linalg.PAULI])


def as_density(rho) -> np.ndarray:
    """Validate a polarization density matrix: Hermitian, trace 1, PSD."""
    rho = linalg.as_cmat(rho, 2)
    if not linalg.is_hermitian(rho):
        raise InvalidState("density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-12:
        raise InvalidState(f"density matrix must have unit trace, got {np.trace(rho)}")
    values, _ = linalg.herm_eig2(rho)
    if values[-1] < -PSD_TOL:
        raise InvalidState(f"density matrix not PSD, min eigenvalue {values[-1]}")
    return rho


def purity(rho) -> float:
    """gamma = Tr rho^2 = (1 + |s|^2) / 2."""
    rho = as_density(rho)
    return float(np.trace(rho @ rho).real)


def degree_of_polarization(rho) -> float:
    """|s|; equals sqrt(2 gamma - 1)."""
    return float(np.linalg.norm(stokes_from_density(rho)))


def concurrence_we(rho) -> float:
    """Concurrence of the marker-environment entanglement that purifies rho.

    sqrt(1 - |s|^2) = sqrt(2 (1 - gamma)); zero for pure states, one for the
    completely unpolarized state.
    """
    s = stokes_from_density(rho)
    return float(np.sqrt(max(0.0, 1.0 - float(s @ s))))


def fidelity(rho, tau) -> float:
    """Uhlmann fidelity of two qubit states.

    For 2x2 densities the general formula collapses to
    F = Tr(rho tau) + 2 sqrt(det rho det tau).
    """
    rho = as_density(rho)
    tau = as_density(tau)
    cross = np.trace(rho @ tau).real
    dets = np.linalg.det(rho).real * np.linalg.det(tau).real
    return float(cross + 2.0 * np.sqrt(max(0.0, dets)))


def jones_from_stokes(s) -> np.ndarray:
    """Jones vector of a pure state given its unit Stokes vector."""
    s = as_stokes(s)
    if abs(np.linalg.norm(s) - 1.0) > 1e-10:
        raise InvalidState("jones_from_stokes needs |s| = 1")
    _, v, _, _ = eigendecompose_pol(density_from_stokes(s))
    return v


def eigendecompose_pol(rho):
    """Spectral decomposition rho = p1 |v1><v1| + p2 |v2><v2|, p1 >= p2.

    The degenerate (unpolarized) case returns the (|H>, |V>) basis so that
    downstream decompositions are deterministic.
    """
    rho = as_density(rho)
    values, vectors = linalg.herm_eig2(rho)
    p1 = float(min(1.0, max(0.0, values[0])))
    p2 = float(min(1.0, max(0.0, values[1])))
    return p1, vectors[:, 0], p2, vectors[:, 1]
