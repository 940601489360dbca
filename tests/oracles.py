"""Reference forms that only the tests use, kept out of the package.

Each one restates a quantity that the package computes another way, so the
tests can check the package against it.
"""

from dataclasses import replace

import numpy as np

from wpdlab import interferometer, linalg, montecarlo, polarization
from wpdlab.errors import WpdError


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
    diff = np.outer(phi0, phi0.conj()) - np.outer(phi1, phi1.conj())
    _, vectors = linalg.herm_eig2(diff)
    return d, vectors[:, 0], vectors[:, 1]


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
