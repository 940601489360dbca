"""Photon-by-photon stochastic simulation of the interferometer experiment.

Detector counts are multinomial draws over the analytic probabilities from
`interferometer`; estimators mirror the measurement procedures of the
experiment (which-way likelihood from blocked-path count rates, fringe
visibility from a phase scan, Stokes tomography) and carry nonparametric
bootstrap percentile confidence intervals at the fixed level `CI_LEVEL`
(95 %); tomography bootstraps its fidelity in one stacked pass, checked once.

Randomness policy: every stream is a counter-based Philox generator keyed by
(seed, stream_id), so identical inputs reproduce identical counts bit for bit
on every platform. Count "rates" are treated as counts per fixed exposure;
the total photon number per setting is conditioned on, not Poisson-fluctuated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from . import duality, interferometer, linalg, polarization
from .errors import EmptyCounts, InvalidState

RNG_ALGORITHM = "philox4x64"

DEFAULT_RESAMPLES = 2000

CI_LEVEL = 0.95
# scipy.stats.norm.ppf(0.5 + CI_LEVEL / 2), bit for bit; statistics.NormalDist
# is one ulp off, which would change the printed vd_sum_sigma
_CI_Z = 1.959963984540054

_UNPOLARIZED = 0.5 * linalg.SIGMA0  # I/2, a valid density matrix as it stands


def make_rng(seed: int, stream_id: int = 0) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((int(seed), int(stream_id))))
    )


@dataclass(frozen=True)
class CountRecord:
    """Detector counts N[p][d] by open path p in {0, 1} and detector d in
    {APD10, APD11}; photons injected per setting is recorded so that the
    undetected remainder (blocked arm, other port) is implied."""

    counts: np.ndarray
    photons_per_setting: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (2, 2) or np.any(counts < 0):
            raise InvalidState("counts must be a nonnegative 2x2 table")
        if np.any(counts.sum(axis=1) > self.photons_per_setting):
            raise InvalidState("detected counts exceed photons injected")
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class EstimateWithCI:
    value: float
    ci_low: float
    ci_high: float

    def __post_init__(self):
        if not (self.ci_low <= self.value <= self.ci_high):
            raise InvalidState(
                f"confidence interval [{self.ci_low}, {self.ci_high}] "
                f"does not bracket the estimate {self.value}")

    @property
    def sigma(self) -> float:
        """Gaussian-equivalent standard error from the CI half width."""
        return 0.5 * (self.ci_high - self.ci_low) / _CI_Z


def _percentile_ci(samples, value):
    lo_q = 100.0 * (0.5 - CI_LEVEL / 2.0)
    hi_q = 100.0 * (0.5 + CI_LEVEL / 2.0)
    lo, hi = np.percentile(samples, [lo_q, hi_q])
    # the percentile interval must bracket the plug-in estimate
    return float(min(lo, value)), float(max(hi, value))


def sample_counts(probabilities, photons: int, rng: np.random.Generator) -> np.ndarray:
    """Multinomial photon counting over a probability vector.

    Probabilities may sum to less than one; the remainder is an implicit
    "undetected" bin whose count is discarded. Equivalent to one draw per
    photon, and deterministic given the generator state.
    """
    if photons < 1:
        raise InvalidState("need at least one photon")
    p = np.asarray(probabilities, dtype=float)
    if np.any(p < -1e-12) or p.sum() > 1.0 + 1e-9:
        raise InvalidState(f"invalid probability vector {p}")
    p = np.clip(p, 0.0, 1.0)
    rest = max(0.0, 1.0 - p.sum())
    full = np.concatenate([p, [rest]])
    full /= full.sum()
    draw = rng.multinomial(photons, full)
    return draw[:-1]


def optimal_whichway_analyzer(cfg: interferometer.InterferometerConfig,
                              branch_input) -> interferometer.AnalyzerSetting:
    """Analyzer setting (QWP at 0) that maximizes the which-way likelihood
    for a given pure branch input.

    Derived from the model itself: the optimal projective basis is the
    eigenbasis of the difference of the two path-conditional output states.
    Both arm rotators turn about s2, so the two outputs share their s2
    component and the difference lies in the s1-s3 plane for every input:
    the basis is linear, and the half-wave plate is set to half its angle.
    For the H / V branches at theta0 = 0 this lands at 22.5 + theta1/2
    degrees modulo 45 (an offset of 45 only swaps the two detector labels).
    """
    rho = polarization.as_density(branch_input)
    _, r0 = interferometer.conditional_output(cfg, rho, open_path=0, port=1)
    _, r1 = interferometer.conditional_output(cfg, rho, open_path=1, port=1)
    diff = polarization.stokes_from_density(r0) - polarization.stokes_from_density(r1)
    if np.linalg.norm(diff) < 1e-12:
        # indistinguishable branches: any basis is equally (non-)informative
        return interferometer.AnalyzerSetting(hwp_angle_deg=0.0, qwp_angle_deg=0.0)
    basis_angle = 0.5 * math.degrees(math.atan2(diff[0], diff[2]))
    return interferometer.AnalyzerSetting(hwp_angle_deg=basis_angle / 2.0,
                                          qwp_angle_deg=0.0)


def which_way_counts(cfg: interferometer.InterferometerConfig, rho_in,
                     analyzer: interferometer.AnalyzerSetting, photons: int,
                     rng: np.random.Generator) -> CountRecord:
    """Simulate the blocked-path likelihood measurement: for each open path,
    inject `photons` and count the two port-1 analyzer outputs."""
    rho = polarization.as_density(rho_in)
    counts = np.zeros((2, 2), dtype=np.int64)
    for open_path in (0, 1):
        prob, rho_out = interferometer.conditional_output(cfg, rho, open_path, port=1)
        p10 = prob * interferometer.analyzer_probability(rho_out, analyzer, "transmit")
        p11 = prob * interferometer.analyzer_probability(rho_out, analyzer, "reflect")
        counts[open_path] = sample_counts([p10, p11], photons, rng)
    return CountRecord(counts=counts, photons_per_setting=photons)


def likelihood_point_estimate(record: CountRecord) -> float:
    n = record.counts
    total = int(n.sum())
    if total == 0:
        raise EmptyCounts("no detected photons in the likelihood table")
    return float((max(n[0, 0], n[1, 0]) + max(n[0, 1], n[1, 1])) / total)


def _bootstrap_likelihood(record: CountRecord, resamples: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Resampled likelihood values.

    Each open-path setting is redrawn photon by photon over its three
    empirical outcomes (APD10, APD11, undetected), so the resamples carry the
    fluctuation of the detected totals as well as of the detector split.
    """
    n = record.counts
    photons = record.photons_per_setting
    resampled = np.zeros((resamples, 2, 2), dtype=np.int64)
    for p in range(2):
        pvals = np.array([n[p, 0], n[p, 1],
                          photons - n[p, 0] - n[p, 1]], dtype=float) / photons
        draw = rng.multinomial(photons, pvals, size=resamples)
        resampled[:, p, :] = draw[:, :2]
    total = resampled.sum(axis=(1, 2))
    total = np.maximum(total, 1)  # guard an (improbable) all-undetected resample
    num = (np.maximum(resampled[:, 0, 0], resampled[:, 1, 0])
           + np.maximum(resampled[:, 0, 1], resampled[:, 1, 1]))
    return num / total


@dataclass(frozen=True)
class DistinguishabilityRun:
    """Result of the decomposition-based D measurement."""

    estimate: EstimateWithCI
    branch_records: Dict[str, CountRecord] = field(repr=False, default=None)
    branch_likelihoods: Dict[str, EstimateWithCI] = None


def estimate_distinguishability_decomposed(
        cfg: interferometer.InterferometerConfig, source_s, photons_per_branch: int,
        rng: np.random.Generator,
        resamples: int = DEFAULT_RESAMPLES) -> DistinguishabilityRun:
    """Decomposition estimator for the generalized distinguishability.

    The source is split into two pure branches at equal height along the
    rotation axis (`duality.decompose_for_axis`; alpha is the branch with the
    larger s3, so an s3-axis source gives the H / V branches with weights
    (1 +- s3) / 2). Each branch runs the blocked-path likelihood measurement
    at its model-optimal analyzer, and D = p_a (2 L_a - 1) + p_b (2 L_b - 1).
    The CI propagates the two branch bootstraps through the same combination;
    each branch's likelihood CI comes from its own bootstrap.
    """
    dec = duality.decompose_for_axis(source_s, duality.ROTATION_AXIS)
    branches = [(dec.s_alpha, dec.p_alpha), (dec.s_beta, dec.p_beta)]
    if dec.s_alpha[2] < dec.s_beta[2]:
        branches.reverse()
    records, likelihoods = {}, {}
    value = samples = 0.0
    for branch, (s_branch, weight) in zip(("alpha", "beta"), branches):
        rho_branch = polarization.density_from_stokes(s_branch)
        analyzer = optimal_whichway_analyzer(cfg, rho_branch)
        record = which_way_counts(cfg, rho_branch, analyzer, photons_per_branch, rng)
        like = likelihood_point_estimate(record)
        boot = _bootstrap_likelihood(record, resamples, rng)
        records[branch] = record
        likelihoods[branch] = EstimateWithCI(like, *_percentile_ci(boot, like))
        value += weight * (2.0 * like - 1.0)
        samples += weight * (2.0 * boot - 1.0)
    lo, hi = _percentile_ci(samples, value)
    return DistinguishabilityRun(
        estimate=EstimateWithCI(value=float(value), ci_low=lo, ci_high=hi),
        branch_records=records, branch_likelihoods=likelihoods)


def estimate_visibility_mc(cfg: interferometer.InterferometerConfig, rho_in,
                           phi_grid, photons_per_point: int,
                           rng: np.random.Generator,
                           resamples: int = DEFAULT_RESAMPLES) -> EstimateWithCI:
    """Fringe visibility from binomially sampled port-1 rates on a phase grid.

    The Fourier-quotient estimator has a positive bias floor of about
    sqrt(pi / (N K)) at zero true visibility (|complex noise sum| is Rayleigh
    distributed); the CI comes from a parametric per-point bootstrap.
    """
    phi = np.asarray(phi_grid, dtype=float)
    if phi.size < 8:
        raise InvalidState("need at least 8 phase points")
    truth = np.clip(interferometer.port_probabilities(cfg, rho_in, phi)[1], 0.0, 1.0)
    n1 = rng.binomial(photons_per_point, truth)
    rates = n1 / photons_per_point
    value, _ = interferometer.fit_visibility(phi, rates)
    resampled = rng.binomial(photons_per_point, rates,
                             size=(resamples, phi.size)) / photons_per_point
    quot = np.abs((resampled * np.exp(-1j * phi)).sum(axis=1))
    v_samples = 2.0 * quot / resampled.sum(axis=1)
    lo, hi = _percentile_ci(v_samples, value)
    return EstimateWithCI(value=float(value), ci_low=lo, ci_high=hi)


def _fidelity_unpolarized(s) -> np.ndarray:
    """Fidelity to I/2 of each row of an (N, 3) Stokes stack: the products of
    `fidelity(density_from_stokes(clip_stokes(s)), I/2)` in their order, so the
    chain's bits, with its checks once per stack (PSD by `herm_eig2`'s formula)."""
    if not np.all(np.isfinite(s)):
        raise InvalidState("Stokes components must be finite")
    norm = np.sqrt(s[:, None, :] @ s[:, :, None])[:, 0]
    s = s / np.where(norm > 1.0, norm, 1.0)
    rho = np.repeat(_UNPOLARIZED[None], len(s), axis=0)  # density_from_stokes starts at I/2
    for k, sigma in enumerate(linalg.PAULI):
        rho += 0.5 * s[:, k, None, None] * sigma
    a, d, b = rho[:, 0, 0].real, rho[:, 1, 1].real, rho[:, 0, 1]
    low = 0.5 * (a + d) - np.hypot(0.5 * (a - d), np.abs(b))
    if (np.any(np.sqrt(s[:, None, :] @ s[:, :, None]) > 1.0 + 1e-12)
            or np.any(low < -polarization.PSD_TOL)):
        raise InvalidState(f"unphysical state in the stack, min eigenvalue {low.min()}")
    cross = np.trace(rho @ _UNPOLARIZED, axis1=1, axis2=2).real
    dets = np.linalg.det(rho).real * np.linalg.det(_UNPOLARIZED).real
    return cross + 2.0 * np.sqrt(np.maximum(0.0, dets))


@dataclass(frozen=True)
class TomographyRun:
    stokes_estimate: np.ndarray
    fidelity_unpolarized: EstimateWithCI
    counts_plus: np.ndarray
    photons_per_basis: int


def tomography(rho_source, photons_per_basis: int, rng: np.random.Generator,
               resamples: int = DEFAULT_RESAMPLES) -> TomographyRun:
    """Three-basis Stokes tomography of the source.

    Each Pauli basis gets `photons_per_basis` photons; s_k is the normalized
    count difference. One stacked pass rescales estimates with |s| > 1 onto the
    Bloch sphere and forms the fidelity to I/2 of the estimate and all resamples.
    """
    if photons_per_basis < 1:
        raise InvalidState("need at least one photon per basis")
    s_true = polarization.stokes_from_density(rho_source)
    p_plus = (1.0 + s_true) / 2.0
    n_plus = rng.binomial(photons_per_basis, p_plus)
    s_hat = 2.0 * n_plus / photons_per_basis - 1.0
    value = float(_fidelity_unpolarized(s_hat[None])[0])
    resamp = rng.binomial(photons_per_basis,
                          np.clip((1.0 + s_hat) / 2.0, 0.0, 1.0),
                          size=(resamples, 3))
    f_samples = _fidelity_unpolarized(2.0 * resamp / photons_per_basis - 1.0)
    lo, hi = _percentile_ci(f_samples, value)
    return TomographyRun(
        stokes_estimate=s_hat,
        fidelity_unpolarized=EstimateWithCI(value=float(value), ci_low=lo, ci_high=hi),
        counts_plus=n_plus,
        photons_per_basis=photons_per_basis,
    )


def visibility_truth(cfg: interferometer.InterferometerConfig, s) -> float:
    return duality.visibility_stokes(duality.rotation_from_config(cfg), s)


def distinguishability_truth(cfg: interferometer.InterferometerConfig, s) -> float:
    return duality.d_general(duality.rotation_from_config(cfg), s)
