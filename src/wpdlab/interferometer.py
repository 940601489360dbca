"""Michelson interferometer model with polarization which-way marking.

Layout: input photons enter on path 0, split at a non-polarizing beamsplitter
(NPBS), each arm holds a double-pass quarter-wave plate + retroreflector that
rotates the polarization, the beams recombine at the same NPBS and exit on
output ports 0 and 1, optionally through a wave-plate + PBS analyzer.

Conventions (documented because they are not observable individually, only
through the phase relations the tests pin down):

* Joint basis order |0H>, |0V>, |1H>, |1V> (path first, see `linalg`).
* The NPBS H and V blocks carry opposite reflection signs (Fresnel
  conventions), so the port-1 output picks up a fixed ``sigma3`` flip
  relative to the arm-frame polarization. All port-1 states returned by this
  module are reported in the flipped ("calibrated") frame, so the
  path-conditional outputs read ``U_R(t0) rho U_R(t0)^+`` for path 0 and
  ``sigma3 U_R(t1) sigma3 rho ...`` for path 1.
* Interferometer phase: `phase_phi` is applied to arm 0. At equal arm
  rotations port 1 is dark at phi = 0 and port 0 is bright (the ideal
  Michelson returns everything toward the source at zero path difference).
* Path-length difference delta maps to phase as phi = 4 pi delta / lambda:
  the arm is traversed twice.
* The finite-bandwidth envelope for a rectangular spectrum is
  sinc(x) = sin(x)/x with x = 2 pi delta dlambda / lambda^2 (equivalently
  x = pi (2 delta) dnu / c), so the first envelope zero sits at the coherence
  length l_c = lambda^2 / (2 dlambda) = c / (2 dnu).
* `visibility_scale` multiplies only the two-path interference (cross) term;
  it is a one-parameter stand-in for all unmodeled imperfections.

Wave-plate angles are fast-axis angles from horizontal, in degrees at every
public surface; radians exist only inside the trig calls.

Model core: every output is built from the per-arm round-trip operators
U_BS^+ P_k U_W U_BS (P_k projects onto path k). `fringe_scan`, the one-point
port functions and `port_probabilities` (the grid entry of the Monte Carlo
fringe truth) sum both arms in one stacked kernel run in fixed-size blocks,
so each number is bit for bit a one-point result; non-finite phases raise
InvalidState as a one-point call does. The blocked-path outputs of
`conditional_output` take the open arm's operator alone.
`path_unitary` and `interferometer_unitary` are the test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import linalg, polarization
from .errors import EmptyInput, InvalidState, NonConvergence, ZeroProbability

_SIGMA0 = linalg.SIGMA0
_SIGMA1 = linalg.SIGMA1
_SIGMA3 = linalg.SIGMA3


@dataclass(frozen=True)
class InterferometerConfig:
    """Wave-plate angles, arm-0 phase and global scale."""

    theta0_deg: float = 0.0
    theta1_deg: float = 0.0
    phase_phi: float = 0.0
    visibility_scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.theta0_deg) and math.isfinite(self.theta1_deg)):
            raise InvalidState("wave-plate angles must be finite")
        if not math.isfinite(self.phase_phi):
            raise InvalidState("phase_phi must be finite")
        if not (0.0 < self.visibility_scale <= 1.0):
            raise InvalidState(
                f"visibility_scale must lie in (0, 1], got {self.visibility_scale}"
            )

    def with_phase(self, phi: float) -> "InterferometerConfig":
        return replace(self, phase_phi=float(phi))


@dataclass(frozen=True)
class SpectralModel:
    """Source spectrum: monochromatic, or rectangular with finite bandwidth."""

    center_wavelength_nm: float = 679.0
    bandwidth_nm: float = 0.0
    shape: str = "monochromatic"

    def __post_init__(self):
        if self.shape not in ("monochromatic", "rectangular"):
            raise InvalidState(f"unknown spectral shape {self.shape!r}")
        if not (math.isfinite(self.center_wavelength_nm) and math.isfinite(self.bandwidth_nm)):
            raise InvalidState("center wavelength and bandwidth must be finite")
        if self.center_wavelength_nm <= 0:
            raise InvalidState("center wavelength must be positive")
        if self.bandwidth_nm < 0:
            raise InvalidState("bandwidth must be nonnegative")
        if self.shape == "rectangular" and self.bandwidth_nm == 0:
            raise InvalidState("rectangular spectrum requires bandwidth > 0")

    @property
    def coherence_length_um(self) -> float:
        """First zero of the fringe envelope, lambda^2 / (2 dlambda), in um."""
        if self.shape == "monochromatic":
            return math.inf
        return self.center_wavelength_nm**2 / (2.0 * self.bandwidth_nm) * 1e-3

    def envelope(self, delta_um) -> np.ndarray:
        """Fringe-contrast envelope at path-length difference delta (um)."""
        delta_um = np.asarray(delta_um, dtype=float)
        if self.shape == "monochromatic":
            return np.ones_like(delta_um)
        x = math.pi * delta_um / self.coherence_length_um
        return np.sinc(x / math.pi)  # np.sinc is sin(pi t)/(pi t)

    def phase(self, delta_um) -> np.ndarray:
        """Double-pass phase 4 pi delta / lambda; inf where it overflows."""
        delta_um = np.asarray(delta_um, dtype=float)
        with np.errstate(over="ignore"):
            return 4.0 * math.pi * delta_um * 1e3 / self.center_wavelength_nm


@dataclass(frozen=True)
class AnalyzerSetting:
    """HWP + QWP + PBS polarization analyzer in front of a detector pair.

    The beam passes the HWP first, then the QWP, then the PBS; transmit means
    the H output of the PBS. The circular basis is reached at
    (hwp=0, qwp=45).
    """

    hwp_angle_deg: float = 0.0
    qwp_angle_deg: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.hwp_angle_deg) and math.isfinite(self.qwp_angle_deg)):
            raise InvalidState("analyzer angles must be finite")


CIRCULAR_ANALYZER = AnalyzerSetting(hwp_angle_deg=0.0, qwp_angle_deg=45.0)


def jones_qwp(theta_deg: float) -> np.ndarray:
    """Quarter-wave plate, fast axis at theta (degrees) from horizontal."""
    t = math.radians(theta_deg)
    return (1j / math.sqrt(2)) * (
        -1j * _SIGMA0 + math.sin(2 * t) * _SIGMA1 + math.cos(2 * t) * _SIGMA3
    )


def jones_hwp(theta_deg: float) -> np.ndarray:
    """Half-wave plate, fast axis at theta (degrees) from horizontal."""
    t = math.radians(theta_deg)
    return math.sin(2 * t) * _SIGMA1 + math.cos(2 * t) * _SIGMA3


def jones_mirror() -> np.ndarray:
    """Jones matrix of a mirror (also of a retroreflector: M^3 = M)."""
    return _SIGMA3.copy()


def retro_rotator(theta_deg: float) -> np.ndarray:
    """Double-pass QWP + retroreflector: QWP(-theta) . M . QWP(theta).

    Rotates the Stokes vector by 4 theta about the (0, 1, 0) axis.
    """
    return jones_qwp(-theta_deg) @ jones_mirror() @ jones_qwp(theta_deg)


def retro_rotator_flipped(theta_deg: float) -> np.ndarray:
    """sigma3-conjugated arm rotator as seen through the NPBS sign conventions."""
    return _SIGMA3 @ retro_rotator(theta_deg) @ _SIGMA3


def npbs_unitary() -> np.ndarray:
    """50:50 non-polarizing beamsplitter on path (x) polarization.

    Block form (1/sqrt2) [[s0, i s3], [i s3, s0]]; the opposite off-diagonal
    signs of the H and V blocks follow the Fresnel reflection conventions.
    """
    s0 = _SIGMA0
    s3 = _SIGMA3
    return np.block([[s0, 1j * s3], [1j * s3, s0]]) / math.sqrt(2)


def path_unitary(cfg: InterferometerConfig) -> np.ndarray:
    """Both-arm propagation: e^{i phi} |0><0| x U_R(t0) + |1><1| x U_R(t1)."""
    u0 = np.exp(1j * cfg.phase_phi) * retro_rotator(cfg.theta0_deg)
    u1 = retro_rotator(cfg.theta1_deg)
    zero = np.zeros((2, 2), dtype=complex)
    return np.block([[u0, zero], [zero, u1]])


def interferometer_unitary(cfg: InterferometerConfig) -> np.ndarray:
    """Full round trip U_BS^+ U_W U_BS."""
    ubs = npbs_unitary()
    return ubs.conj().T @ path_unitary(cfg) @ ubs


# Grid points per stacked pass of the model core: enough to amortise numpy's
# per-call overhead, few enough that a long scan's (N, 4, 4) stacks stay small.
_BLOCK_POINTS = 256

_UBS = npbs_unitary()
# U_BS^+ P_k, with P_k the projector onto path k
_UBS_ADJ_PATHS = tuple(_UBS.conj().T @ np.diag(d).astype(complex)
                       for d in ([1, 1, 0, 0], [0, 0, 1, 1]))


def _arm_operators(cfg: InterferometerConfig, phases: np.ndarray, paths):
    """U_BS^+ P_k U_W U_BS, one (N, 4, 4) stack per arm k in `paths`, at
    arm-0 `phases`. With one arm in `paths` it is the round trip with the
    other arm blocked; the two arms sum to `interferometer_unitary`.
    """
    uw = np.zeros((phases.size, 4, 4), dtype=complex)
    uw[:, :2, :2] = np.exp(1j * phases)[:, None, None] * retro_rotator(cfg.theta0_deg)
    uw[:, 2:, 2:] = retro_rotator(cfg.theta1_deg)
    return [_UBS_ADJ_PATHS[k] @ uw @ _UBS for k in paths]


def _port_operators(cfg: InterferometerConfig, rho: np.ndarray, phases, kappa):
    """Unnormalized port-0 and calibrated port-1 operators, each (N, 2, 2),
    at arm-0 `phases` with the cross term scaled by `kappa` (scalar or (N,)).
    One stack entry per point, same products in the same order as the 4x4
    route, so each point is bit for bit a one-point call. `rho` is trusted.
    """
    phases = np.asarray(phases, dtype=float)
    if not np.isfinite(phases).all():
        raise InvalidState("phase_phi must be finite")
    kappa = np.broadcast_to(np.asarray(kappa, dtype=float), phases.shape)
    out = np.empty((2, phases.size, 2, 2), dtype=complex)
    for start in range(0, phases.size, _BLOCK_POINTS):
        block = slice(start, start + _BLOCK_POINTS)
        ops = _arm_operators(cfg, phases[block], (0, 1))
        scale = kappa[block, None, None]
        for port in (0, 1):
            b0, b1 = (op[:, 2 * port:2 * port + 2, 0:2] for op in ops)
            b0h, b1h = (b.conj().swapaxes(-1, -2) for b in (b0, b1))
            b0r, b1r = b0 @ rho, b1 @ rho
            raw = (b0r @ b0h + b1r @ b1h) + scale * (b0r @ b1h + b1r @ b0h)
            out[port, block] = _SIGMA3 @ raw @ _SIGMA3 if port == 1 else raw
    return out[0], out[1]


def _traces(ops: np.ndarray) -> np.ndarray:
    """Real traces of a stack of 2x2 operators."""
    return np.trace(ops, axis1=-2, axis2=-1).real


def port_probabilities(cfg: InterferometerConfig, rho_in, phases):
    """Port-0 and port-1 intensities, each (N,), over arm-0 `phases`; each
    value is bit for bit the `output_probability` of that phase."""
    rho = polarization.as_density(rho_in)
    return tuple(_traces(op) for op in _port_operators(cfg, rho, phases, cfg.visibility_scale))


def _point_operator(cfg: InterferometerConfig, rho_in, port: int):
    if port not in (0, 1):
        raise InvalidState(f"port must be 0 or 1, got {port}")
    rho = polarization.as_density(rho_in)
    return _port_operators(cfg, rho, [cfg.phase_phi], cfg.visibility_scale)[port][0]


def output_density(cfg: InterferometerConfig, rho_in, port: int):
    """(probability, normalized polarization state) at an output port.

    Probabilities over the two ports sum to one. Raises ZeroProbability when
    the port is completely dark (the conditional state is undefined).
    """
    raw = _point_operator(cfg, rho_in, port)
    prob = float(np.trace(raw).real)
    if prob < 1e-15:
        raise ZeroProbability(f"port {port} probability is numerically zero")
    return prob, raw / prob


def output_probability(cfg: InterferometerConfig, rho_in, port: int) -> float:
    """Port intensity alone; defined even for a dark port."""
    return float(np.trace(_point_operator(cfg, rho_in, port)).real)


def interference_coefficient(cfg: InterferometerConfig, rho_in) -> complex:
    """Complex fringe coefficient C of the port-1 intensity.

    I1(phi) = (1/2) [1 + scale |C| cos(phi + arg C)] reproduces
    `output_density(port=1)` exactly; |C| is the fringe visibility. C equals
    minus the trace form Tr[U_R(t0) rho U~_R(t1)^+] because port 1 is dark at
    phi = 0 under the beamsplitter conventions above.
    """
    rho = polarization.as_density(rho_in)
    u0 = retro_rotator(cfg.theta0_deg)
    u1t = retro_rotator_flipped(cfg.theta1_deg)
    return -complex(np.trace(u0 @ rho @ u1t.conj().T))


def conditional_output(cfg: InterferometerConfig, rho_in, open_path: int, port: int):
    """(probability, state) at a port with only `open_path` open.

    The other arm is blocked; for the ideal 50:50 NPBS the port probability
    is 1/4 regardless of the input. Port states are reported in the
    calibrated frame, so path 0 gives U_R(t0) rho U_R(t0)^+ and path 1 gives
    the sigma3-flipped rotator action.
    """
    if open_path not in (0, 1):
        raise InvalidState(f"open_path must be 0 or 1, got {open_path}")
    rho = polarization.as_density(rho_in)
    (op,) = _arm_operators(cfg, np.array([cfg.phase_phi]), (open_path,))
    block = op[0, 2 * port:2 * port + 2, 0:2]
    raw = block @ rho @ block.conj().T
    if port == 1:  # sigma3-flipped frame, see the module docs
        raw = _SIGMA3 @ raw @ _SIGMA3
    prob = float(np.trace(raw).real)
    if prob < 1e-15:
        raise ZeroProbability(f"port {port} via path {open_path} has zero probability")
    return prob, raw / prob


def analyzer_basis(setting: AnalyzerSetting):
    """Orthonormal (transmit, reflect) measurement vectors of the analyzer."""
    u = jones_qwp(setting.qwp_angle_deg) @ jones_hwp(setting.hwp_angle_deg)
    return u.conj().T @ linalg.KET_H, u.conj().T @ linalg.KET_V


def analyzer_probability(rho_port, setting: AnalyzerSetting, detector: str) -> float:
    """Born probability of one analyzer output; transmit + reflect = 1."""
    rho = polarization.as_density(rho_port)
    if detector not in ("transmit", "reflect"):
        raise InvalidState(f"detector must be transmit or reflect, got {detector!r}")
    vt, vr = analyzer_basis(setting)
    v = vt if detector == "transmit" else vr
    return float(np.real(v.conj() @ rho @ v))


def fringe_scan(cfg: InterferometerConfig, rho_in, spectral: SpectralModel,
                delta_um_grid, analyzers: Optional[AnalyzerSetting] = None):
    """Scan the path-length difference and tabulate output intensities.

    Returns (column_names, rows) where each row is
    [delta_um, phi_rad, p_out0, p_out1] plus, when an analyzer is given,
    the port-1 analyzer outputs [p_apd10, p_apd11]. The finite-bandwidth
    envelope multiplies the interference term only.
    """
    delta = np.asarray(delta_um_grid, dtype=float)
    if delta.size == 0:
        raise EmptyInput("delta grid is empty")
    rho = polarization.as_density(rho_in)
    columns = ["delta_um", "phi_rad", "p_out0", "p_out1"]
    if analyzers is not None:
        columns += ["p_apd10", "p_apd11"]
    phases = spectral.phase(delta)
    raw0, raw1 = _port_operators(cfg, rho, phases,
                                 cfg.visibility_scale * spectral.envelope(delta))
    table = [delta, phases, _traces(raw0), _traces(raw1)]
    if analyzers is not None:
        # (1,2) @ (2,2) @ (2,1) per point: the products of a one-point call
        for v in analyzer_basis(analyzers):
            table.append((v.conj()[None, :] @ raw1 @ v[:, None])[:, 0, 0].real)
    return columns, np.column_stack(table)


def fit_visibility(phi, intensity):
    """Visibility and phase of a fringe by the discrete Fourier quotient.

    V = 2 |sum I_k e^{-i phi_k}| / sum I_k on a uniform grid covering whole
    periods; returns (V, phase) with I ~ mean (1 + V cos(phi - phase)).
    """
    phi = np.asarray(phi, dtype=float)
    intensity = np.asarray(intensity, dtype=float)
    if phi.size == 0:
        raise EmptyInput("no fringe samples")
    if phi.size < 8 or np.ptp(phi) < 2 * math.pi * (1 - 1 / phi.size) - 1e-9:
        raise InvalidState("need >= 8 samples spanning at least one fringe period")
    total = float(np.sum(intensity))
    if total <= 0:
        raise InvalidState("fringe intensities must have positive total")
    quot = np.sum(intensity * np.exp(-1j * phi))
    return 2.0 * abs(quot) / total, float(-np.angle(quot) if abs(quot) > 0 else 0.0)


def envelope_model(delta_um, base, visibility, delta0_um, lc_um):
    """Fringe-envelope family A (1 + V sinc[(delta - delta0)/l_c]),
    with sinc(x) = sin(x)/x (first zero at delta - delta0 = pi l_c)."""
    x = (np.asarray(delta_um, dtype=float) - delta0_um) / lc_um
    return base * (1.0 + visibility * np.sinc(x / math.pi))


def fit_fringe(delta_um, samples):
    """Least-squares fit of `envelope_model` to envelope samples.

    Initialization: base = mean, delta0 at the sample maximum, visibility
    from the peak height above base, l_c from the first crossing of the base
    level after the peak. Returns (base, visibility, delta0_um, lc_um).
    """
    # imported here, not at module level: scipy adds most of the CLI start-up
    # time, and no CLI mode fits an envelope
    from scipy.optimize import least_squares

    delta = np.asarray(delta_um, dtype=float)
    y = np.asarray(samples, dtype=float)
    if delta.size == 0:
        raise EmptyInput("no envelope samples")
    if delta.size < 8:
        raise InvalidState("need >= 8 envelope samples")
    base0 = float(np.mean(y))
    k_max = int(np.argmax(y))
    delta0_0 = float(delta[k_max])
    vis0 = max(1e-3, float(y[k_max] / base0 - 1.0)) if base0 > 0 else 0.5
    lc0 = None
    above = y[k_max:] > base0
    crossings = np.nonzero(~above)[0]
    if crossings.size:
        lc0 = abs(float(delta[k_max + crossings[0]]) - delta0_0) / math.pi
    if not lc0 or not math.isfinite(lc0):
        lc0 = max(np.ptp(delta), 1.0) / 10.0

    def residual(p):
        return envelope_model(delta, *p) - y

    result = least_squares(residual, x0=[base0, vis0, delta0_0, lc0],
                           method="lm", max_nfev=800)
    if not result.success:
        raise NonConvergence(f"envelope fit did not converge: {result.message}")
    base, vis, delta0, lc = (float(v) for v in result.x)
    if lc < 0:  # sinc is even in l_c; report the positive representative
        lc = -lc
    return base, vis, delta0, lc
