"""Visibility and path-distinguishability functionals.

Three distinguishability notions coexist:

* conventional: half the trace distance between the path-conditional marker
  states; vanishes for the unpolarized marker even when interference is
  destroyed,
* generalized: includes the which-path information shared with the
  environment that purifies a mixed marker, and saturates V^2 + D^2 = 1,
* predictability: a-priori path knowledge from intensity imbalance (zero for
  the 50:50 beamsplitter used here).

The closed forms live on the Poincare sphere: with the inter-arm rotation
written as e0 I + i e.sigma (Euler-Rodrigues parameters), a marker with
Stokes vector s gives

    V   = sqrt(e0^2 + (e.s)^2)
    Dc  = sqrt(e^2 s^2 - (e.s)^2)
    D   = sqrt(e^2 - (e.s)^2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import interferometer, linalg, polarization
from .errors import InvalidState, NonOrthonormalBasis, NonUnitary

_DEGENERATE_AXIS = np.array([0.0, 1.0, 0.0])


@dataclass(frozen=True)
class RotationSpec:
    """Euler-Rodrigues parameters of an SU(2) rotation, sign fixed to e0 >= 0.

    e = sin(omega/2) * axis, e0 = cos(omega/2); a (numerically) trivial
    rotation keeps the default axis (0, 1, 0).
    """

    e0: float
    e: np.ndarray
    axis: np.ndarray
    omega: float


@dataclass(frozen=True)
class DecompositionResult:
    """Convex split of a Stokes vector into two pure states at equal height
    along the rotation axis: p_a s_a + p_b s_b = s, axis.s_a = axis.s_b."""

    s_alpha: np.ndarray
    s_beta: np.ndarray
    p_alpha: float
    p_beta: float


@dataclass(frozen=True)
class DualityReport:
    """All duality functionals for one interferometer configuration."""

    visibility: float
    d_conventional: float
    d_general: float
    predictability: float
    concurrence_we: float
    sum_vd: float
    sum_vdc: float


def su2_decompose(u) -> RotationSpec:
    """Euler-Rodrigues parameters of a 2x2 unitary, global phase stripped.

    The phase branch is chosen so that the stripped matrix has real
    nonnegative trace (e0 >= 0); since every functional downstream depends
    only on e0^2 and the dyad e e^T, the branch is observationally inert.
    """
    u = linalg.as_cmat(u, 2)
    if not linalg.is_unitary(u):
        raise NonUnitary("su2_decompose requires a unitary matrix")
    det = np.linalg.det(u)
    u = u / np.sqrt(det)
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
    e0 = max(-1.0, min(1.0, e0))
    axis = e / norm_e if norm_e >= 1e-12 else _DEGENERATE_AXIS.copy()
    omega = 2.0 * math.atan2(norm_e, e0)
    return RotationSpec(e0=e0, e=e, axis=axis, omega=omega)


def _first_e_component_negative(u) -> bool:
    # deterministic tie-break when Tr u is exactly zero (omega = pi)
    for sigma in linalg.PAULI:
        c = (np.trace(sigma @ u) / 2j).real
        if abs(c) > 1e-12:
            return c < 0
    return False


def relative_rotation(cfg: interferometer.InterferometerConfig) -> np.ndarray:
    """Net polarization rotation between the two arms as seen at the output:
    U_R(t0)^+ . [sigma3 U_R(t1) sigma3]."""
    u0 = interferometer.retro_rotator(cfg.theta0_deg)
    u1t = interferometer.retro_rotator_flipped(cfg.theta1_deg)
    return u0.conj().T @ u1t


def rotation_from_config(cfg: interferometer.InterferometerConfig) -> RotationSpec:
    return su2_decompose(relative_rotation(cfg))


def visibility_stokes(rot: RotationSpec, s) -> float:
    s = polarization.as_stokes(s)
    return float(np.sqrt(rot.e0**2 + float(rot.e @ s) ** 2))


def dc_stokes(rot: RotationSpec, s) -> float:
    """Conventional distinguishability sqrt(e^2 s^2 - (e.s)^2) = |e x s|.

    The cross-product form is used because the direct difference cancels
    catastrophically when e and s are parallel.
    """
    s = polarization.as_stokes(s)
    return float(np.linalg.norm(np.cross(rot.e, s)))


def d_general(rot: RotationSpec, s) -> float:
    """Generalized distinguishability sqrt(e^2 - (e.s)^2), evaluated as
    sqrt(|e x s|^2 + e^2 (1 - s^2)) to avoid cancellation."""
    s = polarization.as_stokes(s)
    cross = np.cross(rot.e, s)
    cross2 = float(cross @ cross)
    e2 = float(rot.e @ rot.e)
    return float(np.sqrt(cross2 + e2 * max(0.0, 1.0 - float(s @ s))))


def dc_trace_distance(rho0, rho1) -> float:
    """Half the trace distance (1/2) Tr|rho0 - rho1|; equals half the
    Euclidean distance between the two Stokes vectors."""
    rho0 = polarization.as_density(rho0)
    rho1 = polarization.as_density(rho1)
    return 0.5 * linalg.trace_norm_herm(rho0 - rho1)


def decompose_for_axis(s, axis) -> DecompositionResult:
    """Split a mixed Stokes vector into two pure states with equal component
    along `axis` (the rotation axis), the condition under which the branch
    distinguishabilities are equal and their mixture reproduces D.

    The chord through s is the diameter of the constant-height circle along
    the in-plane direction of s; when s sits on the axis the chord direction
    falls back to the projection of (0, 0, 1), then of (1, 0, 0).
    """
    s = polarization.as_stokes(s)
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    norm_s = float(np.linalg.norm(s))
    if norm_s >= 1.0 - 1e-12:
        return DecompositionResult(s_alpha=s.copy(), s_beta=-s.copy(),
                                   p_alpha=1.0, p_beta=0.0)
    h = float(n @ s)
    radius = math.sqrt(max(0.0, 1.0 - h * h))
    perp = s - h * n
    norm_perp = float(np.linalg.norm(perp))
    if norm_perp >= 1e-12:
        u = perp / norm_perp
    else:
        u = None
        for fallback in (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])):
            cand = fallback - float(n @ fallback) * n
            if np.linalg.norm(cand) >= 1e-12:
                u = cand / np.linalg.norm(cand)
                break
        if u is None:  # unreachable for a unit axis
            raise InvalidState("no chord direction found")
    s_alpha = h * n + radius * u
    s_beta = h * n - radius * u
    p_alpha = 0.5 * (1.0 + norm_perp / radius)
    return DecompositionResult(s_alpha=s_alpha, s_beta=s_beta,
                               p_alpha=p_alpha, p_beta=1.0 - p_alpha)


def d_via_decomposition(rot: RotationSpec, s) -> float:
    """Generalized distinguishability evaluated the experimental way:
    probability-weighted pure-state distinguishabilities of the axis-aligned
    decomposition. Equals `d_general` by construction of the decomposition."""
    dec = decompose_for_axis(s, rot.axis)
    d_alpha = d_general(rot, dec.s_alpha)
    d_beta = d_general(rot, dec.s_beta)
    return dec.p_alpha * d_alpha + dec.p_beta * d_beta


def likelihood(basis, rho0, rho1) -> float:
    """Likelihood of the which-way guess for a projective basis (w+, w-):
    (1/2) [max(p0+, p1+) + max(p0-, p1-)], between 1/2 and 1."""
    w_plus, w_minus = (np.asarray(w, dtype=complex) for w in basis)
    gram = np.array([
        [w_plus.conj() @ w_plus, w_plus.conj() @ w_minus],
        [w_minus.conj() @ w_plus, w_minus.conj() @ w_minus],
    ])
    if np.max(np.abs(gram - np.eye(2))) > 1e-10:
        raise NonOrthonormalBasis("measurement basis is not orthonormal")
    rho0 = polarization.as_density(rho0)
    rho1 = polarization.as_density(rho1)
    p = [[float(np.real(w.conj() @ rho @ w)) for rho in (rho0, rho1)]
         for w in (w_plus, w_minus)]
    return 0.5 * (max(p[0]) + max(p[1]))


def _basis_from_angles(polar, azim):
    """Orthonormal qubit basis whose Bloch axis has the given spherical angles."""
    half = polar / 2.0
    w_plus = np.array([np.cos(half), np.exp(1j * azim) * np.sin(half)])
    w_minus = np.array([-np.exp(-1j * azim) * np.sin(half), np.cos(half)])
    return w_plus, w_minus


def _likelihood_angles(polar, azim, rho0, rho1):
    w_plus, w_minus = _basis_from_angles(polar, azim)
    p0p = np.real(w_plus.conj() @ rho0 @ w_plus)
    p1p = np.real(w_plus.conj() @ rho1 @ w_plus)
    p0m = np.real(w_minus.conj() @ rho0 @ w_minus)
    p1m = np.real(w_minus.conj() @ rho1 @ w_minus)
    return 0.5 * (max(p0p, p1p) + max(p0m, p1m))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fun, lo, hi, iters=60):
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fun(d)
    x = 0.5 * (a + b)
    return x, fun(x)


def max_likelihood_search(rho0, rho1, trials: int = 10_000, seed: int = 0):
    """Randomized maximization of the which-way guess likelihood.

    Uniform sampling of measurement axes on the Bloch sphere followed by
    alternating golden-section refinement of the spherical angles. This is a
    verification oracle for the analytic trace-distance route: for
    trials >= 1e4, 2 L_max - 1 reproduces `dc_trace_distance` well inside
    1e-3. Deterministic given (seed, trials). Returns (L_max, (w+, w-)).
    """
    if trials < 1:
        raise InvalidState("trials must be >= 1")
    rho0 = polarization.as_density(rho0)
    rho1 = polarization.as_density(rho1)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), 0x5EA2C4))))
    cos_t = rng.uniform(-1.0, 1.0, size=trials)
    polar = np.arccos(cos_t)
    azim = rng.uniform(0.0, 2.0 * math.pi, size=trials)
    # vectorized likelihood over all sampled axes
    half = polar / 2.0
    wp = np.stack([np.cos(half), np.exp(1j * azim) * np.sin(half)], axis=1)
    wm = np.stack([-np.exp(-1j * azim) * np.sin(half), np.cos(half)], axis=1)

    def probs(w, rho):
        return np.real(np.einsum("ki,ij,kj->k", w.conj(), rho, w))

    l_all = 0.5 * (np.maximum(probs(wp, rho0), probs(wp, rho1))
                   + np.maximum(probs(wm, rho0), probs(wm, rho1)))
    k = int(np.argmax(l_all))
    best_polar, best_azim = float(polar[k]), float(azim[k])
    # alternating 1-d golden-section sweeps around the best sample
    width = math.pi / 8.0
    for _ in range(4):
        best_polar, _ = _golden_max(
            lambda t: _likelihood_angles(t, best_azim, rho0, rho1),
            best_polar - width, best_polar + width)
        best_azim, _ = _golden_max(
            lambda p: _likelihood_angles(best_polar, p, rho0, rho1),
            best_azim - width, best_azim + width)
        width /= 8.0
    l_best = _likelihood_angles(best_polar, best_azim, rho0, rho1)
    return float(l_best), _basis_from_angles(best_polar, best_azim)


def helstrom_bound(d: float) -> float:
    """Minimum error probability (1 - D) / 2 of the which-way guess."""
    if not (0.0 <= d <= 1.0 + 1e-12):
        raise InvalidState(f"distinguishability must lie in [0, 1], got {d}")
    return 0.5 * (1.0 - min(d, 1.0))


def duality_report(cfg: interferometer.InterferometerConfig, s) -> DualityReport:
    """Assemble V, Dc, D and the complementarity sums for one configuration.

    Internal identities (WPD equality, the Dc bound, the decomposition route)
    are asserted before returning.
    """
    s = polarization.as_stokes(s)
    rot = rotation_from_config(cfg)
    v = visibility_stokes(rot, s)
    dc = dc_stokes(rot, s)
    d = d_general(rot, s)
    c_we = float(np.sqrt(max(0.0, 1.0 - float(s @ s))))
    report = DualityReport(
        visibility=v,
        d_conventional=dc,
        d_general=d,
        predictability=0.0,  # 50:50 beamsplitter: no a-priori path knowledge
        concurrence_we=c_we,
        sum_vd=v * v + d * d,
        sum_vdc=v * v + dc * dc,
    )
    _check_report(report, rot, s)
    return report


def _check_report(report: DualityReport, rot: RotationSpec, s) -> None:
    if abs(report.sum_vd - 1.0) > 1e-10:
        raise InvalidState(f"WPD equality violated: V^2+D^2 = {report.sum_vd}")
    e2 = float(rot.e @ rot.e)
    s2 = float(s @ s)
    if abs(report.sum_vdc - (rot.e0**2 + e2 * s2)) > 1e-10:
        raise InvalidState("conventional WPD sum off its closed form")
    if report.d_conventional > report.d_general + 1e-10:
        raise InvalidState("Dc exceeded D")
    if abs(d_via_decomposition(rot, s) - report.d_general) > 1e-10:
        raise InvalidState("decomposition route disagrees with D")


CASE_LABELS = ("a", "b", "c", "d", "e", "f")
_CASE_TOL = 1e-9


def classify_case(s) -> str:
    """Sort a Stokes vector into the six duality-behavior cases:
    pure with s2 = 0 (a), pure with 0 < |s2| < 1 (b), pure circular (c),
    mixed with s2 = 0 (d), mixed with 0 < |s2| < |s| (e), mixed with
    |s2| = |s| (f). The unpolarized state resolves to (d) by the s2 = 0 rule.
    """
    s = polarization.as_stokes(s)
    norm_s = float(np.linalg.norm(s))
    s2 = abs(float(s[1]))
    if norm_s >= 1.0 - _CASE_TOL:
        if s2 <= _CASE_TOL:
            return "a"
        return "c" if s2 >= 1.0 - _CASE_TOL else "b"
    if s2 <= _CASE_TOL:
        return "d"
    return "f" if s2 >= norm_s - _CASE_TOL else "e"
