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

Both arm rotators turn the Stokes vector about s2 by four times their
wave-plate angle, and the sigma3 frame of the beamsplitter reverses the sense
of arm 1. The relative rotation is therefore a turn about s2 that depends on
theta0 + theta1 alone, and `rotation_from_config` writes its parameters in
closed form: with a = 2 (theta0 + theta1) in radians, e0 = |cos a| and
e = -sgn(cos a) sin a (0, 1, 0). No 2x2 matrix is built or decomposed.

Inputs are validated once, in each public function; `_functionals` takes a
Stokes vector that its caller has already validated and checks nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import interferometer, polarization
from .errors import InvalidState, NonOrthonormalBasis

# Both arm rotators turn about s2, so every relative rotation does too.
ROTATION_AXIS = np.array([0.0, 1.0, 0.0])


@dataclass(frozen=True)
class RotationSpec:
    """Euler-Rodrigues parameters of an SU(2) rotation by omega about `axis`,
    sign fixed to e0 >= 0: e0 = cos(omega/2), e = sin(omega/2) * axis."""

    e0: float
    e: np.ndarray
    axis: np.ndarray


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
    sum_vd: float
    sum_vdc: float


def relative_rotation(cfg: interferometer.InterferometerConfig) -> np.ndarray:
    """Net polarization rotation between the two arms as seen at the output:
    U_R(t0)^+ . [sigma3 U_R(t1) sigma3]."""
    u0 = interferometer.retro_rotator(cfg.theta0_deg)
    u1t = interferometer.retro_rotator_flipped(cfg.theta1_deg)
    return u0.conj().T @ u1t


def rotation_from_config(cfg: interferometer.InterferometerConfig) -> RotationSpec:
    """Parameters of `relative_rotation(cfg)` in closed form (module docstring)."""
    a = 2.0 * math.radians(cfg.theta0_deg + cfg.theta1_deg)
    c = math.cos(a)
    e = np.array([0.0, -math.copysign(1.0, c) * math.sin(a), 0.0])
    return RotationSpec(e0=abs(c), e=e, axis=ROTATION_AXIS.copy())


def _functionals(rot: RotationSpec, s: np.ndarray):
    """(V, Dc, D) of a validated Stokes vector, from one cross product. Dc
    is |e x s| and D is sqrt(|e x s|^2 + e^2 (1 - s^2)): the direct
    differences of the module docstring cancel when e and s are parallel."""
    v = float(np.sqrt(rot.e0**2 + float(rot.e @ s) ** 2))
    cross = np.cross(rot.e, s)
    cross2 = float(cross @ cross)
    e2 = float(rot.e @ rot.e)
    d = float(np.sqrt(cross2 + e2 * max(0.0, 1.0 - float(s @ s))))
    return v, float(np.sqrt(cross2)), d


def visibility_stokes(rot: RotationSpec, s) -> float:
    return _functionals(rot, polarization.as_stokes(s))[0]


def dc_stokes(rot: RotationSpec, s) -> float:
    """Conventional distinguishability |e x s| (see `_functionals`)."""
    return _functionals(rot, polarization.as_stokes(s))[1]


def d_general(rot: RotationSpec, s) -> float:
    """Generalized distinguishability sqrt(e^2 - (e.s)^2) (see `_functionals`)."""
    return _functionals(rot, polarization.as_stokes(s))[2]


def dc_trace_distance(rho0, rho1) -> float:
    """Half the trace distance (1/2) Tr|rho0 - rho1|; equals half the
    Euclidean distance between the two Stokes vectors."""
    diff = polarization.stokes_from_density(rho0) - polarization.stokes_from_density(rho1)
    return 0.5 * float(np.linalg.norm(diff))


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
    norm_n = float(np.linalg.norm(n)) if n.shape == (3,) else 0.0
    if not (0.0 < norm_n < math.inf):  # also refuses a NaN component
        raise InvalidState(f"rotation axis must be a finite nonzero 3-vector, got {axis!r}")
    n = n / norm_n
    norm_s = float(np.linalg.norm(s))
    h = float(n @ s)
    if norm_s >= 1.0 - 1e-12:  # pure: beta is the mirror of s at the same height
        return DecompositionResult(s_alpha=s.copy(), s_beta=2.0 * h * n - s,
                                   p_alpha=1.0, p_beta=0.0)
    radius = math.sqrt(max(0.0, 1.0 - h * h))
    perp = s - h * n
    norm_perp = float(np.linalg.norm(perp))
    if norm_perp >= 1e-12:
        u = perp / norm_perp
    else:  # a unit axis leaves at least one fallback a nonzero projection
        fallbacks = (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
        cands = [f - float(n @ f) * n for f in fallbacks]
        u = next(c / np.linalg.norm(c) for c in cands if np.linalg.norm(c) >= 1e-12)
    s_alpha = h * n + radius * u
    s_beta = h * n - radius * u
    return DecompositionResult(s_alpha=s_alpha, s_beta=s_beta,
                               p_alpha=0.5 * (1.0 + norm_perp / radius),
                               p_beta=0.5 * (1.0 - norm_perp / radius))


def d_via_decomposition(rot: RotationSpec, s) -> float:
    """Generalized distinguishability evaluated the experimental way:
    probability-weighted pure-state distinguishabilities of the axis-aligned
    decomposition. Equals `d_general` by construction of the decomposition."""
    dec = decompose_for_axis(s, rot.axis)
    d_alpha = _functionals(rot, dec.s_alpha)[2]
    d_beta = _functionals(rot, dec.s_beta)[2]
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
    return float(_guess_likelihood((w_plus, w_minus), rho0, rho1))


def _guess_likelihood(basis, rho0, rho1):
    # the formula of `likelihood`, on inputs its caller has validated
    w_plus, w_minus = basis
    p0p = np.real(w_plus.conj() @ rho0 @ w_plus)
    p1p = np.real(w_plus.conj() @ rho1 @ w_plus)
    p0m = np.real(w_minus.conj() @ rho0 @ w_minus)
    p1m = np.real(w_minus.conj() @ rho1 @ w_minus)
    return 0.5 * (max(p0p, p1p) + max(p0m, p1m))


def _basis_from_angles(polar, azim):
    """Orthonormal qubit basis whose Bloch axis has the given spherical angles."""
    half = polar / 2.0
    w_plus = np.array([np.cos(half), np.exp(1j * azim) * np.sin(half)])
    w_minus = np.array([-np.exp(-1j * azim) * np.sin(half), np.cos(half)])
    return w_plus, w_minus


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
            lambda t: _guess_likelihood(_basis_from_angles(t, best_azim), rho0, rho1),
            best_polar - width, best_polar + width)
        best_azim, _ = _golden_max(
            lambda p: _guess_likelihood(_basis_from_angles(best_polar, p), rho0, rho1),
            best_azim - width, best_azim + width)
        width /= 8.0
    basis = _basis_from_angles(best_polar, best_azim)
    return float(_guess_likelihood(basis, rho0, rho1)), basis


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
    v, dc, d = _functionals(rot, s)
    report = DualityReport(
        visibility=v,
        d_conventional=dc,
        d_general=d,
        sum_vd=v * v + d * d,
        sum_vdc=v * v + dc * dc,
    )
    _check_report(report, rot, s)
    return report


def _check_report(report: DualityReport, rot: RotationSpec, s) -> None:
    # each check is written `not (... <= tol)` so that a NaN fails it
    if not (abs(report.sum_vd - 1.0) <= 1e-10):
        raise InvalidState(f"WPD equality violated: V^2+D^2 = {report.sum_vd}")
    e2 = float(rot.e @ rot.e)
    s2 = float(s @ s)
    if not (abs(report.sum_vdc - (rot.e0**2 + e2 * s2)) <= 1e-10):
        raise InvalidState("conventional WPD sum off its closed form")
    if not (report.d_conventional <= report.d_general + 1e-10):
        raise InvalidState("Dc exceeded D")
    if not (abs(d_via_decomposition(rot, s) - report.d_general) <= 1e-10):
        raise InvalidState("decomposition route disagrees with D")


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
