"""Output checks, run outside the timed region.

Each check function takes an op and its outputs and returns the names of the
checks that failed (an empty list means the output is correct). The
references are independent of the code paths being timed: the closed forms
of the acceptance criteria and the explicit 4x4 ``interferometer_unitary``
route, which the project keeps as its oracle.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from wpdlab import interferometer, linalg, polarization

ORACLE_ROWS = 8       # sampled rows compared against the 4x4 route
TOL = 1e-10           # CSV values carry 12 significant digits
SIGMA3 = np.diag([1.0, -1.0]).astype(complex)


def parse_csv(text: str):
    """(header columns, data rows as lists of strings) of a wpdlab CSV."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _floats(rows, column: int) -> np.ndarray:
    return np.array([float(r[column]) for r in rows])


# ---------------------------------------------------------------------------
# closed forms and the 4x4 oracle


def closed_forms(theta1_deg: float, s) -> tuple:
    """V, Dc, D at theta0 = 0 (acceptance criterion 1)."""
    t = math.radians(theta1_deg)
    s = np.asarray(s, dtype=float)
    c2, s2t = math.cos(2 * t), abs(math.sin(2 * t))
    v = math.sqrt(c2 * c2 + s[1] ** 2 * (1.0 - c2 * c2))
    dc = math.sqrt(max(0.0, float(s @ s) - s[1] ** 2)) * s2t
    d = math.sqrt(max(0.0, 1.0 - s[1] ** 2)) * s2t
    return v, dc, d


def _port_states(theta1_deg: float, rho: np.ndarray, phi: float, kappa: float):
    """Port-0 and calibrated port-1 polarization operators via the 4x4 route.

    The cross term flips sign under phi -> phi + pi, so the direct and cross
    parts come from two coherent evaluations; kappa scales the cross part.
    """
    rho_in = np.kron(np.diag([1.0, 0.0]), rho)
    halves = []
    for shift in (0.0, math.pi):
        cfg = interferometer.InterferometerConfig(theta1_deg=theta1_deg,
                                                  phase_phi=phi + shift)
        u = interferometer.interferometer_unitary(cfg)
        halves.append(u @ rho_in @ u.conj().T)
    direct = 0.5 * (halves[0] + halves[1])
    cross = 0.5 * (halves[0] - halves[1])
    out = direct + kappa * cross
    return out[:2, :2], SIGMA3 @ out[2:, 2:] @ SIGMA3


def _envelope(delta_um: float, bandwidth_nm: float) -> float:
    """Rectangular-band envelope sin(x)/x, x = pi delta / l_c (README)."""
    lc_um = 679.0**2 / (2.0 * bandwidth_nm) * 1e-3
    return float(np.sinc(delta_um / lc_um))


# ---------------------------------------------------------------------------
# per-kind checks


def check_fringe(op, texts) -> list:
    """fringe, band and erasure tables: port sum, grid, 4x4 oracle rows,
    analyzer columns summing to p_out1 (erasure)."""
    p = op.params
    header, rows = parse_csv(texts[0])
    erasure = op.kind == "erasure"
    want_cols = (["theta1_deg", "delta_um", "phi_rad", "p_out0", "p_out1",
                  "p_apd10", "p_apd11"] if erasure else
                 ["delta_um", "phi_rad", "p_out0", "p_out1"])
    if header != want_cols:
        return ["columns"]
    thetas = (0.0, 45.0) if erasure else (p["theta1"],)
    delta = np.array(p["delta"])
    if len(rows) != len(thetas) * delta.size:
        return ["row_count"]
    failures = []
    off = 1 if erasure else 0
    got_delta = _floats(rows, off)
    if np.max(np.abs(got_delta - np.tile(delta, len(thetas)))) > 1e-9 * max(1.0, np.max(np.abs(delta))):
        failures.append("grid")
    p0, p1 = _floats(rows, off + 2), _floats(rows, off + 3)
    if np.max(np.abs(p0 + p1 - 1.0)) > TOL:
        failures.append("port_sum")
    if erasure:
        apd = _floats(rows, 5) + _floats(rows, 6)
        if np.max(np.abs(apd - p1)) > TOL:
            failures.append("analyzer_sum")
    rho = polarization.density_from_stokes(p["stokes"])
    vt, vr = interferometer.analyzer_basis(interferometer.CIRCULAR_ANALYZER)
    sample = np.unique(np.linspace(0, len(rows) - 1, ORACLE_ROWS).astype(int))
    for k in sample:
        theta1 = thetas[k // delta.size]
        d = float(delta[k % delta.size])
        phi = 4.0 * math.pi * d * 1e3 / 679.0
        port0, port1 = _port_states(theta1, rho, phi, _envelope(d, p["bandwidth_nm"]))
        want = [phi, np.trace(port0).real, np.trace(port1).real]
        if erasure:
            want += [np.real(vt.conj() @ port1 @ vt), np.real(vr.conj() @ port1 @ vr)]
        got = [float(v) for v in rows[k][off + 1:]]
        # phi reaches ~1e3 rad on long scans: 12 digits are relative
        scale = [max(1.0, abs(phi))] + [1.0] * (len(want) - 1)
        if max(abs(g - w) / s for g, w, s in zip(got, want, scale)) > 1e-9:
            failures.append("oracle")
            break
    return failures


def check_sweep(op, texts) -> list:
    """V, Dc, D against the theta0 = 0 closed forms, and the case labels."""
    p = op.params
    header, rows = parse_csv(texts[0])
    if header[:6] != ["theta0_deg", "theta1_deg", "s1", "s2", "s3", "case"]:
        return ["columns"]
    thetas, vectors = p["thetas"], p["stokes"]
    if len(rows) != len(thetas) * len(vectors):
        return ["row_count"]
    failures = set()
    for k, row in enumerate(rows):
        s = vectors[k // len(thetas)]
        t1 = thetas[k % len(thetas)]
        vals = [float(x) for x in row[:5]] + [float(x) for x in row[6:]]
        if abs(vals[0]) > 0 or abs(vals[1] - t1) > 1e-9 or \
                max(abs(a - b) for a, b in zip(vals[2:5], s)) > 1e-11:
            failures.add("grid")
        v, dc, d = closed_forms(t1, s)
        if max(abs(vals[5] - v), abs(vals[6] - dc), abs(vals[7] - d)) > TOL:
            failures.add("closed_form")
        if abs(vals[8] - 1.0) > TOL:
            failures.add("wpd_equality")
        if p["cases"] and row[5] != p["cases"][k // len(thetas)]:
            failures.add("case")
    return sorted(failures)


def check_wpd_verify(op, texts) -> list:
    p = op.params
    header, rows = parse_csv(texts[0])
    if header[:10] != ["theta0_deg", "theta1_deg", "V_est", "V_ci_low", "V_ci_high",
                       "V_true", "D_est", "D_ci_low", "D_ci_high", "D_true"]:
        return ["columns"]
    if len(rows) != len(p["thetas"]):
        return ["row_count"]
    failures = set()
    for row, t1 in zip(rows, p["thetas"]):
        x = [float(v) for v in row[:12]]
        v, _, d = closed_forms(t1, p["stokes"])
        if abs(x[1] - t1) > 1e-9:
            failures.add("grid")
        if abs(x[5] - v) > TOL or abs(x[9] - d) > TOL:
            failures.add("closed_form")
        if not (x[3] <= x[2] <= x[4] and x[7] <= x[6] <= x[8]):
            failures.add("ci_bracket")
        if int(row[12]) != p["seed"]:
            failures.add("seed")
    return sorted(failures)


def check_montecarlo(op, texts) -> list:
    p = op.params
    header, rows = parse_csv(texts[0])
    if header[:10] != ["setting_id", "theta1_deg", "branch", "N_0_10", "N_0_11",
                       "N_1_10", "N_1_11", "estimate", "ci_low", "ci_high"]:
        return ["columns"]
    if len(rows) != 3 * len(p["thetas"]):
        return ["row_count"]
    failures = set()
    for k, row in enumerate(rows):
        if row[2] != ("alpha", "beta", "D")[k % 3]:
            failures.add("branch")
            continue
        est, lo, hi = (float(v) for v in row[7:10])
        if not lo <= est <= hi:
            failures.add("ci_bracket")
        if row[2] != "D":
            if not 0.5 - 1e-9 <= est <= 1.0 + 1e-9:
                failures.add("likelihood_range")
            n = [int(v) for v in row[3:7]]
            if min(n) < 0 or n[0] + n[1] > p["photons"] or n[2] + n[3] > p["photons"]:
                failures.add("counts")
    return sorted(failures)


def check_tomography(op, texts) -> list:
    p = op.params
    header, rows = parse_csv(texts[0])
    if header != ["quantity", "n_plus", "n_minus", "estimate", "truth", "ci_low", "ci_high"]:
        return ["columns"]
    if [r[0] for r in rows] != ["s1", "s2", "s3", "fidelity_unpolarized"]:
        return ["row_count"]
    failures = set()
    s = np.asarray(p["stokes"])
    for k, row in enumerate(rows):
        est, truth, lo, hi = (float(v) for v in row[3:7])
        if not lo <= est <= hi:
            failures.add("ci_bracket")
        if k < 3:
            if int(row[1]) + int(row[2]) != p["photons"]:
                failures.add("count_sum")
            if abs(truth - s[k]) > 1e-11:
                failures.add("truth")
        elif abs(truth - 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - float(s @ s))))) > TOL:
            failures.add("truth")
    return sorted(failures)


def check_purify(op, results) -> list:
    """V^2 + D^2 = 1, projective D = D, Tr(M Delta) <= D, Tr_E recovers rho."""
    rho = polarization.density_from_stokes(op.params["stokes"])
    if len(results) != len(op.params["rotations"]):
        return ["row_count"]
    failures = set()
    for (rho0, _), (v, _, d), d_proj, m_value in results:
        if abs(v * v + d * d - 1.0) > TOL:
            failures.add("wpd_equality")
        if abs(d_proj - d) > TOL:
            failures.add("projective_d")
        if m_value > d + TOL:
            failures.add("m_bound")
        if np.max(np.abs(rho0 - rho)) > TOL or not linalg.is_hermitian(rho0):
            failures.add("marker_state")
    return sorted(failures)


CHECKS = {
    "fringe": check_fringe, "band": check_fringe, "erasure": check_fringe,
    "sweep": check_sweep, "sweep-long": check_sweep,
    "wpd-verify": check_wpd_verify, "wpd-verify-ball": check_wpd_verify,
    "montecarlo": check_montecarlo, "montecarlo-ball": check_montecarlo,
    "tomography": check_tomography,
}


def check(result) -> None:
    """Fill in rows, digest and failed checks of an executed op."""
    op = result.op
    if result.exit_code != 0:
        return
    if not op.is_cli:
        result.failures = check_purify(op, result.results)
        result.rows = len(result.results) if not result.failures else 0
        return
    try:
        texts = [Path(path).read_text() for path in result.outputs]
    except OSError:
        result.failures = ["missing_output"]
        return
    try:
        result.failures = CHECKS[op.kind](op, texts)
    except (ValueError, IndexError):  # unparsable or truncated table
        result.failures = ["malformed"]
    result.digest = digest(result.outputs)
    if not result.failures:
        result.rows = len(parse_csv(texts[0])[1])
