"""Scenario runner: parameter sweeps, fringe/erasure tables, Monte Carlo
verification and tomography, written as CSV with a provenance header.

Configuration is flat ``key = value`` text with ``#`` comments, one key per
row of ``SETTINGS``; the flags of the same names override it. Angles are
degrees at this surface. Every output starts with ``#`` comment lines
recording the package version, seed, RNG algorithm and a hash of the
effective configuration, and contains no timestamps, so identical seeds give
byte-identical files.

Every gate is one rule, ``|residual| <= bound`` per row, where a NaN fails;
the first failing row is reported. Exit codes: 0 all gates passed,
2 configuration error, 3 gate failure, 1 any other error (a machine-readable
``error: category=...`` line goes to stderr).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__, duality, interferometer, montecarlo, polarization
from .errors import ConfigError, GateFailure, InvalidState, WpdError

_FLOAT_FMT = "%.12g"


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    mode: str = "sweep"
    theta0_deg: float = 0.0
    theta1_deg: tuple = ()  # empty = use the mode's default grid
    stokes: tuple = ((0.0, 0.0, 0.0),)
    photons: int = 100_000
    seed: int = 12345
    out: str = "wpdlab_out.csv"
    visibility_scale: float = 1.0
    wavelength_nm: float = 679.0
    bandwidth_nm: float = 0.0
    shape: str = "monochromatic"
    phi_points: int = 64
    delta_um: tuple = ()
    resamples: int = montecarlo.DEFAULT_RESAMPLES
    table: str = ""

    def spectral(self) -> interferometer.SpectralModel:
        return interferometer.SpectralModel(
            center_wavelength_nm=self.wavelength_nm,
            bandwidth_nm=self.bandwidth_nm,
            shape=self.shape,
        )

    def interferometer_config(self, theta1_deg: float) -> interferometer.InterferometerConfig:
        return interferometer.InterferometerConfig(
            theta0_deg=self.theta0_deg,
            theta1_deg=theta1_deg,
            visibility_scale=self.visibility_scale,
        )


MODES = ("sweep", "fringe", "erasure", "wpd-verify", "montecarlo", "tomography", "plot")

# Largest phase grid, theta1/delta range or resample count a run may ask for.
MAX_GRID_POINTS = 100_000
# wpd-verify's bootstrap makes (resamples, phi_points) int, float and complex arrays.
MAX_BOOTSTRAP_CELLS = 10_000_000
# Photon counts feed numpy's int64 samplers.
_MAX_PHOTONS = int(np.iinfo(np.int64).max)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def parse_scalar_or_range(text: str, what: str) -> tuple:
    """Parse '22.5', '0:45:1' (inclusive, step > 0), or '0,15,22.5'."""
    text = text.strip()
    try:
        if ":" in text:
            parts = [_finite(p) for p in text.split(":")]
            if len(parts) != 3:
                raise ValueError("range needs start:stop:step")
            start, stop, step = parts
            if step <= 0:
                raise ValueError("step must be > 0")
            if stop < start:
                raise ValueError("stop must be >= start")
            # count before building: a range of 1e12 values must not be built
            too_long = f"range needs finite bounds and at most {MAX_GRID_POINTS} values"
            n = (stop - start) / step + 0.5
            if not n < MAX_GRID_POINTS + 1:  # an overflowing span gives inf
                raise ValueError(too_long)
            # near the float maximum a value past stop overflows to inf, and is dropped
            with np.errstate(over="ignore"):
                values = start + np.arange(int(n) + 1) * step
            values = tuple(values[values <= stop + 1e-9].tolist())
            if len(values) > MAX_GRID_POINTS:
                raise ValueError(too_long)
            return values
        parts = text.split(",")
        if len(parts) > MAX_GRID_POINTS:
            raise ValueError(f"list takes at most {MAX_GRID_POINTS} values")
        return tuple(_finite(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad {what} {text!r}: {exc}") from None


def parse_stokes_list(text: str) -> tuple:
    """Parse 's1,s2,s3' triples, multiple triples separated by ';'."""
    triples = []
    try:
        for chunk in text.split(";"):
            s = tuple(_finite(p) for p in chunk.split(","))
            if len(s) != 3:
                raise ValueError(f"need 's1,s2,s3', got {chunk!r}")
            if np.linalg.norm(s) > 1.0 + 1e-12:
                raise ValueError(f"unphysical Stokes vector {chunk!r} (|s| > 1)")
            triples.append(s)
    except ValueError as exc:
        raise ConfigError(f"bad stokes {text!r}: {exc}") from None
    return tuple(triples)


class Setting(NamedTuple):
    field: str                      # RunConfig field
    parse: Callable[[str], object]  # text -> value; a ValueError gives the reason
    help: Optional[str]             # None: no flag (the mode is the subcommand)


# Every run setting, keyed by its config-file key; its flag is the key with
# '-' for '_'. build_run_config checks the bounds once all values are merged.
SETTINGS: Dict[str, Setting] = {
    "mode": Setting("mode", str, None),
    "theta0": Setting("theta0_deg", _finite, "QWP0 fast-axis angle (deg)"),
    "theta1": Setting("theta1_deg", lambda text: parse_scalar_or_range(text, "theta1"),
                      "QWP1 angle: scalar, start:stop:step, or comma list (deg)"),
    "stokes": Setting("stokes", parse_stokes_list,
                      "Stokes vector 's1,s2,s3' (sweep only: several, ';'-separated)"),
    "photons": Setting("photons", int, "photons per setting / grid point"),
    "seed": Setting("seed", int, "master RNG seed"),
    "out": Setting("out", str, "output CSV path"),
    "visibility_scale": Setting("visibility_scale", _finite, "interference-term scale in (0, 1]"),
    "wavelength_nm": Setting("wavelength_nm", _finite, "centre wavelength (nm)"),
    "bandwidth_nm": Setting("bandwidth_nm", _finite, "spectral bandwidth (nm)"),
    "shape": Setting("shape", str, "spectrum: monochromatic or rectangular"),
    "phi_points": Setting("phi_points", int, "phase grid points per fringe period"),
    "delta": Setting("delta_um", lambda text: parse_scalar_or_range(text, "delta"),
                     "path-difference grid, written as theta1 is (um)"),
    "resamples": Setting("resamples", int, "bootstrap resamples for confidence intervals"),
    "table": Setting("table", str, "existing CSV to plot (plot mode)"),
}


def _parse_setting(key: str, text: str):
    """One setting's value from its text; a ConfigError names key and reason."""
    try:
        return SETTINGS[key].parse(text)
    except ConfigError:  # the range and Stokes parsers name the setting themselves
        raise
    except ValueError as exc:
        raise ConfigError(f"bad {key} {text!r}: {exc}") from None


def parse_config_file(path) -> Dict[str, str]:
    """Flat key = value lines with # comments; errors carry line numbers."""
    raw: Dict[str, str] = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        raw[key] = value
    return raw


def build_run_config(file_values: Dict[str, str], flag_values: Dict[str, object],
                     mode: str) -> RunConfig:
    """Merge precedence: defaults < config file < flags (text or numbers) < mode."""
    merged = dict(file_values)
    merged.update((key, str(value)) for key, value in flag_values.items() if value is not None)
    merged["mode"] = mode
    cfg = RunConfig(**{SETTINGS[key].field: _parse_setting(key, text)
                       for key, text in merged.items()})
    if not 1 <= cfg.photons <= _MAX_PHOTONS:
        raise ConfigError(f"photons must lie in [1, {_MAX_PHOTONS}]")
    if len(cfg.stokes) > 1 and mode not in ("sweep", "plot"):
        raise ConfigError(f"{mode} takes one source; several stokes triples are for sweep only")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    if not 1 <= cfg.resamples <= MAX_GRID_POINTS:
        raise ConfigError(f"resamples must lie in [1, {MAX_GRID_POINTS}], got {cfg.resamples}")
    if not 8 <= cfg.phi_points <= MAX_GRID_POINTS:
        raise ConfigError(f"phi_points must lie in [8, {MAX_GRID_POINTS}], got {cfg.phi_points}")
    if mode == "wpd-verify" and cfg.resamples * cfg.phi_points > MAX_BOOTSTRAP_CELLS:
        raise ConfigError(f"resamples * phi_points must be at most {MAX_BOOTSTRAP_CELLS}")
    if not (0.0 < cfg.visibility_scale <= 1.0):
        raise ConfigError("visibility_scale must lie in (0, 1]")
    try:  # every mode checks the spectrum, also the modes that never use it
        cfg.spectral()
    except InvalidState as exc:
        raise ConfigError(f"bad spectrum (wavelength_nm={cfg.wavelength_nm}, bandwidth_nm="
                          f"{cfg.bandwidth_nm}, shape={cfg.shape!r}): {exc}") from None
    return cfg


# ---------------------------------------------------------------------------
# output plumbing


def _config_hash(cfg: RunConfig) -> str:
    # output locations are excluded so reruns to new paths stay byte-identical
    skip = {"out", "table"}
    text = "\n".join(f"{k}={v!r}" for k, v in sorted(vars(cfg).items())
                     if k not in skip)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def provenance_lines(cfg: RunConfig) -> List[str]:
    return [
        f"# wpdlab {__version__}",
        f"# command = {cfg.mode}",
        f"# seed = {cfg.seed}",
        f"# rng = {montecarlo.RNG_ALGORITHM}",
        f"# config_hash = {_config_hash(cfg)}",
    ]


def write_csv(path, cfg: RunConfig, columns: Sequence[str], rows,
              extra_comments: Sequence[str] = ()) -> str:
    """Provenance header, column names and rows, in one `%` format per table
    built from the first row: `%.12g` for a float (np.float64 included), `str`
    for the rest. Later rows hold the same types; "" may fill a `str` column."""
    lines = provenance_lines(cfg) + list(extra_comments)
    lines.append(",".join(columns))
    if rows:
        fmt = ",".join(_FLOAT_FMT if isinstance(v, float) else "%s" for v in rows[0])
        lines.extend(fmt % tuple(row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path:
        _write_output(path, text)
    return text


def _write_output(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from None


# ---------------------------------------------------------------------------
# runners


def _gate(residual, bound, describe: Callable[[int], str]) -> None:
    """Raise GateFailure(describe(k)) at the first row k failing |residual| <= bound; NaN fails."""
    off = ~(np.abs(residual) <= bound)
    if off.any():
        raise GateFailure(describe(int(off.argmax())))


SWEEP_COLUMNS = ("theta0_deg", "theta1_deg", "s1", "s2", "s3", "case",
                 "V", "Dc", "D", "V2_plus_D2", "V2_plus_Dc2")

DEFAULT_SWEEP_THETAS = tuple(float(t) for t in range(46))


def run_sweep(cfg: RunConfig) -> str:
    """One duality report row per (stokes, theta1) grid point.

    `duality.duality_report` checks V^2 + D^2 = 1 on every row and raises
    InvalidState when it fails.
    """
    thetas = cfg.theta1_deg or DEFAULT_SWEEP_THETAS

    def evaluate(s, t1):
        report = duality.duality_report(cfg.interferometer_config(t1), s)
        case = duality.classify_case(s)
        return (cfg.theta0_deg, t1, s[0], s[1], s[2], case,
                report.visibility, report.d_conventional, report.d_general,
                report.sum_vd, report.sum_vdc)

    rows = [evaluate(s, t1) for s in cfg.stokes for t1 in thetas]
    return write_csv(cfg.out, cfg, SWEEP_COLUMNS, rows)


FRINGE_COLUMNS = ("delta_um", "phi_rad", "p_out0", "p_out1")


def _default_delta_grid(cfg: RunConfig) -> np.ndarray:
    if cfg.delta_um:
        return np.asarray(cfg.delta_um, dtype=float)
    # one fringe period: phi = 4 pi delta / lambda spans 2 pi
    period_um = cfg.wavelength_nm * 1e-3 / 2.0
    return np.arange(cfg.phi_points) * period_um / cfg.phi_points


def run_fringe(cfg: RunConfig) -> str:
    """Fringe table for the configured interferometer over a delta grid."""
    rho = polarization.density_from_stokes(cfg.stokes[0])
    theta1 = cfg.theta1_deg[0] if cfg.theta1_deg else 0.0
    itf_cfg = cfg.interferometer_config(theta1)
    columns, rows = interferometer.fringe_scan(
        itf_cfg, rho, cfg.spectral(), _default_delta_grid(cfg))
    _gate(rows[:, 2] + rows[:, 3] - 1.0, 1e-12 * np.maximum(1.0, np.abs(rows[:, 2])),
          lambda k: f"port probabilities do not sum to 1 at delta={rows[k, 0]}")
    return write_csv(cfg.out, cfg, columns, rows.tolist())


ERASURE_COLUMNS = ("theta1_deg", "delta_um", "phi_rad", "p_out0", "p_out1",
                   "p_apd10", "p_apd11")
ERASURE_SUMMARY_COLUMNS = ("theta1_deg", "channel", "visibility", "phase_rad",
                           "phase_minus_apd10_rad")


def run_erasure(cfg: RunConfig) -> str:
    """Which-way-marking destruction and circular-basis erasure revival.

    Emits the fringe tables for theta1 in {0, 45} degrees with circular
    analyzers on port 1, plus a fitted-visibility summary CSV next to the
    main table (suffix .summary.csv).
    """
    rho = polarization.density_from_stokes(cfg.stokes[0])
    spectral = cfg.spectral()
    delta = _default_delta_grid(cfg)
    table_rows: List[tuple] = []
    summary_rows: List[tuple] = []
    for t1 in (0.0, 45.0):
        itf_cfg = cfg.interferometer_config(t1)
        _, rows = interferometer.fringe_scan(
            itf_cfg, rho, spectral, delta,
            analyzers=interferometer.CIRCULAR_ANALYZER)
        table_rows.extend((t1, *row) for row in rows.tolist())
        phi = rows[:, 1]
        fits = {}
        for name, column in (("out1", 3), ("apd10", 4), ("apd11", 5)):
            # a numerically flat channel has no phase; record zero visibility
            fits[name] = interferometer.fit_visibility(phi, rows[:, column]) \
                if np.ptp(rows[:, column]) > 1e-14 else (0.0, 0.0)
        ref_phase = fits["apd10"][1]
        for name in ("out1", "apd10", "apd11"):
            vis, phase = fits[name]
            rel = 0.0
            if name != "apd10" and vis > 1e-12:
                rel = math.remainder(phase - ref_phase, 2 * math.pi)
            summary_rows.append((t1, name, vis, phase, rel))
        _gate(rows[:, 4].sum() + rows[:, 5].sum() - rows[:, 3].sum(), 1e-9,
              lambda k: "analyzer outputs do not sum to the port intensity")
    text = write_csv(cfg.out, cfg, ERASURE_COLUMNS, table_rows)
    if cfg.out:
        summary_path = Path(cfg.out).with_suffix(".summary.csv")
        write_csv(summary_path, cfg, ERASURE_SUMMARY_COLUMNS, summary_rows)
    return text


WPD_VERIFY_COLUMNS = ("theta0_deg", "theta1_deg",
                      "V_est", "V_ci_low", "V_ci_high", "V_true",
                      "D_est", "D_ci_low", "D_ci_high", "D_true",
                      "vd_sum_est", "vd_sum_sigma", "seed", "rng_algo")

DEFAULT_VERIFY_THETAS = (0.0, 15.0, 22.5, 30.0, 45.0)


def run_wpd_verify(cfg: RunConfig) -> str:
    """Monte Carlo verification of V^2 + D^2 = 1 against the closed forms.

    Per theta1 grid point: the decomposition D estimator and the fringe V
    estimator run with per-point derived streams; the gate requires
    |V^2 + D^2 - 1| within 3 combined sigma at every point.
    """
    thetas = cfg.theta1_deg or DEFAULT_VERIFY_THETAS
    s = np.asarray(cfg.stokes[0], dtype=float)
    rho = polarization.density_from_stokes(s)
    phi = np.linspace(0.0, 2.0 * math.pi, cfg.phi_points, endpoint=False)

    def evaluate(idx, t1):
        itf_cfg = cfg.interferometer_config(t1)
        rng_d = montecarlo.make_rng(cfg.seed, 4 * idx)
        rng_v = montecarlo.make_rng(cfg.seed, 4 * idx + 1)
        d_run = montecarlo.estimate_distinguishability_decomposed(
            itf_cfg, s, cfg.photons, rng_d, resamples=cfg.resamples)
        v_est = montecarlo.estimate_visibility_mc(
            itf_cfg, rho, phi, cfg.photons, rng_v, resamples=cfg.resamples)
        d_est = d_run.estimate
        v_true = montecarlo.visibility_truth(itf_cfg, s) * cfg.visibility_scale
        d_true = montecarlo.distinguishability_truth(itf_cfg, s)
        vd_sum = v_est.value**2 + d_est.value**2
        vd_sigma = math.hypot(2 * v_est.value * v_est.sigma,
                              2 * d_est.value * d_est.sigma)
        return (cfg.theta0_deg, t1,
                v_est.value, v_est.ci_low, v_est.ci_high, v_true,
                d_est.value, d_est.ci_low, d_est.ci_high, d_true,
                vd_sum, vd_sigma, cfg.seed, montecarlo.RNG_ALGORITHM)

    rows = [evaluate(idx, t1) for idx, t1 in enumerate(thetas)]
    vd_sum, vd_sigma = np.array([row[10:12] for row in rows]).T
    _gate(vd_sum - 1.0, np.maximum(3.0 * vd_sigma, 1e-9),  # np.maximum keeps a NaN
          lambda k: f"WPD closure failed at theta1={rows[k][1]}: "
                    f"V2+D2={rows[k][10]} sigma={rows[k][11]}")
    return write_csv(cfg.out, cfg, WPD_VERIFY_COLUMNS, rows)


MONTECARLO_COLUMNS = ("setting_id", "theta1_deg", "branch",
                      "N_0_10", "N_0_11", "N_1_10", "N_1_11",
                      "estimate", "ci_low", "ci_high", "seed", "rng_algo")


def run_montecarlo(cfg: RunConfig) -> str:
    """Raw which-way counting experiment: per theta1 and branch, the
    blocked-path count table and the likelihood with its D-run bootstrap CI."""
    thetas = cfg.theta1_deg or DEFAULT_VERIFY_THETAS
    s = np.asarray(cfg.stokes[0], dtype=float)
    rows = []
    setting_id = 0
    for idx, t1 in enumerate(thetas):
        itf_cfg = cfg.interferometer_config(t1)
        rng = montecarlo.make_rng(cfg.seed, 4 * idx)
        d_run = montecarlo.estimate_distinguishability_decomposed(
            itf_cfg, s, cfg.photons, rng, resamples=cfg.resamples)
        for branch in ("alpha", "beta"):
            record = d_run.branch_records[branch]
            like = d_run.branch_likelihoods[branch]
            _gate(like.value - 0.75, 0.25 + 1e-9,
                  lambda k: f"likelihood out of range at theta1={t1}")
            n = record.counts
            rows.append((setting_id, t1, branch,
                         int(n[0, 0]), int(n[0, 1]), int(n[1, 0]), int(n[1, 1]),
                         like.value, like.ci_low, like.ci_high,
                         cfg.seed, montecarlo.RNG_ALGORITHM))
            setting_id += 1
        d_est = d_run.estimate
        rows.append((setting_id, t1, "D", "", "", "", "",
                     d_est.value, d_est.ci_low, d_est.ci_high,
                     cfg.seed, montecarlo.RNG_ALGORITHM))
        setting_id += 1
    return write_csv(cfg.out, cfg, MONTECARLO_COLUMNS, rows)


TOMOGRAPHY_COLUMNS = ("quantity", "n_plus", "n_minus", "estimate", "truth",
                      "ci_low", "ci_high")


def run_tomography(cfg: RunConfig) -> str:
    """Three-basis Stokes tomography of the configured source."""
    s_true = np.asarray(cfg.stokes[0], dtype=float)
    rho = polarization.density_from_stokes(s_true)
    rng = montecarlo.make_rng(cfg.seed, 0)
    run = montecarlo.tomography(rho, cfg.photons, rng, resamples=cfg.resamples)
    _gate(np.linalg.norm(polarization.clip_stokes(run.stokes_estimate)), 1.0 + 1e-12,
          lambda k: "clipped Stokes estimate left the Bloch ball")
    rows = []
    for k, name in enumerate(("s1", "s2", "s3")):
        n_plus = int(run.counts_plus[k])
        p_hat = n_plus / cfg.photons
        sigma = 2.0 * math.sqrt(p_hat * (1.0 - p_hat) / cfg.photons)
        est = run.stokes_estimate[k]
        rows.append((name, n_plus, cfg.photons - n_plus, est, s_true[k],
                     est - 1.96 * sigma, est + 1.96 * sigma))
    fid = run.fidelity_unpolarized
    unpol = 0.5 * np.eye(2, dtype=complex)
    rows.append(("fidelity_unpolarized", "", "", fid.value,
                 polarization.fidelity(rho, unpol), fid.ci_low, fid.ci_high))
    return write_csv(cfg.out, cfg, TOMOGRAPHY_COLUMNS, rows)


# ---------------------------------------------------------------------------
# plot-script emission

_PLOT_HEADER = '''"""Plot a {kind} table produced by wpdlab. Run: python3 {script}"""
import csv
from pathlib import Path

import matplotlib.pyplot as plt

TABLE = Path(__file__).parent / "{table}"

with open(TABLE) as fh:
    reader = csv.DictReader(line for line in fh if not line.startswith("#"))
    rows = list(reader)
'''

_PLOT_BODIES = {
    "sweep": '''
theta = [float(r["theta1_deg"]) for r in rows]
for column, style in (("V", "o-"), ("Dc", "s-"), ("D", "^-"), ("V2_plus_D2", "--")):
    plt.plot(theta, [float(r[column]) for r in rows], style, label=column)
plt.xlabel("theta1 (deg)")
plt.ylabel("value")
plt.legend()
plt.title("visibility and distinguishability sweep")
plt.savefig(TABLE.with_suffix(".png"), dpi=150)
''',
    "erasure": '''
import itertools
for t1, group in itertools.groupby(rows, key=lambda r: r["theta1_deg"]):
    group = list(group)
    phi = [float(r["phi_rad"]) for r in group]
    for column in ("p_out1", "p_apd10", "p_apd11"):
        plt.plot(phi, [float(r[column]) for r in group],
                 label=f"{column} @ theta1={t1}")
plt.xlabel("phi (rad)")
plt.ylabel("probability")
plt.legend(fontsize=6)
plt.title("which-way marking and quantum erasure")
plt.savefig(TABLE.with_suffix(".png"), dpi=150)
''',
    "fringe": '''
delta = [float(r["delta_um"]) for r in rows]
for column in ("p_out0", "p_out1"):
    plt.plot(delta, [float(r[column]) for r in rows], label=column)
plt.xlabel("delta (um)")
plt.ylabel("probability")
plt.legend()
plt.title("interference fringe scan")
plt.savefig(TABLE.with_suffix(".png"), dpi=150)
''',
    "wpd-verify": '''
theta = [float(r["theta1_deg"]) for r in rows]
for name in ("V", "D"):
    est = [float(r[name + "_est"]) for r in rows]
    low = [float(r[name + "_est"]) - float(r[name + "_ci_low"]) for r in rows]
    high = [float(r[name + "_ci_high"]) - float(r[name + "_est"]) for r in rows]
    plt.errorbar(theta, est, yerr=[low, high], fmt="o", capsize=3, label=name + " (MC)")
    plt.plot(theta, [float(r[name + "_true"]) for r in rows], "-", label=name + " (theory)")
plt.plot(theta, [float(r["vd_sum_est"]) for r in rows], "k--", label="V2+D2")
plt.xlabel("theta1 (deg)")
plt.ylabel("value")
plt.legend()
plt.title("Monte Carlo duality verification")
plt.savefig(TABLE.with_suffix(".png"), dpi=150)
''',
    "montecarlo": '''
like = [r for r in rows if r["branch"] in ("alpha", "beta")]
x = range(len(like))
est = [float(r["estimate"]) for r in like]
low = [float(r["estimate"]) - float(r["ci_low"]) for r in like]
high = [float(r["ci_high"]) - float(r["estimate"]) for r in like]
plt.errorbar(x, est, yerr=[low, high], fmt="o", capsize=3)
plt.xticks(list(x), [f'{r["theta1_deg"]}/{r["branch"]}' for r in like],
           rotation=45, fontsize=6)
plt.ylabel("which-way likelihood")
plt.title("blocked-path likelihood estimates")
plt.tight_layout()
plt.savefig(TABLE.with_suffix(".png"), dpi=150)
''',
    "tomography": '''
named = [r for r in rows if r["quantity"].startswith("s")]
x = range(len(named))
plt.bar(list(x), [float(r["estimate"]) for r in named])
plt.xticks(list(x), [r["quantity"] for r in named])
plt.ylabel("Stokes estimate")
plt.title("source tomography")
plt.savefig(TABLE.with_suffix(".png"), dpi=150)
''',
}

_KIND_SIGNATURES = (
    ("wpd-verify", ("V_est", "D_est")),
    ("montecarlo", ("setting_id", "branch")),
    ("erasure", ("theta1_deg", "p_apd10")),
    ("sweep", ("case", "V2_plus_D2")),
    ("tomography", ("quantity",)),
    ("fringe", ("delta_um", "p_out0")),
)


def detect_table_kind(header_columns: Sequence[str]) -> str:
    columns = set(header_columns)
    for kind, needed in _KIND_SIGNATURES:
        if columns.issuperset(needed):
            return kind
    raise ConfigError(f"cannot infer table kind from columns {sorted(columns)}")


def emit_plot_script(table_path) -> str:
    """Standalone matplotlib script rendering a wpdlab CSV table."""
    table_path = Path(table_path)
    try:
        with open(table_path) as fh:
            header = ""
            for line in fh:
                if not line.startswith("#"):
                    header = line.strip()
                    break
    except OSError as exc:
        raise ConfigError(f"cannot read table {table_path}: {exc}") from None
    kind = detect_table_kind(header.split(","))
    script_name = table_path.with_suffix(".plot.py").name
    return (_PLOT_HEADER.format(kind=kind, table=table_path.name, script=script_name)
            + _PLOT_BODIES[kind])


def run_plot(cfg: RunConfig) -> str:
    if not cfg.table:
        raise ConfigError("plot mode needs --table pointing at a wpdlab CSV")
    text = emit_plot_script(cfg.table)
    out = cfg.out if cfg.out != RunConfig().out else \
        str(Path(cfg.table).with_suffix(".plot.py"))
    _write_output(out, text)
    return text


RUNNERS = {
    "sweep": run_sweep,
    "fringe": run_fringe,
    "erasure": run_erasure,
    "wpd-verify": run_wpd_verify,
    "montecarlo": run_montecarlo,
    "tomography": run_tomography,
    "plot": run_plot,
}


# ---------------------------------------------------------------------------
# entry point


class _ArgumentParser(argparse.ArgumentParser):
    """Raises ConfigError on bad argv, so it gets the exit-2 category line."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argv parser, built once per process and shared by every `main` call."""
    parser = _ArgumentParser(
        prog="wpdlab",
        description="two-path interferometer duality simulations",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run the {mode} scenario")
        p.add_argument("--config", default=None, help="flat key=value config file")
        for key, setting in SETTINGS.items():
            if setting.help is not None:
                p.add_argument("--" + key.replace("_", "-"), dest=key,
                               type=_flag_checker(key), help=setting.help)
    return parser


def _flag_checker(key: str):
    """argparse type: check each occurrence of a flag, keep its text."""
    def check(text: str) -> str:
        try:
            _parse_setting(key, text)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text
    return check


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        file_values = parse_config_file(args.config) if args.config else {}
        flag_values = {key: getattr(args, key) for key in SETTINGS}
        cfg = build_run_config(file_values, flag_values, args.mode)
        RUNNERS[args.mode](cfg)
    except WpdError as exc:
        print(f"error: category={exc.category}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3 if isinstance(exc, GateFailure) else 1
    except Exception as exc:  # last resort: the contract allows no traceback
        print(f"error: category=internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
