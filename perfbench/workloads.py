"""Seeded workloads: op generation and op execution.

An op is one CLI invocation (argv for ``wpdlab.cli.main``) or one library
call sequence (``purify``). Op ``i`` of a workload is generated from
``(seed, workload, i)`` alone, so the inputs depend only on the seed and the
op's position, never on timing or on how many ops ran before it.

Each workload repeats a fixed cycle of op kinds, so the mix of short and long
ops is the same for every seed; the seed picks the physical parameters.
"""

from __future__ import annotations

import io
import math
import time
import zlib
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from wpdlab import cli, polarization, purification

WAVELENGTH_NM = 679.0
FRINGE_POINTS = 64          # one fringe period, the CLI default grid
BAND_POINTS = 2001          # long envelope scan
BAND_COHERENCE_LENGTHS = 3  # the scan spans +-3 coherence lengths
SWEEP_LONG_STEP_DEG = 0.25  # 181 theta1 values x 6 Stokes vectors
MC_PHOTONS = 100_000
TOMOGRAPHY_PHOTONS = 1_000_000
PURIFY_ROTATIONS = 32

# Test-only sizes: same code paths, a few milliseconds per op.
SMALL = {"band_points": 41, "sweep_long_step": 5.0, "mc_photons": 2_000,
         "tomography_photons": 5_000, "resamples": 50, "purify_rotations": 3}

# Cycles start with a short op, so the first op (timed in setup_s) is short.
CYCLES = {
    # about three short ops (fringe / erasure, 64 points) per long band scan
    "fringe-scan": ("fringe", "erasure", "fringe", "band",
                    "erasure", "fringe", "erasure", "band"),
    # three default-grid sweeps per six-class fine-grid sweep
    "duality-sweep": ("sweep", "sweep", "sweep", "sweep-long"),
    # one in three wpd-verify / montecarlo sources is drawn from the whole
    # Bloch ball, the rest lie on the s3 axis
    "mc-verify": ("wpd-verify", "montecarlo", "tomography", "wpd-verify-ball",
                  "montecarlo-ball", "wpd-verify", "montecarlo", "tomography"),
    "purify": ("purify",),
}
WORKLOADS = tuple(CYCLES)
LONG_KINDS = frozenset({"band", "sweep-long"})

# Fixed number of cycles replayed by the traced run, so per-layer counts
# repeat exactly for a given seed.
TRACE_CYCLES = {"fringe-scan": 1, "duality-sweep": 4, "mc-verify": 2, "purify": 100}


@dataclass(frozen=True)
class Op:
    """One generated operation and the inputs its checks compare against."""

    workload: str
    index: int
    kind: str
    argv: tuple = ()                      # CLI argv without --out
    params: dict = field(default_factory=dict)

    @property
    def is_cli(self) -> bool:
        return bool(self.argv)


@dataclass
class OpResult:
    op: Op
    latency_s: float
    exit_code: Optional[int]              # None: the call raised
    error: str = ""                       # category line or exception name
    outputs: tuple = ()                   # CSV paths written by the op
    results: list = field(default_factory=list)  # library-op results
    failures: list = field(default_factory=list)  # names of failed checks
    rows: int = 0
    digest: str = ""

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.failures


# ---------------------------------------------------------------------------
# generation


def _num(x: float) -> str:
    # repr round-trips exactly, so the checks see the values the CLI parsed
    return repr(float(x))


def _stokes_arg(vectors) -> str:
    return ";".join(",".join(_num(c) for c in s) for s in vectors)


def _ball(rng) -> tuple:
    """Uniform in the Bloch ball."""
    v = rng.normal(size=3)
    return tuple(v / np.linalg.norm(v) * rng.uniform() ** (1.0 / 3.0))


def _on_axis(rng) -> tuple:
    return (0.0, 0.0, rng.uniform(-0.9, 0.9))


def _pure(rng, s2: float) -> tuple:
    a = rng.uniform(0.0, 2.0 * math.pi)
    r = math.sqrt(1.0 - s2 * s2)
    return (r * math.cos(a), s2, r * math.sin(a))


def _six_classes(rng) -> list:
    """One Stokes vector per duality case a..f (see duality.classify_case)."""
    sign = lambda: 1.0 if rng.uniform() < 0.5 else -1.0  # noqa: E731
    a = rng.uniform(0.0, 2.0 * math.pi)
    r = rng.uniform(0.2, 0.9)
    s2e = r * rng.uniform(0.2, 0.8) * sign()
    re = math.sqrt(r * r - s2e * s2e)
    rd = rng.uniform(0.1, 0.9)
    return [
        _pure(rng, 0.0),                                       # a
        _pure(rng, sign() * rng.uniform(0.1, 0.9)),            # b
        (0.0, sign(), 0.0),                                    # c
        (rd * math.cos(a), 0.0, rd * math.sin(a)),             # d
        (re * math.cos(a), s2e, re * math.sin(a)),             # e
        (0.0, sign() * rng.uniform(0.1, 0.9), 0.0),            # f
    ]


def _haar_unitary(rng) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def make_op(workload: str, seed: int, index: int, small: bool = False) -> Op:
    """Op ``index`` of ``workload``; a pure function of its arguments."""
    cycle = CYCLES[workload]
    kind = cycle[index % len(cycle)]
    rng = np.random.default_rng((int(seed), zlib.crc32(workload.encode()), int(index)))
    sizes = SMALL if small else {}
    extra = [f"--resamples={sizes['resamples']}"] if small else []
    params: dict = {}

    if kind in ("fringe", "erasure", "band"):
        theta1 = rng.uniform(0.0, 45.0)
        s = _ball(rng)
        bandwidth = rng.uniform(10.0, 40.0)
        params.update(theta1=theta1, stokes=s, bandwidth_nm=bandwidth)
        argv = [kind if kind != "band" else "fringe", f"--stokes={_stokes_arg([s])}",
                "--shape=rectangular", f"--bandwidth-nm={_num(bandwidth)}"]
        if kind != "erasure":  # erasure scans theta1 = 0 and 45 itself
            argv.insert(1, f"--theta1={_num(theta1)}")
        if kind == "band":
            points = sizes.get("band_points", BAND_POINTS)
            lc_um = WAVELENGTH_NM**2 / (2.0 * bandwidth) * 1e-3
            half = round(BAND_COHERENCE_LENGTHS * lc_um, 3)
            step = 2.0 * half / (points - 1)
            params.update(delta=[-half + k * step for k in range(points)])
            argv.append(f"--delta={_num(-half)}:{_num(half)}:{_num(step)}")
        else:
            period = WAVELENGTH_NM * 1e-3 / 2.0
            params.update(delta=list(np.arange(FRINGE_POINTS) * period / FRINGE_POINTS))
        return Op(workload, index, kind, tuple(argv), params)

    if kind in ("sweep", "sweep-long"):
        if kind == "sweep":
            vectors = [_ball(rng)]
            thetas = [float(t) for t in range(46)]
            argv = ["sweep", "--theta0=0", f"--stokes={_stokes_arg(vectors)}"]
        else:
            vectors = _six_classes(rng)
            step = sizes.get("sweep_long_step", SWEEP_LONG_STEP_DEG)
            start = round(rng.uniform(0.0, step), 2)
            n = int(round(45.0 / step)) + 1
            thetas = [start + k * step for k in range(n)]
            argv = ["sweep", "--theta0=0", f"--stokes={_stokes_arg(vectors)}",
                    f"--theta1={_num(start)}:{_num(start + 45.0)}:{_num(step)}"]
        params.update(stokes=vectors, thetas=thetas,
                      cases=list("abcdef") if kind == "sweep-long" else None)
        return Op(workload, index, kind, tuple(argv), params)

    if kind.startswith(("wpd-verify", "montecarlo", "tomography")):
        mode = kind.replace("-ball", "")
        s = _ball(rng) if kind.endswith("-ball") or mode == "tomography" else _on_axis(rng)
        photons = (sizes.get("tomography_photons", TOMOGRAPHY_PHOTONS) if mode == "tomography"
                   else sizes.get("mc_photons", MC_PHOTONS))
        op_seed = int(rng.integers(1, 2**31 - 1))
        params.update(stokes=s, photons=photons, seed=op_seed,
                      thetas=list(cli.DEFAULT_VERIFY_THETAS))
        argv = [mode, f"--stokes={_stokes_arg([s])}", f"--photons={photons}",
                f"--seed={op_seed}", *extra]
        return Op(workload, index, kind, tuple(argv), params)

    if kind == "purify":
        v = rng.normal(size=3)
        s = tuple(v / np.linalg.norm(v) * rng.uniform(0.05, 0.95))
        n = sizes.get("purify_rotations", PURIFY_ROTATIONS)
        params.update(stokes=s, unitary=_haar_unitary(rng),
                      rotations=[_haar_unitary(rng) for _ in range(n)])
        return Op(workload, index, kind, (), params)

    raise ValueError(f"unknown op kind {kind!r}")


def make_ops(workload: str, seed: int, start: int, count: int, small: bool = False):
    return [make_op(workload, seed, i, small) for i in range(start, start + count)]


# ---------------------------------------------------------------------------
# execution


def _run_purify(params: dict) -> list:
    rho = polarization.density_from_stokes(params["stokes"])
    results = []
    for rotation in params["rotations"]:
        p = purification.purify(rho, params["unitary"], e_basis_rotation=rotation)
        results.append((purification.marker_states(p), purification.joint_vcd(p),
                        purification.projective_d_value(p),
                        purification.m_operator_value(p)))
    return results


def execute(op: Op, out_dir: Path) -> OpResult:
    """Run one op and time it. Output checks happen later, untimed."""
    if not op.is_cli:
        started = time.perf_counter()
        try:
            results = _run_purify(op.params)
        except Exception as exc:  # counted as a failed op, the run goes on
            return OpResult(op, time.perf_counter() - started, None,
                            f"raised {type(exc).__name__}: {exc}")
        return OpResult(op, time.perf_counter() - started, 0, results=results)

    out = out_dir / f"op{op.index}.csv"
    outputs = (out, out.with_suffix(".summary.csv")) if op.kind == "erasure" else (out,)
    stderr = io.StringIO()
    started = time.perf_counter()
    try:
        with redirect_stderr(stderr):
            code = cli.main([*op.argv, f"--out={out}"])
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a raw traceback breaks the CLI contract
        latency = time.perf_counter() - started
        return OpResult(op, latency, None, f"raised {type(exc).__name__}: {exc}")
    latency = time.perf_counter() - started
    lines = [ln for ln in stderr.getvalue().splitlines() if ln.startswith("error:")]
    return OpResult(op, latency, code, lines[0] if lines else "", outputs)
