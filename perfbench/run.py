"""wpdlab benchmark: seeded workloads through the CLI and library entry points.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fringe-scan --seed 1 --seconds 20 --trace 0

Load model: a closed loop with one caller in one process, one op at a time;
the harness starts no threads. The CLI's sweep pool runs at its default
(``WPD_LAB_THREADS`` is removed from the environment). Ops are generated from
the seed alone (``workloads.make_op``); the program only receives them.

``--trace 0`` reports the end-to-end metrics of an untraced run:

* ``setup_s``: median over fresh interpreters of the time from process start
  to the end of the workload's first op (imports, lazy imports, first op);
* ``rows_per_s``: output rows of successful ops over the sum of their
  latencies (the harness's own work between ops, such as output checks, is
  left out);
* ``op_ms_p50`` and ``op_ms_tail``: median latency of successful ops and the
  highest percentile with at least ten successful ops beyond it (the 11th
  largest); the percentile and the op count go to the ``meta`` line;
* ``peak_rss_mb``: peak resident memory of the benchmark process.

The run takes about ``--seconds`` of op time. Timings are corrected to a
nominal host speed with a reference kernel run around each op and each set-up
probe (``at_nominal_speed``); the ``meta`` line also carries the uncorrected
values. The process pins itself, and so the probes and the pool threads, to
one CPU, so that the kernel measures the CPU the ops run on.

``--trace 1`` runs a fixed number of cycles untraced, then the same ops with
``tracer.Tracer`` installed, and reports per-layer metrics from the traced
pass, ``trace.overhead_frac`` (traced over untraced wall time, minus one) and
``failed_ops_frac``. Both passes must produce byte-identical CSVs.

Every op's output is checked outside the timed region (``checks``). An op
that exits non-zero, raises or fails a check is a failed op. ``correct`` is
false when an output the program reported as successful fails a check.

The benchmark's own tests: ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = Path(__file__).with_name("reference_digests.json")
THREADS_ENV = "WPD_LAB_THREADS"
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
DEFAULT_SEED = 1
PROBE_TIMEOUT_S = 60
KERNEL_REPEATS = 300
NOMINAL_KERNEL_S = 1.5e-3  # about the kernel's time on an idle 2-core Xeon host


def _use_checkout_source() -> None:
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


# ---------------------------------------------------------------------------
# set-up time in fresh interpreters


def _probe(workload: str, seed: int, small: bool, out_dir: Path) -> None:
    """Body of a fresh interpreter: import, run the first op, print the
    monotonic clock (system-wide, so the parent can subtract its own)."""
    _use_checkout_source()
    from perfbench import workloads

    result = workloads.execute(workloads.make_op(workload, seed, 0, small), out_dir)
    print(time.monotonic(), -1 if result.exit_code is None else result.exit_code)


def measure_setup(workload: str, seed: int, small: bool, out_dir: Path):
    """(seconds from process start to the end of the first op, its exit code)
    in one fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--out-dir", str(out_dir)]
    if small:
        cmd.append("--small")
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    ended, code = proc.stdout.split()[-2:]
    return float(ended) - started, int(code)


# ---------------------------------------------------------------------------
# runs


def _run_ops(ops, out_dir, tracer=None):
    """Results and the time the ops took at nominal host speed."""
    from perfbench import workloads

    results, seconds = [], 0.0
    for op in ops:
        if tracer is not None:
            tracer.begin_op(op.index)
        result, factor = at_nominal_speed(lambda: workloads.execute(op, out_dir))
        results.append(result)
        seconds += result.latency_s * factor
    return results, seconds


def _check_all(results) -> None:
    from perfbench import checks

    for result in results:
        checks.check(result)
        for path in result.outputs:
            Path(path).unlink(missing_ok=True)


def _warm_up(workload, seed, small, out_dir) -> None:
    """Run each short op kind of the first cycle once: lazy imports and
    caches fill before timing."""
    from perfbench import workloads

    cycle = workloads.CYCLES[workload]
    seen = set()
    for index, kind in enumerate(cycle):
        if kind not in workloads.LONG_KINDS and kind not in seen:
            seen.add(kind)
            workloads.execute(workloads.make_op(workload, seed, index, small), out_dir)
    for path in out_dir.glob("op*.csv"):
        path.unlink()


def kernel_s() -> float:
    """Seconds for a fixed kernel of small numpy and Python work, the kind
    of work the program does; it calls no program code."""
    m = np.array([[1.0, 2.0j], [0.5, 1.0]])
    started = time.perf_counter()
    for _ in range(KERNEL_REPEATS):
        p = m @ m.conj().T
        float(np.linalg.norm(p)) + abs(complex(p[0, 1]))
    return time.perf_counter() - started


def at_nominal_speed(fn):
    """(fn's result, factor that scales timings taken during fn to the
    nominal host speed).

    On a shared host, other tenants slow the CPU by up to 2x for seconds at a
    time. The kernel runs right before and after ``fn``; the factor is
    NOMINAL_KERNEL_S over the mean of the two kernel times, so a corrected
    timing is the one a host running the kernel in NOMINAL_KERNEL_S would
    give.
    """
    before = kernel_s()
    value = fn()
    return value, 2.0 * NOMINAL_KERNEL_S / (before + kernel_s())


def timed_run(workload, seed, seconds, small, out_dir):
    """Closed loop over whole cycles until ops have taken ``seconds``.

    Each op is checked as soon as it ends, outside the timed region, and its
    inputs and outputs are dropped, so memory does not grow with the op
    count. Returns the results and each op's factor to nominal host speed.
    """
    from perfbench import workloads

    n = len(workloads.CYCLES[workload])
    results, factors, wall = [], [], 0.0
    while not results or wall < seconds:
        for op in workloads.make_ops(workload, seed, len(results), n, small):
            result, factor = at_nominal_speed(lambda: workloads.execute(op, out_dir))
            _check_all([result])
            result.results = []
            result.op = replace(op, params={})
            results.append(result)
            factors.append(factor)
            wall += result.latency_s
    return results, factors


def _tail(latencies):
    """Highest percentile with at least TAIL_BEYOND values beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _failure_record(result) -> dict:
    reason = ("; ".join(result.failures) if result.exit_code == 0
              else result.error or f"exit {result.exit_code}")
    return {"op": result.op.index, "kind": result.op.kind,
            "exit": result.exit_code, "reason": reason}


def end_to_end(workload, seed, seconds, small, setup_samples, out_dir):
    setup = [at_nominal_speed(lambda: measure_setup(workload, seed, small, out_dir))
             for _ in range(setup_samples)]
    _warm_up(workload, seed, small, out_dir)
    results, factors = timed_run(workload, seed, seconds, small, out_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ok = [(r, f) for r, f in zip(results, factors) if r.ok]
    rows = sum(r.rows for r, _ in ok)
    latencies = [r.latency_s * f for r, f in ok] or [0.0]
    raw = [r.latency_s for r, _ in ok] or [0.0]
    tail, tail_pct, beyond = _tail(latencies)
    metrics = {
        "setup_s": (statistics.median(s * f for (s, _), f in setup), "s"),
        "rows_per_s": (rows / sum(latencies), "rows/s"),
        "op_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        "op_ms_tail": (1e3 * tail, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    meta = {
        "setup_samples_s": [s * f for (s, _), f in setup],
        "setup_first_op_exit": [code for (_, code), _ in setup],
        "ops_ok": len(ok), "op_ms_tail_percentile": tail_pct,
        "op_ms_tail_ops_beyond": beyond,
        "uncorrected": {"setup_s": statistics.median(s for (s, _), _ in setup),
                        "rows_per_s": rows / sum(raw),
                        "op_ms_p50": 1e3 * statistics.median(raw),
                        "op_ms_tail": 1e3 * _tail(raw)[0]},
        "host_speed_factor": {"min": min(factors), "median": statistics.median(factors),
                              "max": max(factors)},
    }
    return results, metrics, meta


def _reference_digests(workload, seed):
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text())["workloads"].get(workload)


def _status(result) -> str:
    return f"sha256:{result.digest}" if result.exit_code == 0 else f"exit:{result.exit_code}"


def untraced_pass(workload, seed, small, out_dir):
    from perfbench import workloads

    n = workloads.TRACE_CYCLES[workload] * len(workloads.CYCLES[workload])
    ops = workloads.make_ops(workload, seed, 0, n, small)
    results, wall = _run_ops(ops, out_dir)
    _check_all(results)
    return ops, results, wall


def per_layer(workload, seed, small, out_dir):
    import wpdlab
    from perfbench import tracer as tracing

    _warm_up(workload, seed, small, out_dir)
    ops, plain, wall_plain = untraced_pass(workload, seed, small, out_dir)
    tracer = tracing.Tracer()
    tracer.install(wpdlab)
    try:
        traced, wall_traced = _run_ops(ops, out_dir, tracer)
    finally:
        tracer.uninstall()
    _check_all(traced)
    for a, b in zip(plain, traced):
        if a.digest != b.digest:
            b.failures.append("not_byte_identical")
    tracer.write_spans(out_dir.parent / f"spans-{workload}.csv")

    reference = _reference_digests(workload, seed)
    changed = 0
    if reference is not None:
        changed = sum(1 for r, want in zip(traced, reference) if _status(r) != want)

    counts = tracer.counts()
    self_s, busy_s = tracer.layer_times()
    rows = sum(r.rows for r in traced if r.ok)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = (counts[f"{layer}.calls"], "count")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        metrics[f"{layer}.errors"] = (counts[f"{layer}.errors"], "count")
    points = counts["interferometer.points"]
    reports = counts["duality.reports"]
    resamples = counts["montecarlo.resamples"]
    configs = counts["purification.configs"]
    validations = counts["polarization.validations"]
    failed = sum(1 for r in traced if not r.ok)
    metrics.update({
        "interferometer.points": (points, "count"),
        "interferometer.us_per_point": (ratio(busy_s["interferometer"], points, 1e6), "us"),
        "duality.reports": (reports, "count"),
        "duality.us_per_report": (ratio(counts["duality.report_s"], reports, 1e6), "us"),
        "polarization.validations": (validations, "count"),
        "polarization.validations_per_row": (ratio(validations, rows), "1"),
        "linalg.herm_eig2_calls": (counts["linalg.herm_eig2_calls"], "count"),
        "montecarlo.resamples": (resamples, "count"),
        "montecarlo.photons": (counts["montecarlo.photons"], "count"),
        "montecarlo.us_per_resample": (ratio(busy_s["montecarlo"], resamples, 1e6), "us"),
        "purification.configs": (configs, "count"),
        "purification.us_per_config": (ratio(busy_s["purification"], configs, 1e6), "us"),
        "cli.write_s": (counts["cli.write_s"], "s"),
        "cli.rows_written": (counts["cli.rows_written"], "count"),
        "cli.bytes_written": (counts["cli.bytes_written"], "B"),
        "cli.outputs_changed": (changed, "count"),
        "trace.overhead_frac": (wall_traced / wall_plain - 1.0, "1"),
        "failed_ops_frac": (failed / len(traced), "1"),
    })
    meta = {"wall_untraced_s": wall_plain, "wall_traced_s": wall_traced,
            "spans": len(tracer.spans()),
            "reference_digests": "compared" if reference is not None
            else f"none recorded for {workload} at seed {seed}"}
    return plain + traced, traced, metrics, meta


def record_digests(small: bool, out_dir: Path) -> None:
    """Write the reference digests of the traced run's ops at the default seed."""
    from perfbench import workloads

    table = {}
    for workload in workloads.WORKLOADS:
        _, results, _ = untraced_pass(workload, DEFAULT_SEED, small, out_dir)
        if any(r.op.is_cli for r in results):
            table[workload] = [_status(r) for r in results]
    DIGESTS.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": table},
                                    indent=1) + "\n")


# ---------------------------------------------------------------------------
# entry point


def run_metadata(workload, seed, threads_env, nproc) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    note = ("the run is pinned to one CPU, so the sweep pool's up to 8 threads share "
            "one core")
    if nproc <= 2:
        note += (f"; {nproc} cores on a shared host: other tenants change the CPU speed "
                 "by up to 2x within seconds, which the host-speed factor corrects")
    return {"workload": workload, "seed": seed, "nproc": nproc, "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            THREADS_ENV: "unset" if threads_env is None
            else f"unset (was {threads_env!r} in the caller's environment)",
            "machine_note": note}


def run_benchmark(workload, seed, seconds, trace, small=False,
                  setup_samples=SETUP_SAMPLES, out_dir=None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    _use_checkout_source()
    threads_env = os.environ.pop(THREADS_ENV, None)
    # one CPU for the program, its pool threads, the set-up probes and the
    # host-speed kernel, so the kernel measures the CPU the ops run on
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    out_dir = Path(out_dir or WORK / workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        if trace:
            all_results, counted, metrics, meta = per_layer(workload, seed, small, out_dir)
        else:
            all_results, metrics, meta = end_to_end(
                workload, seed, seconds, small, setup_samples, out_dir)
            counted = all_results
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    meta.update(run_metadata(workload, seed, threads_env, len(cpus)), pinned_cpu=min(cpus))
    meta["failures"] = [_failure_record(r) for r in counted if not r.ok][:20]
    return {
        "meta": meta,
        "result": {
            "correct": not any(r.exit_code == 0 and r.failures for r in all_results),
            "attempted": len(counted),
            "failed": sum(1 for r in counted if not r.ok),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("fringe-scan", "duality-sweep",
                                               "mc-verify", "purify"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny op sizes, for the benchmark's own tests")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite reference_digests.json at the default seed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out-dir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "wpdlab" / "__init__.py").is_file():
        print(f"error: no wpdlab sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        _probe(args.workload, args.seed, args.small, args.out_dir)
        return 0
    if args.record_digests:
        _use_checkout_source()
        WORK.mkdir(exist_ok=True)
        record_digests(args.small, WORK)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    out = run_benchmark(args.workload, args.seed, args.seconds, args.trace, args.small)
    print("meta " + json.dumps(out["meta"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
