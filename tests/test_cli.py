import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wpdlab import cli
from wpdlab.errors import ConfigError

GOLDEN_DIR = Path(__file__).parent / "golden"


def read_rows(path):
    lines = [ln for ln in Path(path).read_text().splitlines()
             if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestParsing:
    def test_scalar(self):
        assert cli.parse_scalar_or_range("22.5", "theta1") == (22.5,)

    def test_range_inclusive(self):
        values = cli.parse_scalar_or_range("0:45:1", "theta1")
        assert len(values) == 46
        assert values[0] == 0.0 and values[-1] == 45.0

    def test_comma_list(self):
        assert cli.parse_scalar_or_range("0,15,22.5", "theta1") == (0.0, 15.0, 22.5)

    def test_bad_step(self):
        with pytest.raises(ConfigError):
            cli.parse_scalar_or_range("0:45:-1", "theta1")

    def test_range_capped(self):
        cap = cli.MAX_GRID_POINTS
        assert len(cli.parse_scalar_or_range(f"0:{cap - 1}:1", "theta1")) == cap
        # the count rounds up to cap + 1, but the last value lies past stop
        assert len(cli.parse_scalar_or_range(f"0:{cap - 0.4}:1", "theta1")) == cap
        for text in (f"0:{cap}:1", f"0:{cap + 0.1}:1"):
            with pytest.raises(ConfigError, match="at most"):
                cli.parse_scalar_or_range(text, "theta1")

    @pytest.mark.parametrize("text", ["nan:1:1", "0:inf:1", "-1e308:1e308:1", "0:1:nan"])
    def test_range_non_finite(self, text):
        with pytest.raises(ConfigError, match="finite"):
            cli.parse_scalar_or_range(text, "theta1")

    def test_stokes_triple(self):
        assert cli.parse_stokes_list("0,0,0.5") == ((0.0, 0.0, 0.5),)

    def test_stokes_multiple(self):
        got = cli.parse_stokes_list("0,0,1;0,1,0")
        assert got == ((0.0, 0.0, 1.0), (0.0, 1.0, 0.0))

    def test_stokes_unphysical(self):
        with pytest.raises(ConfigError):
            cli.parse_stokes_list("1,1,1")

    def test_config_file_line_diagnostics(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("theta0 = 0\nnot a config line\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
            cli.parse_config_file(path)

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            cli.parse_config_file(path)

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment line\nseed = 1\nphotons = 10\n")
        values = cli.parse_config_file(path)
        cfg = cli.build_run_config(values, {"seed": 99}, "sweep")
        assert cfg.seed == 99
        assert cfg.photons == 10

    def test_mode_validation(self):
        with pytest.raises(ConfigError):
            cli.build_run_config({}, {"photons": 0}, "sweep")

    def test_single_theta_respected(self, tmp_path):
        # an explicit single angle must not fall back to the default grid
        out = tmp_path / "one.csv"
        cfg = cli.build_run_config({}, {
            "theta1": "22.5", "photons": 2000, "seed": 3, "resamples": 50,
            "out": str(out)}, "wpd-verify")
        cli.run_wpd_verify(cfg)
        _, rows = read_rows(out)
        assert [r["theta1_deg"] for r in rows] == ["22.5"]

    def test_sweep_default_grid(self, tmp_path):
        out = tmp_path / "default.csv"
        cli.run_sweep(cli.build_run_config({}, {"out": str(out)}, "sweep"))
        _, rows = read_rows(out)
        assert len(rows) == 46


class TestSweep:
    def test_row_count_and_equality_column(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = cli.build_run_config({}, {
            "theta1": "0:45:1", "stokes": "0,0,0", "out": str(out)}, "sweep")
        cli.run_sweep(cfg)
        header, rows = read_rows(out)
        assert list(header) == list(cli.SWEEP_COLUMNS)
        assert len(rows) == 46
        for row in rows:
            assert abs(float(row["V2_plus_D2"]) - 1.0) < 1e-10
            assert row["case"] == "d"
            assert float(row["Dc"]) == 0.0

    def test_endpoint_values(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = cli.build_run_config({}, {
            "theta1": "45", "stokes": "0,0,0", "out": str(out)}, "sweep")
        cli.run_sweep(cfg)
        _, rows = read_rows(out)
        assert float(rows[0]["V"]) == pytest.approx(0.0, abs=1e-10)
        assert float(rows[0]["Dc"]) == pytest.approx(0.0, abs=1e-10)
        assert float(rows[0]["D"]) == pytest.approx(1.0, abs=1e-10)

    def test_pure_state_dc_equals_d(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = cli.build_run_config({}, {
            "theta1": "0:45:1", "stokes": "0,0,1", "out": str(out)}, "sweep")
        cli.run_sweep(cfg)
        _, rows = read_rows(out)
        for row in rows:
            assert float(row["Dc"]) == pytest.approx(float(row["D"]), abs=1e-10)

    def test_multiple_stokes_cases(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = cli.build_run_config({}, {
            "theta1": "0,45", "stokes": "0,0,1;0,0,0", "out": str(out)}, "sweep")
        cli.run_sweep(cfg)
        _, rows = read_rows(out)
        assert len(rows) == 4
        assert {row["case"] for row in rows} == {"a", "d"}

    def test_provenance_header(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = cli.build_run_config({}, {"theta1": "0", "out": str(out)}, "sweep")
        cli.run_sweep(cfg)
        text = out.read_text()
        assert text.startswith("# wpdlab ")
        assert re.search(r"^# rng = philox4x64$", text, re.M)
        assert re.search(r"^# config_hash = [0-9a-f]{16}$", text, re.M)
        assert "seed" in text


class TestErasure:
    def test_summary_values(self, tmp_path):
        out = tmp_path / "erasure.csv"
        cfg = cli.build_run_config({}, {"out": str(out)}, "erasure")
        cli.run_erasure(cfg)
        _, summary = read_rows(tmp_path / "erasure.summary.csv")
        by_key = {(row["theta1_deg"], row["channel"]): row for row in summary}
        # no marking: everything interferes fully, analyzers in phase
        assert float(by_key[("0", "out1")]["visibility"]) == pytest.approx(1.0, abs=1e-10)
        assert float(by_key[("0", "apd11")]["phase_minus_apd10_rad"]) == \
            pytest.approx(0.0, abs=1e-8)
        # maximum marking: port fringe gone, circular analyzers revive out of phase
        assert float(by_key[("45", "out1")]["visibility"]) <= 1e-10
        assert float(by_key[("45", "apd10")]["visibility"]) >= 1 - 1e-10
        assert float(by_key[("45", "apd11")]["visibility"]) >= 1 - 1e-10
        rel = float(by_key[("45", "apd11")]["phase_minus_apd10_rad"])
        assert abs(abs(rel) - math.pi) < 1e-8

    def test_scale_passthrough(self, tmp_path):
        out = tmp_path / "erasure.csv"
        cfg = cli.build_run_config({}, {
            "out": str(out), "visibility_scale": 0.95}, "erasure")
        cli.run_erasure(cfg)
        _, summary = read_rows(tmp_path / "erasure.summary.csv")
        by_key = {(row["theta1_deg"], row["channel"]): row for row in summary}
        assert float(by_key[("0", "out1")]["visibility"]) == \
            pytest.approx(0.95, abs=1e-10)


class TestWpdVerify:
    def test_default_run_and_determinism(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        flags = {"photons": 20_000, "seed": 4242, "resamples": 400}
        cli.run_wpd_verify(cli.build_run_config({}, dict(flags, out=str(out_a)), "wpd-verify"))
        cli.run_wpd_verify(cli.build_run_config({}, dict(flags, out=str(out_b)), "wpd-verify"))
        assert out_a.read_bytes() == out_b.read_bytes()
        header, rows = read_rows(out_a)
        assert list(header) == list(cli.WPD_VERIFY_COLUMNS)
        assert [float(r["theta1_deg"]) for r in rows] == \
            list(cli.DEFAULT_VERIFY_THETAS)
        for row in rows:
            assert abs(float(row["vd_sum_est"]) - 1.0) <= \
                max(3 * float(row["vd_sum_sigma"]), 1e-6)
            t = math.radians(float(row["theta1_deg"]))
            assert float(row["D_true"]) == pytest.approx(abs(math.sin(2 * t)), abs=1e-12)


class TestMonteCarloRunner:
    def test_schema_and_counts(self, tmp_path):
        out = tmp_path / "mc.csv"
        cfg = cli.build_run_config({}, {
            "photons": 10_000, "seed": 9, "theta1": "0,22.5,45",
            "resamples": 200, "out": str(out)}, "montecarlo")
        cli.run_montecarlo(cfg)
        header, rows = read_rows(out)
        assert list(header) == list(cli.MONTECARLO_COLUMNS)
        branches = [row["branch"] for row in rows]
        assert branches.count("alpha") == 3
        assert branches.count("D") == 3
        for row in rows:
            if row["branch"] in ("alpha", "beta"):
                total = sum(int(row[k]) for k in
                            ("N_0_10", "N_0_11", "N_1_10", "N_1_11"))
                assert 0 < total <= 2 * 10_000
                assert 0.5 - 1e-9 <= float(row["estimate"]) <= 1.0 + 1e-9
            assert row["rng_algo"] == "philox4x64"


class TestTomographyRunner:
    def test_estimates_in_ci(self, tmp_path):
        out = tmp_path / "tomo.csv"
        cfg = cli.build_run_config({}, {
            "photons": 200_000, "seed": 5, "stokes": "0,0,0.061",
            "out": str(out)}, "tomography")
        cli.run_tomography(cfg)
        header, rows = read_rows(out)
        assert list(header) == list(cli.TOMOGRAPHY_COLUMNS)
        for row in rows:
            low, high = float(row["ci_low"]), float(row["ci_high"])
            truth = float(row["truth"])
            width = high - low
            assert low - width <= truth <= high + width


class TestPlot:
    @pytest.mark.parametrize("mode,builder", [
        ("sweep", lambda cfg: cli.run_sweep(cfg)),
        ("erasure", lambda cfg: cli.run_erasure(cfg)),
        ("montecarlo", lambda cfg: cli.run_montecarlo(cfg)),
    ])
    def test_golden_scripts(self, tmp_path, mode, builder):
        out = tmp_path / f"{mode}.csv"
        flags = {"out": str(out), "photons": 2000, "seed": 1,
                 "resamples": 50, "theta1": "0,45"}
        builder(cli.build_run_config({}, flags, mode))
        script = cli.emit_plot_script(out)
        golden = GOLDEN_DIR / f"plot_{mode}.py.golden"
        assert golden.exists(), f"missing golden file {golden}"
        assert script == golden.read_text()

    def test_kind_detection(self):
        assert cli.detect_table_kind(cli.SWEEP_COLUMNS) == "sweep"
        assert cli.detect_table_kind(cli.WPD_VERIFY_COLUMNS) == "wpd-verify"
        assert cli.detect_table_kind(cli.ERASURE_COLUMNS) == "erasure"
        assert cli.detect_table_kind(cli.MONTECARLO_COLUMNS) == "montecarlo"
        assert cli.detect_table_kind(cli.TOMOGRAPHY_COLUMNS) == "tomography"
        assert cli.detect_table_kind(cli.FRINGE_COLUMNS) == "fringe"
        with pytest.raises(ConfigError):
            cli.detect_table_kind(["x", "y"])

    def test_emitted_script_is_valid_python(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cli.run_sweep(cli.build_run_config({}, {"theta1": "0,45", "out": str(out)},
                                           "sweep"))
        compile(cli.emit_plot_script(out), "plot.py", "exec")


class TestMain:
    def test_success_exit_code(self, tmp_path):
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--theta1", "0:45:5", "--out", str(out)]) == 0
        assert out.exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = cli.main(["sweep", "--theta1", "0:45:-5",
                         "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "category=config" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path, capsys):
        code = cli.main(["sweep", "--theta1", "0",
                         "--out", str(tmp_path / "no" / "dir" / "s.csv")])
        assert code == 2
        assert "cannot write output" in capsys.readouterr().err

    def test_gate_failure_exit_code(self, monkeypatch, capsys):
        from wpdlab.errors import GateFailure

        def broken(cfg):
            raise GateFailure("forced gate failure")

        monkeypatch.setitem(cli.RUNNERS, "sweep", broken)
        assert cli.main(["sweep", "--theta1", "0"]) == 3
        assert "category=gate" in capsys.readouterr().err

    def test_config_file_plus_flags(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("theta1 = 0:45:15\nstokes = 0,0,0\n")
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--config", str(cfgfile), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 4

    def test_plot_mode(self, tmp_path):
        out = tmp_path / "s.csv"
        cli.main(["sweep", "--theta1", "0,45", "--out", str(out)])
        assert cli.main(["plot", "--table", str(out)]) == 0
        assert out.with_suffix(".plot.py").exists()

    def test_plot_without_table(self, capsys):
        assert cli.main(["plot"]) == 2

    def test_fringe_mode(self, tmp_path):
        out = tmp_path / "f.csv"
        # leading-dash range values need the --flag=value spelling
        code = cli.main(["fringe", "--delta=-20:20:0.5", "--shape", "rectangular",
                         "--bandwidth-nm", "36", "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert list(header) == list(cli.FRINGE_COLUMNS)
        assert len(rows) == 81

    def test_gate_failure_reports_first_bad_row(self, monkeypatch, tmp_path, capsys):
        def skewed(*args, **kwargs):
            rows = np.array([[0.0, 0.0, 0.5, 0.5], [0.25, 1.0, 0.5, 0.6],
                             [0.5, 2.0, 0.5, 0.7]])
            return list(cli.FRINGE_COLUMNS), rows

        monkeypatch.setattr(cli.interferometer, "fringe_scan", skewed)
        assert cli.main(["fringe", "--out", str(tmp_path / "f.csv")]) == 3
        assert "at delta=0.25" in capsys.readouterr().err

    def test_parser_built_once(self, tmp_path):
        assert cli.build_parser() is cli.build_parser()
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--theta1", "0", "--seed", "3", "--out", str(out)]) == 0
        assert cli.main(["sweep", "--theta1", "0", "--out", str(out)]) == 0
        assert "# seed = 12345" in out.read_text()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fringe", "--help"])
        assert exc.value.code == 0
        assert "--phi-points" in capsys.readouterr().out


# Fixed runs whose CSV bytes pin the outputs: fringe, erasure and wpd-verify
# were recorded from the per-point model route, the sweeps from the pooled
# sweep runner.
# Regenerate one with: python -m wpdlab.cli <argv> --out=tests/golden/<name>
GOLDEN_RUNS = {
    "fringe_band.csv": ["fringe", "--theta1=17.5", "--stokes=0.3,-0.2,0.5",
                        "--shape=rectangular", "--bandwidth-nm=20",
                        "--visibility-scale=0.9", "--delta=-15:15:0.25"],
    "erasure.csv": ["erasure", "--stokes=0.2,0.1,0.4"],
    "wpd_verify.csv": ["wpd-verify", "--stokes=0,0,0.4", "--theta1=0,22.5,45",
                       "--photons=2000", "--resamples=50", "--seed=7"],
    # cases a-f on the default grid; s = (0, s2, 0) lies along the rotation
    # vector e, where Dc prints as rounding noise
    "sweep.csv": ["sweep", "--stokes=0,0,1;0,-0.6,0.8;0,1,0;0,0,0;0.3,0,0.4;"
                  "0.2,0.3,0.4;0,0.5,0"],
    "sweep_fractional.csv": ["sweep", "--theta1=0.1:45.1:0.25",
                             "--stokes=0,0,0;0,0.5,0;0.2,-0.3,0.4"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_csv_bytes(tmp_path, name):
    out = tmp_path / name
    assert cli.main([*GOLDEN_RUNS[name], f"--out={out}"]) == 0
    written = [out] + ([out.with_suffix(".summary.csv")] if name == "erasure.csv" else [])
    for path in written:
        golden = GOLDEN_DIR / path.name
        assert golden.exists(), f"missing golden file {golden}"
        assert path.read_bytes() == golden.read_bytes(), path.name


@pytest.mark.parametrize("argv,category,code", [
    (["wpd-verify", "--seed=-1"], "config", 2),
    (["wpd-verify", "--resamples=0"], "config", 2),
    (["montecarlo", "--resamples=-5"], "config", 2),
    (["fringe", "--phi-points=100000000000000000000"], "config", 2),
    (["fringe", "--phi-points=100001"], "config", 2),
    (["fringe", "--delta=nan"], "config", 2),
    (["fringe", "--delta=1e306"], "invalid-state", 1),  # the phase overflows to inf
    (["erasure", "--delta=0,inf"], "config", 2),
    (["fringe", "--shape=rectangular", "--bandwidth-nm=nan"], "config", 2),
    (["fringe", "--shape=rectangular", "--bandwidth-nm=inf"], "config", 2),
    (["fringe", "--wavelength-nm=nan"], "config", 2),
    (["fringe", "--wavelength-nm=inf"], "config", 2),
    # modes that build no spectral model still check the spectral flags
    (["sweep", "--theta1=0", "--wavelength-nm=nan"], "config", 2),
    (["wpd-verify", "--bandwidth-nm=inf"], "config", 2),
    (["sweep", "--theta0=nan"], "config", 2),
    (["sweep", "--stokes=nan,0,0"], "config", 2),
    (["sweep", "--photons=abc"], "config", 2),  # rejected by the argv parser
    (["sweep", "--bogus"], "config", 2),
    (["sweep", "--theta1=0:100000:1"], "config", 2),  # one value over the cap
])
def test_error_contract(tmp_path, capsys, argv, category, code):
    assert cli.main([*argv, "--photons=100", f"--out={tmp_path / 'x.csv'}"]) == code
    err = capsys.readouterr().err
    assert f"error: category={category}:" in err
    assert "Traceback" not in err


def test_photons_beyond_int64_rejected(tmp_path, capsys):
    argv = ["montecarlo", f"--photons={2**63}", f"--out={tmp_path / 'x.csv'}"]
    assert cli.main(argv) == 2
    assert "error: category=config: photons must lie in" in capsys.readouterr().err


def test_unexpected_error_is_internal(monkeypatch, tmp_path, capsys):
    def broken(cfg):
        raise RuntimeError("forced failure")

    monkeypatch.setitem(cli.RUNNERS, "fringe", broken)
    assert cli.main(["fringe", f"--out={tmp_path / 'x.csv'}"]) == 1
    err = capsys.readouterr().err
    assert "error: category=internal: RuntimeError: forced failure" in err
    assert "Traceback" not in err


_IMPORT_PROBE = """
import sys
from wpdlab import cli
out = sys.argv[1]
for argv in (["fringe"], ["sweep"], ["wpd-verify"], ["montecarlo"], ["tomography"]):
    code = cli.main([*argv, "--theta1=0,45", "--photons=2000", "--resamples=50",
                     f"--out={out}"])
    assert code == 0, (argv, code)
loaded = sorted(m for m in ("scipy", "concurrent.futures") if m in sys.modules)
assert not loaded, loaded
"""


def test_cli_modes_import_no_scipy_or_thread_pool(tmp_path):
    # scipy is loaded only by interferometer.fit_fringe, which no CLI mode calls
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path / "x.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
