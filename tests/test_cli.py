import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import csv_line, range_values
from wpdlab import cli, duality, interferometer, linalg, montecarlo, polarization
from wpdlab.errors import ConfigError, GateFailure, InvalidState

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
        # a comma list meets the same cap
        assert len(cli.parse_scalar_or_range(",".join(["1"] * cap), "theta1")) == cap
        with pytest.raises(ConfigError, match="at most"):
            cli.parse_scalar_or_range(",".join(["1"] * (cap + 1)), "theta1")

    def test_range_matches_generator(self, rng):
        # the array build is bit-exact against the value-by-value generator
        cap = cli.MAX_GRID_POINTS
        cases = [(0.0, cap - 1, 1.0), (0.0, cap - 0.4, 1.0), (0.1, 45.1, 0.25),
                 (0.0, 1.0, 0.1), (-15.0, 15.0, 0.25), (1e308, 1.5e308, 1e308)]
        for _ in range(2_000):
            start, step = rng.uniform(-1e3, 1e3), 10.0 ** rng.uniform(-3, 1)
            cases.append((start, start + step * rng.uniform(0, 500), step))
        for start, stop, step in cases:
            got = cli.parse_scalar_or_range(f"{start!r}:{stop!r}:{step!r}", "theta1")
            want = range_values(start, stop, step)
            assert all(type(v) is float for v in got)
            assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))

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

    @pytest.mark.parametrize("x, theta1", [(0.42542975577943, "0.1:45.1:0.25"),
                                           (-0.15432405043302239, "0.01:45.01:0.25"),
                                           (-0.22445094059177928, "0.05:45.05:0.25"),
                                           (-0.6371567071734554, "0.23:45.23:0.25")])
    def test_rotation_axis_source_closed_forms(self, tmp_path, x, theta1):
        # On s = (0, x, 0) the Dc term |s|^2 - s2^2 is zero exactly, but the
        # form sqrt(s.s - np.float64(s2)**2) reads about 1e-9 for these x,
        # where the power is one ulp off x*x; Dc must stay at rounding level.
        out = tmp_path / "sweep.csv"
        cfg = cli.build_run_config({}, {
            "theta0": "0", "theta1": theta1, "stokes": f"0,{x!r},0", "out": str(out)}, "sweep")
        cli.run_sweep(cfg)
        _, rows = read_rows(out)
        assert len(rows) == 181
        for row in rows:
            t = math.radians(float(row["theta1_deg"]))
            c2, s2t = math.cos(2 * t), abs(math.sin(2 * t))
            assert float(row["Dc"]) <= 1e-15
            assert abs(float(row["V"]) - math.sqrt(c2 * c2 + x * x * (1 - c2 * c2))) <= 1e-11
            assert abs(float(row["D"]) - math.sqrt(1 - x * x) * s2t) <= 1e-11

    def test_no_rotator_products_per_row(self, tmp_path, monkeypatch):
        # the relative rotation is closed form: no 2x2 product, no unitarity check
        calls = {"is_unitary": 0, "retro_rotator": 0}
        for module, name in ((linalg, "is_unitary"), (interferometer, "retro_rotator")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        cli.run_sweep(cli.build_run_config({}, {"out": str(tmp_path / "sweep.csv")}, "sweep"))
        assert calls == {"is_unitary": 0, "retro_rotator": 0}

    def test_one_validation_pass_per_row(self, tmp_path, monkeypatch):
        # the report, the decomposition and the case label validate s once each
        cfg = cli.build_run_config({}, {"out": str(tmp_path / "sweep.csv")}, "sweep")
        calls = []

        def counted(s, _fn=polarization.as_stokes):
            calls.append(1)
            return _fn(s)
        monkeypatch.setattr(polarization, "as_stokes", counted)
        cli.run_sweep(cfg)
        _, rows = read_rows(tmp_path / "sweep.csv")
        assert len(rows) == 46
        assert len(calls) <= 3 * len(rows)

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

    def test_resamples_cap_runs(self, tmp_path):
        # the whole bootstrap is one stacked pass, so the cap costs a fraction of a second
        out = tmp_path / "tomo.csv"
        argv = ["tomography", f"--resamples={cli.MAX_GRID_POINTS}", "--stokes=0.2,0,0.1"]
        assert cli.main([*argv, f"--out={out}"]) == 0
        fid = read_rows(out)[1][-1]
        assert float(fid["ci_low"]) <= float(fid["estimate"]) <= float(fid["ci_high"])


class TestWriteCsv:
    """One `%` format per table writes the text of the per-value join."""

    @staticmethod
    def per_value_text(cfg, columns, rows):
        return "\n".join(cli.provenance_lines(cfg) + [",".join(columns)]
                         + [csv_line(row) for row in rows]) + "\n"

    @pytest.mark.parametrize("argv", [
        ["sweep", "--theta1=0:45:2.5", "--stokes=0,0,0;0.3,-0.4,0.5;0,0.42542975577943,0"],
        ["fringe", "--stokes=0.6,0,0.8", "--theta1=22.5"],
        ["fringe", "--bandwidth-nm=10", "--shape=rectangular", "--delta=-60:60:0.37"],
        ["erasure", "--stokes=0,0,0.3", "--theta0=10"],
        ["wpd-verify", "--photons=2000", "--resamples=50", "--seed=1234567890123"],
        ["montecarlo", "--photons=2000", "--resamples=50", "--stokes=0.3,0.2,0.4"],
        ["tomography", "--photons=2000", "--resamples=50", "--stokes=1,0,0"],
    ])
    def test_rows_of_every_mode(self, tmp_path, monkeypatch, argv):
        tables, write = [], cli.write_csv

        def spy(path, cfg, columns, rows, extra_comments=()):
            tables.append((cfg, columns, rows))
            return write(path, cfg, columns, rows, extra_comments)

        monkeypatch.setattr(cli, "write_csv", spy)
        assert cli.main(argv + [f"--out={tmp_path / 'out.csv'}"]) == 0
        assert tables
        for cfg, columns, rows in tables:
            assert write(None, cfg, columns, rows) == self.per_value_text(cfg, columns, rows)

    def test_edge_values(self):
        cfg = cli.RunConfig()
        columns = ("value", "seed", "blank", "label", "count")
        floats = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300,
                  np.float64(1 / 3), np.float64(-2.5e-7), 123456789012.5]
        rows = [(v, 1234567890123 + k, "", f"label{k}", np.int64(-k))
                for k, v in enumerate(floats)]
        text = cli.write_csv(None, cfg, columns, rows)
        assert text == self.per_value_text(cfg, columns, rows)
        assert "nan,1234567890123,,label0,0\ninf," in text
        assert "\n-0,1234567890126," in text and "\n1e+300," in text

    def test_header_only(self):
        cfg = cli.RunConfig()
        assert cli.write_csv(None, cfg, ("a", "b"), []) == self.per_value_text(cfg, ("a", "b"), [])


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

    def test_unwritable_plot_output(self, tmp_path, capsys):
        code = cli.main(["plot", f"--table={GOLDEN_DIR / 'sweep.csv'}",
                         f"--out={tmp_path / 'no' / 'dir' / 'x.py'}"])
        assert code == 2
        assert "error: category=config: cannot write output" in capsys.readouterr().err

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


# Fixed runs whose CSV bytes pin the outputs: fringe, erasure and the
# wpd-verify estimates were recorded from the per-point model route,
# wpd_verify_s3_negative from the fixed H / V branch split, and montecarlo and
# wpd_verify_ball from the axis decomposition. The sweeps and the wpd-verify
# truth columns come from the closed-form relative rotation.
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
    # s3 < 0: the H branch is still alpha, with weight (1 + s3) / 2
    "wpd_verify_s3_negative.csv": ["wpd-verify", "--stokes=0,0,-0.4",
                                   "--theta1=0,22.5,45", "--photons=2000",
                                   "--resamples=50", "--seed=7"],
    "montecarlo.csv": ["montecarlo", "--stokes=0,0,0.3", "--theta1=0,22.5,45",
                       "--photons=2000", "--resamples=50", "--seed=11"],
    # off the s3 axis: branches at equal s2 height, not H / V
    "wpd_verify_ball.csv": ["wpd-verify", "--stokes=0.3,-0.4,0.5",
                            "--theta1=0,15,30,45", "--photons=5000",
                            "--resamples=100", "--seed=3"],
    "tomography.csv": ["tomography", "--stokes=0.3,-0.2,0.1", "--photons=100000",
                       "--seed=5"],
    # a pure source: most resamples leave the Bloch ball and are rescaled
    "tomography_pure.csv": ["tomography", "--stokes=0,0,1", "--photons=20000",
                            "--seed=5"],
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
    (["tomography", "--resamples=100001"], "config", 2),  # one over the resamples cap
    # 10^7 + 1 000 cells of wpd-verify's bootstrap, refused before it is built
    (["wpd-verify", "--resamples=1000", "--phi-points=10001"], "config", 2),
    # the spectral rules hold in every mode, also where no spectrum is used
    (["sweep", "--theta1=0", "--wavelength-nm=-1"], "config", 2),
    (["sweep", "--theta1=0", "--bandwidth-nm=-5"], "config", 2),
    (["fringe", "--wavelength-nm=-1"], "config", 2),
    (["fringe", "--bandwidth-nm=-1"], "config", 2),
    (["fringe", "--shape=rectangular"], "config", 2),  # with no bandwidth
    (["erasure", "--wavelength-nm=0"], "config", 2),
])
def test_error_contract(tmp_path, capsys, argv, category, code):
    assert cli.main([*argv, "--photons=100", f"--out={tmp_path / 'x.csv'}"]) == code
    err = capsys.readouterr().err
    assert f"error: category={category}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["montecarlo", "wpd-verify"])
def test_empty_count_table_is_a_gate_failure(tmp_path, capsys, mode):
    # at one photon per setting a branch table is empty with probability
    # (3/4)^2: a chance outcome of the run, not a bad setting
    assert cli.main([mode, "--photons=1", f"--out={tmp_path / 'x.csv'}"]) == 3
    assert "error: category=empty-counts: no detected photons" in capsys.readouterr().err


def _nan_rows(fn, column):
    def wrapped(*args, **kwargs):
        columns, rows = fn(*args, **kwargs)
        rows[0, column] = math.nan
        return columns, rows
    return wrapped


def _nan_estimate(*args, **kwargs):
    return SimpleNamespace(value=math.nan, ci_low=math.nan, ci_high=math.nan, sigma=math.nan)


def _nan_stokes_estimate(fn):
    def wrapped(*args, **kwargs):
        run = fn(*args, **kwargs)
        return replace(run, stokes_estimate=np.array([math.nan, 0.0, 0.0]))
    return wrapped


def _report_with(field):
    def check(monkeypatch):
        cfg = interferometer.InterferometerConfig(theta1_deg=20.0)
        s = np.array([0.1, 0.2, 0.3])
        report = replace(duality.duality_report(cfg, s), **{field: math.nan})
        duality._check_report(report, duality.rotation_from_config(cfg), s)
    return check


def _nan_decomposition_route(monkeypatch):
    monkeypatch.setattr(duality, "d_via_decomposition", lambda rot, s: math.nan)
    duality.duality_report(interferometer.InterferometerConfig(theta1_deg=20.0), [0.1, 0.2, 0.3])


def _cli_gate(mode, target, patch):
    def run(monkeypatch):
        module, name = target
        monkeypatch.setattr(module, name, patch(getattr(module, name)))
        cfg = cli.build_run_config({}, {"photons": 2000, "resamples": 20, "out": ""}, mode)
        cli.RUNNERS[mode](cfg)
    return run


# Each gate is written `not (... <= tol)`, so a NaN in its input fails it.
@pytest.mark.parametrize("run,error,message", [
    (_cli_gate("fringe", (interferometer, "fringe_scan"), lambda fn: _nan_rows(fn, 3)),
     GateFailure, "port probabilities do not sum to 1"),
    (_cli_gate("erasure", (interferometer, "fringe_scan"), lambda fn: _nan_rows(fn, 4)),
     GateFailure, "analyzer outputs do not sum"),
    (_cli_gate("wpd-verify", (montecarlo, "estimate_visibility_mc"), lambda fn: _nan_estimate),
     GateFailure, "WPD closure failed"),
    (_cli_gate("tomography", (montecarlo, "tomography"), _nan_stokes_estimate),
     GateFailure, "left the Bloch ball"),
    (_report_with("sum_vd"), InvalidState, "WPD equality violated"),
    (_report_with("sum_vdc"), InvalidState, "conventional WPD sum"),
    (_report_with("d_conventional"), InvalidState, "Dc exceeded D"),
    (_nan_decomposition_route, InvalidState, "decomposition route disagrees"),
], ids=["fringe-port-sum", "erasure-analyzer-sum", "wpd-verify-closure",
        "tomography-bloch-ball", "sum-vd", "sum-vdc", "dc-below-d", "decomposition"])
def test_gates_fail_on_nan(monkeypatch, run, error, message):
    with pytest.raises(error, match=message):
        run(monkeypatch)


def _off_rows(fn, seen):
    # port sums off at rows 2 and 5: the gate names the first of them
    def wrapped(*args, **kwargs):
        columns, rows = fn(*args, **kwargs)
        rows[[2, 5], 3] += 0.5
        seen.append(rows[2, 0])
        return columns, rows
    return wrapped


def test_fringe_gate_names_first_off_row(monkeypatch):
    seen = []
    run = _cli_gate("fringe", (interferometer, "fringe_scan"), lambda fn: _off_rows(fn, seen))
    with pytest.raises(GateFailure) as info:
        run(monkeypatch)
    assert str(info.value) == f"port probabilities do not sum to 1 at delta={seen[0]}"


def _recorded(fn, runs, shift_rows=()):
    # keeps each result; the V estimates of `shift_rows` move 0.5 off
    def wrapped(*args, **kwargs):
        est = fn(*args, **kwargs)
        if len(runs) in shift_rows:
            est = SimpleNamespace(value=est.value + 0.5, ci_low=est.ci_low,
                                  ci_high=est.ci_high + 0.5, sigma=est.sigma)
        runs.append(est)
        return est
    return wrapped


def test_wpd_verify_gate_names_first_failing_row(monkeypatch):
    # the closure fails at the 2nd and 4th theta1 rows; the 2nd is reported
    v_runs, d_runs = [], []
    monkeypatch.setattr(montecarlo, "estimate_distinguishability_decomposed",
                        _recorded(montecarlo.estimate_distinguishability_decomposed, d_runs))
    run = _cli_gate("wpd-verify", (montecarlo, "estimate_visibility_mc"),
                    lambda fn: _recorded(fn, v_runs, shift_rows=(1, 3)))
    with pytest.raises(GateFailure) as info:
        run(monkeypatch)
    v, d = v_runs[1], d_runs[1].estimate
    vd_sum = v.value**2 + d.value**2
    vd_sigma = math.hypot(2 * v.value * v.sigma, 2 * d.value * d.sigma)
    theta1 = cli.DEFAULT_VERIFY_THETAS[1]
    assert str(info.value) == (f"WPD closure failed at theta1={theta1}: "
                               f"V2+D2={vd_sum} sigma={vd_sigma}")


def test_tomography_op_makes_three_eigensolves(monkeypatch, tmp_path):
    # one validates the source and two the truth fidelity (rho and I/2); the
    # tomography itself validates neither again
    calls = []
    herm_eig2 = linalg.herm_eig2
    monkeypatch.setattr(linalg, "herm_eig2", lambda h: calls.append(1) or herm_eig2(h))
    argv = ["tomography", "--stokes=0.3,-0.2,0.1", "--photons=10000",
            f"--out={tmp_path / 'x.csv'}"]
    assert cli.main(argv) == 0
    assert len(calls) == 3


@pytest.mark.parametrize("mode", ["fringe", "erasure", "wpd-verify", "montecarlo", "tomography"])
def test_one_source_modes_refuse_extra_sources(tmp_path, capsys, mode):
    argv = [mode, "--stokes=0,0,0.3;0.5,0,0", "--photons=100", f"--out={tmp_path / 'x.csv'}"]
    assert cli.main(argv) == 2
    assert (f"error: category=config: {mode} takes one source; several stokes triples "
            "are for sweep only") in capsys.readouterr().err


def test_plot_ignores_extra_sources(tmp_path):
    argv = ["plot", "--stokes=0,0,0.3;0.5,0,0", f"--table={GOLDEN_DIR / 'sweep.csv'}",
            f"--out={tmp_path / 'sweep.plot.py'}"]
    assert cli.main(argv) == 0


def test_photons_beyond_int64_rejected(tmp_path, capsys):
    argv = ["montecarlo", f"--photons={2**63}", f"--out={tmp_path / 'x.csv'}"]
    assert cli.main(argv) == 2
    assert "error: category=config: photons must lie in" in capsys.readouterr().err


# Each refusal names the setting and the parser's reason, from argv and from
# a config file alike.
@pytest.mark.parametrize("key,value,reason", [
    ("theta1", "0:45:-5", "step must be > 0"),
    ("photons", "abc", "invalid literal for int() with base 10: 'abc'"),
    ("theta0", "nan", "must be finite"),
    ("delta", "0,inf", "must be finite"),
    ("stokes", "0,0", "need 's1,s2,s3'"),
])
def test_refusal_names_setting_and_reason(tmp_path, capsys, key, value, reason):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{key} = {value}\n")
    out = f"--out={tmp_path / 'x.csv'}"
    for argv in (["sweep", f"--{key}={value}", out], ["sweep", f"--config={cfgfile}", out]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "error: category=config: " in err
        assert f"bad {key} {value!r}: {reason}" in err


def test_resample_caps_allow_their_limits(tmp_path):
    cap = cli.MAX_GRID_POINTS
    assert cli.build_run_config({}, {"resamples": cap}, "tomography").resamples == cap
    cells = cli.build_run_config({}, {"resamples": 1000, "phi_points": 10_000}, "wpd-verify")
    assert cells.resamples * cells.phi_points == cli.MAX_BOOTSTRAP_CELLS
    # fringe runs no bootstrap, so its phase grid is not capped by the resamples
    assert cli.main(["fringe", "--resamples=1000", "--phi-points=10001",
                     f"--out={tmp_path / 'x.csv'}"]) == 0


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
