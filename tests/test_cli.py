import csv
import errno
import filecmp
import os
import platform
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from mgdesign import cli, metrics, sensitivity
from mgdesign.cli import main
from mgdesign.dispatch import Design
from mgdesign.metrics import METRIC_FIELDS
from mgdesign.optimize import DESIGN_FIELDS, RESULT_FIELDS, EvaluatedDesign, _result_columns, write_evaluations_csv
from mgdesign.scenario import bundled_data_path

from .helpers import bench_inputs, random_metric_vectors, reference_read_results_csv, reference_write_evaluations_csv

A5_ARG = "pv=418,wt=123,dg=0,bess=704,conv=255"
ROOT = Path(__file__).resolve().parents[1]


def _run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _edited_scenario(tmp_path, line: str, replacement: str) -> Path:
    """A copy of the bundled data whose YAML has ``line`` (found once)
    replaced; returns the YAML path."""
    data = tmp_path / "data"
    shutil.copytree(bundled_data_path(), data)
    yaml_path = data / "scenario.yaml"
    text = yaml_path.read_text(encoding="utf-8")
    assert text.count(line) == 1
    yaml_path.write_text(text.replace(line, replacement), encoding="utf-8")
    return yaml_path


class TestValidate:
    def test_bundled_ok(self, capsys):
        code, out, _ = _run(capsys, "validate")
        assert code == 0
        assert "scenario OK" in out

    def test_broken_scenario_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("series: {}\n", encoding="utf-8")
        code, _, err = _run(capsys, "validate", "--scenario", str(bad))
        assert code != 0
        assert "error" in err


    def test_malformed_yaml_exits_2(self, capsys, tmp_path):
        path = _edited_scenario(tmp_path, "  max_import_kw: 400.0", "  max_import_kw: [400.0")
        line = path.read_text(encoding="utf-8").splitlines().index("  max_import_kw: [400.0") + 1
        code, out, err = _run(capsys, "validate", "--scenario", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid scenario:")
        assert f"{path}:{line + 1}:" in err and f"at line {line})" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("line, replacement, message", [
        ("name: coastal-community-synthetic", "name: [1]", "name: must be a string, got [1]"),
        ("    cut_in_ms: 4.0", "    cut_in_ms: -1", "catalog.wind.cut_in_ms: must be >= 0, got -1"),
    ], ids=["name", "cut_in_ms"])
    def test_schema_field_exits_2(self, capsys, tmp_path, line, replacement, message):
        path = _edited_scenario(tmp_path, line, replacement)
        code, out, err = _run(capsys, "validate", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert message in err

    def test_bad_series_line_named(self, capsys, tmp_path):
        shutil.copytree(bundled_data_path(), tmp_path / "data")
        series = tmp_path / "data" / "load_kw.txt"
        lines = series.read_text(encoding="utf-8").split("\n")
        lines[99] = "x"
        series.write_text("\n".join(lines), encoding="utf-8")
        code, out, err = _run(capsys, "validate", "--scenario", str(tmp_path / "data" / "scenario.yaml"))
        assert (code, out) == (2, "")
        assert f"{series}:100: cannot parse 'x' as a number" in err

    @pytest.mark.parametrize("mark, newline", [(b"", b"\n"), (b"\xef\xbb\xbf", b"\r\n")], ids=["lf", "bom-crlf"])
    def test_non_utf8_series_names_file_and_line(self, capsys, tmp_path, mark, newline):
        """A Latin-1 byte far past the decoder's first chunk is named by the
        file and its line, not by a position in the chunk."""
        shutil.copytree(bundled_data_path(), tmp_path / "data")
        series = tmp_path / "data" / "load_kw.txt"
        lines = series.read_bytes().split(b"\n")
        lines[5000] += b"  # 25\xb0C"
        series.write_bytes(mark + newline.join(lines))
        code, out, err = _run(capsys, "validate", "--scenario", str(tmp_path / "data" / "scenario.yaml"))
        assert (code, out) == (2, "")
        assert err == f"error: invalid scenario:\n  series.load: {series}, line 5001: not UTF-8 text\n"

    def test_non_utf8_scenario_file_names_line(self, capsys, tmp_path):
        shutil.copytree(bundled_data_path(), tmp_path / "data")
        path = tmp_path / "data" / "scenario.yaml"
        lines = path.read_bytes().split(b"\n")
        line = lines.index(b"  battery:") + 1
        lines[line - 1] += b"  # 25\xb0C"
        path.write_bytes(b"\n".join(lines))
        code, out, err = _run(capsys, "validate", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: invalid scenario:\n  {path}, line {line}: not UTF-8 text\n"

    def test_series_with_byte_order_mark_crlf_and_comments(self, capsys, tmp_path):
        """Series files that start with a byte-order mark and have CRLF line
        ends, comments and blank lines give the bundled run's files."""
        data = tmp_path / "data"
        shutil.copytree(bundled_data_path(), data)
        for name in ("load_kw.txt", "irradiance_kw_m2.txt", "wind_speed_ms.txt"):
            lines = (data / name).read_text(encoding="utf-8").splitlines()
            lines = ["# rewritten", ""] + [f"{line}  # hour {i}" if i % 100 == 0 else line
                                           for i, line in enumerate(lines)] + ["", "# end"]
            (data / name).write_bytes(b"\xef\xbb\xbf" + "\r\n".join(lines).encode("utf-8") + b"\r\n")
        assert _run(capsys, "validate", "--scenario", str(data / "scenario.yaml"))[0] == 0
        for run, scenario in (("bundled", []), ("rewritten", ["--scenario", str(data / "scenario.yaml")])):
            code, _, _ = _run(capsys, "evaluate", "--design", A5_ARG, "--trace", "--out", str(tmp_path / run),
                              *scenario)
            assert code == 0
        for name in ("metrics.csv", "costs.csv", "trace.csv"):
            assert (tmp_path / "bundled" / name).read_bytes() == (tmp_path / "rewritten" / name).read_bytes()

    def test_negative_zero_wind_speed_gives_the_files_of_zero(self, capsys, tmp_path):
        """With a cut-in speed of 0, a wind speed written ``-0`` on every 50th
        line gives the files of ``0`` there: no ``-0.0`` kW reaches the trace."""
        for zero in ("-0", "0"):
            path = _edited_scenario(tmp_path / zero, "    cut_in_ms: 4.0", "    cut_in_ms: 0")
            speeds = path.parent / "wind_speed_ms.txt"
            lines = speeds.read_text(encoding="utf-8").splitlines()
            lines[49::50] = [zero] * len(lines[49::50])
            speeds.write_text("\n".join(lines) + "\n", encoding="utf-8")
            code, _, _ = _run(capsys, "evaluate", "--scenario", str(path), "--design", A5_ARG, "--trace",
                              "--out", str(tmp_path / f"run{zero}"))
            assert code == 0
        for name in ("metrics.csv", "costs.csv", "trace.csv"):
            assert (tmp_path / "run-0" / name).read_bytes() == (tmp_path / "run0" / name).read_bytes()

    def test_empty_series_reports_length_only(self, tmp_path):
        """An empty series file ends in the length error; no NumPy warning
        reaches stderr."""
        data = tmp_path / "data"
        shutil.copytree(bundled_data_path(), data)
        (data / "load_kw.txt").write_text("", encoding="utf-8")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "mgdesign.cli", "validate", "--scenario", str(data / "scenario.yaml")],
            capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: invalid scenario:\n  series.load: expected 8760 hourly values, got 0\n"

    def test_every_schema_problem_named(self, capsys, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(bundled_data_path(), data)
        path = data / "scenario.yaml"
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
        doc["economics"]["inflation_rate"] = 0.02
        doc["catalog"]["pv"]["capital_usd_per_kw"] = "1300.0"
        doc["catalog"]["diesel"] = [60.0]
        doc["economics"]["project_years"] = True
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        code, out, err = _run(capsys, "validate", "--scenario", str(path))
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        for message in ("economics.inflation_rate: unknown key",
                        "catalog.pv.capital_usd_per_kw: must be a number, got '1300.0'",
                        "catalog.diesel: must be a mapping, got [60.0]",
                        "economics.project_years: must be an integer, got True"):
            assert message in err


class TestEvaluate:
    def test_a5_summary_and_files(self, capsys, tmp_path):
        out = tmp_path / "run"
        code, stdout, _ = _run(capsys, "evaluate", "--design", A5_ARG, "--out", str(out))
        assert code == 0
        assert "npc_usd" in stdout
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0].startswith("pv_kw,wt_kw,dg_kw,bess_kwh,converter_kw,grid_cap_kw,npc_usd")
        assert len(metrics) == 2

    def test_trace_flag(self, capsys, tmp_path):
        out = tmp_path / "run"
        code, _, _ = _run(capsys, "evaluate", "--design", "pv=10,conv=10", "--out", str(out),
                          "--trace")
        assert code == 0
        assert (out / "trace.csv").exists()

    def test_bad_design_exits_nonzero(self, capsys, tmp_path):
        code, _, err = _run(capsys, "evaluate", "--design", "pv=-5", "--out", str(tmp_path))
        assert code != 0
        assert "error" in err

    def test_negative_zero_capacity_writes_the_files_of_zero(self, capsys, tmp_path):
        for name, conv in (("neg", "-0"), ("pos", "0")):
            code, _, _ = _run(capsys, "evaluate", "--design", f"pv=100,bess=100,conv={conv}",
                              "--out", str(tmp_path / name))
            assert code == 0
        for name in ("metrics.csv", "costs.csv"):
            assert (tmp_path / "neg" / name).read_bytes() == (tmp_path / "pos" / name).read_bytes()
        assert b"-0.0" not in (tmp_path / "neg" / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("line, field", [
        ("capital_usd_per_kw: 1300.0", "catalog.pv.capital_usd_per_kw"),
        ("rate_constant_per_hr: 1.0", "catalog.battery.rate_constant_per_hr"),
    ])
    def test_nan_catalog_value_exits_2(self, capsys, tmp_path, line, field):
        data = tmp_path / "data"
        shutil.copytree(bundled_data_path(), data)
        yaml_path = data / "scenario.yaml"
        text = yaml_path.read_text(encoding="utf-8")
        key = line.split(":")[0]
        assert text.count(line) == 1
        yaml_path.write_text(text.replace(line, f"{key}: .nan"), encoding="utf-8")
        code, _, err = _run(capsys, "evaluate", "--scenario", str(yaml_path), "--design", A5_ARG,
                            "--out", str(tmp_path / "run"))
        assert code == 2
        assert field in err

    def test_tiny_rate_constant_exits_2(self, capsys, tmp_path):
        # exp(-1e-17) is 1.0, so the battery's closed forms would divide by zero
        yaml_path = _edited_scenario(tmp_path, "rate_constant_per_hr: 1.0", "rate_constant_per_hr: 1.0e-17")
        code, stdout, err = _run(capsys, "evaluate", "--scenario", str(yaml_path),
                                 "--design", "pv=418,wt=123,bess=704,conv=255", "--out", str(tmp_path / "run"))
        assert code == 2
        assert stdout == ""
        assert "catalog.battery.rate_constant_per_hr: must be >= 1e-6, got 1e-17" in err

    @pytest.mark.parametrize("command", ["evaluate", "refine"])
    def test_overflowing_capacity_exits_2_with_one_line(self, capsys, tmp_path, command):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no NumPy overflow warning besides the error
            code, stdout, stderr = _run(capsys, command, "--design", "pv=1e308,conv=100", "--out", str(tmp_path))
        assert (code, stdout) == (2, "")
        assert stderr == ("error: not finite for Design(pv_kw=1e+308, wt_kw=0.0, dg_kw=0.0, bess_kwh=0.0, "
                          "converter_kw=100.0, grid_cap_kw=None): npc_usd = nan, efficiency_pct = nan, "
                          "co2_kg_per_yr = -inf\n")

    def test_zero_wind_nominal_kw_exits_2(self, capsys, tmp_path):
        yaml_path = _edited_scenario(tmp_path, "nominal_kw: 3.0", "nominal_kw: 0")
        code, stdout, err = _run(capsys, "evaluate", "--scenario", str(yaml_path),
                                 "--design", A5_ARG, "--out", str(tmp_path / "run"))
        assert code == 2
        assert stdout == ""
        assert "catalog.wind.nominal_kw: must be > 0, got 0" in err

    def test_huge_project_years_exits_2(self, tmp_path):
        # The parent process's timeout stops a hang in the NPC replacement loop.
        yaml_path = _edited_scenario(tmp_path, "project_years: 25", "project_years: 1.0e+308")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "mgdesign.cli", "evaluate", "--scenario", str(yaml_path),
             "--design", A5_ARG, "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "economics.project_years: must be an integer, got 1e+308" in proc.stderr

    def test_costs_file_agrees_with_the_metrics(self, capsys, tmp_path):
        code, _, _ = _run(capsys, "evaluate", "--design", A5_ARG, "--out", str(tmp_path))
        assert code == 0
        with open(tmp_path / "metrics.csv") as fh:
            metric_row = next(csv.DictReader(fh))
        with open(tmp_path / "costs.csv") as fh:
            cost_row = next(csv.DictReader(fh))
        for name in ("capital_usd", "om_usd_per_yr"):
            assert cost_row[name] == metric_row[name]

    def test_every_non_finite_field_named(self, capsys, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(bundled_data_path(), data)
        yaml_path = data / "scenario.yaml"
        text = yaml_path.read_text(encoding="utf-8")
        fields = {
            "catalog.wind.power_coefficient": "power_coefficient: 0.40",
            "catalog.wind.nominal_kw": "nominal_kw: 3.0",
            "catalog.wind.shear_exponent": "shear_exponent: 0.14",
            "catalog.wind.curve_exponent": "curve_exponent: 3.0",
            "catalog.wind.swept_area_m2_per_unit": "swept_area_m2_per_unit: 19.6",
            "catalog.pv.degradation_per_yr": "degradation_per_yr: 0.005",
            "economics.discount_rate": "discount_rate: 0.06",
            "economics.fuel_price_usd_per_l": "fuel_price_usd_per_l: 1.5",
        }
        for line in fields.values():
            assert text.count(line) == 1
            text = text.replace(line, line.split(":")[0] + ": .nan")
        yaml_path.write_text(text, encoding="utf-8")
        code, stdout, err = _run(capsys, "evaluate", "--scenario", str(yaml_path),
                                 "--design", A5_ARG, "--out", str(tmp_path / "run"))
        assert code == 2
        assert stdout == ""
        for field in fields:
            assert f"{field}: must be finite, got nan" in err


class TestSearch:
    SPACE = "pv=0:150:75,bess=0:200:200,conv=100"

    def test_search_writes_results_and_pareto(self, capsys, tmp_path):
        out = tmp_path / "s"
        code, stdout, _ = _run(capsys, "search", "--space", self.SPACE, "--out", str(out))
        assert code == 0
        results = (out / "results.csv").read_text().splitlines()
        assert len(results) == 1 + 6
        assert (out / "pareto.csv").exists()
        assert "non-dominated" in stdout

    def test_empty_lattice_errors(self, capsys, tmp_path):
        code, _, err = _run(capsys, "search", "--space", "pv=10:0:5", "--out", str(tmp_path))
        assert code != 0
        assert "error" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, capsys, tmp_path, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--space", self.SPACE, "--jobs", jobs, "--out", str(tmp_path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --jobs: expected an integer >= 1, got '{jobs}'" in captured.err
        assert not any(tmp_path.iterdir())

    def test_budget_excluding_everything_errors(self, capsys, tmp_path):
        code, _, err = _run(capsys, "search", "--space", "pv=100:200:100",
                            "--budget", "1", "--out", str(tmp_path))
        assert code != 0
        assert "no feasible design" in err

    def test_infinite_axis_bound_exits_2_naming_the_spec(self, capsys, tmp_path):
        code, stdout, err = _run(capsys, "search", "--space", "pv=0:inf:100", "--out", str(tmp_path))
        assert code == 2
        assert stdout == ""
        assert err == "error: bad axis spec 'pv=0:inf:100'; use lo:hi:step or value\n"

    @pytest.mark.parametrize("argv, message", [
        (("evaluate", "--design", "pv=100,pv=418,conv=255"), "pv_kw is given twice"),
        (("evaluate", "--design", "pv=100,PV=200,converter=50,conv=100"), "pv_kw is given twice"),
        (("sensitivity", "--design", "conv=1,Converter=2"), "converter_kw is given twice"),
        (("search", "--space", "pv=0:100:100,pv=300,conv=100"), "axis pv_kw is given twice"),
        (("rl-search", "--space", "pv=0:100:100,conv=50,CONV=100"), "axis converter_kw is given twice"),
    ])
    def test_a_name_given_twice_exits_2_naming_the_field(self, capsys, tmp_path, argv, message):
        code, stdout, err = _run(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == 2
        assert stdout == ""
        assert err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("space, message", [
        ("pv=0:1e6:1e-3", "axis pv_kw has 1000000001 values; the most is 1000000"),
        ("pv=0:1e5:1,wt=0:1e5:1", "search space has 10000200001 designs; the most is 1000000"),
    ])
    def test_lattice_too_large_exits_2_naming_the_axis_or_count(self, capsys, tmp_path, space, message):
        code, stdout, err = _run(capsys, "search", "--space", space, "--budget", "1", "--out", str(tmp_path))
        assert code == 2
        assert stdout == ""
        assert err == f"error: {message}\n"


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, capsys, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            code, _, _ = _run(capsys, "search", "--space", "pv=0:150:150,conv=100",
                              "--out", str(out), "--seed", "42")
            assert code == 0
        for name in ("results.csv", "pareto.csv"):
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False)
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_rl_search_byte_identical(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code, _, _ = _run(capsys, "rl-search", "--space", "pv=0:100:100,conv=100",
                              "--episodes", "10", "--out", str(out), "--seed", "7")
            assert code == 0
        assert (out1 / "rl_archive.csv").read_bytes() == (out2 / "rl_archive.csv").read_bytes()


class TestPipelines:
    def test_pareto_command_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "s"
        _run(capsys, "search", "--space", "pv=0:150:75,conv=100", "--out", str(out))
        code, stdout, _ = _run(capsys, "pareto", "--results", str(out / "results.csv"),
                               "--out", str(out))
        assert code == 0
        plot = (out / "pareto_plotdata.csv").read_text().splitlines()
        assert "non_dominated" in plot[0]
        assert len(plot) == 4

    def test_refine_improves_or_holds(self, capsys, tmp_path):
        out = tmp_path / "r"
        code, stdout, _ = _run(capsys, "refine", "--design", "pv=100,conv=100",
                               "--out", str(out), "--max-cycles", "3")
        assert code == 0
        assert (out / "refined.csv").exists()

    def test_refine_reports_evaluation_counts_on_stderr(self, capsys, tmp_path):
        code, stdout, err = _run(capsys, "refine", "--design", "pv=100,conv=100",
                                 "--out", str(tmp_path), "--max-cycles", "3")
        assert code == 0
        requested = int(re.search(r"\((\d+) evaluations\)", stdout).group(1))
        match = re.fullmatch(r"evaluations: (\d+) requested, (\d+) simulated, (\d+) ruled out, (\d+) reused, "
                             r"0 twins\n", err)
        assert int(match.group(1)) == requested
        simulated, ruled_out, reused = map(int, match.group(2, 3, 4))
        assert simulated + ruled_out + reused == requested
        assert 0 < simulated <= requested
        # each cycle's bess probe from the battery-less incumbent is ruled out
        assert ruled_out == 3
        assert "evaluations:" not in stdout

    def test_refine_simulates_each_design_once(self, capsys, tmp_path, monkeypatch):
        # the winner's metrics come from the search, not from a further run
        calls = []
        original = metrics.simulate_year

        def counting(scenario, design, *stage):
            calls.append(design)
            return original(scenario, design, *stage)

        monkeypatch.setattr(metrics, "simulate_year", counting)
        monkeypatch.setattr(cli, "simulate_year", counting)
        code, _, err = _run(capsys, "refine", "--design", "pv=100,conv=100",
                            "--out", str(tmp_path), "--max-cycles", "3")
        assert code == 0
        match = re.fullmatch(r"evaluations: \d+ requested, (\d+) simulated, \d+ ruled out, \d+ reused, (\d+) twins\n",
                             err)
        simulated = sum(map(int, match.groups()))
        assert len(calls) == simulated
        assert len(set(calls)) == simulated

    def test_rl_search_reports_evaluation_counts_on_stderr(self, capsys, tmp_path):
        code, stdout, err = _run(capsys, "rl-search", "--space", "pv=0:100:100,conv=100",
                                 "--episodes", "10", "--out", str(tmp_path), "--seed", "7")
        assert code == 0
        assert err == "evaluations: 10 requested, 2 simulated, 0 ruled out, 8 reused, 0 twins\n"
        assert "evaluations:" not in stdout

    def test_lcoe_sweep_simulates_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        original = cli.simulate_year

        def counting(scenario, design):
            calls.append(design)
            return original(scenario, design)

        monkeypatch.setattr(cli, "simulate_year", counting)
        monkeypatch.setattr(sensitivity, "simulate_year", counting)
        code, _, _ = _run(capsys, "lcoe-sweep", "--design", A5_ARG, "--out", str(tmp_path),
                          "--multipliers", "0.9,1.0,1.1")
        assert code == 0
        assert len(calls) == 1

    def test_sensitivity_csv(self, capsys, tmp_path):
        out = tmp_path / "sens"
        code, stdout, _ = _run(capsys, "sensitivity", "--design", A5_ARG, "--out", str(out))
        assert code == 0
        lines = (out / "sensitivity.csv").read_text().splitlines()
        assert len(lines) == 13

    def test_lcoe_sweep_all_parameters(self, capsys, tmp_path):
        out = tmp_path / "sweep"
        code, stdout, _ = _run(capsys, "lcoe-sweep", "--design", A5_ARG, "--out", str(out),
                               "--multipliers", "0.9,1.0,1.1")
        assert code == 0
        for name in ("purchase_price", "sellback_price", "battery_capital", "pv_capital"):
            assert (out / f"lcoe_{name}.csv").exists()

    def test_env_override_out(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("MGDESIGN_OUT", str(target))
        code, _, _ = _run(capsys, "evaluate", "--design", "pv=10,conv=10")
        assert code == 0
        assert (target / "metrics.csv").exists()

    @pytest.mark.parametrize("variable, flag", [("SEED", "--seed"), ("JOBS", "--jobs")])
    def test_bad_integer_env_exits_2_naming_flag(self, capsys, monkeypatch, variable, flag):
        monkeypatch.setenv(f"MGDESIGN_{variable}", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["validate"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        problem = {"--seed": "expected an integer >= 0, got 'abc'", "--jobs": "expected an integer >= 1, got 'abc'"}[flag]
        assert f"argument {flag}: {problem}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, flag, value", [
        (["search", "--space", "pv=0:100:100", "--budget", "nan"], "--budget", "nan"),
        (["refine", "--design", "pv=100,conv=100", "--tolerance", "nan"], "--tolerance", "nan"),
        (["lcoe-sweep", "--design", A5_ARG, "--multipliers", "0.9,nan"], "--multipliers", "nan"),
        (["lcoe-sweep", "--design", A5_ARG, "--multipliers", "inf"], "--multipliers", "inf"),
    ])
    def test_non_finite_number_exits_2_naming_flag(self, capsys, tmp_path, argv, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: expected a finite number, got '{value}'" in captured.err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["refine", "--design", "pv=100,conv=100"], ["evaluate", "--design", "pv=100"], ["validate"],
        ["rl-search", "--space", "pv=0:100:100"], ["sensitivity", "--design", "pv=100"],
    ], ids=lambda argv: argv[0])
    def test_jobs_below_one_exits_2_on_every_command(self, capsys, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--jobs", "-4", "--out", str(tmp_path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --jobs: expected an integer >= 1, got '-4'" in captured.err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["search", "rl-search"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-5", "-0.5", "wide"])
    def test_grid_cap_not_finite_or_negative_exits_2_naming_flag(self, capsys, tmp_path, command, value):
        with pytest.raises(SystemExit) as exc:
            main([command, "--space", "pv=0:100:100,conv=100", "--grid-cap", value, "--out", str(tmp_path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --grid-cap: expected a finite number >= 0, got '{value}'" in captured.err
        assert "grid_cap_kw" not in captured.err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["-3", "0", "2.5", "many"])
    def test_episodes_below_one_exits_2_naming_flag(self, capsys, tmp_path, value):
        with pytest.raises(SystemExit) as exc:
            main(["rl-search", "--space", "pv=0:100:100", "--episodes", value, "--out", str(tmp_path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --episodes: expected an integer >= 1, got '{value}'" in captured.err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["-1", "-200", "x"])
    def test_max_cycles_below_zero_exits_2_naming_flag(self, capsys, tmp_path, value):
        with pytest.raises(SystemExit) as exc:
            main(["refine", "--design", "pv=100", "--max-cycles", value, "--out", str(tmp_path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --max-cycles: expected an integer >= 0, got '{value}'" in captured.err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_learning_rate_exits_2_naming_flag(self, capsys, tmp_path, value):
        with pytest.raises(SystemExit) as exc:
            main(["rl-search", "--space", "pv=0:100:100", "--episodes", "5", "--learning-rate", value,
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --learning-rate: expected a finite number, got '{value}'" in captured.err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["search", "--space", "pv=0:100:100", "--weights", "a,b,c,d"],
         "argument --weights: could not convert string to float: 'a'"),
        (["search", "--space", "pv=0:100:100", "--weights", "0.25,0.25,0.25"],
         "argument --weights: need 4 comma-separated weights, got 3"),
        (["rl-search", "--space", "pv=0:100:100", "--episodes", "5", "--seed", "-1"],
         "argument --seed: expected an integer >= 0, got '-1'"),
    ], ids=["weights-not-numbers", "three-weights", "negative-seed"])
    def test_bad_weights_or_seed_exits_2_naming_flag(self, capsys, tmp_path, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not any(tmp_path.iterdir())

    def test_weighted_pick_prints_the_parsed_weights(self, capsys, tmp_path):
        code, stdout, _ = _run(capsys, "search", "--space", "pv=0:100:100,conv=100", "--weights",
                               "0.70,0.1,1e-1,.1", "--out", str(tmp_path))
        assert code == 0
        assert "\nweighted pick (0.7,0.1,0.1,0.1): " in stdout

    @pytest.mark.parametrize("parameter, value", [
        ("purchase_price", "inf"), ("sellback_price", "-inf"), ("battery_capital", "nan"), ("pv_capital", "nan"),
        ("all", "inf"),
    ])
    def test_overflowing_lcoe_exits_2_naming_parameter(self, capsys, tmp_path, parameter, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no NumPy overflow warning besides the error
            code, stdout, stderr = _run(capsys, "lcoe-sweep", "--design", A5_ARG, "--parameter", parameter,
                                        "--multipliers", "1.0,1e305", "--out", str(tmp_path))
        name = "purchase_price" if parameter == "all" else parameter
        assert (code, stdout) == (2, "")
        assert stderr == f"error: lcoe_usd_per_kwh = {value} with {name} x 1e+305\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["evaluate", "sensitivity", "lcoe-sweep"])
    def test_overflowing_discount_rate_exits_2_with_one_line(self, capsys, tmp_path, command):
        # (1 + r) ** years overflows in the capital recovery factor
        yaml_path = _edited_scenario(tmp_path, "discount_rate: 0.06", "discount_rate: 1.0e+308")
        code, stdout, stderr = _run(capsys, command, "--scenario", str(yaml_path), "--design", A5_ARG,
                                    "--out", str(tmp_path / "run"))
        assert (code, stdout) == (2, "")
        assert stderr == "error: lcoe_usd_per_kwh overflows: (1 + 1e+308) ** 25 is beyond a float\n"

    def test_lcoe_sweep_of_a_design_serving_nothing_exits_2(self, capsys, tmp_path):
        code, stdout, stderr = _run(capsys, "lcoe-sweep", "--design", "grid=0", "--out", str(tmp_path))
        assert (code, stdout) == (2, "")
        assert stderr == "error: lcoe_usd_per_kwh is undefined: the design serves no energy\n"

    def test_refine_labels_every_axis(self, capsys, tmp_path):
        code, stdout, _ = _run(capsys, "refine", "--design", "conv=150,bess=200.5,dg=60,wt=50,pv=100,grid=300",
                               "--max-cycles", "0", "--out", str(tmp_path))
        assert code == 0
        assert stdout.splitlines()[0] == ("refined pv=100,wt=50,dg=60,bess=200.5,conv=150,grid=300 -> "
                                          "pv=100,wt=50,dg=60,bess=200.5,conv=150,grid=300 in 0 cycles (1 evaluations)")

    def test_printed_labels_reproduce_the_design(self, capsys, tmp_path):
        """The picks of a capped search and a refine result, printed in full
        with their grid cap, read back to the same design, and ``evaluate``
        of the label gives its ``results.csv`` metrics."""
        code, stdout, _ = _run(capsys, "search", "--space", "pv=0:400:100,dg=0:120:60,bess=0:400:200,conv=150",
                               "--grid-cap", "120", "--out", str(tmp_path / "search"))
        assert code == 0
        with open(tmp_path / "search" / "results.csv", newline="") as fh:
            rows = {Design(**{name: float(row[name]) for name in DESIGN_FIELDS}): row for row in csv.DictReader(fh)}
        lowest = re.search(r"^lowest NPC: (\S+) at ", stdout, re.M).group(1)
        weighted = re.search(r"^weighted pick \(.*\): (\S+)$", stdout, re.M).group(1)
        assert lowest.endswith(",grid=120")
        for label in (lowest, weighted):
            row = rows[Design.from_string(label)]
            assert _run(capsys, "evaluate", "--design", label, "--out", str(tmp_path / "evaluate"))[0] == 0
            with open(tmp_path / "evaluate" / "metrics.csv", newline="") as fh:
                evaluated = next(csv.DictReader(fh))
            assert {name: evaluated[name] for name in METRIC_FIELDS} == {name: row[name] for name in METRIC_FIELDS}

        code, stdout, _ = _run(capsys, "refine", "--design", "pv=300,conv=255,grid=150", "--out", str(tmp_path / "refine"))
        assert code == 0
        label = re.search(r" -> (\S+) in ", stdout).group(1)
        with open(tmp_path / "refine" / "refined.csv", newline="") as fh:
            refined = next(csv.DictReader(fh))
        assert Design.from_string(label) == Design(**{name: float(refined[name]) for name in DESIGN_FIELDS})
        assert label.endswith(",grid=150")
        assert any(float(f"{value:g}") != value for value in Design.from_string(label).capacities().values())

    #: Any finite value >= 0, with some that ``:g`` rounds.
    _CAPACITY = st.floats(min_value=0.0, allow_infinity=False) | st.sampled_from(
        [200.5, 1234567.0, 0.1 + 0.2, 1e-7 / 3.0, 123456.75, 5e-324])

    @given(st.tuples(*[_CAPACITY] * 5), st.none() | _CAPACITY)
    def test_any_design_label_reads_back_to_the_design(self, capacities, grid_cap):
        design = Design(*capacities, grid_cap_kw=grid_cap)
        assert Design.from_string(cli._design_label(design)) == design

    def test_integer_env_sets_default(self, monkeypatch):
        monkeypatch.setenv("MGDESIGN_SEED", "7")
        monkeypatch.setenv("MGDESIGN_JOBS", "2")
        args = cli.build_parser().parse_args(["validate"])
        assert (args.seed, args.jobs) == (7, 2)


class TestPathErrors:
    """A path of the wrong kind exits 2 with the system's message, which names it."""

    @pytest.mark.parametrize("case", ["out-is-a-file", "out-below-a-file", "results-is-a-directory",
                                      "scenario-is-a-directory"])
    def test_exits_2_naming_the_path(self, capsys, tmp_path, case):
        file, folder, out = tmp_path / "file", tmp_path / "folder", str(tmp_path / "out")
        file.write_text("x\n")
        folder.mkdir()
        argv, path, number = {
            "out-is-a-file": (["evaluate", "--design", "pv=100", "--out", str(file)], file, errno.EEXIST),
            "out-below-a-file": (["evaluate", "--design", "pv=100", "--out", str(file / "sub")], file / "sub",
                                 errno.ENOTDIR),
            "results-is-a-directory": (["pareto", "--results", str(folder), "--out", out], folder, errno.EISDIR),
            "scenario-is-a-directory": (["evaluate", "--design", "pv=100", "--scenario", str(folder), "--out", out],
                                        folder, errno.EISDIR),
        }[case]
        assert _run(capsys, *argv) == (2, "", f"error: [Errno {number}] {os.strerror(number)}: '{path}'\n")


class TestParetoCommand:
    @pytest.mark.parametrize("seed", [3, 17])
    def test_bench_archive_matches_row_oracle(self, capsys, tmp_path, seed):
        inputs = bench_inputs()
        archive = tmp_path / "archive.csv"
        fronts = inputs.write_pareto_archive(archive, seed, inputs.PARETO_ROWS, inputs.PARETO_FRONTS)
        code, stdout, _ = _run(capsys, "pareto", "--results", str(archive), "--out", str(tmp_path / "out"))
        assert code == 0
        evaluations, feasible = reference_read_results_csv(archive)
        ranks = reference_write_evaluations_csv(evaluations, tmp_path / "oracle.csv", with_front_rank=True,
                                                feasible=feasible)
        assert ((tmp_path / "out" / "pareto_plotdata.csv").read_bytes()
                == (tmp_path / "oracle.csv").read_bytes())
        assert ranks.tolist() == fronts
        assert stdout.startswith(f"{len(fronts)} points, {fronts.count(0)} non-dominated\n")

    def test_infeasible_rows_left_unranked(self, capsys, tmp_path):
        out = tmp_path / "s"
        assert _run(capsys, "search", "--space", "pv=0:150:75,conv=100", "--out", str(out))[0] == 0
        with open(out / "results.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        feasible, pv = header.index("feasible"), header.index("pv_kw")
        # pv=150 and pv=75 form the front; with both infeasible pv=0 is alone.
        assert [row[pv] for row in rows] == ["150.0", "75.0", "0.0"]
        for row in rows[:2]:
            row[feasible] = "0"
        with open(out / "edited.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header] + rows)
        code, stdout, _ = _run(capsys, "pareto", "--results", str(out / "edited.csv"), "--out", str(out))
        assert code == 0
        assert stdout.startswith("3 points, 1 non-dominated\n")
        with open(out / "pareto_plotdata.csv", newline="") as fh:
            plot = list(csv.DictReader(fh))
        assert [(r["feasible"], r["non_dominated"], r["front_rank"]) for r in plot] == [
            ("0", "0", ""), ("0", "0", ""), ("1", "1", "0")]
        evaluations, feasible = reference_read_results_csv(out / "edited.csv")
        reference_write_evaluations_csv(evaluations, tmp_path / "oracle.csv", with_front_rank=True, feasible=feasible)
        assert (out / "pareto_plotdata.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("space", ["pv=0:150:75,dg=0:60:60,conv=100", "pv=0:150:75,bess=0:200:200,conv=100"])
    def test_search_results_round_trip(self, capsys, tmp_path, space):
        out = tmp_path / "s"
        assert _run(capsys, "search", "--space", space, "--out", str(out))[0] == 0
        assert _run(capsys, "pareto", "--results", str(out / "results.csv"), "--out", str(out))[0] == 0
        results = (out / "results.csv").read_text().splitlines()
        plot = (out / "pareto_plotdata.csv").read_text().splitlines()
        assert [line.split(",")[:len(RESULT_FIELDS)] for line in plot] == [line.split(",") for line in results]


class TestMalformedResults:
    """A bad results file exits 2 with a message that names the problem."""

    @staticmethod
    def _results(tmp_path) -> Path:
        points = random_metric_vectors(3, 6, distinct_levels=3)
        evaluations = [EvaluatedDesign(Design(pv_kw=25.0 * i, converter_kw=100.0,
                                              grid_cap_kw=60.0 if i % 2 else None), m)
                       for i, m in enumerate(points)]
        path = tmp_path / "results.csv"
        write_evaluations_csv({**_result_columns(evaluations), "feasible": [bool(i % 4) for i in range(len(points))]},
                              path)
        return path

    @staticmethod
    def _pareto(capsys, tmp_path, path: Path, out: str = "out") -> tuple[int, str, str]:
        return _run(capsys, "pareto", "--results", str(path), "--out", str(tmp_path / out))

    def _edited(self, tmp_path, line: int, edit) -> Path:
        """The results file with ``edit`` applied to the cells of file line ``line``."""
        path = self._results(tmp_path)
        lines = path.read_text().splitlines()
        lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_missing_columns_all_named(self, capsys, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text("pv_kw,wt_kw\n1,2\n")
        code, out, err = self._pareto(capsys, tmp_path, path)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        for name in ("dg_kw", "bess_kwh", "converter_kw") + METRIC_FIELDS:
            assert name in err
        assert "grid_cap_kw" not in err and "feasible" not in err
        assert not (tmp_path / "out" / "pareto_plotdata.csv").exists()

    def test_short_row_names_line_and_column(self, capsys, tmp_path):
        path = self._edited(tmp_path, 4, lambda cells: cells[:4])
        code, _, err = self._pareto(capsys, tmp_path, path)
        assert code == 2
        assert "line 4" in err and "converter_kw" in err

    def test_short_row_without_feasible_cell(self, capsys, tmp_path):
        path = self._edited(tmp_path, 7, lambda cells: cells[:-1])
        code, _, err = self._pareto(capsys, tmp_path, path)
        assert code == 2
        assert "line 7" in err and "feasible" in err

    @pytest.mark.parametrize("column", ["reliability", "pv_kw", "grid_cap_kw"])
    def test_bad_cell_names_line_and_column(self, capsys, tmp_path, column):
        index = RESULT_FIELDS.index(column)
        path = self._edited(tmp_path, 3, lambda cells: cells[:index] + ["x"] + cells[index + 1:])
        code, _, err = self._pareto(capsys, tmp_path, path)
        assert code == 2
        assert f"line 3, column {column}: not a number: 'x'" in err

    @pytest.mark.parametrize("cell", ["true", "True", "1.0", " 1", "2", ""])
    def test_feasible_cell_must_be_0_or_1(self, capsys, tmp_path, cell):
        path = self._edited(tmp_path, 5, lambda cells: cells[:-1] + [cell])
        code, _, err = self._pareto(capsys, tmp_path, path)
        assert code == 2
        assert f"line 5, column feasible: not 0 or 1: {cell!r}" in err

    def test_unparseable_line_named(self, capsys, tmp_path):
        path = self._edited(tmp_path, 3, lambda cells: cells[:1] + ["9" * 200_000] + cells[2:])
        code, _, err = self._pareto(capsys, tmp_path, path)
        assert code == 2
        assert "line 3: field larger than field limit" in err and "Traceback" not in err

    def test_blank_lines_skipped(self, capsys, tmp_path):
        path = self._results(tmp_path)
        assert self._pareto(capsys, tmp_path, path, "plain")[0] == 0
        lines = path.read_text().splitlines()
        spaced = tmp_path / "spaced.csv"
        spaced.write_text("\n".join(lines[:1] + [""] + lines[1:3] + ["", ""] + lines[3:]) + "\n\n")
        assert self._pareto(capsys, tmp_path, spaced, "spaced")[0] == 0
        assert ((tmp_path / "plain" / "pareto_plotdata.csv").read_bytes()
                == (tmp_path / "spaced" / "pareto_plotdata.csv").read_bytes())
        # Errors count the blank lines: results line 3 is file line 4.
        spaced.write_text("\n".join(lines[:1] + [""] + lines[1:2] + [lines[2].replace(",", ",y", 1)]) + "\n")
        code, _, err = self._pareto(capsys, tmp_path, spaced, "bad")
        assert code == 2 and "line 4, column wt_kw" in err

    def test_byte_order_mark_skipped(self, capsys, tmp_path):
        path = self._results(tmp_path)
        assert self._pareto(capsys, tmp_path, path, "plain")[0] == 0
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert self._pareto(capsys, tmp_path, marked, "marked")[0] == 0
        assert ((tmp_path / "plain" / "pareto_plotdata.csv").read_bytes()
                == (tmp_path / "marked" / "pareto_plotdata.csv").read_bytes())

    @pytest.mark.parametrize("line", [5, 1500])
    def test_non_utf8_byte_names_line(self, capsys, tmp_path, line):
        """The bench archive is 2000 rows, so line 1500 lies past the
        decoder's first chunk."""
        path = tmp_path / "archive.csv"
        inputs = bench_inputs()
        inputs.write_pareto_archive(path, 3, inputs.PARETO_ROWS, inputs.PARETO_FRONTS)
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] = lines[line - 1].replace(b",", b",\xb0", 1)
        path.write_bytes(b"\n".join(lines))
        code, out, err = self._pareto(capsys, tmp_path, path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}, line {line}: not UTF-8 text\n"
        assert not (tmp_path / "out" / "pareto_plotdata.csv").exists()

    def test_optional_columns_default(self, capsys, tmp_path):
        with open(self._results(tmp_path), newline="") as fh:
            rows = list(csv.reader(fh))
        optional = (RESULT_FIELDS.index("grid_cap_kw"), RESULT_FIELDS.index("feasible"))
        defaults = [rows[0]] + [[{optional[0]: "", optional[1]: "1"}.get(i, c) for i, c in enumerate(row)]
                                for row in rows[1:]]
        stripped = [[c for i, c in enumerate(row) if i not in optional] for row in rows]
        for name, table in (("defaults", defaults), ("stripped", stripped)):
            with open(tmp_path / f"{name}.csv", "w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(table)
            assert self._pareto(capsys, tmp_path, tmp_path / f"{name}.csv", name)[0] == 0
        assert ((tmp_path / "defaults" / "pareto_plotdata.csv").read_bytes()
                == (tmp_path / "stripped" / "pareto_plotdata.csv").read_bytes())

    @pytest.mark.parametrize("text", ["", ",".join(RESULT_FIELDS) + "\n\n"])
    def test_no_rows(self, capsys, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        code, _, err = self._pareto(capsys, tmp_path, path)
        assert code == 2 and "no rows" in err


class TestKeepFreedHeap:
    """``main`` asks glibc to keep freed heap memory, so the year-long
    arrays of one simulation reuse the pages of the last."""

    def test_main_calls_it(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_keep_freed_heap", lambda: calls.append(None))
        assert _run(capsys, "validate")[0] == 0
        assert len(calls) == 1

    def test_sets_both_thresholds(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(cli.sys, "platform", "linux")
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        assert cli._keep_freed_heap.__wrapped__() is None
        assert calls == [(-1, 256 << 20), (-3, 32 << 20)]   # M_TRIM_THRESHOLD, M_MMAP_THRESHOLD

    def test_does_nothing_off_linux(self, monkeypatch):
        def fail(name):
            raise AssertionError("no C library is opened off Linux")

        monkeypatch.setattr(cli.sys, "platform", "darwin")
        monkeypatch.setattr(cli.ctypes, "CDLL", fail)
        assert cli._keep_freed_heap.__wrapped__() is None

    @pytest.mark.parametrize("library", ["unloadable", "without mallopt"])
    def test_does_nothing_without_mallopt(self, monkeypatch, library):
        def cdll(name):
            if library == "unloadable":
                raise OSError("no such library")
            return SimpleNamespace()

        monkeypatch.setattr(cli.sys, "platform", "linux")
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert cli._keep_freed_heap.__wrapped__() is None

    @pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                        reason="mallopt is glibc's")
    def test_simulations_reuse_freed_pages(self):
        """40 battery-less years (no battery loop: the arrays are most of
        the time) take at most a quarter of the minor page faults after the
        setting that they take without it, each in a fresh process."""
        script = "\n".join([
            "import resource, sys",
            "from mgdesign import cli",
            "from mgdesign.dispatch import Design, simulate_year",
            "from mgdesign.scenario import bundled_scenario",
            "if sys.argv[1] == 'keep':",
            "    cli._keep_freed_heap()",
            "scenario, design = bundled_scenario(), Design.from_string('pv=735.9375,conv=422.96875')",
            "for _ in range(5):",
            "    simulate_year(scenario, design)",
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
            "for _ in range(40):",
            "    simulate_year(scenario, design)",
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
        ])
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        faults = {}
        for mode in ("default", "keep"):
            proc = subprocess.run([sys.executable, "-c", script, mode], capture_output=True, text=True,
                                  env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            faults[mode] = int(proc.stdout)
        assert faults["default"] > 0
        assert faults["keep"] * 4 <= faults["default"], faults
