import ast
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import time
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import photonmux
from photonmux import (
    McConfig,
    OptimizationResult,
    SourceConfig,
    SweepRecord,
    ideal_distribution,
    montecarlo,
    output_distribution,
    simulate,
    stats,
    validate,
)
from photonmux.cli import ConfigError, main, parse_config_text, parse_source_config

MINIMAL = """
# headline operating point
m = 4
delta_t0_ns = 2
mu = 0.1
e_h = 0.85
e_s = 0.9
e_sw_db = 0.5
r_dark = 0
"""


# The directory holding the imported package, so the CLI subprocess imports
# the same code when the package is found only through pytest's pythonpath.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(photonmux.__file__))


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "photonmux.cli", *args],
        capture_output=True, text=True, env=env,
    )


class TestConfigParsing:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "source.cfg"
        path.write_text(MINIMAL)
        cfg = parse_source_config(str(path), {})
        assert cfg == SourceConfig(m=4, delta_t0_ns=2.0, mu=0.1, e_h=0.85,
                                   e_s=0.9, e_sw_db=0.5, r_dark=0.0)

    def test_range_error_names_key(self):
        with pytest.raises(ConfigError, match="e_h"):
            parse_source_config(None, {"mu": 0.1, "e_h": 1.2})

    def test_inconsistent_pump_cross_check(self):
        # r = 100e6 with a 2 ns window implies mu = 0.2, not 0.1.
        with pytest.raises(ConfigError, match="inconsistent"):
            parse_source_config(None, {"mu": 0.1, "herald_rate_r": 100e6, "delta_t0_ns": 2.0})

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match=r"cfg:3.*unknown key 'bogus'"):
            parse_config_text("m = 1\nmu = 0.1\nbogus = 7\n", source="cfg")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("mu = 0.1\nmu = 0.2\n")

    def test_non_numeric_value_reports_key_and_line(self):
        with pytest.raises(ConfigError, match=r"cfg:1.*'mu'"):
            parse_config_text("mu = lots\n", source="cfg")

    def test_non_integral_value_of_an_int_key_says_integer(self):
        with pytest.raises(ConfigError, match=r"^cfg:2: value for 'm' is not an integer: '4\.0'$"):
            parse_config_text("mu = 0.1\nm = 4.0\n", source="cfg")
        with pytest.raises(ConfigError, match=r"^cfg:1: value for 'mu' is not a number: 'x'$"):
            parse_config_text("mu = x\n", source="cfg")

    def test_line_without_equals_sign_reports_line(self):
        with pytest.raises(ConfigError, match=r"^cfg:2: expected 'key = value', got 'm 4'$"):
            parse_config_text("mu = 0.1\nm 4\n", source="cfg")

    def test_missing_file_is_reported(self, tmp_path):
        path = str(tmp_path / "missing.cfg")
        with pytest.raises(ConfigError, match=rf"^cannot read config file {re.escape(repr(path))}: "):
            parse_source_config(path, {"mu": 0.1})

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "source.cfg"
        path.write_text(MINIMAL)
        cfg = parse_source_config(str(path), {"mu": 0.2})
        assert cfg.mu == 0.2


class TestDist:
    def test_lossless_passthrough(self, tmp_path):
        out = tmp_path / "dist.csv"
        code = main(["dist", "--m", "3", "--mu", "0.05", "-o", str(out)])
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "n,probability"
        probs = np.array([float(r.split(",")[1]) for r in rows[1:]])
        want = ideal_distribution(SourceConfig(m=3, mu=0.05))
        assert np.abs(probs - np.array(want.probs)).max() < 1e-12

    def test_structured_output(self, tmp_path):
        out = tmp_path / "dist.json"
        assert main(["dist", "--m", "0", "--mu", "0.1", "--format", "structured",
                     "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["format"] == "photonmux-dist"
        assert doc["config"]["m"] == 0
        assert abs(sum(doc["probs"]) + doc["tail_mass"] - 1.0) < 1e-9

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["dist", "--m", "2", "--mu", "0.1", "--e_h", "0.85"]
        assert main([*args, "-o", str(a)]) == 0
        assert main([*args, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_no_partial_files_left(self, tmp_path):
        out = tmp_path / "dist.csv"
        assert main(["dist", "--mu", "0.1", "-o", str(out)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dist.csv"]

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
    def test_outputs_get_the_mode_of_a_new_file(self, tmp_path, umask):
        # What the writing process's umask leaves of 0666, as `touch` gives.
        script = ("import os, sys; os.umask(int(sys.argv[1])); from photonmux.cli import main; "
                  "sys.exit(main(sys.argv[2:]))")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
        names = ("out.csv", "fig2.csv", "fig2.gp")
        out, table, plot = (str(tmp_path / name) for name in names)
        for args in (["dist", "--m", "2", "--mu", "0.1", "-o", out],
                     ["figure", "--id", "fig2", "-o", table, "--gnuplot", plot]):
            subprocess.run([sys.executable, "-c", script, str(umask), *args], env=env, check=True)
        for name in names:
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask


class TestFigure:
    def test_fig2_has_eleven_rows(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["figure", "--id", "fig2", "-o", str(out)]) == 0
        data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(data) == 1 + 11  # header plus one record per stage count

    def test_gnuplot_script_names_a_quoted_path(self, tmp_path):
        out, script = tmp_path / "it's.csv", tmp_path / "fig2.gp"
        assert main(["figure", "--id", "fig2", "-o", str(out), "--gnuplot", str(script)]) == 0
        plot = script.read_text().splitlines()[-1]
        assert plot.startswith("plot '" + str(out).replace("'", "''") + "' using 1:")

    def test_gnuplot_without_output_is_rejected(self, tmp_path, capsys):
        # The script would plot a table file that no run writes.
        script = tmp_path / "fig2.gp"
        assert main(["figure", "--id", "fig2", "--gnuplot", str(script)]) == 1
        out, err = capsys.readouterr()
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"
        assert "--gnuplot" in record["message"] and "-o" in record["message"]
        assert out == "" and not script.exists()

    def test_gnuplot_with_structured_output_is_rejected(self, tmp_path, capsys):
        # The script reads its table as comma-separated columns, which the
        # one-line JSON document has not.
        table, script = tmp_path / "fig2.json", tmp_path / "fig2.gp"
        assert main(["figure", "--id", "fig2", "--format", "structured", "-o", str(table),
                     "--gnuplot", str(script)]) == 1
        out, err = capsys.readouterr()
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"
        assert "--gnuplot" in record["message"] and "--format structured" in record["message"]
        assert out == "" and not table.exists() and not script.exists()

    @pytest.mark.parametrize("table,script,outdir", [
        ("out.csv", "out.csv", None),
        ("out.csv", "./out.csv", None),
        ("out.csv", "{outdir}/out.csv", "outdir"),
    ], ids=["same-name", "dot-slash", "outdir"])
    def test_gnuplot_onto_the_table_is_rejected(self, tmp_path, monkeypatch, capsys,
                                                table, script, outdir):
        # The script would replace the table it plots.  Under
        # PHOTONMUX_OUTDIR the relative table path and the absolute script
        # path name one file.
        monkeypatch.chdir(tmp_path)
        if outdir:
            monkeypatch.setenv("PHOTONMUX_OUTDIR", str(tmp_path / outdir))
        script = script.format(outdir=tmp_path / "outdir")
        assert main(["figure", "--id", "fig2", "-o", table, "--gnuplot", script]) == 1
        out, err = capsys.readouterr()
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"
        assert "--gnuplot" in record["message"] and "-o/--output" in record["message"]
        assert out == "" and list(tmp_path.rglob("*")) == []


class TestMonteCarlo:
    def test_histogram_and_compare(self, tmp_path):
        out = tmp_path / "mc.csv"
        code = main(["montecarlo", "--m", "2", "--mu", "0.1", "--e_h", "0.85",
                     "--trials", "5e4", "--seed", "42", "--compare", "-o", str(out)])
        assert code == 0
        text = out.read_text()
        assert "# trials = 50000" in text
        assert "# agreement: PASS" in text
        data = [l for l in text.splitlines() if not l.startswith("#")]
        assert data[0] == "k,count,frequency"
        counts = [int(r.split(",")[1]) for r in data[1:]]
        assert sum(counts) == 50_000

    def test_structured_output_carries_the_compare_report(self, tmp_path):
        args = ["montecarlo", "--m", "2", "--mu", "0.1", "--e_h", "0.85",
                "--trials", "5e4", "--seed", "42", "--format", "structured"]
        plain, compared = tmp_path / "plain.json", tmp_path / "compared.json"
        assert main([*args, "-o", str(plain)]) == 0
        assert main([*args, "--compare", "-o", str(compared)]) == 0
        cfg = SourceConfig(m=2, mu=0.1, e_h=0.85)
        report = montecarlo.compare(output_distribution(cfg), simulate(cfg, McConfig(50_000, 42)))
        doc = json.loads(compared.read_text())
        assert doc.pop("compare") == {
            "tv_distance": report.tv_distance, "tv_limit": report.tv_limit,
            "max_abs_z": report.max_abs_z, "z_limit": report.z_limit,
            "tail_start": report.tail_start, "passed": True}
        # Otherwise the document is the one written without --compare.
        assert doc == json.loads(plain.read_text())

    def test_names_the_backend_on_stderr(self, tmp_path):
        # The backend that ran, and why, goes to stderr, as validate writes
        # it; stdout is the file -o writes.
        backend, reason = montecarlo.backend_choice()
        args = ["montecarlo", "--m", "2", "--mu", "0.1", "--trials", "2e4", "--seed", "42"]
        proc = run_cli(args)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [f"photonmux montecarlo: backend {backend} ({reason})"]
        assert main([*args, "-o", str(tmp_path / "mc.csv")]) == 0
        assert proc.stdout == (tmp_path / "mc.csv").read_text()
        forced = run_cli([*args, "--backend", "numpy"])
        assert forced.stderr.splitlines() == [
            "photonmux montecarlo: backend numpy (backend 'numpy' requested)"]

    def test_month_long_run_is_refused(self, capsys):
        start = time.perf_counter()
        assert main(["montecarlo", "--m", "20", "--mu", "1e-6", "--trials", "1e9",
                     "--shards", "1"]) == 1
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        backend, reason = montecarlo.backend_choice()
        lines = err.splitlines()
        assert lines[0] == f"photonmux montecarlo: backend {backend} ({reason})"
        assert json.loads(lines[-1]) == {
            "error": "ValueError", "subcommand": "montecarlo",
            "message": "the run would scan about 6.5e+14 windows, more than the limit of "
                       f"{montecarlo.MAX_TRIALS} (2^40, MAX_TRIALS trials of one window each)"}
        assert out == ""

    def test_seeded_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["montecarlo", "--mu", "0.1", "--trials", "2e4", "--seed", "7"]
        assert main([*args, "-o", str(a)]) == 0
        assert main([*args, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_workers_give_the_one_worker_rows(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["montecarlo", "--m", "3", "--mu", "0.1", "--e_h", "0.85", "--r_dark", "5e6",
                "--trials", "3e5", "--seed", "7"]
        assert main([*args, "-o", str(a)]) == 0
        assert main([*args, "--shards", "1", "-o", str(b)]) == 0
        assert "# shards = None" in a.read_text()
        assert "# shards = 1" in b.read_text()
        rows_a = a.read_text().split("k,count,frequency\n")[1]
        rows_b = b.read_text().split("k,count,frequency\n")[1]
        assert rows_a == rows_b


class TestOptimize:
    def test_structured_result(self, tmp_path):
        out = tmp_path / "opt.json"
        assert main(["optimize", "--m", "0", "--mu", "0.1", "--format", "structured",
                     "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["result"]["converged"] is True
        assert abs(doc["result"]["mu_opt"] - 1.0) < 1e-5
        assert abs(doc["result"]["p1_max"] - math.exp(-1)) < 1e-8

    def test_constrained_result(self, tmp_path):
        out = tmp_path / "opt.json"
        assert main(["optimize", "--m", "4", "--mu", "0.1", "--e_h", "0.85",
                     "--e_s", "0.9", "--e_sw_db", "0.5", "--snr-target", "50",
                     "--format", "structured", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["result"]["snr_at_opt"] >= 50 - 1e-6

    def test_vacuum_optimum(self, tmp_path):
        out = tmp_path / "opt.json"
        assert main(["optimize", "--m", "2", "--mu", "0.1", "--e_s", "0",
                     "--format", "structured", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert math.isnan(doc["result"]["mandel_q_at_opt"])
        assert doc["result"]["p1_max"] == 0.0


class TestSweep:
    def test_custom_axis(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--mu", "0.1", "--axis", "e_sw_db", "--min", "0",
                     "--max", "2", "--points", "5", "-o", str(out)]) == 0
        data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(data) == 1 + 5

    @pytest.mark.parametrize("ends", [("1", "-1"), ("-1", "1"), ("0", "1"), ("1", "nan")])
    def test_log_grid_needs_positive_ends(self, capsys, ends):
        # Rejected before np.geomspace can warn or make up a NaN point.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--mu", "0.1", "--axis", "mu", "--min", ends[0],
                         "--max", ends[1], "--points", "3", "--log"]) == 1
        out, err = capsys.readouterr()
        assert json.loads(err) == {"error": "ConfigError", "subcommand": "sweep",
                                   "message": "--log requires --min > 0 and --max > 0"}
        assert out == ""


    def test_points_below_one_is_rejected(self, capsys):
        assert main(["sweep", "--mu", "0.1", "--axis", "mu", "--min", "0.1",
                     "--max", "0.2", "--points", "0"]) == 1
        out, err = capsys.readouterr()
        assert json.loads(err) == {"error": "ConfigError", "subcommand": "sweep",
                                   "message": "--points must be >= 1"}
        assert out == ""

    def test_log_grid_is_geomspace(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--mu", "0.1", "--axis", "mu", "--min", "0.01", "--max", "0.5",
                     "--points", "7", "--log", "--format", "structured", "-o", str(out)]) == 0
        mu = SweepRecord.FIELDS.index("mu")
        rows = json.loads(out.read_text())["records"]
        assert [row[mu] for row in rows] == np.geomspace(0.01, 0.5, 7).tolist()


# The config echo that opens every tabular dist, optimize and montecarlo file
# of the configuration m = 2, mu = 0.1.
_ECHO = [f"# tool = photonmux {photonmux.__version__}"] + [
    f"# {key} = {value!r}" for key, value in sorted(SourceConfig(m=2, mu=0.1).as_dict().items())]


def _run_to_text(tmp_path, *args):
    out = tmp_path / "out"
    assert main([*args, "--m", "2", "--mu", "0.1", "-o", str(out)]) == 0
    return out.read_text()


class TestOutputLayout:
    @pytest.mark.parametrize("args,kind", [
        (["dist"], "dist"),
        (["optimize"], "optimize"),
        (["montecarlo", "--trials", "1e3"], "histogram"),
    ], ids=["dist", "optimize", "montecarlo"])
    def test_structured_records_name_their_kind(self, tmp_path, args, kind):
        doc = json.loads(_run_to_text(tmp_path, *args, "--format", "structured"))
        assert doc["format"] == f"photonmux-{kind}"
        assert doc["tool"] == f"photonmux {photonmux.__version__}"
        assert doc["config"] == SourceConfig(m=2, mu=0.1).as_dict()

    def test_optimize_result_keys_are_the_result_fields(self, tmp_path):
        keys = sorted(field.name for field in fields(OptimizationResult))
        doc = json.loads(_run_to_text(tmp_path, "optimize", "--format", "structured"))
        assert sorted(doc) == ["clock_hz", "config", "format", "result", "tool"]
        assert sorted(doc["result"]) == keys
        lines = _run_to_text(tmp_path, "optimize").splitlines()
        assert lines[:len(_ECHO)] == _ECHO
        body = lines[len(_ECHO):]
        assert body[0] == "key,value"
        assert [line.split(",")[0] for line in body[1:]] == keys

    @pytest.mark.parametrize("compare", [False, True], ids=["plain", "compare"])
    def test_montecarlo_notes_precede_the_table(self, tmp_path, compare):
        args = ["montecarlo", "--trials", "1e3", "--seed", "5"] + ["--compare"] * compare
        lines = _run_to_text(tmp_path, *args).splitlines()
        assert lines[:len(_ECHO)] == _ECHO
        notes = lines[len(_ECHO):lines.index("k,count,frequency")]
        assert [note.split(" = ")[0] for note in notes[:4]] == [
            "# trials", "# seed", "# shards", "# backend"]
        report = [note.split(" ")[1] for note in notes[4:]]
        assert report == (["tv_distance", "max", "agreement:"] if compare else [])


class TestErrors:
    def test_error_record_and_exit_status(self):
        proc = run_cli(["dist", "--mu", "-3"])
        assert proc.returncode == 1
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"
        assert "mu" in record["message"]
        assert proc.stdout == ""

    def test_negative_n_max_error_record(self, capsys):
        assert main(["dist", "--mu", "0.1", "--n-max", "-1"]) == 1
        out, err = capsys.readouterr()
        assert json.loads(err.strip().splitlines()[-1]) == {
            "error": "ValueError", "subcommand": "dist",
            "message": f"n_max must be an integer in [0, {stats.N_MAX_LIMIT}], got -1"}
        assert out == ""

    def test_n_max_above_the_limit_error_record(self, capsys):
        too_large = stats.N_MAX_LIMIT + 1
        assert main(["dist", "--mu", "0.1", "--n-max", str(too_large)]) == 1
        out, err = capsys.readouterr()
        assert json.loads(err.strip().splitlines()[-1]) == {
            "error": "ValueError", "subcommand": "dist",
            "message": f"n_max must be an integer in [0, {stats.N_MAX_LIMIT}], got {too_large}"}
        assert out == ""

    def test_truncation_error_record_names_the_pump_rate(self, capsys):
        # The searches run at the default truncation bound, so the advice
        # names the pump rate as well as n_max.
        assert main(["optimize", "--m", "0", "--mu", "0.1", "--mu-max", "40"]) == 1
        out, err = capsys.readouterr()
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "TruncationError" and record["subcommand"] == "optimize"
        assert record["message"].endswith("at mu=40.0; lower mu or increase n_max")
        assert out == ""

    @pytest.mark.parametrize("flags,message", [
        (["--mu-min", "0"], "--mu-min and --mu-max must satisfy 0 < --mu-min < --mu-max < inf, "
                            "got --mu-min 0.0 and --mu-max 2.0"),
        (["--mu-min", "0.5", "--mu-max", "0.5"], "got --mu-min 0.5 and --mu-max 0.5"),
        (["--mu-max", "inf"], "got --mu-min 0.0001 and --mu-max inf"),
        (["--mu-min", "nan"], "got --mu-min nan and --mu-max 2.0"),
        (["--tol", "0"], "--tol must be > 0, got 0.0"),
        (["--tol", "nan", "--snr-target", "5"], "--tol must be > 0, got nan"),
    ], ids=["zero-min", "empty", "infinite-max", "nan-min", "zero-tol", "nan-tol"])
    def test_optimize_range_errors_name_the_flags(self, capsys, flags, message):
        assert main(["optimize", "--m", "4", "--mu", "0.1", *flags]) == 1
        out, err = capsys.readouterr()
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError" and record["subcommand"] == "optimize"
        assert message in record["message"]
        assert out == ""

    def test_tol_below_float_spacing_error_record(self, capsys):
        # A search to such a tol would never end; it is rejected before any work.
        assert main(["optimize", "--m", "0", "--mu", "0.1", "--tol", "1e-300"]) == 1
        out, err = capsys.readouterr()
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "ValueError" and record["subcommand"] == "optimize"
        assert record["message"].startswith("tol must be >= 1.7763568394002505e-15, 4 float spacings at mu_range[1], ")
        assert record["message"].endswith("got 1e-300")
        assert out == ""

    def test_m_beyond_float_range_error_record(self, capsys):
        assert main(["dist", "--m", "100000", "--mu", "0.1"]) == 1
        out, err = capsys.readouterr()
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError" and record["subcommand"] == "dist"
        assert record["message"] == "m must be an integer in [0, 1023], got 100000"
        assert out == ""

    def test_success_has_no_error_record(self, tmp_path):
        proc = run_cli(["dist", "--mu", "0.1", "-o", str(tmp_path / "d.csv")])
        assert proc.returncode == 0
        assert proc.stderr == ""


class TestOutputDir:
    def test_outdir_env_applies_to_relative_paths(self, tmp_path):
        proc = run_cli(["dist", "--mu", "0.1", "-o", "sub/dist.csv"],
                       env_extra={"PHOTONMUX_OUTDIR": str(tmp_path)})
        assert proc.returncode == 0
        assert (tmp_path / "sub" / "dist.csv").exists()


def test_validate_rejects_fractional_trials(capsys):
    assert main(["validate", "--trials", "2.5"]) == 1
    out, err = capsys.readouterr()
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert "trials" in record["message"]
    assert out == ""


def test_validate_fast_smoke():
    # The backend that ran, and why, goes to stderr; stdout does not depend on it.
    backend, reason = montecarlo.backend_choice()
    args = ["validate", "--trials", "2e4", "--seed", "42"]
    proc = run_cli(args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "validation: PASS" in proc.stdout
    assert [line.split("] ", 1)[1].split(": ", 1)[0]
            for line in proc.stdout.splitlines()[:-1]] == [
        "clock arithmetic",
        "lossless chain = exact form",
        "single-window chain = thinned Poisson",
        "chain normalization",
        "chain = event-level reference",
        "P1 non-increasing in switch loss",
        "P1 non-decreasing in transmissions",
        "optimizer = exhaustive scan",
        "ideal mu_opt strictly decreasing over m=0..8",
        "Monte Carlo agreement (19 configs x 20000 trials)",
    ]
    assert proc.stderr.splitlines() == [f"photonmux validate: backend {backend} ({reason})"]
    forced = run_cli([*args, "--backend", "numpy"])
    assert forced.stderr.splitlines() == [
        "photonmux validate: backend numpy (backend 'numpy' requested)"]
    assert forced.stdout == proc.stdout


def test_validate_failing_check_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(validate, "check_clock",
                        lambda: validate.Check("clock arithmetic", False, "forced failure"))
    assert main(["validate", "--trials", "2e4"]) == 1
    out, _ = capsys.readouterr()
    assert "[FAIL] clock arithmetic: forced failure" in out
    assert "validation: FAIL" in out


def test_every_exported_name_resolves():
    # A name left in an __all__ after its object was removed would break
    # `from photonmux... import *`; every module's exports must exist.
    modules = [photonmux] + [importlib.import_module(info.name) for info in
                             pkgutil.walk_packages(photonmux.__path__, "photonmux.")]
    exporting = {module.__name__: module for module in modules if hasattr(module, "__all__")}
    assert {"photonmux", "photonmux.losses", "photonmux.sweeps", "photonmux.optimize",
            "photonmux.montecarlo", "photonmux.stats"} <= set(exporting)
    missing = [f"{name}.{attr}" for name, module in exporting.items()
               for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"names in __all__ that do not resolve: {missing}"


def test_parser_choices_are_the_backends_and_figures():
    # The parser spells them out, so that building it imports neither module.
    from photonmux import cli, sweeps

    sub = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
    choices = {name: {a.dest: a.choices for a in parser._actions if a.choices}
               for name, parser in sub.choices.items()}
    assert tuple(choices["figure"]["id"]) == tuple(sweeps.FIGURES)
    assert tuple(choices["montecarlo"]["backend"]) == montecarlo.BACKENDS
    assert tuple(choices["validate"]["backend"]) == montecarlo.BACKENDS


# The environment variables the package may read.  Options and keyword
# arguments select everything else, so a new variable fails here.
_ENVIRONMENT = {"SOURCE_DATE_EPOCH", "PHOTONMUX_OUTDIR", "XDG_CACHE_HOME"}


def _environment_reads(path):
    """The names of the environment variables the module at ``path`` reads,
    and the place of each read whose name is not a string constant."""
    tree = ast.parse(path.read_text(), str(path))
    constants = {target.id: node.value.value for node in tree.body
                 if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                 for target in node.targets if isinstance(target, ast.Name)}
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    names, unresolved = set(), []
    for node in ast.walk(tree):
        attr = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if attr not in ("environ", "environb", "getenv", "getenvb"):
            continue
        use, key = parents[node], None
        if attr.startswith("getenv") and isinstance(use, ast.Call) and use.args:
            key = use.args[0]
        elif isinstance(use, ast.Subscript):
            key = use.slice
        elif isinstance(use, ast.Attribute) and isinstance(parents[use], ast.Call) \
                and parents[use].args:  # os.environ.get(key) and the like
            key = parents[use].args[0]
        if isinstance(key, ast.Name):
            key = ast.Constant(constants.get(key.id))
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            names.add(key.value)
        else:
            unresolved.append(f"{path.name}:{node.lineno}")
    return names, unresolved


def test_reads_only_the_known_environment_variables():
    names, unresolved = set(), []
    for path in sorted(Path(photonmux.__file__).parent.rglob("*.py")):
        found, unknown = _environment_reads(path)
        names |= found
        unresolved += unknown
    assert not unresolved, f"environment reads whose variable is not a constant: {unresolved}"
    assert names == _ENVIRONMENT
