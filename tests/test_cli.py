import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import photonmux
from photonmux import SourceConfig, ideal_distribution, montecarlo, stats, validate
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
        want = ideal_distribution(SourceConfig.lossless(m=3, mu=0.05))
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


class TestFigure:
    def test_fig2_has_eleven_rows(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["figure", "--id", "fig2", "-o", str(out)]) == 0
        data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(data) == 1 + 11  # header plus one record per stage count


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
            "error": "ValueError", "message": "n_max must be >= 0, got -1", "subcommand": "dist"}
        assert out == ""

    def test_n_max_above_the_limit_error_record(self, capsys):
        too_large = stats.N_MAX_LIMIT + 1
        assert main(["dist", "--mu", "0.1", "--n-max", str(too_large)]) == 1
        out, err = capsys.readouterr()
        assert json.loads(err.strip().splitlines()[-1]) == {
            "error": "ValueError", "subcommand": "dist",
            "message": f"n_max must be <= {stats.N_MAX_LIMIT}, got {too_large}"}
        assert out == ""

    def test_m_beyond_float_range_error_record(self, capsys):
        assert main(["dist", "--m", "100000", "--mu", "0.1"]) == 1
        out, err = capsys.readouterr()
        record = json.loads(err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError" and record["subcommand"] == "dist"
        assert record["message"].startswith("m must be an integer >= 0")
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


def test_validate_fast_smoke(monkeypatch):
    # The backend that ran, and why, goes to stderr; stdout does not depend on it.
    monkeypatch.delenv("PHOTONMUX_BACKEND", raising=False)
    backend, reason = montecarlo.backend_choice()
    args = ["validate", "--trials", "2e4", "--seed", "42"]
    proc = run_cli(args, env_extra={"PHOTONMUX_BACKEND": ""})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "validation: PASS" in proc.stdout
    assert proc.stderr.splitlines() == [f"photonmux validate: backend {backend} ({reason})"]
    forced = run_cli(args, env_extra={"PHOTONMUX_BACKEND": "numpy"})
    assert forced.stderr.splitlines() == [
        "photonmux validate: backend numpy (PHOTONMUX_BACKEND=numpy)"]
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
