"""Command-line interface.

Subcommands: ``dist`` (output distribution), ``optimize`` (pump tuning),
``sweep`` (custom one-axis sweep), ``figure`` (named figure tables),
``montecarlo`` (event-level simulation), ``validate`` (invariant and
agreement suite).  Source parameters come from a line-oriented
``key = value`` config file and/or per-key flags; flags win.  ``dist``,
``optimize`` and ``montecarlo`` write their results through one writer,
:func:`_write_result`; ``sweep`` and ``figure`` write their tables' own CSV
or JSON.  All file output is written atomically and carries a config echo,
so identical inputs produce byte-identical files.  A subcommand imports the
modules it needs when it is dispatched, so ``dist`` loads no optimizer,
sweep, Monte Carlo or validation code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Dict, Iterable, Optional

import numpy as np

from ._version import __version__
from .config import SourceConfig
from .losses import output_distribution
from .stats import DEFAULT_N_MAX

__all__ = ["main", "parse_source_config", "ConfigError"]

OUTDIR_ENV = "PHOTONMUX_OUTDIR"

# The choices of --backend and --id: montecarlo.BACKENDS and the keys of
# sweeps.FIGURES, written out so that building the parser imports neither.
_BACKEND_CHOICES = ("c", "numpy")
_FIGURE_CHOICES = ("fig2", "fig3", "fig4", "fig5")

# int for the fields annotated "int" (config's annotations are strings), float
# for the rest.
_KEY_TYPES = {f.name: int if f.type == "int" else float for f in dataclasses.fields(SourceConfig)}


class ConfigError(ValueError):
    """Configuration file or override rejected; message carries key and line."""


def parse_config_text(text: str, source: str = "<config>") -> Dict[str, float]:
    """Parse ``key = value`` lines; '#' starts a comment."""
    values: Dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _KEY_TYPES[key](value)
        except ValueError:
            raise ConfigError(
                f"{source}:{lineno}: value for {key!r} is not a number: {value!r}") from None
    return values


def parse_source_config(path: Optional[str], overrides: Dict[str, float]) -> SourceConfig:
    """Build and validate a SourceConfig from a file plus flag overrides."""
    values: Dict[str, float] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
        values.update(parse_config_text(text, source=path))
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return SourceConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _add_source_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="key = value config file")
    for key, kind in _KEY_TYPES.items():
        parser.add_argument(f"--{key}", type=kind, default=None,
                            help=f"override {key} (see config docs)")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-o", "--output", metavar="PATH",
                        help=f"output file (default stdout); relative paths land in ${OUTDIR_ENV} when set")
    parser.add_argument("--format", choices=("tabular", "structured"), default="tabular",
                        help="delimiter-separated text or self-describing JSON")


def _add_simulation_flags(parser: argparse.ArgumentParser, seed: int) -> None:
    parser.add_argument("--trials", type=float, default=1e6)
    parser.add_argument("--seed", type=int, default=seed)
    parser.add_argument("--shards", type=int, default=None,
                        help="most drain loops to run, one of them on the calling thread "
                             "(default and at most one per available CPU); never changes "
                             "the histogram")
    parser.add_argument("--backend", choices=_BACKEND_CHOICES, default=None,
                        help="simulator backend (default the C kernel, numpy where it "
                             "cannot be built); never changes the histogram")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonmux",
        description="Photon statistics of a temporally multiplexed heralded single-photon source",
    )
    parser.add_argument("--version", action="version", version=f"photonmux {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_dist = sub.add_parser("dist", help="end-to-end photon-number distribution")
    _add_source_flags(p_dist)
    _add_output_flags(p_dist)
    p_dist.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)

    p_opt = sub.add_parser("optimize", help="pump rate maximizing the single-photon probability")
    _add_source_flags(p_opt)
    _add_output_flags(p_opt)
    p_opt.add_argument("--mu-min", type=float, default=1e-4)
    p_opt.add_argument("--mu-max", type=float, default=2.0)
    p_opt.add_argument("--tol", type=float, default=1e-6)
    p_opt.add_argument("--snr-target", type=float, default=None,
                       help="maximize P1 subject to SNR >= target")

    p_sweep = sub.add_parser("sweep", help="one-axis sweep around the base configuration")
    _add_source_flags(p_sweep)
    _add_output_flags(p_sweep)
    p_sweep.add_argument("--axis", choices=("mu", "e_sw_db"), required=True)
    p_sweep.add_argument("--min", type=float, required=True)
    p_sweep.add_argument("--max", type=float, required=True)
    p_sweep.add_argument("--points", type=int, default=50)
    p_sweep.add_argument("--log", action="store_true", help="log-spaced grid")

    p_fig = sub.add_parser("figure", help="reproduce a named figure as a data table")
    _add_output_flags(p_fig)
    p_fig.add_argument("--id", choices=_FIGURE_CHOICES, required=True)
    p_fig.add_argument("--gnuplot", metavar="PATH",
                       help="also emit a gnuplot script next to the table")

    p_mc = sub.add_parser("montecarlo", help="event-level simulation histogram")
    _add_source_flags(p_mc)
    _add_output_flags(p_mc)
    _add_simulation_flags(p_mc, seed=0)
    p_mc.add_argument("--compare", action="store_true",
                      help="append agreement report against the analytic distribution")

    p_val = sub.add_parser("validate", help="run the invariant and MC agreement suite")
    _add_simulation_flags(p_val, seed=42)

    return parser


def _resolve_output(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to a new file beside ``path`` and rename it into place.
    The file is created with mode 0666, so it gets what the umask leaves of
    that, as any new file does."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".photonmux-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _write_atomic(path, text)


def _write_result(format: str, path: Optional[str], kind: str, cfg: SourceConfig, fields: dict,
                  table: Iterable[str], notes: Iterable[str] = ()) -> None:
    """Write one subcommand result with its config echo.

    Structured output is the JSON record ``{"format": "photonmux-<kind>",
    "tool", "config", **fields}``.  Tabular output is the config echo as
    ``# key = value`` lines, then each of ``notes`` as a ``# `` comment line,
    then the ``table`` lines.
    """
    tool = f"photonmux {__version__}"
    if format == "structured":
        doc = {"format": f"photonmux-{kind}", "tool": tool, "config": cfg.as_dict(), **fields}
        _emit(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", path)
        return
    lines = [f"# tool = {tool}"]
    lines += [f"# {key} = {value!r}" for key, value in sorted(cfg.as_dict().items())]
    lines += [f"# {note}" for note in notes]
    _emit("\n".join([*lines, *table]) + "\n", path)


def run(ns: argparse.Namespace) -> int:
    """Dispatch one parsed invocation; returns the process exit status."""
    if ns.subcommand == "validate":
        from .montecarlo import McConfig, backend_choice
        from .validate import run_validation

        mc = McConfig(trials=ns.trials, seed=ns.seed, shards=ns.shards)
        backend, reason = backend_choice(ns.backend)
        print(f"photonmux validate: backend {backend} ({reason})", file=sys.stderr)
        report = run_validation(mc, backend)
        for line in report.lines():
            print(line)
        return 0 if report.passed else 1

    if ns.subcommand == "figure":
        if ns.gnuplot and ns.output is None:
            raise ConfigError("--gnuplot needs -o/--output: the script plots the table file")
        if ns.gnuplot and ns.format == "structured":
            raise ConfigError("--gnuplot cannot go with --format structured: "
                              "the script plots a CSV table")
        path, script_path = _resolve_output(ns.output), _resolve_output(ns.gnuplot)
        if ns.gnuplot and os.path.realpath(script_path) == os.path.realpath(path):
            raise ConfigError("--gnuplot and -o/--output name the same file: "
                              "the script would overwrite the table")
        from .sweeps import FIGURES, gnuplot_commands

        build, x = FIGURES[ns.id]
        table = build()
        _emit(table.to_csv() if ns.format == "tabular" else table.to_json(), path)
        if ns.gnuplot:
            _write_atomic(script_path, gnuplot_commands(table, path, x=x))
        return 0

    cfg = parse_source_config(ns.config, {key: getattr(ns, key) for key in _KEY_TYPES})
    path = _resolve_output(ns.output)

    if ns.subcommand == "dist":
        dist = output_distribution(cfg, ns.n_max)
        fields = {"n_max": dist.n_max, "tail_mass": dist.tail_mass, "probs": dist.probs.tolist()}
        _write_result(ns.format, path, "dist", cfg, fields,
                      ["n,probability", *(f"{n},{p!r}" for n, p in enumerate(fields["probs"]))])
        return 0

    if ns.subcommand == "optimize":
        from .optimize import max_p1_with_snr_floor, optimize_mu

        if not 0 < ns.mu_min < ns.mu_max < math.inf:
            raise ConfigError("--mu-min and --mu-max must satisfy 0 < --mu-min < --mu-max < inf, "
                              f"got --mu-min {ns.mu_min!r} and --mu-max {ns.mu_max!r}")
        if not ns.tol > 0:
            raise ConfigError(f"--tol must be > 0, got {ns.tol!r}")
        if ns.snr_target is None:
            result = optimize_mu(cfg, (ns.mu_min, ns.mu_max), ns.tol)
        else:
            result = max_p1_with_snr_floor(cfg, ns.snr_target, (ns.mu_min, ns.mu_max), ns.tol)
        values = dataclasses.asdict(result)
        fields = {"clock_hz": cfg.clock_hz, "result": values}
        _write_result(ns.format, path, "optimize", cfg, fields,
                      ["key,value", *(f"{k},{v!r}" for k, v in sorted(values.items()))])
        return 0

    if ns.subcommand == "sweep":
        from .sweeps import sweep_axis

        if ns.points < 1:
            raise ConfigError("--points must be >= 1")
        if ns.log:
            if not (ns.min > 0 and ns.max > 0):
                raise ConfigError("--log requires --min > 0 and --max > 0")
            values = np.geomspace(ns.min, ns.max, ns.points)
        else:
            values = np.linspace(ns.min, ns.max, ns.points)
        table = sweep_axis(cfg, ns.axis, values)
        _emit(table.to_csv() if ns.format == "tabular" else table.to_json(), path)
        return 0

    if ns.subcommand == "montecarlo":
        from .montecarlo import McConfig, compare, simulate

        mc = McConfig(trials=ns.trials, seed=ns.seed, shards=ns.shards)
        hist = simulate(cfg, mc, backend=ns.backend)
        fields = {"trials": hist.trials, "seed": mc.seed, "shards": mc.shards,
                  "backend": hist.backend}
        notes = [f"{key} = {value}" for key, value in fields.items()]
        fields["counts"] = hist.counts.tolist()
        if ns.compare:
            report = compare(output_distribution(cfg), hist)
            notes += report.lines()
            fields["compare"] = dataclasses.asdict(report)
            del fields["compare"]["z_scores"]
        _write_result(ns.format, path, "histogram", cfg, fields,
                      ["k,count,frequency", *(f"{k},{c},{f!r}" for k, c, f in hist.rows())], notes)
        return 1 if ns.compare and not report.passed else 0

    raise ConfigError(f"unknown subcommand {ns.subcommand!r}")


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return run(ns)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001 - single CLI error funnel
        record = {"error": type(exc).__name__, "message": str(exc), "subcommand": ns.subcommand}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
