"""Parameter sweeps producing plot-ready tables for the headline figures.

Each generator returns a :class:`SweepTable` whose records are computed by
direct calls into the loss chain and the optimizer, so table contents are
bit-identical to what those calls return.  Tables serialize to CSV (one
header row, '.' decimal separator) and to a self-describing JSON document
carrying metadata; both are byte-stable for fixed inputs and tool version.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from ._version import __version__
from .config import SourceConfig
from .losses import _output_rows, output_distribution
# optimize_mu and max_p1_with_snr_floor stay module attributes: perfbench's
# traced pass wraps them by name.
from .optimize import (  # noqa: F401
    DEFAULT_MU_RANGE,
    max_p1_with_snr_floor,
    max_p1_with_snr_floor_batch,
    optimize_mu,
    optimize_mu_batch,
)
from .stats import DEFAULT_N_MAX, PhotonDistribution, check_rows, mandel_q_or_nan, snr_rows

__all__ = [
    "SweepRecord",
    "SweepTable",
    "ClockReport",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "clock_report",
    "sweep_axis",
    "gnuplot_commands",
]

DEFAULT_MU_GRID = np.geomspace(1e-3, 2.0, 200)
DEFAULT_IL_GRID = np.linspace(0.0, 2.0, 50)
DEFAULT_SNR_TARGETS = (5.0, 10.0, 20.0, 50.0, 100.0, 200.0)
FIGURE_IDS = ("fig2", "fig3", "fig4", "fig5", "custom")


@dataclass(frozen=True)
class SweepRecord:
    """One parameter point with its configuration echo and outputs."""

    m: int
    delta_t0_ns: float
    mu: float
    e_h: float
    e_s: float
    e_sw_db: float
    r_dark: float
    mu_total: float
    e_s_total: float
    clock_freq_hz: float
    p0: float
    p1: float
    p_ge2: float
    snr: float
    mandel_q: float
    mu_opt: Optional[float] = None
    snr_target: Optional[float] = None

    FIELDS = (
        "m", "delta_t0_ns", "mu", "e_h", "e_s", "e_sw_db", "r_dark",
        "mu_total", "e_s_total", "clock_freq_hz",
        "p0", "p1", "p_ge2", "snr", "mandel_q", "mu_opt", "snr_target",
    )

    def row(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELDS)


# SweepRecord fields that echo the SourceConfig attribute of the same name.
_CONFIG_ECHO = ("m", "delta_t0_ns", "mu", "e_h", "e_s", "e_sw_db", "r_dark", "mu_total", "e_s_total")


def record_for(cfg: SourceConfig, n_max: int = DEFAULT_N_MAX) -> SweepRecord:
    """Evaluate the full loss chain at one configuration."""
    return _record_of(output_distribution(cfg, n_max))


def _record_of(dist: PhotonDistribution, mu_opt: Optional[float] = None,
               snr_target: Optional[float] = None) -> SweepRecord:
    """The record of one output distribution of the loss chain, whose
    ``meta["config"]`` is the configuration it echoes."""
    return _records([dist.meta["config"]], dist.probs[None], np.array([dist.tail_mass]),
                    mu_opt, snr_target)[0]


def _curve(template: SourceConfig, axis: str, values: Iterable[float], n_max: int) -> list:
    """Records along ``axis`` (``mu`` or ``e_sw_db``) from one call into the
    loss-chain core; the rows pass the checks a PhotonDistribution applies,
    and each becomes a record as :func:`record_for` makes one."""
    cfgs = [template.replace(**{axis: float(value)}) for value in values]
    probs, tail = _output_rows(np.array([cfg.mu for cfg in cfgs]),
                               np.array([cfg.e_s_total for cfg in cfgs]),
                               template.e_h, template.n_windows, template.p_dark, n_max)
    check_rows(probs, tail, n_max)
    return _records(cfgs, probs, tail)


def _records(cfgs: Sequence[SourceConfig], probs: np.ndarray, tail: np.ndarray,
             mu_opt: Optional[float] = None, snr_target: Optional[float] = None) -> list:
    """One record per configuration from its output row and tail mass.

    P_>=2 and the SNR come from :func:`snr_rows` and Q from
    :func:`mandel_q_or_nan`, so each value equals what :func:`snr` and
    :func:`mandel_q` return for the row, and Q is NaN for the vacuum.
    """
    p_multi, ratio = snr_rows(probs, tail)
    records = []
    for cfg, row, p0, p1, p_ge2, row_snr in zip(cfgs, probs, probs[:, 0].tolist(),
                                                probs[:, 1].tolist(), p_multi.tolist(),
                                                ratio.tolist()):
        records.append(SweepRecord(
            **{name: getattr(cfg, name) for name in _CONFIG_ECHO},
            clock_freq_hz=cfg.clock_hz,
            p0=p0,
            p1=p1,
            p_ge2=p_ge2,
            snr=row_snr,
            mandel_q=mandel_q_or_nan(row),
            mu_opt=mu_opt,
            snr_target=snr_target,
        ))
    return records


@dataclass(frozen=True)
class SweepTable:
    """Ordered collection of sweep records plus reproducibility metadata."""

    figure_id: str
    records: Tuple[SweepRecord, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.figure_id not in FIGURE_IDS:
            raise ValueError(f"figure_id must be one of {FIGURE_IDS}, got {self.figure_id!r}")
        if not self.records:
            raise ValueError("a sweep table must contain at least one record")
        object.__setattr__(self, "records", tuple(self.records))
        meta = {"tool": "photonmux", "version": __version__}
        meta.update(self.metadata)
        stamp = os.environ.get("SOURCE_DATE_EPOCH")
        if stamp is not None:
            meta.setdefault("created_epoch", int(stamp))
        object.__setattr__(self, "metadata", meta)

    # -- serialization -----------------------------------------------------

    def to_csv(self) -> str:
        lines = [f"# {key} = {self.metadata[key]}" for key in sorted(self.metadata)]
        lines.insert(0, f"# figure_id = {self.figure_id}")
        lines.append(",".join(SweepRecord.FIELDS))
        for record in self.records:
            lines.append(",".join(_format_cell(v) for v in record.row()))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "format": "photonmux-table",
            "figure_id": self.figure_id,
            "metadata": self.metadata,
            "columns": list(SweepRecord.FIELDS),
            "records": [list(record.row()) for record in self.records],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SweepTable":
        doc = json.loads(text)
        if doc.get("format") != "photonmux-table":
            raise ValueError("not a photonmux table document")
        if doc["columns"] != list(SweepRecord.FIELDS):
            raise ValueError("column layout mismatch")
        records = tuple(SweepRecord(**dict(zip(SweepRecord.FIELDS, row))) for row in doc["records"])
        meta = {k: v for k, v in doc["metadata"].items() if k not in ("tool", "version")}
        return cls(doc["figure_id"], records, meta)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _input_hash(**inputs) -> str:
    blob = json.dumps(inputs, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# -- figure reproductions ---------------------------------------------------


def figure2(
    m_values: Iterable[int] = range(0, 11),
    n_max: int = DEFAULT_N_MAX,
    mu_range: Tuple[float, float] = DEFAULT_MU_RANGE,
) -> SweepTable:
    """Lossless emission probabilities and Mandel Q at the per-m optimum.

    For each stage count the pump rate is tuned to maximize the single-photon
    probability, all stage counts' searches in lockstep; the record carries
    P0, P1, P>=2 and Q at that optimum.
    """
    m_values = list(m_values)
    results = optimize_mu_batch([SourceConfig.lossless(m=m, mu=mu_range[0]) for m in m_values],
                                mu_range=mu_range, n_max=n_max)
    records = [_record_of(result.distribution, mu_opt=result.mu_opt) for result in results]
    meta = {"config_hash": _input_hash(fig="fig2", m_values=m_values, n_max=n_max)}
    return SweepTable("fig2", tuple(records), meta)


def figure3(
    m_values: Iterable[int] = range(0, 6),
    mu_grid: Optional[Sequence[float]] = None,
    il_db_values: Sequence[float] = (0.5, 1.0),
    e_h: float = 0.85,
    e_s: float = 0.9,
    n_max: int = DEFAULT_N_MAX,
) -> SweepTable:
    """Single-photon probability versus pump rate for each (stages, IL)."""
    grid = DEFAULT_MU_GRID if mu_grid is None else np.asarray(mu_grid, dtype=float)
    m_values = list(m_values)
    records = []
    for il in il_db_values:
        for m in m_values:
            template = SourceConfig(m=m, mu=0.0, e_h=e_h, e_s=e_s, e_sw_db=float(il))
            records += _curve(template, "mu", grid, n_max)
    meta = {"config_hash": _input_hash(
        fig="fig3", m_values=m_values, mu_grid=[float(v) for v in grid],
        il_db_values=list(il_db_values), e_h=e_h, e_s=e_s, n_max=n_max)}
    return SweepTable("fig3", tuple(records), meta)


def figure4(
    mu_values: Sequence[float] = (0.1, 0.2),
    il_grid: Optional[Sequence[float]] = None,
    m_values: Iterable[int] = range(0, 6),
    e_h: float = 0.85,
    e_s: float = 0.9,
    n_max: int = DEFAULT_N_MAX,
) -> SweepTable:
    """Single-photon probability versus switch insertion loss."""
    grid = DEFAULT_IL_GRID if il_grid is None else np.asarray(il_grid, dtype=float)
    m_values = list(m_values)
    records = []
    for mu in mu_values:
        for m in m_values:
            template = SourceConfig(m=m, mu=float(mu), e_h=e_h, e_s=e_s)
            records += _curve(template, "e_sw_db", grid, n_max)
    meta = {"config_hash": _input_hash(
        fig="fig4", mu_values=list(mu_values), il_grid=[float(v) for v in grid],
        m_values=m_values, e_h=e_h, e_s=e_s, n_max=n_max)}
    return SweepTable("fig4", tuple(records), meta)


def figure5(
    snr_targets: Sequence[float] = DEFAULT_SNR_TARGETS,
    m_values: Iterable[int] = range(0, 6),
    il_db_values: Sequence[float] = (0.5, 1.0),
    e_h: float = 0.85,
    e_s: float = 0.9,
    n_max: int = DEFAULT_N_MAX,
    mu_range: Tuple[float, float] = DEFAULT_MU_RANGE,
) -> SweepTable:
    """Maximum single-photon probability under an SNR floor.

    The searches of every (IL, stages, target) case run in lockstep.
    Infeasible (target, stages, IL) combinations produce records with NaN
    outputs and the mu field set to NaN.
    """
    m_values = list(m_values)
    templates = [SourceConfig(m=m, mu=mu_range[0], e_h=e_h, e_s=e_s, e_sw_db=float(il))
                 for il in il_db_values for m in m_values]
    cases = [(template, float(target)) for template in templates for target in snr_targets]
    results = max_p1_with_snr_floor_batch(cases, mu_range, n_max=n_max)
    records = []
    for (template, target), result in zip(cases, results):
        if result.feasible:
            records.append(_record_of(result.distribution, result.mu_opt, result.snr_target))
        else:
            records.append(SweepRecord(
                m=template.m, delta_t0_ns=template.delta_t0_ns, mu=math.nan,
                e_h=e_h, e_s=e_s, e_sw_db=template.e_sw_db, r_dark=0.0,
                mu_total=math.nan, e_s_total=template.e_s_total,
                clock_freq_hz=template.clock_hz,
                p0=math.nan, p1=math.nan, p_ge2=math.nan,
                snr=math.nan, mandel_q=math.nan,
                mu_opt=math.nan, snr_target=target,
            ))
    meta = {"config_hash": _input_hash(
        fig="fig5", snr_targets=list(snr_targets), m_values=m_values,
        il_db_values=list(il_db_values), e_h=e_h, e_s=e_s, n_max=n_max)}
    return SweepTable("fig5", tuple(records), meta)


def sweep_axis(
    base: SourceConfig,
    axis: str,
    values: Sequence[float],
    n_max: int = DEFAULT_N_MAX,
) -> SweepTable:
    """Custom one-axis sweep of ``mu`` or ``e_sw_db`` around a base config."""
    if axis not in ("mu", "e_sw_db"):
        raise ValueError(f"axis must be 'mu' or 'e_sw_db', got {axis!r}")
    records = _curve(base, axis, values, n_max)
    meta = {"config_hash": _input_hash(
        fig="custom", axis=axis, values=[float(v) for v in values],
        base=base.as_dict(), n_max=n_max)}
    return SweepTable("custom", tuple(records), meta)


# -- clock arithmetic --------------------------------------------------------


@dataclass(frozen=True)
class ClockReport:
    period_ns: float
    frequency_hz: float


def clock_report(cfg: SourceConfig) -> ClockReport:
    """Synchronization clock period 2**m * delta_t0 and its frequency."""
    return ClockReport(period_ns=cfg.period_ns, frequency_hz=cfg.clock_hz)


# -- plotting convenience ----------------------------------------------------


def gnuplot_commands(table: SweepTable, data_path: str, x: str = "mu", y: str = "p1",
                     group_by: str = "m") -> str:
    """Emit a gnuplot script plotting one table column against another.

    Purely a convenience for quick looks at sweep output; the CSV itself is
    the product.
    """
    cols = {name: i + 1 for i, name in enumerate(SweepRecord.FIELDS)}
    for name in (x, y, group_by):
        if name not in cols:
            raise ValueError(f"unknown column {name!r}")
    groups = sorted({getattr(r, group_by) for r in table.records})
    plots = ", ".join(
        f"'{data_path}' using {cols[x]}:((${cols[group_by]} == {g}) ? ${cols[y]} : 1/0) "
        f"with lines title '{group_by}={g}'"
        for g in groups
    )
    return "\n".join([
        "set datafile separator ','",
        "set datafile commentschars '#'",
        f"set xlabel '{x}'",
        f"set ylabel '{y}'",
        f"plot {plots}",
    ]) + "\n"
