"""Parameter sweeps producing plot-ready tables for the headline figures.

Each generator returns a :class:`SweepTable` whose records are computed by
direct calls into the loss chain and the optimizer, so table contents are
bit-identical to what those calls return.  A table holds its records as
columns, one tuple per :attr:`SweepRecord.FIELDS` entry.  ``figure3``,
``figure4`` and ``sweep_axis`` build a curve's columns from the loss-chain
core, run on blocks of rows, without a configuration per point
(:func:`_curve`); ``figure2`` and ``figure5`` build theirs from the
optimizer's distributions at the optima.  Tables serialize to CSV (one
header row, '.' decimal separator) and to a self-describing JSON document
carrying metadata, formatted column by column; both are byte-stable for
fixed inputs and tool version, and equal to what formatting one record at a
time gives.  ``figure3()`` plus ``to_csv()`` takes about a third of the time
it took with a configuration and a record per point (README, "Loss chain").
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import operator
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from ._version import __version__
from .config import SourceConfig, signal_transmission
from .losses import _blocks, output_distribution
# optimize_mu and max_p1_with_snr_floor stay module attributes: perfbench's
# traced pass wraps them by name.
from .optimize import (  # noqa: F401
    DEFAULT_MU_RANGE,
    max_p1_with_snr_floor,
    max_p1_with_snr_floor_batch,
    optimize_mu,
    optimize_mu_batch,
)
from .stats import DEFAULT_N_MAX, check_rows, mandel_q_or_nan, p1_rows, snr_rows

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


# The SourceConfig attributes echoed by the first ten SweepRecord fields.
_ECHO = ("m", "delta_t0_ns", "mu", "e_h", "e_s", "e_sw_db", "r_dark", "mu_total", "e_s_total",
         "clock_hz")


def record_for(cfg: SourceConfig, n_max: int = DEFAULT_N_MAX) -> SweepRecord:
    """Evaluate the full loss chain at one configuration."""
    dist = output_distribution(cfg, n_max)
    merits = _merits(dist.probs[None], np.array([dist.tail_mass]))
    return SweepRecord(*[getattr(cfg, name) for name in _ECHO], *[column[0] for column in merits])


def _merits(probs: np.ndarray, tail: np.ndarray) -> list:
    """The p0, p1, p_ge2, snr and mandel_q columns of output rows ``probs``
    with tail masses ``tail``, as lists of floats.

    P_>=2 and the SNR come from :func:`snr_rows` and Q from
    :func:`mandel_q_or_nan`, one row at a time, so each value equals what
    :func:`snr` and :func:`mandel_q` return for the row, and Q is NaN for the
    vacuum.  A NaN row gives NaN in every column.
    """
    p_multi, ratio = snr_rows(probs, tail)
    return [probs[:, 0].tolist(), p1_rows(probs).tolist(), p_multi.tolist(), ratio.tolist(),
            [mandel_q_or_nan(row) for row in probs]]


def _curve(template: SourceConfig, axis: str, values: Iterable[float], n_max: int) -> list:
    """The columns of the records along ``axis`` (``mu`` or ``e_sw_db``),
    each record as :func:`record_for` makes it at ``template.replace(**{axis:
    value})``, without building those configurations.

    A bad axis value raises what that replace raises for the first one.  The
    rows come from the blocks of :func:`losses._blocks`, and only the record
    columns are kept, so memory beyond them stays bounded.  The rows pass the
    checks a PhotonDistribution applies; TruncationError, naming the worst mu
    over all rows, is raised before any other check fails, and then the first
    failing row raises.
    """
    x = np.fromiter(map(float, values), float)
    bad = ~((x >= 0) & (x < math.inf))
    if bad.any():
        template.replace(**{axis: float(x[bad.argmax()])})  # raises SourceConfig's error
    rows = x.size
    xs = x.tolist()
    echo = {name: [getattr(template, name)] * rows for name in _ECHO}
    echo[axis] = xs
    if axis == "mu":
        windows = template.n_windows
        echo["mu_total"] = [windows * mu for mu in xs]
        mu = x
    else:
        echo["e_s_total"] = [signal_transmission(template.e_s, il, template.m) for il in xs]
        mu = np.full(rows, template.mu, dtype=float)
    transmission = np.array(echo["e_s_total"], dtype=float)
    merits = [[] for _ in range(5)]
    fault = None
    for _, probs, tail in _blocks(mu, transmission, template.e_h, template.n_windows,
                                  template.p_dark, n_max):
        if fault is not None:
            continue  # raised once _blocks has checked every row's truncation
        try:
            check_rows(probs, tail, n_max)
        except ValueError as error:
            fault = error
            continue
        for column, part in zip(merits, _merits(probs, tail)):
            column += part
    if fault is not None:
        raise fault
    return [*(echo[name] for name in _ECHO), *merits, [None] * rows, [None] * rows]


def _optimum_columns(templates: Sequence[SourceConfig], results: Sequence, n_max: int) -> list:
    """The columns of one record per optimizer result: the configuration and
    output of the loss chain at the optimum, or, where the result is
    infeasible, the template's echo with NaN pump rate and outputs."""
    echo, probs, tail = [], [], []
    for template, result in zip(templates, results):
        if result.feasible:
            dist = result.distribution
            echo.append([getattr(dist.meta["config"], name) for name in _ECHO])
            probs.append(dist.probs)
            tail.append(dist.tail_mass)
        else:
            row = [getattr(template, name) for name in _ECHO]
            row[_ECHO.index("mu")] = row[_ECHO.index("mu_total")] = math.nan
            echo.append(row)
            probs.append(np.full(n_max + 1, math.nan))
            tail.append(math.nan)
    return [*map(list, zip(*echo)), *_merits(np.array(probs), np.array(tail)),
            [result.mu_opt for result in results], [result.snr_target for result in results]]


def _joined(curves: Iterable[list]) -> list:
    """The columns of several curves' records, one curve after another."""
    return [list(itertools.chain.from_iterable(parts)) for parts in zip(*curves)]


@dataclass(frozen=True, init=False)
class SweepTable:
    """Ordered sweep records plus reproducibility metadata.

    The table holds its records as ``columns``, one tuple per
    :attr:`SweepRecord.FIELDS` entry, and builds the :class:`SweepRecord`
    tuple ``records`` on first use.  It serializes column by column: each
    column is formatted a block of rows at a time, a block of one repeated
    value once, and the rows are joined from the formatted columns.
    """

    figure_id: str
    columns: Tuple[tuple, ...]
    metadata: dict

    def __init__(self, figure_id: str, records: Iterable[SweepRecord],
                 metadata: Optional[dict] = None) -> None:
        records = tuple(records)
        self._fill(figure_id, zip(*(record.row() for record in records)), metadata)
        self.__dict__["records"] = records

    @classmethod
    def _from_columns(cls, figure_id: str, columns: Iterable[Sequence],
                      metadata: Optional[dict] = None) -> "SweepTable":
        table = cls.__new__(cls)
        table._fill(figure_id, columns, metadata)
        return table

    def _fill(self, figure_id: str, columns: Iterable[Sequence], metadata: Optional[dict]) -> None:
        if figure_id not in FIGURE_IDS:
            raise ValueError(f"figure_id must be one of {FIGURE_IDS}, got {figure_id!r}")
        columns = tuple(map(tuple, columns))
        if not columns or not columns[0]:
            raise ValueError("a sweep table must contain at least one record")
        meta = {"tool": "photonmux", "version": __version__}
        meta.update(metadata or {})
        stamp = os.environ.get("SOURCE_DATE_EPOCH")
        if stamp is not None:
            meta.setdefault("created_epoch", int(stamp))
        object.__setattr__(self, "figure_id", figure_id)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "metadata", meta)

    @functools.cached_property
    def records(self) -> Tuple[SweepRecord, ...]:
        return tuple(SweepRecord(*row) for row in zip(*self.columns))

    # -- serialization -----------------------------------------------------

    def to_csv(self) -> str:
        lines = [f"# figure_id = {self.figure_id}"]
        lines += [f"# {key} = {self.metadata[key]}" for key in sorted(self.metadata)]
        lines.append(",".join(SweepRecord.FIELDS))
        lines += _text_rows(self.columns, _csv_cells)
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        head = json.dumps({
            "format": "photonmux-table",
            "figure_id": self.figure_id,
            "metadata": self.metadata,
            "columns": list(SweepRecord.FIELDS),
        }, **_JSON)
        rows = ",".join(f"[{row}]" for row in _text_rows(self.columns, _json_cells))
        # "records" sorts after every other key of the document.
        return f'{head[:-1]},"records":[{rows}]}}\n'

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


_JSON = {"sort_keys": True, "separators": (",", ":"), "allow_nan": True}
# Rows formatted at once, so that the formatted cells stay small beside the
# text they are joined into.
_FORMAT_ROWS = 4096


def _text_rows(columns: Tuple[tuple, ...], cells: Callable[[tuple], list]) -> Iterable[str]:
    """The rows of ``columns`` as comma-joined texts, ``cells`` formatting
    each column _FORMAT_ROWS rows at a time."""
    for start in range(0, len(columns[0]), _FORMAT_ROWS):
        part = [column[start:start + _FORMAT_ROWS] for column in columns]
        yield from map(",".join, zip(*map(cells, part)))


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _repeats_first(column: tuple) -> bool:
    """Whether every entry of ``column`` is its first, the same object."""
    return all(map(operator.is_, column, itertools.repeat(column[0])))


def _csv_cells(column: tuple) -> list:
    """The CSV cells of one column, as :func:`_format_cell` formats each."""
    if _repeats_first(column):
        return [_format_cell(column[0])] * len(column)
    try:
        return list(map(float.__repr__, column))
    except TypeError:  # not all floats
        return list(map(_format_cell, column))


def _json_cells(column: tuple) -> list:
    """The JSON texts of the entries of one column, as json.dumps writes them
    inside a document."""
    if _repeats_first(column):
        return [json.dumps(column[0], **_JSON)] * len(column)
    cells = json.dumps(column, **_JSON)[1:-1].split(",")
    if len(cells) != len(column):  # an entry's text holds a comma
        cells = [json.dumps(value, **_JSON) for value in column]
    return cells


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
    templates = [SourceConfig.lossless(m=m, mu=mu_range[0]) for m in m_values]
    results = optimize_mu_batch(templates, mu_range=mu_range, n_max=n_max)
    meta = {"config_hash": _input_hash(fig="fig2", m_values=m_values, n_max=n_max)}
    return SweepTable._from_columns("fig2", _optimum_columns(templates, results, n_max), meta)


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
    columns = _joined(_curve(SourceConfig(m=m, mu=0.0, e_h=e_h, e_s=e_s, e_sw_db=float(il)),
                             "mu", grid, n_max)
                      for il in il_db_values for m in m_values)
    meta = {"config_hash": _input_hash(
        fig="fig3", m_values=m_values, mu_grid=[float(v) for v in grid],
        il_db_values=list(il_db_values), e_h=e_h, e_s=e_s, n_max=n_max)}
    return SweepTable._from_columns("fig3", columns, meta)


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
    columns = _joined(_curve(SourceConfig(m=m, mu=float(mu), e_h=e_h, e_s=e_s),
                             "e_sw_db", grid, n_max)
                      for mu in mu_values for m in m_values)
    meta = {"config_hash": _input_hash(
        fig="fig4", mu_values=list(mu_values), il_grid=[float(v) for v in grid],
        m_values=m_values, e_h=e_h, e_s=e_s, n_max=n_max)}
    return SweepTable._from_columns("fig4", columns, meta)


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
    columns = _optimum_columns([template for template, _ in cases], results, n_max)
    meta = {"config_hash": _input_hash(
        fig="fig5", snr_targets=list(snr_targets), m_values=m_values,
        il_db_values=list(il_db_values), e_h=e_h, e_s=e_s, n_max=n_max)}
    return SweepTable._from_columns("fig5", columns, meta)


def sweep_axis(
    base: SourceConfig,
    axis: str,
    values: Iterable[float],
    n_max: int = DEFAULT_N_MAX,
) -> SweepTable:
    """Custom one-axis sweep of ``mu`` or ``e_sw_db`` around a base config.

    ``values`` is read once, so an iterator sweeps and hashes the same points
    as a list of them.
    """
    if axis not in ("mu", "e_sw_db"):
        raise ValueError(f"axis must be 'mu' or 'e_sw_db', got {axis!r}")
    columns = _curve(base, axis, values, n_max)
    # The axis column holds float(v) for each v of values.
    meta = {"config_hash": _input_hash(
        fig="custom", axis=axis, values=columns[_ECHO.index(axis)],
        base=base.as_dict(), n_max=n_max)}
    return SweepTable._from_columns("custom", columns, meta)


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
    groups = sorted(set(table.columns[cols[group_by] - 1]))
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
