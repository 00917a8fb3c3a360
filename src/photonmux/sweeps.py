"""Parameter sweeps producing plot-ready tables for the headline figures.

``figure2``..``figure5`` take no arguments: they reproduce the paper's fixed
Figs. 2-5 from module constants, and :data:`FIGURES` maps each figure id to
its builder and the column it is plotted against.  ``sweep_axis`` sweeps
``mu`` or ``e_sw_db`` around any configuration.  Every table and record is
computed at the truncation bound ``DEFAULT_N_MAX``.

Each of them returns a :class:`SweepTable` whose records are computed by
direct calls into the loss chain and the optimizer, so table contents are
bit-identical to what those calls return.  A table holds its records as
columns, one tuple per :attr:`SweepRecord.FIELDS` entry.  ``figure3``,
``figure4`` and ``sweep_axis`` build a curve's columns (:func:`_curve`), and
``figure2`` and ``figure5`` theirs at the optimizer's optima
(:func:`_optimum_columns`), without a configuration per point: one helper,
:func:`_merit_columns`, which :func:`record_for` also calls, reads every
record's outputs from the loss-chain core run on blocks of rows.  Tables
serialize to CSV (one header row, '.' decimal separator) and to a
self-describing JSON document carrying metadata, formatted column by column;
both are byte-stable for fixed inputs and tool version, and equal to what
formatting one record at a time gives.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import operator
import os
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Iterable, Optional, Sequence, Tuple

import numpy as np

from ._version import __version__
from .config import SourceConfig, signal_transmission
# output_distribution, optimize_mu and max_p1_with_snr_floor stay module
# attributes: perfbench's traced pass wraps them by name.
from .losses import _blocks, output_distribution  # noqa: F401
from .optimize import (  # noqa: F401
    DEFAULT_MU_RANGE,
    _parameters,
    max_p1_with_snr_floor,
    optimize_mu,
    search,
)
from .stats import DEFAULT_N_MAX, check_rows, mandel_q_or_nan, p1_rows, snr_rows

__all__ = [
    "SweepRecord",
    "SweepTable",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "sweep_axis",
    "gnuplot_commands",
    "FIGURES",
]

# The fixed inputs of the figures.  Fig. 2 is lossless over FIG2_M_VALUES;
# Figs. 3-5 run M_VALUES behind switches of IL_DB_VALUES dB with E_H and E_S,
# over DEFAULT_MU_GRID (Fig. 3), FIG4_MU_VALUES and DEFAULT_IL_GRID (Fig. 4)
# and DEFAULT_SNR_TARGETS (Fig. 5).
DEFAULT_MU_GRID = np.geomspace(1e-3, 2.0, 200)
DEFAULT_IL_GRID = np.linspace(0.0, 2.0, 50)
DEFAULT_SNR_TARGETS = (5.0, 10.0, 20.0, 50.0, 100.0, 200.0)
FIG2_M_VALUES = tuple(range(0, 11))
M_VALUES = tuple(range(0, 6))
IL_DB_VALUES = (0.5, 1.0)
FIG4_MU_VALUES = (0.1, 0.2)
E_H = 0.85
E_S = 0.9


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

    FIELDS: ClassVar[Tuple[str, ...]]  # the field names in order, set below

    def row(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELDS)


SweepRecord.FIELDS = tuple(field.name for field in fields(SweepRecord))


# The SourceConfig attributes echoed by the first ten SweepRecord fields, the
# first nine under their own names.
_ECHO = (*SweepRecord.FIELDS[:9], "clock_hz")


def record_for(cfg: SourceConfig) -> SweepRecord:
    """Evaluate the full loss chain at one configuration."""
    merits = _merit_columns(np.array([cfg.mu]), cfg.e_s_total, cfg.e_h, cfg.n_windows, cfg.p_dark)
    return SweepRecord(*[getattr(cfg, name) for name in _ECHO], *[column[0] for column in merits])


def _merit_columns(mu: np.ndarray, transmission, e_h, windows, p_dark) -> list:
    """The p0, p1, p_ge2, snr and mandel_q columns of the loss chain's output
    rows at the pump rates ``mu``, with the parameters of
    :func:`losses._output_rows`, as lists of floats.

    The rows come from the blocks of :func:`losses._blocks`, and only these
    columns are kept, so memory beyond them stays bounded.  The rows pass the
    checks a PhotonDistribution applies; TruncationError, naming the worst mu
    over all rows, is raised before any other check fails, and then the first
    failing row raises.  P_>=2 and the SNR come from :func:`snr_rows` and Q
    from :func:`mandel_q_or_nan`, one row at a time, so each value equals what
    :func:`snr` and :func:`mandel_q` return for the row's distribution, and Q
    is NaN for the vacuum.
    """
    merits = [[] for _ in range(5)]
    fault = None
    for _, probs, tail in _blocks(mu, transmission, e_h, windows, p_dark, DEFAULT_N_MAX):
        if fault is not None:
            continue  # raised once _blocks has checked every row's truncation
        try:
            check_rows(probs, tail, DEFAULT_N_MAX)
        except ValueError as error:
            fault = error
            continue
        for column, part in zip(merits, (probs[:, 0], p1_rows(probs), *snr_rows(probs, tail))):
            column += part.tolist()
        merits[4] += map(mandel_q_or_nan, probs)
    if fault is not None:
        raise fault
    return merits


def _curve(template: SourceConfig, axis: str, values: Iterable[float]) -> list:
    """The columns of the records along ``axis`` (``mu`` or ``e_sw_db``),
    each record as :func:`record_for` makes it at ``template.replace(**{axis:
    value})``, without building those configurations.  A bad axis value
    raises what that replace raises for the first one.
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
    merits = _merit_columns(mu, np.array(echo["e_s_total"], dtype=float), template.e_h,
                            template.n_windows, template.p_dark)
    return [*echo.values(), *merits, [None] * rows, [None] * rows]


def _optimum_columns(templates: Sequence[SourceConfig], results: Sequence) -> list:
    """The columns of one record per optimizer result: the template's echo
    with ``mu = mu_opt``, and the loss chain's output there, the feasible
    optima evaluated together, or, where the result is infeasible, NaN pump
    rate and outputs."""
    mu_opt = [result.mu_opt for result in results]
    echo = {name: [getattr(template, name) for template in templates] for name in _ECHO}
    echo["mu"] = mu_opt
    echo["mu_total"] = [template.n_windows * mu for template, mu in zip(templates, mu_opt)]
    feasible = np.flatnonzero([result.feasible for result in results])
    merits = np.full((5, len(results)), math.nan)
    merits[:, feasible] = _merit_columns(np.array(mu_opt)[feasible],
                                         *_parameters(templates)[:, feasible])
    return [*echo.values(), *merits.tolist(), mu_opt, [result.snr_target for result in results]]


def _joined(curves: Iterable[list]) -> list:
    """The columns of several curves' records, one curve after another."""
    return [list(itertools.chain.from_iterable(parts)) for parts in zip(*curves)]


@dataclass(frozen=True)
class SweepTable:
    """Ordered sweep records plus reproducibility metadata.

    The table holds its records as ``columns``, one sequence per
    :attr:`SweepRecord.FIELDS` entry, kept as tuples, and builds the
    :class:`SweepRecord` tuple ``records`` on first use.  ``metadata`` is
    stamped with the tool and version, and with ``SOURCE_DATE_EPOCH`` when
    that is set.  The table serializes column by column: each column is
    formatted a block of rows at a time, a block of one repeated value once,
    and the rows are joined from the formatted columns.
    """

    figure_id: str
    columns: Tuple[tuple, ...]
    metadata: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.figure_id not in FIGURE_IDS:
            raise ValueError(f"figure_id must be one of {FIGURE_IDS}, got {self.figure_id!r}")
        columns = tuple(map(tuple, self.columns))
        if not columns or not columns[0]:
            raise ValueError("a sweep table must contain at least one record")
        if len(columns) != len(SweepRecord.FIELDS) or len(set(map(len, columns))) != 1:
            raise ValueError(f"a sweep table takes {len(SweepRecord.FIELDS)} columns of one length")
        meta = {"tool": "photonmux", "version": __version__}
        meta.update(self.metadata or {})
        stamp = os.environ.get("SOURCE_DATE_EPOCH")
        if stamp is not None:
            meta.setdefault("created_epoch", int(stamp))
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
        meta = {k: v for k, v in doc["metadata"].items() if k not in ("tool", "version")}
        return cls(doc["figure_id"], zip(*doc["records"], strict=True), meta)


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


def _table(figure_id: str, columns: list, **inputs) -> SweepTable:
    """The table of ``columns``, its ``config_hash`` taken over the figure id,
    ``inputs`` and the truncation bound."""
    blob = json.dumps({"fig": figure_id, "n_max": DEFAULT_N_MAX, **inputs}, sort_keys=True,
                      default=str).encode()
    return SweepTable(figure_id, columns, {"config_hash": hashlib.sha256(blob).hexdigest()[:16]})


# -- figure reproductions ---------------------------------------------------


def figure2() -> SweepTable:
    """Lossless emission probabilities and Mandel Q at the per-m optimum.

    For each stage count the pump rate is tuned to maximize the single-photon
    probability, all stage counts' searches in lockstep; the record carries
    P0, P1, P>=2 and Q at that optimum.
    """
    templates = [SourceConfig(m=m, mu=DEFAULT_MU_RANGE[0]) for m in FIG2_M_VALUES]
    columns = _optimum_columns(templates, search([(template, None) for template in templates]))
    return _table("fig2", columns, m_values=FIG2_M_VALUES)


def figure3() -> SweepTable:
    """Single-photon probability versus pump rate for each (stages, IL)."""
    columns = _joined(_curve(SourceConfig(m=m, mu=0.0, e_h=E_H, e_s=E_S, e_sw_db=il),
                             "mu", DEFAULT_MU_GRID)
                      for il in IL_DB_VALUES for m in M_VALUES)
    return _table("fig3", columns, m_values=M_VALUES, mu_grid=DEFAULT_MU_GRID.tolist(),
                  il_db_values=IL_DB_VALUES, e_h=E_H, e_s=E_S)


def figure4() -> SweepTable:
    """Single-photon probability versus switch insertion loss."""
    columns = _joined(_curve(SourceConfig(m=m, mu=mu, e_h=E_H, e_s=E_S),
                             "e_sw_db", DEFAULT_IL_GRID)
                      for mu in FIG4_MU_VALUES for m in M_VALUES)
    return _table("fig4", columns, mu_values=FIG4_MU_VALUES, il_grid=DEFAULT_IL_GRID.tolist(),
                  m_values=M_VALUES, e_h=E_H, e_s=E_S)


def figure5() -> SweepTable:
    """Maximum single-photon probability under an SNR floor.

    The searches of every (IL, stages, target) case run in lockstep.
    Infeasible (target, stages, IL) combinations would produce records with
    NaN outputs and the mu field set to NaN; none of the figure's is.
    """
    templates = [SourceConfig(m=m, mu=DEFAULT_MU_RANGE[0], e_h=E_H, e_s=E_S, e_sw_db=il)
                 for il in IL_DB_VALUES for m in M_VALUES]
    cases = [(template, target) for template in templates for target in DEFAULT_SNR_TARGETS]
    columns = _optimum_columns([template for template, _ in cases], search(cases))
    return _table("fig5", columns, snr_targets=DEFAULT_SNR_TARGETS, m_values=M_VALUES,
                  il_db_values=IL_DB_VALUES, e_h=E_H, e_s=E_S)


def sweep_axis(base: SourceConfig, axis: str, values: Iterable[float]) -> SweepTable:
    """Custom one-axis sweep of ``mu`` or ``e_sw_db`` around a base config.

    ``values`` is read once, so an iterator sweeps and hashes the same points
    as a list of them.
    """
    if axis not in ("mu", "e_sw_db"):
        raise ValueError(f"axis must be 'mu' or 'e_sw_db', got {axis!r}")
    columns = _curve(base, axis, values)
    # The axis column holds float(v) for each v of values.
    return _table("custom", columns, axis=axis, values=columns[_ECHO.index(axis)],
                  base=base.as_dict())


# -- plotting convenience ----------------------------------------------------


def gnuplot_commands(table: SweepTable, data_path: str, x: str = "mu") -> str:
    """Emit a gnuplot script plotting p1 against column ``x``, one line per
    stage count.

    Purely a convenience for quick looks at sweep output; the CSV itself is
    the product.
    """
    cols = {name: i + 1 for i, name in enumerate(SweepRecord.FIELDS)}
    if x not in cols:
        raise ValueError(f"unknown column {x!r}")
    path = data_path.replace("'", "''")  # gnuplot's escape inside single quotes
    plots = ", ".join(
        f"'{path}' using {cols[x]}:((${cols['m']} == {m}) ? ${cols['p1']} : 1/0) "
        f"with lines title 'm={m}'"
        for m in sorted(set(table.columns[cols["m"] - 1]))
    )
    return "\n".join([
        "set datafile separator ','",
        "set datafile commentschars '#'",
        f"set xlabel '{x}'",
        "set ylabel 'p1'",
        f"plot {plots}",
    ]) + "\n"


# Each figure's builder, and the column its gnuplot script plots p1 against.
FIGURES = {
    "fig2": (figure2, "m"),
    "fig3": (figure3, "mu"),
    "fig4": (figure4, "e_sw_db"),
    "fig5": (figure5, "snr_target"),
}
FIGURE_IDS = (*FIGURES, "custom")
