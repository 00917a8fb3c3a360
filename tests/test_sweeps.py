import json
import math
import re
from dataclasses import astuple, replace

import numpy as np
import pytest

from photonmux import (
    SourceConfig,
    figure2,
    losses,
    optimize,
    output_distribution,
    sweeps,
)
from photonmux.losses import p1_snr_curve
from photonmux.optimize import optimize_mu, search
from photonmux.stats import PhotonDistribution, TruncationError, mandel_q, poisson_vector, snr
from photonmux.sweeps import (
    SweepRecord,
    SweepTable,
    figure3,
    figure4,
    figure5,
    gnuplot_commands,
    record_for,
    sweep_axis,
)


@pytest.fixture(scope="module")
def fig2():
    return figure2()


@pytest.fixture(scope="module")
def fig3():
    return figure3()


@pytest.fixture(scope="module")
def fig4():
    return figure4()


@pytest.fixture(scope="module")
def fig5():
    return figure5()


def _floor_table(cases):
    """The figure5 table of SNR-floor cases other than the figure's own."""
    results = search(cases)
    return SweepTable("fig5", sweeps._optimum_columns([cfg for cfg, _ in cases], results))


class TestFigure2:
    def test_one_row_per_stage_count(self, fig2):
        assert len(fig2.records) == 11
        assert [r.m for r in fig2.records] == list(range(0, 11))

    def test_single_window_row_is_poisson_optimum(self, fig2):
        row = fig2.records[0]
        assert row.mu_opt == pytest.approx(1.0, abs=1e-5)
        assert row.p1 == pytest.approx(math.exp(-1.0), rel=1e-7)

    def test_p1_strictly_increasing_in_stages(self, fig2):
        p1 = [r.p1 for r in fig2.records]
        assert all(a < b for a, b in zip(p1, p1[1:]))

    def test_mandel_q_non_increasing_in_stages(self, fig2):
        q = [r.mandel_q for r in fig2.records]
        assert all(a >= b for a, b in zip(q, q[1:]))

    def test_rows_recomputable_from_config(self, fig2):
        row = fig2.records[4]
        cfg = SourceConfig(m=row.m, mu=row.mu)
        dist = output_distribution(cfg)
        assert row.p1 == dist.p(1)
        assert row.p0 == dist.p(0)


class TestFigure3:
    def test_single_window_curve_is_thinned_poisson(self, fig3):
        for record in fig3.records:
            if record.m == 0:
                lam = record.mu * record.e_s_total
                assert record.p1 == pytest.approx(float(poisson_vector(lam, 30)[1]), rel=1e-12)

    def test_grid_axes_cover_all_combinations(self, fig3):
        assert len(fig3.records) == 2 * 6 * 200
        seen = {(r.m, r.e_sw_db, r.mu) for r in fig3.records}
        assert len(seen) == 2 * 6 * 200
        assert {r.m for r in fig3.records} == set(range(6))
        assert {r.e_sw_db for r in fig3.records} == {0.5, 1.0}
        assert {r.mu for r in fig3.records} == set(sweeps.DEFAULT_MU_GRID.tolist())


class TestFigure4:
    def test_zero_loss_column_matches_switchless_chain(self, fig4):
        at_zero = [r for r in fig4.records if (r.m, r.mu, r.e_sw_db) == (4, 0.1, 0.0)]
        direct = output_distribution(SourceConfig(m=4, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=0.0))
        assert len(at_zero) == 1
        assert at_zero[0].p1 == direct.p(1)
        assert at_zero[0].e_s_total == pytest.approx(0.9, rel=1e-15)

    def test_higher_stage_counts_decay_faster_in_db(self, fig4):
        # slope of log10(P1) against IL approaches -(m+1)/10 at large IL;
        # taken from IL 1.5 (the first grid point beyond) to 2 dB
        def slope(m):
            rows = [r for r in fig4.records if r.m == m and r.mu == 0.1 and r.e_sw_db >= 1.5]
            first, last = rows[0], rows[-1]
            assert last.e_sw_db == 2.0 and first.e_sw_db < 1.6
            return (math.log10(last.p1) - math.log10(first.p1)) / (last.e_sw_db - first.e_sw_db)
        assert slope(4) < slope(1) < 0


class TestFigure5:
    def test_infeasible_case_echoes_its_template_with_nan_outputs(self):
        template = SourceConfig(m=2, mu=1e-4, e_h=0.85, e_s=0.9, e_sw_db=0.5)
        table = _floor_table([(template, 5.0), (template, 1e9)])
        nan = math.nan
        assert repr(astuple(table.records[1])) == repr((
            2, 2.0, nan, 0.85, 0.9, 0.5, 0.0, nan, template.e_s_total, template.clock_hz,
            nan, nan, nan, nan, nan, nan, 1e9))
        assert table.to_csv() == _rowwise_csv(table)
        assert table.to_json() == _rowwise_json(table)
        # With no feasible optimum at all, no row is evaluated.
        alone = _floor_table([(template, 1e9)])
        assert repr(astuple(alone.records[0])) == repr(astuple(table.records[1]))

    def test_vanishing_target_recovers_unconstrained_peak(self):
        template = SourceConfig(m=4, mu=1e-4, e_h=0.85, e_s=0.9, e_sw_db=0.5)
        relaxed, constrained = _floor_table([(template, 1e-9), (template, 50.0)]).records
        unconstrained = optimize_mu(template.replace(mu=1e-3))
        assert relaxed.p1 == pytest.approx(unconstrained.p1_max, rel=1e-8)
        assert constrained.p1 < relaxed.p1
        assert constrained.snr >= 50.0 - 1e-6

    def test_curves_non_increasing_in_target(self, fig5):
        # Every (IL, stages) curve, each of its feasible optima on its floor.
        assert not any(math.isnan(r.p1) for r in fig5.records)
        curves = {}
        for r in fig5.records:
            curves.setdefault((r.e_sw_db, r.m), []).append(r)
        assert len(curves) == 12
        for rows in curves.values():
            assert [r.snr_target for r in rows] == list(sweeps.DEFAULT_SNR_TARGETS)
            assert all(r.snr >= r.snr_target - 1e-6 for r in rows)
            p1 = [r.p1 for r in rows]
            assert all(a >= b - 1e-9 for a, b in zip(p1, p1[1:]))

    def test_search_and_records_each_evaluate_the_optima_in_one_call(self, monkeypatch):
        # The search's final round is one batched loss-chain call over the
        # candidate optima of every search, each peak's best grid point and
        # golden midpoints.  The records then read every optimum from one
        # pass over the blocked core, with no configuration or
        # PhotonDistribution per optimum.
        calls = []

        def counted(module):
            core = module._merits

            def call(mu, *args):
                calls.append((module.__name__, mu.size))
                return core(mu, *args)

            monkeypatch.setattr(module, "_merits", call)

        counted(optimize)
        counted(sweeps)
        for module in (optimize, sweeps):
            monkeypatch.setattr(module, "output_distribution", None)
        monkeypatch.setattr(SourceConfig, "replace", None)
        monkeypatch.setattr(PhotonDistribution, "__post_init__", None)
        figure2()
        assert calls == [("photonmux.optimize", 22), ("photonmux.sweeps", 11)]
        calls.clear()
        figure5()
        assert calls == [("photonmux.optimize", 74), ("photonmux.sweeps", 72)]


def _reference_row(cfg):
    """A record's row as PhotonDistribution and stats compute it at one point."""
    dist = output_distribution(cfg)
    return (cfg.m, cfg.delta_t0_ns, cfg.mu, cfg.e_h, cfg.e_s, cfg.e_sw_db, cfg.r_dark,
            cfg.mu_total, cfg.e_s_total, cfg.clock_hz, dist.p(0), dist.p(1), dist.p_ge(2),
            snr(dist), mandel_q(dist) if dist.mean() > 0 else math.nan, None, None)


def test_optimum_records_equal_the_distribution_at_their_optima(fig2, fig5):
    # Each record of an optimum, as the distribution at its template with
    # mu = mu_opt gives it; fig2 and fig5 have no infeasible case.
    for record in fig2.records + fig5.records:
        cfg = SourceConfig(m=record.m, delta_t0_ns=record.delta_t0_ns, mu=record.mu_opt,
                           e_h=record.e_h, e_s=record.e_s, e_sw_db=record.e_sw_db,
                           r_dark=record.r_dark)
        assert repr(astuple(record)[:15]) == repr(_reference_row(cfg)[:15])


def _assert_rows_match_record_for(table):
    """Every record of a batched curve against a per-point record_for call,
    and bit for bit against the figures of merit of its PhotonDistribution."""
    got = np.array([astuple(record) for record in table.records], dtype=float)
    cfgs = [SourceConfig(m=r.m, delta_t0_ns=r.delta_t0_ns, mu=r.mu, e_h=r.e_h, e_s=r.e_s,
                         e_sw_db=r.e_sw_db, r_dark=r.r_dark) for r in table.records]
    want = np.array([astuple(record_for(cfg)) for cfg in cfgs], dtype=float)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
    # repr tells every float apart and reads NaN as equal to NaN.
    assert [repr(astuple(record)) for record in table.records] == [
        repr(_reference_row(cfg)) for cfg in cfgs]


class TestBatchedCurves:
    def test_figure3_matches_record_for(self, fig3):
        _assert_rows_match_record_for(fig3)

    def test_figure4_matches_record_for(self, fig4):
        _assert_rows_match_record_for(fig4)

    @pytest.mark.parametrize("axis,values", [("mu", [0.0, 1e-3, 0.3]),
                                             ("e_sw_db", [0.0, 1.0, 2.0])])
    def test_sweep_axis_matches_record_for(self, axis, values):
        base = SourceConfig(m=2, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=0.5, r_dark=5e6)
        table = sweep_axis(base, axis, values)
        if axis == "mu":  # the vacuum row at zero pump has NaN Q
            assert math.isnan(table.records[0].mandel_q)
        _assert_rows_match_record_for(table)


class TestCurveRowChecks:
    """Curve rows pass the checks a PhotonDistribution applies, row by row."""

    BASE = SourceConfig(m=2, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=0.5)

    @staticmethod
    def _inject(monkeypatch, faults):
        """Patch the loss-chain core so that the row of each pump rate in
        ``faults`` gets that fault; returns the faulty rows with their tail
        masses, by pump rate, as they leave the core."""
        core = losses._chain_rows
        faulty_rows = {}

        def faulty(mu, *args):
            probs, tail, lost = core(mu, *args)
            probs, tail = probs.copy(), tail.copy()
            for i in np.flatnonzero(np.isin(mu, list(faults))):
                fault, size = faults[float(mu[i])]
                if fault == "outside":
                    probs[i, 5] = -2e-12 * size
                elif fault == "negative_tail":
                    tail[i] = -2e-15 * size
                elif fault == "tail":
                    tail[i] = 2e-9 * size
                else:
                    probs[i] *= 0.9 / size
                faulty_rows[float(mu[i])] = (probs[i].copy(), float(tail[i]))
            return probs, tail, lost

        monkeypatch.setattr(losses, "_chain_rows", faulty)
        return faulty_rows

    @staticmethod
    def _assert_raises_as_photon_distribution(got, row, tail):
        with pytest.raises(ValueError) as expected:
            PhotonDistribution(row, 30, tail)
        assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))

    @pytest.mark.parametrize("fault", ["outside", "negative_tail", "tail", "normalization"])
    def test_faulty_row_raises_as_photon_distribution(self, monkeypatch, fault):
        faulty_rows = self._inject(monkeypatch, {0.1: (fault, 1.0)})
        with pytest.raises(ValueError) as got:
            sweep_axis(self.BASE, "mu", [0.05, 0.1, 0.2])
        self._assert_raises_as_photon_distribution(got, *faulty_rows[0.1])

    @pytest.mark.parametrize("fault", ["outside", "negative_tail", "tail", "normalization"])
    def test_first_faulty_row_of_a_late_block_raises(self, monkeypatch, fault):
        # Faulty rows in the third and fourth blocks of the blocked core: the
        # first one raises, as in one unblocked check of all rows.
        mu = np.linspace(0.01, 0.5, 1000)
        first, second = float(mu[600]), float(mu[900])
        assert {600 // losses._BLOCK_ROWS, 900 // losses._BLOCK_ROWS} == {2, 3}
        faulty_rows = self._inject(monkeypatch, {first: (fault, 1.0), second: (fault, 2.0)})
        with pytest.raises(ValueError) as got:
            sweep_axis(self.BASE, "mu", mu)
        self._assert_raises_as_photon_distribution(got, *faulty_rows[first])

    def test_truncation_in_a_late_block_precedes_an_earlier_faulty_row(self, monkeypatch):
        # Truncating rows in the third and fourth blocks, a faulty row in the
        # first: the error is the truncation that one unblocked core call
        # raises, naming the worst mu of all rows.
        mu = np.random.default_rng(3).uniform(0.01, 2.0, 1000)
        mu[[700, 900]] = 40.0, 45.0
        self._inject(monkeypatch, {float(mu[10]): ("normalization", 1.0)})
        cfg = self.BASE
        with pytest.raises(TruncationError) as unblocked:
            losses._check_truncation(mu, losses._chain_rows(
                mu, cfg.e_s_total, cfg.e_h, cfg.n_windows, cfg.p_dark, 30)[2], 30)
        with pytest.raises(TruncationError) as blocked:
            sweep_axis(cfg, "mu", mu)
        assert str(blocked.value) == str(unblocked.value)
        assert "at mu=45.0;" in str(blocked.value)

    @pytest.mark.parametrize("fault", ["outside", "negative_tail", "tail", "normalization"])
    def test_faulty_far_row_of_the_closed_form_raises_as_photon_distribution(
            self, monkeypatch, fault):
        # The optimizer's rounds read rows above mu = 4, which the closed
        # form does not take, with the checks of every other row.
        mu = np.array([0.1, 6.0, 1.0, 5.0, 1e-110])
        faulty_rows = self._inject(monkeypatch, {6.0: (fault, 1.0), 5.0: (fault, 2.0)})
        params = losses._inputs(self.BASE)
        for call in (lambda: p1_snr_curve(self.BASE, mu), lambda: losses._p1_rows(mu, *params),
                     lambda: losses._p1_snr_rows(mu, *params)):
            with pytest.raises(ValueError) as got:
                call()
            self._assert_raises_as_photon_distribution(got, *faulty_rows[6.0])

    def test_truncating_far_row_precedes_an_earlier_faulty_far_row(self, monkeypatch):
        mu = np.array([0.1, 6.0, 1.0, 30.0, 25.0, 2.0])
        self._inject(monkeypatch, {6.0: ("outside", 1.0)})
        cfg = self.BASE
        with pytest.raises(TruncationError) as unblocked:
            losses._check_truncation(mu, losses._chain_rows(
                mu, cfg.e_s_total, cfg.e_h, cfg.n_windows, cfg.p_dark, 30)[2], 30)
        for call in (lambda: p1_snr_curve(cfg, mu),
                     lambda: losses._p1_rows(mu, *losses._inputs(cfg))):
            with pytest.raises(TruncationError) as blocked:
                call()
            assert str(blocked.value) == str(unblocked.value)
        assert "at mu=30.0;" in str(unblocked.value)

    @pytest.mark.parametrize("axis,values", [
        ("mu", [0.1, -0.5, math.nan]),
        ("mu", [0.1, math.inf]),
        ("e_sw_db", [0.0, math.nan, -1.0]),
        ("e_sw_db", [1.0, -math.inf]),
        ("mu", [0.1, None]),
        ("e_sw_db", [0.5, "x"]),
    ])
    def test_bad_axis_value_raises_as_source_config(self, axis, values):
        with pytest.raises((TypeError, ValueError)) as expected:
            for value in values:
                self.BASE.replace(**{axis: float(value)})
        with pytest.raises((TypeError, ValueError)) as got:
            sweep_axis(self.BASE, axis, values)
        assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))


def _rowwise_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _rowwise_csv(table):
    """The table's CSV as formatted one record at a time."""
    lines = [f"# figure_id = {table.figure_id}"]
    lines += [f"# {key} = {table.metadata[key]}" for key in sorted(table.metadata)]
    lines.append(",".join(SweepRecord.FIELDS))
    lines += [",".join(_rowwise_cell(v) for v in astuple(record)) for record in table.records]
    return "\n".join(lines) + "\n"


def _rowwise_json(table):
    """The table's JSON document as encoded one record at a time."""
    doc = {
        "format": "photonmux-table",
        "figure_id": table.figure_id,
        "metadata": table.metadata,
        "columns": list(SweepRecord.FIELDS),
        "records": [list(astuple(record)) for record in table.records],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=True) + "\n"


_DEFAULT_TABLES = {
    "fig2": figure2,
    "fig3": figure3,
    "fig4": figure4,
    "fig5": figure5,
    "sweep_mu": lambda: sweep_axis(
        SourceConfig(m=2, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=0.5, r_dark=5e6), "mu",
        np.concatenate(([0.0], np.geomspace(1e-4, 2.0, 2 * sweeps._FORMAT_ROWS)))),
    "sweep_e_sw_db": lambda: sweep_axis(
        SourceConfig(m=3, herald_rate_r=5e7, e_h=0.7, e_s=0.8), "e_sw_db",
        np.concatenate((np.linspace(0.0, 5.0, 300), [3000.0]))),
}


class TestColumnarSerialization:
    """Tables are formatted column by column; the text is what formatting
    one record at a time gives."""

    @pytest.mark.parametrize("name", sorted(_DEFAULT_TABLES))
    def test_equals_rowwise_formatting(self, name):
        table = _DEFAULT_TABLES[name]()
        assert table.to_csv() == _rowwise_csv(table)
        assert table.to_json() == _rowwise_json(table)

    def test_mixed_and_awkward_values_equal_rowwise_formatting(self):
        # Equal values of different types or signs, NaNs, infinities, numpy
        # floats, and an int too large for a float.
        base = record_for(SourceConfig(m=1, mu=0.1, e_h=0.85))
        records = [
            base,
            replace(base, delta_t0_ns=2, mu=-0.0, e_h=np.float64(0.85), p0=math.nan, snr=math.inf),
            replace(base, delta_t0_ns=2.0, mu=0.0, e_h=1, p0=math.nan, snr=-math.inf,
                    mu_opt=0.25, snr_target=np.float64(5.0)),
            replace(base, m=10**400, e_h=1.0, mu_opt=-math.inf, snr_target=None),
        ]
        table = SweepTable("custom", zip(*(astuple(record) for record in records)))
        assert table.records == tuple(records)
        assert table.to_csv() == _rowwise_csv(table)
        assert table.to_json() == _rowwise_json(table)

    @pytest.mark.parametrize("entry", ["5,0", True, (1, 2), np.int64(1), np.float32(0.5)],
                             ids=["str", "bool", "tuple", "int64", "float32"])
    @pytest.mark.parametrize("repeated", [False, True], ids=["mixed", "repeated"])
    def test_entries_outside_the_contract_raise(self, entry, repeated):
        # Both formats refuse an entry that is not an int, a float or None,
        # with one message naming it, whether or not its column repeats it.
        base = astuple(record_for(SourceConfig(m=1, mu=0.1, e_h=0.85)))
        columns = [*zip(base, base)][:-1] + [(entry, entry if repeated else 1.0)]
        table = SweepTable("custom", columns)
        message = f"^a table entry must be an int, a float or None, got {re.escape(repr(entry))}$"
        with pytest.raises(ValueError, match=message):
            table.to_csv()
        with pytest.raises(ValueError, match=message):
            table.to_json()

    def test_json_round_trip_keeps_types(self):
        base = SourceConfig(m=2, mu=0.1, e_h=0.85, delta_t0_ns=4)
        table = sweep_axis(base, "e_sw_db", [0.0, 0.5, 1.0])
        rows = json.loads(table.to_json())["records"]
        assert rows == [list(astuple(record)) for record in table.records]
        for got, want in zip(rows, table.records):
            assert [type(v) for v in got] == [type(v) for v in astuple(want)]
        assert {type(row[SweepRecord.FIELDS.index("m")]) for row in rows} == {int}
        assert {type(row[SweepRecord.FIELDS.index("delta_t0_ns")]) for row in rows} == {int}
        assert [row[SweepRecord.FIELDS.index("mu_opt")] for row in rows] == [None, None, None]

    def test_records_are_the_columns_transposed(self, fig4):
        assert tuple(zip(*(astuple(record) for record in fig4.records))) == fig4.columns
        # Columns given as lists are kept as tuples.
        assert SweepTable("fig4", map(list, fig4.columns)).columns == fig4.columns


class TestSweepTable:
    def test_records_match_direct_calls_bitwise(self):
        base = SourceConfig(m=2, mu=0.1, e_h=0.85, e_s=0.9, e_sw_db=0.5)
        table = sweep_axis(base, "mu", [0.05, 0.1, 0.2])
        for record in table.records:
            dist = output_distribution(base.replace(mu=record.mu))
            assert record.p1 == dist.p(1)
            assert record.p0 == dist.p(0)
            assert record.p_ge2 == dist.p_ge(2)

    def test_axis_order_permutes_records_only(self):
        base = SourceConfig(m=1, mu=0.1, e_h=0.9)
        fwd = sweep_axis(base, "mu", [0.05, 0.1, 0.2])
        rev = sweep_axis(base, "mu", [0.2, 0.1, 0.05])
        assert fwd.records == tuple(reversed(rev.records))

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            sweep_axis(SourceConfig(m=0, mu=0.1), "e_h", [0.5])

    def test_rejects_empty_table(self):
        with pytest.raises(ValueError, match="at least one record"):
            SweepTable("custom", ())
        with pytest.raises(ValueError, match="at least one record"):
            SweepTable("custom", [()] * len(SweepRecord.FIELDS))

    def test_rejects_misshapen_columns(self):
        table = sweep_axis(SourceConfig(m=0, mu=0.1), "mu", [0.1, 0.2])
        columns = table.columns
        for bad in (columns[:-1], columns + (columns[0],), (columns[0][:1],) + columns[1:]):
            with pytest.raises(ValueError, match="17 columns of one length"):
                SweepTable("custom", bad)
        with pytest.raises(ValueError, match="figure_id must be one of"):
            SweepTable("fig9", columns)

    def test_csv_shape(self):
        base = SourceConfig(m=0, mu=0.1)
        table = sweep_axis(base, "mu", [0.05, 0.1])
        lines = table.to_csv().strip().split("\n")
        comments = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert any("figure_id = custom" in c for c in comments)
        assert data[0] == ",".join(SweepRecord.FIELDS)
        assert len(data) == 3
        assert "." in data[1] and ";" not in data[1]

    def test_json_round_trip(self):
        base = SourceConfig(m=1, mu=0.1, e_h=0.85)
        table = sweep_axis(base, "mu", [0.05, 0.15])
        doc = json.loads(table.to_json())
        assert doc["figure_id"] == table.figure_id
        assert doc["columns"] == list(SweepRecord.FIELDS)
        assert tuple(SweepRecord(*row) for row in doc["records"]) == table.records

    def test_source_date_epoch_stamps_the_table(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        table = sweep_axis(SourceConfig(m=1, mu=0.1), "mu", [0.05, 0.1])
        assert table.metadata["created_epoch"] == 1700000000
        assert "# created_epoch = 1700000000\n" in table.to_csv()
        assert json.loads(table.to_json())["metadata"]["created_epoch"] == 1700000000
        # A stamp the metadata carries already is kept.
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "5")
        kept = SweepTable("custom", table.columns, {"created_epoch": 1700000000})
        assert kept.metadata["created_epoch"] == 1700000000
        monkeypatch.delenv("SOURCE_DATE_EPOCH")
        assert "created_epoch" not in sweep_axis(SourceConfig(m=1, mu=0.1), "mu", [0.1]).metadata

    def test_serialization_is_byte_stable(self):
        base = SourceConfig(m=1, mu=0.1, e_h=0.85)
        a = sweep_axis(base, "mu", [0.05, 0.15])
        b = sweep_axis(base, "mu", [0.05, 0.15])
        assert a.to_csv() == b.to_csv()
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("axis", ["mu", "e_sw_db"])
    def test_values_are_read_once(self, axis):
        # An iterator sweeps and hashes the same points as a list of them.
        base = SourceConfig(m=1, mu=0.1, e_h=0.85)
        listed = sweep_axis(base, axis, [0.1, 0.2])
        for values in (iter([0.1, 0.2]), (v for v in (0.1, 0.2)), np.array([0.1, 0.2])):
            table = sweep_axis(base, axis, values)
            assert table.to_csv() == listed.to_csv() and table.to_json() == listed.to_json()
        other = sweep_axis(base, axis, [0.1, 0.3])
        assert other.metadata["config_hash"] != listed.metadata["config_hash"]

    @pytest.mark.parametrize("make", [
        lambda: sweep_axis(SourceConfig(m=1, mu=0.1, e_h=0.85), "mu", [0.1, 0.2]),
    ], ids=["sweep_axis"])
    def test_integral_n_max_writes_the_same_file(self, make):
        # The config hash holds the int DEFAULT_N_MAX the sweep runs at: this
        # is the file that n_max = 30, 30.0 and np.int64(30) all wrote when
        # sweep_axis still took n_max.
        table = make()
        assert table.metadata["config_hash"] == "f14a10c4e89042e2"
        assert table.to_csv() == make().to_csv()

    def test_json_metadata_carries_tool_and_hash(self):
        table = sweep_axis(SourceConfig(m=0, mu=0.1), "mu", [0.1])
        doc = json.loads(table.to_json())
        assert doc["metadata"]["tool"] == "photonmux"
        assert "config_hash" in doc["metadata"]


class TestClockReport:
    # A record reports the clock of its configuration: the period 2**m *
    # delta_t0 and its frequency.
    def test_four_stages_at_two_ns(self):
        cfg = SourceConfig(m=4, delta_t0_ns=2.0, mu=0.1)
        assert cfg.period_ns == 32.0
        assert record_for(cfg).clock_freq_hz == pytest.approx(31.25e6, rel=1e-15)

    def test_single_window(self):
        cfg = SourceConfig(m=0, delta_t0_ns=2.0, mu=0.1)
        assert cfg.period_ns == 2.0
        assert record_for(cfg).clock_freq_hz == pytest.approx(500e6, rel=1e-15)

    def test_ten_stages(self):
        cfg = SourceConfig(m=10, delta_t0_ns=2.0, mu=0.01)
        assert cfg.period_ns == 2048.0
        assert record_for(cfg).clock_freq_hz == pytest.approx(488281.25, rel=1e-15)


def test_gnuplot_emitter_mentions_all_groups(fig4):
    script = gnuplot_commands(fig4, "fig4.csv", x="e_sw_db")
    assert "plot " in script
    assert all(f"title 'm={m}'" in script for m in range(6))
    assert "set xlabel 'e_sw_db'" in script and "set ylabel 'p1'" in script
    with pytest.raises(ValueError, match="unknown column"):
        gnuplot_commands(fig4, "fig4.csv", x="q")


# A gnuplot string in single quotes; a quote inside it is written twice.
_GNUPLOT_STRING = re.compile(r"'((?:[^']|'')*)'")


@pytest.mark.parametrize("path", ["it's.csv", "'", "a''b/c d.csv"])
def test_gnuplot_script_quotes_the_data_path(path):
    table = sweep_axis(SourceConfig(m=1, mu=0.1), "mu", [0.1, 0.2])
    plot = gnuplot_commands(table, path).splitlines()[-1]
    strings = [text.replace("''", "'") for text in _GNUPLOT_STRING.findall(plot)]
    assert strings == [path, "m=1"]


def test_record_for_nan_mandel_q_at_zero_pump():
    record = record_for(SourceConfig(m=2, mu=0.0, e_h=0.85))
    assert math.isnan(record.mandel_q)
    assert record.p0 == 1.0


def test_figure5_vacuum_optimum_has_nan_mandel_q():
    # At 3000 dB per switch the signal transmission underflows to 0.
    template = SourceConfig(m=1, mu=1e-4, e_h=0.85, e_s=0.9, e_sw_db=3000.0)
    (record,) = _floor_table([(template, 5.0)]).records
    assert record.e_s_total == 0.0 and record.p0 == 1.0 and record.p1 == 0.0
    assert math.isnan(record.mandel_q)
