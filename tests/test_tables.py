"""Every CSV writer against the per-row writer it replaced (tests/helpers.py),
byte for byte, on the values that format awkwardly."""

import math

import numpy as np
import pytest

from mgdesign import cli
from mgdesign.dispatch import Design
from mgdesign.metrics import CostBreakdown, MetricVector, cost_record
from mgdesign.optimize import EvaluatedDesign, _result_columns, write_evaluations_csv, write_pareto_csv
from mgdesign.scenario import TimeSeries, Unit, write_timeseries
from mgdesign.sensitivity import DeviationRow, PerturbTarget, write_deviation_csv, write_sweep_csv
from mgdesign.tables import csv_column, write_table

from .helpers import (
    reference_csv_cell,
    reference_write_costs_csv,
    reference_write_deviation_csv,
    reference_write_evaluations_csv,
    reference_write_metrics_csv,
    reference_write_pareto_csv,
    reference_write_sweep_csv,
    reference_write_timeseries,
)

#: Floats whose text is easy to get wrong: signed zeros, the extremes,
#: values that need 17 digits, NaN and the infinities.
FLOATS = (0.0, -0.0, 1e-300, -1e-300, 5e-324, 0.1, 1 / 3, 1e16, 123456.789,
          math.nan, math.inf, -math.inf)
CELLS = FLOATS + (None, True, False, 0, 418, -3, np.int64(7), np.float64(0.1), np.float64(-0.0),
                  np.float64(math.nan), np.float32(0.5), np.bool_(True))


def _awkward_evaluations(seed: int, n: int = 24) -> tuple[list[EvaluatedDesign], list[bool]]:
    """Int, float and ``np.float64`` capacities, ``None`` and int grid caps,
    metrics drawn from awkward floats, their ``np.float64`` and small ints
    (ties, so several fronts); and ``feasible`` flags with infeasible rows."""
    rng = np.random.default_rng(seed)

    def pick():
        kind, value = int(rng.integers(4)), FLOATS[int(rng.integers(len(FLOATS)))]
        return (value, np.float64(value), float(rng.integers(-2, 3)), int(rng.integers(-2, 3)))[kind]

    rows = []
    for i in range(n):
        capacities = [418, 123.0, np.float64(60.0), 704, 255.5]
        grid = (None, 300, 0.0, np.float64(1e-300))[i % 4]
        metrics = MetricVector(*(pick() for _ in range(8)))
        rows.append(EvaluatedDesign(Design(*capacities, grid_cap_kw=grid), metrics))
    return rows, [bool(i % 3) for i in range(n)]


class TestCells:
    def test_column_matches_cell(self):
        assert csv_column(CELLS) == [reference_csv_cell(v) for v in CELLS]

    def test_int_capacity_prints_as_int(self):
        assert csv_column([418, 418.0, None, True]) == ["418", "418.0", "", "1"]

    def test_table_layout(self, tmp_path):
        write_table(tmp_path / "t.csv", ["a", "b"], [["1", "2"], ["x", "y"]])
        assert (tmp_path / "t.csv").read_bytes() == b"a,b\n1,x\n2,y\n"
        write_table(tmp_path / "h.csv", ["a", "b"], [[], []])
        assert (tmp_path / "h.csv").read_bytes() == b"a,b\n"


class TestResultWriters:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("with_front_rank", [False, True])
    def test_evaluations_csv(self, tmp_path, seed, with_front_rank):
        evaluations, feasible = _awkward_evaluations(seed)
        table = {**_result_columns(evaluations), "feasible": feasible}
        ranks = write_evaluations_csv(table, tmp_path / "new.csv", with_front_rank=with_front_rank)
        expected = reference_write_evaluations_csv(evaluations, tmp_path / "old.csv",
                                                   with_front_rank=with_front_rank, feasible=feasible)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        if with_front_rank:
            assert np.array_equal(ranks, expected)
            assert ranks.max() > 0
        else:
            assert ranks is None
        # Evaluated designs are written as feasible.
        write_evaluations_csv(evaluations, tmp_path / "all_new.csv", with_front_rank=with_front_rank)
        reference_write_evaluations_csv(evaluations, tmp_path / "all_old.csv", with_front_rank=with_front_rank)
        assert (tmp_path / "all_new.csv").read_bytes() == (tmp_path / "all_old.csv").read_bytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_pareto_csv(self, tmp_path, seed):
        evaluations, _ = _awkward_evaluations(seed)
        front = write_pareto_csv(evaluations, tmp_path / "new.csv")
        assert front == reference_write_pareto_csv(evaluations, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_metrics_csv(self, tmp_path):
        for i, ev in enumerate(_awkward_evaluations(5, n=8)[0]):
            cli._write_metrics_csv(ev.metrics, ev.design, tmp_path / f"new{i}.csv")
            reference_write_metrics_csv(ev.metrics, ev.design, tmp_path / f"old{i}.csv")
            assert (tmp_path / f"new{i}.csv").read_bytes() == (tmp_path / f"old{i}.csv").read_bytes()

    def test_costs_csv(self, tmp_path):
        costs = CostBreakdown(1_420_000, np.float64(36681.25), -0.0, 1e-300, math.inf, math.nan, 0.1)
        cli._write_record(cost_record(costs), tmp_path / "new.csv")
        reference_write_costs_csv(costs, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestStudyWriters:
    """The sensitivity writers' cells are Python floats and ints, as the
    package produces them."""

    def test_deviation_csv(self, tmp_path):
        metrics = MetricVector(*([0.0] * 8))
        rows = [DeviationRow(target, delta, dev, dev, 1e-300, 3, metrics)
                for target in PerturbTarget
                for delta, dev in ((-0.05, -0.0), (0.1, math.inf), (-0.1, math.nan), (0.05, 1 / 3),
                                   (0.123456789, 7), (0.0, 0.0))]
        write_deviation_csv(rows, tmp_path / "new.csv")
        reference_write_deviation_csv(rows, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("curve", [
        [(0.8, 0.3176312967628993), (1, math.nan), (1e-300, -0.0), (math.inf, 5), (0.1, -math.inf)],
        [],
    ])
    def test_sweep_csv(self, tmp_path, curve):
        write_sweep_csv(curve, tmp_path / "new.csv")
        reference_write_sweep_csv(curve, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_timeseries(self, tmp_path):
        series = TimeSeries(np.array(FLOATS * 3), Unit.KW_PER_M2)
        write_timeseries(series, tmp_path / "new.txt")
        reference_write_timeseries(series, tmp_path / "old.txt")
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
