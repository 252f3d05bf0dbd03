import warnings

import pytest

from mgdesign.dispatch import simulate_year
from mgdesign.metrics import NonFiniteMetricError, evaluate, metric_record
from mgdesign.sensitivity import (
    Perturbation,
    PerturbTarget,
    SweepParameter,
    deviation_table,
    lcoe_sweep,
    perturb_and_evaluate,
    standard_perturbations,
    write_deviation_csv,
    write_sweep_csv,
)


class TestPerturbations:
    def test_identity_reproduces_baseline_bit_exact(self, bundled, a5):
        baseline = evaluate(a5, bundled)
        row = perturb_and_evaluate(bundled, a5, Perturbation(PerturbTarget.LOAD, 0.0), baseline)
        assert row.npc_dev_pct == 0.0
        assert row.reliability_dev == 0.0
        assert row.efficiency_dev_pct == 0.0
        assert row.co2_dev_pct == 0.0
        assert metric_record(row.metrics) == metric_record(baseline)

    def test_delta_bounds(self):
        with pytest.raises(ValueError):
            Perturbation(PerturbTarget.LOAD, 1.0)

    def test_standard_grid_shape(self):
        grid = standard_perturbations()
        assert len(grid) == 12
        assert {p.target for p in grid} == set(PerturbTarget)
        assert {p.delta for p in grid} == {-0.05, 0.05, -0.10, 0.10}

    def test_load_up_raises_cost_and_emissions(self, bundled, a5):
        row = perturb_and_evaluate(bundled, a5, Perturbation(PerturbTarget.LOAD, 0.10))
        assert row.npc_dev_pct > 0.0
        assert row.co2_dev_pct > 0.0

    def test_load_down_lowers_cost_and_emissions(self, bundled, a5):
        row = perturb_and_evaluate(bundled, a5, Perturbation(PerturbTarget.LOAD, -0.10))
        assert row.npc_dev_pct < 0.0
        assert row.co2_dev_pct < 0.0

    def test_pv_up_lowers_cost_and_emissions(self, bundled, a5):
        row = perturb_and_evaluate(bundled, a5, Perturbation(PerturbTarget.PV_OUTPUT, 0.10))
        assert row.npc_dev_pct < 0.0
        assert row.co2_dev_pct < 0.0

    def test_reliability_flat_across_standard_grid(self, bundled, a5):
        rows = deviation_table(bundled, a5)
        assert all(row.reliability_dev == 0.0 for row in rows)

    def test_csv_layout(self, tmp_path, bundled, a5):
        rows = [perturb_and_evaluate(bundled, a5, Perturbation(PerturbTarget.LOAD, 0.05))]
        path = tmp_path / "dev.csv"
        write_deviation_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("parameter,uncertainty_pct,npc_dev_pct")
        assert lines[1].startswith("load,5,")


class TestLcoeSweep:
    MULTS = [0.8, 0.9, 1.0, 1.1, 1.2]

    def test_unit_multiplier_is_baseline(self, bundled, a5):
        baseline = evaluate(a5, bundled).lcoe_usd_per_kwh
        curve = dict(lcoe_sweep(bundled, a5, SweepParameter.PURCHASE_PRICE, self.MULTS))
        assert curve[1.0] == pytest.approx(baseline, rel=1e-12)

    def test_monotone_directions(self, bundled, a5):
        for parameter in (SweepParameter.PURCHASE_PRICE, SweepParameter.BATTERY_CAPITAL,
                          SweepParameter.PV_CAPITAL):
            values = [v for _, v in lcoe_sweep(bundled, a5, parameter, self.MULTS)]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:])), parameter
        sell = [v for _, v in lcoe_sweep(bundled, a5, SweepParameter.SELLBACK_PRICE, self.MULTS)]
        assert all(a >= b - 1e-12 for a, b in zip(sell, sell[1:]))

    def test_purchase_dominates_battery_dominates_pv(self, bundled, a5):
        def rel_increase(parameter):
            curve = dict(lcoe_sweep(bundled, a5, parameter, [1.0, 1.2]))
            return (curve[1.2] - curve[1.0]) / curve[1.0]

        purchase = rel_increase(SweepParameter.PURCHASE_PRICE)
        battery = rel_increase(SweepParameter.BATTERY_CAPITAL)
        pv = rel_increase(SweepParameter.PV_CAPITAL)
        assert purchase > battery > pv > 0.0

    def test_sellback_has_smallest_range(self, bundled, a5):
        ranges = {}
        for parameter in SweepParameter:
            values = [v for _, v in lcoe_sweep(bundled, a5, parameter, self.MULTS)]
            ranges[parameter] = max(values) - min(values)
        assert ranges[SweepParameter.SELLBACK_PRICE] == min(ranges.values())

    def test_bad_multiplier(self, bundled, a5):
        with pytest.raises(ValueError):
            lcoe_sweep(bundled, a5, SweepParameter.PURCHASE_PRICE, [0.0, 1.0])

    @pytest.mark.parametrize("parameter, value", [
        (SweepParameter.PURCHASE_PRICE, "inf"), (SweepParameter.SELLBACK_PRICE, "-inf"),
        (SweepParameter.BATTERY_CAPITAL, "nan"), (SweepParameter.PV_CAPITAL, "nan"),
    ])
    def test_overflowing_multiplier_raises_naming_it(self, bundled, a5, parameter, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is reported once, as the error
            with pytest.raises(NonFiniteMetricError) as exc:
                lcoe_sweep(bundled, a5, parameter, [1.0, 1e305])
        assert str(exc.value) == f"lcoe_usd_per_kwh = {value} with {parameter.value} x 1e+305"

    def test_supplied_trace_gives_the_same_curve(self, bundled, a5):
        trace = simulate_year(bundled, a5)
        for parameter in SweepParameter:
            assert (lcoe_sweep(bundled, a5, parameter, self.MULTS, trace=trace)
                    == lcoe_sweep(bundled, a5, parameter, self.MULTS))

    def test_csv(self, tmp_path, bundled, a5):
        curve = lcoe_sweep(bundled, a5, SweepParameter.SELLBACK_PRICE, [1.0])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(curve, path)
        assert path.read_text().splitlines()[0] == "multiplier,lcoe_usd_per_kwh"
