import dataclasses
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mgdesign.dispatch import simulate_year
from mgdesign.metrics import NonFiniteMetricError, evaluate, metric_record
from mgdesign.scenario import TimeSeries, Unit, scale_series
from mgdesign.sensitivity import (
    _PERTURBED_SERIES,
    _SWEPT_FIELDS,
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

from .helpers import reference_scale_series, reference_scaled_scenario

SWEEP_MULTIPLIERS = [0.8, 0.9, 1.0, 1.1, 1.2]


def _hourly_prices(scenario, purchase, sellback):
    tariff = replace(scenario.tariff,
                     purchase_usd_per_kwh=TimeSeries(purchase, Unit.USD_PER_KWH),
                     sellback_usd_per_kwh=TimeSeries(sellback, Unit.USD_PER_KWH))
    return replace(scenario, tariff=tariff)


@pytest.fixture(scope="module", params=["flat", "hourly"])
def priced(request, bundled):
    """The bundled scenario, and a copy whose prices vary by the hour."""
    if request.param == "flat":
        return bundled
    rng = np.random.default_rng(7)
    return _hourly_prices(bundled, rng.uniform(0.1, 0.5, 8760), rng.uniform(0.0, 0.2, 8760))


@pytest.fixture(scope="module")
def baseline(bundled, a5):
    return evaluate(a5, bundled)


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

    def test_load_up_raises_cost_and_emissions(self, bundled, a5, baseline):
        row = perturb_and_evaluate(bundled, a5, Perturbation(PerturbTarget.LOAD, 0.10), baseline)
        assert row.npc_dev_pct > 0.0
        assert row.co2_dev_pct > 0.0

    def test_load_down_lowers_cost_and_emissions(self, bundled, a5, baseline):
        row = perturb_and_evaluate(bundled, a5, Perturbation(PerturbTarget.LOAD, -0.10), baseline)
        assert row.npc_dev_pct < 0.0
        assert row.co2_dev_pct < 0.0

    def test_pv_up_lowers_cost_and_emissions(self, bundled, a5, baseline):
        row = perturb_and_evaluate(bundled, a5, Perturbation(PerturbTarget.PV_OUTPUT, 0.10), baseline)
        assert row.npc_dev_pct < 0.0
        assert row.co2_dev_pct < 0.0

    def test_reliability_flat_across_standard_grid(self, bundled, a5):
        rows = deviation_table(bundled, a5)
        assert all(row.reliability_dev == 0.0 for row in rows)

    def test_csv_layout(self, tmp_path, bundled, a5, baseline):
        rows = [perturb_and_evaluate(bundled, a5, Perturbation(PerturbTarget.LOAD, 0.05), baseline)]
        path = tmp_path / "dev.csv"
        write_deviation_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("parameter,uncertainty_pct,npc_dev_pct")
        assert lines[1].startswith("load,5,")


def assert_same_variant(variant, reference, original, prefix=""):
    """Every field the reference changed is bit-equal in ``variant``; every
    field it left alone is the very object of ``original``."""
    for f in dataclasses.fields(original):
        name = prefix + f.name
        got, want, old = (getattr(record, f.name) for record in (variant, reference, original))
        if want is old:
            assert got is old, f"{name} was copied"
        elif isinstance(old, TimeSeries):
            assert got.unit is want.unit and got.values.tobytes() == want.values.tobytes(), name
        elif dataclasses.is_dataclass(old):
            assert_same_variant(got, want, old, name + ".")
        else:
            assert type(got) is type(want) and np.float64(got).tobytes() == np.float64(want).tobytes(), name


_KEYWORDS = {PerturbTarget.LOAD: "load", PerturbTarget.PV_OUTPUT: "irradiance", PerturbTarget.WIND_OUTPUT: "wind"}


class TestVariantsMatchReference:
    @pytest.mark.parametrize("perturbation", standard_perturbations(),
                             ids=lambda p: f"{p.target.value}{p.delta:+g}")
    def test_perturbed_series(self, priced, perturbation):
        factor = 1.0 + perturbation.delta
        variant = scale_series(priced, _PERTURBED_SERIES[perturbation.target], factor)
        reference = reference_scale_series(priced, **{_KEYWORDS[perturbation.target]: factor})
        assert_same_variant(variant, reference, priced)

    @pytest.mark.parametrize("parameter", list(SweepParameter))
    @pytest.mark.parametrize("multiplier", SWEEP_MULTIPLIERS)
    def test_swept_parameter(self, priced, parameter, multiplier):
        variant = scale_series(priced, _SWEPT_FIELDS[parameter], multiplier)
        assert_same_variant(variant, reference_scaled_scenario(priced, parameter, multiplier), priced)

    def test_a_section_is_scaled_alone(self, bundled):
        battery = scale_series(bundled.catalog.battery, ("capital_usd_per_kwh",), 2.0)
        assert battery.capital_usd_per_kwh == 2.0 * bundled.catalog.battery.capital_usd_per_kwh
        assert battery.replacement_usd_per_kwh is bundled.catalog.battery.replacement_usd_per_kwh


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

    def test_constant_hourly_prices_give_the_flat_curves(self, bundled, a5):
        hourly = _hourly_prices(bundled, np.full(8760, 0.30), np.full(8760, 0.10))
        assert (bundled.tariff.purchase_usd_per_kwh, bundled.tariff.sellback_usd_per_kwh) == (0.30, 0.10)
        flat_trace, hourly_trace = simulate_year(bundled, a5), simulate_year(hourly, a5)
        for parameter in SweepParameter:
            assert (lcoe_sweep(hourly, a5, parameter, SWEEP_MULTIPLIERS, trace=hourly_trace)
                    == lcoe_sweep(bundled, a5, parameter, SWEEP_MULTIPLIERS, trace=flat_trace)), parameter

    def test_csv(self, tmp_path, bundled, a5):
        curve = lcoe_sweep(bundled, a5, SweepParameter.SELLBACK_PRICE, [1.0])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(curve, path)
        assert path.read_text().splitlines()[0] == "multiplier,lcoe_usd_per_kwh"
