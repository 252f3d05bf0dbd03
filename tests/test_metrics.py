import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mgdesign import dispatch, metrics
from mgdesign.dispatch import Design, simulate_year
from mgdesign.metrics import (
    Evaluator,
    NonFiniteMetricError,
    co2_delta,
    crf,
    efficiency,
    evaluate,
    lcoe,
    lpsp,
    metric_record,
    npc,
    reliability,
)
from mgdesign.scenario import (
    Catalog,
    Economics,
    GridTariff,
    PVSpec,
    Scenario,
    TimeSeries,
    Unit,
)

from .conftest import random_design, random_scenario
from .helpers import spy_calls


def _flat_scenario(load_kw=100.0, irr=0.0, wind=0.0, **kwargs):
    n = 8760
    return Scenario(
        load=TimeSeries(np.full(n, load_kw), Unit.KW),
        irradiance=TimeSeries(np.full(n, irr), Unit.KW_PER_M2),
        wind_speed=TimeSeries(np.full(n, wind), Unit.M_PER_S),
        name="flat",
        **kwargs,
    )


class TestNPC:
    def test_undiscounted_one_year(self):
        # capital 100, one year costing 50, no salvage: plain sum
        scenario = _flat_scenario(
            load_kw=0.0,
            economics=Economics(discount_rate=0.0, project_years=1),
            catalog=Catalog(pv=PVSpec(capital_usd_per_kw=100.0, om_usd_per_kw_yr=50.0,
                                      lifetime_years=1)),
        )
        design = Design(pv_kw=1.0)
        trace = simulate_year(scenario, design)
        total, costs = npc(trace, design, scenario)
        assert total == pytest.approx(150.0)
        assert costs.capital_usd == 100.0
        assert costs.om_usd_per_yr == 50.0
        assert costs.salvage_usd_pw == 0.0

    def test_capital_only_design(self):
        # zero O&M, lifetime equal to the project: NPC is the capital alone
        scenario = _flat_scenario(
            load_kw=0.0,
            economics=Economics(discount_rate=0.06, project_years=25),
            catalog=Catalog(pv=PVSpec(capital_usd_per_kw=1300.0, om_usd_per_kw_yr=0.0,
                                      lifetime_years=25)),
        )
        design = Design(pv_kw=10.0)
        trace = simulate_year(scenario, design)
        total, _ = npc(trace, design, scenario)
        assert total == pytest.approx(13000.0)

    def test_zero_rate_matches_plain_accumulator(self, bundled, a5):
        scenario = replace(bundled, economics=replace(bundled.economics, discount_rate=0.0))
        trace = simulate_year(scenario, a5)
        total, costs = npc(trace, a5, scenario)
        # independent plain-sum accumulator
        years = scenario.economics.project_years
        recurring = (costs.om_usd_per_yr + costs.fuel_usd_per_yr
                     + costs.grid_energy_usd_per_yr - costs.sellback_usd_per_yr)
        plain = costs.capital_usd + years * recurring
        cat = scenario.catalog
        plain += 2 * a5.bess_kwh * cat.battery.replacement_usd_per_kwh       # years 10, 20
        plain += a5.converter_kw * cat.converter.replacement_usd_per_kw      # year 15
        plain += a5.pv_kw * cat.pv.replacement_usd_per_kw                    # year 20
        plain += a5.wt_kw * cat.wind.replacement_usd_per_kw                  # year 20
        plain -= a5.pv_kw * cat.pv.replacement_usd_per_kw * 15 / 20
        plain -= a5.wt_kw * cat.wind.replacement_usd_per_kw * 15 / 20
        plain -= a5.bess_kwh * cat.battery.replacement_usd_per_kwh * 5 / 10
        plain -= a5.converter_kw * cat.converter.replacement_usd_per_kw * 5 / 15
        assert total == pytest.approx(plain, rel=1e-12)

    def test_bundled_a5_in_published_band(self, bundled, a5):
        trace = simulate_year(bundled, a5)
        total, _ = npc(trace, a5, bundled)
        assert 4.0e6 <= total <= 5.7e6

    def test_diesel_om_accrues_per_operating_hour(self, bundled):
        design = Design(dg_kw=260.0, grid_cap_kw=0.0)
        trace = simulate_year(bundled, design)
        _, costs = npc(trace, design, bundled)
        expected = 0.03 * 260.0 * trace.dg_hours
        assert costs.om_usd_per_yr == pytest.approx(expected)


class TestLCOE:
    def test_zero_rate(self):
        assert lcoe(1000.0, 100.0, 0.0, 10) == pytest.approx(1.0)

    def test_crf_annualization(self):
        assert crf(0.06, 25) == pytest.approx(0.07822671821227395, rel=1e-12)
        value = lcoe(4.83e6, 3139.3 * 365.0, 0.06, 25)
        assert value == pytest.approx(0.3297437383216337, rel=1e-9)

    def test_zero_served(self):
        assert lcoe(1000.0, 0.0, 0.06, 25) == math.inf

    def test_overflowing_rate_names_the_rate_and_years(self):
        with pytest.raises(NonFiniteMetricError) as err:
            lcoe(1.0, 1.0, 1e308, 25)
        assert str(err.value) == "lcoe_usd_per_kwh overflows: (1 + 1e+308) ** 25 is beyond a float"

    def test_homogeneous_in_npc(self):
        base = lcoe(2.0e6, 1.0e6, 0.06, 25)
        assert lcoe(6.0e6, 1.0e6, 0.06, 25) == pytest.approx(3.0 * base)


class TestLPSPAndReliability:
    def test_no_unmet(self, bundled, a5):
        trace = simulate_year(bundled, a5)
        assert lpsp(trace) == 0.0
        assert reliability(0.0, 100.0) == 1.0

    def test_ratio(self, bundled):
        trace = simulate_year(bundled, Design(grid_cap_kw=0.0))  # nothing serves
        assert lpsp(trace) == pytest.approx(1.0)

    def test_zero_load_guard(self, bundled):
        zero = replace(bundled, load=TimeSeries(np.zeros(8760), Unit.KW))
        trace = simulate_year(zero, Design())
        assert lpsp(trace) == 0.0

    def test_exponential_map(self):
        assert reliability(0.01, 100.0) == pytest.approx(math.exp(-1.0))
        # the published 0.9994 corresponds to lpsp 6.0e-6 at the default lambda
        assert reliability(6.001800720324606e-06, 100.0) == pytest.approx(0.9994, abs=1e-7)

    def test_strictly_decreasing(self):
        values = [reliability(x, 100.0) for x in (0.0, 0.001, 0.01, 0.1, 1.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestEfficiency:
    def test_lossless_pass_through(self, bundled):
        # grid-only: imports equal served load exactly, no conversion
        trace = simulate_year(bundled, Design(grid_cap_kw=500.0))
        assert efficiency(trace) == pytest.approx(100.0)

    def test_bundled_a5_band(self, bundled, a5):
        trace = simulate_year(bundled, a5)
        assert 88.0 <= efficiency(trace) <= 95.0

    def test_capped_at_100(self, bundled):
        # the battery starts the year full and this design ends it lower, so
        # it serves slightly more than its net input
        trace = simulate_year(bundled, Design(pv_kw=418.0, bess_kwh=1400.0, converter_kw=100.0))
        net_input = trace.renewable_kwh + trace.dg_kwh + trace.import_kwh - trace.loss_kwh
        assert 100.0 < 100.0 * trace.served_kwh / net_input < 100.2
        assert efficiency(trace) == 100.0

    def test_zero_input(self, bundled):
        zero = replace(bundled, load=TimeSeries(np.zeros(8760), Unit.KW))
        trace = simulate_year(zero, Design())
        assert efficiency(trace) == 100.0


class TestCO2Delta:
    def test_all_renewable(self, bundled):
        design = Design(pv_kw=100.0, converter_kw=100.0, grid_cap_kw=0.0)
        trace = simulate_year(bundled, design)
        expected = trace.renewable_kwh * (1.0 - 0.005) * 0.79
        assert co2_delta(trace, bundled) == pytest.approx(expected)

    def test_credits_renewable_output_before_curtailment(self, bundled):
        # far more PV than the converter, the load and a closed grid take
        design = Design(pv_kw=800.0, converter_kw=60.0, grid_cap_kw=0.0)
        trace = simulate_year(bundled, design)
        assert trace.curtailed_kwh > 0.5 * trace.pv_kwh
        assert trace.import_kwh == 0.0 and trace.fuel_l == 0.0
        ef = bundled.tariff.emission_kg_per_kwh
        kept = 1.0 - bundled.catalog.pv.degradation_per_yr
        before_curtailment = (trace.pv_kwh * kept + trace.wt_kwh) * ef
        after_curtailment = ((trace.pv_kwh - trace.curtailed_kwh) * kept + trace.wt_kwh) * ef
        assert co2_delta(trace, bundled) == pytest.approx(before_curtailment, rel=1e-12)
        assert co2_delta(trace, bundled) - after_curtailment == pytest.approx(
            trace.curtailed_kwh * kept * ef, rel=1e-9)

    def test_import_only(self, bundled):
        trace = simulate_year(bundled, Design(grid_cap_kw=500.0))
        assert co2_delta(trace, bundled) == pytest.approx(-trace.import_kwh * 0.79)

    def test_linear_in_emission_factor(self, bundled, a5):
        trace = simulate_year(bundled, a5)
        base = co2_delta(trace, bundled)
        doubled = replace(bundled, tariff=replace(bundled.tariff, emission_kg_per_kwh=1.58))
        assert co2_delta(trace, doubled) == pytest.approx(2.0 * base, rel=1e-12)

    def test_grid_baseline_reduction_band(self, bundled, a5):
        mine = evaluate(a5, bundled)
        grid_only = evaluate(Design(), bundled)
        reduction = (grid_only.co2_kg_per_yr - mine.co2_kg_per_yr) / grid_only.co2_kg_per_yr
        assert 0.90 <= reduction <= 0.99


class TestEvaluate:
    def test_grid_only_composition(self, bundled):
        m = evaluate(Design(), bundled)
        assert m.reliability == 1.0
        assert m.co2_kg_per_yr > 0.0           # net emitter
        assert m.capital_usd == 0.0
        assert m.lcoe_usd_per_kwh == pytest.approx(0.30, abs=0.005)

    def test_zero_capacity_nonzero_load(self, bundled):
        m = evaluate(Design(grid_cap_kw=0.0), bundled)
        assert m.lpsp == pytest.approx(1.0)
        assert m.reliability == pytest.approx(math.exp(-100.0))
        assert m.lcoe_usd_per_kwh == math.inf

    def test_deterministic_bit_identical(self, bundled, a5):
        m1 = evaluate(a5, bundled)
        m2 = evaluate(a5, bundled)
        assert metric_record(m1) == metric_record(m2)

    def test_bundled_a5_regression(self, bundled, a5):
        # golden values pinned from the first verified run of the bundled scenario
        m = evaluate(a5, bundled)
        assert m.npc_usd == pytest.approx(4768251.428747095, rel=1e-9)
        assert m.efficiency_pct == pytest.approx(93.44693069294169, rel=1e-9)
        assert m.reliability == 1.0
        assert m.co2_kg_per_yr == pytest.approx(32508.641073449107, rel=1e-9)
        assert m.lcoe_usd_per_kwh == pytest.approx(0.3260821242046603, rel=1e-9)
        assert m.capital_usd == pytest.approx(1395600.0, rel=1e-12)
        assert m.om_usd_per_yr == pytest.approx(418 * 10 + 123 * 207 + 704 * 10, rel=1e-12)
        assert m.lpsp == 0.0

    @pytest.mark.parametrize("section, field, message", [
        ("tariff", "purchase_usd_per_kwh", "npc_usd = inf"),
        ("tariff", "sellback_usd_per_kwh", "npc_usd = -inf"),
        ("converter", "capital_usd_per_kw", "npc_usd = inf"),
        ("pv", "degradation_per_yr", "co2_kg_per_yr = inf"),
        ("pv", "derating", "efficiency_pct = nan, co2_kg_per_yr = nan"),
        ("wind", "shear_exponent", "efficiency_pct = nan, co2_kg_per_yr = nan"),
        ("wind", "curve_exponent", "efficiency_pct = nan, co2_kg_per_yr = nan"),
        ("economics", "discount_rate", "lcoe_usd_per_kwh overflows: (1 + 1e+308) ** 25 is beyond a float"),
    ])
    def test_huge_value_names_the_metric(self, bundled, a5, section, field, message):
        # every value here is finite, so the scenario validates
        if section in ("tariff", "economics"):
            broken = replace(bundled, **{section: replace(getattr(bundled, section), **{field: 1e308})})
        else:
            part = replace(getattr(bundled.catalog, section), **{field: 1e308})
            broken = replace(bundled, catalog=replace(bundled.catalog, **{section: part}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # NumPy overflow in the wind curve
            with pytest.raises(NonFiniteMetricError) as err:
                evaluate(a5, broken)
        assert message in str(err.value)

    def test_random_designs_finite(self):
        scenario = random_scenario(77)
        for seed in range(5):
            m = evaluate(random_design(seed), scenario)
            assert math.isfinite(m.npc_usd)
            assert 0.0 <= m.reliability <= 1.0
            assert m.efficiency_pct <= 100.0


class TestEvaluator:
    def test_repeat_returns_stored_metrics_and_simulates_nothing(self, bundled, a5, monkeypatch):
        sims = spy_calls(monkeypatch, metrics, "simulate_year")
        evaluator = Evaluator(bundled)
        first = evaluator(a5)
        assert len(sims) == 1 and evaluator.simulated == 1
        assert evaluator(a5) is first
        assert len(sims) == 1 and evaluator.simulated == 1

    def test_designs_sharing_battery_key_run_one_battery_loop(self, bundled, a5, monkeypatch):
        loops = spy_calls(monkeypatch, dispatch, "_battery_hours")
        designs = [a5, replace(a5, dg_kw=60.0), replace(a5, grid_cap_kw=300.0),
                   replace(a5, dg_kw=30.0, grid_cap_kw=100.0)]
        evaluator = Evaluator(bundled)
        results = [evaluator(design) for design in designs]
        assert len(loops) == 1
        assert evaluator.simulated == len(designs)
        # A different key replaces the kept stage; coming back runs the loop again.
        evaluator(replace(a5, bess_kwh=500.0))
        evaluator(replace(a5, dg_kw=90.0))
        assert len(loops) == 3
        monkeypatch.undo()
        assert results == [evaluate(design, bundled) for design in designs]

    def test_map_simulates_each_new_design_once_in_input_order(self, bundled, a5, monkeypatch):
        evaluator = Evaluator(bundled)
        seen = [a5, replace(a5, dg_kw=60.0)]
        evaluator.map(seen)
        loops = spy_calls(monkeypatch, dispatch, "_battery_hours")
        sims = spy_calls(monkeypatch, metrics, "simulate_year")
        bigger, wider = replace(a5, bess_kwh=500.0), replace(a5, pv_kw=300.0)
        batch = [bigger, a5, replace(bigger, grid_cap_kw=150.0), wider, seen[1], bigger,
                 replace(wider, dg_kw=30.0), Design(pv_kw=100.0, converter_kw=100.0), wider]
        results = evaluator.map(batch)
        new = [design for design in dict.fromkeys(batch) if design not in seen]
        assert sorted(map(repr, (args[1] for args in sims))) == sorted(map(repr, new))
        assert len(loops) == len({design.battery_key for design in new if design.bess_kwh > 0.0}) == 2
        assert evaluator.simulated == len(seen) + len(new)
        monkeypatch.undo()
        assert results == [evaluate(design, bundled) for design in batch]


class TestRecords:
    def test_cost_record_fields(self, bundled, a5):
        from mgdesign.metrics import COST_FIELDS, cost_record
        from mgdesign.dispatch import simulate_year

        trace = simulate_year(bundled, a5)
        _, costs = npc(trace, a5, bundled)
        record = cost_record(costs)
        assert tuple(record) == COST_FIELDS
        assert record["capital_usd"] == costs.capital_usd
