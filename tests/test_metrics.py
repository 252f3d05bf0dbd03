import functools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgdesign import dispatch, metrics
from mgdesign.dispatch import Design, simulate_year
from mgdesign.metrics import (
    Evaluator,
    NonFiniteMetricError,
    TwinYear,
    battery_npc_floor,
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


@functools.cache
def _priced_scenario(seed: int, tariff: str) -> Scenario:
    """``random_scenario(seed)`` with its flat prices, with hourly purchase
    and sellback prices drawn from the seed, or with no sellback at all."""
    scenario = random_scenario(seed)
    if tariff == "flat":
        return scenario
    rng = np.random.default_rng(seed)
    prices = dict(sellback_usd_per_kwh=0.0) if tariff == "no sellback" else dict(
        purchase_usd_per_kwh=TimeSeries(rng.uniform(0.05, 0.6, 8760), Unit.USD_PER_KWH),
        sellback_usd_per_kwh=TimeSeries(rng.uniform(0.0, 0.2, 8760), Unit.USD_PER_KWH))
    return replace(scenario, tariff=replace(scenario.tariff, **prices))


def _battery_design(seed: int, bess_kwh: float) -> Design:
    return replace(random_design(seed), bess_kwh=bess_kwh)


_SEEDS = st.integers(0, 5)
_TARIFFS = st.sampled_from(["flat", "hourly", "no sellback"])
_BANKS = st.floats(min_value=1.0, max_value=1200.0)


class TestBatteryNpcFloor:
    """The laws behind :func:`battery_npc_floor`, each a law of the model:
    the tank sum keeps to the usable window, a battery delivers at most one
    window between two charging hours, and no design costs less than its
    floor."""

    @settings(max_examples=100, deadline=None)
    @given(seed=_SEEDS, design_seed=st.integers(0, 2**20), bess_kwh=_BANKS)
    def test_tank_sum_stays_in_the_usable_window(self, seed, design_seed, bess_kwh):
        scenario = _priced_scenario(seed, "flat")
        spec = scenario.catalog.battery
        trace = simulate_year(scenario, _battery_design(design_seed, bess_kwh))
        tanks = trace.soc * bess_kwh
        assert tanks.min() >= spec.soc_min * bess_kwh * (1.0 - 1e-12)
        assert tanks.max() <= spec.soc_max * bess_kwh * (1.0 + 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(seed=_SEEDS, design_seed=st.integers(0, 2**20), bess_kwh=_BANKS)
    def test_one_window_delivered_between_charging_hours(self, seed, design_seed, bess_kwh):
        scenario = _priced_scenario(seed, "flat")
        spec, eta = scenario.catalog.battery, scenario.catalog.converter.efficiency
        trace = simulate_year(scenario, _battery_design(design_seed, bess_kwh))
        delivered = trace.batt_discharge_kw * eta   # on the AC bus
        stretch = np.cumsum(trace.batt_charge_kw > 0.0)   # a charging hour starts a stretch
        per_stretch = np.bincount(stretch, weights=delivered)
        window = (spec.soc_max - spec.soc_min) * bess_kwh * eta * math.sqrt(spec.roundtrip_efficiency)
        assert per_stretch.max() <= window * (1.0 + 1e-12)

    @settings(max_examples=150, deadline=None)
    @given(seed=_SEEDS, tariff=_TARIFFS, design_seed=st.integers(0, 2**20), bess_kwh=_BANKS)
    def test_no_design_costs_less_than_its_floor(self, seed, tariff, design_seed, bess_kwh):
        scenario = _priced_scenario(seed, tariff)
        design = replace(_battery_design(design_seed, bess_kwh), dg_kw=0.0)
        evaluator = Evaluator(scenario)
        evaluator(replace(design, bess_kwh=0.0))
        floor = evaluator.npc_floor(design)
        assert math.isfinite(floor)
        assert evaluate(design, scenario).npc_usd >= floor

    # Sun from 6 to 18 h refills the bank by day and a flat load empties it
    # each night: the 366 windows are the nights.  With no sellback, or
    # charged from PV the converter cannot take (which the twin curtails),
    # each kWh delivered saves the purchase price; charged from PV the twin
    # sells, it also costs that sale, at 0.05 $/kWh by day (0.15 at night,
    # when nothing is sold, so the credit must take the lowest price).
    @pytest.mark.parametrize("pv_kw, converter_kw, sellback", [
        (1000.0, 255.0, 0.0), (1000.0, 255.0, 0.1), (300.0, 400.0, "by day")],
        ids=["no sellback", "charged from curtailment", "charged from sales"])
    def test_tight_where_the_battery_empties_every_night(self, pv_kw, converter_kw, sellback):
        hour = np.arange(8760) % 24
        if sellback == "by day":
            sellback = TimeSeries(np.where((hour >= 6) & (hour < 18), 0.05, 0.15), Unit.USD_PER_KWH)
        scenario = _flat_scenario(irr=0.0, tariff=GridTariff(sellback_usd_per_kwh=sellback))
        scenario = replace(scenario, irradiance=TimeSeries(np.where((hour >= 6) & (hour < 18), 1.0, 0.0),
                                                           Unit.KW_PER_M2))
        design = Design(pv_kw=pv_kw, bess_kwh=50.0, converter_kw=converter_kw)
        twin = replace(design, bess_kwh=0.0)
        assert dispatch.discharge_windows(dispatch.battery_stage(scenario, twin)) == 366
        evaluator = Evaluator(scenario)
        twin_npc = evaluator(twin).npc_usd
        battery_pw = battery_npc_floor(TwinYear(0.0, 0, 0.0, 0), design.bess_kwh, scenario)   # no credit
        credit = twin_npc + battery_pw - evaluator.npc_floor(design)
        saving = twin_npc + battery_pw - evaluate(design, scenario).npc_usd
        assert 0.99 * credit < saving <= credit

    def test_no_floor_without_a_simulated_twin_or_with_a_diesel(self, bundled):
        evaluator = Evaluator(bundled)
        design = Design(pv_kw=300.0, bess_kwh=50.0, converter_kw=255.0)
        assert evaluator.npc_floor(design) == -math.inf
        evaluator(replace(design, bess_kwh=0.0))
        assert math.isfinite(evaluator.npc_floor(design))
        evaluator(Design(pv_kw=300.0, dg_kw=30.0, converter_kw=255.0))
        assert evaluator.npc_floor(Design(pv_kw=300.0, dg_kw=30.0, bess_kwh=50.0, converter_kw=255.0)) == -math.inf
        assert evaluator.npc_floor(replace(design, bess_kwh=0.0)) == -math.inf

    def test_npc_answers_with_the_floor_only_at_or_above_the_ceiling(self, bundled, monkeypatch):
        evaluator = Evaluator(bundled)
        twin = Design(pv_kw=300.0, converter_kw=255.0)
        design = replace(twin, bess_kwh=50.0)
        ceiling = evaluator(twin).npc_usd
        floor = evaluator.npc_floor(design)
        assert floor > ceiling
        expected = evaluate(design, bundled).npc_usd
        sims = spy_calls(monkeypatch, metrics, "simulate_year")
        assert evaluator.npc(design, ceiling) == floor
        assert evaluator.npc(design, floor) == floor
        assert (evaluator.ruled_out, len(sims)) == (1, 0)   # one design, asked twice
        # Just above the window floor, the delivery bound's floor answers.
        bound = dispatch.max_delivery_kwh(dispatch.battery_stage(bundled, twin), design.bess_kwh, bundled.catalog)
        tighter = evaluator._floor(design, twin, bound)
        assert floor < tighter <= expected
        assert evaluator.npc(design, math.nextafter(floor, math.inf)) == tighter
        assert evaluator.npc(design, math.nextafter(tighter, math.inf)) == expected
        assert (evaluator.ruled_out, len(sims), evaluator.simulated) == (0, 1, 2)
        assert evaluator.npc(design, math.inf) == expected   # a memo hit
        assert (evaluator.ruled_out, len(sims)) == (0, 1)

    def test_discharge_windows_need_a_battery_less_stage(self, bundled, a5):
        with pytest.raises(ValueError, match="battery-less stage"):
            dispatch.discharge_windows(dispatch.battery_stage(bundled, a5))

    @settings(max_examples=100, deadline=None)
    @given(seed=_SEEDS, design_seed=st.integers(0, 2**20), bess_kwh=_BANKS)
    def test_no_hour_charges_above_the_cap(self, seed, design_seed, bess_kwh):
        scenario = _priced_scenario(seed, "flat")
        trace = simulate_year(scenario, _battery_design(design_seed, bess_kwh))
        cap = dispatch.charge_cap_kw(bess_kwh, scenario.catalog)
        assert trace.batt_charge_kw.max() <= cap * (1.0 + 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(seed=_SEEDS, design_seed=st.integers(0, 2**20), bess_kwh=_BANKS)
    def test_a_charge_costs_its_sales_less_the_twin_curtailment(self, seed, design_seed, bess_kwh):
        # Per hour: 0 <= E_twin - E_design, and eta * charge - curtailed_twin <= E_twin - E_design.
        scenario = _priced_scenario(seed, "flat")
        design = _battery_design(design_seed, bess_kwh)
        trace = simulate_year(scenario, design)
        twin = simulate_year(scenario, replace(design, bess_kwh=0.0))
        lost = twin.grid_export_kw - trace.grid_export_kw
        tolerance = 1e-12 * (1.0 + trace.pv_kw + trace.wt_kw)
        assert np.all(lost >= -tolerance)
        eta = scenario.catalog.converter.efficiency
        assert np.all(lost >= eta * trace.batt_charge_kw - twin.curtailed_kw - tolerance)

    @settings(max_examples=100, deadline=None)
    @given(seed=_SEEDS, design_seed=st.integers(0, 2**20), bess_kwh=_BANKS)
    def test_no_year_delivers_more_than_the_delivery_bound(self, seed, design_seed, bess_kwh):
        scenario = _priced_scenario(seed, "flat")
        design = _battery_design(design_seed, bess_kwh)
        delivered = simulate_year(scenario, design).batt_discharge_kw.sum() * scenario.catalog.converter.efficiency
        twin = dispatch.battery_stage(scenario, replace(design, bess_kwh=0.0))
        assert delivered <= dispatch.max_delivery_kwh(twin, bess_kwh, scenario.catalog) * (1.0 + 1e-12) + 1e-9

    def test_the_delivery_bound_is_close_where_days_refill_the_bank(self, bundled):
        # The bank empties most nights, and the bound loses only what the
        # kinetic rate limits keep back: within 5% of the real delivery.
        design = Design(pv_kw=325.0, bess_kwh=100.0, converter_kw=280.0)
        delivered = simulate_year(bundled, design).batt_discharge_kw.sum() * bundled.catalog.converter.efficiency
        twin = dispatch.battery_stage(bundled, replace(design, bess_kwh=0.0))
        bound = dispatch.max_delivery_kwh(twin, design.bess_kwh, bundled.catalog)
        assert delivered <= bound < 1.05 * delivered
        with pytest.raises(ValueError, match="battery-less stage"):
            dispatch.max_delivery_kwh(dispatch.battery_stage(bundled, design), design.bess_kwh, bundled.catalog)

    def test_npc_tries_the_delivery_bound_only_where_it_can_close_the_gap(self, bundled, monkeypatch):
        # From pv=350,bess=50,conv=230 refine probes conv=255: the window
        # floor falls short of the incumbent's NPC, the delivery bound's
        # floor does not.
        incumbent = Design(pv_kw=350.0, bess_kwh=50.0, converter_kw=230.0)
        probe = replace(incumbent, converter_kw=255.0)
        ceiling = evaluate(incumbent, bundled).npc_usd
        bounds = spy_calls(monkeypatch, metrics, "max_delivery_kwh")
        evaluator = Evaluator(bundled)
        assert evaluator.npc(probe, ceiling) >= ceiling > evaluator.npc_floor(probe)
        assert (len(bounds), evaluator.ruled_out, evaluator.twins, evaluator.simulated) == (1, 1, 1, 1)
        evaluator.npc(replace(probe, bess_kwh=100.0), ceiling - 1e6)   # too far below: no bound tried
        assert len(bounds) == 1

    def test_the_sales_credit_is_tighter_where_sellback_pays(self, bundled):
        # Each kWh delivered was charged from surplus that would have sold, so
        # on the bundled prices the credit is well below p_max * N * W.
        design = Design(pv_kw=325.0, bess_kwh=100.0, converter_kw=280.0)
        evaluator = Evaluator(bundled)
        twin = evaluator(replace(design, bess_kwh=0.0))
        year = evaluator._twin_years[replace(design, bess_kwh=0.0)]
        spec, eta = bundled.catalog.battery, bundled.catalog.converter.efficiency
        window = (spec.soc_max - spec.soc_min) * design.bess_kwh * eta * math.sqrt(spec.roundtrip_efficiency)
        purchases_only = metrics._annuity(bundled.economics) * 0.3 * year.windows * window
        battery_pw = battery_npc_floor(TwinYear(0.0, 0, 0.0, 0), design.bess_kwh, bundled)
        credit = twin.npc_usd + battery_pw - evaluator.npc_floor(design)
        saving = twin.npc_usd + battery_pw - evaluate(design, bundled).npc_usd
        assert saving <= credit < 0.7 * purchases_only

    def test_npc_simulates_a_missing_twin_for_the_floor(self, bundled, monkeypatch):
        twin = Design(pv_kw=300.0, converter_kw=255.0)
        design = replace(twin, bess_kwh=50.0)
        ceiling = evaluate(twin, bundled).npc_usd
        sims = spy_calls(monkeypatch, metrics, "simulate_year")
        evaluator = Evaluator(bundled)
        assert evaluator.npc(design, ceiling) == evaluator.npc_floor(design) > ceiling
        assert [args[1] for args in sims] == [twin]
        assert (evaluator.simulated, evaluator.twins, evaluator.ruled_out) == (1, 1, 1)
        assert evaluator(twin).npc_usd == ceiling   # asked for now: no longer only a twin
        assert (len(sims), evaluator.simulated, evaluator.twins) == (1, 1, 0)
        # No twin without a finite ceiling or with a diesel: the floor could not answer.
        fresh = Evaluator(bundled)
        fresh.npc(design, math.inf)
        fresh.npc(replace(design, pv_kw=310.0, dg_kw=30.0), ceiling)
        assert (fresh.simulated, fresh.twins) == (2, 0)

    def test_a_twin_that_is_not_finite_gives_no_floor(self, bundled, monkeypatch):
        design = Design(pv_kw=300.0, bess_kwh=50.0, converter_kw=255.0)
        original = metrics.evaluate

        def battery_only(design, scenario, trace=None):
            if not design.bess_kwh:
                raise NonFiniteMetricError("twin")
            return original(design, scenario, trace)

        monkeypatch.setattr(metrics, "evaluate", battery_only)
        evaluator = Evaluator(bundled)
        assert evaluator.npc(design, 0.0) == original(design, bundled).npc_usd
        assert (evaluator.simulated, evaluator.twins, evaluator.ruled_out) == (1, 0, 0)

    def test_a_diesel_probe_reuses_the_battery_stage_across_a_twin(self, bundled, monkeypatch):
        design = Design(pv_kw=300.0, bess_kwh=50.0, converter_kw=255.0)
        stages = spy_calls(monkeypatch, dispatch, "pv_series")   # once per stage computed
        loops = spy_calls(monkeypatch, dispatch, "_battery_hours")
        evaluator = Evaluator(bundled)
        for probe in (design, replace(design, bess_kwh=0.0), replace(design, dg_kw=30.0)):
            assert evaluator(probe) == evaluate(probe, bundled)
        assert (len(stages), len(loops)) == (2, 1)


class TestRecords:
    def test_cost_record_fields(self, bundled, a5):
        from mgdesign.metrics import COST_FIELDS, cost_record
        from mgdesign.dispatch import simulate_year

        trace = simulate_year(bundled, a5)
        _, costs = npc(trace, a5, bundled)
        record = cost_record(costs)
        assert tuple(record) == COST_FIELDS
        assert record["capital_usd"] == costs.capital_usd
