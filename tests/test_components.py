import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgdesign.components import pv_series, wt_series
from mgdesign.dispatch import Design, InvalidDesignError, simulate_year
from mgdesign.metrics import npc
from mgdesign.scenario import (
    BatterySpec,
    Catalog,
    Economics,
    Scenario,
    ScenarioValidationError,
    TimeSeries,
    Unit,
    WindTurbineSpec,
)

from .helpers import equilibrium_tanks, integrate_tanks, kernel_battery_hour, ode_max_charge, ode_max_discharge

WT = WindTurbineSpec()

#: A turbine whose output in kW at 100 kW capacity equals its hub-height
#: wind speed in m/s: a linear curve from 0 to 100 m/s and an aerodynamic
#: limit far above it, so ``wt_series`` exposes the shear extrapolation.
SPEED_PROBE = WindTurbineSpec(cut_in_ms=0.0, rated_ms=100.0, cut_out_ms=200.0,
                              curve_exponent=1.0, swept_area_m2_per_unit=1e9)


def hand_built_scenario(load_kw=(0.0,), irradiance=None, wind_ms=None, cell_temp_c=None,
                        anemometer_height_m=10.0, **fields) -> Scenario:
    """A year whose first ``len(load_kw)`` hours are given, weather
    defaulting to calm and dark; the other hours have no load, calm, dark
    weather and cells at 25 degC."""
    n = len(load_kw)

    def year(hours, unit):
        hours = np.zeros(n) if hours is None else np.asarray(hours, dtype=float)
        rest = 25.0 if unit is Unit.CELSIUS else 0.0
        return TimeSeries(np.concatenate([hours, np.full(8760 - n, rest)]), unit)

    return Scenario(
        load=year(load_kw, Unit.KW),
        irradiance=year(irradiance, Unit.KW_PER_M2),
        wind_speed=year(wind_ms, Unit.M_PER_S),
        cell_temperature=None if cell_temp_c is None else year(cell_temp_c, Unit.CELSIUS),
        anemometer_height_m=anemometer_height_m, **fields)


class TestPV:
    """``pv_series`` on one-hour scenarios."""

    @staticmethod
    def pv(capacity_kw, irradiance, cell_temp_c):
        scenario = hand_built_scenario(irradiance=[irradiance], cell_temp_c=[cell_temp_c])
        return float(pv_series(scenario, capacity_kw)[0])

    def test_stc_point(self):
        # 100 kW at standard irradiance/temperature with 0.8 derating
        assert self.pv(100.0, 1.0, 25.0) == pytest.approx(80.0)

    def test_zero_irradiance(self):
        assert self.pv(100.0, 0.0, 25.0) == 0.0

    def test_temperature_correction(self):
        # 1 kW, derating 0.8, half irradiance, 20 degC above standard
        assert self.pv(1.0, 0.5, 45.0) == pytest.approx(0.368)

    def test_linear_in_irradiance_and_capacity(self):
        # no cell-temperature series: no temperature correction
        scenario = hand_built_scenario((0.0, 0.0), irradiance=[0.4, 0.8])
        base = pv_series(scenario, 10.0)
        assert base[1] == pytest.approx(2.0 * base[0])
        assert pv_series(scenario, 30.0)[0] == pytest.approx(3.0 * base[0])

    def test_clamped_at_zero_for_extreme_heat(self):
        hot = 25.0 + 1.0 / 0.004 + 100.0  # temperature term < 0
        assert self.pv(100.0, 1.0, hot) == 0.0


class TestHubWindSpeed:
    """The shear law, read through ``wt_series`` of :data:`SPEED_PROBE`."""

    @staticmethod
    def hub_speed(u_ms, anemometer_height_m, hub_height_m, shear_exponent=0.14):
        wind = replace(SPEED_PROBE, hub_height_m=hub_height_m, shear_exponent=shear_exponent)
        scenario = hand_built_scenario(wind_ms=[u_ms], anemometer_height_m=anemometer_height_m,
                                       catalog=Catalog(wind=wind))
        return float(wt_series(scenario, 100.0)[0])

    def test_identity_at_same_height(self):
        assert self.hub_speed(7.3, 10.0, 10.0) == pytest.approx(7.3)

    def test_power_law_value(self):
        assert self.hub_speed(5.0, 10.0, 15.0, 0.14) == pytest.approx(5.292035886848778, abs=1e-9)

    def test_zero_wind(self):
        assert self.hub_speed(0.0, 10.0, 15.0) == 0.0

    def test_bad_heights(self):
        # the scenario checks reject the heights the power law cannot take
        with pytest.raises(ScenarioValidationError) as err:
            hand_built_scenario(anemometer_height_m=0.0, catalog=Catalog(wind=replace(WT, hub_height_m=-2.0)))
        assert err.value.violations == ["anemometer_height_m: must be > 0, got 0.0",
                                        "catalog.wind.hub_height_m: must be > 0, got -2.0"]


class TestWTOutput:
    """``wt_series`` with the anemometer at hub height, so the speeds
    given are the hub speeds."""

    @staticmethod
    def wt(capacity_kw, speeds, spec=WT):
        scenario = hand_built_scenario(np.zeros(len(speeds)), wind_ms=speeds,
                                       anemometer_height_m=spec.hub_height_m,
                                       catalog=Catalog(wind=spec))
        return wt_series(scenario, capacity_kw)

    def test_below_cut_in(self):
        assert self.wt(100.0, [3.0])[0] == 0.0

    def test_above_cut_out(self):
        assert self.wt(100.0, [25.0])[0] == 0.0

    def test_rated_region_clamps_to_nameplate(self):
        assert self.wt(100.0, [12.0, 15.0, 20.0, 24.0])[:4] == pytest.approx([100.0] * 4)

    def test_mid_curve_regression(self):
        # cubic rise between cut-in 4 and rated 12: (8^3-4^3)/(12^3-4^3)
        assert self.wt(100.0, [8.0])[0] == pytest.approx(26.923076923076923)

    def test_never_exceeds_nameplate(self):
        assert np.all(self.wt(55.0, np.linspace(0.0, 30.0, 121)) <= 55.0 + 1e-12)

    def test_quadratic_curve_variant(self):
        quad = replace(WT, curve_exponent=2.0)
        expected = 100.0 * (64.0 - 16.0) / (144.0 - 16.0)
        assert self.wt(100.0, [8.0], quad)[0] == pytest.approx(expected)

    def test_aero_limit_binds_for_small_swept_area(self):
        # starved rotor: aerodynamic ceiling below the curve value
        tiny = replace(WT, swept_area_m2_per_unit=1.0)
        aero = 0.5 * 1.225 * (1.0 * 100.0 / 3.0) * 8.0**3 * 0.40 / 1000.0
        assert self.wt(100.0, [8.0], tiny)[0] == pytest.approx(aero)


class TestDieselFuel:
    """The fuel law through ``simulate_year``: a 60 kW genset alone (no
    grid, no storage) against loads of 0, 30, 10 and 70 kW."""

    @staticmethod
    def trace():
        scenario = hand_built_scenario((0.0, 30.0, 10.0, 70.0))
        return simulate_year(scenario, Design(dg_kw=60.0, grid_cap_kw=0.0))

    def test_engine_off(self):
        trace = self.trace()
        assert trace.dg_kw[0] == 0.0
        assert trace.fuel_l_per_hr[0] == 0.0

    def test_linear_law(self):
        trace = self.trace()
        assert trace.dg_kw[1] == 30.0
        assert trace.fuel_l_per_hr[1] == pytest.approx(0.08 * 60.0 + 0.25 * 30.0)
        # exactly zero when off, intercept x rating + slope x output when running
        expected = np.where(trace.dg_kw > 0.0, 0.08 * 60.0 + 0.25 * trace.dg_kw, 0.0)
        assert np.array_equal(trace.fuel_l_per_hr, expected)

    def test_below_min_load(self):
        # 10 kW is below 25 % of 60 kW: the engine stays off
        trace = self.trace()
        assert trace.dg_kw[2] == 0.0
        assert trace.fuel_l_per_hr[2] == 0.0
        assert trace.unmet_kw[2] == 10.0

    def test_above_rating_rejected(self):
        # the engine runs at its rating and the rest goes unmet
        trace = self.trace()
        assert trace.dg_kw[3] == 60.0
        assert trace.fuel_l_per_hr[3] == pytest.approx(0.08 * 60.0 + 0.25 * 60.0)
        assert trace.unmet_kw[3] == pytest.approx(10.0)


def max_discharge(q1, q2, q_max=100.0, k=1.0, c=0.5, roundtrip_efficiency=0.90):
    """The kernel's discharge bound at the terminals: an hour asking for far more."""
    return -kernel_battery_hour(q1, q2, q_max, -1e12, k, c, roundtrip_efficiency)[0]


def max_charge(q1, q2, q_max=100.0, k=1.0, c=0.5, roundtrip_efficiency=0.90):
    """The kernel's charge bound at the terminals: an hour offering far more."""
    return kernel_battery_hour(q1, q2, q_max, 1e12, k, c, roundtrip_efficiency)[0]


class TestBatteryBounds:
    """The kinetic bounds of the dispatch kernel's battery, with the
    bundled window [0.2, 0.8]."""

    def test_empty_above_floor_discharge_zero(self):
        assert max_discharge(*equilibrium_tanks(100.0, 0.2, 0.5)) == 0.0

    def test_full_charge_zero(self):
        # The window top as the kernel computes it, 0.2 * 100 + (0.8 - 0.2)
        # * 100, is 1 ulp above 0.8 * 100: the closed form leaves ~5e-15 kW.
        assert max_charge(*equilibrium_tanks(100.0, 0.8, 0.5)) <= 1e-12 * 100.0

    def test_discharge_bound_against_ode_oracle(self):
        # q_max=100, soc=0.8 with window [0.2, 0.8]: 30 kWh in each tank
        bound = max_discharge(*equilibrium_tanks(100.0, 0.8, 0.5), roundtrip_efficiency=1.0)
        assert bound == pytest.approx(36.761990206816925, rel=1e-12)
        oracle = ode_max_discharge(30.0, 30.0, k=1.0, c=0.5, dt=1.0)
        assert bound == pytest.approx(float(oracle), rel=5e-3)

    def test_charge_bound_against_ode_oracle(self):
        # empty above the floor
        bound = max_charge(*equilibrium_tanks(100.0, 0.2, 0.5), roundtrip_efficiency=1.0)
        oracle = ode_max_charge(0.0, 0.0, q_max=60.0, k=1.0, c=0.5, dt=1.0)
        assert bound == pytest.approx(float(oracle), rel=5e-3)

    def test_efficiency_symmetric_bounds(self):
        # with unit efficiency the charge bound at the mirrored state
        # equals the discharge bound
        d = max_discharge(*equilibrium_tanks(100.0, 0.8, 0.5), roundtrip_efficiency=1.0)
        c = max_charge(*equilibrium_tanks(100.0, 0.2, 0.5), roundtrip_efficiency=1.0)
        assert d == pytest.approx(c, rel=1e-12)

    def test_discharge_monotone_in_q1(self):
        prev = -1.0
        for q1 in np.linspace(10.0, 40.0, 13):
            bound = max_discharge(float(q1), 30.0)
            assert bound >= prev
            prev = bound

    @settings(max_examples=60, deadline=None)
    @given(
        q_max=st.floats(min_value=10.0, max_value=1000.0),
        u1=st.floats(min_value=0.0, max_value=1.0),
        u2=st.floats(min_value=0.0, max_value=1.0),
        k=st.floats(min_value=0.2, max_value=3.0),
        c=st.floats(min_value=0.2, max_value=0.8),
    )
    def test_bounds_match_oracle_randomized(self, q_max, u1, u2, k, c):
        q_eff_max = 0.6 * q_max
        q1 = 0.2 * q_max * c + u1 * c * q_eff_max
        q2 = 0.2 * q_max * (1.0 - c) + u2 * (1.0 - c) * q_eff_max
        q1e = q1 - 0.2 * q_max * c
        q2e = q2 - 0.2 * q_max * (1.0 - c)
        discharge = max_discharge(q1, q2, q_max, k, c, roundtrip_efficiency=1.0)
        oracle = float(ode_max_discharge(q1e, q2e, k=k, c=c, dt=1.0))
        if oracle > 1e-6 * q_max:
            assert discharge == pytest.approx(oracle, rel=5e-3)
        charge = max_charge(q1, q2, q_max, k, c, roundtrip_efficiency=1.0)
        oracle_c = float(ode_max_charge(q1e, q2e, q_max=q_eff_max, k=k, c=c, dt=1.0))
        if oracle_c > 1e-6 * q_max:
            assert charge == pytest.approx(oracle_c, rel=5e-3)


class TestBatteryStep:
    """The kernel's tank update, one hour at a time."""

    def test_zero_power_equilibrates(self):
        q1, q2 = 50.0, 10.0
        for _ in range(30):
            _, q1, q2 = kernel_battery_hour(q1, q2, 100.0, 0.0)
        assert q1 / (q1 + q2) == pytest.approx(0.5, abs=1e-6)
        assert q1 + q2 == pytest.approx(60.0, rel=1e-12)

    def test_roundtrip_efficiency(self):
        q1, q2 = equilibrium_tanks(100.0, 0.5, 0.5)
        charge, *charged = kernel_battery_hour(q1, q2, 100.0, +10.0, roundtrip_efficiency=0.9)
        assert charge == 10.0
        stored_gain = sum(charged) - (q1 + q2)
        assert stored_gain == pytest.approx(10.0 * math.sqrt(0.9), rel=1e-12)
        # pull the stored gain back out in one hour
        discharge_power = stored_gain * math.sqrt(0.9)
        ran, *back = kernel_battery_hour(*charged, 100.0, -discharge_power, roundtrip_efficiency=0.9)
        assert ran == -discharge_power
        assert sum(back) == pytest.approx(q1 + q2, abs=1e-9)
        assert discharge_power / 10.0 == pytest.approx(0.9, rel=1e-9)

    def test_soc_window_respected_on_random_walk(self):
        rng = np.random.default_rng(3)
        q1, q2 = equilibrium_tanks(200.0, 0.8, 0.5)
        for _ in range(500):
            if rng.integers(0, 2):
                power = +rng.uniform(0.0, 1.0) * max_charge(q1, q2, 200.0)
            else:
                power = -rng.uniform(0.0, 1.0) * max_discharge(q1, q2, 200.0)
            _, q1, q2 = kernel_battery_hour(q1, q2, 200.0, power)
            assert 0.2 - 1e-9 <= (q1 + q2) / 200.0 <= 0.8 + 1e-9

    def test_step_agrees_with_fine_integrator(self):
        power = -10.0  # discharge 10 kW delivered
        ran, q1_new, q2_new = kernel_battery_hour(35.0, 25.0, 100.0, power, roundtrip_efficiency=1.0)
        assert ran == power
        q1, q2 = integrate_tanks(35.0, 25.0, 10.0, k=1.0, c=0.5, dt=1.0)
        assert q1_new == pytest.approx(float(q1), rel=1e-3)
        assert q2_new == pytest.approx(float(q2), rel=1e-3)


def battery_purchases(project_years: int, lifetime_years: int) -> float:
    """Battery purchases over the project, read back from ``npc`` at zero
    discount: the initial one plus the replacement cost over the price of
    one bank."""
    battery = replace(BatterySpec(), lifetime_years=lifetime_years)
    scenario = hand_built_scenario(np.zeros(8760), catalog=Catalog(battery=battery),
                                   economics=Economics(discount_rate=0.0, project_years=project_years))
    design = Design(bess_kwh=100.0)
    _, costs = npc(simulate_year(scenario, design), design, scenario)
    return 1 + costs.replacement_usd_pw / (100.0 * battery.replacement_usd_per_kwh)


class TestBatteryReplacements:
    def test_paper_case(self):
        assert battery_purchases(25, 10) == 3

    def test_lifetime_covers_project(self):
        assert battery_purchases(10, 20) == 1

    def test_exact_division(self):
        assert battery_purchases(20, 10) == 2

    def test_invalid(self):
        with pytest.raises(ScenarioValidationError) as err:
            hand_built_scenario(economics=Economics(project_years=0),
                                catalog=Catalog(battery=replace(BatterySpec(), lifetime_years=0)))
        assert err.value.violations == ["economics.project_years: must be >= 1, got 0",
                                        "catalog.battery.lifetime_years: must be >= 1, got 0"]


class TestConverter:
    """Conversion losses through ``simulate_year``: 125 kW of PV (100 kW
    DC at 1 kW/m2 with 0.8 derating) serving AC load alone (no grid, no
    storage); every delivered kW costs ``1/efficiency - 1`` kW."""

    PV = Design(pv_kw=125.0, converter_kw=255.0, grid_cap_kw=0.0)

    def test_zero_input(self):
        trace = simulate_year(hand_built_scenario((50.0, 50.0)), self.PV)
        assert np.array_equal(trace.conversion_loss_kw[:2], [0.0, 0.0])
        assert np.array_equal(trace.unmet_kw[:2], [50.0, 50.0])

    def test_efficiency(self):
        scenario = hand_built_scenario((200.0, 50.0), irradiance=[1.0, 1.0])
        trace = simulate_year(scenario, self.PV)
        delivered = (trace.load_kw - trace.unmet_kw)[:2]
        assert delivered == pytest.approx([95.0, 50.0])
        assert trace.conversion_loss_kw[:2] == pytest.approx(delivered * (1.0 / 0.95 - 1.0))
        assert trace.curtailed_kw[:2] == pytest.approx([0.0, 100.0 - 50.0 / 0.95])

    def test_fixed_loss_clamp(self):
        # the rating clamps the delivered power
        scenario = hand_built_scenario((200.0,), irradiance=[1.0])
        design = replace(self.PV, converter_kw=50.0)
        trace = simulate_year(scenario, design)
        assert trace.unmet_kw[0] == pytest.approx(150.0)
        assert trace.conversion_loss_kw[0] == pytest.approx(50.0 * (1.0 / 0.95 - 1.0))

    def test_negative_input_rejected(self):
        with pytest.raises(InvalidDesignError):
            simulate_year(hand_built_scenario(), replace(self.PV, converter_kw=-1.0))
