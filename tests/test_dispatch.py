import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mgdesign import dispatch
from mgdesign.components import pv_series, wt_series
from mgdesign.dispatch import (
    CAPACITIES,
    FLOW_FIELDS,
    Design,
    InvalidDesignError,
    battery_stage,
    simulate_year,
    write_trace_csv,
)
from mgdesign.optimize import SearchSpace
from mgdesign.scenario import Scenario, TimeSeries, Unit

from .conftest import random_design, random_scenario
from .helpers import (
    bench_inputs,
    equilibrium_tanks,
    hub_wind_speed,
    pv_output,
    reference_battery_stage_hours,
    reference_dispatch_year,
    reference_grid_stage_hours,
    reference_step_hour,
    reference_write_trace_csv,
    step_hour,
    wt_output,
)

#: The 64-design lattice of the benchmark's ``lattice_search`` workload.
BENCH_LATTICE = "pv=20:620:200,wt=10:210:200,dg=15:75:60,bess=50:950:300,conv=255"


def assert_matches_reference(scenario, design):
    """Every flow column, ``soc`` and the final tanks equal the per-hour
    reference loop exactly."""
    trace = simulate_year(scenario, design)
    flows, soc, q1, q2 = reference_dispatch_year(scenario, design)
    for name, expected in flows.items():
        assert np.array_equal(getattr(trace, name), expected), f"{name} differs for {design}"
    assert np.array_equal(trace.soc, soc), f"soc differs for {design}"
    assert (trace.final_battery.q1_kwh, trace.final_battery.q2_kwh) == (q1, q2)


class TestDesign:
    def test_from_string(self):
        d = Design.from_string("pv=418,wt=123,dg=0,bess=704,conv=255")
        assert (d.pv_kw, d.wt_kw, d.dg_kw, d.bess_kwh, d.converter_kw) == (418, 123, 0, 704, 255)
        assert d.grid_cap_kw is None

    def test_from_string_with_grid(self):
        d = Design.from_string("pv=10,grid=300")
        assert d.grid_cap_kw == 300.0

    def test_from_string_rejects_unknown(self):
        with pytest.raises(InvalidDesignError):
            Design.from_string("solar=10")

    @pytest.mark.parametrize("text, field", [
        ("pv=100,pv=418,conv=255", "pv_kw"), ("pv=100,PV=200,converter=50,conv=100", "pv_kw"),
        ("converter=50,Conv=100", "converter_kw"), ("grid=10,pv=1,GRID=20", "grid_cap_kw"),
    ])
    def test_from_string_rejects_a_field_given_twice(self, text, field):
        with pytest.raises(InvalidDesignError, match=f"^{field} is given twice$"):
            Design.from_string(text)

    def test_from_string_reads_negative_zero_as_zero(self):
        d = Design.from_string("pv=-0,wt=-0.0,dg=0,bess=-0e5,conv=-0,grid=-0")
        values = [*d.capacities().values(), d.grid_cap_kw]
        assert [math.copysign(1.0, v) for v in values] == [1.0] * 6
        assert d == Design(grid_cap_kw=0.0)
        assert hash(d) == hash(Design(grid_cap_kw=0.0))

    def test_capacities_in_field_order(self):
        d = Design.from_string("Converter=5,bess=4,dg=3,wt=2,pv=1")
        assert d.capacities() == {"pv_kw": 1.0, "wt_kw": 2.0, "dg_kw": 3.0, "bess_kwh": 4.0, "converter_kw": 5.0}
        assert list(d.capacities()) == ["pv_kw", "wt_kw", "dg_kw", "bess_kwh", "converter_kw"]

    def test_negative_capacity_rejected(self):
        with pytest.raises(InvalidDesignError):
            simulate_year(random_scenario(0), Design(pv_kw=-1.0))


#: Each field of a :class:`Design` and its name in a design string.
DESIGN_STRING_NAMES = {**{name: short for short, name in CAPACITIES.items()}, "grid_cap_kw": "grid"}


class TestDesignInvariant:
    """A ``Design`` holds no negative or non-finite value: building one,
    ``replace``-ing a valid one and ``from_string`` raise the same message,
    which names every bad field."""

    VALID = Design(pv_kw=418.0, wt_kw=123.0, bess_kwh=704.0, converter_kw=255.0, grid_cap_kw=300.0)

    @staticmethod
    def _messages(values: dict) -> list[str]:
        """The message of each way to build a design with ``values``."""
        text = ",".join(f"{DESIGN_STRING_NAMES[name]}={value}" for name, value in values.items())
        messages = []
        for build in (lambda: Design(**values), lambda: replace(TestDesignInvariant.VALID, **values),
                      lambda: Design.from_string(text)):
            with pytest.raises(InvalidDesignError) as err:
                build()
            messages.append(str(err.value))
        return messages

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", DESIGN_STRING_NAMES)
    def test_a_bad_value_is_rejected_when_built(self, name, value):
        assert self._messages({name: value}) == [f"{name}: must be finite and >= 0, got {value}"] * 3

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, -math.inf])
    def test_every_bad_field_is_named_in_one_message(self, value):
        expected = "; ".join(f"{name}: must be finite and >= 0, got {value}" for name in DESIGN_STRING_NAMES)
        assert self._messages(dict.fromkeys(DESIGN_STRING_NAMES, value)) == [expected] * 3

    def test_good_fields_between_bad_ones_are_not_named(self):
        values = {"pv_kw": -1.0, "wt_kw": math.nan, "dg_kw": 60.0, "converter_kw": math.inf, "grid_cap_kw": -2.0}
        assert self._messages(values) == ["pv_kw: must be finite and >= 0, got -1.0; wt_kw: must be finite and "
                                          ">= 0, got nan; converter_kw: must be finite and >= 0, got inf; "
                                          "grid_cap_kw: must be finite and >= 0, got -2.0"] * 3

    def test_only_the_grid_cap_may_be_none(self):
        assert replace(self.VALID, grid_cap_kw=None).grid_cap_kw is None
        with pytest.raises(InvalidDesignError, match="^pv_kw: must be finite and >= 0, got None$"):
            Design(pv_kw=None)


def random_resource_scenario(seed: int) -> Scenario:
    """:func:`random_scenario` with a cell-temperature series, a random
    anemometer height and random PV and wind constants."""
    rng = np.random.default_rng(seed)
    scenario = random_scenario(seed)
    cut_in = float(rng.uniform(2.0, 5.0))
    rated = float(rng.uniform(cut_in + 3.0, 15.0))
    catalog = replace(
        scenario.catalog,
        pv=replace(scenario.catalog.pv, derating=float(rng.uniform(0.6, 1.0)),
                   temp_coeff_per_c=float(rng.uniform(-0.006, -0.002))),
        wind=replace(scenario.catalog.wind, cut_in_ms=cut_in, rated_ms=rated,
                     cut_out_ms=float(rng.uniform(rated + 1.0, 30.0)),
                     hub_height_m=float(rng.uniform(8.0, 40.0)),
                     shear_exponent=float(rng.uniform(0.1, 0.3)),
                     curve_exponent=float(rng.choice([1.0, 2.0, 3.0])),
                     swept_area_m2_per_unit=float(rng.uniform(1.0, 30.0)),
                     power_coefficient=float(rng.uniform(0.3, 0.5))))
    temperature = TimeSeries(rng.uniform(-10.0, 70.0, 8760), Unit.CELSIUS)
    return replace(scenario, catalog=catalog, cell_temperature=temperature,
                   anemometer_height_m=float(rng.uniform(5.0, 20.0)))


class TestSeriesModels:
    """The array resource models against the scalar one-hour oracles on
    every hour of random scenarios."""

    SEEDS = (5, 6, 7, 8)

    def test_pv_series_matches_scalar_op(self):
        for seed in self.SEEDS:
            scenario = random_resource_scenario(seed)  # built, so every field passed its checks
            series = pv_series(scenario, 120.0)
            oracle = [pv_output(scenario.catalog.pv, 120.0, g, t)
                      for g, t in zip(scenario.irradiance.values.tolist(),
                                      scenario.cell_temperature.values.tolist())]
            assert np.array_equal(series, oracle)

    def test_wt_series_matches_scalar_ops(self):
        for seed in self.SEEDS:
            scenario = random_resource_scenario(seed)
            spec = scenario.catalog.wind
            series = wt_series(scenario, 90.0)
            oracle = [wt_output(spec, 90.0, hub_wind_speed(u, scenario.anemometer_height_m,
                                                          spec.hub_height_m, spec.shear_exponent))
                      for u in scenario.wind_speed.values.tolist()]
            assert np.count_nonzero(series) > 1000
            np.testing.assert_allclose(series, oracle, rtol=1e-12, atol=1e-9)


class TestSimulateYear:
    def test_energy_balance_on_random_pairs(self):
        for seed in range(8):
            scenario = random_scenario(seed)
            design = random_design(seed + 100)
            trace = simulate_year(scenario, design)
            assert np.abs(trace.balance_residual_kw()).max() < 1e-6

    def test_zero_load_year(self, bundled):
        zero = replace(bundled, load=TimeSeries(np.zeros(8760), Unit.KW))
        trace = simulate_year(zero, Design(pv_kw=50.0, converter_kw=50.0, bess_kwh=100.0))
        assert trace.unmet_kwh == 0.0
        assert trace.served_kwh == 0.0

    def test_grid_only_sufficiency(self, bundled):
        peak = float(bundled.load.values.max())
        trace = simulate_year(bundled, Design(grid_cap_kw=peak + 1.0))
        assert trace.unmet_kwh == 0.0
        # grid feeds the AC load directly, no conversion on that path
        assert trace.import_kwh == pytest.approx(trace.load_kwh, rel=1e-12)

    def test_bundled_a5_serves_everything(self, bundled, a5):
        trace = simulate_year(bundled, a5)
        assert trace.unmet_kwh == 0.0

    def test_pv_monotonicity(self, bundled):
        base = Design(pv_kw=50.0, bess_kwh=200.0, converter_kw=100.0, grid_cap_kw=50.0)
        unmet_prev = None
        renewable_prev = None
        for pv in (50.0, 150.0, 300.0):
            trace = simulate_year(bundled, replace(base, pv_kw=pv))
            if unmet_prev is not None:
                assert trace.unmet_kwh <= unmet_prev + 1e-9
                assert trace.renewable_kwh >= renewable_prev - 1e-9
            unmet_prev = trace.unmet_kwh
            renewable_prev = trace.renewable_kwh

    def test_no_fuel_without_diesel(self):
        for seed in range(4):
            design = replace(random_design(seed), dg_kw=0.0)
            trace = simulate_year(random_scenario(seed), design)
            assert trace.fuel_l == 0.0

    def test_diesel_runs_in_band_when_committed(self, bundled):
        design = Design(dg_kw=260.0, grid_cap_kw=0.0)
        trace = simulate_year(bundled, design)
        running = trace.dg_kw[trace.dg_kw > 0.0]
        assert running.size > 0
        assert np.all(running >= 0.25 * 260.0 - 1e-9)
        assert np.all(running <= 260.0 + 1e-9)
        assert trace.fuel_l > 0.0

    def test_small_deficits_cascade_to_unmet_not_diesel(self, bundled):
        # diesel so large that every deficit is below its minimum load
        design = Design(dg_kw=5000.0, grid_cap_kw=0.0)
        trace = simulate_year(bundled, design)
        assert trace.fuel_l == 0.0
        assert trace.unmet_kwh == pytest.approx(trace.load_kwh)

    def test_grid_caps_respected(self):
        scenario = random_scenario(42)
        design = replace(random_design(7), grid_cap_kw=37.0)
        trace = simulate_year(scenario, design)
        import_cap = min(37.0, scenario.tariff.max_import_kw)
        export_cap = min(37.0, scenario.tariff.max_export_kw)
        assert trace.grid_import_kw.max(initial=0.0) <= import_cap + 1e-9
        assert trace.grid_export_kw.max(initial=0.0) <= export_cap + 1e-9

    def test_charge_discharge_exclusive(self):
        for seed in range(5):
            trace = simulate_year(random_scenario(seed), random_design(seed + 50))
            both = (trace.batt_charge_kw > 0.0) & (trace.batt_discharge_kw > 0.0)
            assert not both.any()

    def test_soc_stays_in_window(self):
        for seed in range(5):
            design = replace(random_design(seed + 9), bess_kwh=300.0)
            trace = simulate_year(random_scenario(seed), design)
            assert trace.soc.min() >= 0.2 - 1e-9
            assert trace.soc.max() <= 0.8 + 1e-9

    @pytest.mark.parametrize("design", ["pv=418,wt=123,dg=0,bess=704,conv=255",
                                        "pv=620,wt=210,bess=950,conv=400", "pv=300,bess=50,conv=255"])
    def test_stored_delta_is_net_energy_into_the_tanks(self, bundled, design):
        # Charge reaches the tanks times sqrt(eta); discharge leaves them
        # divided by it.
        design = Design.from_string(design)
        trace = simulate_year(bundled, design)
        sq = math.sqrt(trace.roundtrip_efficiency)
        net = trace.batt_charge_kw.sum() * sq - trace.batt_discharge_kw.sum() / sq
        assert abs(trace.stored_delta_kwh - net) < 1e-6 * design.bess_kwh

    def test_lossless_year_conserves_energy(self):
        # With a converter and a battery of efficiency 1, every kWh that
        # enters the year leaves it as served load, export, curtailment or
        # a change of the tanks.
        for seed in range(40):
            scenario = random_scenario(seed)
            catalog = replace(scenario.catalog,
                              converter=replace(scenario.catalog.converter, efficiency=1.0),
                              battery=replace(scenario.catalog.battery, roundtrip_efficiency=1.0))
            trace = simulate_year(replace(scenario, catalog=catalog), random_design(seed + 300))
            assert trace.conversion_loss_kwh == 0.0
            assert trace.battery_loss_kwh == 0.0
            out = trace.served_kwh + trace.export_kwh + trace.curtailed_kwh
            into = trace.renewable_kwh + trace.import_kwh + trace.dg_kwh - trace.stored_delta_kwh
            assert abs(out - into) <= 1e-9 * trace.load_kwh, seed

    def test_deterministic(self, bundled, a5):
        t1 = simulate_year(bundled, a5)
        t2 = simulate_year(bundled, a5)
        assert np.array_equal(t1.grid_import_kw, t2.grid_import_kw)
        assert np.array_equal(t1.soc, t2.soc)


class TestKernelMatchesReference:
    def test_criterion_1_pairs(self):
        for seed in range(100):
            assert_matches_reference(random_scenario(seed), random_design(seed + 10_000))

    def test_bench_lattice(self, bundled):
        designs = list(SearchSpace.from_string(BENCH_LATTICE).designs())
        assert len(designs) == 64
        for design in designs:
            assert_matches_reference(bundled, design)

    def test_a5_and_grid_only(self, bundled, a5):
        assert_matches_reference(bundled, a5)
        assert_matches_reference(bundled, Design(grid_cap_kw=float(bundled.load.values.max()) + 1.0))

    def test_random_catalog_constants(self):
        # The bundled k = 1 and c = 0.5 make some reorderings of the kinetic
        # products exact; random constants expose them.
        for seed in range(20):
            rng = np.random.default_rng(seed + 500)
            scenario = random_scenario(seed)
            catalog = scenario.catalog
            catalog = replace(
                catalog,
                battery=replace(catalog.battery, rate_constant_per_hr=float(rng.uniform(0.25, 3.0)),
                                capacity_ratio=float(rng.uniform(0.2, 0.8)),
                                roundtrip_efficiency=float(rng.uniform(0.7, 0.98)),
                                soc_min=float(rng.uniform(0.05, 0.3)), soc_max=float(rng.uniform(0.7, 0.95))),
                converter=replace(catalog.converter, efficiency=float(rng.uniform(0.85, 0.99))),
                diesel=replace(catalog.diesel, min_load_ratio=float(rng.uniform(0.1, 0.4))))
            design = replace(random_design(seed + 20_000), bess_kwh=float(rng.uniform(50.0, 1200.0)))
            assert_matches_reference(replace(scenario, catalog=catalog), design)


class TestStagedKernel:
    """The array stages around the battery-only loop against the per-hour
    reference, down to the sign of every zero: a ``-0.0`` would print as
    ``-0.000000`` in ``trace.csv``."""

    HAND_MADE = (
        Design(pv_kw=418.0, wt_kw=123.0, bess_kwh=704.0, converter_kw=255.0),   # A5
        Design(pv_kw=735.9375, converter_kw=422.96875),   # where refine converges
        Design(),                                           # grid only
        Design(pv_kw=300.0, wt_kw=80.0, dg_kw=60.0, converter_kw=150.0, grid_cap_kw=120.0),
        Design(pv_kw=600.0, wt_kw=250.0, converter_kw=90.0, grid_cap_kw=40.0),
        Design(pv_kw=200.0, wt_kw=150.0, dg_kw=90.0, bess_kwh=300.0, converter_kw=60.0,
               grid_cap_kw=0.0),
        Design(pv_kw=300.0, wt_kw=80.0, dg_kw=-0.0, bess_kwh=200.0, converter_kw=-0.0,
               grid_cap_kw=-0.0),
    )

    @staticmethod
    def assert_identical(scenario, design):
        trace = simulate_year(scenario, design)
        flows, soc, q1, q2 = reference_dispatch_year(scenario, design)
        for name, expected in list(flows.items()) + [("soc", soc)]:
            actual = getattr(trace, name)
            assert np.array_equal(actual, expected), f"{name} differs for {design}"
            assert np.array_equal(np.signbit(actual), np.signbit(expected)), \
                f"{name} zero signs differ for {design}"
        assert (trace.final_battery.q1_kwh, trace.final_battery.q2_kwh) == (q1, q2)

    def test_hand_made_designs(self, bundled):
        for design in self.HAND_MADE:
            self.assert_identical(bundled, design)

    def test_random_pairs_with_and_without_battery(self):
        for i in range(40):
            design = random_design(1000 + i)
            if i % 2:
                design = replace(design, bess_kwh=0.0)
            self.assert_identical(random_scenario(i), design)

    def test_boundary_hours(self, bundled):
        # Hours on the rules' thresholds: residuals at and below 1e-12, wind
        # exactly meeting load, wind surplus at the export cap, PV filling
        # or saturating the converter, zero loads and wind of either sign;
        # from an empty, a mid and a full battery, and with none.
        designs = [Design(pv_kw=200.0, wt_kw=200.0, dg_kw=40.0, converter_kw=conv,
                          bess_kwh=bess, grid_cap_kw=cap)
                   for conv in (0.0, 30.0, 95.0) for bess in (0.0, 100.0) for cap in (None, 0.0, 20.0)]
        loads = (-0.0, 0.0, 5e-13, 1e-12, 2e-12, 20.0, 95.0, 100.0)
        pvs = (0.0, 5e-13, 31.0, 100.0, 100.0 / 0.95, 400.0)
        winds = (-0.0, 0.0, 5e-13, 20.0, 40.0, 100.0, 120.0)
        for design in designs:
            states = [equilibrium_tanks(design.bess_kwh, soc, 0.5)
                      for soc in ((0.0,) if design.bess_kwh == 0.0 else (0.2, 0.5, 0.8))]
            for state, load, pv, wt in itertools.product(states, loads, pvs, winds):
                flow, *new_state = step_hour(*state, load, pv, wt, design, bundled.tariff, bundled.catalog)
                flows, q1, q2 = reference_step_hour(*state, load, pv, wt, design,
                                                    bundled.tariff, bundled.catalog)
                for name, expected in flows.items():
                    actual = flow[name]
                    assert (actual, math.copysign(1.0, actual)) == (expected, math.copysign(1.0, expected)), \
                        (name, design, state, load, pv, wt)
                assert tuple(new_state) == (q1, q2)

    def test_battery_less_design_runs_no_loop(self, bundled, monkeypatch):
        calls = []
        original = dispatch._battery_hours

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(dispatch, "_battery_hours", counting)
        for design in self.HAND_MADE[1:5]:
            simulate_year(bundled, design)
        step_hour(0.0, 0.0, 100.0, 50.0, 20.0, Design(pv_kw=60.0, converter_kw=50.0),
                  bundled.tariff, bundled.catalog)
        assert calls == []
        simulate_year(bundled, self.HAND_MADE[0])
        assert len(calls) == 1


class TestBatteryStage:
    """A battery stage shared by designs that differ only in diesel size or
    grid cap gives the traces those designs get on their own."""

    @staticmethod
    def assert_same_trace(actual, expected):
        for name in FLOW_FIELDS + ("load_kw", "soc"):
            a, e = getattr(actual, name), getattr(expected, name)
            assert np.array_equal(a, e) and np.array_equal(np.signbit(a), np.signbit(e)), name
        assert actual.final_battery == expected.final_battery
        assert actual.initial_stored_kwh == expected.initial_stored_kwh

    def test_shared_stage_matches_own_simulation(self):
        for seed in range(12):
            scenario = random_scenario(seed)
            design = random_design(3000 + seed)
            rng = np.random.default_rng(seed)
            stage = battery_stage(scenario, design)
            for dg, cap in ((0.0, None), (float(rng.uniform(10, 120)), None),
                            (float(rng.uniform(10, 120)), float(rng.uniform(0, 300))), (60.0, 0.0)):
                variant = replace(design, dg_kw=dg, grid_cap_kw=cap)
                self.assert_same_trace(simulate_year(scenario, variant, stage),
                                       simulate_year(scenario, variant))

    def test_stage_is_read_only_and_left_unchanged(self, bundled, a5):
        stage = battery_stage(bundled, a5)
        arrays = [stage.pv_kw, stage.wt_kw, stage.batt_charge_kw, stage.batt_discharge_kw,
                  stage.soc, *stage.grid_inputs]
        before = [a.copy() for a in arrays]
        assert not any(a.flags.writeable for a in arrays)
        for dg, cap in ((0.0, None), (60.0, 60.0), (120.0, 0.0), (30.0, 500.0)):
            trace = simulate_year(bundled, replace(a5, dg_kw=dg, grid_cap_kw=cap), stage)
            assert trace.pv_kw is stage.pv_kw and trace.soc is stage.soc
        for a, b in zip(arrays, before):
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    @pytest.mark.parametrize("field, value", [("pv_kw", 419.0), ("wt_kw", 0.0),
                                              ("bess_kwh", 700.0), ("converter_kw", 250.0)])
    def test_mismatched_stage_raises(self, bundled, a5, field, value):
        stage = battery_stage(bundled, a5)
        with pytest.raises(ValueError, match="does not match"):
            simulate_year(bundled, replace(a5, **{field: value}), stage)

    def test_invalid_design_rejected_with_a_stage(self, bundled, a5):
        stage = battery_stage(bundled, a5)
        with pytest.raises(InvalidDesignError):
            simulate_year(bundled, replace(a5, dg_kw=-1.0), stage)
        with pytest.raises(InvalidDesignError):
            battery_stage(bundled, replace(a5, bess_kwh=math.nan))


class TestBatteryLoopWriteBacks:
    """The battery loop records only what the tanks need, and the flows
    are written back after it: every array of the stage and the final
    tanks equal the loop that wrote each flow back hour by hour, down to
    the sign of every zero."""

    @staticmethod
    def assert_same_stage(load, pv, wt, q1, q2, params):
        actual = dispatch._battery_stage_hours(load, pv, wt, q1, q2, **params)
        expected = reference_battery_stage_hours(load, pv, wt, q1, q2, **params)
        names = ("deficit", "residual", "pv_surplus", "wt_surplus", "conv_used", "loss",
                 "charge", "discharge", "soc")
        for name, a, e in zip(names, actual[0] + actual[1], expected[0] + expected[1]):
            assert np.array_equal(a, e) and np.array_equal(np.signbit(a), np.signbit(e)), \
                (name, params)
        assert actual[2:] == expected[2:]

    def assert_same_year(self, scenario, design):
        spec = scenario.catalog.battery
        self.assert_same_stage(
            scenario.load.values, pv_series(scenario, design.pv_kw), wt_series(scenario, design.wt_kw),
            *equilibrium_tanks(design.bess_kwh, spec.soc_max, spec.capacity_ratio),
            dispatch._battery_params(design.converter_kw, scenario.catalog, design.bess_kwh))

    def test_bench_lattice_and_a5(self, bundled, a5):
        designs = {d.battery_key: d for d in SearchSpace.from_string(BENCH_LATTICE).designs()}
        assert len(designs) == 32
        for design in [a5, *designs.values()]:
            self.assert_same_year(bundled, design)

    def test_random_catalogs(self):
        for seed in range(20):
            rng = np.random.default_rng(seed + 700)
            scenario = random_scenario(seed + 40)
            battery = replace(scenario.catalog.battery,
                              rate_constant_per_hr=float(rng.uniform(0.25, 3.0)),
                              capacity_ratio=float(rng.uniform(0.2, 0.8)),
                              roundtrip_efficiency=float(rng.uniform(0.7, 0.98)),
                              soc_min=float(rng.uniform(0.05, 0.3)), soc_max=float(rng.uniform(0.7, 0.95)))
            converter = replace(scenario.catalog.converter, efficiency=float(rng.uniform(0.85, 0.99)))
            scenario = replace(scenario, catalog=replace(scenario.catalog, battery=battery,
                                                         converter=converter))
            design = replace(random_design(seed + 30_000), bess_kwh=float(rng.uniform(50.0, 1200.0)))
            self.assert_same_year(scenario, design)

    def test_edge_catalogs(self, bundled, a5):
        catalog = bundled.catalog
        lossless = replace(catalog, converter=replace(catalog.converter, efficiency=1.0),
                           battery=replace(catalog.battery, roundtrip_efficiency=1.0))
        full_window = replace(catalog, battery=replace(catalog.battery, soc_min=0.0, soc_max=1.0))
        # No converter: the battery takes only PV DC-direct and never discharges.
        self.assert_same_year(bundled, replace(a5, converter_kw=0.0))
        for edge in (lossless, full_window):
            self.assert_same_year(replace(bundled, catalog=edge), a5)
            self.assert_same_year(replace(bundled, catalog=edge), replace(a5, wt_kw=300.0, bess_kwh=200.0))

    def test_pv_surplus_below_zero(self, bundled):
        design = Design.from_string("pv=735.9375,bess=500,conv=422.96875")
        stage_1, *_ = dispatch._battery_stage_hours(
            bundled.load.values, pv_series(bundled, design.pv_kw), wt_series(bundled, 0.0), 0.0, 0.0,
            **dispatch._battery_params(design.converter_kw, bundled.catalog, 0.0))
        assert np.count_nonzero(stage_1[2] < 0.0) > 0   # PV through the converter left -1 ulp
        self.assert_same_year(bundled, design)

    def test_one_hour_arrays(self, bundled):
        # The path step_hour takes; -0.0 PV with a wind surplus charges -0.0
        # from PV, and wind through the converter, where there is room.
        loads = (0.0, 1e-12, 2e-12, 20.0, 100.0)
        pvs = (-0.0, 0.0, 31.0, 100.0 / 0.95, 400.0)
        winds = (0.0, 20.0, 120.0)
        for conv, bess, soc in itertools.product((0.0, 30.0, 95.0), (100.0, 400.0), (0.2, 0.5, 0.8)):
            q1, q2 = equilibrium_tanks(bess, soc, 0.5)
            params = dispatch._battery_params(conv, bundled.catalog, bess)
            for load, pv, wt in itertools.product(loads, pvs, winds):
                self.assert_same_stage(np.array([load]), np.array([pv]), np.array([wt]), q1, q2, params)

    #: Every kind of hour the loop runs apart, and the edges between them.
    HOUR_KINDS = {
        "discharge", "deficit at the floor", "deficit at the floor with PV surplus",
        "deficit above the floor with a zero limit", "charge from PV", "charge from wind",
        "exact balance", "tanks exactly at their floors", "discharge limited by room == residual",
        "-0.0 room", "soc_min = 0",
    }

    @staticmethod
    def hour_kinds(hour, q1, q2, params) -> set[str]:
        """The kinds of one-hour ``hour`` from tanks ``q1``/``q2``, read off
        stage 1 and the reference loop's results."""
        (deficit, residual, pv_surplus, wt_surplus, conv_used, _), *_ = dispatch._battery_stage_hours(
            *hour, q1, q2, **{**params, "q_max": 0.0})
        (_, residual_after, pv_after, wt_after, _, _), (_, discharge, _), *_ = \
            reference_battery_stage_hours(*hour, q1, q2, **params)
        room = params["conv_kw"] - conv_used[0]
        at_floor = q1 <= params["floor_q1"] and q2 <= params["floor_q2"]
        kinds = set()
        if deficit[0]:
            if discharge[0] > 0.0:
                kinds.add("discharge")
            if room == residual[0] and residual_after[0] == 0.0:
                kinds.add("discharge limited by room == residual")
            if at_floor:
                kinds.add("deficit at the floor with PV surplus" if pv_surplus[0] > 0.0 else "deficit at the floor")
            elif room == 0.0:
                kinds.add("deficit above the floor with a zero limit")
        else:
            if pv_after[0] < pv_surplus[0]:
                kinds.add("charge from PV")
            if wt_after[0] < wt_surplus[0]:
                kinds.add("charge from wind")
            if not (pv_surplus[0] > 0.0 or wt_surplus[0] > 0.0):
                kinds.add("exact balance")
        if q1 == params["floor_q1"] and q2 == params["floor_q2"]:
            kinds.add("tanks exactly at their floors")
        if room == 0.0 and math.copysign(1.0, room) < 0.0:
            kinds.add("-0.0 room")
        if params["floor_q1"] == 0.0:
            kinds.add("soc_min = 0")
        return kinds

    def test_every_hour_kind(self, bundled):
        """Each kind of hour, alone and in a sequence of all of them, from
        tanks at their floors, half full and full: a converter of -0.0 kW
        leaves -0.0 room, 30 kW ties room and residual at a 30 kW load or
        saturates under 100 kW of PV, and ``soc_min = 0`` puts the floors at
        empty tanks.  The bundled ``k = 1`` makes ``x / k`` exact, so one
        catalog has other battery and converter constants."""
        catalog = bundled.catalog
        floorless = replace(catalog, battery=replace(catalog.battery, soc_min=0.0))
        skewed = replace(catalog, converter=replace(catalog.converter, efficiency=0.93),
                         battery=replace(catalog.battery, rate_constant_per_hr=0.6, capacity_ratio=0.3,
                                         roundtrip_efficiency=0.85, soc_min=0.15, soc_max=0.9))
        hours = [np.array(column) for column in zip(*itertools.product(
            (0.0, 20.0, 30.0, 100.0), (0.0, 100.0), (0.0, 20.0, 120.0)))]
        seen = set()
        for edge, conv, bess in itertools.product((catalog, floorless, skewed), (-0.0, 0.0, 30.0, 95.0),
                                                  (100.0, 400.0)):
            spec = edge.battery
            params = dispatch._battery_params(conv, edge, bess)
            for soc in (spec.soc_min, 0.5, spec.soc_max):
                q1, q2 = equilibrium_tanks(bess, soc, spec.capacity_ratio)
                self.assert_same_stage(*hours, q1, q2, params)
                for hour in zip(*hours):
                    hour = [np.array([value]) for value in hour]
                    self.assert_same_stage(*hour, q1, q2, params)
                    seen |= self.hour_kinds(hour, q1, q2, params)
        assert seen == self.HOUR_KINDS

    def test_stage_allocates_at_most_13_year_arrays(self, bundled, a5):
        battery_stage(bundled, a5)
        tracemalloc.start()
        try:
            battery_stage(bundled, a5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 13 * 8760 * 8


#: Hours of hand-built stage-2 inputs, as ``(load, pv, wind)`` in kW.  A
#: deficit hour (limit ``min(converter, 50)``), a surplus hour (PV to
#: spare), an exact balance (neither), a deficit hour whose PV saturates a
#: 30 kW converter (deficit and spare, limit 0), and a deficit hour whose PV
#: leaves that converter one ulp of room (limit 3.6e-15 kW, not spare).
DEFICIT, SURPLUS, BALANCE = (50.0, 0.0, 0.0), (0.0, 100.0, 0.0), (0.0, 0.0, 0.0)
SATURATED = (100.0, 100.0, 0.0)
ONE_ULP_ROOM = (50.0, float.fromhex("0x1.f9435e50d7943p+4"), 0.0)

#: Tanks of a 350 kWh bank (floors 35 kWh each) from which a deficit hour
#: delivers 5.0e-15 kW and leaves both tanks bit for bit as they were: the
#: state of ``pv=220,wt=10,bess=350,conv=255`` in its still discharges.
STILL_DRAIN = (35.0, float.fromhex("0x1.1800000000002p+5"))
#: Tanks of a 100 kWh bank at its floors, and half full, both still when idle.
AT_FLOOR, HALF_FULL = (10.0, 10.0), (25.0, 25.0)


class TestStillRuns:
    """An hour that leaves both tanks bit for bit as they were is repeated
    to the end of its run by slice writes.  Every stage array and the final
    tanks equal the reference loop, down to the sign of every zero, and the
    loop resumes exactly at the hour that ends the run."""

    @pytest.fixture
    def loop_runs(self, monkeypatch):
        """``[first hour, hours run]`` of each pass of the battery loop: it
        starts at hour 0 and resumes after each still run."""
        runs = []

        def counting_zip(hours, *flags):
            runs.append([hours.start, 0])
            for hour in zip(hours, *flags):
                runs[-1][1] += 1
                yield hour

        monkeypatch.setattr(dispatch, "zip", counting_zip, raising=False)
        return runs

    @staticmethod
    def assert_same_hours(hours, tanks, conv_kw, bess_kwh, catalog):
        load, pv, wt = (np.array(column) for column in zip(*hours))
        TestBatteryLoopWriteBacks.assert_same_stage(
            load, pv, wt, *tanks, dispatch._battery_params(conv_kw, catalog, bess_kwh))

    @pytest.mark.parametrize("end", [SURPLUS, SATURATED, BALANCE], ids=["surplus", "spare", "balance"])
    def test_discharge_run_ends_at_an_hour_that_is_not_a_plain_deficit(self, bundled, loop_runs, end):
        self.assert_same_hours([DEFICIT] * 5 + [end] + [DEFICIT] * 3, STILL_DRAIN, 30.0, 350.0,
                               bundled.catalog)
        # Hour 0 is still and runs to hour 4; the loop resumes at hour 5.
        # After a balance hour the bank discharges once more, is still at
        # hour 7 and runs to the end of the year.
        assert loop_runs == ([[0, 1], [5, 3], [9, 0]] if end is BALANCE else [[0, 1], [5, 4]])

    def test_a_limit_below_the_still_deliverable_stops_the_jump(self, bundled, loop_runs):
        # Hour 3 may deliver only 3.6e-15 of the 5.0e-15 kW, so no still
        # discharge of this year is repeated.
        self.assert_same_hours([DEFICIT] * 3 + [ONE_ULP_ROOM] + [DEFICIT] * 3, STILL_DRAIN, 30.0, 350.0,
                               bundled.catalog)
        assert loop_runs == [[0, 7]]

    def test_a_still_discharge_cut_by_its_limit_is_not_repeated(self, bundled, loop_runs):
        # Hour 0 delivers its limit, 3.6e-15 kW, and leaves the tanks still;
        # the hours after it deliver 5.0e-15 kW.
        self.assert_same_hours([ONE_ULP_ROOM] + [DEFICIT] * 4, STILL_DRAIN, 30.0, 350.0, bundled.catalog)
        assert loop_runs == [[0, 5]]

    def test_no_converter(self, bundled, loop_runs):
        # Nothing discharges; the idle runs above the floors end at each
        # deficit hour, the run at the floors only at the PV hour.
        hours = [DEFICIT] * 3 + [BALANCE] + [DEFICIT] * 2 + [SURPLUS] + [DEFICIT] * 3
        self.assert_same_hours(hours, STILL_DRAIN, 0.0, 350.0, bundled.catalog)
        assert loop_runs == [[0, 3], [4, 1], [5, 1], [6, 4]]
        loop_runs.clear()
        self.assert_same_hours(hours, AT_FLOOR, 0.0, 100.0, bundled.catalog)
        assert loop_runs == [[0, 1], [6, 4]]

    @pytest.mark.parametrize("hour, tanks, bess", [(DEFICIT, STILL_DRAIN, 350.0), (BALANCE, AT_FLOOR, 100.0),
                                                   (BALANCE, HALF_FULL, 100.0)],
                             ids=["discharge", "at the floors", "above the floors"])
    def test_still_in_a_years_only_hour(self, bundled, loop_runs, hour, tanks, bess):
        self.assert_same_hours([hour], tanks, 30.0, bess, bundled.catalog)
        assert loop_runs == [[0, 1], [1, 0]]

    def test_still_from_the_last_hour(self, bundled, loop_runs):
        # 75 deficit hours drain a 100 kWh bank from 30% to its floors, and
        # 37 idle hours relax tanks of 30 and 20 kWh to an even split; only
        # the last hour of each is still.
        self.assert_same_hours([DEFICIT] * 75, equilibrium_tanks(100.0, 0.3, 0.5), 95.0, 100.0, bundled.catalog)
        self.assert_same_hours([BALANCE] * 37, (30.0, 20.0), 30.0, 100.0, bundled.catalog)
        assert loop_runs == [[0, 75], [75, 0], [0, 37], [37, 0]]
        loop_runs.clear()
        self.assert_same_hours([DEFICIT] * 6, STILL_DRAIN, 30.0, 350.0, bundled.catalog)
        assert loop_runs == [[0, 1], [6, 0]]

    def test_still_at_the_floors(self, bundled, loop_runs):
        # A deficit hour at the floors is idle too; the spare hour 3 ends
        # the run and charges.
        hours = [DEFICIT, BALANCE, DEFICIT, SATURATED, DEFICIT, SURPLUS, DEFICIT, DEFICIT]
        self.assert_same_hours(hours, AT_FLOOR, 30.0, 100.0, bundled.catalog)
        assert loop_runs == [[0, 1], [3, 5]]

    @pytest.mark.parametrize("end", [DEFICIT, SURPLUS], ids=["deficit", "surplus"])
    def test_still_above_the_floors(self, bundled, loop_runs, end):
        self.assert_same_hours([BALANCE] * 3 + [end] + [BALANCE] * 2, HALF_FULL, 30.0, 100.0, bundled.catalog)
        assert loop_runs == [[0, 1], [3, 3]]

    def test_a_zero_tank_is_never_still(self, bundled, loop_runs):
        # On a bank of 5e-324 kWh with no floors a tank reaches -0.0 (a
        # random year did, by hours that discharge and relax by one
        # denormal), and the next idle hour turns it to +0.0 while it
        # compares equal.
        floorless = replace(bundled.catalog, battery=replace(bundled.catalog.battery, soc_min=0.0))
        self.assert_same_hours([DEFICIT, BALANCE], (-0.0, 0.0), 30.0, 5e-324, floorless)
        assert loop_runs == [[0, 2]]

    def test_random_years_from_the_floors(self, loop_runs):
        for seed in range(12):
            rng = np.random.default_rng(seed + 900)
            scenario = random_scenario(seed + 60)
            spec = scenario.catalog.battery
            if seed % 2:
                spec = replace(spec, rate_constant_per_hr=float(rng.uniform(0.25, 3.0)),
                               capacity_ratio=float(rng.uniform(0.2, 0.8)),
                               soc_min=float(rng.uniform(0.0, 0.3)), soc_max=float(rng.uniform(0.7, 1.0)))
                scenario = replace(scenario, catalog=replace(scenario.catalog, battery=spec))
            design = replace(random_design(seed + 31_000), bess_kwh=float(rng.uniform(20.0, 1200.0)))
            TestBatteryLoopWriteBacks.assert_same_stage(
                scenario.load.values, pv_series(scenario, design.pv_kw), wt_series(scenario, design.wt_kw),
                *equilibrium_tanks(design.bess_kwh, spec.soc_min, spec.capacity_ratio),
                dispatch._battery_params(design.converter_kw, scenario.catalog, design.bess_kwh))
        assert sum(hours for _, hours in loop_runs) < 12 * 8760 * 0.9

    def test_mostly_still_year(self, bundled, loop_runs):
        TestBatteryLoopWriteBacks().assert_same_year(bundled, Design.from_string("pv=20,wt=10,bess=50,conv=255"))
        assert sum(hours for _, hours in loop_runs) < 300   # of 8760


class _NeonOrderedNumPy:
    """NumPy whose ``minimum`` and ``maximum`` order -0.0 below +0.0, as
    ARM's NEON instructions do; on x86 NumPy returns the second operand of
    an equal pair."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def _give(result, out):
        if out is None:
            return result
        np.copyto(out, result)
        return out

    def minimum(self, a, b, out=None):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return self._give(np.where(a < b, a, np.where(b < a, b, np.where(np.signbit(a), a, b))), out)

    def maximum(self, a, b, out=None):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return self._give(np.where(a > b, a, np.where(b > a, b, np.where(np.signbit(a), b, a))), out)


def random_grid_inputs(rng, hours: int, conv_kw: float) -> tuple[np.ndarray, ...]:
    """Stage 3's six input arrays as stages 1 and 2 leave them: a residual
    that is never negative or -0.0 (at most 1e-12 in a surplus hour),
    surpluses that may be -0.0 or 1 ulp below zero (a deficit hour's wind
    surplus mostly +0.0), converter use up to the rating and a loss that is
    never negative.  Each array is read-only, as a shared stage's are."""
    deficit = rng.random(hours) < 0.5
    residual = np.where(deficit, rng.choice([0.0, 1e-13, 2e-12, 5.0, 30.0, 300.0], hours),
                        rng.choice([0.0, 5e-13, 1e-12], hours))
    below = -np.spacing(100.0)
    pv_surplus = rng.choice([-0.0, 0.0, below, 5e-13, 10.0, 31.0, 200.0], hours)
    wt_surplus = rng.choice([-0.0, 0.0, below, 5e-13, 20.0, 120.0], hours)
    wt_surplus[deficit & (rng.random(hours) < 0.8)] = 0.0
    conv_used = rng.choice([0.0, 0.5, 1.0], hours) * max(conv_kw, 0.0)
    conv_used[rng.random(hours) < 0.2] = conv_kw
    loss = rng.choice([0.0, 0.3, 2.0], hours)
    arrays = (deficit, residual, pv_surplus, wt_surplus, conv_used, loss)
    for array in arrays:
        array.flags.writeable = False
    return arrays


class TestSignedZeroTies:
    """Stage 3 against the grid stage written with comparisons and masked
    writes, down to the sign of every zero, and both array stages with the
    ties of ``np.minimum``/``np.maximum`` ordered as on ARM: every tie that
    pairs zeros of different sign is folded to +0.0 later, by
    ``np.maximum(..., 0.0)`` or by a masked write, or is an ``np.where``."""

    #: Signed-zero and zero capacities and caps, and an infinite cap.
    GRID_PARAMS = [dict(conv_kw=conv, eta=eta, import_cap=import_cap, export_cap=export_cap, dg_kw=dg,
                        dg_min=0.25, dg_alpha=alpha, dg_beta=beta)
                   for conv, eta, import_cap, export_cap, dg, (alpha, beta) in itertools.product(
                       (-0.0, 0.0, 30.0), (0.95, 1.0), (-0.0, 0.0, 20.0, math.inf), (-0.0, 0.0, 20.0, math.inf),
                       (-0.0, 0.0, 40.0), ((0.08, 0.25), (-0.0, -0.0)))]

    @staticmethod
    def assert_same_columns(actual, expected, context):
        assert actual.keys() == expected.keys()
        for name, e in expected.items():
            a = actual[name]
            assert np.array_equal(a, e) and np.array_equal(np.signbit(a), np.signbit(e)), (name, context)

    def grid_cases(self):
        rng = np.random.default_rng(20)
        for params in self.GRID_PARAMS:
            for hours in (1, 3, 64):
                yield random_grid_inputs(rng, hours, params["conv_kw"]), params

    def test_grid_stage_matches_reference(self):
        for inputs, params in self.grid_cases():
            self.assert_same_columns(dispatch._grid_stage_hours(*inputs, **params),
                                     reference_grid_stage_hours(*inputs, **params), params)

    def test_grid_stage_with_ties_ordered_as_on_arm(self, monkeypatch):
        cases = [(inputs, params, reference_grid_stage_hours(*inputs, **params))
                 for inputs, params in self.grid_cases()]
        monkeypatch.setattr(dispatch, "np", _NeonOrderedNumPy())
        for inputs, params, expected in cases:
            self.assert_same_columns(dispatch._grid_stage_hours(*inputs, **params), expected, params)

    def test_battery_stage_with_ties_ordered_as_on_arm(self, bundled, monkeypatch):
        """Zero loads, PV and wind of either sign (a \"-0\" wind speed with a
        cut-in of 0 gives -0.0 wind), and a -0.0 converter."""
        hours = [np.array(column) for column in zip(*itertools.product(
            (-0.0, 0.0, 1e-12, 20.0, 30.0, 100.0), (-0.0, 0.0, 31.0, 100.0 / 0.95, 400.0),
            (-0.0, 0.0, 20.0, 30.0, 120.0)))]
        cases = []
        for conv, bess in itertools.product((-0.0, 0.0, 30.0, 95.0), (0.0, 100.0, 400.0)):
            params = dispatch._battery_params(conv, bundled.catalog, bess)
            for q1, q2 in {(0.0, 0.0), (0.4 * bess, 0.4 * bess), (0.1 * bess, 0.1 * bess)}:
                cases.append((q1, q2, params, dispatch._battery_stage_hours(*hours, q1, q2, **params)))
        monkeypatch.setattr(dispatch, "np", _NeonOrderedNumPy())
        for q1, q2, params, expected in cases:
            actual = dispatch._battery_stage_hours(*hours, q1, q2, **params)
            for a, e in zip(actual[0] + actual[1], expected[0] + expected[1]):
                assert np.array_equal(a, e) and np.array_equal(np.signbit(a), np.signbit(e)), params
            assert actual[2:] == expected[2:]


class TestStepHour:
    """The kernel's stages on one-hour arrays (``helpers.step_hour``)."""

    def test_all_zero_hour(self, bundled):
        q1, q2 = equilibrium_tanks(100.0, 0.5, 0.5)
        design = Design(bess_kwh=100.0, converter_kw=50.0)
        flow, *new_state = step_hour(q1, q2, 0.0, 0.0, 0.0, design, bundled.tariff, bundled.catalog)
        assert flow["unmet_kw"] == 0.0 and flow["grid_import_kw"] == 0.0
        assert flow["batt_charge_kw"] == 0.0 and flow["batt_discharge_kw"] == 0.0
        # tanks equilibrate but hold their total
        assert sum(new_state) == pytest.approx(q1 + q2, rel=1e-12)

    def test_shortfall_is_exact_residual(self, bundled):
        design = Design(grid_cap_kw=40.0)
        flow, _, _ = step_hour(0.0, 0.0, 100.0, 0.0, 0.0, design, bundled.tariff, bundled.catalog)
        assert flow["grid_import_kw"] == pytest.approx(40.0)
        assert flow["unmet_kw"] == pytest.approx(60.0)

    def test_surplus_with_no_outlet_curtails(self, bundled):
        full = equilibrium_tanks(100.0, 0.8, 0.5)
        design = Design(pv_kw=100.0, bess_kwh=100.0, converter_kw=100.0, grid_cap_kw=0.0)
        flow, _, _ = step_hour(*full, 0.0, 80.0, 0.0, design, bundled.tariff, bundled.catalog)
        assert flow["grid_export_kw"] == 0.0
        assert flow["curtailed_kw"] == pytest.approx(80.0)

    def test_matches_simulate_year_first_hour(self, bundled, a5):
        trace = simulate_year(bundled, a5)
        spec = bundled.catalog.battery
        pv = float(pv_series(bundled, a5.pv_kw)[0])
        wt = float(wt_series(bundled, a5.wt_kw)[0])
        flow, _, _ = step_hour(*equilibrium_tanks(a5.bess_kwh, spec.soc_max, spec.capacity_ratio),
                               float(bundled.load.values[0]), pv, wt, a5, bundled.tariff, bundled.catalog)
        assert flow["grid_import_kw"] == pytest.approx(float(trace.grid_import_kw[0]), abs=1e-12)
        assert flow["batt_discharge_kw"] == pytest.approx(float(trace.batt_discharge_kw[0]), abs=1e-12)

    def test_threaded_year_equals_simulate_year(self, bundled, a5):
        trace = simulate_year(bundled, a5)
        spec = bundled.catalog.battery
        q1, q2 = equilibrium_tanks(a5.bess_kwh, spec.soc_max, spec.capacity_ratio)
        inputs = zip(bundled.load.values.tolist(), trace.pv_kw.tolist(), trace.wt_kw.tolist())
        flows, soc = [], []
        for load, pv, wt in inputs:
            flow, q1, q2 = step_hour(q1, q2, load, pv, wt, a5, bundled.tariff, bundled.catalog)
            flows.append(flow)
            soc.append((q1 + q2) / a5.bess_kwh)
        for name in FLOW_FIELDS:
            assert np.array_equal([f[name] for f in flows], getattr(trace, name)), name
        assert np.array_equal(soc, trace.soc)
        assert (q1, q2) == (trace.final_battery.q1_kwh, trace.final_battery.q2_kwh)


class TestTraceExport:
    def test_csv_columns_and_rows(self, tmp_path, bundled, a5):
        trace = simulate_year(bundled, a5)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("pv_kw,wt_kw,dg_kw,batt_charge_kw,batt_discharge_kw,"
                            "grid_import_kw,grid_export_kw,unmet_kw,curtailed_kw,"
                            "fuel_l_per_hr,conversion_loss_kw,soc")
        assert len(lines) == 8761

    @staticmethod
    def assert_same_bytes(tmp_path, trace) -> bytes:
        write_trace_csv(trace, tmp_path / "fast.csv")
        reference_write_trace_csv(trace, tmp_path / "reference.csv")
        text = (tmp_path / "fast.csv").read_bytes()
        assert text == (tmp_path / "reference.csv").read_bytes()
        return text

    def test_csv_bytes_match_per_cell_formatter(self, tmp_path, bundled, a5):
        text = self.assert_same_bytes(tmp_path, simulate_year(bundled, a5))
        assert text.count(b"-0.000000") == 18  # curtailed_kw cells at -1 ulp

    @pytest.mark.parametrize("design, negative_zeros", [("pv=735.9375,conv=422.96875", 66)]
                             + [(design, None) for design in bench_inputs().SENSITIVITY_DESIGNS])
    def test_design_traces_match_oracle(self, tmp_path, bundled, design, negative_zeros):
        text = self.assert_same_bytes(tmp_path, simulate_year(bundled, Design.from_string(design)))
        if negative_zeros is not None:
            assert text.count(b"-0.000000") == negative_zeros

    def test_adversarial_columns_match_oracle(self, tmp_path, bundled, a5):
        """Exact six-decimal ties, signed zeros, -1 ulp cells, subnormals,
        integer parts of up to 16 digits, NaN and infinities, each column
        spread over rows that also hold ordinary values."""
        rng = np.random.default_rng(15)
        hours = len(bundled.load)
        ties = (np.arange(hours) + 0.5) * 1e-6
        special = np.array([0.0, -0.0, -1e-14, 1e-14, 5e-324, -5e-324, 2.2e-308, 5e-7, 2.5e-6, 9.9999995,
                            999.9999996, 999999.9999995, 1e9, 999999999.9999999, 4.6e9, -4.6e9,
                            4503599627.3704, 1e15, np.nan, np.inf, -np.inf])
        columns = [ties, -ties, rng.choice(special, hours), np.where(rng.random(hours) < 0.01, np.nan, 1.0),
                   np.round(rng.uniform(-10.0, 10.0, hours), 6) + 5e-7, rng.uniform(-1e-6, 1e-6, hours),
                   rng.standard_normal(hours) * 10.0 ** rng.integers(-12, 10, hours), rng.uniform(0.0, 1e12, hours),
                   np.zeros(hours), -np.zeros(hours), rng.uniform(-1e3, 1e3, hours), rng.uniform(0.0, 1.0, hours)]
        trace = simulate_year(bundled, a5)
        self.assert_same_bytes(tmp_path, replace(trace, **dict(zip(FLOW_FIELDS + ("soc",), columns))))
        for column in columns:  # one special column among ordinary ones
            ordinary = [rng.uniform(0.0, 500.0, hours) for _ in FLOW_FIELDS]
            self.assert_same_bytes(tmp_path, replace(trace, **dict(zip(FLOW_FIELDS + ("soc",), ordinary + [column]))))

    def test_formats_by_blocks(self, tmp_path, bundled, a5):
        """Formatting holds a block of rows at a time, not the year."""
        trace = simulate_year(bundled, a5)
        write_trace_csv(trace, tmp_path / "warm.csv")
        tracemalloc.start()
        try:
            write_trace_csv(trace, tmp_path / "trace.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000
