"""One-year hourly operation of a candidate design against a scenario.

Bus topology: PV and the battery live on the DC bus; the wind turbines,
diesel generator, grid connection, and load live on the AC bus.  The
converter moves power between buses, losing ``1 - efficiency`` per
crossing, with total throughput (measured on its output side) limited by
its rating each hour.

Dispatch priority, fixed and price-blind:

* deficit hours -- battery discharge, then grid import, then diesel
  (only between its minimum load ratio and rating), then unmet;
* surplus hours -- battery charge (PV charges DC-direct first, then
  wind through the converter), then grid export, then curtailment.

Only the battery's state carries from one hour to the next.  One
kernel, :func:`_dispatch_hours`, implements the dispatch rules in three
stages over the year:

1. NumPy arrays: wind serves load on the AC bus, then PV through the
   converter; this marks the deficit hours.
2. A Python loop over the hours, run only for a design with a battery
   (:func:`_battery_hours`): discharge in deficit hours, PV DC-direct
   charge when nothing was discharged, PV-then-wind charge in surplus
   hours, and the kinetic-battery tank update with the closed forms of
   ``components`` inlined.
3. NumPy arrays: grid import, diesel and fuel, unmet load, export and
   curtailment.

The kernel holds the only copies of two component laws: the diesel fuel
law (``alpha * rating + beta * output`` L/hr while running, exactly zero
when off) and the converter loss (``delivered * (1/efficiency - 1)`` per
crossing).  The available PV and wind production comes from the resource
series of ``components``.  :func:`simulate_year` runs the stages over the
year and :func:`step_hour` over one-hour arrays.  The tests hold them
bit-exact, signs of zeros included, against a plain per-hour reference
loop (``tests/helpers.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .components import BatteryState, battery_state_from_spec, pv_series, wt_series
from .scenario import Catalog, GridTariff, Scenario

HOURS = 8760

#: Rows converted to Python floats at a time by :func:`write_trace_csv`.
_CSV_BLOCK_ROWS = 1024


class InvalidDesignError(ValueError):
    """Design capacities are negative or not finite."""


@dataclass(frozen=True)
class Design:
    """Candidate capacities.  A source is included exactly when its
    capacity is positive.

    ``grid_cap_kw = None`` leaves grid exchange limited only by the
    tariff's import/export caps.
    """

    pv_kw: float = 0.0
    wt_kw: float = 0.0
    dg_kw: float = 0.0
    bess_kwh: float = 0.0
    converter_kw: float = 0.0
    grid_cap_kw: float | None = None

    @property
    def include_flags(self) -> dict[str, bool]:
        return {
            "pv": self.pv_kw > 0.0,
            "wt": self.wt_kw > 0.0,
            "dg": self.dg_kw > 0.0,
            "bess": self.bess_kwh > 0.0,
            "converter": self.converter_kw > 0.0,
        }

    def capacities(self) -> dict[str, float]:
        return {
            "pv_kw": self.pv_kw,
            "wt_kw": self.wt_kw,
            "dg_kw": self.dg_kw,
            "bess_kwh": self.bess_kwh,
            "converter_kw": self.converter_kw,
        }

    def violations(self) -> list[str]:
        problems = []
        for name, value in self.capacities().items():
            if not math.isfinite(value) or value < 0.0:
                problems.append(f"{name}: must be finite and >= 0, got {value}")
        if self.grid_cap_kw is not None and (not math.isfinite(self.grid_cap_kw) or self.grid_cap_kw < 0.0):
            problems.append(f"grid_cap_kw: must be finite and >= 0, got {self.grid_cap_kw}")
        return problems

    _FIELD_ALIASES = {
        "pv": "pv_kw", "wt": "wt_kw", "dg": "dg_kw", "bess": "bess_kwh",
        "conv": "converter_kw", "converter": "converter_kw", "grid": "grid_cap_kw",
    }

    @classmethod
    def from_string(cls, text: str) -> "Design":
        """Parse ``pv=418,wt=123,dg=0,bess=704,conv=255[,grid=300]``."""
        kwargs: dict[str, float] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise InvalidDesignError(f"expected name=value, got {part!r}")
            name, _, value = part.partition("=")
            key = cls._FIELD_ALIASES.get(name.strip().lower())
            if key is None:
                raise InvalidDesignError(f"unknown capacity {name.strip()!r}")
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise InvalidDesignError(f"bad number for {name.strip()!r}: {value!r}") from None
        design = cls(**kwargs)
        problems = design.violations()
        if problems:
            raise InvalidDesignError("; ".join(problems))
        return design


#: Column order of one hour of power flows, shared by PowerFlow, the trace
#: arrays, and the CSV export.
FLOW_FIELDS = (
    "pv_kw", "wt_kw", "dg_kw", "batt_charge_kw", "batt_discharge_kw",
    "grid_import_kw", "grid_export_kw", "unmet_kw", "curtailed_kw",
    "fuel_l_per_hr", "conversion_loss_kw",
)


@dataclass(frozen=True)
class PowerFlow:
    """Power flows for a single hour, all non-negative kW (fuel in L/hr).

    ``pv_kw`` and ``wt_kw`` are the available productions at their bus
    (PV on DC, wind on AC), before any curtailment; ``curtailed_kw`` is
    the unused remainder measured at the source bus.  Charge and
    discharge are measured at the battery terminals and are never both
    positive.
    """

    pv_kw: float
    wt_kw: float
    dg_kw: float
    batt_charge_kw: float
    batt_discharge_kw: float
    grid_import_kw: float
    grid_export_kw: float
    unmet_kw: float
    curtailed_kw: float
    fuel_l_per_hr: float
    conversion_loss_kw: float


@dataclass
class DispatchTrace:
    """Hourly power flows of one simulated year plus aggregates.

    Array attributes are parallel, one entry per hour; ``soc`` is the
    battery state of charge at the end of each hour.
    """

    load_kw: np.ndarray
    pv_kw: np.ndarray
    wt_kw: np.ndarray
    dg_kw: np.ndarray
    batt_charge_kw: np.ndarray
    batt_discharge_kw: np.ndarray
    grid_import_kw: np.ndarray
    grid_export_kw: np.ndarray
    unmet_kw: np.ndarray
    curtailed_kw: np.ndarray
    fuel_l_per_hr: np.ndarray
    conversion_loss_kw: np.ndarray
    soc: np.ndarray
    final_battery: BatteryState
    initial_stored_kwh: float
    roundtrip_efficiency: float

    @property
    def load_kwh(self) -> float:
        return float(self.load_kw.sum())

    @property
    def unmet_kwh(self) -> float:
        return float(self.unmet_kw.sum())

    @property
    def served_kwh(self) -> float:
        return self.load_kwh - self.unmet_kwh

    @property
    def fuel_l(self) -> float:
        return float(self.fuel_l_per_hr.sum())

    @property
    def import_kwh(self) -> float:
        return float(self.grid_import_kw.sum())

    @property
    def export_kwh(self) -> float:
        return float(self.grid_export_kw.sum())

    @property
    def curtailed_kwh(self) -> float:
        return float(self.curtailed_kw.sum())

    @property
    def conversion_loss_kwh(self) -> float:
        return float(self.conversion_loss_kw.sum())

    @property
    def battery_loss_kwh(self) -> float:
        """Energy lost inside the battery to the per-direction efficiency."""
        sq = math.sqrt(self.roundtrip_efficiency)
        charge = float(self.batt_charge_kw.sum())
        discharge = float(self.batt_discharge_kw.sum())
        return charge * (1.0 - sq) + discharge * (1.0 / sq - 1.0)

    @property
    def loss_kwh(self) -> float:
        """All losses: conversion + battery + curtailment."""
        return self.conversion_loss_kwh + self.battery_loss_kwh + self.curtailed_kwh

    @property
    def pv_kwh(self) -> float:
        return float(self.pv_kw.sum())

    @property
    def wt_kwh(self) -> float:
        return float(self.wt_kw.sum())

    @property
    def renewable_kwh(self) -> float:
        return self.pv_kwh + self.wt_kwh

    @property
    def dg_kwh(self) -> float:
        return float(self.dg_kw.sum())

    @property
    def dg_hours(self) -> int:
        return int(np.count_nonzero(self.dg_kw > 0.0))

    @property
    def stored_delta_kwh(self) -> float:
        """Final minus initial stored energy in the battery tanks."""
        return self.final_battery.stored_kwh - self.initial_stored_kwh

    def balance_residual_kw(self) -> np.ndarray:
        """Per-hour energy balance residual; ~0 for a correct dispatch."""
        supply = (self.pv_kw + self.wt_kw + self.dg_kw
                  + self.batt_discharge_kw + self.grid_import_kw)
        use = ((self.load_kw - self.unmet_kw) + self.batt_charge_kw
               + self.grid_export_kw + self.curtailed_kw + self.conversion_loss_kw)
        return supply - use


def _dispatch_hours(
    load: np.ndarray, pv: np.ndarray, wt: np.ndarray, q1: float, q2: float,
    conv_kw: float, eta: float, q_max: float, k: float, c: float, sq_eta: float,
    floor_q1: float, floor_q2: float, q_max_eff: float,
    import_cap: float, export_cap: float,
    dg_kw: float, dg_min: float, dg_alpha: float, dg_beta: float,
) -> tuple:
    """Route power over parallel float64 hour arrays: the one implementation
    of the dispatch rules.

    The battery starts from tanks ``q1``/``q2`` and takes part when
    ``q_max > 0``.  Returns ``(columns, soc, q1, q2)``: the nine flow
    columns of :data:`FLOW_FIELDS` from ``dg_kw`` to
    ``conversion_loss_kw``, the end-of-hour SOC, and the final tanks.

    Stages 1 and 3 are array expressions: every clamp keeps the comparison
    of the per-hour rule it replaces, and the loss column adds its parts in
    the per-hour order (PV, then battery or wind charging, then export), so
    each hour's result is bit-identical to routing that hour alone.
    """
    # Stage 1: wind serves load on the AC bus, then PV through the converter.
    # A masked flow is +0.0 outside its mask, and ``x - 0.0`` is ``x`` bit
    # for bit, so subtracting it leaves every other hour as it was.
    wt_to_load = np.where(wt < load, wt, load)
    residual = load - wt_to_load
    wt_surplus = wt - wt_to_load
    deliverable = pv * eta
    deliverable = np.where(deliverable > conv_kw, conv_kw, deliverable)
    deliverable = np.where(deliverable > residual, residual, deliverable)
    # Positive only where the residual, the PV and the rating all are.
    pv_to_load = deliverable > 0.0
    conv_used = np.where(pv_to_load, deliverable, 0.0)   # converter output-side throughput
    used_dc = conv_used / eta
    pv_surplus = pv - used_dc
    residual -= conv_used
    # Never -0.0, so equal to the per-hour ``0.0 + ...``; adding +0.0 to it
    # later leaves it as it is.
    loss = used_dc - conv_used
    deficit = residual > 1e-12

    # Stage 2: the battery, the only state carried from hour to hour.
    charge = np.zeros(len(load))
    discharge = np.zeros(len(load))
    soc = np.zeros(len(load))
    if q_max > 0.0:
        q1, q2 = _battery_hours(
            deficit, residual, pv_surplus, wt_surplus, conv_used, loss, charge, discharge, soc,
            q1, q2, conv_kw, eta, q_max, k, c, sq_eta, floor_q1, floor_q2, q_max_eff)

    # Stage 3, deficit hours: grid import, then diesel between its minimum
    # load and rating, then unmet.  A surplus hour's residual stays at most
    # 1e-12, so only deficit hours import or run the diesel.
    to_grid = (residual > 1e-12) & (import_cap > 0.0)
    grid_import = np.where(to_grid, np.where(residual < import_cap, residual, import_cap), 0.0)
    residual -= grid_import
    to_dg = (residual > 1e-12) & (dg_kw > 0.0) & (residual >= dg_min * dg_kw)
    dg_out = np.where(to_dg, np.where(residual < dg_kw, residual, dg_kw), 0.0)
    fuel = np.where(to_dg, dg_alpha * dg_kw + dg_beta * dg_out, 0.0)
    residual -= dg_out
    unmet = np.where(deficit & (residual > 0.0), residual, 0.0)

    # Stage 3, surplus hours: export wind AC-direct, then PV through the
    # converter room left; curtail the rest.
    to_export = ~deficit & (export_cap > 0.0) & ((wt_surplus > 0.0) | (pv_surplus > 0.0))
    wind_export = np.where(to_export, np.where(wt_surplus < export_cap, wt_surplus, export_cap), 0.0)
    wt_surplus -= wind_export
    room = conv_kw - conv_used
    export_room = export_cap - wind_export
    ac_possible = pv_surplus * eta
    ac_possible = np.where(ac_possible > room, room, ac_possible)
    ac_possible = np.where(ac_possible > export_room, export_room, ac_possible)
    # Positive only where the PV surplus, the room and the export room all are.
    pv_export = to_export & (ac_possible > 0.0)
    ac_possible = np.where(pv_export, ac_possible, 0.0)
    dc_used = ac_possible / eta
    pv_surplus -= dc_used
    loss += dc_used - ac_possible
    grid_export = np.where(pv_export, wind_export + ac_possible, wind_export)
    # Deficit hours have no wind surplus (+0.0) and curtail PV surplus only
    # when it is positive: PV through the converter can leave -1 ulp.
    curtailed = np.where(deficit & ~(pv_surplus > 0.0), 0.0, pv_surplus + wt_surplus)

    return ((dg_out, charge, discharge, grid_import, grid_export, unmet, curtailed, fuel, loss),
            soc, q1, q2)


def _battery_hours(
    deficit: np.ndarray, residual: np.ndarray, pv_surplus: np.ndarray, wt_surplus: np.ndarray,
    conv_used: np.ndarray, loss: np.ndarray, charge: np.ndarray, discharge: np.ndarray,
    soc: np.ndarray, q1: float, q2: float,
    conv_kw: float, eta: float, q_max: float, k: float, c: float, sq_eta: float,
    floor_q1: float, floor_q2: float, q_max_eff: float,
) -> tuple[float, float]:
    """Stage 2 of :func:`_dispatch_hours`: charge and discharge the battery
    hour by hour and step its tanks; returns the final ``q1, q2``.

    Deficit hours discharge first; when nothing was discharged, PV surplus
    left by a saturated converter charges DC-direct.  Surplus hours charge
    from PV DC-direct, then from wind through the converter room left.
    Updates the stage arrays in place, through memoryviews that read and
    write Python floats.  The kinetic-battery closed forms of
    ``components`` are inlined at dt = 1 h with their per-call constants
    hoisted and every remaining expression in their operation order.
    """
    r = math.exp(-k)
    one_r = 1.0 - r
    a = k - 1.0 + r
    denom = one_r + c * a
    one_c = 1.0 - c
    k_c_qmax = k * c * q_max_eff
    res_v, ps_v, ws_v, cu_v, loss_v, chg_v, dis_v, soc_v = map(
        memoryview, (residual, pv_surplus, wt_surplus, conv_used, loss, charge, discharge, soc))

    for h, short, ps, ws in zip(range(len(soc)), deficit.tolist(), ps_v, ws_v):
        dis = 0.0
        chg = 0.0
        e1 = q1 - floor_q1
        if e1 < 0.0:
            e1 = 0.0
        e2 = q2 - floor_q2
        if e2 < 0.0:
            e2 = 0.0
        if short:
            internal = (k * e1 * r + (e1 + e2) * k * c * one_r) / denom
            if internal < 0.0:
                internal = 0.0
            deliverable = internal * sq_eta * eta
            room = conv_kw - cu_v[h]
            if deliverable > room:
                deliverable = room
            res = res_v[h]
            if deliverable > res:
                deliverable = res
            if deliverable > 0.0:
                dis = deliverable / eta
                cu_v[h] += deliverable
                loss_v[h] += dis - deliverable
                res_v[h] = res - deliverable
                dis_v[h] = dis
        # Charge when nothing was discharged.  A deficit hour has no wind
        # surplus (+0.0), so there only PV left by a saturated converter
        # charges.
        if dis == 0.0 and (ps > 0.0 or ws > 0.0):
            internal = (k_c_qmax - k * e1 * r - (e1 + e2) * k * c * one_r) / denom
            if internal < 0.0:
                internal = 0.0
            bound = internal / sq_eta
            chg = ps if ps < bound else bound
            ps_v[h] = ps - chg
            cu = cu_v[h]
            if ws > 0.0 and chg < bound and conv_kw > cu:
                dc_possible = ws * eta
                room = conv_kw - cu
                if dc_possible > room:
                    dc_possible = room
                if dc_possible > bound - chg:
                    dc_possible = bound - chg
                if dc_possible > 0.0:
                    ac_used = dc_possible / eta
                    ws_v[h] = ws - ac_used
                    cu_v[h] = cu + dc_possible
                    loss_v[h] += ac_used - dc_possible
                    chg += dc_possible
            chg_v[h] = chg

        i = dis / sq_eta - chg * sq_eta
        q0 = q1 + q2
        q1, q2 = (q1 * r + ((q0 * k * c - i) * one_r - i * c * a) / k,
                  q2 * r + q0 * one_c * one_r - i * one_c * a / k)
        soc_v[h] = (q1 + q2) / q_max
    return q1, q2


def _dispatch_params(design: Design, tariff: GridTariff, catalog: Catalog, q_max: float) -> dict:
    """Keyword arguments of :func:`_dispatch_hours` other than the series
    and the starting tanks, for a battery bank of ``q_max`` kWh."""
    spec = catalog.battery
    floor = spec.soc_min * q_max
    grid_cap = design.grid_cap_kw if design.grid_cap_kw is not None else math.inf
    dg = catalog.diesel
    return dict(
        conv_kw=design.converter_kw, eta=catalog.converter.efficiency,
        q_max=q_max, k=spec.rate_constant_per_hr, c=spec.capacity_ratio,
        sq_eta=math.sqrt(spec.roundtrip_efficiency),
        floor_q1=spec.capacity_ratio * floor, floor_q2=(1.0 - spec.capacity_ratio) * floor,
        q_max_eff=(spec.soc_max - spec.soc_min) * q_max,
        import_cap=min(grid_cap, tariff.max_import_kw), export_cap=min(grid_cap, tariff.max_export_kw),
        dg_kw=design.dg_kw, dg_min=dg.min_load_ratio,
        dg_alpha=dg.fuel_intercept_l_per_hr_kw, dg_beta=dg.fuel_slope_l_per_hr_kw)


def simulate_year(scenario: Scenario, design: Design) -> DispatchTrace:
    """Simulate 8760 hours of operation; deterministic for fixed inputs."""
    problems = design.violations()
    if problems:
        raise InvalidDesignError("; ".join(problems))

    load = scenario.load.values
    pv_avail = pv_series(scenario, design.pv_kw)
    wt_avail = wt_series(scenario, design.wt_kw)
    spec = scenario.catalog.battery
    initial = battery_state_from_spec(spec, design.bess_kwh)
    cols, soc, q1, q2 = _dispatch_hours(
        load, pv_avail, wt_avail, initial.q1_kwh, initial.q2_kwh,
        **_dispatch_params(design, scenario.tariff, scenario.catalog, design.bess_kwh))
    final = BatteryState(q1_kwh=q1, q2_kwh=q2, q_max_kwh=design.bess_kwh,
                         soc_min=spec.soc_min, soc_max=spec.soc_max)
    return DispatchTrace(
        load_kw=load,
        pv_kw=pv_avail,
        wt_kw=wt_avail,
        **dict(zip(FLOW_FIELDS[2:], cols)),
        soc=soc,
        final_battery=final,
        initial_stored_kwh=initial.stored_kwh,
        roundtrip_efficiency=spec.roundtrip_efficiency,
    )


def step_hour(state: BatteryState, load_kw: float, pv_kw: float, wt_kw: float,
              design: Design, tariff: GridTariff, specs: Catalog) -> tuple[BatteryState, PowerFlow]:
    """Dispatch a single hour.

    Runs the stages of :func:`simulate_year` on one-hour arrays, so
    threading ``step_hour`` through a year reproduces its trace bit for bit.
    """
    cols, _, q1, q2 = _dispatch_hours(
        np.array([load_kw]), np.array([pv_kw]), np.array([wt_kw]), state.q1_kwh, state.q2_kwh,
        **_dispatch_params(design, tariff, specs, state.q_max_kwh))
    new_state = BatteryState(q1_kwh=q1, q2_kwh=q2, q_max_kwh=state.q_max_kwh,
                             soc_min=state.soc_min, soc_max=state.soc_max)
    return new_state, PowerFlow(pv_kw, wt_kw, *(float(col[0]) for col in cols))


def write_trace_csv(trace: DispatchTrace, path: str | Path) -> None:
    """Write the hourly trace: the PowerFlow columns plus ``soc``, one
    row per hour in hour order."""
    arrays = [getattr(trace, name) for name in FLOW_FIELDS] + [trace.soc]
    row = ",".join(["{:.6f}"] * len(arrays)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(FLOW_FIELDS + ("soc",)) + "\n")
        # Python floats format fastest; converting a block of rows at a time
        # keeps the copies small.
        for start in range(0, len(trace.load_kw), _CSV_BLOCK_ROWS):
            columns = [a[start:start + _CSV_BLOCK_ROWS].tolist() for a in arrays]
            fh.writelines(row.format(*values) for values in zip(*columns))
