"""Physical models of the microgrid components.

The resource models turn a scenario's weather series into the available
PV and wind production of every hour.  The battery follows the two-tank
kinetic model (available + chemically bound charge exchanging at a fixed
rate), with the usable window restricted to [soc_min, soc_max] of
nominal capacity.  Diesel fuel and converter losses are one line each
and live inline in the dispatch kernel.  Every function here is pure, so
design evaluations can run in parallel without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .scenario import BatterySpec, Scenario

STC_CELL_TEMP_C = 25.0
AIR_DENSITY_KG_M3 = 1.225


class BoundViolationError(ValueError):
    """Battery step requested beyond the kinetic-model power bound."""


def pv_series(scenario: Scenario, capacity_kw: float) -> np.ndarray:
    """Available PV production for every hour, kW at the DC bus.

    Rated output is scaled by the derating factor, the irradiance (in
    kW/m2, i.e. as a fraction of the 1 kW/m2 standard test condition) and
    a linear cell-temperature correction around 25 degC, clamped at zero.
    """
    spec = scenario.catalog.pv
    g = scenario.irradiance.values
    if scenario.cell_temperature is not None:
        temp_factor = 1.0 + spec.temp_coeff_per_c * (scenario.cell_temperature.values - STC_CELL_TEMP_C)
    else:
        temp_factor = 1.0
    return np.maximum(capacity_kw * spec.derating * g * temp_factor, 0.0)


def wt_series(scenario: Scenario, capacity_kw: float) -> np.ndarray:
    """Available wind production for every hour, kW at the AC bus.

    The anemometer speed is extrapolated to hub height with the power
    law.  Output is zero outside the cut-in/cut-out window; between
    cut-in and rated speed the normalized curve
    ``(u^e - ci^e) / (rated^e - ci^e)`` scales the nameplate, with the
    swept-area aerodynamic limit ``0.5 * rho * A * u^3 * Cp`` as an upper
    clamp.  Output never exceeds nameplate capacity.  Heights are checked
    by ``Scenario.violations``.
    """
    spec = scenario.catalog.wind
    if capacity_kw <= 0.0:
        return np.zeros(len(scenario.wind_speed))
    # NumPy scalars overflow to inf (and on to NaN output) where floats raise.
    u = scenario.wind_speed.values * np.float64(spec.hub_height_m / scenario.anemometer_height_m) ** spec.shear_exponent
    e = np.float64(spec.curve_exponent)
    fraction = np.clip((u**e - spec.cut_in_ms**e) / (spec.rated_ms**e - spec.cut_in_ms**e), 0.0, 1.0)
    power = capacity_kw * fraction
    area = spec.swept_area_m2_per_unit * capacity_kw / spec.nominal_kw
    aero = 0.5 * AIR_DENSITY_KG_M3 * area * u**3 * spec.power_coefficient / 1000.0
    power = np.minimum(np.minimum(power, aero), capacity_kw)
    power[(u < spec.cut_in_ms) | (u > spec.cut_out_ms)] = 0.0
    return power


@dataclass(frozen=True)
class BatteryState:
    """Two-tank charge state.

    ``q1_kwh`` is the immediately available charge and ``q2_kwh`` the
    chemically bound charge, both absolute (tank totals include the
    energy parked below ``soc_min``).  ``soc`` stays inside
    [``soc_min``, ``soc_max``] after every accepted step.
    """

    q1_kwh: float
    q2_kwh: float
    q_max_kwh: float
    soc_min: float = 0.2
    soc_max: float = 0.8

    @property
    def soc(self) -> float:
        if self.q_max_kwh <= 0.0:
            return 0.0
        return (self.q1_kwh + self.q2_kwh) / self.q_max_kwh

    @property
    def stored_kwh(self) -> float:
        return self.q1_kwh + self.q2_kwh

    @classmethod
    def at_soc(cls, q_max_kwh: float, soc: float, capacity_ratio: float,
               soc_min: float = 0.2, soc_max: float = 0.8) -> "BatteryState":
        """State at a given SOC with the tanks in equilibrium split."""
        stored = q_max_kwh * soc
        return cls(q1_kwh=capacity_ratio * stored, q2_kwh=(1.0 - capacity_ratio) * stored,
                   q_max_kwh=q_max_kwh, soc_min=soc_min, soc_max=soc_max)


def _window(state: BatteryState, c: float) -> tuple[float, float, float]:
    """Tank charges shifted to the usable window above the SOC floor.

    Returns (q1_eff, q2_eff, q_max_eff).  The floor energy is split
    between the tanks in the equilibrium ratio c : (1 - c), so a battery
    resting at ``soc_min`` has both effective tanks empty.
    """
    floor = state.soc_min * state.q_max_kwh
    q_max_eff = (state.soc_max - state.soc_min) * state.q_max_kwh
    q1_eff = state.q1_kwh - c * floor
    q2_eff = state.q2_kwh - (1.0 - c) * floor
    return q1_eff, q2_eff, q_max_eff


def _kinetic_discharge_bound(q1: float, q2: float, k: float, c: float, dt: float) -> float:
    """Maximum constant power (kW) the tanks can deliver over ``dt``.

    Closed-form solution of the two-tank exchange dynamics: the power
    that empties the available tank exactly at the end of the interval.
    """
    r = math.exp(-k * dt)
    denom = 1.0 - r + c * (k * dt - 1.0 + r)
    bound = (k * q1 * r + (q1 + q2) * k * c * (1.0 - r)) / denom
    return max(bound, 0.0)


def _kinetic_charge_bound(q1: float, q2: float, q_max: float, k: float, c: float, dt: float) -> float:
    """Maximum constant power (kW) the tanks can absorb over ``dt``.

    Mirror of the discharge bound: the power that fills the available
    tank (capacity ``c * q_max``) exactly at the end of the interval.
    """
    r = math.exp(-k * dt)
    denom = 1.0 - r + c * (k * dt - 1.0 + r)
    bound = (k * c * q_max - k * q1 * r - (q1 + q2) * k * c * (1.0 - r)) / denom
    return max(bound, 0.0)


def _kinetic_step(q1: float, q2: float, internal_kw: float, k: float, c: float, dt: float) -> tuple[float, float]:
    """Advance the tanks one interval at constant internal power.

    ``internal_kw`` is positive when discharging (charge leaving tank 1).
    Exact solution of the linear tank dynamics; conserves
    q1 + q2 = q0 - internal_kw * dt identically.
    """
    r = math.exp(-k * dt)
    q0 = q1 + q2
    i = internal_kw
    a = k * dt - 1.0 + r
    new_q1 = q1 * r + ((q0 * k * c - i) * (1.0 - r) - i * c * a) / k
    new_q2 = q2 * r + q0 * (1.0 - c) * (1.0 - r) - i * (1.0 - c) * a / k
    return new_q1, new_q2


def bess_max_discharge(state: BatteryState, dt_hr: float = 1.0,
                       rate_constant_per_hr: float = 1.0, capacity_ratio: float = 0.5,
                       roundtrip_efficiency: float = 0.90) -> float:
    """Maximum power (kW, at the battery terminals) deliverable over ``dt_hr``.

    Evaluates the kinetic-model discharge bound on the charge available
    above the SOC floor, then applies the discharge-side efficiency, so
    the SOC cannot fall below ``soc_min`` within the step.
    """
    if dt_hr <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt_hr}")
    if state.q_max_kwh <= 0.0:
        return 0.0
    q1, q2, _ = _window(state, capacity_ratio)
    if q1 <= 0.0 and q2 <= 0.0:
        return 0.0
    internal = _kinetic_discharge_bound(max(q1, 0.0), max(q2, 0.0),
                                        rate_constant_per_hr, capacity_ratio, dt_hr)
    bound = internal * math.sqrt(roundtrip_efficiency)
    return bound if bound > 1e-12 * state.q_max_kwh else 0.0


def bess_max_charge(state: BatteryState, dt_hr: float = 1.0,
                    rate_constant_per_hr: float = 1.0, capacity_ratio: float = 0.5,
                    roundtrip_efficiency: float = 0.90) -> float:
    """Maximum power (kW, at the battery terminals) acceptable over ``dt_hr``.

    Kinetic-model charge bound against the usable-window capacity, so the
    SOC cannot exceed ``soc_max``.  Only ``sqrt(eta)`` of the external
    power reaches the tanks, so the acceptable external power is the
    internal bound divided by ``sqrt(eta)``.
    """
    if dt_hr <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt_hr}")
    if state.q_max_kwh <= 0.0:
        return 0.0
    q1, q2, q_max_eff = _window(state, capacity_ratio)
    internal = _kinetic_charge_bound(max(q1, 0.0), max(q2, 0.0), q_max_eff,
                                     rate_constant_per_hr, capacity_ratio, dt_hr)
    bound = internal / math.sqrt(roundtrip_efficiency)
    return bound if bound > 1e-12 * state.q_max_kwh else 0.0


def bess_step(state: BatteryState, power_kw: float, dt_hr: float = 1.0,
              rate_constant_per_hr: float = 1.0, capacity_ratio: float = 0.5,
              roundtrip_efficiency: float = 0.90) -> BatteryState:
    """Advance the battery one interval at constant terminal power.

    ``power_kw`` is positive when charging and negative when discharging,
    measured at the terminals.  The square root of the roundtrip
    efficiency is applied per direction, so charging stores
    ``power * sqrt(eta) * dt`` and discharging removes
    ``|power| / sqrt(eta) * dt`` from the tanks.  Requests beyond the
    corresponding kinetic bound raise :class:`BoundViolationError`.
    """
    if state.q_max_kwh <= 0.0:
        if power_kw != 0.0:
            raise BoundViolationError("battery has zero capacity")
        return state
    tol = 1e-9 * max(state.q_max_kwh, 1.0)
    if power_kw > 0.0:
        bound = bess_max_charge(state, dt_hr, rate_constant_per_hr, capacity_ratio, roundtrip_efficiency)
        if power_kw > bound + tol:
            raise BoundViolationError(f"charge {power_kw:.6f} kW exceeds bound {bound:.6f} kW")
        internal = -power_kw * math.sqrt(roundtrip_efficiency)  # into the tanks
    elif power_kw < 0.0:
        bound = bess_max_discharge(state, dt_hr, rate_constant_per_hr, capacity_ratio, roundtrip_efficiency)
        if -power_kw > bound + tol:
            raise BoundViolationError(f"discharge {-power_kw:.6f} kW exceeds bound {bound:.6f} kW")
        internal = -power_kw / math.sqrt(roundtrip_efficiency)  # out of the tanks
    else:
        internal = 0.0
    q1, q2 = _kinetic_step(state.q1_kwh, state.q2_kwh, internal,
                           rate_constant_per_hr, capacity_ratio, dt_hr)
    return replace(state, q1_kwh=q1, q2_kwh=q2)


def battery_state_from_spec(spec: BatterySpec, q_max_kwh: float, soc: float | None = None) -> BatteryState:
    """Battery state for a bank of ``q_max_kwh``, defaulting to a full window."""
    return BatteryState.at_soc(
        q_max_kwh=q_max_kwh,
        soc=spec.soc_max if soc is None else soc,
        capacity_ratio=spec.capacity_ratio,
        soc_min=spec.soc_min,
        soc_max=spec.soc_max,
    )
