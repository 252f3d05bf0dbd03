"""Resource series of the microgrid components.

:func:`pv_series` and :func:`wt_series` turn a scenario's weather series
into the available PV and wind production of every hour.  The other
component laws -- the two-tank kinetic battery, the diesel fuel law and
the converter losses -- live once each, inline in the dispatch kernel
(``mgdesign.dispatch``).  Both functions are pure, so design evaluations
can run in parallel without coordination.
"""

from __future__ import annotations

import numpy as np

from .scenario import Scenario

STC_CELL_TEMP_C = 25.0
AIR_DENSITY_KG_M3 = 1.225


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
    when the :class:`~mgdesign.scenario.Scenario` is built.
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

