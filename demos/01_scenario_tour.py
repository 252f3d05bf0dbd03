"""Tour of the bundled scenario and the series synthesizers.

Run:  python demos/01_scenario_tour.py
"""

import numpy as np

from mgdesign import bundled_scenario, synthesize_load

scenario = bundled_scenario()

print(f"scenario: {scenario.name}")
print(f"  hours:            {len(scenario.load)}")
print(f"  annual load:      {scenario.load.values.sum():,.0f} kWh "
      f"(peak {scenario.load.values.max():.1f} kW)")
print(f"  mean irradiance:  {scenario.irradiance.values.sum() / 365:.2f} kWh/m2/day")
print(f"  mean wind speed:  {scenario.wind_speed.values.mean():.2f} m/s at "
      f"{scenario.anemometer_height_m:.0f} m")
print(f"  tariff:           buy {scenario.tariff.purchase_usd_per_kwh}/kWh, "
      f"sell {scenario.tariff.sellback_usd_per_kwh}/kWh, "
      f"{scenario.tariff.max_import_kw:.0f} kW exchange limit")
print(f"  economics:        r={scenario.economics.discount_rate:.0%}, "
      f"T={scenario.economics.project_years} years")

# A day in January vs a day in July, hour by hour
by_day = scenario.load.values.reshape(365, 24)
irr_by_day = scenario.irradiance.values.reshape(365, 24)
print("\nhour    load Jan-10   load Jul-10   irr Jan-10   irr Jul-10")
for hour in range(0, 24, 3):
    print(f"{hour:>4}   {by_day[9, hour]:>8.1f} kW   {by_day[190, hour]:>8.1f} kW"
          f"   {irr_by_day[9, hour]:>7.3f}      {irr_by_day[190, hour]:>7.3f}")

# Build a custom load from a flat profile: same seed, same series.
flat = synthesize_load((130.0,) * 24, day_to_day_variability=0.2,
                       hour_to_hour_variability=0.05, seed=7)
again = synthesize_load((130.0,) * 24, 0.2, 0.05, seed=7)
print(f"\ncustom flat-profile load: {flat.values.sum():,.0f} kWh/yr, "
      f"reproducible: {np.array_equal(flat.values, again.values)}")
