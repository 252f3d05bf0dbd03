"""Regenerate the bundled synthetic scenario files under src/mgdesign/data/.

The series are fully determined by the constants in mgdesign.scenario and
the bundled seed; rerunning this script reproduces them byte for byte.
"""

from __future__ import annotations

from pathlib import Path

from mgdesign import scenario as sc

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "mgdesign" / "data"

SCENARIO_YAML = """\
# Bundled synthetic community scenario (see data/README.md for provenance).
name: coastal-community-synthetic
series:
  load: load_kw.txt
  irradiance: irradiance_kw_m2.txt
  wind_speed: wind_speed_ms.txt
anemometer_height_m: 10.0
reliability_lambda: 100.0
tariff:
  purchase_usd_per_kwh: 0.30
  sellback_usd_per_kwh: 0.10
  max_import_kw: 400.0
  max_export_kw: 400.0
  emission_kg_per_kwh: 0.79
economics:
  discount_rate: 0.06
  project_years: 25
  fuel_price_usd_per_l: 1.5
  dg_emission_kg_per_l: 2.68
catalog:
  pv:
    capital_usd_per_kw: 1300.0
    replacement_usd_per_kw: 1300.0
    om_usd_per_kw_yr: 10.0
    lifetime_years: 20
    derating: 0.8
    temp_coeff_per_c: -0.004
    degradation_per_yr: 0.005
  wind:
    nominal_kw: 3.0
    capital_usd_per_kw: 2300.0
    replacement_usd_per_kw: 2300.0
    om_usd_per_kw_yr: 207.0
    lifetime_years: 20
    cut_in_ms: 4.0
    cut_out_ms: 24.0
    rated_ms: 12.0
    hub_height_m: 15.0
    shear_exponent: 0.14
    curve_exponent: 3.0
    swept_area_m2_per_unit: 19.6
    power_coefficient: 0.40
  diesel:
    capital_usd_per_kw: 400.0
    replacement_usd_per_kw: 400.0
    om_usd_per_hr_kw: 0.03
    lifetime_years: 15
    fuel_intercept_l_per_hr_kw: 0.08
    fuel_slope_l_per_hr_kw: 0.25
    min_load_ratio: 0.25
  battery:
    capital_usd_per_kwh: 700.0
    replacement_usd_per_kwh: 700.0
    om_usd_per_kwh_yr: 10.0
    lifetime_years: 10
    roundtrip_efficiency: 0.90
    soc_min: 0.2
    soc_max: 0.8
    capacity_ratio: 0.5
    rate_constant_per_hr: 1.0
  converter:
    capital_usd_per_kw: 300.0
    replacement_usd_per_kw: 300.0
    om_usd_per_kw_yr: 0.0
    lifetime_years: 15
    efficiency: 0.95
"""

README = """\
# Bundled synthetic scenario

All three series in this directory are **synthetic**.  They are generated
deterministically (seed {seed}) by `scripts/build_bundled_data.py` from the
compact descriptions in `mgdesign.scenario`:

- `load_kw.txt` -- a 24-hour community load shape (evening peak 17:00-21:00,
  daily energy 3139.3 kWh, peak 235.2 kW) tiled over the year with +/-10%
  day-to-day and +/-10% hour-to-hour uniform variation.
- `irradiance_kw_m2.txt` -- half-sine daily irradiance bells sized to
  monthly mean daily irradiation values with per-day clearness noise,
  renormalized so the monthly means hold exactly.
- `wind_speed_ms.txt` -- AR(1) fluctuations around interpolated monthly
  mean speeds at the 10 m anemometer with a mild afternoon swell,
  renormalized to the monthly means.

The monthly means are representative southern-hemisphere values for a
sheltered coastal village; they are not measurements.  `scenario.yaml`
binds the series to the default tariff, economics, and component catalog.

Each file holds one value per hour (8760 lines), hour 0 = Jan 1 00:00,
no leap day, `#` lines are comments.
"""


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for name, series in sc.build_bundled_series().items():
        sc.write_timeseries(series, DATA_DIR / name)
        print(f"wrote {DATA_DIR / name} ({len(series)} values)")
    (DATA_DIR / sc.SCENARIO_FILE).write_text(SCENARIO_YAML, encoding="utf-8")
    (DATA_DIR / "README.md").write_text(README.format(seed=sc.BUNDLED_SEED), encoding="utf-8")
    print(f"wrote {DATA_DIR / sc.SCENARIO_FILE}")


if __name__ == "__main__":
    main()
