"""Exogenous inputs for a microgrid design study.

Everything the simulator treats as given lives here: the hourly load,
solar and wind resource series, grid tariff, project economics, and the
technical/economic catalog of the candidate components.  A validated
:class:`Scenario` is immutable and can be shared freely between parallel
design evaluations.

Series can be loaded from plain text files (one value per line, ``#``
comments allowed) or synthesized from compact descriptions (a 24-hour
load shape, monthly resource means).  The package ships a bundled
synthetic scenario for a ~290-resident coastal community; see
:func:`bundled_scenario` and ``data/README.md``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .tables import csv_column, write_table

HOURS_PER_YEAR = 8760
DAYS_PER_YEAR = 365

# Bundled community load shape, kW per hour of day.  Evening peak between
# 17:00 and 21:00; daily energy 3139.3 kWh, peak 235.2 kW.
DEFAULT_DAILY_LOAD_KW = (
    105.0, 100.0, 95.0, 93.0, 88.0, 92.0,
    105.0, 120.0, 118.0, 112.0, 108.0, 105.0,
    104.0, 102.0, 104.0, 110.0, 150.0, 205.0,
    235.2, 228.0, 208.0, 175.0, 150.0, 127.1,
)

# Monthly mean daily irradiation (kWh/m^2/day) and mean wind speed at the
# 10 m anemometer (m/s), Jan..Dec, southern-hemisphere seasonality.
# Synthetic values for a sheltered south-coast community; see data/README.md.
DEFAULT_MONTHLY_IRRADIATION = (
    7.60, 6.40, 4.70, 3.00, 2.00, 1.70,
    1.85, 2.55, 3.70, 5.10, 6.60, 7.70,
)
DEFAULT_MONTHLY_WIND_MS = (
    4.14, 3.96, 3.87, 4.05, 4.23, 4.68,
    4.86, 5.04, 4.86, 4.68, 4.41, 4.23,
)

_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)  # no leap day


class Unit(enum.Enum):
    """Physical unit of a time series."""

    KW = "kW"
    KW_PER_M2 = "kW/m2"
    M_PER_S = "m/s"
    USD_PER_KWH = "$/kWh"
    CELSIUS = "degC"


#: Units whose values must be non-negative.
_NON_NEGATIVE_UNITS = frozenset({Unit.KW, Unit.KW_PER_M2, Unit.M_PER_S, Unit.USD_PER_KWH})


class TimeSeriesParseError(ValueError):
    """A series file contained a non-numeric record."""

    def __init__(self, path: str, line: int, content: str) -> None:
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: cannot parse {content!r} as a number")


class LengthMismatchError(ValueError):
    """A series did not have the expected number of hourly values."""

    def __init__(self, expected: int, got: int) -> None:
        self.expected = expected
        self.got = got
        super().__init__(f"expected {expected} hourly values, got {got}")


class InvalidVariabilityError(ValueError):
    """Synthesis variability outside [0, 1)."""


class ScenarioValidationError(ValueError):
    """One or more scenario invariants are violated.

    The full list of human-readable violations is available on the
    ``violations`` attribute.
    """

    def __init__(self, violations: list[str]) -> None:
        self.violations = list(violations)
        super().__init__("invalid scenario:\n  " + "\n  ".join(violations))


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """An hourly series with a unit.

    ``values`` is a read-only float64 array.  Annual series have exactly
    8760 entries (hour 0 = Jan 1 00:00, no leap day).  Instances compare
    by identity (arrays make field-wise equality ambiguous).
    """

    values: np.ndarray
    unit: Unit

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)

    def violations(self, name: str = "series", expected_length: int | None = HOURS_PER_YEAR) -> list[str]:
        """Return invariant violations (empty when the series is valid)."""
        problems: list[str] = []
        if expected_length is not None and len(self.values) != expected_length:
            problems.append(f"{name}: length {len(self.values)} != {expected_length}")
        if not np.all(np.isfinite(self.values)):
            problems.append(f"{name}: contains non-finite values")
        elif self.unit in _NON_NEGATIVE_UNITS and np.any(self.values < 0):
            problems.append(f"{name}: negative values not allowed for unit {self.unit.value}")
        return problems


def load_timeseries(path: str | Path, unit: Unit, expected_length: int | None = HOURS_PER_YEAR) -> TimeSeries:
    """Read a plain-text series: one value per line, ``#`` comments allowed.

    Raises ``FileNotFoundError``, :class:`TimeSeriesParseError` (with the
    1-based offending line number), or :class:`LengthMismatchError`.
    NaN and negative values are rejected where the unit forbids them.
    """
    path = Path(path)
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                raise TimeSeriesParseError(path, lineno, text) from None
            if math.isnan(value):
                raise TimeSeriesParseError(path, lineno, text)
            values.append(value)
    if expected_length is not None and len(values) != expected_length:
        raise LengthMismatchError(expected_length, len(values))
    series = TimeSeries(np.array(values), unit)
    problems = series.violations(name=str(path), expected_length=expected_length)
    if problems:
        raise ScenarioValidationError(problems)
    return series


def write_timeseries(series: TimeSeries, path: str | Path) -> None:
    """Write a series in the plain-text format read by :func:`load_timeseries`.

    Values are written with ``repr`` so a round trip reproduces them
    bit-exactly.
    """
    write_table(path, [f"# unit: {series.unit.value}"], [csv_column(series.values.tolist())])


def synthesize_load(
    daily_profile: tuple[float, ...] | np.ndarray,
    day_to_day_variability: float,
    hour_to_hour_variability: float,
    seed: int,
) -> TimeSeries:
    """Tile a 24-hour load shape over a year with multiplicative noise.

    Hour ``h`` of day ``d`` is ``profile[h] * (1 + delta_d) * (1 + delta_h)``
    where ``delta_d`` is one uniform draw in ``+/-day_to_day_variability``
    per day and ``delta_h`` one draw in ``+/-hour_to_hour_variability`` per
    hour.  Deterministic for a fixed seed.
    """
    profile = np.asarray(daily_profile, dtype=float)
    if profile.shape != (24,):
        raise ValueError(f"daily_profile must have 24 values, got {profile.shape}")
    if np.any(profile < 0):
        raise ValueError("daily_profile must be non-negative")
    for name, v in (("day_to_day", day_to_day_variability), ("hour_to_hour", hour_to_hour_variability)):
        if not 0.0 <= v < 1.0:
            raise InvalidVariabilityError(f"{name} variability must be in [0, 1), got {v}")

    rng = np.random.default_rng(seed)
    day_factor = 1.0 + rng.uniform(-day_to_day_variability, day_to_day_variability, DAYS_PER_YEAR)
    hour_factor = 1.0 + rng.uniform(-hour_to_hour_variability, hour_to_hour_variability, HOURS_PER_YEAR)
    values = np.tile(profile, DAYS_PER_YEAR) * np.repeat(day_factor, 24) * hour_factor
    return TimeSeries(values, Unit.KW)


def _day_lengths_hours(latitude_deg: float) -> np.ndarray:
    """Astronomical day length for each day of the year, in hours."""
    day = np.arange(DAYS_PER_YEAR)
    declination = np.radians(23.45) * np.sin(2.0 * np.pi * (284 + day + 1) / 365.0)
    lat = np.radians(latitude_deg)
    cos_omega = np.clip(-np.tan(lat) * np.tan(declination), -1.0, 1.0)
    return 2.0 * np.degrees(np.arccos(cos_omega)) / 15.0


def _daily_values_from_monthly(monthly: np.ndarray) -> np.ndarray:
    """Piecewise-linear interpolation of monthly means onto days, periodic."""
    mid = np.cumsum(_MONTH_DAYS) - np.array(_MONTH_DAYS) / 2.0
    x = np.concatenate(([mid[-1] - DAYS_PER_YEAR], mid, [mid[0] + DAYS_PER_YEAR]))
    y = np.concatenate(([monthly[-1]], monthly, [monthly[0]]))
    return np.interp(np.arange(DAYS_PER_YEAR) + 0.5, x, y)


def _month_of_day() -> np.ndarray:
    return np.repeat(np.arange(12), _MONTH_DAYS)


def synthesize_irradiance(
    monthly_daily_kwh_m2: tuple[float, ...] | np.ndarray,
    seed: int,
    latitude_deg: float = -36.3,
) -> TimeSeries:
    """Build an hourly global irradiance series from monthly daily means.

    Each day gets a half-sine irradiance bell spanning the astronomical
    day length for ``latitude_deg``, scaled so the daily integral matches
    the (smoothly interpolated) monthly mean after a random clearness
    factor is applied.  Values are renormalized month by month so the
    monthly means are met exactly; the result is deterministic for a
    fixed seed and clearly synthetic.
    """
    monthly = np.asarray(monthly_daily_kwh_m2, dtype=float)
    if monthly.shape != (12,):
        raise ValueError("monthly_daily_kwh_m2 must have 12 values")
    rng = np.random.default_rng(seed)

    daily_target = _daily_values_from_monthly(monthly)
    clearness = rng.uniform(0.45, 1.0, DAYS_PER_YEAR) ** 0.7
    day_len = _day_lengths_hours(latitude_deg)

    hours = np.arange(24).reshape(1, 24) + 0.5
    half = (day_len / 2.0).reshape(-1, 1)
    phase = (hours - 12.0) / half  # -1..1 over daylight
    bell = np.where(np.abs(phase) < 1.0, np.cos(phase * np.pi / 2.0), 0.0)
    bell_integral = bell.sum(axis=1, keepdims=True)  # kWh per unit peak
    daily = bell * (daily_target * clearness).reshape(-1, 1) / bell_integral

    # Restore the exact monthly means lost to the clearness noise.
    month_idx = _month_of_day()
    for m in range(12):
        mask = month_idx == m
        total = daily[mask].sum()
        target = monthly[m] * mask.sum()
        if total > 0:
            daily[mask] *= target / total
    return TimeSeries(daily.reshape(-1), Unit.KW_PER_M2)


def synthesize_wind_speed(
    monthly_mean_ms: tuple[float, ...] | np.ndarray,
    seed: int,
    autocorrelation: float = 0.87,
    sigma_ms: float = 1.9,
    diurnal_amplitude: float = 0.14,
) -> TimeSeries:
    """Build an hourly wind speed series from monthly means.

    An AR(1) fluctuation around the interpolated monthly mean plus a mild
    afternoon diurnal swell, floored at zero, then rescaled month by month
    so the monthly means are met exactly.  Deterministic for a fixed seed.
    """
    monthly = np.asarray(monthly_mean_ms, dtype=float)
    if monthly.shape != (12,):
        raise ValueError("monthly_mean_ms must have 12 values")
    rng = np.random.default_rng(seed)

    mean_by_day = _daily_values_from_monthly(monthly)
    base = np.repeat(mean_by_day, 24)
    diurnal = 1.0 + diurnal_amplitude * np.sin(2.0 * np.pi * (np.tile(np.arange(24), DAYS_PER_YEAR) - 9.0) / 24.0)

    noise = np.empty(HOURS_PER_YEAR)
    shocks = rng.normal(0.0, sigma_ms * math.sqrt(1.0 - autocorrelation**2), HOURS_PER_YEAR)
    level = 0.0
    for h in range(HOURS_PER_YEAR):
        level = autocorrelation * level + shocks[h]
        noise[h] = level

    values = np.maximum(base * diurnal + noise, 0.0)
    month_idx = np.repeat(_month_of_day(), 24)
    for m in range(12):
        mask = month_idx == m
        mean = values[mask].mean()
        if mean > 0:
            values[mask] *= monthly[m] / mean
    return TimeSeries(values, Unit.M_PER_S)


# ----------------------------------------------------------------------
# Component catalog
# ----------------------------------------------------------------------

def _non_finite(prefix: str, record) -> list[str]:
    """One violation per numeric field of a dataclass that is NaN or infinite.

    A range check may name the same field again: each is written
    ``not <in range>`` so that NaN fails it as well.
    """
    return [f"{prefix}{name}: must be finite, got {value}"
            for name, value in vars(record).items()
            if isinstance(value, (int, float)) and not math.isfinite(value)]


@dataclass(frozen=True)
class PVSpec:
    """Flat-plate PV array: rated (STC) output scaled by derating and
    irradiance, with a linear cell-temperature correction."""

    nominal_kw: float = 1.0
    capital_usd_per_kw: float = 1300.0
    replacement_usd_per_kw: float = 1300.0
    om_usd_per_kw_yr: float = 10.0
    lifetime_years: int = 20
    derating: float = 0.8
    temp_coeff_per_c: float = -0.004
    degradation_per_yr: float = 0.005


@dataclass(frozen=True)
class WindTurbineSpec:
    """Small wind turbine fleet with a normalized piecewise power curve.

    Output is zero below ``cut_in_ms`` and above ``cut_out_ms``, rises as
    ``(u^e - ci^e)/(rated^e - ci^e)`` between cut-in and rated speed (the
    curve exponent ``e`` defaults to 3; 2 reproduces a quadratic variant),
    and holds nameplate up to cut-out.  The swept-area aerodynamic limit
    acts as an upper clamp.
    """

    nominal_kw: float = 3.0
    capital_usd_per_kw: float = 2300.0
    replacement_usd_per_kw: float = 2300.0
    om_usd_per_kw_yr: float = 207.0
    lifetime_years: int = 20
    cut_in_ms: float = 4.0
    cut_out_ms: float = 24.0
    rated_ms: float = 12.0
    hub_height_m: float = 15.0
    shear_exponent: float = 0.14
    curve_exponent: float = 3.0
    swept_area_m2_per_unit: float = 19.6
    power_coefficient: float = 0.40


@dataclass(frozen=True)
class DieselSpec:
    """Diesel genset with a linear fuel law and a minimum load ratio."""

    nominal_kw: float = 60.0
    capital_usd_per_kw: float = 400.0
    replacement_usd_per_kw: float = 400.0
    om_usd_per_hr_kw: float = 0.03
    lifetime_years: int = 15
    fuel_intercept_l_per_hr_kw: float = 0.08
    fuel_slope_l_per_hr_kw: float = 0.25
    min_load_ratio: float = 0.25


@dataclass(frozen=True)
class BatterySpec:
    """Two-tank kinetic battery bank.

    ``capacity_ratio`` (c) is the fraction of capacity in the immediately
    available tank; ``rate_constant_per_hr`` (k) is the tank exchange
    rate.  The usable window is [``soc_min``, ``soc_max``] of nominal
    capacity and the roundtrip efficiency is split as sqrt per direction.
    """

    nominal_kwh: float = 1.0
    nominal_voltage: float = 24.0
    capital_usd_per_kwh: float = 700.0
    replacement_usd_per_kwh: float = 700.0
    om_usd_per_kwh_yr: float = 10.0
    lifetime_years: int = 10
    roundtrip_efficiency: float = 0.90
    soc_min: float = 0.2
    soc_max: float = 0.8
    capacity_ratio: float = 0.5
    rate_constant_per_hr: float = 1.0

    @property
    def depth_of_discharge(self) -> float:
        return self.soc_max - self.soc_min


@dataclass(frozen=True)
class ConverterSpec:
    """Bidirectional DC/AC converter."""

    nominal_kw: float = 1.0
    capital_usd_per_kw: float = 300.0
    replacement_usd_per_kw: float = 300.0
    om_usd_per_kw_yr: float = 0.0
    lifetime_years: int = 15
    efficiency: float = 0.95
    fixed_loss_kw: float = 0.0


@dataclass(frozen=True)
class Catalog:
    """Technical characteristics and economic data for every component kind."""

    pv: PVSpec = field(default_factory=PVSpec)
    wind: WindTurbineSpec = field(default_factory=WindTurbineSpec)
    diesel: DieselSpec = field(default_factory=DieselSpec)
    battery: BatterySpec = field(default_factory=BatterySpec)
    converter: ConverterSpec = field(default_factory=ConverterSpec)

    def violations(self) -> list[str]:
        problems: list[str] = []
        for name, spec in (("pv", self.pv), ("wind", self.wind), ("diesel", self.diesel),
                           ("battery", self.battery), ("converter", self.converter)):
            problems += _non_finite(f"catalog.{name}.", spec)
            for attr, value in vars(spec).items():
                if ("cost" in attr or "usd" in attr) and not value >= 0:
                    problems.append(f"catalog.{name}.{attr}: cost must be >= 0, got {value}")
            if not spec.lifetime_years >= 1:
                problems.append(f"catalog.{name}.lifetime_years: must be >= 1, got {spec.lifetime_years}")
        if not self.pv.derating >= 0.0:
            problems.append(f"catalog.pv.derating: must be >= 0, got {self.pv.derating}")
        if not self.wind.nominal_kw > 0.0:
            problems.append(f"catalog.wind.nominal_kw: must be > 0, got {self.wind.nominal_kw}")
        if not self.wind.hub_height_m > 0.0:
            problems.append(f"catalog.wind.hub_height_m: must be > 0, got {self.wind.hub_height_m}")
        if not 0.0 < self.converter.efficiency <= 1.0:
            problems.append(f"catalog.converter.efficiency: must be in (0, 1], got {self.converter.efficiency}")
        if not 0.0 < self.battery.roundtrip_efficiency <= 1.0:
            problems.append(f"catalog.battery.roundtrip_efficiency: must be in (0, 1], got {self.battery.roundtrip_efficiency}")
        if not 0.0 < self.battery.depth_of_discharge <= 1.0:
            problems.append("catalog.battery: soc window must satisfy 0 < soc_max - soc_min <= 1")
        if not 0.0 < self.battery.capacity_ratio < 1.0:
            problems.append(f"catalog.battery.capacity_ratio: must be in (0, 1), got {self.battery.capacity_ratio}")
        k = self.battery.rate_constant_per_hr
        if not k > 0.0:
            problems.append(f"catalog.battery.rate_constant_per_hr: must be > 0, got {k}")
        if not self.wind.cut_in_ms < self.wind.cut_out_ms:
            problems.append(f"catalog.wind: cut-in {self.wind.cut_in_ms} must be below cut-out {self.wind.cut_out_ms}")
        if not self.wind.cut_in_ms < self.wind.rated_ms <= self.wind.cut_out_ms:
            problems.append("catalog.wind: rated speed must lie between cut-in and cut-out")
        if not 0.0 <= self.diesel.min_load_ratio <= 1.0:
            problems.append("catalog.diesel.min_load_ratio: must be in [0, 1]")
        return problems


@dataclass(frozen=True)
class GridTariff:
    """Utility connection: prices, exchange limits, and emission factor.

    Prices may be flat (float) or hourly (:class:`TimeSeries`).
    """

    purchase_usd_per_kwh: float | TimeSeries = 0.30
    sellback_usd_per_kwh: float | TimeSeries = 0.10
    max_import_kw: float = 400.0
    max_export_kw: float = 400.0
    emission_kg_per_kwh: float = 0.79

    def purchase_series(self) -> np.ndarray:
        return _price_array(self.purchase_usd_per_kwh)

    def sellback_series(self) -> np.ndarray:
        return _price_array(self.sellback_usd_per_kwh)

    def violations(self) -> list[str]:
        problems = _non_finite("tariff.", self)
        for name, price in (("purchase", self.purchase_usd_per_kwh), ("sellback", self.sellback_usd_per_kwh)):
            if isinstance(price, TimeSeries):
                problems += price.violations(name=f"tariff.{name}")
            elif price < 0:
                problems.append(f"tariff.{name}: price must be >= 0, got {price}")
        if self.max_import_kw < 0 or self.max_export_kw < 0:
            problems.append("tariff: max import/export must be >= 0")
        if self.emission_kg_per_kwh < 0:
            problems.append("tariff.emission_kg_per_kwh: must be >= 0")
        return problems


def _price_array(price: float | TimeSeries) -> np.ndarray:
    if isinstance(price, TimeSeries):
        return price.values
    return np.full(HOURS_PER_YEAR, float(price))


@dataclass(frozen=True)
class Economics:
    """Project-level financial and emission parameters.

    ``discount_rate`` is the real (inflation-adjusted) annual rate used to
    discount constant-dollar cash flows.  ``inflation_rate`` is parsed but
    not read.
    """

    discount_rate: float = 0.06
    inflation_rate: float = 0.02
    project_years: int = 25
    fuel_price_usd_per_l: float = 1.5
    dg_emission_kg_per_l: float = 2.68

    def violations(self) -> list[str]:
        problems = _non_finite("economics.", self)
        if self.discount_rate < 0:
            problems.append(f"economics.discount_rate: must be >= 0, got {self.discount_rate}")
        years = self.project_years
        if isinstance(years, bool) or not isinstance(years, int):
            problems.append(f"economics.project_years: must be an integer, got {years!r}")
        elif years < 1:
            problems.append(f"economics.project_years: must be >= 1, got {years}")
        elif years > 100:
            problems.append(f"economics.project_years: must be <= 100, got {years}")
        if self.fuel_price_usd_per_l < 0:
            problems.append("economics.fuel_price_usd_per_l: must be >= 0")
        if self.dg_emission_kg_per_l < 0:
            problems.append("economics.dg_emission_kg_per_l: must be >= 0")
        return problems


@dataclass(frozen=True)
class Scenario:
    """Immutable world description for one design study."""

    load: TimeSeries
    irradiance: TimeSeries
    wind_speed: TimeSeries
    anemometer_height_m: float = 10.0
    cell_temperature: TimeSeries | None = None
    tariff: GridTariff = field(default_factory=GridTariff)
    economics: Economics = field(default_factory=Economics)
    catalog: Catalog = field(default_factory=Catalog)
    reliability_lambda: float = 100.0
    name: str = "unnamed"

    def violations(self) -> list[str]:
        problems = _non_finite("", self)
        problems += self.load.violations(name="load")
        problems += self.irradiance.violations(name="irradiance")
        problems += self.wind_speed.violations(name="wind_speed")
        if self.cell_temperature is not None:
            problems += self.cell_temperature.violations(name="cell_temperature")
        lengths = {len(self.load), len(self.irradiance), len(self.wind_speed)}
        if self.cell_temperature is not None:
            lengths.add(len(self.cell_temperature))
        if len(lengths) > 1:
            problems.append(f"series lengths differ: {sorted(lengths)}")
        if self.anemometer_height_m <= 0:
            problems.append(f"anemometer_height_m: must be > 0, got {self.anemometer_height_m}")
        if self.reliability_lambda <= 0:
            problems.append(f"reliability_lambda: must be > 0, got {self.reliability_lambda}")
        problems += self.tariff.violations()
        problems += self.economics.violations()
        problems += self.catalog.violations()
        return problems


def validate_scenario(scenario: Scenario) -> Scenario:
    """Return the scenario unchanged if all invariants hold.

    Raises :class:`ScenarioValidationError` carrying the full list of
    violations otherwise.
    """
    problems = scenario.violations()
    if problems:
        raise ScenarioValidationError(problems)
    return scenario


# ----------------------------------------------------------------------
# Bundled scenario and scenario files
# ----------------------------------------------------------------------

#: Seed used to generate the bundled synthetic series.
BUNDLED_SEED = 42

LOAD_FILE = "load_kw.txt"
IRRADIANCE_FILE = "irradiance_kw_m2.txt"
WIND_FILE = "wind_speed_ms.txt"
SCENARIO_FILE = "scenario.yaml"

#: PyYAML's libyaml-backed safe loader when it was built with libyaml (about
#: 7x faster on the bundled file), the pure-Python one otherwise; both build
#: the same document.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def build_bundled_series(seed: int = BUNDLED_SEED) -> dict[str, TimeSeries]:
    """Regenerate the bundled synthetic series from their parameters."""
    return {
        LOAD_FILE: synthesize_load(DEFAULT_DAILY_LOAD_KW, 0.10, 0.10, seed),
        IRRADIANCE_FILE: synthesize_irradiance(DEFAULT_MONTHLY_IRRADIATION, seed + 1),
        WIND_FILE: synthesize_wind_speed(DEFAULT_MONTHLY_WIND_MS, seed + 2),
    }


def bundled_data_path() -> Path:
    """Directory holding the bundled synthetic scenario files."""
    return Path(resources.files("mgdesign").joinpath("data"))


def bundled_scenario() -> Scenario:
    """Load the bundled synthetic community scenario shipped with the package."""
    return load_scenario(bundled_data_path() / SCENARIO_FILE)


def load_scenario(path: str | Path) -> Scenario:
    """Build and validate a :class:`Scenario` from a YAML document.

    Series paths inside the document are resolved relative to the
    document's directory.  The schema is documented in the README.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f"{path}:{mark.line + 1}:{mark.column + 1}" if mark is not None else str(path)
            problem = getattr(exc, "problem", None) or str(exc)
            context, context_mark = getattr(exc, "context", None), getattr(exc, "context_mark", None)
            if context and context_mark is not None:
                problem += f" ({context} at line {context_mark.line + 1})"
            raise ScenarioValidationError([f"{where}: malformed YAML: {problem}"]) from None
    if not isinstance(doc, dict):
        raise ScenarioValidationError([f"{path}: top level must be a mapping"])
    base = path.parent

    def series(key: str, unit: Unit, required: bool = True) -> TimeSeries | None:
        section = doc.get("series", {})
        entry = section.get(key)
        if entry is None:
            if required:
                raise ScenarioValidationError([f"{path}: series.{key} is required"])
            return None
        return load_timeseries(base / entry, unit)

    tariff_doc = dict(doc.get("tariff", {}))
    for key, unit in (("purchase_usd_per_kwh", Unit.USD_PER_KWH), ("sellback_usd_per_kwh", Unit.USD_PER_KWH)):
        file_key = key.replace("_usd_per_kwh", "_file")
        if file_key in tariff_doc:
            tariff_doc[key] = load_timeseries(base / tariff_doc.pop(file_key), unit)
    tariff = GridTariff(**tariff_doc)

    economics = Economics(**doc.get("economics", {}))

    catalog_doc = doc.get("catalog", {})
    catalog = Catalog(
        pv=PVSpec(**catalog_doc.get("pv", {})),
        wind=WindTurbineSpec(**catalog_doc.get("wind", {})),
        diesel=DieselSpec(**catalog_doc.get("diesel", {})),
        battery=BatterySpec(**catalog_doc.get("battery", {})),
        converter=ConverterSpec(**catalog_doc.get("converter", {})),
    )

    scenario = Scenario(
        load=series("load", Unit.KW),
        irradiance=series("irradiance", Unit.KW_PER_M2),
        wind_speed=series("wind_speed", Unit.M_PER_S),
        cell_temperature=series("cell_temperature", Unit.CELSIUS, required=False),
        anemometer_height_m=float(doc.get("anemometer_height_m", 10.0)),
        tariff=tariff,
        economics=economics,
        catalog=catalog,
        reliability_lambda=float(doc.get("reliability_lambda", 100.0)),
        name=str(doc.get("name", path.stem)),
    )
    return validate_scenario(scenario)


def scale_series(scenario: Scenario, *, load: float = 1.0, irradiance: float = 1.0, wind: float = 1.0) -> Scenario:
    """Return a copy of the scenario with series uniformly scaled.

    Used by the sensitivity studies; factors multiply every hourly value.
    """
    updated = scenario
    if load != 1.0:
        updated = replace(updated, load=TimeSeries(scenario.load.values * load, scenario.load.unit))
    if irradiance != 1.0:
        updated = replace(updated, irradiance=TimeSeries(scenario.irradiance.values * irradiance, scenario.irradiance.unit))
    if wind != 1.0:
        updated = replace(updated, wind_speed=TimeSeries(scenario.wind_speed.values * wind, scenario.wind_speed.unit))
    return updated
