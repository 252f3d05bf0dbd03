"""Exogenous inputs for a microgrid design study.

Everything the simulator treats as given lives here: the hourly load,
solar and wind resource series, grid tariff, project economics, and the
technical/economic catalog of the candidate components.  A
:class:`Scenario` checks itself when it is built, by any route, and is
immutable, so it can be shared freely between parallel design evaluations.

Series can be loaded from plain text files (one value per line, ``#``
comments allowed) or synthesized from compact descriptions (a 24-hour
load shape, monthly resource means).  The package ships a bundled
synthetic scenario for a ~290-resident coastal community; see
:func:`bundled_scenario` and ``data/README.md``.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field, fields, is_dataclass, replace
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


class NotUtf8Error(ValueError):
    """A text file is not UTF-8: names the file and the 1-based line of
    its first bad byte."""

    def __init__(self, path: str | Path) -> None:
        # A decoder reading a stream counts positions from its chunk, so the
        # whole file is decoded again to find the byte.
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            bad = exc.start
        else:  # the file changed after it failed to decode
            bad = len(data)
        self.path = str(path)
        self.line = data.count(b"\n", 0, bad) + 1
        super().__init__(f"{path}, line {self.line}: not UTF-8 text")


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

    ``values`` is a read-only float64 copy of the array given, so that no
    write through the caller's array, or through an array it views, can
    change a series after it was checked.  Annual series have exactly
    8760 entries (hour 0 = Jan 1 00:00, no leap day).  Instances compare
    by identity (arrays make field-wise equality ambiguous).
    """

    values: np.ndarray
    unit: Unit

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float)
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


#: Name endings that ``np.loadtxt`` opens through a decompressor.
_DECOMPRESSED_SUFFIXES = frozenset({".gz", ".bz2", ".xz", ".lzma"})


def load_timeseries(path: str | Path, unit: Unit, expected_length: int | None = HOURS_PER_YEAR) -> TimeSeries:
    """Read a plain-text series: one value per line, ``#`` comments allowed.

    Raises an ``OSError`` such as ``FileNotFoundError`` (``[Errno N]``,
    naming the path), :class:`TimeSeriesParseError` or
    :class:`NotUtf8Error` (with the 1-based offending line number), or
    :class:`LengthMismatchError`.
    NaN and negative values are rejected where the unit forbids them, and
    ``-0`` reads as ``0.0``.

    The file is read as UTF-8 with an optional byte-order mark: NumPy's
    ``loadtxt`` opens it by name and parses it in one call, a chunk of
    text at a time.  A file it refuses, or that gives more than one column
    or a NaN, is read again line by line with ``float``
    (:func:`_scan_series`), which decides: it names the first bad line, or
    returns the values when every cell is a number that ``loadtxt`` does not
    read, such as ``1_0``.  So does a name that ``loadtxt`` would open
    through a decompressor (``.gz``, ``.bz2``, ``.xz``, ``.lzma``): a series
    file is plain text.
    """
    path = Path(path)
    # A missing or unreadable path fails here with its ``[Errno N]`` text;
    # NumPy's own message for a missing file drops it.
    open(path, "rb").close()
    values = None
    if path.suffix not in _DECOMPRESSED_SUFFIXES:
        with warnings.catch_warnings():
            # An empty series ends in the length check, not in NumPy's warning
            # (worded as the second alternative before NumPy 1.23).
            warnings.filterwarnings("ignore", "loadtxt: (input contained no data|Empty input file)", UserWarning)
            try:  # two dimensions, so that one line of two values is not read as two hours
                values = np.loadtxt(path, comments="#", ndmin=2, encoding="utf-8-sig")
            except ValueError:
                pass
    if values is None or values.shape[1] != 1 or np.isnan(values).any():
        try:
            values = _scan_series(path)
        except UnicodeDecodeError:
            raise NotUtf8Error(path) from None
    else:
        values = values[:, 0]
    if expected_length is not None and len(values) != expected_length:
        raise LengthMismatchError(expected_length, len(values))
    series = TimeSeries(values + 0.0, unit)  # -0.0 + 0.0 is 0.0; exact for every other value
    problems = series.violations(name=str(path), expected_length=None)
    if problems:
        raise ScenarioValidationError(problems)
    return series


def _scan_series(path: Path) -> np.ndarray:
    """The values of a series file, one ``float`` per non-blank line with
    the ``#`` comment cut off.  Raises :class:`TimeSeriesParseError` at the
    first cell that ``float`` rejects or reads as NaN."""
    values = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                try:
                    value = float(text)
                except ValueError:
                    raise TimeSeriesParseError(path, lineno, text) from None
                if math.isnan(value):
                    raise TimeSeriesParseError(path, lineno, text)
                values.append(value)
    return np.array(values)


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


#: The synthetic series' site latitude in degrees (south < 0), and the
#: hour-to-hour AR(1) coefficient, stationary standard deviation (m/s) and
#: afternoon swell of their wind fluctuation.
_LATITUDE_DEG = -36.3
_WIND_AUTOCORRELATION = 0.87
_WIND_SIGMA_MS = 1.9
_WIND_DIURNAL_AMPLITUDE = 0.14


def synthesize_irradiance(monthly_daily_kwh_m2: tuple[float, ...] | np.ndarray, seed: int) -> TimeSeries:
    """Build an hourly global irradiance series from monthly daily means.

    Each day gets a half-sine irradiance bell spanning the astronomical
    day length at :data:`_LATITUDE_DEG`, scaled so the daily integral matches
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
    day_len = _day_lengths_hours(_LATITUDE_DEG)

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


def synthesize_wind_speed(monthly_mean_ms: tuple[float, ...] | np.ndarray, seed: int) -> TimeSeries:
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
    hour = np.tile(np.arange(24), DAYS_PER_YEAR)
    diurnal = 1.0 + _WIND_DIURNAL_AMPLITUDE * np.sin(2.0 * np.pi * (hour - 9.0) / 24.0)

    noise = np.empty(HOURS_PER_YEAR)
    shocks = rng.normal(0.0, _WIND_SIGMA_MS * math.sqrt(1.0 - _WIND_AUTOCORRELATION**2), HOURS_PER_YEAR)
    level = 0.0
    for h in range(HOURS_PER_YEAR):
        level = _WIND_AUTOCORRELATION * level + shocks[h]
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

_FLOAT_MAX = sys.float_info.max

#: Range rules, ``(text, test)``: a value that fails ``test`` is reported
#: as ``must be <text>``.
_GE0 = (">= 0", lambda v: v >= 0)
_GT0 = ("> 0", lambda v: v > 0)
_GE1 = (">= 1", lambda v: v >= 1)
_FRACTION = ("in (0, 1]", lambda v: 0 < v <= 1)
_SHARE = ("in [0, 1]", lambda v: 0 <= v <= 1)


def _num(default, *rules, unit: Unit | None = None):
    """A numeric field: its default and its range rules, and the unit of the
    hourly :class:`TimeSeries` it may hold instead of a number."""
    return field(default=default, metadata={"rules": rules, "unit": unit})


def _series(unit: Unit, **default):
    """A series field: a :class:`TimeSeries` in ``unit``.  It may be None
    only where that is its ``default``."""
    return field(**default, metadata={"unit": unit})


def _described(value) -> str:
    """``value`` as a violation message quotes it: a series by its unit."""
    return f"a TimeSeries in {value.unit.value}" if isinstance(value, TimeSeries) else repr(value)


def _field_violations(prefix: str, record) -> list[str]:
    """Violations of a record, then of its sections in the same walk: each
    :func:`_num` field is checked for its type (a bool is not a number; an
    ``int`` field takes only integers), then finiteness, then its rules; a
    wrong type or a non-finite value is that field's one message.  A
    :func:`_series` field, or a number field given hourly, must be a
    :class:`TimeSeries` in its unit and is then checked as one; ``str`` fields
    are checked for their type.  A section field (its ``default_factory`` is a
    dataclass) must hold its section, which is walked; each section that
    passes is then held to its ``_rules``, after all its sibling sections."""
    problems, passed = [], []
    for f in sorted(fields(record), key=lambda f: is_dataclass(f.default_factory)):  # sections last
        value, name = getattr(record, f.name), prefix + f.name
        unit = f.metadata.get("unit")
        if is_dataclass(section := f.default_factory):
            if not isinstance(value, section):
                article = "an" if section.__name__[0] in "AEIOU" else "a"
                problems.append(f"{name}: must be {article} {section.__name__}, got {_described(value)}")
            elif own := _field_violations(name + ".", value):
                problems += own
            else:
                passed.append((value, name))
        elif unit is not None and (isinstance(value, TimeSeries) or "rules" not in f.metadata):
            if isinstance(value, TimeSeries) and value.unit is unit:
                problems += value.violations(name=name)
            elif value is not None or f.default is not None:
                problems.append(f"{name}: must be a TimeSeries in {unit.value}, got {_described(value)}")
        elif f.type == "str" and not isinstance(value, str):
            problems.append(f"{name}: must be a string, got {value!r}")
        elif "rules" in f.metadata:
            integer = f.type == "int"  # annotations are strings here
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                problems.append(f"{name}: must be {'an integer' if integer else 'a number'}, "
                                f"got {_described(value)}")
            elif not abs(value) <= _FLOAT_MAX:
                problems.append(f"{name}: must be finite, got {value}")
            elif integer and not isinstance(value, numbers.Integral):
                problems.append(f"{name}: must be an integer, got {value!r}")
            else:
                problems += [f"{name}: must be {text}, got {value}"
                             for text, test in f.metadata["rules"] if not test(value)]
    return problems + [f"{name}: {text.format_map(vars(value))}" for value, name in passed
                       for text, test in getattr(value, "_rules", ()) if not test(value)]


@dataclass(frozen=True)
class PVSpec:
    """Flat-plate PV array: rated (STC) output scaled by derating and
    irradiance, with a linear cell-temperature correction."""

    capital_usd_per_kw: float = _num(1300.0, _GE0)
    replacement_usd_per_kw: float = _num(1300.0, _GE0)
    om_usd_per_kw_yr: float = _num(10.0, _GE0)
    lifetime_years: int = _num(20, _GE1)
    derating: float = _num(0.8, _GE0)
    temp_coeff_per_c: float = _num(-0.004)
    degradation_per_yr: float = _num(0.005, _GE0)


@dataclass(frozen=True)
class WindTurbineSpec:
    """Small wind turbine fleet with a normalized piecewise power curve.

    Output is zero below ``cut_in_ms`` and above ``cut_out_ms``, rises as
    ``(u^e - ci^e)/(rated^e - ci^e)`` between cut-in and rated speed (the
    curve exponent ``e`` defaults to 3; 2 reproduces a quadratic variant),
    and holds nameplate up to cut-out.  The swept-area aerodynamic limit
    acts as an upper clamp.  ``nominal_kw`` is the rating of one turbine.
    """

    nominal_kw: float = _num(3.0, _GT0)
    capital_usd_per_kw: float = _num(2300.0, _GE0)
    replacement_usd_per_kw: float = _num(2300.0, _GE0)
    om_usd_per_kw_yr: float = _num(207.0, _GE0)
    lifetime_years: int = _num(20, _GE1)
    cut_in_ms: float = _num(4.0, _GE0)
    cut_out_ms: float = _num(24.0)
    rated_ms: float = _num(12.0)
    hub_height_m: float = _num(15.0, _GT0)
    shear_exponent: float = _num(0.14)
    curve_exponent: float = _num(3.0, _GT0)
    swept_area_m2_per_unit: float = _num(19.6, _GE0)
    power_coefficient: float = _num(0.40, _GE0)

    #: Rules across fields, ``(text, test)``; ``text`` names a field's value as ``{field}``.
    _rules = (("cut-in {cut_in_ms} must be below cut-out {cut_out_ms}", lambda w: w.cut_in_ms < w.cut_out_ms),
              ("rated speed must lie between cut-in and cut-out", lambda w: w.cut_in_ms < w.rated_ms <= w.cut_out_ms))


@dataclass(frozen=True)
class DieselSpec:
    """Diesel genset with a linear fuel law and a minimum load ratio."""

    capital_usd_per_kw: float = _num(400.0, _GE0)
    replacement_usd_per_kw: float = _num(400.0, _GE0)
    om_usd_per_hr_kw: float = _num(0.03, _GE0)
    lifetime_years: int = _num(15, _GE1)
    fuel_intercept_l_per_hr_kw: float = _num(0.08, _GE0)
    fuel_slope_l_per_hr_kw: float = _num(0.25, _GE0)
    min_load_ratio: float = _num(0.25, _SHARE)


@dataclass(frozen=True)
class BatterySpec:
    """Two-tank kinetic battery bank.

    ``capacity_ratio`` (c) is the fraction of capacity in the immediately
    available tank; ``rate_constant_per_hr`` (k) is the tank exchange
    rate, at least 1e-6: below that ``exp(-k)`` rounds toward 1 and the
    dispatch's closed forms lose their digits or divide by zero.  The
    usable window is [``soc_min``, ``soc_max``] of nominal capacity and
    the roundtrip efficiency is split as sqrt per direction.
    """

    capital_usd_per_kwh: float = _num(700.0, _GE0)
    replacement_usd_per_kwh: float = _num(700.0, _GE0)
    om_usd_per_kwh_yr: float = _num(10.0, _GE0)
    lifetime_years: int = _num(10, _GE1)
    roundtrip_efficiency: float = _num(0.90, _FRACTION)
    soc_min: float = _num(0.2, _SHARE)
    soc_max: float = _num(0.8, _SHARE)
    capacity_ratio: float = _num(0.5, ("in (0, 1)", lambda v: 0 < v < 1))
    rate_constant_per_hr: float = _num(1.0, (">= 1e-6", lambda v: v >= 1e-6))

    _rules = (("soc window must satisfy 0 < soc_max - soc_min <= 1", lambda b: 0.0 < b.soc_max - b.soc_min <= 1.0),)


@dataclass(frozen=True)
class ConverterSpec:
    """Bidirectional DC/AC converter."""

    capital_usd_per_kw: float = _num(300.0, _GE0)
    replacement_usd_per_kw: float = _num(300.0, _GE0)
    om_usd_per_kw_yr: float = _num(0.0, _GE0)
    lifetime_years: int = _num(15, _GE1)
    efficiency: float = _num(0.95, _FRACTION)


@dataclass(frozen=True)
class Catalog:
    """Every component kind's technical and economic data, each part a section of the scenario's walk."""

    pv: PVSpec = field(default_factory=PVSpec)
    wind: WindTurbineSpec = field(default_factory=WindTurbineSpec)
    diesel: DieselSpec = field(default_factory=DieselSpec)
    battery: BatterySpec = field(default_factory=BatterySpec)
    converter: ConverterSpec = field(default_factory=ConverterSpec)


@dataclass(frozen=True)
class GridTariff:
    """Utility connection: prices, exchange limits, and emission factor.

    Prices may be flat (float) or hourly (:class:`TimeSeries`).
    """

    purchase_usd_per_kwh: float | TimeSeries = _num(0.30, _GE0, unit=Unit.USD_PER_KWH)
    sellback_usd_per_kwh: float | TimeSeries = _num(0.10, _GE0, unit=Unit.USD_PER_KWH)
    max_import_kw: float = _num(400.0, _GE0)
    max_export_kw: float = _num(400.0, _GE0)
    emission_kg_per_kwh: float = _num(0.79, _GE0)

    def purchase_series(self) -> np.ndarray:
        return _price_array(self.purchase_usd_per_kwh)

    def sellback_series(self) -> np.ndarray:
        return _price_array(self.sellback_usd_per_kwh)


def _price_array(price: float | TimeSeries) -> np.ndarray:
    if isinstance(price, TimeSeries):
        return price.values
    return np.full(HOURS_PER_YEAR, float(price))


@dataclass(frozen=True)
class Economics:
    """Project-level financial and emission parameters.

    ``discount_rate`` is the real (inflation-adjusted) annual rate used to
    discount constant-dollar cash flows.
    """

    discount_rate: float = _num(0.06, _GE0)
    project_years: int = _num(25, _GE1, ("<= 100", lambda v: v <= 100))
    fuel_price_usd_per_l: float = _num(1.5, _GE0)
    dg_emission_kg_per_l: float = _num(2.68, _GE0)


@dataclass(frozen=True)
class Scenario:
    """Immutable world description for one design study.

    Building one by any route walks every field, section by section, and
    raises :class:`ScenarioValidationError` listing each field that fails.
    """

    load: TimeSeries = _series(Unit.KW)
    irradiance: TimeSeries = _series(Unit.KW_PER_M2)
    wind_speed: TimeSeries = _series(Unit.M_PER_S)
    anemometer_height_m: float = _num(10.0, _GT0)
    cell_temperature: TimeSeries | None = _series(Unit.CELSIUS, default=None)
    tariff: GridTariff = field(default_factory=GridTariff)
    economics: Economics = field(default_factory=Economics)
    catalog: Catalog = field(default_factory=Catalog)
    reliability_lambda: float = _num(100.0, _GT0)
    name: str = "unnamed"

    def __post_init__(self) -> None:
        if problems := _field_violations("", self):
            raise ScenarioValidationError(problems)


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
    return Path(__file__).parent / "data"


@functools.cache
def bundled_scenario() -> Scenario:
    """The bundled synthetic community scenario shipped with the package.

    It is loaded and validated once per process, on the first call; every
    later call returns that same :class:`Scenario` object.  Sharing it is
    safe: the scenario and each of its sections are frozen dataclasses,
    each series array is read-only and owns its data (:class:`TimeSeries`),
    and the files it is read from are package data, which does not change
    while the package runs.  A variant is a new object (``scale_series``,
    ``dataclasses.replace``) and leaves the shared one as it was.  A
    scenario file given by path (:func:`load_scenario`) is read again on
    every call, since a user's file can change between two calls.
    """
    return load_scenario(bundled_data_path() / SCENARIO_FILE)


#: Unit of each series a scenario file names under ``series``, from the
#: :func:`_series` fields of :class:`Scenario`; all but ``cell_temperature``
#: are required.
_SERIES_UNITS = {f.name: f.metadata["unit"] for f in fields(Scenario) if "rules" not in f.metadata
                 and "unit" in f.metadata}


def _section(cls, doc, name: str, problems: list[str], **given):
    """``cls`` built from the mapping ``doc``, ``given`` and defaults, and
    each subsection (a catalog part, say) likewise.  A ``doc`` that is not a
    mapping and each unknown key go to ``problems``; the rest is still
    built, so that one pass finds every problem."""
    prefix = f"{name}." if name else ""
    if not isinstance(doc, dict):
        problems.append(f"{name}: must be a mapping, got {doc!r}")
        doc = {}
    table = {f.name: f for f in fields(cls) if f.name not in given}
    values = dict(given)
    for key, value in doc.items():
        f = table.get(key)
        if f is None:
            problems.append(f"{prefix}{key}: unknown key")
        elif is_dataclass(f.default_factory):
            values[key] = _section(f.default_factory, value, prefix + key, problems)
        else:
            values[key] = value
    return cls(**values)


def load_scenario(path: str | Path) -> Scenario:
    """Build and validate a :class:`Scenario` from a YAML document.

    Series paths inside the document are resolved relative to the
    document's directory.  The schema is documented in the README.  Every
    problem found (malformed sections, unknown keys, missing or unreadable
    series, field violations) is reported in one
    :class:`ScenarioValidationError`.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=_YAML_LOADER)
        except UnicodeDecodeError:
            raise ScenarioValidationError([str(NotUtf8Error(path))]) from None
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
    base, problems = path.parent, []

    def series(name: str, entry, unit: Unit, required: bool = True) -> TimeSeries | None:
        if entry is None and not required:
            return None
        if not isinstance(entry, str):
            problems.append(f"{name}: is required" if entry is None else f"{name}: must be a file name, got {entry!r}")
            return None
        try:
            return load_timeseries(base / entry, unit)
        except ScenarioValidationError as exc:
            problems.extend(exc.violations)
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: {exc}")
        return None

    doc = dict(doc)
    files = doc.pop("series", {})
    if not isinstance(files, dict):
        problems.append(f"series: must be a mapping, got {files!r}")
        files = {}
    problems += [f"series.{key}: unknown key" for key in files if key not in _SERIES_UNITS]
    loaded = {key: series(f"series.{key}", files.get(key), unit, required=key != "cell_temperature")
              for key, unit in _SERIES_UNITS.items()}
    tariff = doc.get("tariff")
    if isinstance(tariff, dict):
        doc["tariff"] = tariff = dict(tariff)
        for kind in ("purchase", "sellback"):
            if f"{kind}_file" in tariff:
                if (price := series(f"tariff.{kind}_file", tariff.pop(f"{kind}_file"), Unit.USD_PER_KWH)) is not None:
                    tariff[f"{kind}_usd_per_kwh"] = price
    doc.setdefault("name", path.stem)
    try:
        scenario = _section(Scenario, doc, "", problems, **loaded)
    except ScenarioValidationError as exc:
        # A series that did not load is reported above, under its file's key.
        unloaded = tuple(f"{key}: " for key, value in loaded.items() if value is None)
        problems += [problem for problem in exc.violations if not problem.startswith(unloaded)]
    if problems:
        raise ScenarioValidationError(problems)
    return scenario


def scale_series(record, fields: tuple[str, ...], factor: float):
    """Return a copy of a scenario, or of one of its sections, with each
    field named by a dotted path (``load``, ``tariff.purchase_usd_per_kwh``)
    multiplied by ``factor``: a number, or every hour of a :class:`TimeSeries`.
    Paths under one head are replaced in one copy of that section, and every
    other field keeps its object.  Builds each sensitivity-study variant.
    """
    def scaled(record, paths):  # recurses here, so each variant is one call
        heads: dict[str, list[str]] = {}
        for head, _, rest in (path.partition(".") for path in paths):
            heads.setdefault(head, []).append(rest)
        changes = {}
        for head, rests in heads.items():
            value = getattr(record, head)
            if all(rests):
                changes[head] = scaled(value, rests)
            elif isinstance(value, TimeSeries):
                changes[head] = TimeSeries(value.values * factor, value.unit)
            else:
                changes[head] = value * factor
        return replace(record, **changes)

    return scaled(record, fields)
