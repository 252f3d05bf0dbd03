import bz2
import copy
import gzip
import lzma
import math
import shutil
import warnings
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mgdesign import scenario as scenario_module
from mgdesign.metrics import NonFiniteMetricError, evaluate
from mgdesign.scenario import (
    DEFAULT_DAILY_LOAD_KW,
    HOURS_PER_YEAR,
    InvalidVariabilityError,
    Catalog,
    Economics,
    GridTariff,
    LengthMismatchError,
    NotUtf8Error,
    Scenario,
    TimeSeries,
    TimeSeriesParseError,
    ScenarioValidationError,
    Unit,
    bundled_data_path,
    load_scenario,
    load_timeseries,
    scale_series,
    synthesize_irradiance,
    synthesize_load,
    synthesize_wind_speed,
    write_timeseries,
)

from .conftest import A5
from .helpers import reference_load_timeseries


def _write_lines(path, values):
    path.write_text("\n".join(str(v) for v in values) + "\n", encoding="utf-8")


class TestLoadTimeseries:
    def test_zeros_file(self, tmp_path):
        path = tmp_path / "zeros.txt"
        _write_lines(path, [0.0] * HOURS_PER_YEAR)
        series = load_timeseries(path, Unit.KW)
        assert len(series) == HOURS_PER_YEAR
        assert np.all(series.values == 0.0)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        values = ["1.0"] * HOURS_PER_YEAR
        values[6] = "abc"  # line 7
        _write_lines(path, values)
        with pytest.raises(TimeSeriesParseError) as err:
            load_timeseries(path, Unit.KW)
        assert err.value.line == 7

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "long.txt"
        _write_lines(path, [1.0] * (HOURS_PER_YEAR + 1))
        with pytest.raises(LengthMismatchError) as err:
            load_timeseries(path, Unit.KW)
        assert err.value.expected == HOURS_PER_YEAR
        assert err.value.got == HOURS_PER_YEAR + 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_timeseries(tmp_path / "nope.txt", Unit.KW)

    def test_negative_power_rejected(self, tmp_path):
        path = tmp_path / "neg.txt"
        values = [1.0] * HOURS_PER_YEAR
        values[3] = -5.0
        _write_lines(path, values)
        with pytest.raises(ScenarioValidationError):
            load_timeseries(path, Unit.KW)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "comments.txt"
        body = "# header\n\n" + "\n".join(["1.5  # inline"] * HOURS_PER_YEAR)
        path.write_text(body, encoding="utf-8")
        series = load_timeseries(path, Unit.KW)
        assert np.all(series.values == 1.5)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        original = TimeSeries(rng.uniform(0.0, 300.0, HOURS_PER_YEAR), Unit.KW)
        path = tmp_path / "rt.txt"
        write_timeseries(original, path)
        back = load_timeseries(path, Unit.KW)
        assert np.array_equal(back.values, original.values)


#: Lines of generated series files: numbers, ``-0``, the cells ``float`` reads
#: and ``loadtxt`` does not, NaN, infinities, two values on a line, blank lines,
#: comments and cells that are no number.
_SERIES_LINES = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.sampled_from(["-0", "1_0", "\u0661\u0662", "nan", "NaN", "-nan", "inf", "-Infinity", "1e999", "+.5e-3",
                     "1 2", "3\t4", "", "   ", "\t", "# comment", "5.5  # note", "\t7 ", "x", "0x10", "1,5"]),
)


class TestLoadTimeseriesMatchesLineLoop:
    """The NumPy loader gives the ``float``-per-cell loader's values bit for
    bit, and its exceptions with the same messages, and lets no warning
    out."""

    @staticmethod
    def _outcome(loader, path, unit=Unit.KW, expected_length=HOURS_PER_YEAR):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return loader(path, unit, expected_length).values
        except (ValueError, OSError) as exc:
            return type(exc), str(exc)

    def _assert_same(self, path, **kwargs):
        ours = self._outcome(load_timeseries, path, **kwargs)
        oracle = self._outcome(reference_load_timeseries, path, **kwargs)
        if isinstance(oracle, np.ndarray):
            assert ours.tobytes() == oracle.tobytes()
        else:
            assert ours == oracle
        return ours

    @pytest.mark.parametrize("name, unit", [
        ("load_kw.txt", Unit.KW), ("irradiance_kw_m2.txt", Unit.KW_PER_M2), ("wind_speed_ms.txt", Unit.M_PER_S),
    ])
    def test_bundled_files(self, name, unit):
        values = self._assert_same(bundled_data_path() / name, unit=unit)
        assert len(values) == HOURS_PER_YEAR

    @pytest.mark.parametrize("cell", ["x", "1.0.0", "nan", "NaN", "1 2"])
    def test_bad_cell_after_comments_and_blank_lines(self, tmp_path, cell):
        path = tmp_path / "bad.txt"
        lines = ["# unit: kW", "", "1.5  # first", "   ", "# note", "2.5"] + [cell] + ["3.0"] * 10
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(TimeSeriesParseError) as err:
            load_timeseries(path, Unit.KW, expected_length=None)
        assert err.value.line == 7
        assert str(err.value) == f"{path}:7: cannot parse {cell!r} as a number"
        self._assert_same(path, expected_length=None)

    def test_first_bad_line_wins(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\nnan\n2.0\nx\n", encoding="utf-8")
        with pytest.raises(TimeSeriesParseError) as err:
            load_timeseries(path, Unit.KW, expected_length=None)
        assert err.value.line == 2
        path.write_text("1.0\nx\n2.0\nnan\n", encoding="utf-8")
        with pytest.raises(TimeSeriesParseError) as err:
            load_timeseries(path, Unit.KW, expected_length=None)
        assert err.value.line == 2

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("final_newline", [True, False])
    def test_line_endings(self, tmp_path, newline, final_newline):
        rng = np.random.default_rng(3)
        lines = ["# unit: kW", ""] + [f"{v!r}  # hour" if i % 97 == 0 else repr(v)
                                      for i, v in enumerate(rng.uniform(0.0, 300.0, HOURS_PER_YEAR).tolist())]
        path = tmp_path / "series.txt"
        path.write_bytes((newline.join(lines) + (newline if final_newline else "")).encode("utf-8"))
        values = self._assert_same(path)
        assert len(values) == HOURS_PER_YEAR
        bad = tmp_path / "bad.txt"
        bad.write_bytes(newline.join(lines[:50] + ["x"] + lines[51:]).encode("utf-8"))
        with pytest.raises(TimeSeriesParseError) as err:
            load_timeseries(bad, Unit.KW)
        assert err.value.line == 51
        self._assert_same(bad)

    @pytest.mark.parametrize("text", ["", "\n\n# only a comment\n", "1.0\n-2.0\n", "1.0\ninf\n"],
                             ids=["empty", "comments", "negative", "inf"])
    def test_other_outcomes(self, tmp_path, text):
        path = tmp_path / "series.txt"
        path.write_text(text, encoding="utf-8")
        self._assert_same(path)
        self._assert_same(path, expected_length=None)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(_SERIES_LINES, max_size=12), newline=st.sampled_from(["\n", "\r\n", "\r"]),
           final_newline=st.booleans(), unit=st.sampled_from([Unit.KW, Unit.CELSIUS]),
           length=st.sampled_from(["cells", None, HOURS_PER_YEAR]))
    def test_generated_files(self, tmp_path, lines, newline, final_newline, unit, length):
        path = tmp_path / "series.txt"
        path.write_bytes((newline.join(lines) + (newline if final_newline and lines else "")).encode("utf-8"))
        if length == "cells":
            length = sum(1 for line in lines if line.split("#", 1)[0].strip())
        self._assert_same(path, unit=unit, expected_length=length)

    @pytest.mark.parametrize("cell, value", [("1_0", 10.0), ("\u0661\u0662", 12.0), ("2_5.0_1", 25.01)])
    def test_numbers_only_float_reads(self, tmp_path, cell, value):
        path = tmp_path / "series.txt"
        path.write_text(f"# unit: kW\n1.5\n{cell}  # hour 2\n3.0\n", encoding="utf-8")
        values = self._assert_same(path, expected_length=None)
        assert values.tolist() == [1.5, value, 3.0]

    def test_missing_path_or_directory_named(self, tmp_path):
        """A missing path fails with ``[Errno 2]`` naming it, even beside a
        compressed file of the same name plus ``.gz``, and a directory with
        ``[Errno 21]``."""
        (tmp_path / "folder.txt").mkdir()
        (tmp_path / "missing.txt.gz").write_bytes(gzip.compress(b"1.0\n"))
        for name, errno in (("missing.txt", 2), ("folder.txt", 21)):
            kind, message = self._assert_same(tmp_path / name)
            assert kind is (FileNotFoundError if errno == 2 else IsADirectoryError)
            assert message.startswith(f"[Errno {errno}] ") and message.endswith(f"'{tmp_path / name}'")

    @pytest.mark.parametrize("suffix, compress", [
        (".gz", gzip.compress), (".bz2", bz2.compress), (".xz", lzma.compress),
        (".lzma", lambda data: lzma.compress(data, format=lzma.FORMAT_ALONE)),
    ])
    def test_compressed_name_is_read_as_plain_text(self, tmp_path, suffix, compress):
        """NumPy would open these names through a decompressor; a series file
        is read as the text it holds."""
        text = (bundled_data_path() / "load_kw.txt").read_bytes()
        path = tmp_path / f"load_kw.txt{suffix}"
        path.write_bytes(compress(text))
        with pytest.raises(NotUtf8Error) as err:
            load_timeseries(path, Unit.KW)
        assert str(err.value) == f"{path}, line 1: not UTF-8 text"
        path.write_bytes(text)
        values = self._assert_same(path)
        assert values.tobytes() == load_timeseries(bundled_data_path() / "load_kw.txt", Unit.KW).values.tobytes()

    def test_byte_order_mark(self, tmp_path):
        """A file that starts with a UTF-8 byte-order mark reads as the same
        file without it."""
        text = (bundled_data_path() / "load_kw.txt").read_text(encoding="utf-8")
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        values = load_timeseries(marked, Unit.KW).values
        assert values.tobytes() == reference_load_timeseries(plain, Unit.KW).values.tobytes()
        marked.write_bytes(b"\xef\xbb\xbf" + b"x\n")
        with pytest.raises(TimeSeriesParseError, match=":1: cannot parse 'x' as a number"):
            load_timeseries(marked, Unit.KW)


class TestSynthesizeLoad:
    def test_zero_variability_tiles_profile(self):
        series = synthesize_load(DEFAULT_DAILY_LOAD_KW, 0.0, 0.0, seed=1)
        tiled = np.tile(DEFAULT_DAILY_LOAD_KW, 365)
        assert np.array_equal(series.values, tiled)

    def test_flat_profile_annual_energy(self):
        flat = (3139.3 / 24.0,) * 24
        series = synthesize_load(flat, 0.0, 0.0, seed=1)
        assert series.values.sum() == pytest.approx(3139.3 * 365, rel=1e-3)

    def test_same_seed_identical(self):
        a = synthesize_load(DEFAULT_DAILY_LOAD_KW, 0.15, 0.1, seed=99)
        b = synthesize_load(DEFAULT_DAILY_LOAD_KW, 0.15, 0.1, seed=99)
        assert np.array_equal(a.values, b.values)

    def test_invalid_variability(self):
        with pytest.raises(InvalidVariabilityError):
            synthesize_load(DEFAULT_DAILY_LOAD_KW, 1.0, 0.0, seed=1)
        with pytest.raises(InvalidVariabilityError):
            synthesize_load(DEFAULT_DAILY_LOAD_KW, 0.0, -0.1, seed=1)

    @settings(max_examples=20, deadline=None)
    @given(v=st.floats(min_value=0.0, max_value=0.5), seed=st.integers(0, 2**20))
    def test_variability_envelope(self, v, seed):
        profile = np.asarray(DEFAULT_DAILY_LOAD_KW)
        series = synthesize_load(profile, v, v, seed=seed)
        per_hour = series.values.reshape(365, 24)
        low = profile * (1.0 - v) ** 2
        high = profile * (1.0 + v) ** 2
        assert np.all(per_hour >= low - 1e-9)
        assert np.all(per_hour <= high + 1e-9)


class TestResourceSynthesis:
    def test_irradiance_monthly_means_exact(self):
        monthly = (7.6, 6.4, 4.7, 3.0, 2.0, 1.7, 1.85, 2.55, 3.7, 5.1, 6.6, 7.7)
        series = synthesize_irradiance(monthly, seed=5)
        month_days = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
        daily = series.values.reshape(365, 24).sum(axis=1)
        start = 0
        for days, target in zip(month_days, monthly):
            assert daily[start:start + days].mean() == pytest.approx(target, rel=1e-9)
            start += days

    def test_irradiance_zero_at_night(self):
        series = synthesize_irradiance((5.0,) * 12, seed=5)
        by_hour = series.values.reshape(365, 24)
        assert np.all(by_hour[:, 0] == 0.0)
        assert np.all(by_hour[:, 23] == 0.0)

    def test_wind_non_negative_and_monthly_means(self):
        monthly = (4.1, 4.0, 3.9, 4.0, 4.2, 4.7, 4.9, 5.0, 4.9, 4.7, 4.4, 4.2)
        series = synthesize_wind_speed(monthly, seed=6)
        assert np.all(series.values >= 0.0)
        month_days = np.repeat((31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31), 1)
        idx = np.repeat(np.arange(12), np.asarray(month_days) * 24)
        for m in range(12):
            assert series.values[idx == m].mean() == pytest.approx(monthly[m], rel=1e-9)


class TestValidateScenario:
    def test_bundled_scenario_valid(self, bundled):
        assert replace(bundled) == bundled

    def test_bad_lambda_reported(self, bundled):
        with pytest.raises(ScenarioValidationError) as err:
            replace(bundled, reliability_lambda=0.0)
        assert any("reliability_lambda" in v for v in err.value.violations)

    def test_short_series_reported(self, bundled):
        short = TimeSeries(bundled.load.values[:-1], Unit.KW)
        with pytest.raises(ScenarioValidationError) as err:
            replace(bundled, load=short)
        assert any("length" in v for v in err.value.violations)

    def test_all_violations_collected(self, bundled):
        with pytest.raises(ScenarioValidationError) as err:
            replace(bundled, reliability_lambda=-1.0, anemometer_height_m=0.0)
        assert len(err.value.violations) >= 2

    def test_immutable(self, bundled):
        with pytest.raises(Exception):
            bundled.reliability_lambda = 5.0
        with pytest.raises(ValueError):
            bundled.load.values[0] = 1.0


class TestScenarioInvariant:
    """Every route to a scenario checks it: a field that would give a wrong
    number or a traceback raises, naming the field."""

    def test_constructor(self, bundled):
        converter = replace(bundled.catalog.converter, efficiency=1.5)
        with pytest.raises(ScenarioValidationError) as err:
            Scenario(load=bundled.load, irradiance=bundled.irradiance, wind_speed=bundled.wind_speed,
                     catalog=replace(bundled.catalog, converter=converter))
        assert err.value.violations == ["catalog.converter.efficiency: must be in (0, 1], got 1.5"]

    @pytest.mark.parametrize("changes, message", [
        ({"battery": {"soc_min": 0.9, "soc_max": 0.1}},
         "catalog.battery: soc window must satisfy 0 < soc_max - soc_min <= 1"),
        ({"battery": {"rate_constant_per_hr": 1e-17}},
         "catalog.battery.rate_constant_per_hr: must be >= 1e-6, got 1e-17"),
        ({"wind": {"cut_in_ms": 30.0}},
         "catalog.wind: cut-in 30.0 must be below cut-out 24.0\n"
         "catalog.wind: rated speed must lie between cut-in and cut-out"),
        ({"wind": {"rated_ms": 30.0}}, "catalog.wind: rated speed must lie between cut-in and cut-out"),
        # A part's rules across fields run after every later part's fields.
        ({"wind": {"cut_out_ms": 3.0}, "converter": {"efficiency": 2.0}},
         "catalog.converter.efficiency: must be in (0, 1], got 2.0\n"
         "catalog.wind: cut-in 4.0 must be below cut-out 3.0\n"
         "catalog.wind: rated speed must lie between cut-in and cut-out"),
    ])
    def test_replace(self, bundled, changes, message):
        """``changes`` maps catalog parts to their new values; each line of
        ``message`` is one violation, in order."""
        catalog = replace(bundled.catalog, **{part: replace(getattr(bundled.catalog, part), **values)
                                              for part, values in changes.items()})
        with pytest.raises(ScenarioValidationError) as err:
            replace(bundled, catalog=catalog)
        assert err.value.violations == message.split("\n")

    def test_scale_series(self, bundled):
        with pytest.raises(ScenarioValidationError) as err:
            scale_series(bundled, ("load",), -1.0)
        assert err.value.violations == ["load: negative values not allowed for unit kW"]

    @pytest.mark.parametrize("factor", [0.8, 1.2])
    def test_scaled_variants_build(self, bundled, factor):
        for paths in (("load",), ("irradiance",), ("wind_speed",), ("tariff.purchase_usd_per_kwh",),
                      ("catalog.pv.capital_usd_per_kw", "catalog.pv.replacement_usd_per_kw")):
            assert isinstance(scale_series(bundled, paths, factor), Scenario)


class TestSeriesFields:
    """Each series field holds a :class:`TimeSeries` in its unit; only the
    cell temperature may be None.  Before, a None load built and ended in an
    ``AttributeError`` in ``evaluate``, and a load in degC escaped the
    non-negative rule."""

    def test_none_series(self, bundled):
        with pytest.raises(ScenarioValidationError) as err:
            replace(bundled, load=None, cell_temperature=None)
        assert err.value.violations == ["load: must be a TimeSeries in kW, got None"]

    def test_every_none_series_named(self, bundled):
        with pytest.raises(ScenarioValidationError) as err:
            replace(bundled, load=None, irradiance=None, wind_speed=None)
        assert err.value.violations == ["load: must be a TimeSeries in kW, got None",
                                        "irradiance: must be a TimeSeries in kW/m2, got None",
                                        "wind_speed: must be a TimeSeries in m/s, got None"]

    def test_series_in_the_wrong_unit(self, bundled):
        negative = TimeSeries(-bundled.load.values, Unit.CELSIUS)
        with pytest.raises(ScenarioValidationError) as err:
            replace(bundled, load=negative, cell_temperature=TimeSeries(bundled.load.values, Unit.KW))
        assert err.value.violations == ["load: must be a TimeSeries in kW, got a TimeSeries in degC",
                                        "cell_temperature: must be a TimeSeries in degC, got a TimeSeries in kW"]

    def test_value_that_is_not_a_series(self, bundled):
        with pytest.raises(ScenarioValidationError) as err:
            replace(bundled, irradiance=bundled.irradiance.values, wind_speed=3.0)
        assert err.value.violations == [
            f"irradiance: must be a TimeSeries in kW/m2, got {bundled.irradiance.values!r}",
            "wind_speed: must be a TimeSeries in m/s, got 3.0"]

    def test_price_series_in_the_wrong_unit(self, bundled):
        tariff = replace(bundled.tariff, purchase_usd_per_kwh=TimeSeries(-bundled.load.values, Unit.KW),
                         sellback_usd_per_kwh=None)
        with pytest.raises(ScenarioValidationError) as err:
            replace(bundled, tariff=tariff)
        assert err.value.violations == [
            "tariff.purchase_usd_per_kwh: must be a TimeSeries in $/kWh, got a TimeSeries in kW",
            "tariff.sellback_usd_per_kwh: must be a number, got None"]

    def test_series_in_a_number_field(self, bundled):
        with pytest.raises(ScenarioValidationError) as err:
            replace(bundled, anemometer_height_m=bundled.load)
        assert err.value.violations == ["anemometer_height_m: must be a number, got a TimeSeries in kW"]

    def test_optional_and_hourly_fields_build(self, bundled):
        prices = TimeSeries(np.full(HOURS_PER_YEAR, 0.2), Unit.USD_PER_KWH)
        temperature = TimeSeries(np.full(HOURS_PER_YEAR, -5.0), Unit.CELSIUS)
        assert replace(bundled, cell_temperature=None).cell_temperature is None
        assert replace(bundled, cell_temperature=temperature).cell_temperature is temperature
        tariff = replace(bundled.tariff, purchase_usd_per_kwh=prices, sellback_usd_per_kwh=prices)
        assert replace(bundled, tariff=tariff).tariff is tariff

    def test_file_units_come_from_the_fields(self):
        assert scenario_module._SERIES_UNITS == {
            "load": Unit.KW, "irradiance": Unit.KW_PER_M2, "wind_speed": Unit.M_PER_S,
            "cell_temperature": Unit.CELSIUS}


class TestSectionFields:
    """Each section field holds its section, down to each catalog part.
    Before, a scenario built in code with ``tariff=None`` ended in a
    ``TypeError`` and one with ``catalog=None`` in an ``AttributeError``."""

    @pytest.mark.parametrize("changes, message", [
        ({"tariff": None}, "tariff: must be a GridTariff, got None"),
        ({"catalog": None}, "catalog: must be a Catalog, got None"),
        ({"economics": 3}, "economics: must be an Economics, got 3"),
    ])
    def test_value_that_is_not_its_section(self, bundled, changes, message):
        with pytest.raises(ScenarioValidationError) as err:
            replace(bundled, **changes)
        assert err.value.violations == [message]

    def test_catalog_part_that_is_not_its_section(self, bundled):
        with pytest.raises(ScenarioValidationError) as err:
            replace(bundled, tariff=bundled.load,
                    catalog=replace(bundled.catalog, wind=bundled.catalog.battery, battery=None))
        assert err.value.violations == [
            "tariff: must be a GridTariff, got a TimeSeries in kW",
            f"catalog.wind: must be a WindTurbineSpec, got {bundled.catalog.battery!r}",
            "catalog.battery: must be a BatterySpec, got None"]

    def test_every_field_is_walked(self):
        """Every field of a scenario, down through its sections, is one the
        walk checks: a section, a series, a number with rules or a ``str``."""
        def walk(cls, prefix):
            for f in fields(cls):
                if is_dataclass(f.default_factory):
                    walk(f.default_factory, f"{prefix}{f.name}.")
                else:
                    assert "unit" in f.metadata or "rules" in f.metadata or f.type == "str", prefix + f.name

        walk(Scenario, "")


class TestCatalogValidation:
    """Catalog values that would otherwise give a silently wrong result."""

    @staticmethod
    def _violations(bundled, section, **changes):
        catalog = replace(bundled.catalog, **{section: replace(getattr(bundled.catalog, section), **changes)})
        with pytest.raises(ScenarioValidationError) as err:
            replace(bundled, catalog=catalog)
        return err.value.violations

    @pytest.mark.parametrize("height", [0.0, -10.0, math.nan])
    def test_wind_hub_height_must_be_positive(self, bundled, height):
        problems = self._violations(bundled, "wind", hub_height_m=height)
        assert any("catalog.wind.hub_height_m" in v for v in problems)

    @pytest.mark.parametrize("derating", [-0.1, math.nan])
    def test_pv_derating_must_be_non_negative(self, bundled, derating):
        problems = self._violations(bundled, "pv", derating=derating)
        assert any("catalog.pv.derating" in v for v in problems)

    @pytest.mark.parametrize("lifetime", [math.nan, math.inf])
    def test_lifetime_must_be_finite(self, bundled, lifetime):
        problems = self._violations(bundled, "battery", lifetime_years=lifetime)
        assert any("catalog.battery.lifetime_years" in v for v in problems)

    @pytest.mark.parametrize("cost", [-1.0, math.nan, math.inf])
    def test_cost_must_be_finite_and_non_negative(self, bundled, cost):
        problems = self._violations(bundled, "pv", capital_usd_per_kw=cost)
        assert any("catalog.pv.capital_usd_per_kw" in v for v in problems)

    @pytest.mark.parametrize("rate", [0.0, math.nan, math.inf])
    def test_rate_constant_must_be_finite_and_positive(self, bundled, rate):
        problems = self._violations(bundled, "battery", rate_constant_per_hr=rate)
        assert any("catalog.battery.rate_constant_per_hr" in v for v in problems)

    @pytest.mark.parametrize("rate", [1e-300, 1e-17, 1e-16, 9.99e-7])
    def test_rate_constant_has_a_floor(self, bundled, rate):
        # below 1e-6, exp(-k) rounds toward 1: the battery's closed forms
        # divide by zero (1e-17) or lose their digits (1e-16)
        problems = self._violations(bundled, "battery", rate_constant_per_hr=rate)
        assert problems == [f"catalog.battery.rate_constant_per_hr: must be >= 1e-6, got {rate}"]

    def test_rate_constant_at_the_floor_gives_finite_metrics(self, bundled):
        battery = replace(bundled.catalog.battery, rate_constant_per_hr=1e-6)
        scenario = replace(bundled, catalog=replace(bundled.catalog, battery=battery))
        assert all(math.isfinite(value) for value in evaluate(A5, scenario).objectives())

    @pytest.mark.parametrize("section, name", [
        ("wind", "power_coefficient"), ("wind", "swept_area_m2_per_unit"), ("pv", "degradation_per_yr"),
        ("diesel", "fuel_intercept_l_per_hr_kw"), ("diesel", "fuel_slope_l_per_hr_kw"),
    ])
    def test_negative_rate_rejected(self, bundled, section, name):
        # negative wind output or fuel, or PV credited above its output
        problems = self._violations(bundled, section, **{name: -1.0})
        assert f"catalog.{section}.{name}: must be >= 0, got -1.0" in problems

    @pytest.mark.parametrize("name, value", [("soc_min", -0.2), ("soc_max", 1.2)])
    def test_soc_bounds_within_capacity(self, bundled, name, value):
        # the window check alone lets the SOC fall below empty
        problems = self._violations(bundled, "battery", **{name: value})
        assert problems == [f"catalog.battery.{name}: must be in [0, 1], got {value}"]

    def test_wind_nominal_kw_must_be_positive(self, bundled):
        # the turbine count divides by it: 0 would raise ZeroDivisionError
        problems = self._violations(bundled, "wind", nominal_kw=0.0)
        assert "catalog.wind.nominal_kw: must be > 0, got 0.0" in problems


class TestProjectYears:
    """``economics.project_years`` is an int in [1, 100], never a bool."""

    @staticmethod
    def _violations(bundled, years):
        economics = replace(bundled.economics, project_years=years)
        with pytest.raises(ScenarioValidationError) as err:
            replace(bundled, economics=economics)
        return err.value.violations

    def test_huge_value_rejected(self, bundled):
        # would never leave the replacement loop of ``metrics.npc``
        assert self._violations(bundled, 1e308) == [
            "economics.project_years: must be an integer, got 1e+308"]

    def test_fraction_rejected(self, bundled):
        # would raise TypeError in ``range(1, T + 1)``
        assert self._violations(bundled, 25.5) == [
            "economics.project_years: must be an integer, got 25.5"]

    def test_bool_rejected(self, bundled):
        # ``true`` would be accepted as 1
        assert self._violations(bundled, True) == [
            "economics.project_years: must be an integer, got True"]

    def test_range(self, bundled):
        assert self._violations(bundled, 101) == ["economics.project_years: must be <= 100, got 101"]
        assert self._violations(bundled, 0) == ["economics.project_years: must be >= 1, got 0"]
        for years in (1, 25, 100):
            scenario = replace(bundled, economics=replace(bundled.economics, project_years=years))
            assert scenario.economics.project_years == years


def _numeric_fields() -> list[tuple[str, str]]:
    """``(section, field)`` for every numeric scalar of a scenario: each
    catalog part, ``economics``, ``tariff`` and the top level (``""``)."""
    sections = [(f"catalog.{f.name}", f.default_factory) for f in fields(Catalog)]
    sections += [("economics", Economics), ("tariff", GridTariff), ("", Scenario)]
    return [(section, f.name) for section, cls in sections for f in fields(cls)
            if isinstance(f.default, (int, float))]


def _with_field(scenario: Scenario, section: str, name: str, value) -> Scenario:
    if not section:
        return replace(scenario, **{name: value})
    *parents, part = section.split(".")
    if parents:  # a catalog part
        catalog = scenario.catalog
        spec = replace(getattr(catalog, part), **{name: value})
        return replace(scenario, catalog=replace(catalog, **{part: spec}))
    return replace(scenario, **{part: replace(getattr(scenario, part), **{name: value})})


class TestFiniteFields:
    """Every numeric scenario field rejects NaN and infinity by name."""

    @pytest.mark.parametrize("section, name", _numeric_fields(),
                             ids=[".".join(filter(None, f)) for f in _numeric_fields()])
    def test_non_finite_value_names_the_field(self, bundled, section, name):
        label = f"{section}.{name}" if section else name
        with pytest.raises(ScenarioValidationError) as err:
            _with_field(bundled, section, name, math.nan)
        assert f"{label}: must be finite, got nan" in err.value.violations
        with pytest.raises(ScenarioValidationError) as err:
            _with_field(bundled, section, name, math.inf)
        assert f"{label}: must be finite, got inf" in err.value.violations


class TestYamlParsing:
    def test_loaders_build_the_same_bundled_document(self):
        text = (bundled_data_path() / "scenario.yaml").read_text(encoding="utf-8")
        expected = yaml.load(text, Loader=yaml.SafeLoader)
        assert yaml.load(text, Loader=scenario_module._YAML_LOADER) == expected
        if yaml.__with_libyaml__:
            assert scenario_module._YAML_LOADER is yaml.CSafeLoader
            assert yaml.load(text, Loader=yaml.CSafeLoader) == expected

    def test_malformed_yaml_names_file_and_line(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("name: x\ntariff:\n  max_import_kw: [400.0\n  max_export_kw: 1.0\n",
                        encoding="utf-8")
        with pytest.raises(ScenarioValidationError) as info:
            load_scenario(path)
        (message,) = info.value.violations
        assert message.startswith(f"{path}:4:")
        assert "malformed YAML" in message and "line 3" in message


def _bundled_copy(directory) -> dict:
    """Copy the bundled data into ``directory``; return its parsed YAML."""
    shutil.copytree(bundled_data_path(), directory, dirs_exist_ok=True)
    return yaml.safe_load((directory / "scenario.yaml").read_text(encoding="utf-8"))


def _load(directory, doc) -> Scenario:
    path = directory / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return load_scenario(path)


class TestSchema:
    """The field table read from the dataclasses drives parsing and checks."""

    @pytest.mark.parametrize("section, key", [
        ("catalog.pv", "nominal_kw"), ("catalog.diesel", "nominal_kw"), ("catalog.converter", "nominal_kw"),
        ("catalog.battery", "nominal_kwh"), ("catalog.battery", "nominal_voltage"),
        ("catalog.converter", "fixed_loss_kw"), ("economics", "inflation_rate"),
    ])
    def test_removed_field_is_an_unknown_key(self, tmp_path, section, key):
        doc = _bundled_copy(tmp_path)
        node = doc
        for part in section.split("."):
            node = node[part]
        node[key] = 1.0
        with pytest.raises(ScenarioValidationError) as err:
            _load(tmp_path, doc)
        assert err.value.violations == [f"{section}.{key}: unknown key"]

    def test_every_problem_in_one_error(self, tmp_path):
        doc = _bundled_copy(tmp_path)
        doc["series"].pop("irradiance")
        doc["series"]["load"] = 7
        doc["series"]["wind"] = "wind_speed_ms.txt"
        doc["tariff"] = [0.3]
        doc["catalog"]["battery"]["soc_max"] = "0.8"
        doc["catalog"]["battery"]["lifetime_years"] = 2.5
        doc["catalog"]["wind"]["curve_exponent"] = 0
        doc["colour"] = "blue"
        with pytest.raises(ScenarioValidationError) as err:
            _load(tmp_path, doc)
        assert sorted(err.value.violations) == sorted([
            "series.wind: unknown key",
            "series.load: must be a file name, got 7",
            "series.irradiance: is required",
            "tariff: must be a mapping, got [0.3]",
            "colour: unknown key",
            "catalog.wind.curve_exponent: must be > 0, got 0",
            "catalog.battery.lifetime_years: must be an integer, got 2.5",
            "catalog.battery.soc_max: must be a number, got '0.8'",
        ])

    def test_unreadable_series_named(self, tmp_path):
        doc = _bundled_copy(tmp_path)
        (tmp_path / "folder").mkdir()
        doc["series"]["irradiance"] = "folder"
        doc["series"]["wind_speed"] = "missing.txt"
        (tmp_path / "short.txt").write_text("1.0\n", encoding="utf-8")
        doc["tariff"]["sellback_file"] = "short.txt"
        with pytest.raises(ScenarioValidationError) as err:
            _load(tmp_path, doc)
        directory, first, second = err.value.violations
        assert directory.startswith("series.irradiance: [Errno 21]") and "folder" in directory
        assert first.startswith("series.wind_speed: [Errno 2]") and "missing.txt" in first
        assert second == "tariff.sellback_file: expected 8760 hourly values, got 1"

    def test_hourly_price_file(self, tmp_path):
        doc = _bundled_copy(tmp_path)
        _write_lines(tmp_path / "prices.txt", [0.25] * HOURS_PER_YEAR)
        doc["tariff"]["purchase_file"] = "prices.txt"
        scenario = _load(tmp_path, doc)
        assert scenario.tariff.purchase_usd_per_kwh.unit is Unit.USD_PER_KWH
        assert np.all(scenario.tariff.purchase_series() == 0.25)

    @pytest.mark.parametrize("value, message", [
        (True, "must be a number, got True"),
        ("5", "must be a number, got '5'"),
        (None, "must be a number, got None"),
        (10**400, "must be finite, got 1" + "0" * 400),
        (-1, "must be >= 0, got -1"),
    ], ids=["bool", "str", "none", "huge-int", "negative"])
    def test_one_message_per_field(self, bundled, value, message):
        tariff = replace(bundled.tariff, max_export_kw=value)
        with pytest.raises(ScenarioValidationError) as err:
            replace(bundled, tariff=tariff)
        assert err.value.violations == [f"tariff.max_export_kw: {message}"]

    def test_cross_field_checks_wait_for_their_fields(self, bundled):
        wind = replace(bundled.catalog.wind, cut_in_ms=math.nan)
        battery = replace(bundled.catalog.battery, soc_min="low")
        with pytest.raises(ScenarioValidationError) as err:
            replace(bundled, catalog=replace(bundled.catalog, wind=wind, battery=battery))
        assert err.value.violations == ["catalog.wind.cut_in_ms: must be finite, got nan",
                                        "catalog.battery.soc_min: must be a number, got 'low'"]

    @pytest.mark.parametrize("name", [[1], {"a": 1}, 7, None])
    def test_name_must_be_a_string(self, tmp_path, name):
        doc = _bundled_copy(tmp_path)
        doc["name"] = name
        with pytest.raises(ScenarioValidationError) as err:
            _load(tmp_path, doc)
        assert err.value.violations == [f"name: must be a string, got {name!r}"]

    def test_name_defaults_to_the_file_stem(self, tmp_path):
        doc = _bundled_copy(tmp_path)
        doc.pop("name")
        assert _load(tmp_path, doc).name == "scenario"

    @pytest.mark.parametrize("value", [-1.0, -1e-9])
    def test_negative_cut_in_speed_rejected(self, tmp_path, value):
        # a negative cut-in makes the curve give power from the lowest speeds up
        doc = _bundled_copy(tmp_path)
        doc["catalog"]["wind"]["cut_in_ms"] = value
        with pytest.raises(ScenarioValidationError) as err:
            _load(tmp_path, doc)
        assert err.value.violations == [f"catalog.wind.cut_in_ms: must be >= 0, got {value}"]

    @pytest.mark.parametrize("name", ["rated_ms", "cut_out_ms"])
    def test_negative_rated_and_cut_out_speeds_fail_the_order_check(self, bundled, name):
        wind = replace(bundled.catalog.wind, **{name: -1.0})
        with pytest.raises(ScenarioValidationError) as err:
            replace(bundled, catalog=replace(bundled.catalog, wind=wind))
        assert err.value.violations and all(v.startswith("catalog.wind:") for v in err.value.violations)

    def test_numpy_numbers_accepted(self, bundled):
        economics = replace(bundled.economics, project_years=np.int64(20), discount_rate=np.float64(0.05))
        assert replace(bundled, economics=economics).economics is economics


def _key_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


_BUNDLED_DOC = yaml.safe_load((bundled_data_path() / "scenario.yaml").read_text(encoding="utf-8"))
_RENAME = object()


class TestMutatedDocuments:
    """A bundled document with one key set to a bad value or renamed loads
    into a scenario on which A5's objectives are finite, or fails with an
    error that names the problem (the CLI exits 2 on either error)."""

    @pytest.fixture(scope="class")
    def data_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("data")
        _bundled_copy(directory)
        return directory

    @settings(max_examples=60, deadline=None)
    @given(path=st.sampled_from(list(_key_paths(_BUNDLED_DOC))),
           value=st.sampled_from(["x", [1], True, None, 2.5, -1, 0, {"a": 1}, math.nan, 1e308, _RENAME]))
    def test_finite_objectives_or_named_error(self, data_dir, path, value):
        doc = copy.deepcopy(_BUNDLED_DOC)
        *parents, key = path
        node = doc
        for part in parents:
            node = node[part]
        if value is _RENAME:
            node[key + "_renamed"] = node.pop(key)
        else:
            node[key] = value
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # NumPy overflow in the wind curve
                metrics = evaluate(A5, _load(data_dir, doc))
        except ScenarioValidationError as exc:
            assert exc.violations and all(isinstance(v, str) for v in exc.violations)
        except NonFiniteMetricError as exc:
            assert "not finite" in str(exc) or "overflows" in str(exc)
        else:
            assert all(math.isfinite(v) for v in metrics.objectives())
