"""Robustness studies for a chosen design.

Two analyses:

* uniform +/- perturbations of the load, PV output, or wind output
  series, reporting the deviation of each metric from the unperturbed
  baseline (the classic resilience table);
* LCOE response curves to economic parameters (electricity purchase
  price, sellback price, battery and PV capital costs).

Each variant scales the fields one table per analysis names, through
:func:`~mgdesign.scenario.scale_series`.  Dispatch is price-blind, so the
economic sweeps reuse one simulated trace and only re-cost it; the series
perturbations re-simulate.  The baseline runs on the given scenario
object, so in a process that simulated the design on it before (the
shared bundled scenario after ``evaluate``) the baseline reuses that
battery stage.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dispatch import Design, DispatchTrace, simulate_year
from .metrics import MetricVector, NonFiniteMetricError, evaluate, lcoe, npc
from .scenario import Scenario, scale_series
from .tables import csv_column, write_table


class PerturbTarget(enum.Enum):
    LOAD = "load"
    PV_OUTPUT = "pv_output"
    WIND_OUTPUT = "wind_output"


#: The series each target scales.  Wind output responds nonlinearly through
#: the power curve, so the wind case scales the resource, not the production.
_PERTURBED_SERIES = {PerturbTarget.LOAD: ("load",), PerturbTarget.PV_OUTPUT: ("irradiance",),
                     PerturbTarget.WIND_OUTPUT: ("wind_speed",)}


@dataclass(frozen=True)
class Perturbation:
    """Uniform multiplicative scaling of one input series by (1 + delta)."""

    target: PerturbTarget
    delta: float

    def __post_init__(self) -> None:
        if not abs(self.delta) < 1.0:
            raise ValueError(f"|delta| must be < 1, got {self.delta}")


@dataclass(frozen=True)
class DeviationRow:
    """Metric deviations of one perturbed run against the baseline.

    Cost, efficiency, and CO2 deviations are percentages of the absolute
    baseline value (CO2 can cross zero, hence the signed-percent-of-
    absolute convention); reliability is an absolute difference because
    its baseline is typically 1.
    """

    target: PerturbTarget
    delta: float
    npc_dev_pct: float
    reliability_dev: float
    efficiency_dev_pct: float
    co2_dev_pct: float
    metrics: MetricVector


def _pct(value: float, baseline: float) -> float:
    if value == baseline:
        return 0.0
    if baseline == 0.0:
        return float("inf") if value > baseline else float("-inf")
    return 100.0 * (value - baseline) / abs(baseline)


def perturb_and_evaluate(scenario: Scenario, design: Design, perturbation: Perturbation,
                         baseline: MetricVector) -> DeviationRow:
    """Scale the targeted series, re-evaluate, and report deviations from
    ``baseline``, the metrics of ``design`` on ``scenario``."""
    perturbed = evaluate(design, scale_series(scenario, _PERTURBED_SERIES[perturbation.target], 1.0 + perturbation.delta))
    return DeviationRow(
        target=perturbation.target,
        delta=perturbation.delta,
        npc_dev_pct=_pct(perturbed.npc_usd, baseline.npc_usd),
        reliability_dev=perturbed.reliability - baseline.reliability,
        efficiency_dev_pct=_pct(perturbed.efficiency_pct, baseline.efficiency_pct),
        co2_dev_pct=_pct(perturbed.co2_kg_per_yr, baseline.co2_kg_per_yr),
        metrics=perturbed,
    )


def standard_perturbations() -> list[Perturbation]:
    """The +/-5% and +/-10% grid over load, PV output, and wind output."""
    grid = []
    for target in PerturbTarget:
        for delta in (-0.05, 0.05, -0.10, 0.10):
            grid.append(Perturbation(target, delta))
    return grid


def deviation_table(scenario: Scenario, design: Design) -> list[DeviationRow]:
    """Run :func:`standard_perturbations` against one shared baseline."""
    baseline = evaluate(design, scenario)
    return [perturb_and_evaluate(scenario, design, p, baseline) for p in standard_perturbations()]


def write_deviation_csv(rows: list[DeviationRow], path: str | Path) -> None:
    deviations = ("npc_dev_pct", "reliability_dev", "efficiency_dev_pct", "co2_dev_pct")
    columns = [[row.target.value for row in rows], [f"{row.delta * 100.0:.6g}" for row in rows]]
    columns += [csv_column(getattr(row, name) for row in rows) for name in deviations]
    write_table(path, ("parameter", "uncertainty_pct") + deviations, columns)


# ----------------------------------------------------------------------
# LCOE sweeps
# ----------------------------------------------------------------------

class SweepParameter(enum.Enum):
    PURCHASE_PRICE = "purchase_price"
    SELLBACK_PRICE = "sellback_price"
    BATTERY_CAPITAL = "battery_capital"
    PV_CAPITAL = "pv_capital"


#: The fields each parameter scales.  Replacement tracks capital: the
#: catalog quotes one figure for both.
_SWEPT_FIELDS = {
    SweepParameter.PURCHASE_PRICE: ("tariff.purchase_usd_per_kwh",),
    SweepParameter.SELLBACK_PRICE: ("tariff.sellback_usd_per_kwh",),
    SweepParameter.BATTERY_CAPITAL: ("catalog.battery.capital_usd_per_kwh", "catalog.battery.replacement_usd_per_kwh"),
    SweepParameter.PV_CAPITAL: ("catalog.pv.capital_usd_per_kw", "catalog.pv.replacement_usd_per_kw"),
}


def lcoe_sweep(scenario: Scenario, design: Design, parameter: SweepParameter,
               multipliers: list[float],
               trace: DispatchTrace | None = None) -> list[tuple[float, float]]:
    """LCOE at each multiplier of the fields ``parameter`` names, all else fixed.

    The dispatch never looks at prices, so the trace is simulated once
    and re-costed per point.  Pass the ``trace`` of ``design`` on
    ``scenario`` so sweeps of several parameters share one simulation;
    without it the sweep simulates its own, which runs the battery loop
    again only when the scenario keeps no stage of the design's battery
    key (:func:`~mgdesign.dispatch.battery_stage`).  A design that serves no
    energy has no LCOE at any multiplier and raises
    :class:`~mgdesign.metrics.NonFiniteMetricError` saying so; any other
    LCOE that comes out NaN or infinite raises it naming the parameter and
    the multiplier.
    """
    if not all(0.0 < m < math.inf for m in multipliers):
        raise ValueError("multipliers must be finite and > 0")
    if trace is None:
        trace = simulate_year(scenario, design)
    served = trace.served_kwh
    if served <= 0.0:
        raise NonFiniteMetricError("lcoe_usd_per_kwh is undefined: the design serves no energy")
    eco = scenario.economics
    curve = []
    for multiplier in multipliers:
        scaled = scale_series(scenario, _SWEPT_FIELDS[parameter], multiplier)
        with np.errstate(over="ignore", invalid="ignore"):  # caught below, not warned
            total, _ = npc(trace, design, scaled)
        value = lcoe(total, served, eco.discount_rate, eco.project_years)
        if not math.isfinite(value):
            raise NonFiniteMetricError(f"lcoe_usd_per_kwh = {value} with {parameter.value} x {multiplier!r}")
        curve.append((multiplier, value))
    return curve


def write_sweep_csv(curve: list[tuple[float, float]], path: str | Path) -> None:
    write_table(path, ("multiplier", "lcoe_usd_per_kwh"), [csv_column(c) for c in zip(*curve)])
