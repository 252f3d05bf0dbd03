"""Design performance metrics: lifetime cost, reliability, efficiency,
and the annual CO2 balance.

Sign conventions
----------------
:data:`OBJECTIVE_SENSES` says which objectives are minimized and which
maximized.

* ``npc_usd`` -- discounted lifetime cost in constant dollars; the
  scenario's ``discount_rate`` is the real rate.
* ``reliability`` -- ``exp(-lambda * LPSP)`` in [0, 1].
* ``efficiency_pct`` -- served energy over net energy input, <= 100.
* ``co2_kg_per_yr`` -- net annual CO2: emissions from diesel fuel and
  grid imports *minus* the grid emissions displaced by renewable
  production.  Negative values mean the design displaces more than it
  emits.  :func:`co2_delta` returns the same quantity with the opposite
  sign (positive = net avoided emissions).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, fields

import numpy as np

from .dispatch import BatteryStage, Design, DispatchTrace, battery_stage, simulate_year
from .scenario import Scenario


class NonFiniteMetricError(ValueError):
    """A design objective came out NaN or infinite, or overflowed: the
    scenario's numbers are beyond what a float can carry."""


@dataclass(frozen=True)
class CostBreakdown:
    """Components of the net present cost.

    ``capital_usd`` is spent in year 0; the ``*_per_yr`` entries recur in
    years 1..T; ``replacement_usd_pw`` and ``salvage_usd_pw`` are already
    discounted to present value.
    """

    capital_usd: float
    om_usd_per_yr: float
    fuel_usd_per_yr: float
    grid_energy_usd_per_yr: float
    sellback_usd_per_yr: float
    replacement_usd_pw: float
    salvage_usd_pw: float


@dataclass(frozen=True)
class MetricVector:
    """The four design objectives plus auxiliary economics."""

    npc_usd: float
    reliability: float
    efficiency_pct: float
    co2_kg_per_yr: float
    lcoe_usd_per_kwh: float
    capital_usd: float
    om_usd_per_yr: float
    lpsp: float

    def objectives(self) -> tuple[float, float, float, float]:
        """The four objectives, in :data:`OBJECTIVE_SENSES` order."""
        return tuple(getattr(self, name) for name in OBJECTIVE_SENSES)


#: Each objective's sense, in :meth:`MetricVector.objectives` order: an
#: objective times its sense is minimized (1.0: lower is better).
OBJECTIVE_SENSES = {"npc_usd": 1.0, "reliability": -1.0, "efficiency_pct": -1.0, "co2_kg_per_yr": 1.0}

#: Stable serialization order for CSV rows and key/value records.
METRIC_FIELDS = tuple(f.name for f in fields(MetricVector))
COST_FIELDS = tuple(f.name for f in fields(CostBreakdown))


def metric_record(m: MetricVector) -> dict[str, float]:
    """Flat field-name -> value mapping in :data:`METRIC_FIELDS` order."""
    return {name: getattr(m, name) for name in METRIC_FIELDS}


def cost_record(c: CostBreakdown) -> dict[str, float]:
    """Flat field-name -> value mapping in :data:`COST_FIELDS` order."""
    return {name: getattr(c, name) for name in COST_FIELDS}


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------

def _component_sizes(design: Design, scenario: Scenario) -> list[tuple[float, float, float, float, int]]:
    """(size, capital rate, replacement rate, om rate, lifetime) per included component."""
    cat = scenario.catalog
    rows = []
    if design.pv_kw > 0:
        rows.append((design.pv_kw, cat.pv.capital_usd_per_kw, cat.pv.replacement_usd_per_kw,
                     cat.pv.om_usd_per_kw_yr, cat.pv.lifetime_years))
    if design.wt_kw > 0:
        rows.append((design.wt_kw, cat.wind.capital_usd_per_kw, cat.wind.replacement_usd_per_kw,
                     cat.wind.om_usd_per_kw_yr, cat.wind.lifetime_years))
    if design.dg_kw > 0:
        rows.append((design.dg_kw, cat.diesel.capital_usd_per_kw, cat.diesel.replacement_usd_per_kw,
                     0.0, cat.diesel.lifetime_years))  # DG O&M accrues per operating hour
    if design.bess_kwh > 0:
        rows.append((design.bess_kwh, cat.battery.capital_usd_per_kwh, cat.battery.replacement_usd_per_kwh,
                     cat.battery.om_usd_per_kwh_yr, cat.battery.lifetime_years))
    if design.converter_kw > 0:
        rows.append((design.converter_kw, cat.converter.capital_usd_per_kw, cat.converter.replacement_usd_per_kw,
                     cat.converter.om_usd_per_kw_yr, cat.converter.lifetime_years))
    return rows


def capital_cost(design: Design, scenario: Scenario) -> float:
    """Year-0 investment for the design's included components."""
    return sum(size * cap for size, cap, _, _, _ in _component_sizes(design, scenario))


def fixed_om_cost(design: Design, scenario: Scenario) -> float:
    """Annual size-based O&M (excludes the diesel per-operating-hour part)."""
    return sum(size * om for size, _, _, om, _ in _component_sizes(design, scenario))


def npc(trace: DispatchTrace, design: Design, scenario: Scenario) -> tuple[float, CostBreakdown]:
    """Net present cost over the project lifetime, with its breakdown.

    Year 0 carries capital; years 1..T carry O&M, fuel, and net grid
    purchases; each component is repurchased when its lifetime expires
    within the project; the remaining-life fraction of the final
    purchase is credited back as salvage at year T.  All cash flows are
    constant-dollar and discounted at the scenario's real rate.
    """
    eco = scenario.economics
    r, T = eco.discount_rate, eco.project_years
    df = lambda t: (1.0 + r) ** -t

    capital = capital_cost(design, scenario)
    om = fixed_om_cost(design, scenario)
    om += (scenario.catalog.diesel.om_usd_per_hr_kw * design.dg_kw * trace.dg_hours
           if design.dg_kw > 0 else 0.0)
    fuel = trace.fuel_l * eco.fuel_price_usd_per_l
    buy = float(trace.grid_import_kw @ scenario.tariff.purchase_series())
    sell = float(trace.grid_export_kw @ scenario.tariff.sellback_series())

    replacement_pw = 0.0
    salvage_pw = 0.0
    for size, _, rep, _, lifetime in _component_sizes(design, scenario):
        year = lifetime
        last_purchase = 0
        while year < T:
            replacement_pw += size * rep * df(year)
            last_purchase = year
            year += lifetime
        remaining = lifetime - (T - last_purchase)
        if remaining > 0:
            salvage_pw += size * rep * (remaining / lifetime) * df(T)

    annuity = sum(df(t) for t in range(1, T + 1))
    recurring = om + fuel + buy - sell
    total = capital + recurring * annuity + replacement_pw - salvage_pw
    breakdown = CostBreakdown(
        capital_usd=capital,
        om_usd_per_yr=om,
        fuel_usd_per_yr=fuel,
        grid_energy_usd_per_yr=buy,
        sellback_usd_per_yr=sell,
        replacement_usd_pw=replacement_pw,
        salvage_usd_pw=salvage_pw,
    )
    return total, breakdown


def crf(rate: float, years: int) -> float:
    """Capital recovery factor; 1/years at zero rate."""
    if rate == 0.0:
        return 1.0 / years
    growth = (1.0 + rate) ** years
    return rate * growth / (growth - 1.0)


def lcoe(npc_usd: float, served_kwh_per_yr: float, rate: float, years: int) -> float:
    """Levelized cost of energy: the NPC annuitized over served energy.

    Infinite when nothing is served.  A rate whose ``(1 + rate) ** years``
    overflows raises :class:`NonFiniteMetricError` naming the rate and years.
    """
    if served_kwh_per_yr <= 0.0:
        return math.inf
    try:
        factor = crf(rate, years)
    except OverflowError:
        raise NonFiniteMetricError(
            f"lcoe_usd_per_kwh overflows: (1 + {rate!r}) ** {years} is beyond a float") from None
    return npc_usd * factor / served_kwh_per_yr


# ----------------------------------------------------------------------
# Reliability, efficiency, emissions
# ----------------------------------------------------------------------

def lpsp(trace: DispatchTrace) -> float:
    """Loss of power supply probability: unmet over total demand, as a
    fraction; zero demand counts as perfectly supplied."""
    total = trace.load_kwh
    if total <= 0.0:
        return 0.0
    return trace.unmet_kwh / total


def reliability(lpsp_fraction: float, reliability_lambda: float) -> float:
    """Map LPSP to a [0, 1] reliability score, ``exp(-lambda * LPSP)``."""
    return math.exp(-reliability_lambda * lpsp_fraction)


def efficiency(trace: DispatchTrace) -> float:
    """System efficiency in percent: served energy over the input net of
    curtailment, conversion and battery losses (by the hourly balance,
    served + exports + battery gain).  Capped at 100, since a battery that
    starts the year full and ends it lower serves a little more than that.
    A year with no net input at all counts as vacuously 100% efficient."""
    denom = trace.renewable_kwh + trace.dg_kwh + trace.import_kwh - trace.loss_kwh
    if denom <= 0.0:
        return 100.0
    return min(100.0 * trace.served_kwh / denom, 100.0)


def co2_delta(trace: DispatchTrace, scenario: Scenario) -> float:
    """Annual avoided CO2 in kg: grid emissions displaced by renewable
    production, minus emissions from diesel fuel and grid imports.

    Positive values mean net avoided emissions.  Renewable production is
    taken at the generation bus, PV after one year of degradation.
    """
    ef_grid = scenario.tariff.emission_kg_per_kwh
    avoided = (trace.pv_kwh * (1.0 - scenario.catalog.pv.degradation_per_yr) + trace.wt_kwh) * ef_grid
    emitted = trace.fuel_l * scenario.economics.dg_emission_kg_per_l + trace.import_kwh * ef_grid
    return avoided - emitted


def evaluate(design: Design, scenario: Scenario, trace: DispatchTrace | None = None) -> MetricVector:
    """Simulate a design and compute its full metric vector.

    Deterministic: identical inputs give bit-identical results.  A
    pre-computed trace of ``design`` on ``scenario`` may be supplied to
    avoid re-simulation; the metrics always cost it afresh.  An objective
    that comes out NaN or infinite raises :class:`NonFiniteMetricError`
    naming it.
    """
    if trace is None:
        trace = simulate_year(scenario, design)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite objective raises below, not warned
        total, costs = npc(trace, design, scenario)
        lpsp_value = lpsp(trace)
        eco = scenario.economics
        metrics = MetricVector(
            npc_usd=total,
            reliability=reliability(lpsp_value, scenario.reliability_lambda),
            efficiency_pct=efficiency(trace),
            co2_kg_per_yr=-co2_delta(trace, scenario),
            lcoe_usd_per_kwh=lcoe(total, trace.served_kwh, eco.discount_rate, eco.project_years),
            capital_usd=costs.capital_usd,
            om_usd_per_yr=costs.om_usd_per_yr,
            lpsp=lpsp_value,
        )
    bad = [f"{name} = {value}" for name, value in zip(OBJECTIVE_SENSES, metrics.objectives())
           if not math.isfinite(value)]
    if bad:
        raise NonFiniteMetricError(f"not finite for {design}: {', '.join(bad)}")
    return metrics


class Evaluator:
    """:func:`evaluate` on one scenario as a callable from a design to its
    metrics, for the searches.

    Each distinct design is simulated once; a repeat returns the stored
    metrics, and no trace is kept.  The battery stage of the last design
    simulated is kept and reused while the next designs share its
    :attr:`~mgdesign.dispatch.Design.battery_key`, so designs fed in key
    order run the battery loop once per key.  ``simulated`` counts the
    designs simulated so far, and ``jobs`` >= 1 caps the processes of :meth:`map`.
    """

    def __init__(self, scenario: Scenario, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.scenario = scenario
        self.jobs = jobs
        self._memo: dict[Design, MetricVector] = {}
        self._stage: BatteryStage | None = None

    @property
    def simulated(self) -> int:
        return len(self._memo)

    def __call__(self, design: Design) -> MetricVector:
        if design not in self._memo:
            if self._stage is None or self._stage.key != design.battery_key:
                self._stage = None  # so only one stage is alive at a time
                self._stage = battery_stage(self.scenario, design)
            trace = simulate_year(self.scenario, design, self._stage)
            self._memo[design] = evaluate(design, self.scenario, trace=trace)
        return self._memo[design]

    def map(self, designs: Iterable[Design]) -> list[MetricVector]:
        """The metrics of each design, in input order.  Only the distinct
        designs not in the memo are simulated, one battery key after
        another; with ``jobs > 1`` and two keys or more, the keys go to
        ``min(jobs, keys)`` processes instead, each with an evaluator built
        from the scenario, in a pool that lives for this call."""
        designs = list(designs)
        groups: dict[tuple, list[Design]] = {}
        for design in dict.fromkeys(designs):
            if design not in self._memo:
                groups.setdefault(design.battery_key, []).append(design)
        workers = min(self.jobs, len(groups))
        if workers <= 1:
            for group in groups.values():
                for design in group:
                    self(design)
        else:
            from concurrent.futures import ProcessPoolExecutor

            chunk = max(1, len(groups) // (4 * workers))
            with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                     initargs=(self.scenario,)) as pool:
                for scored in pool.map(_evaluate_in_worker, groups.values(), chunksize=chunk):
                    self._memo.update(scored)
        return [self._memo[design] for design in designs]


#: The evaluator of a :meth:`Evaluator.map` worker process, built once by
#: the pool initializer from the scenario it is sent.
_worker_evaluator: Evaluator | None = None


def _init_worker(scenario: Scenario) -> None:
    global _worker_evaluator
    _worker_evaluator = Evaluator(scenario)


def _evaluate_in_worker(designs: list[Design]) -> dict[Design, MetricVector]:
    return {design: _worker_evaluator(design) for design in designs}
