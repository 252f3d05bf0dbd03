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
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .dispatch import (BatteryStage, Design, DispatchTrace, battery_stage, charge_cap_kw, discharge_windows,
                       max_delivery_kwh, simulate_year)
from .scenario import Economics, Scenario


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


def _owning_costs(rows: list[tuple[float, float, float, float, int]],
                 economics: Economics) -> tuple[float, float, float, float]:
    """The year-0 capital, the annual size-based O&M, and the present worth
    of the replacements and of the salvage, summed over component rows of
    :func:`_component_sizes`: the cost of owning them, apart from running
    them.

    Each component is repurchased when its lifetime expires within the
    project, and the remaining-life fraction of its final purchase is
    credited back as salvage at year T, both discounted at the real rate.
    """
    r, T = economics.discount_rate, economics.project_years
    df = lambda t: (1.0 + r) ** -t
    capital = om = replacement_pw = salvage_pw = 0.0
    for size, cap, rep, om_rate, lifetime in rows:
        capital += size * cap
        om += size * om_rate
        year = lifetime
        last_purchase = 0
        while year < T:
            replacement_pw += size * rep * df(year)
            last_purchase = year
            year += lifetime
        remaining = lifetime - (T - last_purchase)
        if remaining > 0:
            salvage_pw += size * rep * (remaining / lifetime) * df(T)
    return capital, om, replacement_pw, salvage_pw


def _annuity(economics: Economics) -> float:
    """Present worth of 1 $ a year over years 1..T at the real rate."""
    r, T = economics.discount_rate, economics.project_years
    return sum((1.0 + r) ** -t for t in range(1, T + 1))


def capital_cost(design: Design, scenario: Scenario) -> float:
    """Year-0 investment for the design's included components."""
    return _owning_costs(_component_sizes(design, scenario), scenario.economics)[0]


def fixed_om_cost(design: Design, scenario: Scenario) -> float:
    """Annual size-based O&M (excludes the diesel per-operating-hour part)."""
    return _owning_costs(_component_sizes(design, scenario), scenario.economics)[1]


def npc(trace: DispatchTrace, design: Design, scenario: Scenario) -> tuple[float, CostBreakdown]:
    """Net present cost over the project lifetime, with its breakdown.

    Year 0 carries capital; years 1..T carry O&M, fuel, and net grid
    purchases; replacements and salvage are those of :func:`_owning_costs`.
    All cash flows are constant-dollar and discounted at the scenario's
    real rate.
    """
    eco = scenario.economics
    capital, om, replacement_pw, salvage_pw = _owning_costs(_component_sizes(design, scenario), eco)
    om += (scenario.catalog.diesel.om_usd_per_hr_kw * design.dg_kw * trace.dg_hours
           if design.dg_kw > 0 else 0.0)
    fuel = trace.fuel_l * eco.fuel_price_usd_per_l
    buy = float(trace.grid_import_kw @ scenario.tariff.purchase_series())
    sell = float(trace.grid_export_kw @ scenario.tariff.sellback_series())

    recurring = om + fuel + buy - sell
    total = capital + recurring * _annuity(eco) + replacement_pw - salvage_pw
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


#: Relative slack of :func:`battery_npc_floor` for rounding.
_FLOOR_SLACK = 1e-9


class TwinYear(NamedTuple):
    """What :func:`battery_npc_floor` reads of a simulated battery-less,
    diesel-less design, the twin of the battery designs that differ from
    it only in ``bess_kwh``."""

    npc_usd: float
    #: :func:`~mgdesign.dispatch.discharge_windows` of its stage.
    windows: int
    #: Its hourly curtailment, summed, and the hours that have some.
    curtailed_kwh: float
    curtailed_hours: int

    @classmethod
    def of(cls, npc_usd: float, stage: BatteryStage, trace: DispatchTrace) -> TwinYear:
        curtailed = trace.curtailed_kw
        return cls(npc_usd, discharge_windows(stage), float(curtailed.sum()),
                   int(np.count_nonzero(curtailed > 0.0)))


def battery_npc_floor(twin: TwinYear, bess_kwh: float, scenario: Scenario,
                      max_delivered_kwh: float = math.inf) -> float:
    """A lower bound on the NPC of a design with ``bess_kwh`` > 0 of battery
    and no diesel, from its battery-less twin (the same design with
    ``bess_kwh = 0``).

    ``NPC(d) >= NPC(t) + PW_batt - A * min(p_max * N * W, (p_max -
    s_min / eta_rt)+ * N * W + s_min * (eta_conv * U / sqrt(eta_rt) +
    C))``, where ``A`` is the annuity factor of :func:`npc`, ``PW_batt``
    the battery's capital, O&M times ``A``, replacements and salvage
    (:func:`_owning_costs`), ``p_max`` the highest purchase price,
    ``s_min`` the lowest sellback price (at least 0), ``N`` the twin's
    windows, ``U = (soc_max - soc_min) * bess_kwh`` the usable window,
    ``W = U * eta_conv * sqrt(eta_rt)`` and ``C = min(curtailed_kwh,
    curtailed_hours * eta_conv * x_max)``, with ``x_max`` the
    :func:`~mgdesign.dispatch.charge_cap_kw` of the bank.  Where ``N * W``
    appears, the smaller ``max_delivered_kwh`` replaces it, when given: a
    bound on the energy the bank delivers in the year, such as
    :func:`~mgdesign.dispatch.max_delivery_kwh` of the twin's stage.

    Proof.  Stage 1 of the dispatch does not read the battery, so both
    designs see the same deficit hours, residual load and surpluses before
    the battery, and both have the same components but the battery.
    Without a diesel neither has fuel or diesel O&M, so ``NPC(d) - NPC(t)
    = PW_batt - A * S``, where ``S = (buy_t - buy_d) - (sell_t - sell_d)``
    is the year's saving, and ``S`` is at most either credit.

    * Purchases: a discharge lowers the hour's residual by the power it
      delivers, and ``min(residual, import cap)`` falls by at most as much,
      so ``buy_t - buy_d <= p_max * D``, with ``D`` the energy delivered in
      the year.
    * Delivery: the battery charges only in spare hours, so between two
      charging hours the tank sum never rises (an idle hour moves charge
      between the tanks; a discharge takes the internal power out).  It
      starts at most at ``soc_max * Q`` and never falls below ``soc_min *
      Q``, so the internal energy drawn between two charging hours is at
      most ``U`` and the energy delivered, after the battery and converter
      efficiencies, at most ``W``.  Every hour that can discharge lies in
      one of the ``N`` windows, and no window holds a charging hour, so
      ``D <= N * W``; and ``D <= max_delivered_kwh`` by its definition.
    * Sales: the battery discharges only in deficit hours, which export
      nothing, and charges ``x_h`` kW (DC) in hour ``h`` only from
      surplus: ``p_h`` of PV surplus and ``w_h`` of wind surplus, of which
      it takes ``w_h / eta_conv`` on the AC bus.  The twin exports ``E_t =
      wind + eta_conv * PV surplus - (wind left + eta_conv * PV left) >=
      wind + eta_conv * PV surplus - c_h``, with ``c_h`` its curtailment,
      and the battery design at most what its lowered surpluses hold, so
      ``E_t - E_d >= w_h / eta_conv + eta_conv * p_h - c_h >= eta_conv *
      x_h - c_h``.  Each hour's export is also non-decreasing in the two
      surpluses and the converter room, so ``E_t - E_d >= 0``, and with
      sellback prices >= 0, ``sell_t - sell_d >= s_min * sum(max(0,
      eta_conv * x_h - c_h)) >= s_min * (eta_conv * X - C)``, ``X`` the
      year's charge: ``max(0, eta_conv * x_h - c_h) >= eta_conv * x_h -
      min(max(c_h, 0), eta_conv * x_h)``, and that minimum is 0 outside
      the curtailed hours, at most ``c_h`` and at most ``eta_conv *
      x_max``, so the minima sum to at most ``C``.  The tank sum takes
      ``sqrt(eta_rt) * X`` in and ``D / (eta_conv * sqrt(eta_rt))`` out
      over the year and ends no more than ``U`` below its start, so
      ``eta_conv * X >= D / eta_rt - eta_conv * U / sqrt(eta_rt)``.
      Together, ``S <= (p_max - s_min / eta_rt) * D + s_min * (eta_conv *
      U / sqrt(eta_rt) + C)``, at most the second credit for any ``D`` in
      its range.  The first credit drops the sales term, which is never
      negative.

    The slack, :data:`_FLOOR_SLACK` of the magnitudes summed, covers the
    rounding: the two NPCs are sums of a few terms and of 8760-term dot
    products, each good to about 1e-13 of the largest, the tank sum drifts
    by about 1e-12 of ``Q`` in a year, a deficit hour that the battery
    brings down to the 1e-12 kW threshold imports nothing, and a surplus
    or a curtailment may be an ulp below zero.
    """
    eco = scenario.economics
    spec = scenario.catalog.battery
    capital, om, replacement_pw, salvage_pw = _owning_costs(
        _component_sizes(Design(bess_kwh=bess_kwh), scenario), eco)
    annuity = _annuity(eco)
    battery_pw = capital + om * annuity + replacement_pw - salvage_pw
    eta, sq_eta = scenario.catalog.converter.efficiency, math.sqrt(spec.roundtrip_efficiency)
    usable = (spec.soc_max - spec.soc_min) * bess_kwh
    delivered = min(twin.windows * usable * eta * sq_eta, max_delivered_kwh)
    p_max = float(scenario.tariff.purchase_series().max())
    s_min = max(float(scenario.tariff.sellback_series().min()), 0.0)
    free = min(twin.curtailed_kwh, twin.curtailed_hours * eta * charge_cap_kw(bess_kwh, scenario.catalog))
    credit = annuity * min(p_max * delivered,
                           max(p_max - s_min / spec.roundtrip_efficiency, 0.0) * delivered
                           + s_min * (eta * usable / sq_eta + free))
    return twin.npc_usd + battery_pw - credit - _FLOOR_SLACK * (abs(twin.npc_usd) + abs(battery_pw) + credit)


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
    metrics, and no trace is kept.  Its simulations take their battery
    stages from :func:`~mgdesign.dispatch.battery_stage`, which keeps the
    scenario's last stage with a battery and its last without, so designs
    fed in :attr:`~mgdesign.dispatch.Design.battery_key` order run the
    battery loop once per key, and a diesel probe from a battery incumbent
    reuses the incumbent's stage after battery-less twins were simulated in
    between.  ``simulated`` counts the designs simulated so far, and
    ``jobs`` >= 1 caps the processes of :meth:`map`.

    For each battery-less, diesel-less design it simulates, the evaluator
    also keeps its :class:`TwinYear`, so that :meth:`npc_floor` can bound
    the NPC of a battery design from its battery-less twin without
    simulating it.  :meth:`npc` answers with that floor when it is at
    least a given ceiling, and ``ruled_out`` counts the designs so
    answered and not simulated.  To get that floor, :meth:`npc` simulates
    a missing twin, which runs no battery loop; ``twins`` counts the
    designs simulated so and not asked for since.
    """

    def __init__(self, scenario: Scenario, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.scenario = scenario
        self.jobs = jobs
        self._memo: dict[Design, MetricVector] = {}
        self._ruled_out: set[Design] = set()
        self._twins: set[Design] = set()
        self._twin_years: dict[Design, TwinYear] = {}

    @property
    def simulated(self) -> int:
        return len(self._memo)

    @property
    def ruled_out(self) -> int:
        return len(self._ruled_out)

    @property
    def twins(self) -> int:
        return len(self._twins)

    def __call__(self, design: Design) -> MetricVector:
        self._twins.discard(design)
        if design not in self._memo:
            self._simulate(design)
        return self._memo[design]

    def _simulate(self, design: Design) -> None:
        trace = simulate_year(self.scenario, design)
        self._memo[design] = evaluate(design, self.scenario, trace=trace)
        self._ruled_out.discard(design)
        if not design.bess_kwh and not design.dg_kw:
            self._twin_years[design] = TwinYear.of(self._memo[design].npc_usd,
                                                   battery_stage(self.scenario, design), trace)

    def npc_floor(self, design: Design) -> float:
        """The :func:`battery_npc_floor` of a design with a battery and no
        diesel whose battery-less twin this evaluator has simulated itself
        (not in a :meth:`map` worker); ``-inf`` for any other design."""
        if design.dg_kw or not design.bess_kwh:
            return -math.inf
        return self._floor(design, replace(design, bess_kwh=0.0))

    def _floor(self, design: Design, twin: Design, max_delivered_kwh: float = math.inf) -> float:
        year = self._twin_years.get(twin)
        return (-math.inf if year is None
                else battery_npc_floor(year, design.bess_kwh, self.scenario, max_delivered_kwh))

    def npc(self, design: Design, ceiling: float) -> float:
        """The design's NPC, or, when the design is not in the memo and its
        finite :meth:`npc_floor` is at least ``ceiling``, that floor,
        without simulating it.  ``ruled_out`` counts each design answered
        by its floor once, and drops it if it is simulated later, so that
        a search's requests are the designs simulated, those ruled out, and
        the repeats.

        Below a finite ceiling, a design with a battery and no diesel whose
        twin is not in the memo has the twin simulated first (and counted
        in ``twins``): its year runs no battery loop, so it costs a small
        part of the design's.  Where that floor falls short of the ceiling
        but one that credits no delivery would not, the twin's stage also
        gives :func:`~mgdesign.dispatch.max_delivery_kwh` for a tighter
        floor.

        A search that accepts only a design scoring below ``ceiling`` makes
        the same choices either way, as the NPC is at least the floor.
        """
        self._twins.discard(design)
        if design not in self._memo and ceiling < math.inf and design.bess_kwh and not design.dg_kw:
            twin = replace(design, bess_kwh=0.0)
            if twin not in self._memo:
                try:
                    self._simulate(twin)
                    self._twins.add(twin)
                except NonFiniteMetricError:   # no floor from it; the design may still be finite
                    pass
            floor = self._floor(design, twin)
            if floor < ceiling <= self._floor(design, twin, 0.0):   # a delivery bound can close the gap
                bound = max_delivery_kwh(battery_stage(self.scenario, twin), design.bess_kwh,
                                         self.scenario.catalog)
                floor = self._floor(design, twin, bound)
            if ceiling <= floor < math.inf:
                self._ruled_out.add(design)
                return floor
        return self(design).npc_usd

    def map(self, designs: Iterable[Design]) -> list[MetricVector]:
        """The metrics of each design, in input order.  Only the distinct
        designs not in the memo are simulated, one battery key after
        another; with ``jobs > 1`` and two keys or more, the keys go to
        ``min(jobs, keys)`` processes instead, each with an evaluator built
        from the scenario, in a pool that lives for this call."""
        designs = list(designs)
        self._twins.difference_update(designs)
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
