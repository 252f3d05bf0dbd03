"""Independent numerical oracles used by the tests.

These deliberately avoid the closed-form expressions in the package: the
battery oracle integrates the raw two-tank dynamics with fine Euler
steps, and the Pareto oracle is a literal O(n^2) double loop over the
dominance definition.  The PV and wind references are the scalar
one-hour forms of the resource laws, and the kinetic-battery references
the scalar closed forms of one hour's step.  The dispatch, CSV,
Pareto and series-file references are the plain per-hour, per-row and
per-cell loops, the search references the loops that call their
evaluator on every request, and the scenario-variant references the
hand-written ``replace`` per series and per swept parameter, that the
package's shorter or faster code must reproduce exactly;
:func:`reference_grid_stage_hours` is the grid stage written with
comparisons and masked writes.  :func:`kernel_battery_hour` and
:func:`step_hour` drive the package's own dispatch stages on one-hour
arrays.  :func:`scenario_snapshot` reads a scenario as plain values,
so that a test can tell whether anything changed it.
"""

from __future__ import annotations

import csv
import importlib.util
import math
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from mgdesign.components import pv_series, wt_series
from mgdesign.dispatch import (
    FLOW_FIELDS,
    Design,
    DispatchTrace,
    _battery_params,
    _battery_stage_hours,
    _grid_params,
    _grid_stage_hours,
)
from mgdesign.metrics import COST_FIELDS, METRIC_FIELDS, MetricVector, capital_cost, evaluate, fixed_om_cost
from mgdesign.optimize import (
    DEFAULT_STEPS,
    DESIGN_FIELDS,
    DegenerateBoundsError,
    EvaluatedDesign,
    PolicySearchResult,
    RefineResult,
    _BASELINE_DECAY,
    _softmax,
    default_weight_cycle,
)
from mgdesign.scenario import (
    HOURS_PER_YEAR,
    Catalog,
    GridTariff,
    LengthMismatchError,
    PVSpec,
    Scenario,
    ScenarioValidationError,
    TimeSeries,
    TimeSeriesParseError,
    WindTurbineSpec,
)
from mgdesign.sensitivity import SweepParameter


def integrate_tanks(q1, q2, power, k: float, c: float, dt: float, step: float = 1e-3):
    """Euler-integrate dq1/dt = flow - power, dq2/dt = -flow with
    flow = k*(c*q2 - (1-c)*q1); accepts scalars or arrays."""
    q1 = np.asarray(q1, dtype=float).copy()
    q2 = np.asarray(q2, dtype=float).copy()
    steps = int(round(dt / step))
    for _ in range(steps):
        flow = k * (c * q2 - (1.0 - c) * q1)
        q1 += step * (flow - power)
        q2 += step * (-flow)
    return q1, q2


def ode_max_discharge(q1, q2, k: float, c: float, dt: float = 1.0, step: float = 1e-3):
    """Largest constant power with q1 >= 0 at the end of the interval.

    q1(dt) is affine in the power, so two integrations pin the line and
    the root is exact up to the integrator's own error.
    """
    a, _ = integrate_tanks(q1, q2, 0.0, k, c, dt, step)
    b, _ = integrate_tanks(q1, q2, 1.0, k, c, dt, step)
    slope = a - b  # q1 drop per unit power
    return a / slope


def ode_max_charge(q1, q2, q_max, k: float, c: float, dt: float = 1.0, step: float = 1e-3):
    """Largest constant charging power with q1 <= c*q_max at the end."""
    a, _ = integrate_tanks(q1, q2, 0.0, k, c, dt, step)
    b, _ = integrate_tanks(q1, q2, -1.0, k, c, dt, step)
    slope = b - a  # q1 rise per unit charging power
    return (c * np.asarray(q_max, dtype=float) - a) / slope


def equilibrium_tanks(q_max: float, soc: float, c: float) -> tuple[float, float]:
    """Tanks ``(q1, q2)`` of a battery of ``q_max`` kWh at ``soc``, split in
    the equilibrium ratio ``c : (1 - c)``, as ``dispatch.battery_stage``
    starts a year at ``soc_max``."""
    stored = q_max * soc
    return c * stored, (1.0 - c) * stored


def kernel_battery_hour(q1: float, q2: float, q_max: float, power_kw: float, k: float = 1.0,
                        c: float = 0.5, roundtrip_efficiency: float = 0.90,
                        soc_min: float = 0.2, soc_max: float = 0.8) -> tuple[float, float, float]:
    """One hour of the dispatch kernel's battery at terminal power
    ``power_kw`` (positive charges, negative discharges).  Returns the
    terminal power it ran (charge minus discharge) and the new tanks.

    The hour is a PV surplus of ``power_kw`` or a load of ``-power_kw``
    through a lossless, unlimited converter, so the kernel runs exactly
    the requested power up to its kinetic bound: ``power_kw = +1e12``
    gives the charge bound and ``-1e12`` the discharge bound.
    """
    floor = soc_min * q_max
    _, (charge, discharge, _), q1, q2 = _battery_stage_hours(
        np.array([max(-power_kw, 0.0)]), np.array([max(power_kw, 0.0)]), np.zeros(1), q1, q2,
        conv_kw=math.inf, eta=1.0, q_max=q_max, k=k, c=c, sq_eta=math.sqrt(roundtrip_efficiency),
        floor_q1=c * floor, floor_q2=(1.0 - c) * floor, q_max_eff=(soc_max - soc_min) * q_max)
    return float(charge[0] - discharge[0]), q1, q2


# ----------------------------------------------------------------------
# Kinetic battery closed forms (Manwell & McGowan 1993), one-hour step
# ----------------------------------------------------------------------

def kinetic_discharge_bound(q1: float, q2: float, k: float, c: float) -> float:
    """Maximum constant power (kW) the tanks can deliver over an hour: the
    power that empties the available tank exactly at the end of it."""
    r = math.exp(-k)
    denom = 1.0 - r + c * (k - 1.0 + r)
    bound = (k * q1 * r + (q1 + q2) * k * c * (1.0 - r)) / denom
    return max(bound, 0.0)


def kinetic_charge_bound(q1: float, q2: float, q_max: float, k: float, c: float) -> float:
    """Maximum constant power (kW) the tanks can absorb over an hour: the
    power that fills the available tank (capacity ``c * q_max``) exactly."""
    r = math.exp(-k)
    denom = 1.0 - r + c * (k - 1.0 + r)
    bound = (k * c * q_max - k * q1 * r - (q1 + q2) * k * c * (1.0 - r)) / denom
    return max(bound, 0.0)


def kinetic_step(q1: float, q2: float, internal_kw: float, k: float, c: float) -> tuple[float, float]:
    """Advance the tanks one hour at constant internal power (positive
    discharges): the exact solution of the linear dynamics."""
    r = math.exp(-k)
    q0 = q1 + q2
    i = internal_kw
    a = k - 1.0 + r
    new_q1 = q1 * r + ((q0 * k * c - i) * (1.0 - r) - i * c * a) / k
    new_q2 = q2 * r + q0 * (1.0 - c) * (1.0 - r) - i * (1.0 - c) * a / k
    return new_q1, new_q2


def brute_force_pareto_mask(points: list[MetricVector]) -> np.ndarray:
    """Literal pairwise dominance filter (lower npc/co2, higher
    reliability/efficiency better)."""
    n = len(points)
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        pi = points[i]
        for j in range(n):
            if i == j:
                continue
            pj = points[j]
            at_least_as_good = (
                pj.npc_usd <= pi.npc_usd
                and pj.reliability >= pi.reliability
                and pj.efficiency_pct >= pi.efficiency_pct
                and pj.co2_kg_per_yr <= pi.co2_kg_per_yr
            )
            strictly_better = (
                pj.npc_usd < pi.npc_usd
                or pj.reliability > pi.reliability
                or pj.efficiency_pct > pi.efficiency_pct
                or pj.co2_kg_per_yr < pi.co2_kg_per_yr
            )
            if at_least_as_good and strictly_better:
                keep[i] = False
                break
    return keep


def brute_force_pareto_ranks(points: list[MetricVector]) -> np.ndarray:
    """Front index per point by peeling: front 0 is the brute-force
    non-dominated set, front k the one left after removing fronts 0..k-1."""
    ranks = np.full(len(points), -1, dtype=int)
    remaining = list(range(len(points)))
    front = 0
    while remaining:
        mask = brute_force_pareto_mask([points[i] for i in remaining])
        for i, keep in zip(remaining, mask):
            if keep:
                ranks[i] = front
        remaining = [i for i, keep in zip(remaining, mask) if not keep]
        front += 1
    return ranks


def reference_minimization_matrix(points) -> np.ndarray:
    """Objectives as an (n, 4) matrix where lower is uniformly better,
    with the maximized columns flipped by hand."""
    m = np.array(points if isinstance(points, np.ndarray) else [p.objectives() for p in points],
                 dtype=float)
    m[:, 1] *= -1.0  # reliability: higher is better
    m[:, 2] *= -1.0  # efficiency: higher is better
    return m


def _reference_lexsorted(points):
    """The rows without NaN in lexicographic order of the minimization
    matrix: ``(order, sorted_rows, starts)``, where ``starts[k]`` marks the
    first row of each run of equal rows."""
    m = reference_minimization_matrix(points)
    rows = np.flatnonzero(~np.isnan(m).any(axis=1))
    order = rows[np.lexsort(m[rows].T[::-1])]
    s = m[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (s[1:] != s[:-1]).any(axis=1)
    return order, s, starts


def reference_pareto_mask(points) -> np.ndarray:
    """Sort-based maxima filter, one distinct row per step: keep a row
    unless a row already kept is no worse in objectives 1..3."""
    keep = np.ones(len(points), dtype=bool)
    if len(points) == 0:
        return keep
    order, s, starts = _reference_lexsorted(points)
    front = np.empty((3, len(order)))
    size = 0
    dominated = False
    for index, row, start in zip(order.tolist(), s.tolist(), starts.tolist()):
        if start:
            _, x1, x2, x3 = row
            dominated = bool(((front[0, :size] <= x1) & (front[1, :size] <= x2)
                              & (front[2, :size] <= x3)).any())
            if not dominated:
                front[:, size] = (x1, x2, x3)
                size += 1
        keep[index] = not dominated
    return keep


def reference_pareto_ranks(points) -> np.ndarray:
    """One forward pass over the lexicographic order, one distinct row per
    step: a row's rank is one more than the highest rank among the rows
    before it that are no worse in objectives 1..3."""
    ranks = np.zeros(len(points), dtype=int)
    if len(points) == 0:
        return ranks
    order, s, starts = _reference_lexsorted(points)
    c1, c2, c3 = (np.ascontiguousarray(s[:, k]) for k in (1, 2, 3))
    sorted_ranks = np.zeros(len(order), dtype=int)
    rank = 0
    for pos, (row, start) in enumerate(zip(s.tolist(), starts.tolist())):
        if start:
            _, x1, x2, x3 = row
            dominators = (c1[:pos] <= x1) & (c2[:pos] <= x2) & (c3[:pos] <= x3)
            rank = int(sorted_ranks[:pos].max(initial=-1, where=dominators)) + 1
        sorted_ranks[pos] = rank
    ranks[order] = sorted_ranks
    return ranks


def _reference_term(value: float, bounds: tuple[float, float], maximize: bool) -> float:
    """Normalized minimization term in [0, 1]; an all-equal metric across
    the pool contributes nothing."""
    lo, hi = bounds
    if hi < lo:
        raise DegenerateBoundsError(f"bounds {bounds} have min > max")
    if hi == lo:
        return 0.0
    n = (value - lo) / (hi - lo)
    return 1.0 - n if maximize else n


def reference_scalarize(m: MetricVector, weights, bounds) -> float:
    """Weighted scalar score with one hand-written term per objective:
    cost and CO2 minimized, reliability and efficiency maximized."""
    npc, reliability, efficiency, co2 = zip(bounds.lo, bounds.hi)
    terms = (
        _reference_term(m.npc_usd, npc, maximize=False),
        _reference_term(m.reliability, reliability, maximize=True),
        _reference_term(m.efficiency_pct, efficiency, maximize=True),
        _reference_term(m.co2_kg_per_yr, co2, maximize=False),
    )
    w = weights.as_tuple()
    return sum(wi * ti for wi, ti in zip(w, terms))


def layered_archive(seed: int, rows: int, fronts: int) -> tuple[list[MetricVector], np.ndarray]:
    """Shuffled points whose front ranks are known by construction, and
    those ranks.

    Front k holds integer vectors with a fixed sum S, shifted by k * S on
    every axis (lower is better): equal sums keep a front mutually
    non-dominated, the shift makes every point of front k - 1 dominate
    every point of front k.  Small integers give single-objective ties,
    about one row in twenty repeats an earlier row of its front, and the
    objectives map through strictly increasing or decreasing affine
    functions, which keep every dominance relation.
    """
    rng = np.random.default_rng([seed, 7])
    span = 40
    units: list[np.ndarray] = []
    ranks: list[int] = []
    for k in range(fronts):
        front: list[np.ndarray] = []
        for _ in range(rows // fronts + (1 if k < rows % fronts else 0)):
            if front and rng.random() < 0.05:
                front.append(front[int(rng.integers(len(front)))])
            else:
                front.append(rng.multinomial(span, rng.dirichlet([0.7] * 4)) + k * span)
        units += front
        ranks += [k] * len(front)
    order = rng.permutation(len(units))
    points = [
        MetricVector(
            npc_usd=2.5e6 + 1500.0 * float(u[0]), reliability=1.0 - 2e-4 * float(u[1]),
            efficiency_pct=95.0 - 0.03 * float(u[2]), co2_kg_per_yr=-6.0e4 + 100.0 * float(u[3]),
            lcoe_usd_per_kwh=0.0, capital_usd=0.0, om_usd_per_yr=0.0, lpsp=0.0)
        for u in (units[i] for i in order)
    ]
    return points, np.asarray(ranks)[order]


def toy_two_action_space():
    """One live axis with two choices; everything else fixed at zero."""
    from mgdesign.optimize import Range, SearchSpace

    return SearchSpace(
        pv_kw=Range(0.0, 100.0, 100.0),
        wt_kw=Range.fixed(0.0), dg_kw=Range.fixed(0.0),
        bess_kwh=Range.fixed(0.0), converter_kw=Range.fixed(0.0))


def toy_two_action_eval(design) -> MetricVector:
    """Stub evaluator where the pv=100 action dominates pv=0 in all four
    objectives."""
    good = design.pv_kw > 0.0
    return MetricVector(
        npc_usd=1e6 if good else 2e6,
        reliability=1.0 if good else 0.8,
        efficiency_pct=95.0 if good else 60.0,
        co2_kg_per_yr=-1000.0 if good else 5000.0,
        lcoe_usd_per_kwh=0.0, capital_usd=0.0, om_usd_per_yr=0.0, lpsp=0.0)


def random_metric_vectors(seed: int, n: int, distinct_levels: int | None = None) -> list[MetricVector]:
    """Random 4-objective points; ``distinct_levels`` quantizes values to
    force ties and duplicates."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.0, 1.0, size=(n, 4))
    if distinct_levels:
        raw = np.round(raw * distinct_levels) / distinct_levels
    return [
        MetricVector(
            npc_usd=4e6 + 2e6 * row[0], reliability=row[1], efficiency_pct=100.0 * row[2],
            co2_kg_per_yr=1e6 * (row[3] - 0.5), lcoe_usd_per_kwh=0.0, capital_usd=0.0,
            om_usd_per_yr=0.0, lpsp=0.0)
        for row in raw
    ]


# ----------------------------------------------------------------------
# Reference resource models
# ----------------------------------------------------------------------

def pv_output(spec: PVSpec, capacity_kw: float, irradiance_kw_m2: float,
              cell_temp_c: float = 25.0) -> float:
    """PV output in kW for one hour: nameplate times derating, irradiance
    over the 1 kW/m2 standard and a linear correction around 25 degC,
    clamped at zero."""
    if irradiance_kw_m2 <= 0.0 or capacity_kw <= 0.0:
        return 0.0
    power = (capacity_kw * spec.derating * (irradiance_kw_m2 / 1.0)
             * (1.0 + spec.temp_coeff_per_c * (cell_temp_c - 25.0)))
    return max(power, 0.0)


def hub_wind_speed(u_anemometer_ms: float, anemometer_height_m: float,
                   hub_height_m: float, shear_exponent: float) -> float:
    """Power-law extrapolation of the anemometer speed to hub height."""
    if u_anemometer_ms <= 0.0:
        return 0.0
    return u_anemometer_ms * (hub_height_m / anemometer_height_m) ** shear_exponent


def wt_output(spec: WindTurbineSpec, capacity_kw: float, u_hub_ms: float) -> float:
    """Wind fleet output in kW at hub speed ``u_hub_ms``: zero outside
    cut-in..cut-out, the normalized curve up to rated speed, nameplate
    above it, and never more than the swept-area aerodynamic limit."""
    if capacity_kw <= 0.0 or u_hub_ms < spec.cut_in_ms or u_hub_ms > spec.cut_out_ms:
        return 0.0
    e = spec.curve_exponent
    if u_hub_ms >= spec.rated_ms:
        fraction = 1.0
    else:
        fraction = ((u_hub_ms**e - spec.cut_in_ms**e)
                    / (spec.rated_ms**e - spec.cut_in_ms**e))
    swept_area_m2 = spec.swept_area_m2_per_unit * (capacity_kw / spec.nominal_kw)
    aero_limit_kw = 0.5 * 1.225 * swept_area_m2 * u_hub_ms**3 * spec.power_coefficient / 1000.0
    return min(capacity_kw * fraction, aero_limit_kw, capacity_kw)


# ----------------------------------------------------------------------
# Reference dispatch and trace export
# ----------------------------------------------------------------------

def _dispatch_hour(
    load: float, pv: float, wt: float, q1: float, q2: float,
    conv_kw: float, eta: float,
    bess_on: bool, k: float, c: float, sq_eta: float,
    floor_q1: float, floor_q2: float, q_max_eff: float,
    import_cap: float, export_cap: float,
    dg_kw: float, dg_min: float, dg_alpha: float, dg_beta: float,
) -> tuple:
    """Route one hour of power.  Returns the updated tanks and flows.

    Pure float arithmetic calling the kinetic-battery closed forms above;
    the reference that the dispatch kernel must match bit for bit.
    """
    conv_used = 0.0   # converter output-side throughput this hour
    conv_loss = 0.0

    # Wind serves load directly on the AC bus.
    wt_to_load = wt if wt < load else load
    residual = load - wt_to_load
    wt_surplus = wt - wt_to_load

    # PV serves the remaining load through the converter.
    pv_surplus = pv
    if residual > 0.0 and pv > 0.0 and conv_kw > 0.0:
        deliverable = pv * eta
        if deliverable > conv_kw:
            deliverable = conv_kw
        if deliverable > residual:
            deliverable = residual
        if deliverable > 0.0:
            used_dc = deliverable / eta
            pv_surplus = pv - used_dc
            conv_used = deliverable
            conv_loss += used_dc - deliverable
            residual -= deliverable

    charge = 0.0
    discharge = 0.0
    grid_import = 0.0
    grid_export = 0.0
    dg_out = 0.0
    fuel = 0.0
    curtailed = 0.0

    if residual > 1e-12:
        # Deficit: battery, then grid, then diesel, then unmet.
        if bess_on:
            internal = kinetic_discharge_bound(
                max(q1 - floor_q1, 0.0), max(q2 - floor_q2, 0.0), k, c)
            deliverable = internal * sq_eta * eta
            room = conv_kw - conv_used
            if deliverable > room:
                deliverable = room
            if deliverable > residual:
                deliverable = residual
            if deliverable > 0.0:
                discharge = deliverable / eta
                conv_used += deliverable
                conv_loss += discharge - deliverable
                residual -= deliverable
        if residual > 1e-12 and import_cap > 0.0:
            grid_import = residual if residual < import_cap else import_cap
            residual -= grid_import
        if residual > 1e-12 and dg_kw > 0.0 and residual >= dg_min * dg_kw:
            dg_out = residual if residual < dg_kw else dg_kw
            fuel = dg_alpha * dg_kw + dg_beta * dg_out
            residual -= dg_out
        unmet = residual if residual > 0.0 else 0.0
        # A converter-saturated hour can leave PV surplus even in deficit;
        # it can still charge the battery DC-direct (discharge is zero then,
        # because discharge also needed converter room).
        if pv_surplus > 0.0:
            if bess_on and discharge == 0.0:
                internal = kinetic_charge_bound(
                    max(q1 - floor_q1, 0.0), max(q2 - floor_q2, 0.0), q_max_eff, k, c)
                bound = internal / sq_eta
                charge = pv_surplus if pv_surplus < bound else bound
                pv_surplus -= charge
            curtailed += pv_surplus
            pv_surplus = 0.0
    else:
        unmet = 0.0
        # Surplus: charge (PV DC-direct first, wind via converter), then
        # export (wind AC-direct first, PV via converter), then curtail.
        if bess_on and (pv_surplus > 0.0 or wt_surplus > 0.0):
            internal = kinetic_charge_bound(
                max(q1 - floor_q1, 0.0), max(q2 - floor_q2, 0.0), q_max_eff, k, c)
            bound = internal / sq_eta
            charge = pv_surplus if pv_surplus < bound else bound
            pv_surplus -= charge
            if wt_surplus > 0.0 and charge < bound and conv_kw > conv_used:
                dc_possible = wt_surplus * eta
                room = conv_kw - conv_used
                if dc_possible > room:
                    dc_possible = room
                if dc_possible > bound - charge:
                    dc_possible = bound - charge
                if dc_possible > 0.0:
                    ac_used = dc_possible / eta
                    wt_surplus -= ac_used
                    conv_used += dc_possible
                    conv_loss += ac_used - dc_possible
                    charge += dc_possible
        if export_cap > 0.0 and (wt_surplus > 0.0 or pv_surplus > 0.0):
            grid_export = wt_surplus if wt_surplus < export_cap else export_cap
            wt_surplus -= grid_export
            room = conv_kw - conv_used
            if pv_surplus > 0.0 and room > 0.0 and grid_export < export_cap:
                ac_possible = pv_surplus * eta
                if ac_possible > room:
                    ac_possible = room
                if ac_possible > export_cap - grid_export:
                    ac_possible = export_cap - grid_export
                if ac_possible > 0.0:
                    dc_used = ac_possible / eta
                    pv_surplus -= dc_used
                    conv_used += ac_possible
                    conv_loss += dc_used - ac_possible
                    grid_export += ac_possible
        curtailed = pv_surplus + wt_surplus

    if bess_on:
        internal_current = discharge / sq_eta - charge * sq_eta
        q1, q2 = kinetic_step(q1, q2, internal_current, k, c)

    return (q1, q2, dg_out, charge, discharge, grid_import, grid_export,
            unmet, curtailed, fuel, conv_loss)


def _reference_params(design: Design, tariff: GridTariff, catalog: Catalog, q_max: float) -> tuple:
    """The arguments of :func:`_dispatch_hour` after the series and tanks."""
    spec = catalog.battery
    floor = spec.soc_min * q_max
    grid_cap = design.grid_cap_kw if design.grid_cap_kw is not None else math.inf
    dg = catalog.diesel
    return (
        design.converter_kw, catalog.converter.efficiency,
        q_max > 0.0, spec.rate_constant_per_hr, spec.capacity_ratio,
        math.sqrt(spec.roundtrip_efficiency),
        spec.capacity_ratio * floor, (1.0 - spec.capacity_ratio) * floor,
        (spec.soc_max - spec.soc_min) * q_max,
        min(grid_cap, tariff.max_import_kw), min(grid_cap, tariff.max_export_kw),
        design.dg_kw, dg.min_load_ratio, dg.fuel_intercept_l_per_hr_kw, dg.fuel_slope_l_per_hr_kw,
    )


def step_hour(q1: float, q2: float, load: float, pv: float, wt: float, design: Design,
              tariff: GridTariff, catalog: Catalog) -> tuple[dict[str, float], float, float]:
    """Dispatch one hour from tanks ``q1``/``q2`` through the kernel's
    stages on one-hour arrays.  Returns ``(flows, q1, q2)`` with every
    :data:`FLOW_FIELDS` column; threading it through a year reproduces
    ``simulate_year`` bit for bit."""
    grid_inputs, (charge, discharge, _), q1, q2 = _battery_stage_hours(
        np.array([load]), np.array([pv]), np.array([wt]), q1, q2,
        **_battery_params(design.converter_kw, catalog, design.bess_kwh))
    flows = _grid_stage_hours(*grid_inputs, **_grid_params(design, tariff, catalog))
    flows.update(batt_charge_kw=charge, batt_discharge_kw=discharge)
    return {"pv_kw": pv, "wt_kw": wt, **{name: float(flows[name][0]) for name in FLOW_FIELDS[2:]}}, q1, q2


def reference_step_hour(q1: float, q2: float, load: float, pv: float, wt: float, design: Design,
                        tariff: GridTariff, catalog: Catalog):
    """One hour through :func:`_dispatch_hour` from tanks ``q1``/``q2``.
    Returns ``(flows, q1, q2)`` with the flows keyed like
    :func:`reference_dispatch_year`'s."""
    q1, q2, *flows = _dispatch_hour(load, pv, wt, q1, q2,
                                    *_reference_params(design, tariff, catalog, design.bess_kwh))
    return dict(zip(FLOW_FIELDS[2:], flows)), q1, q2


def reference_dispatch_year(scenario: Scenario, design: Design):
    """Dispatch a year with :func:`_dispatch_hour`, indexing the NumPy
    series hour by hour.

    Returns ``(flows, soc, q1, q2)``: the flow columns keyed by their
    :data:`FLOW_FIELDS` name from ``dg_kw`` on, the end-of-hour SOC and
    the final tanks.
    """
    load = scenario.load.values
    pv_avail = pv_series(scenario, design.pv_kw)
    wt_avail = wt_series(scenario, design.wt_kw)
    spec = scenario.catalog.battery
    q_max = design.bess_kwh
    params = _reference_params(design, scenario.tariff, scenario.catalog, q_max)
    q1, q2 = equilibrium_tanks(q_max, spec.soc_max, spec.capacity_ratio)
    cols: list[list[float]] = [[] for _ in range(9)]
    soc = np.empty(len(load))
    for h in range(len(load)):
        q1, q2, *flows = _dispatch_hour(load[h], pv_avail[h], wt_avail[h], q1, q2, *params)
        for col, value in zip(cols, flows):
            col.append(value)
        soc[h] = (q1 + q2) / q_max if q_max > 0.0 else 0.0
    return dict(zip(FLOW_FIELDS[2:], map(np.array, cols))), soc, q1, q2


def reference_battery_hours(
    deficit: np.ndarray, residual: np.ndarray, pv_surplus: np.ndarray, wt_surplus: np.ndarray,
    conv_used: np.ndarray, loss: np.ndarray, charge: np.ndarray, discharge: np.ndarray,
    soc: np.ndarray, q1: float, q2: float,
    conv_kw: float, eta: float, q_max: float, k: float, c: float, sq_eta: float,
    floor_q1: float, floor_q2: float, q_max_eff: float,
) -> tuple[float, float]:
    """Stage 2: charge and discharge the battery hour by hour and step its
    tanks; returns the final ``q1, q2``.

    Deficit hours discharge first; when nothing was discharged, PV surplus
    left by a saturated converter charges DC-direct.  Surplus hours charge
    from PV DC-direct, then from wind through the converter room left.
    Updates the stage arrays in place, through memoryviews that read and
    write Python floats.  The kinetic-battery closed forms above are
    inlined at dt = 1 h with their per-call constants hoisted and every
    remaining expression in their operation order.
    """
    r = math.exp(-k)
    one_r = 1.0 - r
    a = k - 1.0 + r
    denom = one_r + c * a
    one_c = 1.0 - c
    k_c_qmax = k * c * q_max_eff
    res_v, ps_v, ws_v, cu_v, loss_v, chg_v, dis_v, soc_v = map(
        memoryview, (residual, pv_surplus, wt_surplus, conv_used, loss, charge, discharge, soc))

    for h, short, ps, ws in zip(range(len(soc)), deficit.tolist(), ps_v, ws_v):
        dis = 0.0
        chg = 0.0
        e1 = q1 - floor_q1
        if e1 < 0.0:
            e1 = 0.0
        e2 = q2 - floor_q2
        if e2 < 0.0:
            e2 = 0.0
        if short:
            internal = (k * e1 * r + (e1 + e2) * k * c * one_r) / denom
            if internal < 0.0:
                internal = 0.0
            deliverable = internal * sq_eta * eta
            room = conv_kw - cu_v[h]
            if deliverable > room:
                deliverable = room
            res = res_v[h]
            if deliverable > res:
                deliverable = res
            if deliverable > 0.0:
                dis = deliverable / eta
                cu_v[h] += deliverable
                loss_v[h] += dis - deliverable
                res_v[h] = res - deliverable
                dis_v[h] = dis
        # Charge when nothing was discharged.  A deficit hour has no wind
        # surplus (+0.0), so there only PV left by a saturated converter
        # charges.
        if dis == 0.0 and (ps > 0.0 or ws > 0.0):
            internal = (k_c_qmax - k * e1 * r - (e1 + e2) * k * c * one_r) / denom
            if internal < 0.0:
                internal = 0.0
            bound = internal / sq_eta
            chg = ps if ps < bound else bound
            ps_v[h] = ps - chg
            cu = cu_v[h]
            if ws > 0.0 and chg < bound and conv_kw > cu:
                dc_possible = ws * eta
                room = conv_kw - cu
                if dc_possible > room:
                    dc_possible = room
                if dc_possible > bound - chg:
                    dc_possible = bound - chg
                if dc_possible > 0.0:
                    ac_used = dc_possible / eta
                    ws_v[h] = ws - ac_used
                    cu_v[h] = cu + dc_possible
                    loss_v[h] += ac_used - dc_possible
                    chg += dc_possible
            chg_v[h] = chg

        i = dis / sq_eta - chg * sq_eta
        q0 = q1 + q2
        q1, q2 = (q1 * r + ((q0 * k * c - i) * one_r - i * c * a) / k,
                  q2 * r + q0 * one_c * one_r - i * one_c * a / k)
        soc_v[h] = (q1 + q2) / q_max
    return q1, q2


def reference_battery_stage_hours(load, pv, wt, q1: float, q2: float, **params) -> tuple:
    """:func:`mgdesign.dispatch._battery_stage_hours` with stage 2 run by
    :func:`reference_battery_hours`, the battery loop that wrote every flow
    back hour by hour; returns the same
    ``(grid_inputs, (charge, discharge, soc), q1, q2)``."""
    # Without a battery the kernel returns stage 1's arrays untouched.
    grid_inputs, battery, _, _ = _battery_stage_hours(load, pv, wt, q1, q2, **{**params, "q_max": 0.0})
    if params["q_max"] > 0.0:
        q1, q2 = reference_battery_hours(*grid_inputs, *battery, q1, q2, *(
            params[name] for name in ("conv_kw", "eta", "q_max", "k", "c", "sq_eta",
                                      "floor_q1", "floor_q2", "q_max_eff")))
    return grid_inputs, battery, q1, q2


def reference_grid_stage_hours(
    deficit: np.ndarray, residual: np.ndarray, pv_surplus: np.ndarray, wt_surplus: np.ndarray,
    conv_used: np.ndarray, loss: np.ndarray, conv_kw: float, eta: float,
    import_cap: float, export_cap: float,
    dg_kw: float, dg_min: float, dg_alpha: float, dg_beta: float,
) -> dict[str, np.ndarray]:
    """:func:`mgdesign.dispatch._grid_stage_hours` with every clamp a
    comparison, ``np.where(a < b, a, b)`` or ``np.copyto(x, s, where=x > s)``,
    and every zeroed hour a masked write of +0.0; returns the same seven
    flow columns."""
    # Deficit hours: grid import, then diesel between its minimum load and
    # rating, then unmet.  A surplus hour's residual stays at most 1e-12,
    # so only deficit hours import or run the diesel.
    # Scalar tests pick the masks (a mask ANDed with a Python bool is slow).
    grid_import = np.where(residual < import_cap, residual, import_cap)
    np.copyto(grid_import, 0.0, where=~(residual > 1e-12) if import_cap > 0.0 else True)
    left = residual - grid_import
    to_dg = ((left > 1e-12) & (left >= dg_min * dg_kw) if dg_kw > 0.0
             else np.zeros(left.shape, dtype=bool))
    dg_out = np.where(left < dg_kw, left, dg_kw)
    np.copyto(dg_out, 0.0, where=~to_dg)
    fuel = dg_beta * dg_out
    np.add(dg_alpha * dg_kw, fuel, out=fuel)
    np.copyto(fuel, 0.0, where=~to_dg)
    left -= dg_out
    unmet = left
    np.copyto(unmet, 0.0, where=~(deficit & (left > 0.0)))

    # Surplus hours: export wind AC-direct, then PV through the converter
    # room left; curtail the rest.
    to_export = (~deficit & ((wt_surplus > 0.0) | (pv_surplus > 0.0)) if export_cap > 0.0
                 else np.zeros(deficit.shape, dtype=bool))
    wind_export = np.where(wt_surplus < export_cap, wt_surplus, export_cap)
    np.copyto(wind_export, 0.0, where=~to_export)
    wt_left = wt_surplus - wind_export
    ac_possible = pv_surplus * eta
    room = conv_kw - conv_used
    np.copyto(ac_possible, room, where=ac_possible > room)
    export_room = np.subtract(export_cap, wind_export, out=room)
    np.copyto(ac_possible, export_room, where=ac_possible > export_room)
    # Positive only where the PV surplus, the room and the export room all are.
    pv_export = to_export & (ac_possible > 0.0)
    np.copyto(ac_possible, 0.0, where=~pv_export)
    dc_used = np.divide(ac_possible, eta, out=export_room)
    export_loss = dc_used - ac_possible
    loss = np.add(loss, export_loss, out=export_loss)
    pv_left = np.subtract(pv_surplus, dc_used, out=dc_used)
    both_export = np.add(wind_export, ac_possible, out=ac_possible)
    grid_export = wind_export
    np.copyto(grid_export, both_export, where=pv_export)
    # Deficit hours have no wind surplus (+0.0) and curtail PV surplus only
    # when it is positive: PV through the converter can leave -1 ulp.
    curtailed = np.add(pv_left, wt_left, out=wt_left)
    np.copyto(curtailed, 0.0, where=deficit & ~(pv_left > 0.0))
    return {"dg_kw": dg_out, "grid_import_kw": grid_import, "grid_export_kw": grid_export,
            "unmet_kw": unmet, "curtailed_kw": curtailed, "fuel_l_per_hr": fuel,
            "conversion_loss_kw": loss}


def reference_write_trace_csv(trace: DispatchTrace, path: str | Path) -> None:
    """Trace export formatting each row with ``str.format`` on Python
    floats, 1024 rows converted at a time."""
    arrays = [getattr(trace, name) for name in FLOW_FIELDS] + [trace.soc]
    row = ",".join(["{:.6f}"] * len(arrays)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(FLOW_FIELDS + ("soc",)) + "\n")
        for start in range(0, len(trace.load_kw), 1024):
            columns = [a[start:start + 1024].tolist() for a in arrays]
            fh.writelines(row.format(*values) for values in zip(*columns))


# ----------------------------------------------------------------------
# Reference result files: one object and one formatted row at a time
# ----------------------------------------------------------------------

def reference_csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def reference_write_evaluations_csv(evaluations, path, with_front_rank: bool = False, feasible=None):
    """Results CSV written row by row, with the ``feasible`` flags (all
    true by default); ranks from the metric vectors of the feasible rows,
    -1 for an infeasible row."""
    header = list(DESIGN_FIELDS) + list(METRIC_FIELDS) + ["feasible"]
    feasible = [True] * len(evaluations) if feasible is None else feasible
    ranks = None
    if with_front_rank:
        kept = [i for i, flag in enumerate(feasible) if flag]
        ranks = np.full(len(evaluations), -1)
        ranks[kept] = reference_pareto_ranks([evaluations[i].metrics for i in kept])
        header += ["non_dominated", "front_rank"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i, ev in enumerate(evaluations):
            row = [reference_csv_cell(getattr(ev.design, name)) for name in DESIGN_FIELDS]
            row += [reference_csv_cell(getattr(ev.metrics, name)) for name in METRIC_FIELDS]
            row.append(reference_csv_cell(bool(feasible[i])))
            if ranks is not None:
                row.append(reference_csv_cell(bool(ranks[i] == 0)))
                row.append(reference_csv_cell(int(ranks[i]) if ranks[i] >= 0 else None))
            fh.write(",".join(row) + "\n")
    return ranks


def reference_write_pareto_csv(evaluations, path) -> list[EvaluatedDesign]:
    front = [e for e, keep in zip(evaluations, reference_pareto_mask([e.metrics for e in evaluations])) if keep]
    reference_write_evaluations_csv(front, path, with_front_rank=True)
    return front


def reference_read_results_csv(path) -> tuple[list[EvaluatedDesign], list[bool]]:
    """A results CSV as one ``EvaluatedDesign`` per row, and the rows'
    ``feasible`` flags."""
    evaluations, feasible = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            design = Design(
                pv_kw=float(row["pv_kw"]), wt_kw=float(row["wt_kw"]), dg_kw=float(row["dg_kw"]),
                bess_kwh=float(row["bess_kwh"]), converter_kw=float(row["converter_kw"]),
                grid_cap_kw=float(row["grid_cap_kw"]) if row.get("grid_cap_kw") else None)
            metrics = MetricVector(**{name: float(row[name]) for name in METRIC_FIELDS})
            evaluations.append(EvaluatedDesign(design, metrics))
            feasible.append(row.get("feasible", "1") == "1")
    return evaluations, feasible


def reference_write_metrics_csv(metrics: MetricVector, design: Design, path) -> None:
    header = list(DESIGN_FIELDS) + list(METRIC_FIELDS)
    values = [reference_csv_cell(getattr(design, f)) for f in DESIGN_FIELDS]
    values += [reference_csv_cell(getattr(metrics, f)) for f in METRIC_FIELDS]
    Path(path).write_text(",".join(header) + "\n" + ",".join(values) + "\n", encoding="utf-8")


def reference_write_costs_csv(costs, path) -> None:
    lines = [",".join(COST_FIELDS), ",".join(reference_csv_cell(getattr(costs, f)) for f in COST_FIELDS)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_write_deviation_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("parameter,uncertainty_pct,npc_dev_pct,reliability_dev,efficiency_dev_pct,co2_dev_pct\n")
        for row in rows:
            fh.write(f"{row.target.value},{row.delta * 100.0:.6g},{row.npc_dev_pct!r},"
                     f"{row.reliability_dev!r},{row.efficiency_dev_pct!r},{row.co2_dev_pct!r}\n")


def reference_write_sweep_csv(curve, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("multiplier,lcoe_usd_per_kwh\n")
        for multiplier, value in curve:
            fh.write(f"{multiplier!r},{value!r}\n")


def reference_load_timeseries(path, unit, expected_length=HOURS_PER_YEAR) -> TimeSeries:
    """Series file read as UTF-8 through one ``map(float, ...)`` over the
    non-blank cells, ``-0`` as ``0.0``; a file with a bad cell is read again
    line by line to name the first non-numeric or NaN one."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        cells = (line.split("#", 1)[0] if "#" in line else line for line in fh)
        try:
            values = np.array(list(map(float, filter(None, map(str.strip, cells)))))
        except ValueError:
            values = None
    if values is None or np.isnan(values).any():
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                text = raw.split("#", 1)[0].strip()
                if text:
                    try:
                        value = float(text)
                    except ValueError:
                        raise TimeSeriesParseError(path, lineno, text) from None
                    if math.isnan(value):
                        raise TimeSeriesParseError(path, lineno, text)
    if expected_length is not None and len(values) != expected_length:
        raise LengthMismatchError(expected_length, len(values))
    series = TimeSeries(np.where(values == 0.0, 0.0, values), unit)
    problems = series.violations(name=str(path), expected_length=expected_length)
    if problems:
        raise ScenarioValidationError(problems)
    return series


def reference_write_timeseries(series: TimeSeries, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# unit: {series.unit.value}\n")
        for value in series.values:
            fh.write(f"{float(value)!r}\n")


def reference_scale_series(scenario: Scenario, *, load: float = 1.0, irradiance: float = 1.0,
                           wind: float = 1.0) -> Scenario:
    """The series perturbation as three keyword branches, one per series."""
    updated = scenario
    if load != 1.0:
        updated = replace(updated, load=TimeSeries(scenario.load.values * load, scenario.load.unit))
    if irradiance != 1.0:
        updated = replace(updated, irradiance=TimeSeries(scenario.irradiance.values * irradiance,
                                                         scenario.irradiance.unit))
    if wind != 1.0:
        updated = replace(updated, wind_speed=TimeSeries(scenario.wind_speed.values * wind,
                                                         scenario.wind_speed.unit))
    return updated


def reference_scaled_scenario(scenario: Scenario, parameter: SweepParameter, multiplier: float) -> Scenario:
    """The LCOE-sweep variant as one hand-written ``replace`` per parameter."""
    tariff, catalog = scenario.tariff, scenario.catalog
    if parameter is SweepParameter.PURCHASE_PRICE:
        price = tariff.purchase_usd_per_kwh
        scaled = TimeSeries(price.values * multiplier, price.unit) if isinstance(price, TimeSeries) else price * multiplier
        return replace(scenario, tariff=replace(tariff, purchase_usd_per_kwh=scaled))
    if parameter is SweepParameter.SELLBACK_PRICE:
        price = tariff.sellback_usd_per_kwh
        scaled = TimeSeries(price.values * multiplier, price.unit) if isinstance(price, TimeSeries) else price * multiplier
        return replace(scenario, tariff=replace(tariff, sellback_usd_per_kwh=scaled))
    if parameter is SweepParameter.BATTERY_CAPITAL:
        battery = replace(catalog.battery,
                          capital_usd_per_kwh=catalog.battery.capital_usd_per_kwh * multiplier,
                          replacement_usd_per_kwh=catalog.battery.replacement_usd_per_kwh * multiplier)
        return replace(scenario, catalog=replace(catalog, battery=battery))
    pv = replace(catalog.pv,
                 capital_usd_per_kw=catalog.pv.capital_usd_per_kw * multiplier,
                 replacement_usd_per_kw=catalog.pv.replacement_usd_per_kw * multiplier)
    return replace(scenario, catalog=replace(catalog, pv=pv))


def bench_inputs():
    """The benchmark's input generators, loaded from ``bench/inputs.py``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


# ----------------------------------------------------------------------
# Reference searches: the evaluator runs on every request
# ----------------------------------------------------------------------

def spy_calls(monkeypatch, module, name: str) -> list[tuple]:
    """Replace ``module.name`` with a pass-through that records the
    positional arguments of every call; returns that list, in call order."""
    calls = []
    original = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def reference_grid_search(scenario, space, budget_usd=None) -> list[EvaluatedDesign]:
    """Lattice enumeration calling ``evaluate`` on every design, with the
    same budget screen and ``(npc, lattice index)`` order as ``grid_search``."""
    rows = []
    for index, design in enumerate(space.designs()):
        upfront = capital_cost(design, scenario) + fixed_om_cost(design, scenario)
        if budget_usd is not None and upfront > budget_usd:
            continue
        metrics = evaluate(design, scenario)
        rows.append((metrics.npc_usd, index, EvaluatedDesign(design, metrics)))
    rows.sort(key=lambda row: (row[0], row[1]))
    return [row[2] for row in rows]


def reference_refine(start, objective, tolerance=1.0, max_cycles=200) -> RefineResult:
    """Cyclic coordinate descent calling ``objective`` on every probe."""
    steps = dict(DEFAULT_STEPS)
    current = start
    best = objective(current)
    evaluations = 1
    cycles = 0
    while cycles < max_cycles and max(steps.values()) >= tolerance:
        cycles += 1
        improved = False
        for name, step in steps.items():
            if step <= 0.0:
                continue
            for direction in (+1.0, -1.0):
                value = getattr(current, name) + direction * step
                candidate = replace(current, **{name: max(value, 0.0)})
                if candidate == current:
                    continue
                score = objective(candidate)
                evaluations += 1
                if score < best:
                    current, best = candidate, score
                    improved = True
                    break
        if not improved:
            steps = {name: step * 0.5 for name, step in steps.items()}
    return RefineResult(design=current, objective_value=best, cycles=cycles,
                        evaluations=evaluations)


def reference_policy_gradient_search(space, config, seed, evaluate) -> PolicySearchResult:
    """Single-step REINFORCE calling ``evaluate`` in every episode."""
    axes = space.axis_values()
    cycle = default_weight_cycle()
    grid_cap = space.effective_grid_cap()
    rng = np.random.default_rng(seed)
    theta = {name: np.zeros(len(values)) for name, values in axes.items()}
    baselines = np.zeros(4)
    baseline_ready = False
    lo = np.full(4, np.inf)
    hi = np.full(4, -np.inf)
    archive = []
    for episode in range(config.episodes):
        probs = {name: _softmax(logits) for name, logits in theta.items()}
        actions = {name: int(rng.choice(len(p), p=p)) for name, p in probs.items()}
        design = Design(grid_cap_kw=grid_cap,
                        **{name: float(axes[name][actions[name]]) for name in axes})
        metrics = evaluate(design)
        archive.append(EvaluatedDesign(design, metrics))
        oriented = np.array([-metrics.npc_usd, metrics.reliability,
                             metrics.efficiency_pct, -metrics.co2_kg_per_yr])
        lo = np.minimum(lo, oriented)
        hi = np.maximum(hi, oriented)
        span = hi - lo
        rewards = np.where(span > 0.0, (oriented - lo) / np.where(span > 0.0, span, 1.0), 0.0)
        if not baseline_ready:
            baselines = rewards.copy()
            baseline_ready = True
        weights = np.array(cycle[episode % len(cycle)].as_tuple())
        advantage = float(weights @ (rewards - baselines))
        baselines = _BASELINE_DECAY * baselines + (1.0 - _BASELINE_DECAY) * rewards
        if config.learning_rate != 0.0 and advantage != 0.0:
            for name, p in probs.items():
                grad = -p
                grad[actions[name]] += 1.0
                theta[name] = theta[name] + config.learning_rate * advantage * grad
    final_probs = {name: _softmax(logits) for name, logits in theta.items()}
    front_mask = reference_pareto_mask([e.metrics for e in archive])
    front = [e for e, keep in zip(archive, front_mask) if keep]
    return PolicySearchResult(archive=archive, front=front, probabilities=final_probs, theta=theta)


def scenario_snapshot(record):
    """Every field of a scenario, down through its sections, as plain values
    (a series as its unit and bytes) that compare by value."""
    def plain(value):
        if isinstance(value, TimeSeries):
            return value.unit, value.values.tobytes()
        return scenario_snapshot(value) if is_dataclass(value) else value

    return tuple((f.name, plain(getattr(record, f.name))) for f in fields(record))
