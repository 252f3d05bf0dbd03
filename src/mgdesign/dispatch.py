"""One-year hourly operation of a candidate design against a scenario.

Bus topology: PV and the battery live on the DC bus; the wind turbines,
diesel generator, grid connection, and load live on the AC bus.  The
converter moves power between buses, losing ``1 - efficiency`` per
crossing, with total throughput (measured on its output side) limited by
its rating each hour.

Dispatch priority, fixed and price-blind:

* deficit hours -- battery discharge, then grid import, then diesel
  (only between its minimum load ratio and rating), then unmet;
* surplus hours -- battery charge (PV charges DC-direct first, then
  wind through the converter), then grid export, then curtailment.

Only the battery's state carries from one hour to the next.  The
dispatch rules are implemented once, in three stages over the year:

1. NumPy arrays: wind serves load on the AC bus, then PV through the
   converter; this marks the deficit hours.
2. A Python loop over the hours, run only for a design with a battery
   (:func:`_battery_hours`): discharge in deficit hours, PV DC-direct
   charge when nothing was discharged, PV-then-wind charge in surplus
   hours, and the tank update of the two-tank kinetic battery.  The loop
   carries only the tanks and reads per hour only the deficit flag and
   the hours open to the battery (:func:`_limit_and_spare`).  Each kind
   of hour runs only the operations whose results it uses: a deficit
   hour with no converter room skips the discharge bound, and an hour
   that neither charges nor discharges steps the tanks without the terms
   of the internal power.
   A discharging hour, or an idle hour at the floors, that leaves both
   tanks bit for bit as they were (an emptied bank whose tanks exchange
   less than an ulp) gives the same result in every later deficit hour
   that is not spare, so the loop writes it to the rest of that still run
   by slice assignment and resumes where the run ends.
   The loop records the power delivered, the PV and wind charges and the
   tank sum, and a few NumPy operations after it write the flows, the
   converter throughput, the losses, the surpluses and the SOC back.
3. NumPy arrays: grid import, diesel and fuel, unmet load, export and
   curtailment.

The battery comes before the grid and the diesel in every hour, so
stages 1 and 2 read only the PV, wind, battery and converter sizes
(:attr:`Design.battery_key`).  :func:`battery_stage` runs them and
returns a read-only :class:`BatteryStage`; :func:`simulate_year` runs
stage 3 on it.  Designs that differ only in diesel size or grid cap
can therefore share one battery stage.  Each scenario object keeps its
last stage with a battery and its last without, so every simulation of
a design on one scenario in a process (a command's, a search's, the
next command's on the shared bundled scenario) reuses the stage while
the key stays the same.  Stage 3 never writes to the stage.

A :class:`Design` checks its capacities when it is built, so the kernel
runs no design check of its own.

The kernel holds the only copies of three component laws: the kinetic
battery (Manwell & McGowan, Solar Energy 1993: an available and a bound
tank exchanging charge at a fixed rate, used within [``soc_min``,
``soc_max``] of nominal capacity; :func:`_battery_hours`), the diesel
fuel law (``alpha * rating + beta * output`` L/hr while running, exactly
zero when off) and the converter loss (``delivered * (1/efficiency - 1)``
per crossing).  The available PV and wind production comes from the
resource series of ``components``.  The tests hold :func:`simulate_year`
bit-exact, signs of zeros included, against a plain per-hour reference
loop, and the battery's closed forms against an integration of the tank
dynamics (``tests/helpers.py``).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .components import pv_series, wt_series
from .scenario import Catalog, GridTariff, Scenario

#: Rows that :func:`write_trace_csv` formats per NumPy pass.  A block's
#: arrays take ~0.7 MB at most, however long the trace; 512 rows also ran
#: faster than 256, 1024 or 2048 (A5 trace, 2-core VM).
_CSV_BLOCK_ROWS = 512


def _word_tables() -> list[np.ndarray]:
    """Four-byte words of trace text, indexed by a cell's number parts.

    Integer part, one word per group of three digits, index ``g + 1000 *
    state + 3000 * negative``: a sign byte (``-`` only in the leading group
    of a negative cell) and the digits of ``g``; state 0 is a group above
    the number (all NUL), 1 its leading group (leading zeros NUL), 2 a
    group below that (zero-padded).  Then ``.`` and the first three
    decimals, and the last three decimals and ``,``.  NUL bytes are
    dropped from the text."""
    n = np.arange(1000)[:, None]
    digits = n // np.array([100, 10, 1]) % 10 + ord("0")
    lead = np.where(n >= np.array([100, 10, 0]), digits, 0)
    groups = np.tile(np.concatenate([np.zeros_like(digits), lead, digits]), (2, 1))
    sign = np.zeros((6000, 1), dtype=int)
    sign[4000:5000] = ord("-")
    column = np.ones((1000, 1), dtype=int)
    return [np.hstack(parts).astype(np.uint8).view(np.uint32).ravel()
            for parts in ((sign, groups), (column * ord("."), digits), (digits, column * ord(",")))]


_WHOLE_WORDS, _POINT_WORDS, _COMMA_WORDS = _word_tables()


class InvalidDesignError(ValueError):
    """Design capacities are negative or not finite."""


#: The short name of each capacity of a :class:`Design`, mapped to its
#: field, in field order.  Design strings, search axes and results files
#: all take their capacity names and order from here.
CAPACITIES = {"pv": "pv_kw", "wt": "wt_kw", "dg": "dg_kw", "bess": "bess_kwh", "conv": "converter_kw"}


@dataclass(frozen=True)
class Design:
    """Candidate capacities.  A source is included exactly when its
    capacity is positive.

    ``grid_cap_kw = None`` leaves grid exchange limited only by the
    tariff's import/export caps.

    A ``Design`` cannot hold a negative or non-finite value: building one
    (directly, by ``dataclasses.replace`` or by :meth:`from_string`) raises
    :class:`InvalidDesignError` naming every bad field in one message.
    """

    pv_kw: float = 0.0
    wt_kw: float = 0.0
    dg_kw: float = 0.0
    bess_kwh: float = 0.0
    converter_kw: float = 0.0
    grid_cap_kw: float | None = None

    @property
    def battery_key(self) -> tuple[float, float, float, float]:
        """``(pv_kw, wt_kw, bess_kwh, converter_kw)``: the capacities that
        stages 1 and 2 of the dispatch read (see :class:`BatteryStage`)."""
        return (self.pv_kw, self.wt_kw, self.bess_kwh, self.converter_kw)

    def capacities(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in CAPACITIES.values()}

    def __post_init__(self) -> None:
        # Only the grid cap may be None.
        problems = [f"{name}: must be finite and >= 0, got {value}" for name, value in vars(self).items()
                    if not (name == "grid_cap_kw" if value is None else 0.0 <= value < math.inf)]
        if problems:
            raise InvalidDesignError("; ".join(problems))

    _FIELD_ALIASES = {**CAPACITIES, "converter": "converter_kw", "grid": "grid_cap_kw"}

    @classmethod
    def from_string(cls, text: str) -> "Design":
        """Parse ``pv=418,wt=123,dg=0,bess=704,conv=255[,grid=300]``.
        ``-0`` reads as ``0.0``.  A field named twice, in any case or by
        any alias, is an error."""
        kwargs: dict[str, float] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise InvalidDesignError(f"expected name=value, got {part!r}")
            name, _, value = part.partition("=")
            key = cls._FIELD_ALIASES.get(name.strip().lower())
            if key is None:
                raise InvalidDesignError(f"unknown capacity {name.strip()!r}")
            if key in kwargs:
                raise InvalidDesignError(f"{key} is given twice")
            try:
                kwargs[key] = float(value) + 0.0  # -0.0 + 0.0 is 0.0; exact for every other value
            except ValueError:
                raise InvalidDesignError(f"bad number for {name.strip()!r}: {value!r}") from None
        return cls(**kwargs)


#: Column order of the flow arrays of a trace and of its CSV export.
FLOW_FIELDS = (
    "pv_kw", "wt_kw", "dg_kw", "batt_charge_kw", "batt_discharge_kw",
    "grid_import_kw", "grid_export_kw", "unmet_kw", "curtailed_kw",
    "fuel_l_per_hr", "conversion_loss_kw",
)


@dataclass(frozen=True)
class BatteryState:
    """Two-tank charge state: ``q1_kwh`` is the immediately available
    charge and ``q2_kwh`` the chemically bound charge, both absolute (tank
    totals include the energy parked below ``soc_min``)."""

    q1_kwh: float
    q2_kwh: float

    @property
    def stored_kwh(self) -> float:
        return self.q1_kwh + self.q2_kwh


@dataclass
class DispatchTrace:
    """Hourly power flows of one simulated year plus aggregates.

    Array attributes are parallel, one entry per hour; ``soc`` is the
    battery state of charge at the end of each hour.
    """

    load_kw: np.ndarray
    pv_kw: np.ndarray
    wt_kw: np.ndarray
    dg_kw: np.ndarray
    batt_charge_kw: np.ndarray
    batt_discharge_kw: np.ndarray
    grid_import_kw: np.ndarray
    grid_export_kw: np.ndarray
    unmet_kw: np.ndarray
    curtailed_kw: np.ndarray
    fuel_l_per_hr: np.ndarray
    conversion_loss_kw: np.ndarray
    soc: np.ndarray
    final_battery: BatteryState
    initial_stored_kwh: float
    roundtrip_efficiency: float

    @property
    def load_kwh(self) -> float:
        return float(self.load_kw.sum())

    @property
    def unmet_kwh(self) -> float:
        return float(self.unmet_kw.sum())

    @property
    def served_kwh(self) -> float:
        return self.load_kwh - self.unmet_kwh

    @property
    def fuel_l(self) -> float:
        return float(self.fuel_l_per_hr.sum())

    @property
    def import_kwh(self) -> float:
        return float(self.grid_import_kw.sum())

    @property
    def export_kwh(self) -> float:
        return float(self.grid_export_kw.sum())

    @property
    def curtailed_kwh(self) -> float:
        return float(self.curtailed_kw.sum())

    @property
    def conversion_loss_kwh(self) -> float:
        return float(self.conversion_loss_kw.sum())

    @property
    def battery_loss_kwh(self) -> float:
        """Energy lost inside the battery to the per-direction efficiency."""
        sq = math.sqrt(self.roundtrip_efficiency)
        charge = float(self.batt_charge_kw.sum())
        discharge = float(self.batt_discharge_kw.sum())
        return charge * (1.0 - sq) + discharge * (1.0 / sq - 1.0)

    @property
    def loss_kwh(self) -> float:
        """All losses: conversion + battery + curtailment."""
        return self.conversion_loss_kwh + self.battery_loss_kwh + self.curtailed_kwh

    @property
    def pv_kwh(self) -> float:
        return float(self.pv_kw.sum())

    @property
    def wt_kwh(self) -> float:
        return float(self.wt_kw.sum())

    @property
    def renewable_kwh(self) -> float:
        return self.pv_kwh + self.wt_kwh

    @property
    def dg_kwh(self) -> float:
        return float(self.dg_kw.sum())

    @property
    def dg_hours(self) -> int:
        return int(np.count_nonzero(self.dg_kw > 0.0))

    @property
    def stored_delta_kwh(self) -> float:
        """Final minus initial stored energy in the battery tanks."""
        return self.final_battery.stored_kwh - self.initial_stored_kwh

    def balance_residual_kw(self) -> np.ndarray:
        """Per-hour energy balance residual; ~0 for a correct dispatch."""
        supply = (self.pv_kw + self.wt_kw + self.dg_kw
                  + self.batt_discharge_kw + self.grid_import_kw)
        use = ((self.load_kw - self.unmet_kw) + self.batt_charge_kw
               + self.grid_export_kw + self.curtailed_kw + self.conversion_loss_kw)
        return supply - use


@dataclass(frozen=True)
class BatteryStage:
    """Stages 1 and 2 of one simulated year: everything the dispatch
    computes before it reaches the grid and the diesel.

    Only the capacities of :attr:`Design.battery_key` reach these stages,
    so designs that differ only in diesel size or grid cap share one stage
    bit for bit.  Every array is read-only: the traces of those designs
    share ``pv_kw``, ``wt_kw``, the battery columns and ``soc``.
    """

    key: tuple[float, float, float, float]
    pv_kw: np.ndarray
    wt_kw: np.ndarray
    batt_charge_kw: np.ndarray
    batt_discharge_kw: np.ndarray
    soc: np.ndarray
    #: Stage 3's inputs: the deficit flags, the residual load, the PV and
    #: wind surpluses, the converter throughput and the conversion loss.
    grid_inputs: tuple[np.ndarray, ...]
    initial_stored_kwh: float
    final_battery: BatteryState


def _battery_stage_hours(
    load: np.ndarray, pv: np.ndarray, wt: np.ndarray, q1: float, q2: float,
    conv_kw: float, eta: float, q_max: float, k: float, c: float, sq_eta: float,
    floor_q1: float, floor_q2: float, q_max_eff: float,
) -> tuple:
    """Stages 1 and 2 over parallel float64 hour arrays.

    The battery starts from tanks ``q1``/``q2`` and takes part when
    ``q_max > 0``.  Returns ``(grid_inputs, (charge, discharge, soc), q1,
    q2)``: the six arrays :func:`_grid_stage_hours` reads, the battery
    columns, and the final tanks.

    Stages 1 and 3 are array expressions, and each hour's result is
    bit-identical to routing that hour alone.  A clamp is ``np.minimum`` or
    ``np.maximum`` with the per-hour rule's kept value as the second
    operand, which NumPy returns on a tie (on x86; ARM orders -0.0 below
    +0.0, and every tie of zeros of different sign is folded to +0.0 by a
    later ``np.maximum(..., 0.0)`` or masked write), or ``np.where`` with
    the rule's comparison where that sign would survive.  An hour zeroed in
    a column that is never negative or -0.0 is a multiply by a mask; in any
    other column it is a masked write.  They clamp and update in place
    (``out=``, ``*=``, ``np.copyto(..., where=)``) on arrays they allocated
    themselves, never on their inputs, which keeps a stage to at most 13
    year-long arrays.  Each one is still fresh memory to the kernel, one
    page fault per 4 KiB, wherever the allocator hands freed memory back
    to the system: glibc does by default, and those faults took about half
    of a battery-less year's run time.  ``mgdesign.cli.main`` asks glibc
    to keep it, so in the CLI a year reuses the pages of the last.
    """
    # Stage 1: wind serves load on the AC bus, then PV through the converter.
    # A masked flow is +0.0 outside its mask, and ``x - 0.0`` is ``x`` bit
    # for bit, so subtracting it leaves every other hour as it was.
    # A -0.0 wind hour (a "-0" speed with a cut-in of 0) at a +0.0 load
    # takes the load's zero: np.minimum could take either on a tie.
    wt_to_load = np.where(wt < load, wt, load)
    residual = load - wt_to_load
    wt_surplus = np.subtract(wt, wt_to_load, out=wt_to_load)
    conv_used = pv * eta   # converter output-side throughput, once clamped
    np.minimum(conv_kw, conv_used, out=conv_used)
    np.minimum(residual, conv_used, out=conv_used)
    # Positive only where the residual, the PV and the rating all are; a
    # -0.0 rating's -0.0 becomes +0.0 here.
    np.maximum(conv_used, 0.0, out=conv_used)
    used_dc = conv_used / eta
    pv_surplus = pv - used_dc
    residual -= conv_used
    # Never -0.0, so equal to the per-hour ``0.0 + ...``; adding +0.0 to it
    # later leaves it as it is.
    loss = np.subtract(used_dc, conv_used, out=used_dc)
    deficit = residual > 1e-12

    # Stage 2: the battery, the only state carried from hour to hour.
    charge = np.zeros(len(load))
    discharge = np.zeros(len(load))
    soc = np.zeros(len(load))
    if q_max > 0.0:
        # The loop records the power delivered, the PV and wind charges and
        # the tank sum; the flows follow from them here, with the per-hour
        # rules' operations on the same operands.  An hour either discharges
        # or charges, and adding the other direction's +0.0 leaves a value as
        # it is: none of these arrays holds -0.0 where +0.0 is added.
        limit, spare = _limit_and_spare(conv_kw, deficit, residual, pv_surplus, wt_surplus, conv_used)
        delivered, wind_dc = discharge, np.zeros(len(load))
        q1, q2 = _battery_hours(
            deficit, limit, spare, pv_surplus, wt_surplus, charge, delivered, wind_dc, soc,
            q1, q2, eta, k, c, sq_eta, floor_q1, floor_q2, q_max_eff)
        residual -= delivered
        conv_used += delivered
        conv_used += wind_dc
        discharge = np.divide(delivered, eta, out=limit)   # at the battery terminals
        loss += np.subtract(discharge, delivered, out=delivered)
        wind_ac = np.divide(wind_dc, eta, out=delivered)
        wt_surplus -= wind_ac
        loss += np.subtract(wind_ac, wind_dc, out=wind_ac)
        pv_surplus -= charge
        # Only where wind charged: the PV charge may be -0.0.
        np.add(charge, wind_dc, out=charge, where=wind_dc > 0.0)
        soc /= q_max
    return (deficit, residual, pv_surplus, wt_surplus, conv_used, loss), (charge, discharge, soc), q1, q2


def _limit_and_spare(conv_kw: float, deficit: np.ndarray, residual: np.ndarray, pv_surplus: np.ndarray,
                     wt_surplus: np.ndarray, conv_used: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """From stage 1's arrays, each hour's discharge ``limit`` (the converter
    room left, and no more than the residual in a deficit hour) and whether
    it is ``spare`` (PV or wind has a surplus): a battery discharges only in
    a deficit hour whose limit is positive, and charges only in a spare one."""
    limit = np.subtract(conv_kw, conv_used)
    np.copyto(limit, residual, where=deficit & (residual < limit))
    spare = pv_surplus > 0.0
    spare |= wt_surplus > 0.0
    return limit, spare


def _battery_hours(
    deficit: np.ndarray, limit: np.ndarray, spare: np.ndarray, pv_surplus: np.ndarray,
    wt_surplus: np.ndarray, charge: np.ndarray, delivered: np.ndarray, wind_dc: np.ndarray,
    tanks: np.ndarray, q1: float, q2: float, eta: float, k: float, c: float, sq_eta: float,
    floor_q1: float, floor_q2: float, q_max_eff: float,
) -> tuple[float, float]:
    """Stage 2: charge and discharge the battery hour by hour and step its
    tanks; returns the final ``q1, q2``.

    Deficit hours discharge first, up to the discharge ``limit``; when
    nothing was discharged, PV surplus left by a saturated converter
    charges DC-direct.  ``spare`` hours charge from PV DC-direct, then from
    wind through the converter room, which is the ``limit`` of such an hour
    (both from :func:`_limit_and_spare`).  The loop carries only the tanks:
    it writes, through memoryviews, the power ``delivered`` to the AC bus,
    the PV ``charge``, the ``wind_dc`` charge and the tank sum (``tanks``);
    :func:`_battery_stage_hours` turns them into the flows after the loop.
    The tanks follow the kinetic battery model at dt = 1 h: the discharge
    and charge bounds that keep the available tank within the usable
    window, and the exact tank update, in closed form with their constants
    hoisted out of the loop.  Each direction carries ``sq_eta`` of the
    roundtrip efficiency, and the update takes exactly the internal power
    ``i`` from ``q1 + q2``.

    Each kind of hour runs only the operations whose results it uses, in
    the operation order of the full rules, so every result is bit for bit
    the same.  A deficit hour with no limit cannot discharge and skips the
    discharge bound; one at the floors computes a bound of +0.0, delivers
    nothing and goes on to charge or idle.  A discharging hour's
    ``i`` drops the charge term, and an hour that neither charges nor
    discharges (``i`` is +0.0) runs the update without its ``i`` terms,
    which are +0.0: ``x - 0.0`` is ``x`` bit for bit.  The surpluses are
    read only in hours that charge.

    Still runs.  The tank update reads only the tanks and ``i``, and a
    discharge's ``i`` only the tanks unless the limit cuts it.  So after a
    discharging hour, or an idle hour at the floors, whose update leaves
    both tanks bit for bit as they were, every later hour that is a deficit
    and not spare repeats it exactly: a discharge that the limit did not
    cut, in hours whose limit is no lower than its delivery (it is at most
    the smallest limit of such hours, one scalar for the year); an idle
    hour at the floors in every such hour, as none can discharge or charge.
    An idle hour above the floors runs as usual, still or not: no benchmark
    design has a run of them to skip.  The loop writes the hour's delivery
    and tank sum to that run with NumPy slice assignments, finds the run's
    end as the first True of the stop mask, and restarts its ``zip`` at
    that hour from memoryview slices.  Tanks that compare equal are the
    same bits unless one is zero (-0.0 == +0.0), so a zero tank is never
    still.  The stop mask is cautious: an hour that ends a run may repeat
    it after all (a balance hour at the floors, say), and then runs as
    usual.  On the benchmark lattices 26-31% of the hours are skipped, in
    about 30 runs a year.
    """
    r = math.exp(-k)
    one_r = 1.0 - r
    a = k - 1.0 + r
    denom = one_r + c * a
    one_c = 1.0 - c
    k_c_qmax = k * c * q_max_eff
    ps_v, ws_v, chg_v, del_v, wind_v, tank_v = map(
        memoryview, (pv_surplus, wt_surplus, charge, delivered, wind_dc, tanks))
    flags = tuple(map(memoryview, (deficit, limit, spare)))
    n = len(tanks)
    # The hours that end a still run, with a True sentinel after the last
    # hour: an hour that is not a deficit, or that is spare.  A still
    # discharge is repeated only if it is no more than the limit of every
    # hour the mask leaves out.
    stop = np.ones(n + 1, dtype=bool)
    np.logical_not(deficit, out=stop[:n])
    stop[:n] |= spare
    drain_limit = float(np.min(limit, where=~stop[:n], initial=math.inf))
    q0 = q1 + q2
    start = 0

    while True:
        for h, short, lim, surplus in zip(range(start, n), *(view[start:] for view in flags)):
            if short and lim > 0.0:
                e1 = q1 - floor_q1
                if e1 < 0.0:
                    e1 = 0.0
                e2 = q2 - floor_q2
                if e2 < 0.0:
                    e2 = 0.0
                # Never negative: every factor is >= +0.0 and ``denom`` > 0.
                internal = (k * e1 * r + (e1 + e2) * k * c * one_r) / denom
                deliverable = internal * sq_eta * eta
                if deliverable > lim:
                    deliverable = lim
                if deliverable > 0.0:
                    del_v[h] = deliverable
                    i = deliverable / eta / sq_eta
                    n1, n2 = (q1 * r + ((q0 * k * c - i) * one_r - i * c * a) / k,
                              q2 * r + q0 * one_c * one_r - i * one_c * a / k)
                    # Still, and the limit did not cut the deliverable.
                    if (n1 == q1 and n2 == q2 and q1 and q2
                            and deliverable == internal * sq_eta * eta <= drain_limit):
                        break
                    q1, q2 = n1, n2
                    tank_v[h] = q0 = q1 + q2
                    continue
            # Charge when nothing was discharged.  A deficit hour has no wind
            # surplus (+0.0), so there only PV left by a saturated converter
            # charges.
            if surplus:
                e1 = q1 - floor_q1
                if e1 < 0.0:
                    e1 = 0.0
                e2 = q2 - floor_q2
                if e2 < 0.0:
                    e2 = 0.0
                internal = (k_c_qmax - k * e1 * r - (e1 + e2) * k * c * one_r) / denom
                if internal < 0.0:
                    internal = 0.0
                bound = internal / sq_eta
                ps = ps_v[h]
                chg = ps if ps < bound else bound
                chg_v[h] = chg
                ws = ws_v[h]
                if ws > 0.0 and chg < bound and lim > 0.0:
                    dc_possible = ws * eta
                    if dc_possible > lim:
                        dc_possible = lim
                    if dc_possible > bound - chg:
                        dc_possible = bound - chg
                    if dc_possible > 0.0:
                        wind_v[h] = dc_possible
                        chg += dc_possible
                # ``0.0 - chg * sq_eta`` when not zero; a zero is an idle hour.
                i = -chg * sq_eta
                if i:
                    q1, q2 = (q1 * r + ((q0 * k * c - i) * one_r - i * c * a) / k,
                              q2 * r + q0 * one_c * one_r - i * one_c * a / k)
                    tank_v[h] = q0 = q1 + q2
                    continue
            n1, n2 = q1 * r + q0 * k * c * one_r / k, q2 * r + q0 * one_c * one_r
            if n1 == q1 and n2 == q2 and q1 and q2 and not (q1 > floor_q1 or q2 > floor_q2):
                break
            q1, q2 = n1, n2
            tank_v[h] = q0 = q1 + q2
        else:
            return q1, q2
        # Hour h left the tanks as they were: repeat it to the end of its run.
        tank_v[h] = q0
        start = h + 1 + int(stop[h + 1:].argmax())
        tanks[h + 1:start] = q0
        delivered[h + 1:start] = del_v[h]


def _grid_stage_hours(
    deficit: np.ndarray, residual: np.ndarray, pv_surplus: np.ndarray, wt_surplus: np.ndarray,
    conv_used: np.ndarray, loss: np.ndarray, conv_kw: float, eta: float,
    import_cap: float, export_cap: float,
    dg_kw: float, dg_min: float, dg_alpha: float, dg_beta: float,
) -> dict[str, np.ndarray]:
    """Stage 3 over the arrays of :func:`_battery_stage_hours`: grid
    import, diesel and fuel, unmet load, export and curtailment.

    Returns the seven flow columns it sets, keyed by their
    :data:`FLOW_FIELDS` names.  Never writes to its inputs, which a
    :class:`BatteryStage` shares between designs, and updates only arrays
    it allocated (see :func:`_battery_stage_hours`).  The loss column adds
    its export part last, as the per-hour rules do.
    """
    # Deficit hours: grid import, then diesel between its minimum load and
    # rating, then unmet.  A surplus hour's residual stays at most 1e-12,
    # so only deficit hours import or run the diesel.  The residual, the
    # import, the diesel output and what is left after them are never
    # negative or -0.0, so a multiply by a mask zeroes them as +0.0.
    # Scalar tests pick the masks (a mask ANDed with a Python bool is slow).
    if import_cap > 0.0:
        grid_import = np.minimum(residual, import_cap)
        grid_import *= residual > 1e-12
    else:
        grid_import = np.zeros(residual.shape)
    left = residual - grid_import
    if dg_kw > 0.0:
        to_dg = (left > 1e-12) & (left >= dg_min * dg_kw)
        dg_out = np.minimum(left, dg_kw)
        dg_out *= to_dg
        fuel = dg_beta * dg_out
        np.add(dg_alpha * dg_kw, fuel, out=fuel)
        # Fuel is -0.0 when both coefficients are.
        np.copyto(fuel, 0.0, where=~to_dg)
        left -= dg_out
    else:
        dg_out = np.zeros(left.shape)
        fuel = np.zeros(left.shape)
    unmet = np.multiply(left, deficit, out=left)

    # Surplus hours: export wind AC-direct, then PV through the converter
    # room left; curtail the rest.  Both surpluses can be -0.0 or 1 ulp
    # below zero, so their masks stay masked writes.
    to_export = (~deficit & ((wt_surplus > 0.0) | (pv_surplus > 0.0)) if export_cap > 0.0
                 else np.zeros(deficit.shape, dtype=bool))
    wind_export = np.minimum(wt_surplus, export_cap)
    np.copyto(wind_export, 0.0, where=~to_export)
    wt_left = wt_surplus - wind_export
    ac_possible = pv_surplus * eta
    room = conv_kw - conv_used
    np.minimum(room, ac_possible, out=ac_possible)
    export_room = np.subtract(export_cap, wind_export, out=room)
    np.minimum(export_room, ac_possible, out=ac_possible)
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


def _battery_params(conv_kw: float, catalog: Catalog, q_max: float) -> dict:
    """Keyword arguments of :func:`_battery_stage_hours` other than the
    series and the starting tanks, for a battery bank of ``q_max`` kWh."""
    spec = catalog.battery
    floor = spec.soc_min * q_max
    return dict(
        conv_kw=conv_kw, eta=catalog.converter.efficiency,
        q_max=q_max, k=spec.rate_constant_per_hr, c=spec.capacity_ratio,
        sq_eta=math.sqrt(spec.roundtrip_efficiency),
        floor_q1=spec.capacity_ratio * floor, floor_q2=(1.0 - spec.capacity_ratio) * floor,
        q_max_eff=(spec.soc_max - spec.soc_min) * q_max)


def _grid_params(design: Design, tariff: GridTariff, catalog: Catalog) -> dict:
    """Keyword arguments of :func:`_grid_stage_hours` other than the arrays."""
    grid_cap = design.grid_cap_kw if design.grid_cap_kw is not None else math.inf
    dg = catalog.diesel
    return dict(
        conv_kw=design.converter_kw, eta=catalog.converter.efficiency,
        import_cap=min(grid_cap, tariff.max_import_kw), export_cap=min(grid_cap, tariff.max_export_kw),
        dg_kw=design.dg_kw, dg_min=dg.min_load_ratio,
        dg_alpha=dg.fuel_intercept_l_per_hr_kw, dg_beta=dg.fuel_slope_l_per_hr_kw)


#: The stage store: for each live scenario object, by its ``id``, the last
#: battery stage computed with a battery (``True``) and the last without
#: (``False``).  An entry leaves when its scenario is freed.
_stages: dict[int, dict[bool, BatteryStage]] = {}


def battery_stage(scenario: Scenario, design: Design) -> BatteryStage:
    """Stages 1 and 2 of ``design``'s year on ``scenario``: the resource
    series, wind and PV serving the load, and the battery.

    The stage serves every design with the same :attr:`Design.battery_key`
    on the same scenario object.  The scenario's last stage with a battery
    and its last without are kept, and returned while the key matches; a
    new key drops the kept stage of its slot before computing its own, so
    at most two stages per scenario are alive.  The store goes by object
    identity, not by value: two equal scenarios share no stage, and a
    scenario's stages are freed with it (a ``scale_series`` variant's
    too).  Keeping is safe because a stage is a pure function of the
    scenario and the key, the scenario is frozen with read-only series, and
    the stage's arrays are read-only.
    """
    slots = _stages.get(id(scenario))
    if slots is None:
        slots = _stages[id(scenario)] = {}
        weakref.finalize(scenario, _stages.pop, id(scenario), None)
    slot = bool(design.bess_kwh)
    # Equal reprs are equal bits: a -0.0 capacity may give -0.0 flows.
    if slot in slots and repr(slots[slot].key) == repr(design.battery_key):
        return slots[slot]
    slots.pop(slot, None)   # freed before the new stage is built
    spec = scenario.catalog.battery
    # A full window, the tanks in their equilibrium split.
    stored = design.bess_kwh * spec.soc_max
    initial = BatteryState(spec.capacity_ratio * stored, (1.0 - spec.capacity_ratio) * stored)
    pv_avail = pv_series(scenario, design.pv_kw)
    wt_avail = wt_series(scenario, design.wt_kw)
    grid_inputs, battery, q1, q2 = _battery_stage_hours(
        scenario.load.values, pv_avail, wt_avail, initial.q1_kwh, initial.q2_kwh,
        **_battery_params(design.converter_kw, scenario.catalog, design.bess_kwh))
    for array in (pv_avail, wt_avail, *battery, *grid_inputs):
        array.flags.writeable = False
    stage = slots[slot] = BatteryStage(design.battery_key, pv_avail, wt_avail, *battery, grid_inputs,
                                       initial.stored_kwh, BatteryState(q1, q2))
    return stage


def discharge_windows(stage: BatteryStage) -> int:
    """How many stretches of the year a battery could discharge in, each
    between two hours that could charge it, read from a battery-less stage.

    Stage 1 does not read the battery, so any battery added to the stage's
    PV, wind and converter uses the hours :func:`_limit_and_spare` gives
    for these arrays.  So the hours that can discharge fall into runs of
    consecutive such hours that are not spare, in which the battery cannot
    charge, and spare ones, before each of which it may have charged (a
    deficit hour with converter room is spare only by a PV surplus of an
    ulp or so, from ``pv - pv * eta / eta``).
    Returns the number of those runs plus the number of those spare hours.
    Raises :class:`ValueError` for a stage with a battery, whose surpluses
    and residual already hold its charge and discharge.
    """
    if stage.key[2]:
        raise ValueError(f"discharge windows need a battery-less stage, got bess_kwh {stage.key[2]}")
    limit, spare = _limit_and_spare(stage.key[3], *stage.grid_inputs[:5])
    can = stage.grid_inputs[0] & (limit > 0.0)
    alone = can & ~spare
    return (int(alone[:1].sum()) + int(np.count_nonzero(alone[1:] > alone[:-1]))
            + int(np.count_nonzero(can & spare)))


def charge_cap_kw(bess_kwh: float, catalog: Catalog) -> float:
    """The most DC power a bank of ``bess_kwh`` takes in one hour, PV and
    wind charges together: :func:`_battery_hours`'s charge bound with both
    tanks at their floors.  The bound subtracts terms that are never
    negative from this value, so no hour charges more."""
    p = _battery_params(0.0, catalog, bess_kwh)
    k, c = p["k"], p["c"]
    r = math.exp(-k)
    return k * c * p["q_max_eff"] / ((1.0 - r) + c * (k - 1.0 + r)) / p["sq_eta"]


def max_delivery_kwh(stage: BatteryStage, bess_kwh: float, catalog: Catalog) -> float:
    """The most energy a bank of ``bess_kwh`` added to a battery-less
    stage's PV, wind and converter can deliver to the AC bus in the year.

    Stage 1 does not read the battery, so the bank uses the hours
    :func:`_limit_and_spare` gives for this stage's arrays.  Of
    :func:`_battery_hours` this keeps only the tank sum ``L``, which starts
    at ``soc_max * Q`` and stays within ``[soc_min * Q, soc_max * Q]``: a
    deficit hour with a positive limit takes at most ``limit / (eta *
    sqrt(eta_rt))`` out of it, and a spare hour at most ``sqrt(eta_rt) *
    min(charge_cap_kw, pv surplus + eta * wind surplus)`` in (an hour may
    here do both, out first).  Taking the most out and then putting the
    most in, hour by hour, delivers the most of any such sequence: where it
    takes less out than another sequence, the limit cut both or it emptied
    the tanks, so its lead in energy delivered never falls below the
    other's lead in ``L``, and a charge cannot widen the latter.
    Consecutive hours that only take, or only put, add up, so the loop runs
    once per run of them.  Each run of takes lies between two spare hours,
    draws at most ``U = (soc_max - soc_min) * Q`` and holds a window of
    :func:`discharge_windows` that no other run holds, so the bound is at
    most ``discharge_windows(stage) * U * eta * sqrt(eta_rt)``.  Raises
    :class:`ValueError` for a stage with a battery.
    """
    if stage.key[2]:
        raise ValueError(f"the delivery bound needs a battery-less stage, got bess_kwh {stage.key[2]}")
    deficit, _, pv_surplus, wt_surplus, _, _ = stage.grid_inputs
    p = _battery_params(stage.key[3], catalog, bess_kwh)
    eta, sq_eta = p["eta"], p["sq_eta"]
    limit, _ = _limit_and_spare(stage.key[3], *stage.grid_inputs[:5])
    flows = np.empty((len(limit), 2))
    flows[:, 0] = np.where(deficit & (limit > 0.0), limit, 0.0) / -(eta * sq_eta)
    charge = np.maximum(pv_surplus, 0.0) + eta * np.maximum(wt_surplus, 0.0)
    flows[:, 1] = np.minimum(charge, charge_cap_kw(bess_kwh, catalog)) * sq_eta
    flows = flows.ravel()
    flows = flows[flows != 0.0]
    if not len(flows):
        return 0.0
    into = flows > 0.0
    runs = np.add.reduceat(flows, np.flatnonzero(np.concatenate(([True], into[1:] != into[:-1]))))
    low, high = p["floor_q1"] + p["floor_q2"], p["floor_q1"] + p["floor_q2"] + p["q_max_eff"]
    level, drawn = high, 0.0
    for run in runs.tolist():
        if run < 0.0:
            out = min(level - low, -run)
            level -= out
            drawn += out
        else:
            level = min(high, level + run)
    return drawn * eta * sq_eta


def simulate_year(scenario: Scenario, design: Design) -> DispatchTrace:
    """Simulate 8760 hours of operation; deterministic for fixed inputs.

    Stages 1 and 2 come from :func:`battery_stage`, so a design whose
    :attr:`Design.battery_key` matches a stage the scenario object keeps
    runs only stage 3.  The trace is bit for bit the one a fresh stage
    gives, and it shares the stage's read-only arrays.
    """
    battery = battery_stage(scenario, design)
    grid_flows = _grid_stage_hours(*battery.grid_inputs,
                                   **_grid_params(design, scenario.tariff, scenario.catalog))
    return DispatchTrace(
        load_kw=scenario.load.values,
        pv_kw=battery.pv_kw,
        wt_kw=battery.wt_kw,
        batt_charge_kw=battery.batt_charge_kw,
        batt_discharge_kw=battery.batt_discharge_kw,
        **grid_flows,
        soc=battery.soc,
        final_battery=battery.final_battery,
        initial_stored_kwh=battery.initial_stored_kwh,
        roundtrip_efficiency=scenario.catalog.battery.roundtrip_efficiency,
    )


def write_trace_csv(trace: DispatchTrace, path: str | Path) -> None:
    """Write the hourly trace: the :data:`FLOW_FIELDS` columns plus
    ``soc``, one row per hour in hour order, each cell as ``{:.6f}``."""
    arrays = [getattr(trace, name) for name in FLOW_FIELDS] + [trace.soc]
    with open(path, "wb") as fh:
        fh.write((",".join(FLOW_FIELDS + ("soc",)) + "\n").encode())
        for start in range(0, len(trace.load_kw), _CSV_BLOCK_ROWS):
            fh.write(_format_rows(np.stack([a[start:start + _CSV_BLOCK_ROWS] for a in arrays], axis=1)))


def _format_rows(block: np.ndarray) -> bytes:
    """The CSV lines of a (rows, columns) float block, each cell as
    ``{:.6f}`` formats it.

    A cell is ``m = rint(|x| * 1e6)`` printed as ``m // 10**6``, a point
    and six digits, after a ``-`` wherever the sign bit of ``x`` is set (so
    ``-0.0`` gives ``-0.000000``, as ``format`` does); every part is looked
    up in :func:`_word_tables`, and the NUL bytes are dropped.  Below 2**52
    every half is a double, and rounding the product to the nearest double
    never carries it across one, so the product decides ``m`` unless it is
    a half itself, 2**52 or more, or not finite: a row holding such a cell
    is formatted by ``str.format``, which rounds the exact binary value.
    Every quotient here floors exactly below 2**52.
    """
    rows, cols = block.shape
    flat = block.ravel()
    scaled = np.abs(flat) * 1e6
    m = np.rint(scaled)
    with np.errstate(invalid="ignore"):
        exact = (np.abs(scaled - m) != 0.5) & (scaled < 2.0 ** 52)
    fallback = []
    if not exact.all():
        fallback = np.flatnonzero(~exact.reshape(rows, cols).all(axis=1)).tolist()
        m[~exact] = 0.0
    whole = np.floor(m / 1e6)
    frac = m - whole * 1e6
    high = np.floor(frac / 1000.0)
    top = whole.max()
    groups = 1 + int(top >= 1e3) + int(top >= 1e6) + int(top >= 1e9)
    words = np.empty((rows * cols, groups + 2), dtype=np.uint32)
    words[:, groups] = _POINT_WORDS[high.astype(np.intp)]
    words[:, groups + 1] = _COMMA_WORDS[(frac - high * 1000.0).astype(np.intp)]
    negative = np.signbit(flat) * 3000.0
    rest = whole
    for k in range(groups):  # the lowest group first
        above = np.floor(rest / 1000.0)
        state = (above > 0.0) * 1000.0 + ((rest > 0.0) * 1000.0 if k else 1000.0)
        words[:, groups - 1 - k] = _WHOLE_WORDS[(rest - above * 1000.0 + state + negative).astype(np.intp)]
        rest = above
    text = words.view(np.uint8).reshape(rows, cols, -1)
    text[:, -1, -1] = ord("\n")
    row = ",".join(["{:.6f}"] * cols) + "\n"
    pieces, start = [], 0
    for r in fallback:
        pieces += [text[start:r].tobytes().translate(None, b"\0"), row.format(*block[r].tolist()).encode()]
        start = r + 1
    return b"".join(pieces + [text[start:].tobytes().translate(None, b"\0")])
