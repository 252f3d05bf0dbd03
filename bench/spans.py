"""In-memory spans around the public functions of each ``mgdesign`` module.

The benchmark wraps the functions from outside the package: every module
attribute that refers to a wrapped function (``cli`` and ``sensitivity``
import theirs by name) is replaced for the duration of a traced study and
restored afterwards.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, request, info]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``request`` the index of the
CLI call that caused it, and ``info`` what a hook recorded from the
arguments or result.  Hooks run inside ``bench.*`` spans so their cost is
subtracted from every layer's self time and shows only as tracing overhead.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
from dataclasses import fields, is_dataclass
from time import perf_counter

import numpy as np

#: (span layer, modules to look in, function names).  The resource series
#: live in ``dispatch`` today; a later change moves them to ``components``.
TARGETS = (
    ("scenario", ("scenario",), ("load_scenario", "bundled_scenario", "scale_series")),
    ("components", ("components", "dispatch"), ("pv_series", "wt_series")),
    ("dispatch", ("dispatch",), ("simulate_year", "write_trace_csv")),
    ("metrics", ("metrics",), ("evaluate", "npc")),
    ("optimize", ("optimize",), ("grid_search", "refine", "policy_gradient_search",
                                 "pareto_mask", "pareto_ranks",
                                 "write_evaluations_csv", "write_pareto_csv")),
    ("sensitivity", ("sensitivity",), ("deviation_table", "perturb_and_evaluate", "lcoe_sweep",
                                       "write_deviation_csv", "write_sweep_csv")),
    ("cli", ("cli",), ("main",)),
)

#: The 13 hourly arrays of a ``DispatchTrace``.
TRACE_ARRAYS = ("load_kw", "pv_kw", "wt_kw", "dg_kw", "batt_charge_kw", "batt_discharge_kw",
                "grid_import_kw", "grid_export_kw", "unmet_kw", "curtailed_kw",
                "fuel_l_per_hr", "conversion_loss_kw", "soc")


def balance_max_kw(trace) -> float:
    """Worst hourly |supply - use| of a dispatch trace, in kW."""
    supply = trace.pv_kw + trace.wt_kw + trace.dg_kw + trace.batt_discharge_kw + trace.grid_import_kw
    use = (trace.load_kw - trace.unmet_kw + trace.batt_charge_kw + trace.grid_export_kw
           + trace.curtailed_kw + trace.conversion_loss_kw)
    return float(np.abs(supply - use).max())


def _fingerprint(value, digest) -> None:
    if isinstance(value, np.ndarray):
        digest.update(np.ascontiguousarray(value).tobytes())
    elif is_dataclass(value):
        for f in fields(value):
            digest.update(f.name.encode())
            _fingerprint(getattr(value, f.name), digest)
    else:
        digest.update(repr(value).encode())


class Recorder:
    """Collects spans while installed; ``uninstall`` restores the package."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._scenarios: dict[int, tuple[object, str]] = {}
        self._hooks = {
            "dispatch.simulate_year": self._on_simulate,
            "metrics.evaluate": self._on_evaluate,
            "optimize.pareto_mask": lambda bound, result: {"n": len(bound.arguments["points"])},
            "optimize.pareto_ranks": lambda bound, result: {
                "n": len(result), "fronts": int(result.max()) + 1 if len(result) else 0},
            "sensitivity.deviation_table": lambda bound, result: {"rows": len(result)},
            "sensitivity.lcoe_sweep": lambda bound, result: {"points": len(result)},
        }

    # -- installation ---------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every target; return the names not found, whose metrics stay 0
        (a later refactor may merge or move them)."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "mgdesign" or name.startswith("mgdesign."))]
        missing = []
        for layer, homes, names in TARGETS:
            for fn_name in names:
                original = None
                for home in homes:
                    original = getattr(importlib.import_module(f"mgdesign.{home}"), fn_name, None)
                    if original is not None:
                        break
                if original is None:
                    missing.append(f"{layer}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        return missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                side = ["bench.hook", perf_counter(), 0.0, parent, self.request, None]
                spans.append(side)
                span[5] = hook(signature.bind(*args, **kwargs), result)
                side[2] = perf_counter()
            return result

        return traced

    # -- hooks ----------------------------------------------------------

    def _on_simulate(self, bound, result) -> dict:
        return {"hours": len(result.load_kw),
                "bytes": sum(getattr(result, a).nbytes for a in TRACE_ARRAYS),
                "balance": balance_max_kw(result)}

    def _on_evaluate(self, bound, result) -> dict:
        scenario = bound.arguments["scenario"]
        known = self._scenarios.get(id(scenario))
        if known is None:
            digest = hashlib.sha1()
            _fingerprint(scenario, digest)
            known = (scenario, digest.hexdigest())  # holding the object keeps its id unique
            self._scenarios[id(scenario)] = known
        return {"key": (bound.arguments["design"], known[1])}


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

LAYER_METRICS = (
    ("scenario.load_s", "s"), ("scenario.perturb_calls", "count"), ("scenario.perturb_s", "s"),
    ("components.resource_calls", "count"), ("components.resource_s", "s"),
    ("dispatch.sim_calls", "count"), ("dispatch.sim_s", "s"),
    ("dispatch.sim_ms_p50", "ms"), ("dispatch.sim_ms_p90", "ms"),
    ("dispatch.hours_per_s", "1/s"), ("dispatch.trace_mb", "MB"),
    ("dispatch.write_trace_s", "s"), ("dispatch.balance_max_kw", "kW"),
    ("metrics.eval_calls", "count"), ("metrics.distinct_ratio", "ratio"),
    ("metrics.sims_per_eval", "ratio"), ("metrics.cost_s", "s"),
    ("optimize.pareto_calls", "count"), ("optimize.pareto_points", "count"),
    ("optimize.fronts", "count"), ("optimize.pareto_s", "s"),
    ("optimize.policy_s", "s"), ("optimize.refine_s", "s"), ("optimize.csv_s", "s"),
    ("optimize.rl_distinct_ratio", "ratio"), ("optimize.refine_distinct_ratio", "ratio"),
    ("sensitivity.rows", "count"), ("sensitivity.recost_points", "count"),
    ("sensitivity.self_s", "s"),
    ("cli.command_s", "s"), ("cli.self_s", "s"),
)
#: Counts that must repeat exactly between traced repetitions of one seed.
EXACT_COUNTS = ("dispatch.sim_calls", "metrics.eval_calls", "metrics.distinct_designs", "optimize.fronts")

_SCENARIO_LOADS = ("scenario.load_scenario", "scenario.bundled_scenario")
_PARETO = ("optimize.pareto_mask", "optimize.pareto_ranks")
_CSV = ("optimize.write_evaluations_csv", "optimize.write_pareto_csv")
_SENSITIVITY = ("sensitivity.deviation_table", "sensitivity.perturb_and_evaluate",
                "sensitivity.lcoe_sweep", "sensitivity.write_deviation_csv", "sensitivity.write_sweep_csv")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover
    (children of one span never overlap: the study is single-threaded)."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _outermost(spans: list[list], index: int, names: tuple[str, ...]) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return False
        parent = spans[parent][3]
    return True


def _under(spans: list[list], index: int, name: str) -> int:
    """Index of the nearest ancestor called ``name``, or -1."""
    parent = spans[index][3]
    while parent >= 0 and spans[parent][0] != name:
        parent = spans[parent][3]
    return parent


def _distinct_ratio(spans: list[list], evals: list[int], scope: str) -> float:
    groups: dict[int, list] = {}
    for i in evals:
        top = _under(spans, i, scope)
        if top >= 0:
            groups.setdefault(top, []).append(spans[i][5]["key"])
    total = sum(len(keys) for keys in groups.values())
    return sum(len(set(keys)) for keys in groups.values()) / total if total else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The per-layer metrics of one traced study (see NOTES.md)."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(*names: str) -> list[int]:
        return [i for n in names for i in by_name.get(n, [])]

    def total(indices) -> float:
        return float(sum(spans[i][2] - spans[i][1] for i in indices))

    def self_total(indices) -> float:
        return float(sum(own[i] for i in indices))

    sims = idx("dispatch.simulate_year")
    sim_ms = np.array([(spans[i][2] - spans[i][1]) * 1e3 for i in sims]) if sims else np.zeros(1)
    evals = idx("metrics.evaluate")
    # Memoization can only reuse an evaluation within one CLI call.
    per_request: dict[int, set] = {}
    for i in evals:
        per_request.setdefault(spans[i][4], set()).add(spans[i][5]["key"])
    distinct = sum(len(keys) for keys in per_request.values())
    pareto_top = [i for i in idx(*_PARETO) if _outermost(spans, i, _PARETO)]
    return {
        "scenario.load_s": total(i for i in idx(*_SCENARIO_LOADS) if _outermost(spans, i, _SCENARIO_LOADS)),
        "scenario.perturb_calls": len(idx("scenario.scale_series")),
        "scenario.perturb_s": total(idx("scenario.scale_series")),
        "components.resource_calls": len(idx("components.pv_series", "components.wt_series")),
        "components.resource_s": total(idx("components.pv_series", "components.wt_series")),
        "dispatch.sim_calls": len(sims),
        "dispatch.sim_s": self_total(sims),
        "dispatch.sim_ms_p50": float(np.percentile(sim_ms, 50)) if sims else 0.0,
        "dispatch.sim_ms_p90": float(np.percentile(sim_ms, 90)) if sims else 0.0,
        "dispatch.hours_per_s": (sum(spans[i][5]["hours"] for i in sims) / total(sims)) if sims else 0.0,
        "dispatch.trace_mb": sum(spans[i][5]["bytes"] for i in sims) / 1e6,
        "dispatch.write_trace_s": total(idx("dispatch.write_trace_csv")),
        "dispatch.balance_max_kw": max((spans[i][5]["balance"] for i in sims), default=0.0),
        "metrics.eval_calls": len(evals),
        "metrics.distinct_designs": distinct,
        "metrics.distinct_ratio": distinct / len(evals) if evals else 0.0,
        "metrics.sims_per_eval": len(sims) / len(evals) if evals else 0.0,
        "metrics.cost_s": self_total(idx("metrics.evaluate", "metrics.npc")),
        "optimize.pareto_calls": len(idx(*_PARETO)),
        "optimize.pareto_points": sum(spans[i][5]["n"] for i in pareto_top),
        "optimize.fronts": sum(spans[i][5]["fronts"] for i in idx("optimize.pareto_ranks")),
        "optimize.pareto_s": total(pareto_top),
        "optimize.policy_s": self_total(idx("optimize.policy_gradient_search")),
        "optimize.refine_s": self_total(idx("optimize.refine")),
        "optimize.csv_s": self_total(idx(*_CSV)),
        "optimize.rl_distinct_ratio": _distinct_ratio(spans, evals, "optimize.policy_gradient_search"),
        "optimize.refine_distinct_ratio": _distinct_ratio(spans, evals, "optimize.refine"),
        "sensitivity.rows": sum(spans[i][5]["rows"] for i in idx("sensitivity.deviation_table")),
        "sensitivity.recost_points": sum(spans[i][5]["points"] for i in idx("sensitivity.lcoe_sweep")),
        "sensitivity.self_s": self_total(idx(*_SENSITIVITY)),
        "cli.command_s": total(idx("cli.main")),
        "cli.self_s": self_total(idx("cli.main")),
    }
