"""Record ``reference.json``: the outputs every seed's checks compare with.

Usage, from the repository root::

    PYTHONPATH=src python3 bench/record_reference.py

Computed through the library API rather than the CLI, for every variant
that ``inputs`` can pick: the 8 lattices, the 20-design RL lattice, the 8
refine starts and the sensitivity designs.  Takes a few minutes.  Re-record
only when a change is meant to alter results; the checks exist to show
that a faster path reproduces these numbers.
"""

import json
import platform
from pathlib import Path

import numpy as np

import inputs
from checks import design_key
from mgdesign import optimize, sensitivity
from mgdesign.dispatch import Design, simulate_year
from mgdesign.metrics import COST_FIELDS, evaluate, npc
from mgdesign.scenario import bundled_scenario


def _key(design: Design) -> str:
    return design_key(getattr(design, f) for f in inputs.DESIGN_FIELDS)


def _vector(metrics) -> list[float]:
    return [getattr(metrics, f) for f in inputs.METRIC_FIELDS]


def _lattice(scenario, space_text: str) -> dict[str, list[float]]:
    space = optimize.SearchSpace.from_string(space_text)
    return {_key(d): _vector(evaluate(d, scenario)) for d in space.designs()}


def _refine(scenario, start: str) -> dict:
    result = optimize.refine(Design.from_string(start), lambda d: evaluate(d, scenario).npc_usd)
    return {"start": start, "design": _key(result.design), "evaluations": result.evaluations,
            "metrics": _vector(evaluate(result.design, scenario))}


def _sensitivity(scenario, text: str) -> dict:
    design = Design.from_string(text)
    trace = simulate_year(scenario, design)
    _, costs = npc(trace, design, scenario)
    return {
        "metrics": _vector(evaluate(design, scenario, trace=trace)),
        "costs": [getattr(costs, f) for f in COST_FIELDS],
        "deviation": [[row.target.value, float(f"{row.delta * 100.0:.6g}"), row.npc_dev_pct,
                       row.reliability_dev, row.efficiency_dev_pct, row.co2_dev_pct]
                      for row in sensitivity.deviation_table(scenario, design)],
        "lcoe": {p: [list(point) for point in sensitivity.lcoe_sweep(
            scenario, design, sensitivity.SweepParameter(p), list(inputs.LCOE_MULTIPLIERS))]
            for p in inputs.LCOE_PARAMETERS},
    }


def main() -> None:
    scenario = bundled_scenario()
    reference = {
        "recorded_with": {"python": platform.python_version(), "numpy": np.__version__},
        "metric_fields": list(inputs.METRIC_FIELDS),
        "lattice": [_lattice(scenario, inputs.lattice_space(v)) for v in range(len(inputs.LATTICE_OFFSETS))],
        "rl": _lattice(scenario, inputs.RL_SPACE),
        "refine": [_refine(scenario, start) for start in inputs.REFINE_STARTS],
        "sensitivity": {d: _sensitivity(scenario, d) for d in (inputs.A5,) + inputs.SENSITIVITY_DESIGNS},
    }
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
