"""mgdesign: design toolkit for grid-tied community microgrids.

Simulates one year of hourly operation of PV / wind / diesel / battery
designs against a scenario, scores them on net present cost, supply
reliability, system efficiency, and net CO2, and searches the design
space with lattice enumeration, coordinate refinement, Pareto filtering,
weighted scalarization, and a policy-gradient explorer.

Everything public lives in its module (``mgdesign.dispatch``,
``mgdesign.optimize``, ...); the package re-exports the names the README
and the demos use.
"""

from .dispatch import Design, simulate_year, write_trace_csv
from .metrics import Evaluator, evaluate, npc
from .optimize import (
    PolicyConfig,
    SearchSpace,
    Weights,
    grid_search,
    pareto_mask,
    pareto_ranks,
    policy_gradient_search,
    select_best,
    write_evaluations_csv,
)
from .scenario import bundled_scenario, synthesize_load
from .sensitivity import SweepParameter, deviation_table, lcoe_sweep

__version__ = "0.1.0"
