"""mgdesign: design toolkit for grid-tied community microgrids.

Simulates one year of hourly operation of PV / wind / diesel / battery
designs against a scenario, scores them on net present cost, supply
reliability, system efficiency, and net CO2, and searches the design
space with lattice enumeration, coordinate refinement, Pareto filtering,
weighted scalarization, and a policy-gradient explorer.
"""

from .components import (
    BatteryState,
    BoundViolationError,
    bess_max_charge,
    bess_max_discharge,
    bess_step,
)
from .dispatch import (
    Design,
    DispatchTrace,
    InvalidDesignError,
    PowerFlow,
    simulate_year,
    step_hour,
    write_trace_csv,
)
from .metrics import (
    CostBreakdown,
    MetricVector,
    ZeroEnergyServedError,
    ZeroInputError,
    co2_delta,
    crf,
    efficiency,
    evaluate,
    lcoe,
    lpsp,
    metric_record,
    npc,
    reliability,
)
from .optimize import (
    EmptyInputError,
    EmptySearchSpaceError,
    EvaluatedDesign,
    NormalizationBounds,
    PolicyConfig,
    PolicySearchResult,
    Range,
    RefineResult,
    SearchSpace,
    Weights,
    default_weight_cycle,
    grid_search,
    pareto_filter,
    pareto_mask,
    pareto_ranks,
    policy_gradient_search,
    refine,
    scalarize,
    select_best,
    write_evaluations_csv,
    write_pareto_csv,
)
from .scenario import (
    Catalog,
    Economics,
    GridTariff,
    LengthMismatchError,
    Scenario,
    ScenarioValidationError,
    TimeSeries,
    TimeSeriesParseError,
    Unit,
    bundled_scenario,
    load_scenario,
    load_timeseries,
    synthesize_irradiance,
    synthesize_load,
    synthesize_wind_speed,
    validate_scenario,
    write_timeseries,
)
from .sensitivity import (
    DeviationRow,
    Perturbation,
    PerturbTarget,
    SweepParameter,
    deviation_table,
    lcoe_sweep,
    perturb_and_evaluate,
)

__version__ = "0.1.0"
