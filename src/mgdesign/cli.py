"""Command-line front end.

Subcommands: ``validate``, ``evaluate``, ``search``, ``refine``,
``rl-search``, ``pareto``, ``sensitivity``, ``lcoe-sweep``.  Every
command is reproducible: fixed inputs and seed give byte-identical
output files.  Flags can be defaulted through environment variables
with the ``MGDESIGN_`` prefix (``MGDESIGN_SCENARIO``, ``MGDESIGN_OUT``,
``MGDESIGN_SEED``, ``MGDESIGN_JOBS``).
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import math
import os
import sys
from pathlib import Path

from . import optimize, sensitivity
from .dispatch import CAPACITIES, Design, simulate_year, write_trace_csv
from .metrics import METRIC_FIELDS, Evaluator, MetricVector, cost_record, evaluate, metric_record, npc
from .optimize import EmptyInputError, PolicyConfig, SearchSpace, Weights
from .scenario import NotUtf8Error, bundled_data_path, bundled_scenario, load_scenario
from .tables import csv_column, write_table


class ConfigError(ValueError):
    """Bad command-line or environment configuration."""


def _env(name: str, fallback: str | None = None) -> str | None:
    return os.environ.get(f"MGDESIGN_{name}", fallback)


def _number(convert, accept, expected: str):
    """An argparse ``type``: ``convert(text)`` where ``accept`` holds of it,
    else an error ``expected <expected>, got '<text>'``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


_finite = _number(float, math.isfinite, "a finite number")
_non_negative = _number(float, lambda value: 0.0 <= value < math.inf, "a finite number >= 0")


def _finite_list(text: str) -> list[float]:
    """Comma-separated finite numbers (an argparse ``type``)."""
    return [_finite(part) for part in text.split(",")]


def _at_least(minimum: int):
    """An argparse ``type``: an integer no smaller than ``minimum``."""
    return _number(int, lambda value: value >= minimum, f"an integer >= {minimum}")


def _weights(text: str) -> Weights:
    """Scalarization weights ``w_npc,w_rel,w_eff,w_co2`` (an argparse ``type``)."""
    try:
        return Weights.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common(parser: argparse.ArgumentParser, design: bool = False, space: bool = False) -> None:
    parser.add_argument("--scenario", default=_env("SCENARIO"),
                        help="scenario YAML (default: the bundled synthetic community)")
    parser.add_argument("--out", default=_env("OUT", "mgdesign_out"),
                        help="output directory (default: %(default)s)")
    parser.add_argument("--seed", type=_at_least(0), default=_env("SEED", "42"),
                        help="random seed for stochastic commands (default: %(default)s)")
    parser.add_argument("--jobs", type=_at_least(1), default=_env("JOBS", "1"),
                        help="worker processes for search; other commands ignore it (default: %(default)s)")
    if design:
        parser.add_argument("--design", required=True,
                            help="capacities, e.g. pv=418,wt=123,dg=0,bess=704,conv=255[,grid=300]")
    if space:
        parser.add_argument("--space", required=True,
                            help="lattice axes, e.g. pv=0:500:125,bess=0:800:200,conv=255")
        parser.add_argument("--grid-cap", type=_non_negative, default=None,
                            help="explicit grid capacity kW (default: largest diesel in the space)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgdesign",
        description="Grid-tied community microgrid design toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file against all invariants")
    _add_common(p)

    p = sub.add_parser("evaluate", help="simulate one design and report its metrics")
    _add_common(p, design=True)
    p.add_argument("--trace", action="store_true", help="also write the hourly dispatch trace")

    p = sub.add_parser("search", help="enumerate a capacity lattice and rank by cost")
    _add_common(p, space=True)
    p.add_argument("--budget", type=_finite, default=None, help="capital + first-year O&M budget in $")
    p.add_argument("--weights", type=_weights, default="0.25,0.25,0.25,0.25",
                   help="scalarization weights w_npc,w_rel,w_eff,w_co2 (default equal)")

    p = sub.add_parser("refine", help="derivative-free cost refinement from a starting design")
    _add_common(p, design=True)
    p.add_argument("--tolerance", type=_finite, default=1.0, help="stop once steps shrink below this (kW/kWh)")
    p.add_argument("--max-cycles", type=_at_least(0), default=200)

    p = sub.add_parser("rl-search", help="policy-gradient Pareto front exploration")
    _add_common(p, space=True)
    p.add_argument("--episodes", type=_at_least(1), default=500)
    p.add_argument("--learning-rate", type=_finite, default=0.2)

    p = sub.add_parser("pareto", help="flag non-dominated rows in a search results CSV")
    _add_common(p)
    p.add_argument("--results", required=True, help="CSV produced by the search command")

    p = sub.add_parser("sensitivity", help="metric deviations under load/PV/wind perturbations")
    _add_common(p, design=True)

    p = sub.add_parser("lcoe-sweep", help="LCOE response to economic parameters")
    _add_common(p, design=True)
    p.add_argument("--parameter", choices=[s.value for s in sensitivity.SweepParameter] + ["all"],
                   default="all")
    p.add_argument("--multipliers", type=_finite_list, default="0.8,0.9,1.0,1.1,1.2")
    return parser


def _load_scenario(args) -> "Scenario":
    if args.scenario:
        return load_scenario(args.scenario)
    return bundled_scenario()


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _print_metrics(metrics: MetricVector) -> None:
    record = metric_record(metrics)
    width = max(len(k) for k in record)
    for key, value in record.items():
        print(f"  {key:<{width}}  {value:,.6g}")


def _write_record(record: dict, path: Path) -> None:
    """A one-row table: the keys as the header, the values as the row."""
    write_table(path, list(record), [[cell] for cell in csv_column(record.values())])


def _write_metrics_csv(metrics: MetricVector, design: Design, path: Path) -> None:
    _write_record({**{f: getattr(design, f) for f in optimize.DESIGN_FIELDS}, **metric_record(metrics)}, path)


def cmd_validate(args) -> int:
    scenario = _load_scenario(args)
    source = args.scenario or str(bundled_data_path() / "scenario.yaml")
    print(f"scenario OK: {scenario.name} ({source})")
    print(f"  hours: {len(scenario.load)}  annual load: {scenario.load.values.sum():,.1f} kWh")
    return 0


def cmd_evaluate(args) -> int:
    scenario = _load_scenario(args)
    design = Design.from_string(args.design)
    out = _outdir(args)
    trace = simulate_year(scenario, design)
    metrics = evaluate(design, scenario, trace=trace)
    _, costs = npc(trace, design, scenario)
    print(f"design {args.design} on scenario {scenario.name}:")
    _print_metrics(metrics)
    _write_metrics_csv(metrics, design, out / "metrics.csv")
    _write_record(cost_record(costs), out / "costs.csv")
    if args.trace:
        write_trace_csv(trace, out / "trace.csv")
    print(f"wrote {out / 'metrics.csv'} and {out / 'costs.csv'}")
    return 0


def cmd_search(args) -> int:
    scenario = _load_scenario(args)
    space = SearchSpace.from_string(args.space, grid_cap_kw=args.grid_cap)
    out = _outdir(args)
    results = optimize.grid_search(Evaluator(scenario, jobs=args.jobs), space, budget_usd=args.budget)
    if not results:
        raise EmptyInputError("no feasible design in the search space")
    optimize.write_evaluations_csv(results, out / "results.csv")
    front = optimize.write_pareto_csv(results, out / "pareto.csv")
    best = optimize.select_best(results, args.weights)
    print(f"evaluated {space.candidate_count()} candidates, {len(results)} feasible, "
          f"{len(front)} non-dominated")
    print(f"lowest NPC: {_design_label(results[0].design)} at ${results[0].metrics.npc_usd:,.0f}")
    print(f"weighted pick ({','.join(map(str, args.weights.as_tuple()))}): {_design_label(best.design)}")
    _print_metrics(best.metrics)
    print(f"wrote {out / 'results.csv'} and {out / 'pareto.csv'}")
    return 0


def _report_evaluations(requested: int, evaluator: Evaluator) -> None:
    """Evaluation counts on stderr, so stdout and output files stay as they
    were: the requests, the designs requested and simulated, the designs
    ruled out by an NPC floor without a simulation, the repeats of either,
    and the battery-less twins simulated only for a floor."""
    twins, ruled_out = evaluator.twins, evaluator.ruled_out
    simulated = evaluator.simulated - twins
    print(f"evaluations: {requested} requested, {simulated} simulated, {ruled_out} ruled out, "
          f"{requested - simulated - ruled_out} reused, {twins} twins", file=sys.stderr)


def _design_label(design: Design) -> str:
    """The design as :meth:`~mgdesign.dispatch.Design.from_string` reads it
    back: every capacity, then ``grid=`` if it has a grid cap.  A value is
    printed in ``:g`` form unless that rounds it, then in full."""
    values = {short: getattr(design, name) for short, name in CAPACITIES.items()}
    if design.grid_cap_kw is not None:
        values["grid"] = design.grid_cap_kw
    return ",".join(f"{short}={value:g}" if float(f"{value:g}") == value else f"{short}={value!r}"
                    for short, value in values.items())


def cmd_refine(args) -> int:
    scenario = _load_scenario(args)
    start = Design.from_string(args.design)
    out = _outdir(args)
    evaluator = Evaluator(scenario)
    result = optimize.refine(start, optimize.npc_objective(evaluator),
                             tolerance=args.tolerance, max_cycles=args.max_cycles)
    metrics = evaluator(result.design)  # scored by the search, so not simulated again
    print(f"refined {_design_label(start)} -> {_design_label(result.design)} "
          f"in {result.cycles} cycles ({result.evaluations} evaluations)")
    _report_evaluations(result.evaluations, evaluator)
    _print_metrics(metrics)
    _write_metrics_csv(metrics, result.design, out / "refined.csv")
    print(f"wrote {out / 'refined.csv'}")
    return 0


def cmd_rl_search(args) -> int:
    evaluator = Evaluator(_load_scenario(args))
    space = SearchSpace.from_string(args.space, grid_cap_kw=args.grid_cap)
    out = _outdir(args)
    config = PolicyConfig(episodes=args.episodes, learning_rate=args.learning_rate)
    result = optimize.policy_gradient_search(evaluator, space, config, seed=args.seed)
    episodes = len(result.archive)
    _report_evaluations(episodes, evaluator)
    optimize.write_evaluations_csv(result.archive, out / "rl_archive.csv")
    optimize.write_evaluations_csv(result.front, out / "rl_pareto.csv", with_front_rank=True)
    print(f"{episodes} episodes, archive {episodes}, front {len(result.front)}")
    for name, probs in result.probabilities.items():
        top = probs.argmax()
        values = space.axis_values()[name]
        print(f"  {name:<12} favors {values[top]:g} (p={probs[top]:.3f})")
    print(f"wrote {out / 'rl_archive.csv'} and {out / 'rl_pareto.csv'}")
    return 0


def cmd_pareto(args) -> int:
    out = _outdir(args)
    columns = _read_results_csv(Path(args.results))
    path = out / "pareto_plotdata.csv"
    ranks = optimize.write_evaluations_csv(columns, path, with_front_rank=True)
    front = int((ranks == 0).sum())
    print(f"{len(ranks)} points, {front} non-dominated")
    print(f"wrote {path}")
    return 0


#: Columns a results file must have.  Without ``grid_cap_kw`` no design
#: has a grid cap; without ``feasible`` every design is feasible.
_REQUIRED_COLUMNS = optimize.DESIGN_FIELDS[:-1] + METRIC_FIELDS


def _read_results_csv(path: Path) -> dict[str, list]:
    """The columns of a results CSV by :data:`~mgdesign.optimize.RESULT_FIELDS`
    name: floats, None for an empty ``grid_cap_kw``, and ``feasible`` from
    its ``1`` / ``0`` cells.  A leading byte-order mark and blank lines are
    skipped.  A missing column, a short row, a bad cell or a line the CSV
    parser rejects raises :class:`ConfigError`, and a byte that is not
    UTF-8 :class:`~mgdesign.scenario.NotUtf8Error`."""
    if not path.exists():
        raise ConfigError(f"results file not found: {path}")
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            numbered = [(reader.line_num, row) for row in reader if row]
        except csv.Error as exc:
            raise ConfigError(f"{path}, line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise NotUtf8Error(path) from None
    if not numbered:
        raise EmptyInputError(f"no rows in {path}")
    index = {name: i for i, name in enumerate(header)}
    missing = [name for name in _REQUIRED_COLUMNS if name not in index]
    if missing:
        raise ConfigError(f"{path}: missing columns {', '.join(missing)}")
    used = [name for name in optimize.RESULT_FIELDS if name in index]
    width = 1 + max(index[name] for name in used)
    lines, rows = zip(*numbered)
    cells = list(zip(*rows))  # as many columns as the shortest row has
    if len(cells) < width:
        line, row = next((line, row) for line, row in numbered if len(row) < width)
        name = next(name for name in used if index[name] >= len(row))
        raise ConfigError(f"{path}, line {line}: the row ends before column {name}")

    def column(name: str, convert=float, expected: str = "a number") -> list:
        try:
            return list(map(convert, cells[index[name]]))
        except ValueError:
            for line, value in zip(lines, cells[index[name]]):
                try:
                    convert(value)
                except ValueError:
                    raise ConfigError(f"{path}, line {line}, column {name}: not {expected}: {value!r}") from None
            raise

    columns = {name: column(name) for name in _REQUIRED_COLUMNS}
    columns["grid_cap_kw"] = (column("grid_cap_kw", lambda v: float(v) if v else None)
                              if "grid_cap_kw" in index else [None] * len(rows))
    columns["feasible"] = (column("feasible", lambda v: bool(("0", "1").index(v)), "0 or 1")
                           if "feasible" in index else [True] * len(rows))
    return columns


def cmd_sensitivity(args) -> int:
    scenario = _load_scenario(args)
    design = Design.from_string(args.design)
    out = _outdir(args)
    rows = sensitivity.deviation_table(scenario, design)
    sensitivity.write_deviation_csv(rows, out / "sensitivity.csv")
    print(f"{'parameter':<12} {'delta%':>7} {'dNPC%':>8} {'dRel':>8} {'dEff%':>8} {'dCO2%':>8}")
    for row in rows:
        print(f"{row.target.value:<12} {row.delta * 100:>7.0f} {row.npc_dev_pct:>8.2f} "
              f"{row.reliability_dev:>8.4f} {row.efficiency_dev_pct:>8.2f} {row.co2_dev_pct:>8.2f}")
    print(f"wrote {out / 'sensitivity.csv'}")
    return 0


def cmd_lcoe_sweep(args) -> int:
    scenario = _load_scenario(args)
    design = Design.from_string(args.design)
    out = _outdir(args)
    parameters = (list(sensitivity.SweepParameter) if args.parameter == "all"
                  else [sensitivity.SweepParameter(args.parameter)])
    trace = simulate_year(scenario, design)
    curves = {p: sensitivity.lcoe_sweep(scenario, design, p, args.multipliers, trace=trace) for p in parameters}
    for parameter, curve in curves.items():
        path = out / f"lcoe_{parameter.value}.csv"
        sensitivity.write_sweep_csv(curve, path)
        lo, hi = min(v for _, v in curve), max(v for _, v in curve)
        print(f"{parameter.value:<16} lcoe {lo:.4f} .. {hi:.4f} $/kWh  -> {path}")
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "evaluate": cmd_evaluate,
    "search": cmd_search,
    "refine": cmd_refine,
    "rl-search": cmd_rl_search,
    "pareto": cmd_pareto,
    "sensitivity": cmd_sensitivity,
    "lcoe-sweep": cmd_lcoe_sweep,
}


#: glibc's ``mallopt`` parameters (``malloc.h``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_heap() -> None:
    """Ask glibc to keep freed heap memory for the process's next arrays.

    By default glibc hands freed memory back to the system once 128 KiB are
    free at the top of the heap, so every year-long array of a simulation
    comes back as fresh pages, one page fault per 4 KiB.  A trim threshold
    of 256 MiB keeps them.  Setting it switches off glibc's sliding mmap
    threshold, so the mmap threshold is raised as well (to 32 MiB, its
    largest), or every block of 128 KiB or more would be a fresh mmap.
    Changes no result.  Linux only, and nothing happens where the C
    library has no ``mallopt``.  Forked ``search`` workers inherit it.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def main(argv: list[str] | None = None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
