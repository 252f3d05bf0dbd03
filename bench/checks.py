"""Output checks of one workload repetition.

Every check is one ``(name, ok, detail)`` entry; ``error_rate`` is failed
checks over checks attempted.  Checks compare the program's output files
with ``reference.json`` (within 1e-9 relative), with a brute-force Pareto
oracle written here, and with the row counts the inputs imply.
"""

from __future__ import annotations

import csv
import re
from pathlib import Path

import numpy as np

import inputs

REL_TOL = 1e-9
#: Floor for values whose reference is 0 (e.g. an LPSP of 0).
ABS_TOL = 1e-12
#: ``write_trace_csv`` rounds to 6 decimals.
TRACE_CSV_TOL = 6e-7
BALANCE_TOL_KW = 1e-6


class Checks:
    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]


def close(a: float, b: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def all_close(values, reference) -> bool:
    return len(values) == len(reference) and all(close(float(a), float(b)) for a, b in zip(values, reference))


def design_key(cells) -> str:
    """Canonical text of a design's six capacity cells ('' = no grid cap)."""
    return ",".join("" if c in ("", None) else repr(float(c)) for c in cells)


def read_csv(checks: Checks, path: Path, rows: int | None, columns: tuple[str, ...] = ()) -> list[dict] | None:
    """Parse ``path``; one check that it parses, has ``columns`` and, when
    given, exactly ``rows`` data rows."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            table = list(csv.DictReader(fh))
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        checks.add(f"{path.name} parses", False, f"{type(exc).__name__}: {exc}")
        return None
    header = set(table[0]) if table else set()
    missing = [c for c in columns if c not in header]
    ok = not missing and (rows is None or len(table) == rows)
    checks.add(f"{path.name} parses with {rows if rows is not None else 'any'} rows", ok,
               f"{len(table)} rows, missing columns {missing}")
    return table if ok else None


def _metrics(row: dict) -> list[float]:
    return [float(row[f]) for f in inputs.METRIC_FIELDS]


def _design(row: dict) -> str:
    return design_key(row[f] for f in inputs.DESIGN_FIELDS)


# ----------------------------------------------------------------------
# Pareto oracle
# ----------------------------------------------------------------------

def minimization_matrix(rows: list[dict]) -> np.ndarray:
    """(npc, -reliability, -efficiency, co2): lower is better everywhere."""
    return np.array([[float(r["npc_usd"]), -float(r["reliability"]),
                      -float(r["efficiency_pct"]), float(r["co2_kg_per_yr"])] for r in rows])


def oracle_ranks(m: np.ndarray) -> np.ndarray:
    """Front index per point by the definition: point j is dominated by i
    when i is no worse in every objective and better in one (so duplicates
    never dominate each other); front 0 is the undominated points, front
    k the undominated points once fronts 0..k-1 are removed."""
    n = len(m)
    dominated_by = np.zeros((n, n), dtype=bool)  # [j, i]: i dominates j
    for j in range(n):
        dominated_by[j] = np.all(m <= m[j], axis=1) & np.any(m < m[j], axis=1)
    ranks = np.full(n, -1)
    remaining = np.ones(n, dtype=bool)
    front = 0
    while remaining.any():
        current = remaining & ~dominated_by[:, remaining].any(axis=1)
        ranks[current] = front
        remaining &= ~current
        front += 1
    return ranks


def _check_front(checks: Checks, name: str, source: list[dict], front_rows: list[dict]) -> None:
    """``front_rows`` must be the non-dominated rows of ``source`` in source
    order, each flagged non-dominated with front rank 0."""
    keep = oracle_ranks(minimization_matrix(source)) == 0
    expected = [(_design(r), _metrics(r)) for r, k in zip(source, keep) if k]
    got = [(_design(r), _metrics(r)) for r in front_rows]
    same = len(got) == len(expected) and all(
        a[0] == b[0] and all_close(a[1], b[1]) for a, b in zip(got, expected))
    checks.add(f"{name} is the oracle front", same, f"{len(got)} rows, oracle {len(expected)}")
    flags = all(r["non_dominated"] == "1" and r["front_rank"] == "0" for r in front_rows)
    checks.add(f"{name} flags rank 0", flags)


# ----------------------------------------------------------------------
# Per-workload checks
# ----------------------------------------------------------------------

def check(study: inputs.Study, worker: dict, reference: dict) -> Checks:
    checks = Checks()
    codes = worker.get("codes", [])
    for argv, code in zip(study.calls, codes):
        checks.add(f"mgdesign {argv[0]} exits 0", code == 0, f"exit {code}")
    if len(codes) != len(study.calls):
        checks.add("every CLI call ran", False, f"{len(codes)} of {len(study.calls)}")
    for trace in worker.get("traces", []):
        if "error" in trace:
            checks.add(f"{trace['path']} readable", False, trace["error"])
            continue
        checks.add("trace has 8760 rows", trace["rows"] == 8760, str(trace["rows"]))
        checks.add("trace balance <= 1e-6 kW", trace["balance_max_kw"] <= BALANCE_TOL_KW,
                   f"{trace['balance_max_kw']:.3e} kW")
        checks.add("trace.csv matches the simulation", trace["csv_max_diff"] <= TRACE_CSV_TOL,
                   f"{trace['csv_max_diff']:.3e}")
    layers = worker.get("layers")
    if layers is not None and layers["dispatch.sim_calls"]:
        checks.add("every traced dispatch balances to 1e-6 kW",
                   layers["dispatch.balance_max_kw"] <= BALANCE_TOL_KW,
                   f"{layers['dispatch.balance_max_kw']:.3e} kW")
    _BY_WORKLOAD[study.workload](checks, study, worker, reference)
    return checks


def refine_evaluations(stdout: str) -> int:
    """The evaluation count ``mgdesign refine`` prints, or 0."""
    match = re.search(r"\((\d+) evaluations\)", stdout)
    return int(match.group(1)) if match else 0


def _check_rows(checks: Checks, name: str, rows: list[dict], reference: dict[str, list]) -> None:
    bad = [key for r in rows
           if (key := _design(r)) not in reference or not all_close(_metrics(r), reference[key])]
    checks.add(f"{name} metrics match the reference", not bad, f"{len(bad)} rows differ: {bad[:3]}")


def _check_lattice_search(checks: Checks, study: inputs.Study, worker: dict, reference: dict) -> None:
    out = Path(study.expect["out"])
    ref = reference["lattice"][study.variant]
    results = read_csv(checks, out / "results.csv", study.expect["rows"], inputs.METRIC_FIELDS)
    if results is None:
        return
    _check_rows(checks, "results.csv", results, ref)
    checks.add("results.csv designs are distinct", len({_design(r) for r in results}) == len(results))
    npc = [float(r["npc_usd"]) for r in results]
    checks.add("results.csv is sorted by NPC", npc == sorted(npc))
    front = read_csv(checks, out / "pareto.csv", None, ("non_dominated", "front_rank"))
    if front is not None:
        _check_front(checks, "pareto.csv", results, front)


def _check_policy_front(checks: Checks, study: inputs.Study, worker: dict, reference: dict) -> None:
    out = Path(study.expect["out"])
    archive = read_csv(checks, out / "rl" / "rl_archive.csv", study.expect["episodes"], inputs.METRIC_FIELDS)
    if archive is not None:
        _check_rows(checks, "rl_archive.csv", archive, reference["rl"])
        front = read_csv(checks, out / "rl" / "rl_pareto.csv", None, ("non_dominated", "front_rank"))
        if front is not None:
            _check_front(checks, "rl_pareto.csv", archive, front)
    if not study.expect["refine"]:
        return
    ref = reference["refine"][study.variant]
    evaluations = refine_evaluations(worker.get("stdout", ""))
    checks.add("refine reports the reference evaluation count", evaluations == ref["evaluations"],
               f"{evaluations}, reference {ref['evaluations']}")
    refined = read_csv(checks, out / "refine" / "refined.csv", 1, inputs.METRIC_FIELDS)
    if refined is not None:
        row = refined[0]
        checks.add("refined design matches the reference", _design(row) == ref["design"],
                   f"{_design(row)} vs {ref['design']}")
        checks.add("refined metrics match the reference", all_close(_metrics(row), ref["metrics"]))


def _check_sensitivity_study(checks: Checks, study: inputs.Study, worker: dict, reference: dict) -> None:
    out = Path(study.expect["out"])
    for i, design in enumerate(study.expect["designs"]):
        ref = reference["sensitivity"][design]
        d_out = out / f"design{i}"
        metrics = read_csv(checks, d_out / "metrics.csv", 1, inputs.METRIC_FIELDS)
        if metrics is not None:
            checks.add(f"{design} metrics match the reference", all_close(_metrics(metrics[0]), ref["metrics"]))
        costs = read_csv(checks, d_out / "costs.csv", 1)
        if costs is not None:
            checks.add(f"{design} costs match the reference",
                       all_close([float(v) for v in costs[0].values()], ref["costs"]))
        rows = read_csv(checks, d_out / "sensitivity.csv", inputs.PERTURBATION_ROWS)
        if rows is not None:
            got = [[r["parameter"]] + [float(v) for k, v in r.items() if k != "parameter"] for r in rows]
            same = all(g[0] == e[0] and all_close(g[1:], e[1:]) for g, e in zip(got, ref["deviation"]))
            checks.add(f"{design} deviations match the reference", same)
        for parameter in inputs.LCOE_PARAMETERS:
            curve = read_csv(checks, d_out / f"lcoe_{parameter}.csv", len(inputs.LCOE_MULTIPLIERS))
            if curve is not None:
                got = [[float(r["multiplier"]), float(r["lcoe_usd_per_kwh"])] for r in curve]
                same = all(all_close(g, e) for g, e in zip(got, ref["lcoe"][parameter]))
                checks.add(f"{design} {parameter} LCOE matches the reference", same)


def _check_pareto_archive(checks: Checks, study: inputs.Study, worker: dict, reference: dict) -> None:
    out = Path(study.expect["out"])
    with open(study.expect["results"], encoding="utf-8", newline="") as fh:
        source = list(csv.DictReader(fh))
    plot = read_csv(checks, out / "pareto_plotdata.csv", study.expect["rows"],
                    inputs.METRIC_FIELDS + ("non_dominated", "front_rank"))
    if plot is None:
        return
    same_rows = all(_design(a) == _design(b) and _metrics(a) == _metrics(b) for a, b in zip(plot, source))
    checks.add("pareto_plotdata.csv keeps the input rows in order", same_rows)
    if "oracle" not in study.expect:  # the input is the same in every repetition
        study.expect["oracle"] = oracle_ranks(minimization_matrix(source))
    ranks = study.expect["oracle"]
    got_ranks = [int(r["front_rank"]) for r in plot]
    checks.add("front_rank equals the oracle", got_ranks == ranks.tolist(),
               f"{sum(a != b for a, b in zip(got_ranks, ranks))} rows differ")
    flags = [r["non_dominated"] == "1" for r in plot]
    checks.add("non_dominated equals the oracle", flags == (ranks == 0).tolist())
    match = re.search(r"(\d+) points, (\d+) non-dominated", worker.get("stdout", ""))
    checks.add("pareto reports the oracle front size",
               bool(match) and int(match.group(2)) == int((ranks == 0).sum()))


_BY_WORKLOAD = {
    "lattice_search": _check_lattice_search,
    "policy_front": _check_policy_front,
    "sensitivity_study": _check_sensitivity_study,
    "pareto_archive": _check_pareto_archive,
}
