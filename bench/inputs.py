"""Seeded inputs of the four benchmark workloads.

A workload is a list of ``mgdesign`` CLI calls plus the input files they
read.  The benchmark seed picks the inputs; the program sees only the
generated argv and files.  Where outputs are checked against
``reference.json``, the seed selects one of a fixed set of variants that
the reference records, so any seed can be checked; the RL seed and the
Pareto archive take the seed itself.

Why each workload exists (the prediction table is in NOTES.md):

* ``lattice_search`` -- 64 distinct designs, dispatch dominates; exercises
  a batched dispatch kernel and bypasses memoization.
* ``policy_front`` -- sequential RL and refine searches that mostly repeat
  designs; memoization shows here, a batch kernel barely can.
* ``sensitivity_study`` -- one design across 13 scenarios, full traces
  written, 20 re-costings without dispatch; guards the trace path.
* ``pareto_archive`` -- Pareto ranking of a ~2000-row archive with ties
  and duplicates; the one workload where the Pareto layer dominates.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("lattice_search", "policy_front", "sensitivity_study", "pareto_archive")

# The CSV columns, written out here rather than imported: the checks read
# the files by the names their format defines, whatever the program says.
DESIGN_FIELDS = ("pv_kw", "wt_kw", "dg_kw", "bess_kwh", "converter_kw", "grid_cap_kw")
METRIC_FIELDS = ("npc_usd", "reliability", "efficiency_pct", "co2_kg_per_yr",
                 "lcoe_usd_per_kwh", "capital_usd", "om_usd_per_yr", "lpsp")

#: 4 x 2 x 2 x 4 = 64 designs at a fixed converter.  The seed shifts each
#: axis origin by a positive offset, so every variant keeps 64 distinct
#: designs that all include PV, wind, diesel and a battery (a battery-less
#: design simulates several times faster, so a zero origin would make the
#: work depend on the seed).
LATTICE_SPACE = "pv={pv}:{pv_hi}:200,wt={wt}:{wt_hi}:200,dg={dg}:{dg_hi}:60,bess={bess}:{bess_hi}:300,conv=255"
LATTICE_OFFSETS = (  # (pv kW, wt kW, dg kW, bess kWh)
    (20, 10, 15, 50), (35, 25, 10, 100), (50, 40, 20, 75), (10, 55, 25, 125),
    (45, 15, 30, 150), (25, 30, 5, 60), (60, 20, 12, 90), (15, 45, 18, 110),
)

RL_SPACE = "pv=0:600:150,bess=0:900:300,conv=255"
RL_EPISODES = 300
#: Refine starts around the ROADMAP's pv=300,conv=255.  Each takes 218-226
#: evaluations at the commit that defined the benchmark (pv=300 takes 223),
#: so the seed changes the path but not the amount of work.
REFINE_STARTS = (
    "pv=300,conv=255", "pv=270,conv=255", "pv=300,bess=50,conv=255",
    "pv=300,wt=10,conv=255", "pv=260,bess=50,conv=255", "pv=300,bess=150,conv=255",
    "pv=325,wt=5,bess=100,conv=255", "pv=300,bess=100,conv=255",
)

#: The flagship A5 design, and the diesel-backed designs the seed picks from.
A5 = "pv=418,wt=123,dg=0,bess=704,conv=255"
SENSITIVITY_DESIGNS = (
    "pv=350,wt=80,dg=40,bess=500,conv=240", "pv=450,wt=150,dg=60,bess=800,conv=280",
    "pv=320,wt=100,dg=50,bess=600,conv=230", "pv=480,wt=60,dg=30,bess=900,conv=300",
    "pv=400,wt=180,dg=70,bess=450,conv=260", "pv=380,wt=120,dg=80,bess=650,conv=250",
    "pv=300,wt=140,dg=45,bess=750,conv=220", "pv=460,wt=90,dg=55,bess=550,conv=270",
)
LCOE_PARAMETERS = ("purchase_price", "sellback_price", "battery_capital", "pv_capital")
#: The CLI's default ``lcoe-sweep --multipliers``.
LCOE_MULTIPLIERS = (0.8, 0.9, 1.0, 1.1, 1.2)
#: Per design: ``evaluate`` (1), ``sensitivity`` (baseline + 12 perturbed)
#: and one simulated trace per ``lcoe-sweep`` parameter (4).
EVALS_PER_SENSITIVITY_DESIGN = 1 + 13 + len(LCOE_PARAMETERS)
PERTURBATION_ROWS = 12

PARETO_ROWS = 2000
PARETO_FRONTS = 30


@dataclass
class Study:
    """The CLI calls of one workload repetition and what to check after it."""

    workload: str
    variant: int
    calls: list[list[str]] = field(default_factory=list)
    #: Requested evaluations (or, for ``pareto_archive``, ranked rows)
    #: known before the run; refine adds the count it reports.
    items: int = 0
    #: ``(trace csv, design string)`` pairs to re-simulate and compare.
    traces: list[tuple[str, str]] = field(default_factory=list)
    #: Workload-specific facts the checks need.
    expect: dict = field(default_factory=dict)


def variant_of(seed: int, count: int) -> int:
    return int(np.random.default_rng([seed, count]).integers(count))


def lattice_space(variant: int, tiny: bool = False) -> str:
    pv, wt, dg, bess = LATTICE_OFFSETS[variant]
    if tiny:  # 4 designs of the full lattice, same grid cap (the largest diesel)
        return f"pv={pv}:{pv + 200}:200,wt={wt},dg={dg + 60},bess={bess}:{bess + 300}:300,conv=255"
    return LATTICE_SPACE.format(pv=pv, pv_hi=pv + 600, wt=wt, wt_hi=wt + 200,
                                dg=dg, dg_hi=dg + 60, bess=bess, bess_hi=bess + 900)


def _common(out: Path, seed: int | None = None) -> list[str]:
    args = ["--out", str(out), "--jobs", "1"]
    if seed is not None:
        args += ["--seed", str(seed)]
    return args


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> Study:
    """The study for ``workload`` at ``seed``; input files go to ``workdir``
    and every output directory is below ``workdir / "out"``."""
    out = workdir / "out"
    if workload == "lattice_search":
        variant = variant_of(seed, len(LATTICE_OFFSETS))
        space = lattice_space(variant, tiny)
        count = 4 if tiny else 64
        return Study(workload, variant,
                     calls=[["search", "--space", space] + _common(out)],
                     items=count, expect={"space": space, "rows": count, "out": str(out)})
    if workload == "policy_front":
        variant = variant_of(seed, len(REFINE_STARTS))
        episodes = 12 if tiny else RL_EPISODES
        calls = [["rl-search", "--space", RL_SPACE, "--episodes", str(episodes)]
                 + _common(out / "rl", seed)]
        if not tiny:
            calls.append(["refine", "--design", REFINE_STARTS[variant]] + _common(out / "refine"))
        return Study(workload, variant, calls=calls, items=episodes,
                     expect={"episodes": episodes, "refine": not tiny, "out": str(out)})
    if workload == "sensitivity_study":
        variant = variant_of(seed, len(SENSITIVITY_DESIGNS))
        designs = [A5] if tiny else [A5, SENSITIVITY_DESIGNS[variant]]
        study = Study(workload, variant, items=EVALS_PER_SENSITIVITY_DESIGN * len(designs),
                      expect={"designs": designs, "out": str(out)})
        for i, design in enumerate(designs):
            d_out = out / f"design{i}"
            study.calls += [
                ["evaluate", "--design", design, "--trace"] + _common(d_out),
                ["sensitivity", "--design", design] + _common(d_out),
                ["lcoe-sweep", "--design", design] + _common(d_out),
            ]
            study.traces.append((str(d_out / "trace.csv"), design))
        return study
    if workload == "pareto_archive":
        rows, fronts = (60, 3) if tiny else (PARETO_ROWS, PARETO_FRONTS)
        workdir.mkdir(parents=True, exist_ok=True)
        results = workdir / "archive.csv"
        write_pareto_archive(results, seed, rows, fronts)
        return Study(workload, 0,
                     calls=[["pareto", "--results", str(results)] + _common(out)],
                     items=rows, expect={"results": str(results), "rows": rows, "out": str(out)})
    raise ValueError(f"unknown workload {workload!r}")


def write_pareto_archive(path: Path, seed: int, rows: int, fronts: int) -> list[int]:
    """Write a search-results CSV whose Pareto fronts are known by
    construction; return each row's front index.

    Points of front ``k`` are integer vectors ``u`` with ``sum(u) = S`` shifted
    by ``k * S`` on every axis, in the orientation where lower is better.
    Equal sums mean no point of a front dominates another, and the shift
    makes every point of front ``k - 1`` dominate every point of front ``k``,
    so the ranks are exact.  Small integers give ties on single objectives,
    about one row in twenty duplicates an earlier row of its front, and
    objectives map through strictly monotone affine functions, which keeps
    every dominance relation.  Within a front the objectives trade off;
    across fronts they worsen together.
    """
    rng = np.random.default_rng([seed, 7])
    span = 40
    sizes = [rows // fronts + (1 if k < rows % fronts else 0) for k in range(fronts)]
    records: list[tuple[int, list[str]]] = []
    for k, size in enumerate(sizes):
        front_rows: list[list[str]] = []
        for _ in range(size):
            if front_rows and rng.random() < 0.05:
                front_rows.append(list(front_rows[int(rng.integers(len(front_rows)))]))
                continue
            u = rng.multinomial(span, rng.dirichlet([0.7] * 4)) + k * span
            front_rows.append(_archive_row(rng, u))
        records += [(k, row) for row in front_rows]
    order = rng.permutation(len(records))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DESIGN_FIELDS + METRIC_FIELDS + ("feasible",))
        for i in order:
            writer.writerow(records[i][1])
    return [records[i][0] for i in order]


def _archive_row(rng: np.random.Generator, u: np.ndarray) -> list[str]:
    npc = 2.5e6 + 1500.0 * float(u[0])
    reliability = 1.0 - 2e-4 * float(u[1])
    efficiency = 95.0 - 0.03 * float(u[2])
    co2 = -6.0e4 + 100.0 * float(u[3])
    capital = npc * float(rng.uniform(0.3, 0.5))
    design = [25.0 * int(rng.integers(0, 25)), 25.0 * int(rng.integers(0, 13)),
              60.0 * int(rng.integers(0, 2)), 50.0 * int(rng.integers(0, 21)),
              25.0 * int(rng.integers(1, 17))]
    grid = "" if design[2] == 0.0 else repr(design[2])
    metrics = [npc, reliability, efficiency, co2, npc * 1e-7 * float(rng.uniform(0.6, 0.9)),
               capital, capital * 0.02, float(np.log(1.0 / reliability)) / 100.0]
    return [repr(v) for v in design] + [grid] + [repr(float(v)) for v in metrics] + ["1"]
