"""Acceptance gate: one test per release criterion.

Each test prints a ``PASS criterion N`` line on success (run with
``pytest -v -s tests/test_acceptance.py`` to see them inline); the
pytest verdict per test is the authoritative pass/fail signal.
"""

import filecmp
import math
import time

import numpy as np
import pytest

from mgdesign.cli import main as cli_main
from mgdesign.dispatch import Design, simulate_year
from mgdesign.metrics import evaluate
from mgdesign.optimize import (
    EvaluatedDesign,
    NormalizationBounds,
    PolicyConfig,
    Weights,
    pareto_mask,
    policy_gradient_search,
    refine,
    scalarize,
)
from mgdesign.sensitivity import Perturbation, PerturbTarget, SweepParameter, deviation_table, lcoe_sweep

from .conftest import random_design, random_scenario, table2_rows
from .helpers import (
    brute_force_pareto_mask,
    equilibrium_tanks,
    kernel_battery_hour,
    ode_max_charge,
    ode_max_discharge,
    random_metric_vectors,
    toy_two_action_eval,
    toy_two_action_space,
)


def test_criterion_01_energy_balance_on_randomized_pairs():
    started = time.monotonic()
    worst = 0.0
    for seed in range(100):
        scenario = random_scenario(seed)
        design = random_design(seed + 10_000)
        trace = simulate_year(scenario, design)
        worst = max(worst, float(np.abs(trace.balance_residual_kw()).max()))
        assert worst < 1e-6, f"seed {seed} violates hourly balance: {worst:.3e} kW"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"\nPASS criterion 1: energy balance <= {worst:.2e} kW over 100 pairs ({elapsed:.1f}s)")


def test_criterion_02_battery_bounds_and_roundtrip():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    n = 1000
    q_max = rng.uniform(10.0, 1000.0, n)
    c = rng.uniform(0.2, 0.8, n)
    k = rng.uniform(0.25, 3.0, n)
    q_eff = 0.6 * q_max
    q1 = rng.uniform(0.0, 1.0, n) * c * q_eff
    q2 = rng.uniform(0.0, 1.0, n) * (1.0 - c) * q_eff

    # one Euler integration over all states at once (the oracle broadcasts k and c)
    oracle_ds = ode_max_discharge(q1, q2, k=k, c=c, dt=1.0)
    oracle_cs = ode_max_charge(q1, q2, q_max=q_eff, k=k, c=c, dt=1.0)
    worst = 0.0
    for i in range(n):
        # The dispatch kernel's battery hour, lossless, against a load or a
        # PV surplus of 1e12 kW: it delivers or takes exactly its bound.
        tanks = (q1[i] + 0.2 * q_max[i] * c[i], q2[i] + 0.2 * q_max[i] * (1.0 - c[i]), q_max[i])
        analytic_d = -kernel_battery_hour(*tanks, -1e12, k[i], c[i], roundtrip_efficiency=1.0)[0]
        oracle_d = float(oracle_ds[i])
        if oracle_d > 1e-9 * q_max[i]:
            worst = max(worst, abs(analytic_d - oracle_d) / oracle_d)
        analytic_c = kernel_battery_hour(*tanks, 1e12, k[i], c[i], roundtrip_efficiency=1.0)[0]
        oracle_c = float(oracle_cs[i])
        if oracle_c > 1e-9 * q_max[i]:
            worst = max(worst, abs(analytic_c - oracle_c) / oracle_c)
    assert worst < 0.005, f"kernel bound deviates {worst:.4%} from the dt=1e-3 integrator"

    # roundtrip energy recovery at the catalog efficiency, through the kernel
    q1_0, q2_0 = equilibrium_tanks(100.0, 0.5, 0.5)
    charge, *charged = kernel_battery_hour(q1_0, q2_0, 100.0, 10.0, roundtrip_efficiency=0.9)
    assert charge == 10.0
    gain = sum(charged) - (q1_0 + q2_0)
    recovered_power = gain * math.sqrt(0.9)
    ran, *after = kernel_battery_hour(*charged, 100.0, -recovered_power, roundtrip_efficiency=0.9)
    assert ran == -recovered_power
    assert sum(after) == pytest.approx(q1_0 + q2_0, abs=1e-9)
    recovery = recovered_power * 1.0 / (10.0 * 1.0)
    assert abs(recovery - 0.9) < 1e-6 * 0.9

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"\nPASS criterion 2: kinetic bounds within {worst:.4%} of ODE oracle; "
          f"roundtrip recovery {recovery:.9f} ({elapsed:.1f}s)")


def test_criterion_03_pareto_filter_matches_brute_force():
    started = time.monotonic()
    rng = np.random.default_rng(3)
    sizes = [int(rng.integers(1, 250)) for _ in range(98)] + [1000, 1000]
    for i, n in enumerate(sizes):
        points = random_metric_vectors(i, n, distinct_levels=10 if i % 3 == 0 else None)
        assert np.array_equal(pareto_mask(points), brute_force_pareto_mask(points)), f"set {i}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"\nPASS criterion 3: exact match with O(n^2) oracle on {len(sizes)} sets "
          f"up to n=1000 ({elapsed:.1f}s)")


def test_criterion_04_published_rows_dominance_and_scalarization():
    rows = table2_rows()
    mask = dict(zip(rows, pareto_mask(list(rows.values()))))
    assert mask["A1"], "cost-optimized row must be non-dominated"
    assert mask["A5"], "proposed row must be non-dominated"

    pool = [EvaluatedDesign(Design(), m) for m in rows.values()]
    bounds = NormalizationBounds.from_metrics(list(rows.values()))
    by_cost = min(rows, key=lambda key: scalarize(rows[key], Weights.focus("npc"), bounds))
    assert by_cost == "A1"
    assert rows[by_cost].npc_usd == 4.47e6
    by_reliability = min(rows, key=lambda key: scalarize(rows[key], Weights.focus("reliability"), bounds))
    assert rows[by_reliability].reliability == 1.0
    print("\nPASS criterion 4: A1 and A5 non-dominated; cost limit -> A1; "
          f"reliability limit -> {by_reliability} (reliability 1)")


def test_criterion_05_bundled_flagship_bands(bundled, a5):
    started = time.monotonic()
    trace = simulate_year(bundled, a5)
    metrics = evaluate(a5, bundled, trace=trace)
    single_eval = time.monotonic() - started
    assert single_eval < 10.0

    assert trace.unmet_kwh == 0.0
    assert 88.0 <= metrics.efficiency_pct <= 95.0
    assert 4.0e6 <= metrics.npc_usd <= 5.7e6
    grid_only = evaluate(Design(), bundled)
    reduction = (grid_only.co2_kg_per_yr - metrics.co2_kg_per_yr) / grid_only.co2_kg_per_yr
    assert 0.90 <= reduction <= 0.99
    print(f"\nPASS criterion 5: unmet=0, efficiency={metrics.efficiency_pct:.2f}%, "
          f"NPC=${metrics.npc_usd / 1e6:.2f}M, CO2 reduction={reduction:.1%} "
          f"({single_eval:.2f}s/evaluation)")


def test_criterion_06_sensitivity_signs(bundled, a5):
    rows = {(r.target, round(r.delta, 2)): r for r in deviation_table(bundled, a5)}
    up = rows[(PerturbTarget.LOAD, 0.10)]
    assert up.npc_dev_pct > 0.0 and up.co2_dev_pct > 0.0
    down = rows[(PerturbTarget.LOAD, -0.10)]
    assert down.npc_dev_pct < 0.0 and down.co2_dev_pct < 0.0
    pv_up = rows[(PerturbTarget.PV_OUTPUT, 0.10)]
    assert pv_up.npc_dev_pct < 0.0 and pv_up.co2_dev_pct < 0.0
    assert all(r.reliability_dev == 0.0 for r in rows.values())
    print("\nPASS criterion 6: load+10 -> (+NPC, +CO2); load-10 -> (-, -); "
          "pv+10 -> (-, -); reliability flat across the standard grid")


def test_criterion_07_lcoe_sweep_ordering(bundled, a5):
    started = time.monotonic()

    def rel_increase(parameter):
        curve = dict(lcoe_sweep(bundled, a5, parameter, [1.0, 1.2]))
        return (curve[1.2] - curve[1.0]) / curve[1.0]

    purchase = rel_increase(SweepParameter.PURCHASE_PRICE)
    battery = rel_increase(SweepParameter.BATTERY_CAPITAL)
    pv = rel_increase(SweepParameter.PV_CAPITAL)
    assert purchase > battery > pv

    mults = [0.8, 0.9, 1.0, 1.1, 1.2]
    ranges = {}
    for parameter in SweepParameter:
        values = [v for _, v in lcoe_sweep(bundled, a5, parameter, mults)]
        ranges[parameter] = max(values) - min(values)
    assert ranges[SweepParameter.SELLBACK_PRICE] == min(ranges.values())
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"\nPASS criterion 7: +20% LCOE impact purchase {purchase:.1%} > battery {battery:.1%} "
          f"> pv {pv:.1%}; sellback range smallest ({elapsed:.1f}s)")


def test_criterion_08_refinement(bundled):
    # convex stub with a known analytic minimizer
    objective = lambda d: (d.pv_kw - 137.5) ** 2 + 10.0
    result = refine(Design(pv_kw=400.0), objective, tolerance=0.5, max_cycles=200)
    assert result.cycles <= 200
    assert abs(result.design.pv_kw - 137.5) <= 0.5

    # on the bundled scenario the incumbent's scalarized score never degrades
    start = Design(pv_kw=200.0, wt_kw=50.0, bess_kwh=300.0, converter_kw=150.0)
    seeds = [start, Design(pv_kw=400.0, converter_kw=250.0), Design(grid_cap_kw=300.0),
             Design(pv_kw=100.0, bess_kwh=600.0, converter_kw=100.0)]
    bounds = NormalizationBounds.from_metrics([evaluate(d, bundled) for d in seeds])
    weights = Weights()
    scores = []

    def scenario_objective(design):
        value = scalarize(evaluate(design, bundled), weights, bounds)
        scores.append(value)
        return value

    outcome = refine(start, scenario_objective, max_cycles=2)
    assert outcome.objective_value <= scores[0]
    assert outcome.objective_value == min(scores)
    print(f"\nPASS criterion 8: stub converged to 137.5 +/- 0.5 in {result.cycles} cycles; "
          f"bundled score {scores[0]:.4f} -> {outcome.objective_value:.4f} (non-degrading)")


def test_criterion_09_policy_gradient_toy_convergence():
    started = time.monotonic()
    space = toy_two_action_space()
    final_probs = []
    for seed in range(10):
        result = policy_gradient_search(toy_two_action_eval, space, PolicyConfig(episodes=500), seed=seed)
        probability = result.probabilities["pv_kw"][1]
        final_probs.append(probability)
        assert probability >= 0.9, f"seed {seed}: P(dominant)={probability:.3f}"
        mask = pareto_mask([e.metrics for e in result.archive])
        expected = [e for e, keep in zip(result.archive, mask) if keep]
        assert result.front == expected
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print(f"\nPASS criterion 9: P(dominant) in [{min(final_probs):.3f}, {max(final_probs):.3f}] "
          f"across 10 seeds; front == filter(archive) ({elapsed:.1f}s)")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    args_sets = [
        ["evaluate", "--design", "pv=418,wt=123,dg=0,bess=704,conv=255", "--trace"],
        ["search", "--space", "pv=0:150:150,bess=0:200:200,conv=100"],
        ["rl-search", "--space", "pv=0:100:100,conv=50", "--episodes", "15"],
    ]
    produced = {
        "evaluate": ["metrics.csv", "trace.csv"],
        "search": ["results.csv", "pareto.csv"],
        "rl-search": ["rl_archive.csv", "rl_pareto.csv"],
    }
    for args in args_sets:
        out1 = tmp_path / f"{args[0]}-1"
        out2 = tmp_path / f"{args[0]}-2"
        for out in (out1, out2):
            code = cli_main(args + ["--out", str(out), "--seed", "42"])
            assert code == 0
        capsys.readouterr()
        for name in produced[args[0]]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    print("\nPASS criterion 10: evaluate/search/rl-search outputs byte-identical across reruns")
