"""Enumerate a small capacity lattice, filter the Pareto front, and pick
a balanced design by weighted scalarization.

Run:  python demos/03_search_and_pareto.py   (a few seconds: 48 annual simulations)
"""

from pathlib import Path

from mgdesign import (
    Evaluator,
    SearchSpace,
    Weights,
    bundled_scenario,
    grid_search,
    pareto_mask,
    select_best,
    write_evaluations_csv,
)

scenario = bundled_scenario()
space = SearchSpace.from_string("pv=0:600:200,wt=0:200:100,bess=0:900:300,conv=255")
print(f"lattice: {space.candidate_count()} candidates")

results = grid_search(Evaluator(scenario), space)
front_flags = pareto_mask([r.metrics for r in results])
front = [r for r, keep in zip(results, front_flags) if keep]
print(f"feasible: {len(results)}, non-dominated: {len(front)}")

print("\ncheapest five:")
for r in results[:5]:
    d, m = r.design, r.metrics
    print(f"  pv={d.pv_kw:>5.0f} wt={d.wt_kw:>4.0f} bess={d.bess_kwh:>4.0f}"
          f"  npc=${m.npc_usd / 1e6:.2f}M  rel={m.reliability:.4f}"
          f"  eff={m.efficiency_pct:.1f}%  co2={m.co2_kg_per_yr / 1e3:>7.0f} t")

for label, weights in [
    ("equal priorities", Weights()),
    ("cost first", Weights(0.7, 0.1, 0.1, 0.1)),
    ("emissions first", Weights(0.1, 0.1, 0.1, 0.7)),
]:
    best = select_best(results, weights)
    d = best.design
    print(f"\n{label}: pv={d.pv_kw:.0f} wt={d.wt_kw:.0f} bess={d.bess_kwh:.0f}"
          f" -> npc=${best.metrics.npc_usd / 1e6:.2f}M, co2={best.metrics.co2_kg_per_yr / 1e3:.0f} t")

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)
write_evaluations_csv(results, out / "tradeoff_cloud.csv", with_front_rank=True)
print(f"\nplot data (all points + dominance flags) in {out / 'tradeoff_cloud.csv'}")
