"""Trace the cost/reliability/efficiency/CO2 front with the
policy-gradient explorer instead of exhaustive enumeration.

Run:  python demos/04_policy_gradient_front.py   (~10 seconds: 240 episodes)
"""

from mgdesign import Evaluator, PolicyConfig, SearchSpace, bundled_scenario, policy_gradient_search

scenario = bundled_scenario()
space = SearchSpace.from_string("pv=0:600:150,wt=0:200:100,bess=0:900:300,conv=255")
print(f"lattice: {space.candidate_count()} candidates; sampling 240 episodes")

result = policy_gradient_search(Evaluator(scenario), space, PolicyConfig(episodes=240), seed=42)

unique = {tuple(sorted(e.design.capacities().items())) for e in result.archive}
print(f"episodes: {len(result.archive)}, distinct designs visited: {len(unique)}, "
      f"front size: {len(result.front)}")

print("\nlearned preferences per axis:")
for name, probs in result.probabilities.items():
    values = space.axis_values()[name]
    top = probs.argmax()
    print(f"  {name:<13} -> {values[top]:>6.0f}  (p={probs[top]:.2f})")

print("\nnon-dominated designs found (distinct):")
seen = set()
for entry in sorted(result.front, key=lambda e: e.metrics.npc_usd):
    key = tuple(sorted(entry.design.capacities().items()))
    if key in seen:
        continue
    seen.add(key)
    d, m = entry.design, entry.metrics
    print(f"  pv={d.pv_kw:>4.0f} wt={d.wt_kw:>4.0f} bess={d.bess_kwh:>4.0f}"
          f"  npc=${m.npc_usd / 1e6:.2f}M rel={m.reliability:.4f}"
          f" eff={m.efficiency_pct:.1f}% co2={m.co2_kg_per_yr / 1e3:>7.0f} t")
    if len(seen) >= 10:
        break
