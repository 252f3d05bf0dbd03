import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from mgdesign import dispatch, metrics, optimize
from mgdesign.dispatch import Design
from mgdesign.metrics import OBJECTIVE_SENSES, Evaluator, MetricVector, evaluate
from mgdesign.optimize import (
    _MAX_AXIS_VALUES,
    _MAX_LATTICE_DESIGNS,
    DegenerateBoundsError,
    EmptyInputError,
    EmptySearchSpaceError,
    EvaluatedDesign,
    LatticeTooLargeError,
    NormalizationBounds,
    PolicyConfig,
    Range,
    SearchSpace,
    Weights,
    default_weight_cycle,
    grid_search,
    pareto_mask,
    pareto_ranks,
    policy_gradient_search,
    refine,
    scalarize,
    select_best,
    write_evaluations_csv,
    write_pareto_csv,
    _minimization_matrix,
)

from .conftest import random_scenario, table2_rows
from .test_dispatch import BENCH_LATTICE
from .helpers import (
    brute_force_pareto_mask,
    brute_force_pareto_ranks,
    layered_archive,
    random_metric_vectors,
    reference_grid_search,
    reference_minimization_matrix,
    reference_pareto_mask,
    reference_pareto_ranks,
    reference_policy_gradient_search,
    reference_refine,
    reference_scalarize,
    spy_calls,
    toy_two_action_eval,
    toy_two_action_space,
)


def _metric(npc=1.0, rel=1.0, eff=100.0, co2=0.0):
    return MetricVector(npc_usd=npc, reliability=rel, efficiency_pct=eff,
                        co2_kg_per_yr=co2, lcoe_usd_per_kwh=0.0, capital_usd=0.0,
                        om_usd_per_yr=0.0, lpsp=0.0)


class TestRange:
    def test_values_inclusive(self):
        assert np.array_equal(Range(0.0, 100.0, 25.0).values(), [0, 25, 50, 75, 100])

    def test_single_point(self):
        assert np.array_equal(Range.fixed(42.0).values(), [42.0])

    def test_bad_step(self):
        with pytest.raises(EmptySearchSpaceError):
            Range(0.0, 10.0, 0.0).values()


class TestSearchSpaceParsing:
    def test_from_string(self):
        space = SearchSpace.from_string("pv=0:100:50,bess=200,conv=0:50:25")
        axes = space.axis_values()
        assert list(axes["pv_kw"]) == [0.0, 50.0, 100.0]
        assert list(axes["bess_kwh"]) == [200.0]
        assert list(axes["wt_kw"]) == [0.0]
        assert space.candidate_count() == 9

    def test_grid_cap_rule_uses_diesel_axis(self):
        space = SearchSpace.from_string("dg=0:120:60")
        assert space.effective_grid_cap() == 120.0
        no_dg = SearchSpace.from_string("pv=0:50:25")
        assert no_dg.effective_grid_cap() is None
        explicit = SearchSpace.from_string("pv=0:50:25", grid_cap_kw=300.0)
        assert explicit.effective_grid_cap() == 300.0

    def test_converter_alias_accepted_grid_rejected(self):
        space = SearchSpace.from_string("Converter=0:50:25,BESS=100")
        assert list(space.axis_values()["converter_kw"]) == [0.0, 25.0, 50.0]
        assert list(space.axis_values()["bess_kwh"]) == [100.0]
        with pytest.raises(EmptySearchSpaceError, match="^unknown axis 'grid'$"):
            SearchSpace.from_string("pv=0:50:25,grid=300")

    @pytest.mark.parametrize("text, axis", [
        ("pv=0:100:100,pv=300,conv=100", "pv_kw"), ("PV=0,pv=0", "pv_kw"),
        ("Converter=0:50:25,conv=100", "converter_kw"), ("bess=100,wt=1,BESS=0:200:100", "bess_kwh"),
    ])
    def test_axis_given_twice_is_a_bad_spec(self, text, axis):
        with pytest.raises(EmptySearchSpaceError, match=f"^axis {axis} is given twice$"):
            SearchSpace.from_string(text)

    @pytest.mark.parametrize("spec", ["pv=0:inf:100", "pv=-inf:0:100", "pv=0:100:inf", "pv=0:100:nan",
                                      "pv=0:1e300:1e-300", "pv=-1e308:1e308:1", "pv=nan", "pv=inf"])
    def test_non_finite_bound_or_step_is_a_bad_spec(self, spec):
        with pytest.raises(EmptySearchSpaceError, match=f"^bad axis spec '{spec}'; use lo:hi:step or value$"):
            SearchSpace.from_string(f"wt=0:50:25,{spec}")

    def test_design_order_of_a_two_per_axis_lattice(self):
        space = SearchSpace.from_string("pv=1:2:1,wt=3:4:1,dg=5:6:1,bess=7:8:1,conv=9:10:1")
        expected = [(pv, wt, dg, bess, conv) for pv in (1.0, 2.0) for wt in (3.0, 4.0)
                    for dg in (5.0, 6.0) for bess in (7.0, 8.0) for conv in (9.0, 10.0)]
        designs = list(space.designs())
        assert [(d.pv_kw, d.wt_kw, d.dg_kw, d.bess_kwh, d.converter_kw) for d in designs] == expected
        assert {d.grid_cap_kw for d in designs} == {6.0}
        assert all(type(value) is float for d in designs for value in d.capacities().values())

    def test_default_steps_and_result_columns(self):
        assert optimize.DEFAULT_STEPS == {"pv_kw": 25.0, "wt_kw": 25.0, "dg_kw": 60.0,
                                          "bess_kwh": 50.0, "converter_kw": 25.0}
        assert optimize.DESIGN_FIELDS == ("pv_kw", "wt_kw", "dg_kw", "bess_kwh", "converter_kw", "grid_cap_kw")
        assert SearchSpace.AXES == optimize.DESIGN_FIELDS[:-1]


class TestParetoFilter:
    def test_single_point(self):
        assert pareto_mask([_metric()]).tolist() == [True]

    def test_strict_dominance(self):
        a = _metric(npc=1.0, rel=1.0, eff=90.0, co2=0.0)
        b = _metric(npc=2.0, rel=0.9, eff=80.0, co2=10.0)
        assert pareto_mask([a, b]).tolist() == [True, False]
        assert pareto_mask([b, a]).tolist() == [False, True]

    def test_duplicates_all_kept(self):
        a = _metric(npc=1.0)
        b = _metric(npc=1.0)
        assert pareto_mask([a, b]).tolist() == [True, True]

    def test_matches_brute_force_on_random_sets(self):
        for seed in range(12):
            n = int(np.random.default_rng(seed).integers(1, 220))
            points = random_metric_vectors(seed, n, distinct_levels=8 if seed % 2 else None)
            assert np.array_equal(pareto_mask(points), brute_force_pareto_mask(points))

    def test_matches_brute_force_large(self):
        points = random_metric_vectors(999, 1000)
        assert np.array_equal(pareto_mask(points), brute_force_pareto_mask(points))

    def test_output_mutual_nondominance(self):
        points = random_metric_vectors(5, 300)
        mask = pareto_mask(points)
        kept = [p for p, k in zip(points, mask) if k]
        assert np.all(pareto_mask(kept))

    def test_table2_rows(self):
        rows = table2_rows()
        mask = pareto_mask(list(rows.values()))
        flags = dict(zip(rows.keys(), mask))
        assert flags["A1"] and flags["A5"]

    def test_ranks_partition(self):
        points = random_metric_vectors(8, 120)
        ranks = pareto_ranks(points)
        assert np.array_equal(ranks == 0, pareto_mask(points))
        assert ranks.min() == 0 and (ranks >= 0).all()


class TestParetoRanks:
    """``pareto_ranks`` against the front-peeling brute-force oracle."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_oracle_with_ties_and_duplicates(self, seed):
        n = int(np.random.default_rng(seed).integers(1, 220))
        points = random_metric_vectors(seed, n, distinct_levels=3 if seed % 2 else 8)
        assert np.array_equal(pareto_ranks(points), brute_force_pareto_ranks(points))

    def test_layered_archive(self):
        points, expected = layered_archive(seed=11, rows=300, fronts=10)
        ranks = pareto_ranks(points)
        assert np.array_equal(ranks, expected)
        assert np.array_equal(ranks, brute_force_pareto_ranks(points))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_sets(self, n):
        for seed in range(20):
            points = random_metric_vectors(seed, n, distinct_levels=1)
            assert np.array_equal(pareto_ranks(points), brute_force_pareto_ranks(points))
            assert np.array_equal(pareto_mask(points), brute_force_pareto_mask(points))


class TestParetoEdgeValues:
    """NaN compares false both ways, so a NaN row neither dominates nor is
    dominated; infinities order like numbers; -0.0 ties with 0.0."""

    VALUES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_edge_values_match_oracles(self, seed):
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(self.VALUES), size=(60, 4), p=(0.05, 0.15, 0.15, 0.25, 0.25, 0.15))
        points = [_metric(*(self.VALUES[k] for k in row)) for row in picks]
        assert np.array_equal(pareto_mask(points), brute_force_pareto_mask(points))
        assert np.array_equal(pareto_ranks(points), brute_force_pareto_ranks(points))
        # The same objectives as one matrix, as ``mgdesign pareto`` ranks them.
        matrix = np.array([p.objectives() for p in points])
        assert np.array_equal(pareto_mask(matrix), brute_force_pareto_mask(points))
        assert np.array_equal(pareto_ranks(matrix), brute_force_pareto_ranks(points))

    def test_signed_zeros_tie(self):
        points = [_metric(npc=0.0), _metric(npc=-0.0), _metric(npc=0.0, co2=-0.0)]
        assert pareto_mask(points).all()
        assert np.array_equal(pareto_ranks(points), [0, 0, 0])

    def test_nan_row_neither_dominates_nor_is_dominated(self):
        best = _metric(npc=1.0, rel=1.0, eff=100.0, co2=0.0)
        nan_row = _metric(npc=math.nan, rel=0.0, eff=0.0, co2=9.0)
        shadowed = _metric(npc=2.0, rel=0.5, eff=50.0, co2=5.0)  # dominated by best only
        worse = _metric(npc=3.0, rel=0.1, eff=10.0, co2=8.0)
        points = [worse, nan_row, shadowed, best]
        assert np.array_equal(pareto_mask(points), [False, True, False, True])
        assert np.array_equal(pareto_ranks(points), [2, 0, 1, 0])
        assert np.array_equal(pareto_mask([nan_row, worse]), [True, True])


class TestBlockedPareto:
    """The blocked passes of ``pareto_mask`` and ``pareto_ranks`` against the
    one-row-per-step reference loops, at the module's block size and at
    block sizes that put block boundaries inside runs of duplicates."""

    VALUES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 2.0)

    @staticmethod
    def _assert_match(points):
        assert np.array_equal(pareto_mask(points), reference_pareto_mask(points))
        assert np.array_equal(pareto_ranks(points), reference_pareto_ranks(points))

    def _edge_matrix(self, seed, n):
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(self.VALUES), size=(n, 4), p=(0.04, 0.08, 0.08, 0.2, 0.2, 0.2, 0.2))
        return np.array(self.VALUES)[picks]

    def test_bench_sized_layered_archive(self):
        points, expected = layered_archive(seed=1001, rows=2000, fronts=30)
        ranks = pareto_ranks(points)
        assert np.array_equal(ranks, expected)
        assert np.array_equal(ranks, reference_pareto_ranks(points))
        assert np.array_equal(pareto_mask(points), reference_pareto_mask(points))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_tied_sets_with_edge_values(self, seed):
        n = int(np.random.default_rng(seed).integers(1, 400))
        self._assert_match(self._edge_matrix(seed, n))
        self._assert_match(random_metric_vectors(seed, n, distinct_levels=4))

    B = optimize._BLOCK_ROWS

    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 5])
    def test_sizes_around_the_block(self, n):
        for seed in range(6):
            self._assert_match(random_metric_vectors(seed, n, distinct_levels=3 if seed % 2 else None))
            self._assert_match(self._edge_matrix(seed, n))

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_duplicate_runs_across_block_boundaries(self, monkeypatch, block):
        monkeypatch.setattr(optimize, "_BLOCK_ROWS", block)
        rng = np.random.default_rng(block)
        for seed in range(6):
            distinct = np.round(rng.uniform(0.0, 1.0, size=(int(rng.integers(5, 40)), 4)) * 4) / 4
            # Runs of 1..5 equal rows, so runs start at every offset in a block.
            rows = np.repeat(distinct, rng.integers(1, 6, len(distinct)), axis=0)
            rows[rng.random(len(rows)) < 0.05, 1] = np.nan
            self._assert_match(rows[rng.permutation(len(rows))])
            self._assert_match(self._edge_matrix(seed, 3 * block + 5))
        points, expected = layered_archive(seed=block, rows=300, fronts=10)
        assert np.array_equal(pareto_ranks(points), expected)
        self._assert_match(points)

    def test_long_dominance_chain_inside_a_block(self):
        # A total order: every row dominates the next, so each block's
        # in-block relaxation runs the whole length of the block.
        chain = np.column_stack([np.arange(200.0), -np.arange(200.0), -np.arange(200.0), np.arange(200.0)])
        shuffled = chain[np.random.default_rng(0).permutation(200)]
        self._assert_match(shuffled)
        assert sorted(pareto_ranks(shuffled).tolist()) == list(range(200))


class TestScalarize:
    def test_best_in_all_scores_zero(self):
        best = _metric(npc=1.0, rel=1.0, eff=100.0, co2=-5.0)
        worst = _metric(npc=2.0, rel=0.5, eff=50.0, co2=5.0)
        bounds = NormalizationBounds.from_metrics([best, worst])
        assert scalarize(best, Weights(), bounds) == pytest.approx(0.0)
        assert scalarize(worst, Weights(), bounds) == pytest.approx(1.0)

    def test_weight_limit_selects_npc_argmin(self):
        rows = table2_rows()
        pool = [EvaluatedDesign(Design(), m) for m in rows.values()]
        chosen = select_best(pool, Weights.focus("npc"))
        assert chosen.metrics.npc_usd == min(m.npc_usd for m in rows.values())

    def test_reliability_limit_selects_reliability_one(self):
        rows = table2_rows()
        pool = [EvaluatedDesign(Design(), m) for m in rows.values()]
        chosen = select_best(pool, Weights.focus("reliability"))
        assert chosen.metrics.reliability == 1.0

    def test_equal_weights_table2_regression(self):
        # with equal weights the balanced A5 row wins the published pool
        rows = table2_rows()
        bounds = NormalizationBounds.from_metrics(list(rows.values()))
        scores = {k: scalarize(m, Weights(), bounds) for k, m in rows.items()}
        assert min(scores, key=scores.get) == "A5"
        assert scores["A5"] == pytest.approx(0.3592776, abs=1e-6)

    def test_affine_rescaling_invariance(self):
        points = random_metric_vectors(21, 40)
        bounds = NormalizationBounds.from_metrics(points)
        scores = [scalarize(p, Weights(), bounds) for p in points]
        rescaled = [replace(p, npc_usd=3.0 * p.npc_usd + 1e6) for p in points]
        bounds2 = NormalizationBounds.from_metrics(rescaled)
        scores2 = [scalarize(p, Weights(), bounds2) for p in rescaled]
        assert int(np.argmin(scores)) == int(np.argmin(scores2))
        assert np.allclose(scores, scores2)

    def test_degenerate_metric_contributes_zero(self):
        a = _metric(npc=1.0, rel=1.0)
        b = _metric(npc=2.0, rel=1.0)
        bounds = NormalizationBounds.from_metrics([a, b])
        # reliability identical across the pool: only npc separates
        assert scalarize(a, Weights(), bounds) == pytest.approx(0.0)
        assert scalarize(b, Weights(), bounds) == pytest.approx(0.25)

    def test_inverted_bounds_raise(self):
        bad = NormalizationBounds(lo=(1.0, 0, 0, 0), hi=(0.0, 1, 1, 1))
        with pytest.raises(DegenerateBoundsError):
            scalarize(_metric(), Weights(), bad)

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            Weights(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            Weights(1.0, 0.0, 0.0, 0.0)
        assert len(default_weight_cycle()) == 13


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


class TestObjectiveSenses:
    """One table says which objectives are minimized; the Pareto matrix,
    the scalarization and the RL reward read it."""

    def test_senses_in_objective_order(self):
        assert list(OBJECTIVE_SENSES.items()) == [
            ("npc_usd", 1.0), ("reliability", -1.0), ("efficiency_pct", -1.0), ("co2_kg_per_yr", 1.0)]
        assert _metric(npc=1.0, rel=2.0, eff=3.0, co2=4.0).objectives() == (1.0, 2.0, 3.0, 4.0)

    def test_minimization_row_of_one_vector(self):
        m = _metric(npc=4.8e6, rel=0.97, eff=88.5, co2=-1250.0)
        assert _minimization_matrix([m]).tolist() == [[4.8e6, -0.97, -88.5, -1250.0]]

    @pytest.mark.parametrize("seed", range(5))
    def test_minimization_matrix_bit_equal_to_column_flip(self, seed):
        values = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -2.5)
        picks = np.random.default_rng(seed).choice(len(values), size=(40, 4))
        points = [_metric(*(values[k] for k in row)) for row in picks]
        matrix = np.array([p.objectives() for p in points])
        for given in (points, matrix):
            assert _minimization_matrix(given).tobytes() == reference_minimization_matrix(given).tobytes()
        assert matrix.tobytes() == np.array([p.objectives() for p in points]).tobytes()  # input untouched

    @pytest.mark.parametrize("seed", range(8))
    def test_scalarize_bit_equal_to_per_objective_terms(self, seed):
        rng = np.random.default_rng(seed)
        flat = list(OBJECTIVE_SENSES)[seed % 4]
        pool = [replace(p, **{flat: 7.0}) for p in random_metric_vectors(seed, 40, distinct_levels=3)]
        bounds = NormalizationBounds.from_metrics(pool)
        nan_at = (seed + 1) % 4
        with_nan = [
            NormalizationBounds(tuple(math.nan if i == nan_at else v for i, v in enumerate(bounds.lo)), bounds.hi),
            NormalizationBounds(bounds.lo, tuple(math.nan if i == nan_at else v for i, v in enumerate(bounds.hi))),
        ]
        raw = rng.uniform(0.05, 1.0, size=(5, 4))
        weights = [Weights(*(row / row.sum())) for row in raw] + [Weights(), Weights.focus("co2")]
        for b in [bounds] + with_nan:
            for w in weights:
                for p in pool:
                    assert _bits(scalarize(p, w, b)) == _bits(reference_scalarize(p, w, b))

    @pytest.mark.parametrize("inverted", range(4))
    def test_inverted_bounds_raise_as_the_per_objective_terms(self, inverted):
        lo = tuple(1.0 if i == inverted else 0.0 for i in range(4))
        hi = tuple(0.0 if i == inverted else 1.0 for i in range(4))
        bad = NormalizationBounds(lo, hi)
        with pytest.raises(DegenerateBoundsError) as got:
            scalarize(_metric(), Weights(), bad)
        with pytest.raises(DegenerateBoundsError) as expected:
            reference_scalarize(_metric(), Weights(), bad)
        assert str(got.value) == str(expected.value) == "bounds (1.0, 0.0) have min > max"

    def test_default_weight_cycle_in_order(self):
        assert [w.as_tuple() for w in default_weight_cycle()] == [
            (0.25, 0.25, 0.25, 0.25),
            (0.85, 0.05, 0.05, 0.05), (0.05, 0.85, 0.05, 0.05),
            (0.05, 0.05, 0.85, 0.05), (0.05, 0.05, 0.05, 0.85),
            (0.4, 0.2, 0.2, 0.2), (0.2, 0.4, 0.2, 0.2), (0.2, 0.2, 0.4, 0.2), (0.2, 0.2, 0.2, 0.4),
            (0.35, 0.35, 0.15, 0.15), (0.15, 0.35, 0.35, 0.15),
            (0.15, 0.15, 0.35, 0.35), (0.35, 0.15, 0.15, 0.35),
        ]

    @pytest.mark.parametrize("name, position", [("npc", 0), ("reliability", 1), ("efficiency", 2), ("co2", 3)])
    def test_focus_on_each_name(self, name, position):
        lead = 1.0 - 3.0 * 1e-6
        assert Weights.focus(name).as_tuple() == tuple(lead if i == position else 1e-6 for i in range(4))

    def test_focus_on_unknown_name(self):
        with pytest.raises(ValueError, match=r"objective must be one of \('npc', 'reliability', "
                                             r"'efficiency', 'co2'\), got 'cost'"):
            Weights.focus("cost")


class TestLatticeLimits:
    """An axis or a searched lattice too large to hold is counted from its
    bounds and steps and refused before any array is built."""

    PEAK_BYTES = 1 << 20

    def _peak(self, call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_count_from_bounds_and_step(self):
        assert Range(0.0, 1e6, 1e-3).count() == 10**9 + 1
        assert Range(0.0, 100.0, 25.0).count() == len(Range(0.0, 100.0, 25.0).values()) == 5
        assert SearchSpace.from_string("pv=0:100:25,wt=0:10:5").candidate_count() == 15

    def test_axis_over_the_limit_raises_naming_it(self):
        scenario = random_scenario(4)
        space = SearchSpace.from_string("wt=0:100:50,pv=0:1e6:1e-3")

        def search():
            with pytest.raises(LatticeTooLargeError, match=r"^axis pv_kw has 1000000001 values; the most is 1000000$"):
                grid_search(Evaluator(scenario), space, budget_usd=1.0)
            with pytest.raises(LatticeTooLargeError, match="axis pv_kw"):
                policy_gradient_search(Evaluator(scenario), space, PolicyConfig(episodes=1))
        assert self._peak(search) < self.PEAK_BYTES

    def test_axis_at_the_limit_is_counted(self):
        space = SearchSpace(pv_kw=Range(0.0, _MAX_AXIS_VALUES - 1.0, 1.0))
        assert space.axis_counts()["pv_kw"] == _MAX_AXIS_VALUES
        with pytest.raises(LatticeTooLargeError, match="axis pv_kw has 1000001 values"):
            SearchSpace(pv_kw=Range(0.0, float(_MAX_AXIS_VALUES), 1.0)).axis_counts()

    def test_lattice_over_the_limit_raises_with_its_count(self):
        scenario = random_scenario(4)
        space = SearchSpace.from_string("pv=0:999:1,wt=0:999:1,bess=0:1:1")
        assert space.candidate_count() == 2 * _MAX_LATTICE_DESIGNS

        def search():
            with pytest.raises(LatticeTooLargeError, match=r"^search space has 2000000 designs; the most is 1000000$"):
                grid_search(Evaluator(scenario), space)
        assert self._peak(search) < self.PEAK_BYTES


class TestGridSearch:
    def test_single_point_space(self):
        scenario = random_scenario(1)
        space = SearchSpace.from_string("pv=100,conv=100,bess=200")
        results = grid_search(Evaluator(scenario), space)
        assert len(results) == 1
        assert results[0].design.pv_kw == 100.0
        expected = evaluate(results[0].design, scenario)
        assert results[0].metrics.npc_usd == pytest.approx(expected.npc_usd)

    def test_budget_excludes_everything(self):
        scenario = random_scenario(2)
        space = SearchSpace.from_string("pv=100:200:100")
        assert grid_search(Evaluator(scenario), space, budget_usd=1.0) == []

    def test_three_by_three_matches_exhaustive_oracle(self):
        scenario = random_scenario(3)
        space = SearchSpace.from_string("pv=0:250:125,bess=0:400:200,conv=150")
        results = grid_search(Evaluator(scenario), space)
        assert len(results) == 9
        # independent nested-loop re-evaluation
        oracle = []
        for pv in (0.0, 125.0, 250.0):
            for bess in (0.0, 200.0, 400.0):
                design = Design(pv_kw=pv, bess_kwh=bess, converter_kw=150.0)
                oracle.append((evaluate(design, scenario).npc_usd, pv, bess))
        oracle.sort()
        got = [(r.metrics.npc_usd, r.design.pv_kw, r.design.bess_kwh) for r in results]
        assert got == pytest.approx([row for row in oracle])
        npcs = [r.metrics.npc_usd for r in results]
        assert npcs == sorted(npcs)

    def test_empty_space_raises(self):
        with pytest.raises(EmptySearchSpaceError):
            grid_search(Evaluator(random_scenario(4)), SearchSpace(pv_kw=Range(10.0, 0.0, 5.0)))


class TestRefine:
    @staticmethod
    def _quadratic(design: Design) -> float:
        return (design.pv_kw - 137.5) ** 2 + 10.0

    def test_converges_to_analytic_minimum(self):
        start = Design(pv_kw=400.0)
        result = refine(start, self._quadratic, tolerance=0.5, max_cycles=200)
        # within the final accepted step of the true minimizer
        assert abs(result.design.pv_kw - 137.5) <= 0.5
        assert result.cycles <= 200

    def test_local_optimum_fixed_point(self):
        start = Design(pv_kw=137.5)
        result = refine(start, self._quadratic, tolerance=1.0)
        assert result.design.pv_kw == 137.5

    def test_never_degrades(self):
        start = Design(pv_kw=200.0, bess_kwh=100.0)
        scores = []
        original = self._quadratic

        def tracking(design):
            value = original(design) + 0.5 * (design.bess_kwh - 300.0) ** 2
            scores.append(value)
            return value

        result = refine(start, tracking, max_cycles=50)
        assert result.objective_value <= scores[0]
        assert result.objective_value == min(scores)


class TestPolicyGradient:
    _toy_space = staticmethod(toy_two_action_space)
    _toy_eval = staticmethod(toy_two_action_eval)

    def test_dominant_action_learned(self):
        space = self._toy_space()
        for seed in range(3):
            result = policy_gradient_search(self._toy_eval, space, PolicyConfig(episodes=500), seed=seed)
            probs = result.probabilities["pv_kw"]
            assert probs[1] >= 0.9

    def test_zero_learning_rate_keeps_theta(self):
        space = self._toy_space()
        result = policy_gradient_search(self._toy_eval, space, PolicyConfig(episodes=50, learning_rate=0.0), seed=0)
        assert all(np.all(t == 0.0) for t in result.theta.values())
        assert np.allclose(result.probabilities["pv_kw"], 0.5)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_nan_probability_raises(self, rate):
        """A step that makes a logit non-finite ends in the error that
        ``rng.choice`` gives for a NaN probability."""
        config = PolicyConfig(episodes=20, learning_rate=rate)
        with pytest.raises(ValueError, match="^Probabilities contain NaN$"):
            policy_gradient_search(self._toy_eval, self._toy_space(), config, seed=0)

    def test_fixed_seed_reproducible(self):
        space = self._toy_space()
        runs = [
            policy_gradient_search(self._toy_eval, space, PolicyConfig(episodes=100), seed=7)
            for _ in range(2)
        ]
        designs0 = [(e.design.pv_kw) for e in runs[0].archive]
        designs1 = [(e.design.pv_kw) for e in runs[1].archive]
        assert designs0 == designs1
        assert np.array_equal(runs[0].probabilities["pv_kw"], runs[1].probabilities["pv_kw"])

    def test_front_equals_filter_of_archive(self):
        space = self._toy_space()
        result = policy_gradient_search(self._toy_eval, space, PolicyConfig(episodes=60), seed=3)
        mask = pareto_mask([e.metrics for e in result.archive])
        expected = [e for e, keep in zip(result.archive, mask) if keep]
        assert result.front == expected

    def test_archive_on_lattice(self):
        space = self._toy_space()
        result = policy_gradient_search(self._toy_eval, space, PolicyConfig(episodes=40), seed=1)
        for entry in result.archive:
            assert entry.design.pv_kw in (0.0, 100.0)
            assert entry.design.bess_kwh == 0.0


class TestMemoizedEvaluations:
    """RL and refine call their evaluator once per distinct design and
    otherwise match the loops that call it on every request."""

    RL_SPACE = "pv=0:600:150,bess=0:900:300,conv=255"  # 20 designs
    STARTS = ("pv=300,conv=255", "pv=300,bess=50,conv=255")

    @pytest.fixture(scope="class")
    def bundled_metrics(self, bundled):
        """``evaluate`` on the bundled scenario, simulated once per design
        for the whole class so the reference loops cost nothing extra."""
        cache = {}

        def metrics(design):
            if design not in cache:
                cache[design] = evaluate(design, bundled)
            return cache[design]

        return metrics

    def test_rl_evaluates_each_distinct_design_once(self, bundled, monkeypatch):
        sims = spy_calls(monkeypatch, metrics, "simulate_year")
        space = SearchSpace.from_string(self.RL_SPACE)
        result = policy_gradient_search(Evaluator(bundled), space, PolicyConfig(episodes=100), seed=42)
        calls = Counter(args[1] for args in sims)
        assert len(result.archive) == 100
        assert set(calls) == {e.design for e in result.archive}
        assert set(calls.values()) == {1}
        assert len(calls) < 100

    @pytest.mark.parametrize("seed", [5, 42, 101])
    def test_rl_matches_reference_loop(self, bundled_metrics, seed):
        space = SearchSpace.from_string(self.RL_SPACE)
        config = PolicyConfig(episodes=300)
        result = policy_gradient_search(bundled_metrics, space, config, seed=seed)
        expected = reference_policy_gradient_search(space, config, seed, bundled_metrics)
        assert result.archive == expected.archive
        assert result.front == expected.front
        for name in expected.theta:
            assert np.array_equal(result.theta[name], expected.theta[name])
            assert np.array_equal(result.probabilities[name], expected.probabilities[name])

    def test_refine_scores_each_distinct_candidate_once(self, bundled, monkeypatch):
        sims = spy_calls(monkeypatch, metrics, "simulate_year")
        evaluator = Evaluator(bundled)
        result = refine(Design.from_string(self.STARTS[0]), lambda design: evaluator(design).npc_usd)
        calls = Counter(args[1] for args in sims)
        assert set(calls.values()) == {1}
        assert len(calls) < result.evaluations

    # The second start has one pair of consecutive simulations that share a stage.
    @pytest.mark.parametrize("start", ["pv=300,bess=50,conv=255", "pv=325,wt=5,bess=100,conv=255"])
    def test_refine_runs_battery_loop_once_per_key_change(self, bundled, monkeypatch, start):
        loops = spy_calls(monkeypatch, dispatch, "_battery_hours")
        sims = spy_calls(monkeypatch, metrics, "simulate_year")
        evaluator = Evaluator(bundled)
        refine(Design.from_string(start), lambda design: evaluator(design).npc_usd)
        order = [args[1] for args in sims]
        with_battery = sum(d.bess_kwh > 0.0 for d in order)
        shared = sum(a.bess_kwh > 0.0 and a.battery_key == b.battery_key for a, b in zip(order, order[1:]))
        assert with_battery > 0
        assert len(loops) == with_battery - shared

    @pytest.mark.parametrize("start", STARTS)
    def test_refine_matches_reference_loop(self, bundled_metrics, start):
        objective = lambda design: bundled_metrics(design).npc_usd
        result = refine(Design.from_string(start), objective)
        assert result == reference_refine(Design.from_string(start), objective)


class TestResultFiles:
    def test_plotdata_flags_table2(self, tmp_path):
        rows = table2_rows()
        evaluations = [EvaluatedDesign(Design(), m) for m in rows.values()]
        path = tmp_path / "plotdata.csv"
        write_evaluations_csv(evaluations, path, with_front_rank=True)
        lines = path.read_text().splitlines()
        assert len(lines) == 6
        header = lines[0].split(",")
        flag_col = header.index("non_dominated")
        flags = {name: line.split(",")[flag_col] for name, line in zip(rows, lines[1:])}
        assert flags["A1"] == "1" and flags["A5"] == "1"

    def test_empty_input(self, tmp_path):
        with pytest.raises(EmptyInputError):
            write_evaluations_csv([], tmp_path / "x.csv", with_front_rank=True)
        with pytest.raises(EmptyInputError):
            write_pareto_csv([], tmp_path / "x.csv")


class _InlineExecutor:
    """Stands in for ``ProcessPoolExecutor``: records ``max_workers`` and
    runs the initializer and every task in this process, so no worker
    process is started."""

    created: list[int] = []

    def __init__(self, max_workers, initializer, initargs):
        self.created.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


class TestGridSearchParallel:
    @pytest.fixture
    def executors(self, monkeypatch) -> list[int]:
        """The ``max_workers`` of every pool ``Evaluator.map`` creates."""
        import concurrent.futures

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
        monkeypatch.setattr(metrics, "_worker_evaluator", None)
        monkeypatch.setattr(_InlineExecutor, "created", [])
        return _InlineExecutor.created

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_raise(self, executors, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            grid_search(Evaluator(random_scenario(9), jobs=jobs), SearchSpace.from_string("pv=0:200:100,conv=100"))
        assert executors == []

    @pytest.mark.parametrize("jobs, workers", [(2, [2]), (3, [3]), (64, [3]), (10**6, [3])])
    def test_workers_capped_at_group_count(self, executors, jobs, workers):
        scenario = random_scenario(9)
        space = SearchSpace.from_string("pv=0:200:100,dg=0:60:60,bess=100,conv=100")  # 3 groups
        assert grid_search(Evaluator(scenario, jobs=jobs), space) == grid_search(Evaluator(scenario), space)
        assert executors == workers

    def test_one_group_runs_in_process(self, executors):
        scenario = random_scenario(9)
        space = SearchSpace.from_string("pv=100,dg=0:120:60,bess=100,conv=100")
        assert len(grid_search(Evaluator(scenario, jobs=4), space)) == 3
        assert executors == []

    def test_jobs_match_sequential(self):
        scenario = random_scenario(9)
        space = SearchSpace.from_string("pv=0:200:100,bess=0:200:200,conv=100")
        sequential = grid_search(Evaluator(scenario), space)
        parallel = grid_search(Evaluator(scenario, jobs=2), space)
        assert [r.design for r in parallel] == [r.design for r in sequential]
        assert [r.metrics.npc_usd for r in parallel] == [r.metrics.npc_usd for r in sequential]


class TestGroupedGridSearch:
    """The default evaluator runs the battery stage once per
    ``(pv, wt, bess, conv)`` group and gives exactly the per-design
    results, in the same order, with either job count."""

    DG_SPACE = "pv=0:200:100,wt=0:150:150,dg=0:120:60,bess=0:400:200,conv=150"

    oracle = staticmethod(reference_grid_search)

    def test_bench_lattice_matches_per_design_oracle(self, bundled):
        space = SearchSpace.from_string(BENCH_LATTICE)
        results = grid_search(Evaluator(bundled), space)
        assert len(results) == 64
        assert results == self.oracle(bundled, space)

    @pytest.mark.parametrize("budget", [None, 450_000.0])
    def test_dg_axis_and_grid_cap_match_per_design_oracle(self, budget):
        scenario = random_scenario(11)
        space = SearchSpace.from_string(self.DG_SPACE, grid_cap_kw=80.0)
        assert len(space.axis_values()["dg_kw"]) == 3
        results = grid_search(Evaluator(scenario), space, budget_usd=budget)
        assert results == self.oracle(scenario, space, budget_usd=budget)
        assert 0 < len(results) <= space.candidate_count()
        assert {r.design.grid_cap_kw for r in results} == {80.0}

    def test_jobs_2_matches_jobs_1_with_dg_axis(self):
        scenario = random_scenario(12)
        space = SearchSpace.from_string("pv=0:200:100,dg=0:120:60,bess=0:400:200,conv=150")
        sequential = grid_search(Evaluator(scenario), space)
        assert len(sequential) == 27
        assert grid_search(Evaluator(scenario, jobs=2), space) == sequential

    def test_battery_loop_runs_once_per_group(self, bundled, monkeypatch):
        calls = []
        original = dispatch._battery_hours

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(dispatch, "_battery_hours", counting)
        space = SearchSpace.from_string(self.DG_SPACE)
        results = grid_search(Evaluator(bundled), space)
        assert len(results) == space.candidate_count() == 54
        with_battery = {d.battery_key for d in space.designs() if d.bess_kwh > 0.0}
        assert len(with_battery) == 12
        assert len(calls) == len(with_battery)
