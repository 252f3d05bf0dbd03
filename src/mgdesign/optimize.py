"""Design-space search: lattice enumeration, Pareto filtering, weighted
scalarization, derivative-free refinement, and a policy-gradient explorer.

All searches orient the four objectives of :class:`~mgdesign.metrics.MetricVector`
by :data:`~mgdesign.metrics.OBJECTIVE_SENSES`.  Every routine is
deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .dispatch import CAPACITIES, Design
from .metrics import METRIC_FIELDS, OBJECTIVE_SENSES, Evaluator, MetricVector, capital_cost, fixed_om_cost
from .tables import csv_column, write_table


class EmptySearchSpaceError(ValueError):
    """The lattice contains no candidate designs."""


class EmptyInputError(ValueError):
    """An operation that needs at least one point received none."""


class DegenerateBoundsError(ValueError):
    """Normalization bounds with min > max."""


class LatticeTooLargeError(ValueError):
    """A lattice axis or a searched lattice too large to hold in memory."""


#: Most values one lattice axis may have: 10**6 float64 values are 8 MB,
#: and the policy search keeps three arrays of that length per axis.
_MAX_AXIS_VALUES = 10**6
#: Most designs :func:`grid_search` enumerates: each design it keeps holds
#: ~1 KB (its Design, MetricVector, memo entry and EvaluatedDesign), so
#: 10**6 designs are ~1 GB.
_MAX_LATTICE_DESIGNS = 10**6


@dataclass(frozen=True)
class Range:
    """Inclusive lattice axis [lo, hi] with step ``delta``."""

    lo: float
    hi: float
    delta: float

    def count(self) -> int:
        """The number of lattice values, from the bounds and step alone."""
        if self.delta <= 0.0:
            raise EmptySearchSpaceError(f"step must be > 0, got {self.delta}")
        if self.hi < self.lo:
            raise EmptySearchSpaceError(f"range [{self.lo}, {self.hi}] is empty")
        return int(math.floor((self.hi - self.lo) / self.delta + 1e-9)) + 1

    def values(self) -> np.ndarray:
        return self.lo + self.delta * np.arange(self.count())

    @classmethod
    def fixed(cls, value: float) -> "Range":
        return cls(value, value, 1.0)


@dataclass(frozen=True)
class SearchSpace:
    """Per-dimension capacity lattice: one :class:`Range` per capacity of
    :class:`~mgdesign.dispatch.Design`, its :data:`AXES` in the order of
    :data:`~mgdesign.dispatch.CAPACITIES`.

    ``grid_cap_kw = None`` applies the rule "grid capacity equals the
    largest diesel capacity in the space" when the diesel axis is
    non-trivial, otherwise leaves grid exchange limited by the tariff.
    """

    pv_kw: Range = field(default_factory=lambda: Range(0.0, 500.0, 25.0))
    wt_kw: Range = field(default_factory=lambda: Range(0.0, 300.0, 25.0))
    dg_kw: Range = field(default_factory=lambda: Range(0.0, 60.0, 60.0))
    bess_kwh: Range = field(default_factory=lambda: Range(0.0, 1000.0, 50.0))
    converter_kw: Range = field(default_factory=lambda: Range(0.0, 400.0, 25.0))
    grid_cap_kw: float | None = None

    AXES = tuple(CAPACITIES.values())

    def axis_counts(self) -> dict[str, int]:
        """Values per axis, counted without building them.  An axis of more
        than :data:`_MAX_AXIS_VALUES` raises :class:`LatticeTooLargeError`."""
        counts = {name: getattr(self, name).count() for name in self.AXES}
        for name, count in counts.items():
            if count > _MAX_AXIS_VALUES:
                raise LatticeTooLargeError(f"axis {name} has {count} values; the most is {_MAX_AXIS_VALUES}")
        return counts

    def axis_values(self) -> dict[str, np.ndarray]:
        self.axis_counts()  # an axis too long to build raises here
        return {name: getattr(self, name).values() for name in self.AXES}

    def effective_grid_cap(self) -> float | None:
        if self.grid_cap_kw is not None:
            return self.grid_cap_kw
        dg_max = float(self.dg_kw.values().max())
        return dg_max if dg_max > 0.0 else None

    def candidate_count(self) -> int:
        return math.prod(self.axis_counts().values())

    def designs(self) -> Iterable[Design]:
        """All lattice designs in row-major axis order (pv outermost)."""
        grid_cap = self.effective_grid_cap()
        for values in itertools.product(*self.axis_values().values()):
            yield Design(**dict(zip(self.AXES, map(float, values))), grid_cap_kw=grid_cap)

    @classmethod
    def from_string(cls, text: str, grid_cap_kw: float | None = None) -> "SearchSpace":
        """Parse ``pv=0:500:25,wt=0:300:25,bess=0:1000:50,...``.

        Axes take the capacity names of
        :meth:`~mgdesign.dispatch.Design.from_string`, except ``grid``.
        Axes not mentioned collapse to the fixed value 0.  A bare number
        fixes an axis, ``lo:hi:step`` spans it.  An axis named twice (in
        any case or by any alias), a bound or step that is not finite, or a
        span of more steps than a float can count, is a bad spec.
        """
        ranges: dict[str, Range] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            name, _, spec_text = part.partition("=")
            key = Design._FIELD_ALIASES.get(name.strip().lower())
            if key not in cls.AXES:
                raise EmptySearchSpaceError(f"unknown axis {name.strip()!r}")
            if key in ranges:
                raise EmptySearchSpaceError(f"axis {key} is given twice")
            try:
                numbers = [float(piece) for piece in spec_text.split(":")]
                if len(numbers) not in (1, 3) or not all(map(math.isfinite, numbers)):
                    raise ValueError
                axis = Range.fixed(numbers[0]) if len(numbers) == 1 else Range(*numbers)
                if axis.delta > 0.0 and not math.isfinite((axis.hi - axis.lo) / axis.delta):
                    raise ValueError
                ranges[key] = axis
            except ValueError:
                raise EmptySearchSpaceError(f"bad axis spec {part!r}; use lo:hi:step or value") from None
        return cls(grid_cap_kw=grid_cap_kw, **{name: ranges.get(name, Range.fixed(0.0)) for name in cls.AXES})


@dataclass(frozen=True)
class Weights:
    """Preference weights over (cost, reliability, efficiency, CO2).

    Each weight lies strictly inside (0, 1) and they sum to 1.
    """

    npc: float = 0.25
    reliability: float = 0.25
    efficiency: float = 0.25
    co2: float = 0.25

    def __post_init__(self) -> None:
        values = self.as_tuple()
        if not math.isclose(sum(values), 1.0, rel_tol=0.0, abs_tol=1e-9):
            raise ValueError(f"weights must sum to 1, got {sum(values)}")
        if any(not 0.0 < w < 1.0 for w in values):
            raise ValueError(f"each weight must be in (0, 1), got {values}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.npc, self.reliability, self.efficiency, self.co2)

    @classmethod
    def focus(cls, objective: str) -> "Weights":
        """Nearly all weight on one objective (the w -> 1 limit), 1e-6 on
        each of the others."""
        if objective not in _WEIGHT_NAMES:
            raise ValueError(f"objective must be one of {_WEIGHT_NAMES}, got {objective!r}")
        return _emphasis(1e-6, 1.0 - 3.0 * 1e-6, [objective])

    @classmethod
    def from_string(cls, text: str) -> "Weights":
        parts = [float(p) for p in text.split(",")]
        if len(parts) != 4:
            raise ValueError(f"need 4 comma-separated weights, got {len(parts)}")
        return cls(*parts)


_WEIGHT_NAMES = tuple(f.name for f in fields(Weights))


def _emphasis(base: float, lead: float, picked: Iterable[str]) -> Weights:
    """``lead`` on each picked objective, ``base`` on the others."""
    values = dict.fromkeys(_WEIGHT_NAMES, base)
    values.update(dict.fromkeys(picked, lead))
    return Weights(**values)


def default_weight_cycle() -> list[Weights]:
    """The 13-point simplex grid used to trace the front: the centroid,
    four single-objective emphases, four milder emphases, and four
    adjacent two-objective blends."""
    names = _WEIGHT_NAMES
    return ([Weights()] + [_emphasis(0.05, 0.85, [name]) for name in names]
            + [_emphasis(0.2, 0.4, [name]) for name in names]
            + [_emphasis(0.15, 0.35, pair) for pair in zip(names, names[1:] + names[:1])])


@dataclass(frozen=True)
class EvaluatedDesign:
    """A design together with its metrics."""

    design: Design
    metrics: MetricVector


# ----------------------------------------------------------------------
# Pareto filtering
# ----------------------------------------------------------------------

_SENSES = np.array(list(OBJECTIVE_SENSES.values()))


def _minimization_matrix(points: Sequence[MetricVector] | np.ndarray) -> np.ndarray:
    """Objectives as an (n, 4) matrix where lower is uniformly better: each
    times its sense.  ``points`` are metric vectors or an (n, 4) array of
    their :meth:`~mgdesign.metrics.MetricVector.objectives`."""
    m = np.asarray(points if isinstance(points, np.ndarray) else [p.objectives() for p in points],
                   dtype=float)
    return m * _SENSES


#: Distinct rows compared per NumPy call by :func:`pareto_ranks`.  Larger
#: blocks make fewer calls but more in-block comparisons and relaxation
#: steps; of 16 to 256, 64 ranked the 2000-row benchmark archive fastest.
_BLOCK_ROWS = 64


def _lexsorted(points: Sequence[MetricVector] | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows without NaN in lexicographic order of the minimization
    matrix, each run of equal rows collapsed to one, for the rank pass of
    :func:`pareto_ranks`: ``(order, run, distinct)``, where ``order`` holds
    input indices, ``run[k]`` is the run of the k-th sorted row and
    ``distinct`` is the (3, runs) array of each run's objectives 1..3.

    If row i dominates row j, then at the first column where they differ
    row i is lower, so i sorts strictly before j; equal rows (``-0.0`` equals
    ``0.0``) tie.  The order is therefore a topological order of dominance:
    a run is dominated exactly by the earlier runs that are no worse in
    objectives 1..3, since every earlier run differs from it and is no
    worse in objective 0.  Rows with NaN are left out: every comparison
    with NaN is false, so they neither dominate nor are dominated.
    """
    m = _minimization_matrix(points)
    rows = np.flatnonzero(~np.isnan(m).any(axis=1))
    order = rows[np.lexsort(m[rows].T[::-1])]
    s = m[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (s[1:] != s[:-1]).any(axis=1)
    return order, np.cumsum(starts) - 1, np.ascontiguousarray(s[starts, 1:].T)


def _no_worse(earlier: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``(len(block), len(earlier))`` matrix of (3, k) column arrays: entry
    ``[i, j]`` is whether ``earlier[:, j]`` is no worse than ``block[:, i]``
    in all three objectives."""
    return ((earlier[0] <= block[0][:, None]) & (earlier[1] <= block[1][:, None])
            & (earlier[2] <= block[2][:, None]))


def _next_rank(no_worse: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Per row of ``no_worse``, one more than the highest of ``ranks``
    where it is true, else 0."""
    return (no_worse * (ranks + 1)).max(axis=1, initial=0)


def pareto_mask(points: Sequence[MetricVector] | np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated points, in input order: front 0
    of :func:`pareto_ranks`.

    A point is dominated when another point is at least as good in every
    objective and strictly better in one.  Duplicates do not dominate
    each other, so tied optima are all kept; a point with a NaN objective
    is always kept.
    """
    return pareto_ranks(points) == 0


def pareto_ranks(points: Sequence[MetricVector] | np.ndarray) -> np.ndarray:
    """Non-dominated front index per point (0 = the Pareto front).

    Front k holds the points that are non-dominated once fronts
    0..k-1 are removed, so a point's rank is one more than the highest
    rank among the points that dominate it, or 0 if none does.  One
    forward pass over the distinct rows in lexicographic order (see
    :func:`_lexsorted`) computes exactly that, as every dominator of a row
    comes before it (a single non-dominated sort in the spirit of NSGA-II,
    Deb et al. 2002).  The rows go :data:`_BLOCK_ROWS` at a time: one
    broadcast compares a block with every earlier row, whose ranks are
    final, and gives each row its base rank, one more than the highest
    rank among those dominators.  Inside the block, with the strictly lower
    triangle of its comparison matrix, ``rank = max(base, 1 + highest rank
    of its in-block dominators)`` is relaxed until nothing changes, which
    takes at most the block's longest dominance chain.  Duplicates share
    a rank and NaN rows get rank 0.  O(n^2) element comparisons in
    O(n * block) extra memory, with O(n / block) NumPy calls plus one per
    relaxation step.
    """
    ranks = np.zeros(len(points), dtype=int)
    if len(points) == 0:
        return ranks
    order, run, distinct = _lexsorted(points)
    # int32 halves the (block, earlier rows) products of _next_rank.
    run_ranks = np.empty(distinct.shape[1], dtype=np.int32)
    for lo in range(0, distinct.shape[1], _BLOCK_ROWS):
        block = distinct[:, lo:lo + _BLOCK_ROWS]
        base = _next_rank(_no_worse(distinct[:, :lo], block), run_ranks[:lo])
        inner = np.tril(_no_worse(block, block), -1)
        rank = base
        while not np.array_equal(relaxed := np.maximum(base, _next_rank(inner, rank)), rank):
            rank = relaxed
        run_ranks[lo:lo + _BLOCK_ROWS] = rank
    ranks[order] = run_ranks[run]
    return ranks


# ----------------------------------------------------------------------
# Scalarization
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizationBounds:
    """Per-objective minimum ``lo`` and maximum ``hi`` over a candidate
    pool, in :meth:`~mgdesign.metrics.MetricVector.objectives` order, used
    to bring the four objectives onto a common [0, 1] scale."""

    lo: tuple[float, float, float, float]
    hi: tuple[float, float, float, float]

    @classmethod
    def from_metrics(cls, points: Sequence[MetricVector]) -> "NormalizationBounds":
        if not points:
            raise EmptyInputError("cannot derive bounds from an empty pool")
        m = np.array([p.objectives() for p in points], dtype=float)
        return cls(tuple(m.min(axis=0)), tuple(m.max(axis=0)))


def scalarize(m: MetricVector, weights: Weights, bounds: NormalizationBounds) -> float:
    """Weighted scalar score, lower is better: each objective min-max
    normalized over ``bounds``, or one minus that where its sense (see
    :data:`~mgdesign.metrics.OBJECTIVE_SENSES`) is to maximize.  An
    all-equal objective (lo == hi) contributes 0."""
    terms = []
    for value, lo, hi, sense in zip(m.objectives(), bounds.lo, bounds.hi, OBJECTIVE_SENSES.values()):
        if hi < lo:
            raise DegenerateBoundsError(f"bounds {(lo, hi)} have min > max")
        n = 0.0 if hi == lo else (value - lo) / (hi - lo)
        terms.append(1.0 - n if sense < 0.0 and hi != lo else n)
    return sum(wi * ti for wi, ti in zip(weights.as_tuple(), terms))


def select_best(evaluations: Sequence[EvaluatedDesign], weights: Weights) -> EvaluatedDesign:
    """The scalarization argmin over a pool, normalizing over that pool."""
    if not evaluations:
        raise EmptyInputError("cannot select from an empty pool")
    bounds = NormalizationBounds.from_metrics([e.metrics for e in evaluations])
    scores = [scalarize(e.metrics, weights, bounds) for e in evaluations]
    return evaluations[int(np.argmin(scores))]


# ----------------------------------------------------------------------
# Grid search (lattice enumeration)
# ----------------------------------------------------------------------

def grid_search(evaluator: Evaluator, space: SearchSpace,
                budget_usd: float | None = None) -> list[EvaluatedDesign]:
    """Evaluate every lattice design, keep the feasible ones, sort by NPC.

    Feasibility screens capital plus one year of size-based O&M against
    ``budget_usd`` before simulating, so infeasible designs cost nothing.
    The rest go to :meth:`~mgdesign.metrics.Evaluator.map` as one batch.
    Result order is deterministic regardless of the evaluator's ``jobs``:
    NPC ascending, lattice order breaking ties.  A lattice of more than
    :data:`_MAX_LATTICE_DESIGNS` designs raises :class:`LatticeTooLargeError`.
    """
    count = space.candidate_count()
    if count > _MAX_LATTICE_DESIGNS:
        raise LatticeTooLargeError(f"search space has {count} designs; the most is {_MAX_LATTICE_DESIGNS}")
    scenario = evaluator.scenario
    designs = [design for design in space.designs() if budget_usd is None
               or capital_cost(design, scenario) + fixed_om_cost(design, scenario) <= budget_usd]
    return sorted(map(EvaluatedDesign, designs, evaluator.map(designs)), key=lambda e: e.metrics.npc_usd)


# ----------------------------------------------------------------------
# Derivative-free refinement (cyclic coordinate search)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RefineResult:
    design: Design
    objective_value: float
    cycles: int
    evaluations: int


#: Initial coordinate steps: the steps of the default lattice.
DEFAULT_STEPS = {name: getattr(SearchSpace(), name).delta for name in SearchSpace.AXES}
#: Factor every step is multiplied by after a cycle without a move.
_STEP_SHRINK = 0.5


def refine(start: Design, objective: Callable[[Design], float],
           tolerance: float = 1.0, max_cycles: int = 200) -> RefineResult:
    """Cyclic coordinate descent on a scalar objective (minimization).

    One capacity at a time is perturbed by +/- its current step, starting
    from :data:`DEFAULT_STEPS`; a move is accepted only if it strictly
    lowers the objective, so the incumbent score is non-increasing.  After
    a full cycle without an acceptance all steps halve
    (:data:`_STEP_SHRINK`); the search stops once every step is below
    ``tolerance`` or after ``max_cycles`` cycles.  Capacities stay
    non-negative.

    ``objective`` is called on every probe, and ``evaluations`` counts
    them, repeats included.  An objective that reads an
    :class:`~mgdesign.metrics.Evaluator` simulates each distinct design
    once.
    """
    steps = dict(DEFAULT_STEPS)
    current, best = start, objective(start)
    evaluations = 1
    cycles = 0

    while cycles < max_cycles and max(steps.values()) >= tolerance:
        cycles += 1
        improved = False
        for name, step in steps.items():
            for direction in (+1.0, -1.0):
                value = getattr(current, name) + direction * step
                candidate = replace(current, **{name: max(value, 0.0)})
                if candidate == current:
                    continue
                score = objective(candidate)
                evaluations += 1
                if score < best:
                    current, best = candidate, score
                    improved = True
                    break
        if not improved:
            steps = {name: step * _STEP_SHRINK for name, step in steps.items()}
    return RefineResult(design=current, objective_value=best, cycles=cycles,
                        evaluations=evaluations)


# ----------------------------------------------------------------------
# Policy-gradient search (REINFORCE over the capacity lattice)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PolicyConfig:
    """Episodes and policy step size of the policy-gradient explorer; its
    baselines decay by :data:`_BASELINE_DECAY` per episode and its
    preference weights follow :func:`default_weight_cycle`."""

    episodes: int = 500
    learning_rate: float = 0.2


_BASELINE_DECAY = 0.99


@dataclass
class PolicySearchResult:
    """Archive of everything evaluated, its Pareto front, and the final
    per-axis action distributions."""

    archive: list[EvaluatedDesign]
    front: list[EvaluatedDesign]
    probabilities: dict[str, np.ndarray]
    theta: dict[str, np.ndarray]


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def policy_gradient_search(evaluate: Callable[[Design], MetricVector], space: SearchSpace,
                           config: PolicyConfig = PolicyConfig(), seed: int = 42) -> PolicySearchResult:
    """Trace the Pareto front with single-step REINFORCE episodes.

    Each episode samples one lattice value per capacity axis from an
    independent softmax policy, evaluates the design, and rewards each
    objective by its min-max normalized value over the archive so far
    (oriented so higher is better).  The advantage is the
    preference-weighted reward minus per-objective exponential moving
    baselines, with the preference weights cycling over a fixed simplex
    grid so successive episodes pull toward different parts of the
    front.  The returned front is exactly the Pareto filter of the
    archive.  Deterministic for a fixed seed.

    ``evaluate`` scores the design of every episode, and the archive
    holds one row per episode.  An :class:`~mgdesign.metrics.Evaluator`
    simulates each distinct design once.
    """
    axes = space.axis_values()
    cycle = default_weight_cycle()
    grid_cap = space.effective_grid_cap()

    rng = np.random.default_rng(seed)
    theta = {name: np.zeros(len(values)) for name, values in axes.items()}
    lo = np.full(4, np.inf)
    hi = np.full(4, -np.inf)
    archive: list[EvaluatedDesign] = []

    for episode in range(config.episodes):
        probs = {name: _softmax(logits) for name, logits in theta.items() if len(logits) > 1}  # else p = [1.0], grad 0.0
        draws = dict(zip(axes, rng.random(len(axes))))  # one per axis, as rng.choice(len(p), p=p) drew them
        actions = dict.fromkeys(axes, 0)
        for name, p in probs.items():
            cdf = p.cumsum()
            if np.isnan(cdf[-1]):
                raise ValueError("Probabilities contain NaN")
            actions[name] = int((cdf / cdf[-1]).searchsorted(draws[name], side="right"))
        design = Design(**{name: float(axes[name][i]) for name, i in actions.items()}, grid_cap_kw=grid_cap)
        metrics = evaluate(design)
        archive.append(EvaluatedDesign(design, metrics))

        # Orient all four objectives so higher is better, then normalize
        # against the running archive envelope.
        oriented = -_SENSES * np.array(metrics.objectives())
        lo = np.minimum(lo, oriented)
        hi = np.maximum(hi, oriented)
        span = hi - lo
        rewards = np.where(span > 0.0, (oriented - lo) / np.where(span > 0.0, span, 1.0), 0.0)

        if episode == 0:
            baselines = rewards.copy()
        weights = np.array(cycle[episode % len(cycle)].as_tuple())
        advantage = float(weights @ (rewards - baselines))
        baselines = _BASELINE_DECAY * baselines + (1.0 - _BASELINE_DECAY) * rewards

        if config.learning_rate != 0.0 and advantage != 0.0:
            for name, p in probs.items():
                grad = -p
                grad[actions[name]] += 1.0
                theta[name] = theta[name] + config.learning_rate * advantage * grad

    final_probs = {name: _softmax(logits) for name, logits in theta.items()}
    front_mask = pareto_mask([e.metrics for e in archive])
    front = [e for e, keep in zip(archive, front_mask) if keep]
    return PolicySearchResult(archive=archive, front=front, probabilities=final_probs, theta=theta)


# ----------------------------------------------------------------------
# Result files
# ----------------------------------------------------------------------

DESIGN_FIELDS = SearchSpace.AXES + ("grid_cap_kw",)
#: The columns of a results file, in order; a ranked file adds
#: ``non_dominated`` and ``front_rank``.
RESULT_FIELDS = DESIGN_FIELDS + METRIC_FIELDS + ("feasible",)


def _result_columns(evaluations: Sequence[EvaluatedDesign]) -> dict[str, list]:
    columns = {name: [getattr(e.design, name) for e in evaluations] for name in DESIGN_FIELDS}
    columns.update((name, [getattr(e.metrics, name) for e in evaluations]) for name in METRIC_FIELDS)
    columns["feasible"] = [True] * len(evaluations)
    return columns


def write_evaluations_csv(evaluations: Sequence[EvaluatedDesign] | Mapping[str, Sequence],
                          path: str | Path, with_front_rank: bool = False) -> np.ndarray | None:
    """One row per evaluated design: capacities, metrics, a ``feasible``
    flag, and optionally the Pareto front rank and membership flag.
    Returns the front ranks it wrote, or None without ``with_front_rank``.

    ``evaluations`` may also be a results table read back from a file: a
    mapping from each :data:`RESULT_FIELDS` name to its column of values.
    Every evaluated design is feasible, as the searches drop over-budget
    designs unevaluated, but a table's ``feasible`` column may hold
    False.  Only the feasible rows are ranked, among themselves: an
    infeasible row gets ``non_dominated`` 0, an empty ``front_rank`` cell
    and rank -1 in the returned array.
    """
    columns = evaluations if isinstance(evaluations, Mapping) else _result_columns(evaluations)
    if not len(columns["npc_usd"]):
        raise EmptyInputError("no evaluations to write")
    header = list(RESULT_FIELDS)
    cells = [csv_column(columns[name]) for name in RESULT_FIELDS]
    ranks = None
    if with_front_rank:
        objectives = np.array([columns[name] for name in OBJECTIVE_SENSES], dtype=float).T
        feasible = np.array(columns["feasible"], dtype=bool)
        ranks = np.full(len(feasible), -1)
        ranks[feasible] = pareto_ranks(objectives[feasible])
        header += ["non_dominated", "front_rank"]
        cells += [csv_column((ranks == 0).tolist()), csv_column([None if r < 0 else r for r in ranks.tolist()])]
    write_table(path, header, cells)
    return ranks


def write_pareto_csv(evaluations: Sequence[EvaluatedDesign], path: str | Path) -> list[EvaluatedDesign]:
    """Write only the non-dominated designs (rank column included);
    returns them in input order."""
    mask = pareto_mask([e.metrics for e in evaluations])
    front = [e for e, keep in zip(evaluations, mask) if keep]
    write_evaluations_csv(front, path, with_front_rank=True)
    return front
