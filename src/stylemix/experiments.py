"""Validation studies: linearity curves, monotonicity counterexamples,
and a baseline-versus-optimized allocation comparison.

The linearity study samples random style subsets of growing size from a
population and tracks how each variety measure's mean value scales,
fitting linear and quadratic models. Counterexample checks rebuild two
small geometric configurations where specific measures provably drop
when a style is added. The comparison study pits the solvers against a
deliberately variety-blind allocator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    Article,
    DistanceMatrix,
    DistributionInstance,
    DistributionPlan,
    FeatureCatalog,
    Metric,
    Store,
    distance_matrix,
    ensure_valid,
)
from .errors import InfeasibleError, MalformedInputError, VerificationError
from .solver import (
    HeuristicConfig,
    SolveReport,
    _construct,
    _count,
    _repair,
    _SearchState,
    auto_mode,
    improve_plan,
    plan_from_quantities,
    solve_exact,
    solve_heuristic,
)
from .variety import VarietyMeasure, check_monotonicity, variety

__all__ = [
    "LinearityConfig",
    "MeasureCurve",
    "ExperimentReport",
    "CounterexampleCheck",
    "CounterexampleReport",
    "BaselineComparison",
    "synthetic_population",
    "run_linearity",
    "verify_counterexamples",
    "baseline_allocate",
    "compare_against_baseline",
    "demo_catalog",
    "demo_instance",
]


def synthetic_population(size: int, dim: int = 16, seed: int = 0) -> FeatureCatalog:
    """Uniform random points in the unit hypercube as a style catalog.

    The default dimension is deliberately moderate: image-embedding
    vectors live in many dimensions, where pairwise distances
    concentrate. Very low dimensions change the shape of the
    nearest-neighbour variety curves.
    """
    if size < 1 or dim < 1:
        raise ValueError("size and dim must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    vectors = rng.random((size, dim))
    width = max(3, len(str(size - 1)))
    ids = tuple(f"p{idx:0{width}d}" for idx in range(size))
    return FeatureCatalog(ids, vectors)


@dataclass(frozen=True)
class LinearityConfig:
    """Settings for the subset-size sweep.

    population holds the distances between the styles subsets are drawn
    from, e.g. ``distance_matrix(catalog, metric)``. A non-integer size
    or repetition count raises ValueError.
    """

    population: DistanceMatrix
    subset_sizes: tuple[int, ...] = tuple(range(2, 21))
    repetitions: int = 1000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "subset_sizes", tuple(_count(k, "subset sizes") for k in self.subset_sizes))
        if not self.subset_sizes:
            raise ValueError("subset_sizes must be non-empty")
        if min(self.subset_sizes) < 1:
            raise ValueError("subset sizes must be at least 1")
        if len(set(self.subset_sizes)) < len(self.subset_sizes):
            raise ValueError(f"subset sizes must not repeat, got {list(self.subset_sizes)}")
        if _count(self.repetitions, "repetitions") < 1:
            raise ValueError("repetitions must be at least 1")


@dataclass(frozen=True)
class MeasureCurve:
    """Aggregated sweep results for one measure."""

    measure: VarietyMeasure
    sizes: tuple[int, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]
    linear_slope: float
    linear_intercept: float
    linear_r2: float
    quadratic_r2: float
    rank_correlation: float


@dataclass(frozen=True)
class ExperimentReport:
    """Full linearity-study output, serializable to CSV and JSON."""

    curves: tuple[MeasureCurve, ...]
    population_size: int
    repetitions: int
    seed: int

    def curve(self, measure: VarietyMeasure) -> MeasureCurve:
        for c in self.curves:
            if c.measure is measure:
                return c
        raise KeyError(measure)

    def to_csv(self) -> str:
        lines = ["measure,k,mean,std"]
        for c in self.curves:
            for k, mean, std in zip(c.sizes, c.means, c.stds):
                lines.append(f"{c.measure.value},{k},{mean!r},{std!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "population_size": self.population_size,
            "repetitions": self.repetitions,
            "seed": self.seed,
            "curves": [
                {
                    "measure": c.measure.value,
                    "sizes": list(c.sizes),
                    "means": list(c.means),
                    "stds": list(c.stds),
                    "linear_fit": {
                        "slope": c.linear_slope,
                        "intercept": c.linear_intercept,
                        "r2": c.linear_r2,
                    },
                    "quadratic_fit": {"r2": c.quadratic_r2},
                    "rank_correlation": c.rank_correlation,
                }
                for c in self.curves
            ],
        }
        return json.dumps(payload, indent=2) + "\n"


def _fit_r2(x: np.ndarray, y: np.ndarray, degree: int) -> tuple[np.ndarray, float]:
    if len(x) <= degree:
        # Fewer points than coefficients: any such fit is exact. Pad a
        # minimal-degree interpolation out to the requested shape.
        coeffs = np.zeros(degree + 1)
        coeffs[-len(x) :] = np.polyfit(x, y, len(x) - 1)
        return coeffs, 1.0
    coeffs = np.polyfit(x, y, degree)
    pred = np.polyval(coeffs, x)
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot <= 1e-30:
        return coeffs, 1.0 if ss_res <= 1e-30 else 0.0
    return coeffs, 1.0 - ss_res / ss_tot


def run_linearity(config: LinearityConfig) -> ExperimentReport:
    """Sweep subset sizes, sampling variety values for every measure.

    Each (measure, size, trial) triple draws from its own derived RNG
    stream, so runs with identical seeds are bit-reproducible and trials
    are independent regardless of evaluation order.

    Raises:
        MalformedInputError: A requested size exceeds the population.
    """
    # scipy.stats costs about half of importing the CLI, and only this uses it.
    from scipy.stats import spearmanr

    d = config.population
    n = d.n
    if max(config.subset_sizes) > n:
        raise MalformedInputError(
            f"population has {n} styles but a subset of "
            f"{max(config.subset_sizes)} was requested"
        )
    sizes = np.asarray(config.subset_sizes, dtype=np.float64)
    curves = []
    for m_idx, measure in enumerate(VarietyMeasure):
        means, stds = [], []
        for k in config.subset_sizes:
            values = np.empty(config.repetitions)
            for trial in range(config.repetitions):
                seq = np.random.SeedSequence(
                    entropy=config.seed, spawn_key=(m_idx, k, trial)
                )
                rng = np.random.default_rng(seq)
                subset = rng.choice(n, size=k, replace=False)
                values[trial] = variety(measure, subset, d)
            means.append(float(values.mean()))
            stds.append(float(values.std()))
        mean_arr = np.asarray(means)
        lin_coeffs, lin_r2 = _fit_r2(sizes, mean_arr, 1)
        _, quad_r2 = _fit_r2(sizes, mean_arr, 2)
        if len(config.subset_sizes) < 2 or float(np.ptp(mean_arr)) == 0.0:
            rank = 0.0
        else:
            rank = float(spearmanr(sizes, mean_arr).statistic)
        curves.append(
            MeasureCurve(
                measure=measure,
                sizes=config.subset_sizes,
                means=tuple(means),
                stds=tuple(stds),
                linear_slope=float(lin_coeffs[0]),
                linear_intercept=float(lin_coeffs[1]),
                linear_r2=lin_r2,
                quadratic_r2=quad_r2,
                rank_correlation=rank,
            )
        )
    return ExperimentReport(
        curves=tuple(curves),
        population_size=n,
        repetitions=config.repetitions,
        seed=config.seed,
    )


@dataclass(frozen=True)
class CounterexampleCheck:
    """One add-a-style monotonicity check on a fixed geometry."""

    measure: VarietyMeasure
    geometry: str
    before: float
    after: float
    held: bool
    expected_held: bool

    def to_dict(self) -> dict:
        return {
            "measure": self.measure.value,
            "geometry": self.geometry,
            "before": self.before,
            "after": self.after,
            "held": self.held,
            "expected_held": self.expected_held,
        }


@dataclass(frozen=True)
class CounterexampleReport:
    checks: tuple[CounterexampleCheck, ...]

    @property
    def all_as_expected(self) -> bool:
        return all(c.held == c.expected_held for c in self.checks)

    def check(self, measure: VarietyMeasure, geometry: str) -> CounterexampleCheck:
        for c in self.checks:
            if c.measure is measure and c.geometry == geometry:
                return c
        raise KeyError((measure, geometry))

    def to_json(self) -> str:
        return json.dumps(
            {
                "all_as_expected": self.all_as_expected,
                "checks": [c.to_dict() for c in self.checks],
            },
            indent=2,
        ) + "\n"


def _triangle_incenter_distances() -> DistanceMatrix:
    """Unit equilateral triangle plus its incenter, plain Euclidean."""
    h = math.sqrt(3.0) / 2.0
    points = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.5, h], [0.5, math.sqrt(3.0) / 6.0]]
    )
    catalog = FeatureCatalog(("v1", "v2", "v3", "center"), points)
    return distance_matrix(catalog, Metric.EUCLIDEAN)


def _segment_midpoint_distances() -> DistanceMatrix:
    """Two points at distance 2 plus their midpoint, plain Euclidean."""
    points = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    catalog = FeatureCatalog(("left", "right", "middle"), points)
    return distance_matrix(catalog, Metric.EUCLIDEAN)


def verify_counterexamples() -> CounterexampleReport:
    """Re-run the two fixed geometries that separate the measures.

    Adding the incenter to a unit triangle drops MAX_MIN_SUM from 2 to
    sqrt(3); adding the midpoint of a length-2 segment drops MAX_SUM_MIN
    from 4 to 3. MAX_MEAN and MAX_SUM_SUM must not decrease on either
    geometry.

    Raises:
        VerificationError: Any verdict differs from the expected one.
    """
    triangle = _triangle_incenter_distances()
    segment = _segment_midpoint_distances()
    cases = [
        (VarietyMeasure.MAX_MIN_SUM, "triangle_incenter", triangle, False),
        (VarietyMeasure.MAX_SUM_MIN, "segment_midpoint", segment, False),
        (VarietyMeasure.MAX_MEAN, "triangle_incenter", triangle, True),
        (VarietyMeasure.MAX_MEAN, "segment_midpoint", segment, True),
        (VarietyMeasure.MAX_SUM_SUM, "triangle_incenter", triangle, True),
        (VarietyMeasure.MAX_SUM_SUM, "segment_midpoint", segment, True),
    ]
    checks = []
    for measure, geometry, d, expected_held in cases:
        result = check_monotonicity(measure, d, range(d.n - 1), d.n - 1)
        checks.append(
            CounterexampleCheck(
                measure, geometry, result.before, result.after, result.held, expected_held
            )
        )
    report = CounterexampleReport(tuple(checks))
    if not report.all_as_expected:
        bad = [c for c in report.checks if c.held != c.expected_held]
        raise VerificationError(
            "unexpected monotonicity verdicts: "
            + "; ".join(
                f"{c.measure.value} on {c.geometry}: before={c.before}, after={c.after}"
                for c in bad
            )
        )
    return report


def demo_catalog() -> FeatureCatalog:
    """Eight styles forming four visually similar pairs.

    Pair centers sit at the corners of a square of side 10, with the two
    pair members offset by 0.5 along one axis, so within-pair distances
    are tiny compared to across-pair distances.
    """
    centers = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)]
    points = []
    for cx, cy in centers:
        points.append([cx - 0.5, cy])
        points.append([cx + 0.5, cy])
    ids = tuple(f"a{i}" for i in range(8))
    return FeatureCatalog(ids, np.array(points))


def demo_instance() -> DistributionInstance:
    """Paired-style showcase: 8 articles, 6 stores, 20% quantity band.

    Each article plans 16 units with a 4-unit minimum shipment; store
    desired quantities descend from 30 to 10.
    """
    catalog = demo_catalog()
    articles = tuple(
        Article(id=sid, planned_total=16, min_qty=4) for sid in catalog.ids
    )
    quantities = (30, 26, 22, 18, 14, 10)
    stores = tuple(
        Store(id=f"s{t}", desired_qty=q) for t, q in enumerate(quantities)
    )
    return DistributionInstance(
        articles=articles,
        stores=stores,
        alpha=Fraction("0.2"),
        distances=distance_matrix(catalog),
    )


def baseline_allocate(instance: DistributionInstance) -> DistributionPlan:
    """Variety-blind allocator used as the comparison baseline.

    Stores are served in descending desired quantity. Each store takes
    consecutive articles from a wrapping catalog cursor until it holds
    at least two styles and its lower quantity band looks coverable;
    quantities then come from the flow subproblem. Infeasibility is
    repaired by blindly adding the next cursor article to the first
    store of each violated cut that can still take one; repair only
    adds styles, for the reason given in ``solver._repair``. This is the
    heuristic's own construction and repair with the cursor as the
    chooser, so style dissimilarity never enters any choice.

    Raises:
        InfeasibleError: No feasible quantities exist for any pattern
            this procedure reaches.
    """
    ensure_valid(instance)
    state = _SearchState(instance)
    n = state.n
    cursor = 0

    def take_next(t: int) -> int | None:
        nonlocal cursor
        for _ in range(n):
            i = cursor % n
            cursor += 1
            if state.can_add(t, i):
                return i
        return None

    short = _construct(state, take_next)
    if short is not None:
        raise InfeasibleError(
            f"baseline cannot give store {instance.stores[short].id!r} two styles"
        )
    result = _repair(state, take_next)
    if result.feasible:
        return plan_from_quantities(instance, result.x)
    raise InfeasibleError("baseline allocator found no feasible quantities", result.certificate)


@dataclass(frozen=True)
class BaselineComparison:
    """Objective gap between the baseline and an optimizing solver."""

    baseline_plan: DistributionPlan
    optimized_plan: DistributionPlan
    optimizer: str

    @property
    def baseline_objective(self) -> float:
        return self.baseline_plan.objective

    @property
    def optimized_objective(self) -> float:
        return self.optimized_plan.objective

    @property
    def improvement_pct(self) -> float:
        """Percent gain over the baseline; inf when only the baseline is 0."""
        base, opt = self.baseline_objective, self.optimized_objective
        if abs(base) < 1e-12:
            return 0.0 if abs(opt) < 1e-12 else math.inf
        return 100.0 * (opt - base) / base

    def to_json(self) -> str:
        payload = {
            "baseline_objective": self.baseline_objective,
            "optimized_objective": self.optimized_objective,
            "improvement_pct": self.improvement_pct,
            "optimizer": self.optimizer,
            "baseline_plan": self.baseline_plan.to_dict(),
            "optimized_plan": self.optimized_plan.to_dict(),
        }
        return json.dumps(payload, indent=2) + "\n"


def compare_against_baseline(
    instance: DistributionInstance, seed: int = 0
) -> BaselineComparison:
    """Run the variety-blind baseline and an optimizer on one instance.

    The optimizer is the one ``solver.auto_mode`` picks, also reported as
    the comparison's ``optimizer`` label. If the heuristic somehow
    lands below the baseline, local search restarts from the baseline
    plan so the optimized objective never trails it.

    Raises:
        InfeasibleError: Propagated from either allocator.
    """
    base_plan = baseline_allocate(instance)
    optimizer = auto_mode(instance)
    if optimizer == "exact":
        report: SolveReport = solve_exact(instance)
    else:
        report = solve_heuristic(instance, HeuristicConfig(seed=seed))
        if report.plan.objective < base_plan.objective:
            polished = improve_plan(instance, base_plan, HeuristicConfig(seed=seed))
            if polished.plan.objective > report.plan.objective:
                report = polished
    return BaselineComparison(base_plan, report.plan, optimizer)
