"""Linearity sweep, counterexample checks, and the baseline comparison."""

import dataclasses
import json
import math

import numpy as np
import pytest

from stylemix import experiments
from stylemix.core import DistanceMatrix, Metric, distance_matrix
from stylemix.errors import MalformedInputError, VerificationError
from stylemix.experiments import (
    LinearityConfig,
    baseline_allocate,
    compare_against_baseline,
    demo_catalog,
    demo_instance,
    run_linearity,
    synthetic_population,
    verify_counterexamples,
)
from stylemix.core import validate_instance
from stylemix.solver import (
    EXACT_SIZE_LIMIT,
    AssignmentPattern,
    HeuristicConfig,
    SolveReport,
    SolveStatus,
    improve_plan,
    plan_from_quantities,
    plan_violations,
    quantity_feasible,
    solve_exact,
)
from stylemix.variety import VarietyMeasure

from conftest import random_feasible_instance


class TestSyntheticPopulation:
    def test_shape_and_determinism(self):
        a = synthetic_population(12, dim=3, seed=5)
        b = synthetic_population(12, dim=3, seed=5)
        assert a == b
        assert a.n == 12 and a.dim == 3
        assert np.all((a.vectors >= 0.0) & (a.vectors <= 1.0))

    def test_different_seeds_differ(self):
        assert synthetic_population(6, seed=1) != synthetic_population(6, seed=2)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            synthetic_population(0)


class TestRunLinearity:
    def small_report(self, seed=0):
        pop = synthetic_population(10, dim=4, seed=2)
        config = LinearityConfig(
            population=distance_matrix(pop),
            subset_sizes=tuple(range(2, 7)),
            repetitions=60,
            seed=seed,
        )
        return run_linearity(config)

    def test_reproducible_for_same_seed(self):
        a, b = self.small_report(), self.small_report()
        for ca, cb in zip(a.curves, b.curves):
            assert ca == cb

    def test_all_measures_and_sizes_present(self):
        report = self.small_report()
        assert {c.measure for c in report.curves} == set(VarietyMeasure)
        for curve in report.curves:
            assert curve.sizes == tuple(range(2, 7))
            assert len(curve.means) == len(curve.stds) == 5

    def test_pair_size_mean_matches_population_mean_distance(self):
        # Random 2-subsets score d/2 under MAX_MEAN, so the sweep mean
        # must approximate half the average pairwise distance.
        pop = synthetic_population(12, dim=3, seed=7)
        d = distance_matrix(pop, Metric.SQUARED_EUCLIDEAN)
        n = d.n
        expected = d.entries.sum() / (n * (n - 1)) / 2.0
        config = LinearityConfig(
            population=d, subset_sizes=(2,), repetitions=4000, seed=1
        )
        curve = run_linearity(config).curve(VarietyMeasure.MAX_MEAN)
        se = curve.stds[0] / math.sqrt(4000)
        assert abs(curve.means[0] - expected) <= 4 * se

    def test_population_too_small(self):
        pop = synthetic_population(4, dim=2, seed=0)
        with pytest.raises(MalformedInputError, match="population has 4 styles but a subset of 5"):
            run_linearity(LinearityConfig(population=distance_matrix(pop), subset_sizes=(5,)))

    @pytest.mark.parametrize(
        "sizes, reps, message",
        [
            ((), 10, "subset_sizes must be non-empty"),
            ((0, 2), 10, "subset sizes must be at least 1"),
            ((2,), 0, "repetitions must be at least 1"),
            ((2, 3, 2), 10, r"subset sizes must not repeat, got \[2, 3, 2\]"),
            ((2.5, 3.9), 10, "subset sizes must be an integer, got 2.5"),
            ((2,), 2.5, "repetitions must be an integer, got 2.5"),
        ],
    )
    def test_invalid_config_rejected(self, sizes, reps, message):
        d = distance_matrix(synthetic_population(4, dim=2, seed=0))
        with pytest.raises(ValueError, match=message):
            LinearityConfig(population=d, subset_sizes=sizes, repetitions=reps)

    def test_accepts_distance_matrix_input(self):
        pop = synthetic_population(8, dim=2, seed=3)
        d = distance_matrix(pop, Metric.EUCLIDEAN)
        report = run_linearity(
            LinearityConfig(population=d, subset_sizes=(2, 3), repetitions=20)
        )
        assert report.population_size == 8

    def test_csv_and_json_shapes(self):
        report = self.small_report()
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "measure,k,mean,std"
        assert len(lines) == 1 + 5 * 5
        payload = json.loads(report.to_json())
        assert len(payload["curves"]) == 5
        for curve in payload["curves"]:
            assert set(curve) >= {
                "measure",
                "sizes",
                "means",
                "stds",
                "linear_fit",
                "quadratic_fit",
                "rank_correlation",
            }


class TestCounterexamples:
    def test_report_is_fully_as_expected(self):
        report = verify_counterexamples()
        assert report.all_as_expected

    def test_min_sum_drops_to_root_three(self):
        report = verify_counterexamples()
        check = report.check(VarietyMeasure.MAX_MIN_SUM, "triangle_incenter")
        assert check.before == pytest.approx(2.0, abs=1e-9)
        assert check.after == pytest.approx(math.sqrt(3.0), abs=1e-9)
        assert not check.held

    def test_sum_min_drops_from_four_to_three(self):
        report = verify_counterexamples()
        check = report.check(VarietyMeasure.MAX_SUM_MIN, "segment_midpoint")
        assert check.before == pytest.approx(4.0, abs=1e-9)
        assert check.after == pytest.approx(3.0, abs=1e-9)
        assert not check.held

    def test_max_mean_holds_on_both_geometries(self):
        report = verify_counterexamples()
        tri = report.check(VarietyMeasure.MAX_MEAN, "triangle_incenter")
        seg = report.check(VarietyMeasure.MAX_MEAN, "segment_midpoint")
        assert tri.held and seg.held
        assert tri.after == pytest.approx((3 + math.sqrt(3)) / 4, abs=1e-9)
        assert seg.after == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_max_sum_sum_holds_on_both_geometries(self):
        report = verify_counterexamples()
        assert report.check(VarietyMeasure.MAX_SUM_SUM, "triangle_incenter").held
        assert report.check(VarietyMeasure.MAX_SUM_SUM, "segment_midpoint").held

    def test_json_round_trip(self):
        payload = json.loads(verify_counterexamples().to_json())
        assert payload["all_as_expected"] is True
        assert len(payload["checks"]) == 6

    def test_unexpected_verdict_names_measure_and_geometry(self, monkeypatch):
        original = experiments.check_monotonicity

        def flipped(measure, d, subset, added):
            result = original(measure, d, subset, added)
            if measure is VarietyMeasure.MAX_SUM_SUM and d.n == 3:  # the segment
                return dataclasses.replace(result, held=not result.held)
            return result

        monkeypatch.setattr(experiments, "check_monotonicity", flipped)
        with pytest.raises(VerificationError) as info:
            verify_counterexamples()
        message = str(info.value)
        assert message.startswith(
            "unexpected monotonicity verdicts: max_sum_sum on segment_midpoint:"
        )
        assert "triangle" not in message


class TestDemoInstance:
    def test_demo_is_valid(self):
        inst = demo_instance()
        assert validate_instance(inst) == []
        assert inst.n_articles == 8
        assert inst.n_stores == 6
        assert [a.planned_total for a in inst.articles] == [16] * 8
        assert [a.min_qty for a in inst.articles] == [4] * 8
        assert sorted(s.desired_qty for s in inst.stores) == [10, 14, 18, 22, 26, 30]

    def test_demo_catalog_pairs(self):
        cat = demo_catalog()
        assert cat.n == 8
        d = distance_matrix(cat, Metric.SQUARED_EUCLIDEAN).entries
        # Styles come in close pairs: each style's nearest neighbour is
        # its partner, far from the other corners.
        for i in range(0, 8, 2):
            assert d[i, i + 1] < 5.0


class TestBaseline:
    def test_baseline_plan_is_feasible(self):
        inst = demo_instance()
        plan = baseline_allocate(inst)
        assert plan_violations(inst, plan) == []
        for t in range(inst.n_stores):
            assert len(plan.store_set(t)) >= 2

    def test_baseline_ignores_distances(self):
        # Scrambling distances must not change the assignment pattern.
        inst = demo_instance()
        rng = np.random.default_rng(4)
        half = np.triu(rng.random((8, 8)) * 50.0, k=1)
        scrambled = DistributionInstance_replace(inst, DistanceMatrix(half + half.T))
        a = baseline_allocate(inst)
        b = baseline_allocate(scrambled)
        assert np.array_equal(a.y, b.y)

    def test_repaired_pattern_is_pinned(self):
        # Construction leaves this instance quantity-infeasible; repair
        # adds three cursor articles before the flow check passes.
        instance, _ = random_feasible_instance(67)
        plan = baseline_allocate(instance)
        assert plan.y.tolist() == [
            [1, 1, 0], [1, 1, 0], [1, 1, 0], [1, 1, 0],
            [1, 0, 1], [0, 0, 1], [1, 0, 0], [1, 0, 0],
        ]
        assert plan.objective == 106.32342296676026

    def test_comparison_on_demo_shows_strict_gain(self):
        cmp = compare_against_baseline(demo_instance(), seed=0)
        assert cmp.optimizer == "heuristic"
        assert cmp.optimized_objective > cmp.baseline_objective
        assert cmp.improvement_pct > 0
        assert plan_violations(demo_instance(), cmp.optimized_plan) == []

    def test_comparison_uses_exact_on_small_instances(self):
        instance, _ = random_feasible_instance(60, n_range=(4, 4), s_range=(2, 2))
        assert instance.n_articles * instance.n_stores <= EXACT_SIZE_LIMIT
        cmp = compare_against_baseline(instance, seed=0)
        assert cmp.optimizer == "exact"
        exact = solve_exact(instance)
        assert cmp.optimized_objective == pytest.approx(exact.objective, abs=1e-9)

    def test_heuristic_below_baseline_is_polished_from_the_baseline(self, monkeypatch):
        # Each store gets one close pair: objective 3.0, against the
        # baseline's 69.8 on the demo.
        instance = demo_instance()
        pairs = AssignmentPattern.from_sets(8, [{0, 1}, {2, 3}, {4, 5}, {6, 7}, {4, 5}, {0, 1}])
        low = plan_from_quantities(instance, quantity_feasible(instance, pairs).x)
        report = SolveReport(low, SolveStatus.FEASIBLE_HEURISTIC, 0, 0.0)
        monkeypatch.setattr(experiments, "solve_heuristic", lambda *args: report)
        cmp = compare_against_baseline(instance, seed=0)
        base = baseline_allocate(instance)
        polished = improve_plan(instance, base, HeuristicConfig(seed=0))
        assert low.objective < base.objective
        assert cmp.optimizer == "heuristic"
        assert np.array_equal(cmp.optimized_plan.x, polished.plan.x)
        assert cmp.optimized_objective >= cmp.baseline_objective

    def test_optimizer_never_loses_to_baseline(self):
        for seed in range(62, 70):
            instance, _ = random_feasible_instance(seed)
            cmp = compare_against_baseline(instance, seed=0)
            assert cmp.optimized_objective >= cmp.baseline_objective - 1e-9

    def test_comparison_json(self):
        cmp = compare_against_baseline(demo_instance(), seed=0)
        payload = json.loads(cmp.to_json())
        assert payload["optimizer"] in ("exact", "heuristic")
        assert payload["optimized_objective"] >= payload["baseline_objective"]


def DistributionInstance_replace(inst, distances):
    from stylemix.core import DistributionInstance

    return DistributionInstance(
        articles=inst.articles,
        stores=inst.stores,
        alpha=inst.alpha,
        distances=distances,
        big_m_policy=inst.big_m_policy,
    )
