"""Acceptance gate: one timed test per release criterion.

Each test wraps its body in the criterion() context manager, which
records a PASS or FAIL line for the terminal summary together with
the measured wall time, and enforces the runtime budget where one is
part of the criterion.
"""

import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from stylemix.core import (
    FeatureCatalog,
    Metric,
    distance_matrix,
    instance_to_json,
)
from stylemix.experiments import (
    LinearityConfig,
    compare_against_baseline,
    demo_instance,
    run_linearity,
    synthetic_population,
    verify_counterexamples,
)
from stylemix.lp import build_milp, check_assignment, linearization_witness
from stylemix.solver import (
    HeuristicConfig,
    plan_from_quantities,
    plan_violations,
    quantity_feasible,
    solve_exact,
    solve_heuristic,
)
from stylemix.variety import VarietyMeasure, check_monotonicity

from conftest import (
    dp_quantity_feasible,
    random_feasible_instance,
    random_micro_case,
    record_criterion,
)


@contextmanager
def criterion(number: int, description: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_s is not None:
            assert elapsed < budget_s, (
                f"criterion {number} took {elapsed:.2f}s, budget {budget_s:.0f}s"
            )
    except BaseException:
        record_criterion(number, description, False, time.perf_counter() - start)
        raise
    record_criterion(number, description, True, elapsed)


def test_counterexample_fidelity():
    desc = "fixed geometries: min-row-sum drops 2 to sqrt(3), sum-of-nearest drops 4 to 3, mean and total never drop"
    with criterion(1, desc, budget_s=1.0):
        report = verify_counterexamples()

        check = report.check(VarietyMeasure.MAX_MIN_SUM, "triangle_incenter")
        assert check.before == pytest.approx(2.0, abs=1e-9)
        assert check.after == pytest.approx(math.sqrt(3.0), abs=1e-9)
        assert check.after == pytest.approx(1.7321, abs=5e-5)
        assert not check.held

        check = report.check(VarietyMeasure.MAX_SUM_MIN, "segment_midpoint")
        assert check.before == pytest.approx(4.0, abs=1e-9)
        assert check.after == pytest.approx(3.0, abs=1e-9)
        assert not check.held

        for measure in (VarietyMeasure.MAX_MEAN, VarietyMeasure.MAX_SUM_SUM):
            for geometry in ("triangle_incenter", "segment_midpoint"):
                check = report.check(measure, geometry)
                assert check.held
                assert check.after >= check.before - 1e-12


def test_mean_variety_monotone_under_single_additions():
    desc = "mean pairwise variety never decreases when one style is added, 1000 random Euclidean point sets"
    with criterion(2, desc, budget_s=10.0):
        rng = np.random.default_rng(20260817)
        violations = 0
        for _ in range(1000):
            dim = int(rng.integers(2, 17))
            size = int(rng.integers(3, 21))
            scale = rng.uniform(0.5, 20.0)
            points = rng.normal(size=(size, dim)) * scale
            catalog = FeatureCatalog(
                tuple(f"p{i}" for i in range(size)), points
            )
            d = distance_matrix(catalog, Metric.EUCLIDEAN)
            k = int(rng.integers(1, size))
            perm = rng.permutation(size)
            subset = perm[:k]
            added = int(perm[k])
            result = check_monotonicity(VarietyMeasure.MAX_MEAN, d, subset, added)
            if not result.held:
                violations += 1
        assert violations == 0


def test_variety_growth_profiles():
    desc = "growth vs subset size: three measures linear (R2 >= 0.98), total quadratic, min-distance decreasing"
    with criterion(3, desc, budget_s=60.0):
        population = synthetic_population(35, 16, 0)
        config = LinearityConfig(
            population=distance_matrix(population),
            subset_sizes=tuple(range(2, 21)),
            repetitions=1000,
            seed=0,
        )
        report = run_linearity(config)
        for measure in (
            VarietyMeasure.MAX_MEAN,
            VarietyMeasure.MAX_MIN_SUM,
            VarietyMeasure.MAX_SUM_MIN,
        ):
            assert report.curve(measure).linear_r2 >= 0.98, measure
        total = report.curve(VarietyMeasure.MAX_SUM_SUM)
        assert total.quadratic_r2 - total.linear_r2 >= 0.01
        assert report.curve(VarietyMeasure.MAX_MIN).rank_correlation <= -0.9


def test_solver_oracle_equivalence():
    desc = "heuristic never beats exact and matches it on >= 90 of 100 instances; flow feasibility agrees with exhaustive search on 100 micro cases"
    with criterion(4, desc, budget_s=300.0):
        matches = 0
        for seed in range(100):
            instance, _ = random_feasible_instance(seed)
            exact = solve_exact(instance)
            heuristic = solve_heuristic(instance, HeuristicConfig(seed=seed))
            assert heuristic.plan is not None and exact.plan is not None
            assert heuristic.plan.objective <= exact.plan.objective + 1e-9
            if heuristic.plan.objective >= exact.plan.objective - 1e-9:
                matches += 1
        assert matches >= 90, f"heuristic matched exact on only {matches} of 100"

        for seed in range(100):
            instance, y = random_micro_case(seed)
            flow_verdict = quantity_feasible(instance, y).feasible
            search_verdict = dp_quantity_feasible(instance, y)
            assert flow_verdict == search_verdict, seed


def test_linearization_witness_exactness():
    desc = "witness built from a feasible plan satisfies every emitted row and reproduces the objective to 1e-9; counts match formulas"
    with criterion(5, desc, budget_s=30.0):
        for seed in range(50):
            instance, x = random_feasible_instance(seed + 1000)
            plan = plan_from_quantities(instance, x)
            model = build_milp(instance)
            values = linearization_witness(instance, plan)

            assert sorted(values) == sorted(model.variable_names)
            assert check_assignment(model, values, tol=1e-9) == []
            assert model.objective_value(values) == pytest.approx(
                plan.objective, abs=1e-9
            )

            n, s = instance.n_articles, instance.n_stores
            pairs = n * (n - 1) // 2
            expected_rows = (
                (2 * s)
                + n
                + (2 * n * s)
                + s
                + (3 * n * s + s)
                + (4 * s * pairs)
                + s
            )
            assert len(model.rows) == expected_rows
            assert len(model.generals) == n * s
            assert len(model.binaries) == n * s
            assert len(model.continuous) == s + n * s + s * pairs + s


def test_demo_beats_variety_blind_baseline():
    desc = "8x6 demo: optimized objective strictly above the variety-blind baseline, >= 2 styles per store, bands hold"
    with criterion(6, desc, budget_s=30.0):
        instance = demo_instance()
        assert instance.n_articles == 8
        assert instance.n_stores == 6
        assert all(a.planned_total == 16 and a.min_qty == 4 for a in instance.articles)
        assert all(10 <= st.desired_qty <= 30 for st in instance.stores)
        assert float(instance.alpha) == pytest.approx(0.2)

        comparison = compare_against_baseline(instance, seed=0)
        assert comparison.optimized_objective > comparison.baseline_objective

        for plan in (comparison.baseline_plan, comparison.optimized_plan):
            assert plan_violations(instance, plan) == []
            styles_per_store = plan.y.sum(axis=0)
            assert np.all(styles_per_store >= 2)
            totals = plan.x.sum(axis=0)
            for t in range(instance.n_stores):
                assert instance.lower_band(t) <= totals[t] <= instance.upper_band(t)


def test_solve_and_export_outputs_are_byte_deterministic(tmp_path):
    desc = "repeated heuristic solves (fixed seed) and LP exports produce byte-identical files"
    with criterion(7, desc):
        instance_path = tmp_path / "demo.json"
        instance_path.write_text(instance_to_json(demo_instance()), encoding="utf-8")
        env = dict(os.environ)
        env.pop("STYLEMIX_SEED", None)

        def run(argv):
            result = subprocess.run(
                [sys.executable, "-m", "stylemix", *argv],
                capture_output=True,
                env=env,
                timeout=300,
            )
            assert result.returncode == 0, result.stderr.decode()

        solve_bytes = []
        for attempt in range(2):
            out = tmp_path / f"plan{attempt}.json"
            run(
                [
                    "solve",
                    "--instance",
                    str(instance_path),
                    "--mode",
                    "heuristic",
                    "--seed",
                    "11",
                    "--output",
                    str(out),
                ]
            )
            solve_bytes.append(out.read_bytes())
        assert solve_bytes[0] == solve_bytes[1]

        lp_bytes = []
        for attempt in range(2):
            out = tmp_path / f"model{attempt}.lp"
            run(["export-lp", "--instance", str(instance_path), "--output", str(out)])
            lp_bytes.append(out.read_bytes())
        assert lp_bytes[0] == lp_bytes[1]
