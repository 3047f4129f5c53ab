"""MILP construction, witness exactness, and LP text rendering."""

import hashlib
import io
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array

from stylemix.core import (
    Article,
    DistanceMatrix,
    DistributionInstance,
    DistributionPlan,
    Store,
)
from stylemix.errors import ValidationError
from stylemix.experiments import demo_instance
from stylemix.lp import (
    build_milp,
    check_assignment,
    export_lp,
    linearization_witness,
    var_w,
)
from stylemix.solver import plan_from_quantities, solve_exact

from conftest import random_feasible_instance, recipe_instance


def tiny_instance() -> DistributionInstance:
    return DistributionInstance(
        articles=(Article("a0", 16, 4), Article("a1", 16, 4)),
        stores=(Store("s0", 30),),
        alpha=Fraction("0.2"),
        distances=DistanceMatrix(np.array([[0.0, 3.0], [3.0, 0.0]])),
    )


def expected_row_count(n: int, s: int) -> int:
    pairs = n * (n - 1) // 2
    return (2 * s) + n + (2 * n * s) + s + (3 * n * s + s) + (4 * s * pairs) + s


def expected_variable_counts(n: int, s: int) -> tuple[int, int, int]:
    pairs = n * (n - 1) // 2
    generals = n * s
    binaries = n * s
    continuous = s + n * s + s * pairs + s
    return generals, binaries, continuous


class TestModelShape:
    def test_tiny_counts(self):
        model = build_milp(tiny_instance())
        assert len(model.rows) == expected_row_count(2, 1) == 21
        assert len(model.generals) == 2
        assert len(model.binaries) == 2
        assert len(model.continuous) == 5

    def test_counts_match_formulas_on_random_instances(self):
        for seed in range(15):
            instance, _ = random_feasible_instance(seed)
            n, s = instance.n_articles, instance.n_stores
            model = build_milp(instance)
            assert len(model.rows) == expected_row_count(n, s)
            generals, binaries, continuous = expected_variable_counts(n, s)
            assert len(model.generals) == generals
            assert len(model.binaries) == binaries
            assert len(model.continuous) == continuous

    def test_row_names_unique(self):
        instance, _ = random_feasible_instance(3)
        model = build_milp(instance)
        names = [row.name for row in model.rows]
        assert len(names) == len(set(names))

    def test_band_rhs_uses_exact_integers(self):
        model = build_milp(tiny_instance())
        by_name = {row.name: row for row in model.rows}
        assert by_name["store_ub_0"].rhs == 36.0
        assert by_name["store_lb_0"].rhs == 24.0

    def test_var_w_requires_ordered_pair(self):
        with pytest.raises(ValueError):
            var_w(2, 1, 0)


class TestWitness:
    def test_witness_satisfies_every_row(self):
        for seed in range(15):
            instance, x = random_feasible_instance(seed)
            plan = plan_from_quantities(instance, x)
            model = build_milp(instance)
            values = linearization_witness(instance, plan)
            assert sorted(values) == sorted(model.variable_names)
            assert check_assignment(model, values) == []

    def test_witness_objective_matches_plan(self):
        for seed in range(15):
            instance, x = random_feasible_instance(seed + 30)
            plan = plan_from_quantities(instance, x)
            model = build_milp(instance)
            values = linearization_witness(instance, plan)
            assert model.objective_value(values) == pytest.approx(
                plan.objective, abs=1e-9
            )

    def test_reciprocal_values(self):
        instance, x = random_feasible_instance(8)
        plan = plan_from_quantities(instance, x)
        values = linearization_witness(instance, plan)
        for t in range(instance.n_stores):
            count = int(plan.y[:, t].sum())
            assert values[f"r_{t}"] == pytest.approx(1.0 / count)
            u_sum = sum(values[f"u_{i}_{t}"] for i in range(instance.n_articles))
            assert u_sum == pytest.approx(1.0)

    def test_single_style_store_rejected(self):
        instance, _ = random_feasible_instance(2)
        y = np.zeros((instance.n_articles, instance.n_stores), dtype=np.int8)
        y[0, :] = 1
        plan = DistributionPlan(y, (0.0,) * instance.n_stores)
        with pytest.raises(ValueError):
            linearization_witness(instance, plan)

    def test_perturbed_witness_is_caught(self):
        instance, x = random_feasible_instance(5)
        plan = plan_from_quantities(instance, x)
        model = build_milp(instance)
        values = linearization_witness(instance, plan)
        values["r_0"] += 0.25
        violated = check_assignment(model, values)
        assert violated
        assert any(name.startswith(("u_", "w_")) for name in violated)


def export_text(instance: DistributionInstance) -> str:
    out = io.StringIO()
    assert export_lp(instance, out) is None
    return out.getvalue()


class _CountingSink:
    """A text stream that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)


class TestExport:
    def test_sections_in_order(self):
        text = export_text(tiny_instance())
        positions = [
            text.index("Maximize"),
            text.index("Subject To"),
            text.index("Generals"),
            text.index("Binaries"),
            text.index("End"),
        ]
        assert positions == sorted(positions)
        assert text.endswith("End\n")

    def test_every_row_name_rendered(self):
        instance = tiny_instance()
        model = build_milp(instance)
        text = export_text(instance)
        for row in model.rows:
            assert f" {row.name}: " in text

    def test_integral_rhs_rendered_without_decimal_point(self):
        text = export_text(tiny_instance())
        assert "<= 36" in text
        assert ">= 24" in text
        assert "36.0" not in text

    def test_deterministic_bytes(self):
        instance, _ = random_feasible_instance(9)
        assert export_text(instance) == export_text(instance)

    def test_long_rows_wrap(self):
        instance, _ = random_feasible_instance(1, n_range=(8, 8), s_range=(3, 3))
        text = export_text(instance)
        lines = text.splitlines()
        # variety_0 carries 1 + 28 terms, so it spans several lines with
        # the sense and right-hand side on the last one.
        start = next(i for i, l in enumerate(lines) if "variety_0:" in l)
        assert "=" not in lines[start].replace("variety_0:", "")
        end = start
        while "= 0" not in lines[end]:
            end += 1
        assert end > start
        for line in lines[start + 1 : end + 1]:
            assert line.startswith("    ")

    def test_demo_bytes_are_pinned(self):
        text = export_text(demo_instance())
        assert len(text) == 39_889
        assert len(build_milp(demo_instance()).rows) == 950
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == "a652ef954ea3453dddd4f7501640447b41cf49e3bf6b76a5154c4a03a86d5924"

    def test_export_streams_rows(self):
        # Holding the rows or the text would take several times the output
        # length; streaming holds one row at a time.
        instance = recipe_instance(30, 15, 0)
        sink = _CountingSink()
        tracemalloc.start()
        try:
            export_lp(instance, sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.chars > 1_000_000
        assert peak < sink.chars / 2

    def test_invalid_instance_writes_nothing(self):
        instance = replace(tiny_instance(), alpha=Fraction(3, 2))
        sink = _CountingSink()
        with pytest.raises(ValidationError):
            export_lp(instance, sink)
        assert sink.chars == 0


def highs_optimum(instance: DistributionInstance) -> float:
    """Optimum of ``build_milp(instance)`` found by scipy's HiGHS.

    Presolve is off: with it on, HiGHS reports status optimal at 76.257 on
    ``random_feasible_instance(9)``, whose optimum is 118.264.
    """
    model = build_milp(instance)
    column = {name: k for k, name in enumerate(model.variable_names)}
    entries, rows, cols = [], [], []
    lower = np.full(len(model.rows), -np.inf)
    upper = np.full(len(model.rows), np.inf)
    for r, row in enumerate(model.rows):
        for name, coef in row.terms:
            entries.append(coef)
            rows.append(r)
            cols.append(column[name])
        if row.sense != "<=":
            lower[r] = row.rhs
        if row.sense != ">=":
            upper[r] = row.rhs
    matrix = coo_array((entries, (rows, cols)), shape=(len(model.rows), len(column)))
    cost = np.zeros(len(column))
    for name, coef in model.objective:
        cost[column[name]] -= coef
    n_gen, n_bin = len(model.generals), len(model.binaries)
    integrality = np.zeros(len(column))
    integrality[: n_gen + n_bin] = 1
    var_upper = np.full(len(column), np.inf)
    var_upper[n_gen : n_gen + n_bin] = 1.0
    result = milp(
        cost,
        integrality=integrality,
        bounds=Bounds(0.0, var_upper),
        constraints=LinearConstraint(matrix.tocsr(), lower, upper),
        options={"presolve": False},
    )
    assert result.status == 0, result.message
    return -result.fun


class TestHighsOracle:
    """HiGHS on the exported model must reach the exact search's optimum."""

    def test_matches_solve_exact_on_small_instances(self):
        checked = 0
        for seed in range(40):
            instance, _ = random_feasible_instance(seed)
            if instance.n_articles * instance.n_stores > 14:
                continue
            expected = solve_exact(instance).objective
            assert highs_optimum(instance) == pytest.approx(expected, rel=1e-6), seed
            checked += 1
        assert checked == 31

    def test_seed_9_where_presolve_misleads(self):
        instance, _ = random_feasible_instance(9)
        assert (instance.n_articles, instance.n_stores) == (4, 1)
        assert highs_optimum(instance) == pytest.approx(118.264, abs=1e-3)
        assert solve_exact(instance).objective == pytest.approx(118.264, abs=1e-3)
