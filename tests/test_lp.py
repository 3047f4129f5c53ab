"""MILP construction, witness exactness, and LP text rendering."""

import hashlib
import io
import math
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
    validate_instance,
)
from stylemix.errors import ValidationError
from stylemix.experiments import demo_instance
from stylemix.lp import (
    LpRow,
    build_milp,
    check_assignment,
    export_lp,
    linearization_witness,
    var_r,
    var_u,
    var_v,
    var_w,
    var_x,
    var_y,
)
from stylemix.solver import plan_from_quantities, solve_exact

from conftest import (
    adversarial_instance,
    random_feasible_instance,
    random_micro_case,
    recipe_instance,
)


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


def oracle_rows(instance: DistributionInstance):
    """Every row of the MILP built one ``LpRow`` at a time, in export order.

    The reference for the block renderer in ``stylemix.lp``: each family
    is written out as the row-by-row loop it replaced.
    """
    n, s = instance.n_articles, instance.n_stores
    d = instance.distances.entries
    for t in range(s):
        terms = tuple((var_x(i, t), 1.0) for i in range(n))
        yield LpRow(f"store_ub_{t}", terms, "<=", float(instance.upper_band(t)))
    for t in range(s):
        terms = tuple((var_x(i, t), 1.0) for i in range(n))
        yield LpRow(f"store_lb_{t}", terms, ">=", float(instance.lower_band(t)))
    for i in range(n):
        terms = tuple((var_x(i, t), 1.0) for t in range(s))
        yield LpRow(f"resource_{i}", terms, "<=", float(instance.articles[i].planned_total))
    for i in range(n):
        for t in range(s):
            m_i = float(instance.articles[i].min_qty)
            yield LpRow(f"min_qty_{i}_{t}", ((var_x(i, t), 1.0), (var_y(i, t), -m_i)), ">=", 0.0)
    for i in range(n):
        for t in range(s):
            cap_t = float(instance.big_m(t))
            yield LpRow(f"cap_{i}_{t}", ((var_x(i, t), 1.0), (var_y(i, t), -cap_t)), "<=", 0.0)
    for t in range(s):
        yield LpRow(f"min_styles_{t}", tuple((var_y(i, t), 1.0) for i in range(n)), ">=", 2.0)
    for i in range(n):
        for t in range(s):
            terms = ((var_u(i, t), 1.0), (var_r(t), -1.0), (var_y(i, t), -1.0))
            yield LpRow(f"u_lb_{i}_{t}", terms, ">=", -1.0)
    for i in range(n):
        for t in range(s):
            yield LpRow(f"u_le_r_{i}_{t}", ((var_u(i, t), 1.0), (var_r(t), -1.0)), "<=", 0.0)
    for i in range(n):
        for t in range(s):
            yield LpRow(f"u_le_y_{i}_{t}", ((var_u(i, t), 1.0), (var_y(i, t), -1.0)), "<=", 0.0)
    for t in range(s):
        yield LpRow(f"u_sum_{t}", tuple((var_u(i, t), 1.0) for i in range(n)), "=", 1.0)
    for i in range(n):
        for j in range(i + 1, n):
            for t in range(s):
                w = var_w(i, j, t)
                terms = ((w, 1.0), (var_r(t), -1.0), (var_y(i, t), -1.0), (var_y(j, t), -1.0))
                yield LpRow(f"w_lb_{i}_{j}_{t}", terms, ">=", -2.0)
                yield LpRow(f"w_le_yi_{i}_{j}_{t}", ((w, 1.0), (var_y(i, t), -1.0)), "<=", 0.0)
                yield LpRow(f"w_le_yj_{i}_{j}_{t}", ((w, 1.0), (var_y(j, t), -1.0)), "<=", 0.0)
                yield LpRow(f"w_le_r_{i}_{j}_{t}", ((w, 1.0), (var_r(t), -1.0)), "<=", 0.0)
    for t in range(s):
        terms = [(var_v(t), 1.0)]
        for i in range(n):
            for j in range(i + 1, n):
                terms.append((var_w(i, j, t), -float(d[i, j])))
        yield LpRow(f"variety_{t}", tuple(terms), "=", 0.0)


def oracle_fmt(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def oracle_render_terms(terms) -> list[str]:
    """Render '+ coef name' pieces, 8 per line, leading sign trimmed."""
    pieces = []
    for name, coef in terms:
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        pieces.append(f"{sign} {name}" if mag == 1 else f"{sign} {oracle_fmt(mag)} {name}")
    if pieces and pieces[0].startswith("+ "):
        pieces[0] = pieces[0][2:]
    return [" ".join(pieces[k : k + 8]) for k in range(0, len(pieces), 8)] or ["0"]


def oracle_export(instance: DistributionInstance) -> str:
    """The LP text rendered from ``oracle_rows`` one row at a time."""
    n, s = instance.n_articles, instance.n_stores
    objective = tuple((var_v(t), 1.0) for t in range(s))
    parts = ["Maximize\n obj: " + "\n      ".join(oracle_render_terms(objective)) + "\n"]
    parts.append("Subject To\n")
    for row in oracle_rows(instance):
        body = "\n    ".join(oracle_render_terms(row.terms))
        parts.append(f" {row.name}: {body} {row.sense} {oracle_fmt(row.rhs)}\n")
    for header, var in (("Generals", var_x), ("Binaries", var_y)):
        names = [var(i, t) for i in range(n) for t in range(s)]
        parts.append(header + "\n")
        parts += [" " + " ".join(names[k : k + 8]) + "\n" for k in range(0, len(names), 8)]
    return "".join(parts) + "End\n"


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
        # length; streaming holds one block of rows at a time.
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


def edge_instance() -> DistributionInstance:
    """Unit minimums, a unit cap, and zero, fractional and 1e20 distances."""
    d = np.array([[0.0, 0.0, 0.1], [0.0, 0.0, 1e20], [0.1, 1e20, 0.0]])
    return DistributionInstance(
        articles=tuple(Article(f"a{i}", 9, 1) for i in range(3)),
        stores=(Store("s0", 1), Store("s1", 5)),
        alpha=Fraction("0.2"),
        distances=DistanceMatrix(d),
    )


class TestOracle:
    """The block renderer must equal the row-by-row oracle, text and rows."""

    def test_edge_coefficients(self):
        instance = edge_instance()
        text = export_text(instance)
        assert " cap_0_0: x_0_0 - y_0_0 <= 0\n" in text
        assert (
            " variety_0: v_0 + 0 w_0_1_0 - 0.1 w_0_2_0 - 100000000000000000000 w_1_2_0 = 0\n"
            in text
        )
        variety_0 = next(row for row in build_milp(instance).rows if row.name == "variety_0")
        # The zero distance reads back from '+ 0' as 0.0, where the
        # row-by-row model held -0.0; the two compare equal.
        assert variety_0.terms == (
            ("v_0", 1.0), ("w_0_1_0", 0.0), ("w_0_2_0", -0.1), ("w_1_2_0", -1e20)
        )
        assert math.copysign(1.0, variety_0.terms[1][1]) == 1.0

    def test_text_and_rows_match_the_oracle(self):
        adversarial = [adversarial_instance(seed) for seed in range(120)]
        instances = [demo_instance(), edge_instance()]
        instances += [random_feasible_instance(seed)[0] for seed in range(200)]
        instances += [random_micro_case(seed)[0] for seed in range(200)]
        instances += [instance for instance in adversarial if not validate_instance(instance)]
        assert len(instances) == 522
        for instance in instances:
            assert export_text(instance) == oracle_export(instance)
            assert build_milp(instance).rows == tuple(oracle_rows(instance))


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
