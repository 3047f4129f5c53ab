"""Quantity feasibility, exact search, and the heuristic."""

import contextlib
import io
import math
import time
from fractions import Fraction
from itertools import combinations, count, product
from types import SimpleNamespace

import numpy as np
import pytest

from stylemix.core import (
    Article,
    BigMPolicy,
    DistanceMatrix,
    DistributionInstance,
    DistributionPlan,
    Store,
    distance_matrix,
    validate_instance,
)
from stylemix.errors import (
    BudgetExceededError,
    InfeasibleError,
    InfeasiblePlanError,
    MalformedInputError,
    ValidationError,
)
from stylemix import solver
from stylemix.experiments import (
    LinearityConfig,
    baseline_allocate,
    demo_catalog,
    demo_instance,
    synthetic_population,
)
from stylemix.flow import CutCertificate, EdgeCertificate
from stylemix.lp import export_lp
from stylemix.solver import (
    HeuristicConfig,
    SolveLimits,
    SolveStatus,
    evaluate_plan,
    improve_plan,
    plan_from_quantities,
    plan_violations,
    quantity_feasible,
    solve_exact,
    solve_heuristic,
)
from stylemix.variety import VarietyMeasure, variety

from conftest import (
    adversarial_instance,
    brute_variety,
    cut_totals,
    dp_quantity_feasible,
    pattern_y,
    random_feasible_instance,
    random_micro_case,
    recipe_instance,
)


def two_article_instance(**overrides) -> DistributionInstance:
    kwargs = dict(
        articles=(Article("a0", 16, 1), Article("a1", 16, 1)),
        stores=(Store("s0", 5), Store("s1", 5)),
        alpha=Fraction(0),
        distances=DistanceMatrix(np.array([[0.0, 2.0], [2.0, 0.0]])),
    )
    kwargs.update(overrides)
    return DistributionInstance(**kwargs)


def linearity_config(**overrides) -> LinearityConfig:
    return LinearityConfig(population=distance_matrix(synthetic_population(4, dim=2, seed=0)), **overrides)


class TestQuantityFeasible:
    def test_trivial_split(self):
        inst = two_article_instance()
        result = quantity_feasible(inst, pattern_y(2, [{0, 1}, {0, 1}]))
        assert result.feasible
        assert result.x.sum(axis=0).tolist() == [5, 5]
        assert np.all(result.x >= 1)

    def test_pattern_of_wrong_shape_rejected(self):
        with pytest.raises(MalformedInputError, match="pattern is 2x1 but the instance"):
            quantity_feasible(two_article_instance(), pattern_y(2, [{0, 1}]))

    def test_non_binary_rejected(self):
        y = np.array([[2, 1], [1, 1]], dtype=np.int8)
        with pytest.raises(MalformedInputError, match="pattern entries must be 0 or 1"):
            quantity_feasible(two_article_instance(), y)

    def test_pattern_that_is_not_a_matrix_rejected(self):
        with pytest.raises(MalformedInputError, match="pattern must be a 2-D matrix"):
            quantity_feasible(two_article_instance(), [1, 1, 1, 1])

    def test_ragged_pattern_rejected(self):
        # numpy cannot make an array of rows of unequal length.
        with pytest.raises(MalformedInputError, match="pattern must be a 2-D matrix"):
            quantity_feasible(two_article_instance(), [[1, 1], [1]])

    @pytest.mark.parametrize(
        "convert",
        [
            lambda y: y.astype(bool),
            lambda y: y.astype(np.int64),
            lambda y: y.tolist(),
        ],
        ids=["bool", "int64", "nested-lists"],
    )
    def test_any_array_like_gives_the_int8_verdict(self, convert):
        for seed in range(60):
            instance, y = random_micro_case(seed)
            expected = quantity_feasible(instance, y)
            result = quantity_feasible(instance, convert(y))
            assert result.feasible == expected.feasible, seed
            assert repr(result.certificate) == repr(expected.certificate), seed
            if expected.feasible:
                assert np.array_equal(result.x, expected.x), seed

    def test_store_with_one_style_gets_a_verdict(self):
        # The two-style rule is the plan's: the flow check decides the
        # quantities of a store holding one style like any other.
        inst = two_article_instance()
        result = quantity_feasible(inst, pattern_y(2, [{0}, {0, 1}]))
        assert result.feasible
        assert result.x[:, 0].tolist() == [5, 0]
        assert result.x.sum(axis=0).tolist() == [5, 5]
        violations = plan_violations(inst, plan_from_quantities(inst, result.x))
        assert [v.code for v in violations] == ["too_few_styles"]

    def test_respects_planned_totals(self):
        inst = two_article_instance(
            articles=(Article("a0", 3, 1), Article("a1", 16, 1))
        )
        result = quantity_feasible(inst, pattern_y(2, [{0, 1}, {0, 1}]))
        assert result.feasible
        assert result.x[0].sum() <= 3

    def test_min_qty_above_cap_yields_edge_certificate(self):
        inst = two_article_instance(
            articles=(Article("a0", 16, 9), Article("a1", 16, 1))
        )
        result = quantity_feasible(inst, pattern_y(2, [{0, 1}, {0, 1}]))
        assert not result.feasible
        cert = result.certificate
        assert isinstance(cert, EdgeCertificate)
        assert cert.min_qty == 9
        assert cert.cap == 5
        assert str(cert) == (
            "article 'a0' at store 's0' requires at least 9 units but is capped at 5"
        )

    def test_demand_driven_certificate_names_short_stores(self):
        # Two stores must each take 10 units of the same two articles,
        # but only 12 units exist in total.
        inst = DistributionInstance(
            articles=(Article("a0", 6, 1), Article("a1", 6, 1)),
            stores=(Store("s0", 10), Store("s1", 10)),
            alpha=Fraction(0),
            distances=DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
        )
        result = quantity_feasible(inst, pattern_y(2, [{0, 1}, {0, 1}]))
        assert not result.feasible
        cert = result.certificate
        assert isinstance(cert, CutCertificate)
        assert cert.demand_driven
        assert cert.stores == (0, 1)
        assert cert.articles == (0, 1)
        assert cert.required == 20
        assert cert.available == 12

    def test_mins_driven_certificate_names_overloaded_store(self):
        # Three articles force 4 units each into a store capped at 10.
        d = np.ones((3, 3))
        np.fill_diagonal(d, 0.0)
        inst = DistributionInstance(
            articles=tuple(Article(f"a{i}", 50, 4) for i in range(3)),
            stores=(Store("s0", 10),),
            alpha=Fraction(0),
            distances=DistanceMatrix(d),
        )
        result = quantity_feasible(inst, pattern_y(3, [{0, 1, 2}]))
        assert not result.feasible
        cert = result.certificate
        assert isinstance(cert, CutCertificate)
        assert not cert.demand_driven
        assert cert.stores == (0,)
        assert cert.required == 12
        assert cert.available == 10
        assert str(cert) == (
            "minimum shipments into stores ['s0'] total 12 units, but at most 10 can be absorbed"
        )

    def test_matches_dp_oracle_on_random_micro_cases(self):
        agree_feasible = agree_infeasible = 0
        for seed in range(120):
            instance, y = random_micro_case(seed)
            expected = dp_quantity_feasible(instance, y)
            result = quantity_feasible(instance, y)
            assert result.feasible == expected, f"seed {seed}"
            if expected:
                agree_feasible += 1
                plan = plan_from_quantities(instance, result.x)
                assert plan_violations(instance, plan) == []
            else:
                agree_infeasible += 1
        assert agree_feasible >= 20
        assert agree_infeasible >= 20

    def test_cut_certificates_are_violated_cuts(self):
        checked = 0
        for seed in range(120):
            instance, y = random_micro_case(seed)
            result = quantity_feasible(instance, y)
            if result.feasible or not isinstance(result.certificate, CutCertificate):
                continue
            cert = result.certificate
            assert cert.required > cert.available
            assert cut_totals(instance, y, cert) == (cert.required, cert.available)
            checked += 1
        assert checked >= 10

    def test_capacities_beyond_32_bits_do_not_wrap(self):
        # Summed, the planned totals exceed the max-flow solver's 32-bit
        # capacities; each edge alone stays small.
        d = np.ones((4, 4))
        np.fill_diagonal(d, 0.0)
        inst = DistributionInstance(
            articles=tuple(Article(f"a{i}", 600_000_000, 1) for i in range(4)),
            stores=(Store("s0", 20),),
            alpha=Fraction("0.2"),
            distances=DistanceMatrix(d),
        )
        result = quantity_feasible(inst, pattern_y(4, [{0, 1, 2, 3}]))
        assert result.feasible
        assert plan_violations(inst, plan_from_quantities(inst, result.x)) == []

    def test_capacity_above_32_bits_raises(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        inst = DistributionInstance(
            articles=(Article("a0", 600_000_000, 1), Article("a1", 600_000_000, 1)),
            stores=(Store("s0", 3_000_000_000),),
            alpha=Fraction("0.2"),
            distances=DistanceMatrix(d),
        )
        with pytest.raises(ValueError):
            quantity_feasible(inst, pattern_y(2, [{0, 1}]))

    def test_witness_quantities_are_feasible(self):
        for seed in range(40):
            instance, x = random_feasible_instance(seed)
            plan = plan_from_quantities(instance, x)
            assert plan_violations(instance, plan) == []
            y = (x >= 1).astype(np.int8)
            result = quantity_feasible(instance, y)
            assert result.feasible, f"seed {seed}"


def all_patterns(n: int, s: int):
    per_store = [
        [frozenset(c) for k in range(2, n + 1) for c in combinations(range(n), k)]
    ] * s
    return product(*per_store)


def brute_force_optimum(instance) -> tuple[float, tuple[int, ...]] | None:
    """Best objective and the smallest row-major y attaining it.

    Enumerates every pattern, so it is independent of the solver's
    pruning and visiting order.
    """
    n, s = instance.n_articles, instance.n_stores
    feasible = []
    for column_sets in all_patterns(n, s):
        y = pattern_y(n, column_sets)
        if not quantity_feasible(instance, y).feasible:
            continue
        value = sum(
            brute_variety(VarietyMeasure.MAX_MEAN, c, instance.distances.entries)
            for c in column_sets
        )
        feasible.append((value, tuple(int(v) for v in y.reshape(-1))))
    if not feasible:
        return None
    best = max(value for value, _ in feasible)
    return best, min(y for value, y in feasible if value >= best - 1e-9)


def supply_bound_instance() -> DistributionInstance:
    """8 articles over 4 stores; planned totals of three minimums make supply bind."""
    desired = np.random.default_rng(2).integers(12, 40, 4)
    return DistributionInstance(
        articles=tuple(Article(f"a{i}", 12, 4) for i in range(8)),
        stores=tuple(Store(f"s{t}", int(q)) for t, q in enumerate(desired)),
        alpha=Fraction("0.2"),
        distances=distance_matrix(synthetic_population(8, 16, 2)),
    )


def listed_subsets(instance: DistributionInstance, t: int) -> list[tuple[tuple[int, ...], float]]:
    """Store t's admissible style subsets with their varieties, best first.

    The reference loop: every combination of usable styles in size-then-
    lexicographic order, both knapsack tests and one ``variety`` call per
    subset, then a stable sort on descending variety.
    """
    cap = instance.big_m(t)
    usable = [i for i, a in enumerate(instance.articles) if a.min_qty <= cap]
    out = []
    for size in range(2, len(usable) + 1):
        for combo in combinations(usable, size):
            chosen = [instance.articles[i] for i in combo]
            if sum(a.min_qty for a in chosen) > instance.upper_band(t):
                continue
            if sum(min(a.planned_total, cap) for a in chosen) < instance.lower_band(t):
                continue
            out.append((combo, variety(VarietyMeasure.MAX_MEAN, combo, instance.distances)))
    out.sort(key=lambda option: -option[1])
    return out


def priced_root_bound(instance: DistributionInstance) -> tuple[float, np.ndarray]:
    """L(lam), recomputed with plain loops, at the solver's supply prices lam."""
    candidates = solver._store_candidates(instance)
    counts = [a.planned_total // a.min_qty for a in instance.articles]
    lam, _ = solver._supply_prices(candidates, np.array(counts))
    n = instance.n_articles
    total = sum(lam[i] * counts[i] for i in range(n))
    for values, masks in candidates:
        total += max(
            value - sum(lam[i] for i in range(n) if mask >> i & 1)
            for value, mask in zip(values.tolist(), masks.tolist())
        )
    return total, lam


def reduceat_supply_prices(candidates, counts: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """``solver._supply_prices`` without a deadline, as one ``reduceat`` pass per step.

    The reference loop: each step finds every store's top priced value
    with ``np.maximum.reduceat`` and its first row reaching it through
    ``repeat``, ``==``, ``flatnonzero`` and ``searchsorted``.
    """
    n = len(counts)
    if np.all(counts >= len(candidates)):
        return np.zeros(n), [np.zeros(len(values)) for values, _ in candidates]
    sizes = [len(values) for values, _ in candidates]
    starts = np.cumsum([0, *sizes[:-1]])
    values = np.concatenate([values for values, _ in candidates])
    masks = np.concatenate([masks for _, masks in candidates])
    members = (masks[:, None] >> np.arange(n) & 1).astype(float)
    lam = best_lam = np.zeros(n)
    step, best = values.max() / 4, math.inf
    for k in range(solver._PRICE_STEPS):
        priced = values - members @ lam
        top = np.maximum.reduceat(priced, starts)
        bound = top.sum() + lam @ counts
        if bound < best:
            best, best_lam = bound, lam
        hits = np.flatnonzero(priced == np.repeat(top, sizes))
        g = counts - members[hits[np.searchsorted(hits, starts)]].sum(axis=0)
        if not g.any():
            break
        lam = np.maximum(0.0, lam - step * 0.97**k / math.sqrt(g @ g) * g)
    return best_lam, np.split(members @ best_lam, starts[1:])


def numpy_free_bests(values, masks, priced, blocked: int) -> tuple[float, float]:
    """``solver._free_bests`` as numpy expressions over the store's rows.

    The reference: the first row avoiding ``blocked`` gives the best
    value and ``np.maximum.reduce`` over the avoiding rows the best
    priced value; -inf for both when no row avoids it.
    """
    free = (masks & blocked) == 0
    first = int(free.argmax())
    if not free[first]:
        return -math.inf, -math.inf
    return float(values[first]), float(np.maximum.reduce(priced, where=free, initial=-math.inf))


def wide_instance(n: int) -> DistributionInstance:
    """Six usable styles, the last three at positions n-3..n-1, for five stores.

    The other n-6 styles need 60 units, more than any store's cap, so
    no subset holds them. Each usable style's 16 units serve at most
    four of the five stores, so supply binds.
    """
    usable = (0, 1, 2, n - 3, n - 2, n - 1)
    x = np.zeros(n)
    x[list(usable)] = (4.0, 6.0, 7.0, 0.0, 5.0, 10.0)
    return DistributionInstance(
        articles=tuple(
            Article(f"a{i}", 16, 4) if i in usable else Article(f"a{i}", 60, 60) for i in range(n)
        ),
        stores=tuple(Store(f"s{t}", q) for t, q in enumerate((20, 16, 14, 18, 12))),
        alpha=Fraction("0.2"),
        distances=DistanceMatrix(np.subtract.outer(x, x) ** 2),
    )


class TestSolveExact:
    def test_line_of_four(self, line_instance):
        report = solve_exact(line_instance)
        assert report.status is SolveStatus.OPTIMAL
        assert report.objective == pytest.approx(5.0, abs=1e-9)
        assert report.plan.store_set(0) == (1, 2)
        assert report.plan.store_set(1) == (0, 3)

    def test_matches_brute_force_on_random_instances(self):
        compared = 0
        for seed in range(25):
            instance, _ = random_feasible_instance(
                seed, n_range=(3, 5), s_range=(1, 2)
            )
            expected = brute_force_optimum(instance)
            assert expected is not None
            expected_value, expected_y = expected
            report = solve_exact(instance)
            assert report.status is SolveStatus.OPTIMAL
            assert report.objective == pytest.approx(expected_value, abs=1e-9)
            assert tuple(int(v) for v in report.plan.y.reshape(-1)) == expected_y
            assert plan_violations(instance, report.plan) == []
            compared += 1
        assert compared == 25

    def test_matches_brute_force_where_supply_binds(self):
        # Some article cannot serve every store, so the search prunes on
        # the articles whose supply has run out; infeasible instances
        # must raise exactly when brute force finds no feasible pattern.
        compared = infeasible = priced = 0
        for seed in range(120):
            instance = adversarial_instance(seed)
            n, s = instance.n_articles, instance.n_stores
            if validate_instance(instance) or s < 2 or (2**n - n - 1) ** s > 1400:
                continue
            if all(a.planned_total >= s * a.min_qty for a in instance.articles):
                continue
            expected = brute_force_optimum(instance)
            compared += 1
            if expected is None:
                infeasible += 1
                with pytest.raises(InfeasibleError):
                    solve_exact(instance)
                continue
            expected_value, expected_y = expected
            report = solve_exact(instance)
            assert report.objective == pytest.approx(expected_value, abs=1e-9), seed
            assert tuple(int(v) for v in report.plan.y.reshape(-1)) == expected_y, seed
            # The Lagrangian bound holds for any prices, so also for the solver's.
            bound, lam = priced_root_bound(instance)
            assert bound >= expected_value - 1e-9, seed
            priced += lam.any()
        assert infeasible >= 10 and compared - infeasible >= 8
        assert priced >= 8

    def test_supply_binding_optimum_is_pinned(self):
        report = solve_exact(supply_bound_instance())
        assert report.status is SolveStatus.OPTIMAL
        assert report.iterations == 12
        assert report.objective == 28.076869277147694
        assert report.plan.y.T.tolist() == [
            [1, 1, 1, 1, 1, 1, 1, 1],
            [1, 1, 0, 1, 1, 0, 0, 1],
            [0, 0, 1, 1, 0, 1, 1, 0],
            [1, 1, 0, 0, 1, 1, 1, 1],
        ]

    @pytest.mark.parametrize(
        "n, objective, checks", [(10, 111.4602694725007, 37), (8, 97.74627793598583, 60)]
    )
    def test_supply_binding_recipe_is_proven_optimal(self, n, objective, checks):
        # Twelve stores want styles whose 40 units serve at most ten; the
        # priced bound proves these optima within the budget.
        limits = SolveLimits(time_budget=5, max_patterns=None)
        report = solve_exact(recipe_instance(n, 12, 0), limits)
        assert report.status is SolveStatus.OPTIMAL
        assert report.objective == objective
        assert report.iterations == checks

    def test_candidate_arrays_match_the_subset_loop(self, monkeypatch):
        # The larger store of the nested instance admits only the triple,
        # the smaller one all four subsets: neither store's list holds
        # the other's. With 3 rows per chunk every listing but the
        # smallest spans several chunks, and with more stores than styles
        # per subset each chunk holds fewer rows.
        nested = DistributionInstance(
            articles=tuple(Article(f"a{i}", 9, 4) for i in range(3)),
            stores=(Store("s0", 24), Store("s1", 10)),
            alpha=Fraction("0.2"),
            distances=DistanceMatrix(np.array([[0.0, 1, 2], [1, 0, 3], [2, 3, 0]])),
        )
        instances = [demo_instance(), recipe_instance(8, 3, 0), nested, wide_instance(66)]
        instances += [random_feasible_instance(seed)[0] for seed in range(200)]
        for chunk_rows in (solver._CHUNK_ROWS, 3):
            monkeypatch.setattr(solver, "_CHUNK_ROWS", chunk_rows)
            with monkeypatch.context() as clock:
                ticks = count()
                clock.setattr(solver, "time", SimpleNamespace(perf_counter=ticks.__next__))
                solver._store_candidates(demo_instance())
                # The demo lists sizes 2-8: a deadline check per chunk, one before the sort.
                assert (next(ticks) > 8) == (chunk_rows == 3)
            for instance in instances:
                for t, (values, masks) in enumerate(solver._store_candidates(instance)):
                    expected = listed_subsets(instance, t)
                    combos = [
                        tuple(i for i in range(instance.n_articles) if mask >> i & 1)
                        for mask in masks.tolist()
                    ]
                    assert combos == [combo for combo, _ in expected]
                    assert values.tolist() == pytest.approx([v for _, v in expected], rel=0, abs=1e-12)

    def test_supply_prices_are_nonnegative_repeatable_and_tighten_the_demo(self):
        for instance in (demo_instance(), supply_bound_instance(), recipe_instance(10, 12, 0)):
            candidates = solver._store_candidates(instance)
            counts = instance.bounds[1] // instance.bounds[0]
            lam, _ = solver._supply_prices(candidates, counts)
            assert lam.any() and np.all(lam >= 0)
            again, _ = solver._supply_prices(candidates, counts)
            assert np.array_equal(lam, again)
        # Without prices the root bound is 1689.319; the optimum is 1593.919.
        assert 1593.919 < priced_root_bound(demo_instance())[0] < 1594.11

    def test_supply_prices_match_the_reduceat_loop(self):
        # Bit for bit: the prices steer the search's pruning. The 8x6
        # recipe is supply-free, so its prices are all zero.
        instances = [demo_instance(), recipe_instance(8, 6, 0)]
        instances += [recipe_instance(n, 12, seed) for n in (8, 10) for seed in range(5)]
        priced = 0
        for instance in instances:
            candidates = solver._store_candidates(instance)
            counts = instance.bounds[1] // instance.bounds[0]
            lam, costs = solver._supply_prices(candidates, counts)
            expected_lam, expected_costs = reduceat_supply_prices(candidates, counts)
            assert lam.tobytes() == expected_lam.tobytes()
            assert [cost.tobytes() for cost in costs] == [cost.tobytes() for cost in expected_costs]
            priced += lam.any()
        assert priced == len(instances) - 1

    @pytest.mark.parametrize(
        "build",
        [
            demo_instance,
            lambda: recipe_instance(8, 12, 0),
            lambda: recipe_instance(10, 12, 0),
            lambda: wide_instance(66),
        ],
        ids=["demo", "8x12", "10x12", "wide-66"],
    )
    def test_free_row_bitsets_match_the_numpy_bound(self, build):
        # Bit for bit: suffix sums these bests into the search's bounds.
        instance = build()
        candidates = solver._store_candidates(instance)
        _, costs = solver._supply_prices(candidates, instance.bounds[1] // instance.bounds[0])
        n = instance.n_articles
        rng = np.random.default_rng(0)
        draws = [0, (1 << n) - 1, *(1 << i for i in range(n))]
        draws += [
            sum(1 << int(i) for i in np.flatnonzero(rng.random(n) < rng.random())) for _ in range(300)
        ]
        for (values, masks), cost in zip(candidates, costs):
            priced = values - cost
            best = solver._free_bests(values, masks, priced, n)
            for blocked in draws:
                assert best(blocked) == numpy_free_bests(values, masks, priced, blocked), blocked

    def test_articles_beyond_64_bits_of_mask(self):
        # Article 65's bit does not fit an int64 mask, so the listing,
        # the pricing and the leaves see Python-int masks. The same
        # instance with its six usable styles alone must solve alike.
        wide, narrow = wide_instance(66), wide_instance(6)
        assert solver._store_candidates(wide)[0][1].dtype == object
        limits = SolveLimits(max_patterns=None, time_budget=None)
        report, expected = solve_exact(wide, limits), solve_exact(narrow, limits)
        assert report.status is SolveStatus.OPTIMAL
        assert report.iterations == expected.iterations == 5
        assert report.objective == expected.objective == 220.95000000000002
        usable = [0, 1, 2, 63, 64, 65]
        assert report.plan.y[usable].tolist() == expected.plan.y.tolist()
        assert not report.plan.y[3:63].any()
        assert report.plan.y[63:].any(axis=1).all()

    def test_demo_optimum_and_tie_pick(self):
        # The demo has 16 optimal patterns; the smallest row-major y wins.
        report = solve_exact(demo_instance())
        assert report.status is SolveStatus.OPTIMAL
        assert report.objective == pytest.approx(1593.9190476190474, abs=1e-9)
        assert report.plan.y.tolist() == [
            [1, 1, 0, 1, 0, 1],
            [1, 1, 1, 0, 1, 0],
            [1, 0, 1, 1, 1, 0],
            [1, 1, 1, 1, 0, 0],
            [1, 1, 1, 1, 0, 0],
            [1, 1, 1, 0, 1, 0],
            [1, 1, 0, 1, 1, 0],
            [1, 1, 1, 0, 0, 1],
        ]

    def test_policies_agree_when_mins_are_small(self):
        # Minimum quantities in the generator never exceed any store's
        # desired quantity, so the cap policy cannot change the optimum.
        for seed in range(10):
            strict, _ = random_feasible_instance(
                seed, n_range=(3, 5), s_range=(1, 2), policy=BigMPolicy.STORE_QTY
            )
            roomy = DistributionInstance(
                articles=strict.articles,
                stores=strict.stores,
                alpha=strict.alpha,
                distances=strict.distances,
                big_m_policy=BigMPolicy.BAND_LIMIT,
            )
            a = solve_exact(strict)
            b = solve_exact(roomy)
            assert a.objective == pytest.approx(b.objective, abs=1e-9)

    def test_tie_break_prefers_lexicographic_pattern(self):
        # Two equidistant styles and two identical stores: all feasible
        # patterns score the same, so the reported plan must be the
        # lexicographically smallest assignment matrix.
        inst = two_article_instance()
        report = solve_exact(inst)
        y = report.plan.y
        candidates = []
        for column_sets in all_patterns(2, 2):
            pattern = pattern_y(2, column_sets)
            if quantity_feasible(inst, pattern).feasible:
                candidates.append(tuple(int(v) for v in pattern.reshape(-1)))
        assert tuple(int(v) for v in y.reshape(-1)) == min(candidates)

    def test_instance_without_stores_is_an_empty_optimum(self):
        report = solve_exact(two_article_instance(stores=()))
        assert report.status is SolveStatus.OPTIMAL
        assert report.objective == 0.0
        assert report.plan.x.shape == (2, 0)

    def test_store_without_admissible_subset_raises(self):
        # Any two minimums of 3 overfill s0's band of exactly 4 units.
        inst = two_article_instance(
            articles=(Article("a0", 16, 3), Article("a1", 16, 3)),
            stores=(Store("s0", 4), Store("s1", 8)),
        )
        with pytest.raises(InfeasibleError, match="store 's0' has no admissible style subset"):
            solve_exact(inst)

    def test_infeasible_instance_raises_with_certificate(self):
        inst = DistributionInstance(
            articles=(Article("a0", 6, 1), Article("a1", 6, 1)),
            stores=(Store("s0", 10), Store("s1", 10)),
            alpha=Fraction(0),
            distances=DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
        )
        with pytest.raises(InfeasibleError) as info:
            solve_exact(inst)
        assert isinstance(info.value.certificate, CutCertificate)

    def test_budget_zero_on_infeasible_instance_raises_budget_error(self):
        inst = DistributionInstance(
            articles=(Article("a0", 6, 1), Article("a1", 6, 1)),
            stores=(Store("s0", 10), Store("s1", 10)),
            alpha=Fraction(0),
            distances=DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
        )
        with pytest.raises(BudgetExceededError):
            solve_exact(inst, limits=SolveLimits(max_patterns=0, time_budget=None))

    def test_budget_zero_on_feasible_instance_raises_budget_error(self, line_instance):
        with pytest.raises(BudgetExceededError):
            solve_exact(line_instance, limits=SolveLimits(max_patterns=0, time_budget=None))

    def test_time_budget_bounds_candidate_listing(self):
        # One store over 24 styles has about 4.5 million subsets to list,
        # which takes far longer than the budget; auto mode sends this
        # instance (24 x 1) to the exact solver.
        started = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            solve_exact(recipe_instance(24, 1, 0), limits=SolveLimits(time_budget=1))
        assert time.perf_counter() - started < 2.0

    def test_listing_checks_the_deadline_before_sorting(self, monkeypatch):
        # The demo lists each size in one chunk: the seven chunk checks
        # read ticks 1-7, the check before the sort reads 8.
        monkeypatch.setattr(solver, "time", SimpleNamespace(perf_counter=count(1).__next__))
        with pytest.raises(BudgetExceededError, match="while listing style subsets"):
            solver._store_candidates(demo_instance(), deadline=7.5)

    def test_time_budget_bounds_the_search(self):
        # The demo catalog over seven stores lists its subsets quickly, but
        # the search flow-checks thousands of infeasible patterns, far
        # beyond the budget, before max_patterns would stop it.
        catalog = demo_catalog()
        inst = DistributionInstance(
            articles=tuple(Article(sid, 16, 4) for sid in catalog.ids),
            stores=tuple(
                Store(f"s{t}", q) for t, q in enumerate((30, 26, 22, 18, 14, 10, 12))
            ),
            alpha=Fraction("0.2"),
            distances=distance_matrix(catalog),
        )
        started = time.perf_counter()
        try:
            report = solve_exact(inst, limits=SolveLimits(time_budget=0.5, max_patterns=20_000))
            assert report.status is SolveStatus.FEASIBLE_HEURISTIC
        except BudgetExceededError:
            pass
        assert time.perf_counter() - started < 2.5

    def test_capacity_above_32_bits_raises(self):
        # Every field is valid at 2**31 - 1, yet the sink's balance adds two
        # lower bands (about 3.4e9). The split proves the pattern feasible;
        # the flow call that finds the winner's quantities rejects it.
        big = 2**31 - 1
        inst = DistributionInstance(
            articles=(Article("a0", big, 1), Article("a1", big, 1)),
            stores=(Store("s0", big), Store("s1", big)),
            alpha=Fraction("0.2"),
            distances=DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
        )
        assert validate_instance(inst) == []
        with pytest.raises(ValueError, match="flow capacities exceed 2147483647"):
            solve_exact(inst)

    def test_search_beyond_the_recursion_limit_raises_budget_error(self):
        # The search recurses once per store: 1,500 stores outgrow
        # Python's default recursion limit of 1,000.
        stores = 1500
        instance = two_article_instance(
            articles=(Article("a0", stores, 1), Article("a1", stores, 1)),
            stores=tuple(Store(f"s{t}", 2) for t in range(stores)),
        )
        with pytest.raises(BudgetExceededError, match="cannot reach 1500 stores; try --mode heuristic"):
            solve_exact(instance)

    def test_budget_one_still_returns_a_plan(self, line_instance):
        report = solve_exact(
            line_instance, limits=SolveLimits(max_patterns=1, time_budget=None)
        )
        assert report.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE_HEURISTIC)
        assert report.plan is not None
        assert plan_violations(line_instance, report.plan) == []


class TestSolveHeuristic:
    def test_line_of_four_matches_exact(self, line_instance):
        report = solve_heuristic(line_instance, HeuristicConfig(seed=7))
        assert report.status is SolveStatus.FEASIBLE_HEURISTIC
        assert report.objective == pytest.approx(5.0, abs=1e-9)

    def test_never_beats_exact_and_usually_matches(self):
        matches = 0
        total = 30
        for seed in range(total):
            instance, _ = random_feasible_instance(
                seed + 1000, n_range=(3, 6), s_range=(1, 3)
            )
            exact = solve_exact(instance)
            heur = solve_heuristic(instance, HeuristicConfig(seed=seed))
            assert heur.objective <= exact.objective + 1e-9
            assert plan_violations(instance, heur.plan) == []
            if heur.objective >= exact.objective - 1e-9:
                matches += 1
        assert matches >= int(0.9 * total)

    def test_deterministic_for_fixed_seed(self):
        instance, _ = random_feasible_instance(4242)
        a = solve_heuristic(instance, HeuristicConfig(seed=3))
        b = solve_heuristic(instance, HeuristicConfig(seed=3))
        assert a.objective == b.objective
        assert np.array_equal(a.plan.x, b.plan.x)
        assert a.iterations == b.iterations

    def test_infeasible_instance_raises(self):
        inst = DistributionInstance(
            articles=(Article("a0", 6, 1), Article("a1", 6, 1)),
            stores=(Store("s0", 10), Store("s1", 10)),
            alpha=Fraction(0),
            distances=DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
        )
        with pytest.raises(InfeasibleError):
            solve_heuristic(inst)

    def test_repaired_construction_is_pinned(self):
        # The first construction is quantity-infeasible; repair adds two
        # styles. max_iters=0 returns the repaired pattern unpolished.
        instance, _ = random_feasible_instance(0)
        report = solve_heuristic(instance, HeuristicConfig(max_iters=0))
        assert report.plan.y.tolist() == [[1, 1], [0, 0], [1, 1], [0, 0], [1, 0], [1, 1]]
        assert report.objective == 252.8665332797081

    def test_local_search_trajectory_is_pinned(self):
        # On this instance both runs accept swaps, moves and toggles.
        instance = supply_bound_instance()
        report = solve_heuristic(instance, HeuristicConfig(seed=0))
        assert report.iterations == 14
        assert report.plan.y.T.tolist() == [
            [1, 1, 1, 1, 1, 1, 1, 1],
            [1, 1, 1, 1, 0, 1, 0, 0],
            [0, 0, 1, 0, 1, 1, 1, 0],
            [1, 1, 0, 1, 1, 0, 1, 1],
        ]
        assert report.objective == 27.157425133256467
        report = improve_plan(instance, baseline_allocate(instance))
        assert report.iterations == 24
        assert report.plan.y.T.tolist() == [
            [1, 1, 1, 1, 1, 1, 1, 1],
            [1, 1, 1, 0, 1, 1, 0, 0],
            [1, 1, 0, 1, 1, 0, 0, 0],
            [0, 0, 1, 1, 0, 1, 1, 1],
        ]
        assert report.objective == 25.513029995213458

    def test_construction_and_repair_meet_only_demand_driven_cuts(self, monkeypatch):
        # Repair only adds styles. That is enough because construction
        # and repair never add a pair whose min_qty exceeds its cap or
        # push a store's forced minimums past its upper band, so the only
        # violated cut left contains the sink.
        certificates = []
        checked = solver.quantity_feasible

        def recording(instance, pattern):
            result = checked(instance, pattern)
            if not result.feasible:
                certificates.append(result.certificate)
            return result

        monkeypatch.setattr(solver, "quantity_feasible", recording)
        for seed in range(300):
            instance = adversarial_instance(seed)
            with contextlib.suppress(InfeasibleError):
                baseline_allocate(instance)
            with contextlib.suppress(InfeasibleError):
                solve_heuristic(instance, HeuristicConfig(max_iters=0, restarts=4))
        assert len(certificates) >= 100
        for cert in certificates:
            assert isinstance(cert, CutCertificate) and cert.demand_driven, cert

    def test_improve_plan_never_worsens(self):
        for seed in range(8):
            instance, x = random_feasible_instance(seed + 55)
            start = plan_from_quantities(instance, x)
            better = improve_plan(instance, start, HeuristicConfig(seed=seed))
            assert better.objective >= start.objective - 1e-9
            assert plan_violations(instance, better.plan) == []

    def test_improve_plan_drops_a_style_on_a_raw_matrix(self):
        # Raw distances from neither built-in metric, on which MAX_MEAN
        # falls when style 2 joins: dropping it is an improving move.
        inst = DistributionInstance(
            articles=tuple(Article(f"a{i}", 10, 2) for i in range(3)),
            stores=(Store("s0", 6),),
            alpha=Fraction("0.5"),
            distances=DistanceMatrix(
                np.array([[0.0, 10.0, 0.1], [10.0, 0.0, 0.1], [0.1, 0.1, 0.0]])
            ),
        )
        start = plan_from_quantities(inst, np.array([[2], [2], [2]]))
        assert start.objective == pytest.approx(3.4)
        report = improve_plan(inst, start)
        assert report.iterations == 1
        assert report.plan.y.tolist() == [[1], [1], [0]]
        assert report.objective == pytest.approx(5.0)


class TestInputChecks:
    @pytest.mark.parametrize(
        "overrides, run",
        [
            (dict(stores=(Store("s0", 10**19), Store("s1", 5))), solve_exact),
            (dict(stores=(Store("s0", 10**19), Store("s1", 5))), solve_heuristic),
            (dict(stores=(Store("s0", 3 * 10**9), Store("s1", 5))), solve_exact),
            (dict(articles=(Article("a0", 16.9, 1), Article("a1", 16, 1))), solve_exact),
            (
                dict(articles=(Article("a0", 16.9, 1), Article("a1", 16, 1))),
                lambda inst: export_lp(inst, io.StringIO()),
            ),
        ],
    )
    def test_integer_beyond_its_rule_is_a_validation_error(self, overrides, run):
        # A Python-built instance is held to the rule a parsed file meets,
        # so no solve overflows or truncates the value it was given.
        with pytest.raises(ValidationError, match="not_an_integer_in_range"):
            run(two_article_instance(**overrides))

    @pytest.mark.parametrize(
        "config, field_name",
        [
            (lambda: HeuristicConfig(max_iters=2.5), "max_iters"),
            (lambda: HeuristicConfig(restarts=2.5), "restarts"),
            (lambda: SolveLimits(max_patterns=2.5), "max_patterns"),
            pytest.param(lambda: HeuristicConfig(max_iters=True), "max_iters", id="max_iters-True"),
            pytest.param(lambda: HeuristicConfig(restarts=True), "restarts", id="restarts-True"),
            pytest.param(lambda: SolveLimits(max_patterns=True), "max_patterns", id="max_patterns-True"),
            pytest.param(lambda: linearity_config(subset_sizes=(2, True)), "subset sizes", id="subset_sizes-True"),
            pytest.param(lambda: linearity_config(repetitions=True), "repetitions", id="repetitions-True"),
        ],
    )
    def test_non_integer_count_rejected(self, config, field_name, request):
        shown = "True" if request.node.callspec.id.endswith("-True") else "2.5"
        with pytest.raises(ValueError, match=f"^{field_name} must be an integer, got {shown}$"):
            config()


class TestPlanChecks:
    def test_variety_mismatch_detected(self):
        inst = two_article_instance()
        result = quantity_feasible(inst, pattern_y(2, [{0, 1}, {0, 1}]))
        plan = plan_from_quantities(inst, result.x)
        doctored = plan.__class__(
            x=plan.x, per_store_variety=(9.0, plan.per_store_variety[1])
        )
        codes = [v.code for v in plan_violations(inst, doctored)]
        assert "variety_mismatch" in codes

    @pytest.mark.parametrize(
        "articles, x, code",
        [
            (None, [[1, 1], [1, 1], [1, 1]], "shape_mismatch"),
            (None, [[5, 4], [0, 1]], "too_few_styles"),
            ((Article("a0", 16, 3), Article("a1", 16, 3)), [[1, 4], [4, 1]], "below_min_qty"),
            ((Article("a0", 4, 1), Article("a1", 16, 1)), [[3, 3], [2, 2]], "planned_total_exceeded"),
        ],
        ids=["shape", "styles", "min_qty", "planned_total"],
    )
    def test_breach_is_reported_by_its_code(self, articles, x, code):
        inst = two_article_instance(**({} if articles is None else {"articles": articles}))
        x = np.array(x)
        plan = DistributionPlan(x, (0.0,) * x.shape[1])
        codes = {v.code for v in plan_violations(inst, plan)}
        assert codes - {"variety_mismatch"} == {code}

    def test_band_violation_detected(self):
        inst = two_article_instance()
        x = np.array([[9, 1], [9, 1]])
        plan = plan_from_quantities(inst, x)
        codes = [v.code for v in plan_violations(inst, plan)]
        assert "store_band" in codes
        with pytest.raises(InfeasiblePlanError):
            evaluate_plan(inst, plan)

    def test_store_without_styles_scores_zero(self):
        plan = plan_from_quantities(two_article_instance(), np.array([[3, 0], [2, 0]]))
        assert plan.per_store_variety == (1.0, 0.0)

    def test_evaluate_plan_returns_objective(self):
        inst = two_article_instance()
        result = quantity_feasible(inst, pattern_y(2, [{0, 1}, {0, 1}]))
        plan = plan_from_quantities(inst, result.x)
        assert evaluate_plan(inst, plan) == pytest.approx(2.0, abs=1e-9)
