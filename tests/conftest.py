"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms:
variety values are recomputed with plain loops, and quantity
feasibility is decided by dynamic programming over running store
totals. Production code and oracle must agree without sharing logic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from stylemix.core import (
    Article,
    BigMPolicy,
    DistanceMatrix,
    DistributionInstance,
    FeatureCatalog,
    Metric,
    Store,
    distance_matrix,
)
from stylemix.experiments import synthetic_population
from stylemix.solver import AssignmentPattern
from stylemix.variety import VarietyMeasure

_ACCEPTANCE_RESULTS: list[tuple[int, str, bool, float]] = []


def record_criterion(number: int, description: str, passed: bool, seconds: float):
    _ACCEPTANCE_RESULTS.append((number, description, passed, seconds))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed, seconds in sorted(_ACCEPTANCE_RESULTS):
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"{verdict} criterion {number}: {description} ({seconds:.2f}s)"
        )


def brute_variety(measure: VarietyMeasure, indices, d: np.ndarray) -> float:
    """Straight-line reimplementation of every measure for cross-checks."""
    idx = sorted(set(int(i) for i in indices))
    if len(idx) == 1:
        return 0.0
    pairs = [(i, j) for i, j in combinations(idx, 2)]
    if measure is VarietyMeasure.MAX_SUM_SUM:
        return float(sum(d[i, j] for i, j in pairs))
    if measure is VarietyMeasure.MAX_MIN:
        return float(min(d[i, j] for i, j in pairs))
    if measure is VarietyMeasure.MAX_MIN_SUM:
        return float(min(sum(d[i, j] for j in idx if j != i) for i in idx))
    if measure is VarietyMeasure.MAX_SUM_MIN:
        return float(sum(min(d[i, j] for j in idx if j != i) for i in idx))
    if measure is VarietyMeasure.MAX_MEAN:
        return float(sum(d[i, j] for i, j in pairs) / len(idx))
    raise AssertionError(measure)


def random_feasible_instance(
    seed: int,
    n_range: tuple[int, int] = (3, 8),
    s_range: tuple[int, int] = (1, 3),
    policy: BigMPolicy = BigMPolicy.STORE_QTY,
) -> tuple[DistributionInstance, np.ndarray]:
    """Instance plus an explicit feasible shipment witness.

    Construction guarantees feasibility: every store's witness total is
    exactly its desired quantity (always inside the band), per-pair
    quantities sit in [min_qty, desired_qty], and planned totals cover
    the shipped amounts. Minimum quantities stay at most 2, below every
    desired quantity, so both big-M policies admit the same witness.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(99,)))
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    s = int(rng.integers(s_range[0], s_range[1] + 1))
    dim = int(rng.integers(2, 5))
    vectors = rng.random((n, dim)) * 10.0
    catalog = FeatureCatalog(tuple(f"a{i}" for i in range(n)), vectors)
    d = distance_matrix(catalog, Metric.SQUARED_EUCLIDEAN)

    alpha = Fraction(str(rng.choice(["0", "0.1", "0.2", "0.25"])))
    desired = rng.integers(8, 31, size=s)
    mins = rng.integers(1, 3, size=n)

    x = np.zeros((n, s), dtype=np.int64)
    for t in range(s):
        k = int(rng.integers(2, min(n, 4) + 1))
        subset = [int(i) for i in rng.choice(n, size=k, replace=False)]
        total = int(desired[t])
        alloc = {i: int(mins[i]) for i in subset}
        remainder = total - sum(alloc.values())
        assert remainder >= 0
        pos = 0
        while remainder > 0:
            i = subset[pos % k]
            if alloc[i] < total:
                alloc[i] += 1
                remainder -= 1
            pos += 1
        for i, qty in alloc.items():
            x[i, t] = qty

    planned = x.sum(axis=1) + rng.integers(0, 5, size=n)
    planned = np.maximum(planned, mins)
    articles = tuple(
        Article(f"a{i}", int(planned[i]), int(mins[i])) for i in range(n)
    )
    stores = tuple(Store(f"s{t}", int(desired[t])) for t in range(s))
    instance = DistributionInstance(
        articles=articles,
        stores=stores,
        alpha=alpha,
        distances=d,
        big_m_policy=policy,
    )
    return instance, x


def recipe_instance(n: int, s: int, seed: int) -> DistributionInstance:
    """n styles of 40 units (minimum 4) for s stores wanting 12-39 units.

    Each style's supply covers at most ten stores, so it binds for s > 10.
    """
    catalog = synthetic_population(n, 16, seed)
    quantities = np.random.default_rng(seed).integers(12, 40, s)
    return DistributionInstance(
        articles=tuple(Article(sid, 40, 4) for sid in catalog.ids),
        stores=tuple(Store(f"s{t}", int(q)) for t, q in enumerate(quantities)),
        alpha=Fraction("0.2"),
        distances=distance_matrix(catalog, Metric.SQUARED_EUCLIDEAN),
    )


def adversarial_instance(seed: int) -> DistributionInstance:
    """Large minimums, small stores and wide bands, under either cap policy."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(31,)))
    n = int(rng.integers(2, 8))
    s = int(rng.integers(1, 5))
    mins = rng.integers(1, 11, size=n)
    planned = mins + rng.integers(0, 30, size=n)
    desired = rng.integers(1, 31, size=s)
    points = rng.random(n)
    return DistributionInstance(
        articles=tuple(Article(f"a{i}", int(planned[i]), int(mins[i])) for i in range(n)),
        stores=tuple(Store(f"s{t}", int(desired[t])) for t in range(s)),
        alpha=Fraction(str(rng.choice(["0", "0.1", "0.2", "0.5", "0.9"]))),
        distances=DistanceMatrix(np.abs(np.subtract.outer(points, points))),
        big_m_policy=list(BigMPolicy)[int(rng.integers(2))],
    )


def random_micro_case(seed: int) -> tuple[DistributionInstance, AssignmentPattern]:
    """Small instance and pattern pair; feasibility is not arranged."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    n = int(rng.integers(2, 5))
    s = int(rng.integers(1, 4))
    vectors = rng.random((n, 2))
    catalog = FeatureCatalog(tuple(f"a{i}" for i in range(n)), vectors)
    d = distance_matrix(catalog, Metric.SQUARED_EUCLIDEAN)
    alpha = Fraction(str(rng.choice(["0", "0.2", "0.25"])))
    articles = tuple(
        Article(
            f"a{i}",
            int(rng.integers(2, 7)),
            int(rng.integers(1, 3)),
        )
        for i in range(n)
    )
    stores = tuple(Store(f"s{t}", int(rng.integers(2, 7))) for t in range(s))
    instance = DistributionInstance(
        articles=articles, stores=stores, alpha=alpha, distances=d
    )
    y = np.zeros((n, s), dtype=np.int8)
    for t in range(s):
        k = int(rng.integers(2, n + 1))
        y[rng.choice(n, size=k, replace=False), t] = 1
    return instance, AssignmentPattern(y)


def dp_quantity_feasible(
    instance: DistributionInstance, pattern: AssignmentPattern
) -> bool:
    """Exhaustive feasibility oracle via DP on per-store running totals.

    Processes articles one at a time; a state is the tuple of store
    totals so far. Nothing here touches the flow formulation.
    """
    n, s = pattern.n_articles, pattern.n_stores
    lbs = [instance.lower_band(t) for t in range(s)]
    ubs = [instance.upper_band(t) for t in range(s)]
    caps = [instance.big_m(t) for t in range(s)]
    states: set[tuple[int, ...]] = {tuple([0] * s)}
    for i in range(n):
        article = instance.articles[i]
        assigned = [t for t in range(s) if pattern.y[i, t]]
        options: list[tuple[int, ...]] = []

        def expand(pos: int, acc: list[int], used: int):
            if pos == len(assigned):
                options.append(tuple(acc))
                return
            t = assigned[pos]
            for qty in range(article.min_qty, caps[t] + 1):
                if used + qty > article.planned_total:
                    break
                acc.append(qty)
                expand(pos + 1, acc, used + qty)
                acc.pop()

        expand(0, [], 0)
        if assigned and not options:
            return False
        if not assigned:
            continue
        new_states: set[tuple[int, ...]] = set()
        for state in states:
            for option in options:
                vec = list(state)
                ok = True
                for t, qty in zip(assigned, option):
                    vec[t] += qty
                    if vec[t] > ubs[t]:
                        ok = False
                        break
                if ok:
                    new_states.add(tuple(vec))
        states = new_states
        if not states:
            return False
    return any(all(state[t] >= lbs[t] for t in range(s)) for state in states)


def cut_totals(instance: DistributionInstance, y: np.ndarray, cert) -> tuple[int, int]:
    """A cut certificate's (required, available), re-derived from the bounds.

    A demand-driven cut holds the source, the sink and every article and
    store the certificate leaves out: the listed stores' lower bands and
    the listed articles' minimums into other stores must enter it, while
    the listed articles' planned totals and the caps of other articles'
    pairs into listed stores may leave it. Any other cut holds just the
    listed stores, which the minimums of their assigned articles (the
    listed ones) enter and their upper bands leave. Plain loops over
    the instance; nothing here touches the flow formulation.
    """
    n, s = y.shape
    articles, stores = set(cert.articles), set(cert.stores)
    required = available = 0
    if cert.demand_driven:
        for i in articles:
            available += instance.articles[i].planned_total
        for t in stores:
            required += instance.lower_band(t)
        for i in range(n):
            for t in range(s):
                if y[i, t] and i in articles and t not in stores:
                    required += instance.articles[i].min_qty
                if y[i, t] and i not in articles and t in stores:
                    available += instance.big_m(t)
    else:
        assigned = sorted({i for i in range(n) for t in stores if y[i, t]})
        assert list(cert.articles) == assigned
        for t in stores:
            available += instance.upper_band(t)
            for i in range(n):
                if y[i, t]:
                    required += instance.articles[i].min_qty
    return required, available


@pytest.fixture
def line_instance() -> DistributionInstance:
    """Four single-unit styles at 0,1,2,3 and two stores of two units.

    Every article fits exactly one store, so the stores take disjoint
    pairs. Under squared distances the best split is {1,2} with {0,3},
    worth 1/2 + 9/2 = 5.
    """
    d = np.subtract.outer(np.arange(4.0), np.arange(4.0)) ** 2
    return DistributionInstance(
        articles=tuple(Article(f"a{i}", 1, 1) for i in range(4)),
        stores=(Store("s0", 2), Store("s1", 2)),
        alpha=Fraction(0),
        distances=DistanceMatrix(d),
    )
