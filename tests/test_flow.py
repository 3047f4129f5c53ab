"""The pattern's circulation: quantities, cut certificates and bounds."""

import contextlib
import math
from fractions import Fraction

import numpy as np
import pytest

from stylemix import solver
from stylemix.core import Article, BigMPolicy, DistanceMatrix, DistributionInstance, Store
from stylemix.errors import StylemixError
from stylemix.flow import (
    CutCertificate,
    EdgeCertificate,
    feasible_circulation,
    split_feasible,
)
from stylemix.solver import AssignmentPattern, quantity_feasible

from conftest import (
    adversarial_instance,
    cut_totals,
    dp_quantity_feasible,
    random_feasible_instance,
    random_micro_case,
)


def make_instance(planned, min_qty, desired, alpha="0", policy=BigMPolicy.STORE_QTY):
    n = len(planned)
    d = np.ones((n, n))
    np.fill_diagonal(d, 0.0)
    return DistributionInstance(
        articles=tuple(Article(f"a{i}", p, m) for i, (p, m) in enumerate(zip(planned, min_qty))),
        stores=tuple(Store(f"s{t}", q) for t, q in enumerate(desired)),
        alpha=Fraction(alpha),
        distances=DistanceMatrix(d),
        big_m_policy=policy,
    )


def check_quantities(instance, y, x):
    """x keeps every bound of the pattern y."""
    n, s = y.shape
    assert x.shape == (n, s)
    assert x.dtype == np.int64
    for t in range(s):
        for i in range(n):
            if y[i, t]:
                assert instance.articles[i].min_qty <= x[i, t] <= instance.big_m(t)
            else:
                assert x[i, t] == 0
        assert instance.lower_band(t) <= x[:, t].sum() <= instance.upper_band(t)
    for i in range(n):
        assert x[i].sum() <= instance.articles[i].planned_total


class TestFeasibleCirculation:
    def test_simple_cycle(self):
        instance = make_instance([5, 5], [1, 1], [4])
        y = np.ones((2, 1), dtype=np.int8)
        result = feasible_circulation(instance, y)
        assert result.feasible
        check_quantities(instance, y, result.x)

    def test_lower_bound_forces_flow(self):
        instance = make_instance([9, 9], [3, 3], [6])
        result = feasible_circulation(instance, np.ones((2, 1), dtype=np.int8))
        assert result.feasible
        assert result.x.tolist() == [[3], [3]]

    def test_infeasible_when_cap_blocks_lower(self):
        # Both minimums (3 + 3) must enter a store that takes at most 4.
        instance = make_instance([9, 9], [3, 3], [4])
        y = np.ones((2, 1), dtype=np.int8)
        result = feasible_circulation(instance, y)
        assert not result.feasible
        assert result.certificate == CutCertificate(
            (0, 1), (0,), False, 6, 4, ("a0", "a1"), ("s0",)
        )
        assert cut_totals(instance, y, result.certificate) == (6, 4)

    def test_zero_everywhere_is_feasible(self):
        # A store that wants nothing, on an unvalidated instance.
        instance = make_instance([3, 3], [1, 1], [0])
        result = feasible_circulation(instance, np.zeros((2, 1), dtype=np.int8))
        assert result.feasible
        assert result.x.tolist() == [[0], [0]]

    def test_diamond_with_bounds(self):
        instance = make_instance([7, 7], [2, 2], [6, 6], alpha="1/5")
        y = np.ones((2, 2), dtype=np.int8)
        result = feasible_circulation(instance, y)
        assert result.feasible
        check_quantities(instance, y, result.x)

    @pytest.mark.parametrize(
        "planned, min_qty, alpha, name",
        [
            (-5, 1, "0", "article 'a0'"),
            (5, -1, "0", "article 'a0'"),
            (5, 1, "3/2", "store 's0'"),
            (5, 1, "-1/2", "store 's0'"),
        ],
        ids=["negative-planned-total", "negative-min-qty", "alpha-3/2", "alpha--1/2"],
    )
    def test_invalid_bounds_name_the_record(self, planned, min_qty, alpha, name):
        # Unvalidated instances: the checks name the record, not a node.
        instance = make_instance([planned, 5], [min_qty, 1], [4], alpha)
        with pytest.raises(ValueError, match=name):
            quantity_feasible(instance, AssignmentPattern.from_sets(2, [{0, 1}]))


class TestCutCertificates:
    def test_certificate_for_blocked_lower_bound(self):
        # The store needs 10 units but both articles together hold 6.
        instance = make_instance([3, 3], [1, 1], [10])
        y = np.ones((2, 1), dtype=np.int8)
        result = feasible_circulation(instance, y)
        assert not result.feasible
        assert result.certificate == CutCertificate(
            (0, 1), (0,), True, 10, 6, ("a0", "a1"), ("s0",)
        )
        assert cut_totals(instance, y, result.certificate) == (10, 6)

    def test_random_networks_flow_or_cut(self):
        # Soundness both ways on random patterns: a feasible result keeps
        # every bound, an infeasible one is a violated cut whose numbers
        # are re-derived from the instance (a proof, so no oracle is needed).
        rng = np.random.default_rng(0)
        seen = {"feasible": 0, "demand": 0, "minimums": 0, "edge": 0}
        for _ in range(400):
            n, s = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            instance = make_instance(
                [int(v) for v in rng.integers(0, 15, n)],
                [int(v) for v in rng.integers(1, 6, n)],
                [int(v) for v in rng.integers(1, 14, s)],
                alpha=str(rng.choice(["0", "1/5", "1/2", "9/10"])),
                policy=BigMPolicy.STORE_QTY if rng.random() < 0.5 else BigMPolicy.BAND_LIMIT,
            )
            y = np.zeros((n, s), dtype=np.int8)
            for t in range(s):
                y[rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False), t] = 1
            result = quantity_feasible(instance, AssignmentPattern(y))
            cert = result.certificate
            if result.feasible:
                seen["feasible"] += 1
                check_quantities(instance, y, result.x)
            elif isinstance(cert, EdgeCertificate):
                seen["edge"] += 1
                assert y[cert.article, cert.store]
                assert cert.min_qty == instance.articles[cert.article].min_qty
                assert cert.min_qty > cert.cap == instance.big_m(cert.store)
            else:
                seen["demand" if cert.demand_driven else "minimums"] += 1
                assert cert.required > cert.available
                assert cut_totals(instance, y, cert) == (cert.required, cert.available)
        assert min(seen.values()) > 20, seen


def proven_leaves(monkeypatch) -> list:
    """(instance, y) for each pattern the exact search proves by the split."""
    proven = []
    tested = solver.split_feasible

    def recording(y, bounds):
        verdict = tested(y, bounds)
        if verdict:
            proven.append((instance, y.copy()))
        return verdict

    monkeypatch.setattr(solver, "split_feasible", recording)
    instances = [random_feasible_instance(seed)[0] for seed in range(60)]
    instances += [adversarial_instance(seed) for seed in range(120)]
    for instance in instances:
        with contextlib.suppress(StylemixError):
            solver.solve_exact(instance)
    return proven


class TestSplitFeasible:
    def test_proves_only_feasible_patterns(self, monkeypatch):
        # The split is a sufficient test: wherever it says feasible, the
        # exhaustive oracle must agree (the flow where the oracle's store
        # totals would be too many). It must prove many patterns, and
        # miss some the flow finds feasible.
        proven, missed = [], 0
        for instance, pattern in map(random_micro_case, range(400)):
            if split_feasible(pattern.y, instance.bounds):
                proven.append((instance, pattern.y))
            else:
                missed += quantity_feasible(instance, pattern).feasible
        proven += proven_leaves(monkeypatch)
        by_oracle = 0
        for instance, y in proven:
            pattern = AssignmentPattern(y)
            if math.prod(instance.upper_band(t) + 1 for t in range(instance.n_stores)) <= 2000:
                assert dp_quantity_feasible(instance, pattern), (instance, y)
                by_oracle += 1
            else:
                assert quantity_feasible(instance, pattern).feasible, (instance, y)
        assert by_oracle >= 200 and len(proven) - by_oracle >= 100
        assert missed >= 5

    def test_assigned_minimum_above_cap_is_not_proven(self):
        # Planned totals cover everything, but a0's minimum 5 exceeds the cap 4.
        instance = make_instance([20, 20], [5, 1], [4], alpha="1/2")
        y = np.ones((2, 1), dtype=np.int8)
        assert not split_feasible(y, instance.bounds)
        assert not feasible_circulation(instance, y).feasible
