"""Circulation feasibility and cut certificates."""

import numpy as np
import pytest

from stylemix.flow import Edge, cut_violation, feasible_circulation


def check_flows(edges, flows):
    """Every edge respects its bounds and every node conserves flow."""
    n = max(max(e.tail, e.head) for e in edges) + 1
    net = np.zeros(n, dtype=np.int64)
    for e, f in zip(edges, flows):
        assert e.lower <= f
        if e.cap is not None:
            assert f <= e.cap
        net[e.tail] -= f
        net[e.head] += f
    assert np.all(net == 0)


class TestFeasibleCirculation:
    def test_simple_cycle(self):
        edges = [Edge(0, 1, 2, 5), Edge(1, 0, 0, 10)]
        result = feasible_circulation(2, edges)
        assert result.feasible
        check_flows(edges, result.flows)

    def test_lower_bound_forces_flow(self):
        edges = [Edge(0, 1, 3, 3), Edge(1, 2, 0, 5), Edge(2, 0, 0, None)]
        result = feasible_circulation(3, edges)
        assert result.feasible
        assert result.flows[0] == 3

    def test_infeasible_when_cap_blocks_lower(self):
        # 0->1 must carry 4 but the only return path carries at most 2.
        edges = [Edge(0, 1, 4, 8), Edge(1, 0, 0, 2)]
        result = feasible_circulation(2, edges)
        assert not result.feasible
        assert result.reached is not None

    def test_zero_everywhere_is_feasible(self):
        edges = [Edge(0, 1, 0, 4), Edge(1, 0, 0, 4)]
        result = feasible_circulation(2, edges)
        assert result.feasible
        assert list(result.flows) == [0, 0]

    def test_parallel_edges_rejected(self):
        with pytest.raises(ValueError):
            feasible_circulation(2, [Edge(0, 1, 0, 1), Edge(0, 1, 0, 2)])

    def test_negative_lower_rejected(self):
        with pytest.raises(ValueError):
            feasible_circulation(2, [Edge(0, 1, -1, 2)])

    def test_cap_below_lower_rejected(self):
        with pytest.raises(ValueError):
            feasible_circulation(2, [Edge(0, 1, 3, 2)])

    def test_diamond_with_bounds(self):
        edges = [
            Edge(0, 1, 1, 4),
            Edge(0, 2, 1, 4),
            Edge(1, 3, 0, 3),
            Edge(2, 3, 0, 3),
            Edge(3, 0, 2, 6),
        ]
        result = feasible_circulation(4, edges)
        assert result.feasible
        check_flows(edges, result.flows)


class TestCutCertificates:
    def infeasible_cut(self, n, edges):
        # The residual-reachable set is the source side of a minimum cut,
        # so it must certify by itself.
        result = feasible_circulation(n, edges)
        assert not result.feasible
        required, available = cut_violation(edges, result.reached)
        assert required > available
        return result.reached, required, available

    def test_certificate_for_blocked_lower_bound(self):
        edges = [Edge(0, 1, 4, 8), Edge(1, 0, 0, 2)]
        cut, required, available = self.infeasible_cut(2, edges)
        assert required >= 4
        assert available <= 2

    def test_unbounded_edge_gives_infinite_capacity(self):
        edges = [Edge(0, 1, 0, None), Edge(1, 0, 0, 5)]
        required, available = cut_violation(edges, frozenset({0}))
        assert available == float("inf")

    def test_random_networks_flow_or_cut(self):
        # Soundness both ways on random circulations: a feasible result
        # verifies directly, an infeasible one must yield a violated cut
        # (which is a proof, so no oracle is needed).
        rng = np.random.default_rng(0)
        feasible_seen = infeasible_seen = 0
        for _ in range(300):
            n = int(rng.integers(2, 7))
            edges = []
            pairs = set()
            for _ in range(int(rng.integers(1, 12))):
                u, v = int(rng.integers(n)), int(rng.integers(n))
                if u == v or (u, v) in pairs:
                    continue
                pairs.add((u, v))
                lower = int(rng.integers(0, 4))
                cap = lower + int(rng.integers(0, 5))
                edges.append(Edge(u, v, lower, cap))
            if not edges:
                continue
            result = feasible_circulation(n, edges)
            if result.feasible:
                feasible_seen += 1
                check_flows(edges, result.flows)
            else:
                infeasible_seen += 1
                self.infeasible_cut(n, edges)
        assert feasible_seen > 20
        assert infeasible_seen > 20
