"""Feasible circulation with edge lower bounds.

Used by the solver to decide whether a fixed assignment pattern admits
integer shipment quantities. The standard transformation applies: each
edge (u, v) with bounds [low, cap] becomes capacity cap - low, node
imbalances from the lower bounds are routed through a super source and
sink, and the circulation is feasible iff the max flow saturates every
super-source edge. Capacities are integers throughout, so the resulting
flow is integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

__all__ = ["Edge", "CirculationResult", "feasible_circulation", "cut_violation"]

# scipy's maximum_flow stores capacities as 32-bit integers.
_MAX_CAPACITY = 2**31 - 1


@dataclass(frozen=True)
class Edge:
    """Directed edge with integer flow bounds; cap=None means unbounded."""

    tail: int
    head: int
    lower: int
    cap: int | None


@dataclass(frozen=True)
class CirculationResult:
    """Outcome of a circulation check.

    When feasible, ``flows[k]`` is the integer flow on ``edges[k]``.
    When infeasible, ``reached``, the original nodes reachable from the
    super source in the final residual graph, is the source side of a
    minimum cut and so the certificate cut (see ``cut_violation``).
    """

    feasible: bool
    flows: np.ndarray | None
    reached: frozenset[int] | None


def feasible_circulation(n_nodes: int, edges: list[Edge]) -> CirculationResult:
    """Find an integer circulation satisfying all edge bounds.

    Args:
        n_nodes: Number of graph nodes, labeled 0..n_nodes-1.
        edges: Directed edges; at most one edge per (tail, head) pair.

    Returns:
        CirculationResult with per-edge flows or the residual-reachable
        node set for certificate extraction.

    Raises:
        ValueError: Parallel edges, invalid bounds, or a capacity or node
            imbalance still above 2**31 - 1 after capping.
    """
    seen_pairs = set()
    for e in edges:
        pair = (e.tail, e.head)
        if pair in seen_pairs:
            raise ValueError(f"parallel edge {pair} not supported")
        seen_pairs.add(pair)
        if e.lower < 0 or (e.cap is not None and e.cap < e.lower):
            raise ValueError(
                f"edge {pair} has invalid bounds [{e.lower}, {e.cap}]"
            )

    # No edge carries more than can enter its tail or leave its head. A
    # cap one above the smaller of the two is never reached, so verdicts
    # and certificate cuts stay the same while capacities stay small. An
    # uncapped edge counts as `big`, more than all finite caps together.
    big = 1 + sum(e.lower for e in edges) + sum(
        e.cap for e in edges if e.cap is not None
    )
    caps = [big if e.cap is None else e.cap for e in edges]
    into, out_of, balance = [0] * n_nodes, [0] * n_nodes, [0] * n_nodes
    for e, c in zip(edges, caps):
        into[e.head] += c
        out_of[e.tail] += c
        balance[e.head] += e.lower
        balance[e.tail] -= e.lower
    residual_caps = [
        max(e.lower, min(c, 1 + into[e.tail], 1 + out_of[e.head])) - e.lower
        for e, c in zip(edges, caps)
    ]
    if max(residual_caps + [abs(b) for b in balance], default=0) > _MAX_CAPACITY:
        raise ValueError(
            f"flow capacities exceed {_MAX_CAPACITY}, the largest the "
            "max-flow solver accepts"
        )

    n_total = n_nodes + 2
    ss, tt = n_nodes, n_nodes + 1
    cap = np.zeros((n_total, n_total), dtype=np.int64)
    for e, residual_cap in zip(edges, residual_caps):
        cap[e.tail, e.head] = residual_cap
    required = 0
    for v in range(n_nodes):
        if balance[v] > 0:
            cap[ss, v] = balance[v]
            required += balance[v]
        elif balance[v] < 0:
            cap[v, tt] = -balance[v]

    result = maximum_flow(csr_matrix(cap), ss, tt)
    flow = result.flow.toarray().astype(np.int64)
    if result.flow_value == required:
        # The flow matrix is antisymmetric (net flow), so an arc whose
        # opposite direction carried flow shows a negative entry; the
        # clipped value is a valid per-arc assignment with the same
        # conservation balance.
        positive = np.maximum(flow, 0)
        flows = np.array(
            [e.lower + positive[e.tail, e.head] for e in edges], dtype=np.int64
        )
        return CirculationResult(True, flows, None)

    order = breadth_first_order(csr_matrix(cap - flow > 0), ss, return_predecessors=False)
    reached = frozenset(int(v) for v in order if v < n_nodes)
    return CirculationResult(False, None, reached)


def cut_violation(edges: list[Edge], node_set: frozenset[int] | set[int]) -> tuple[int, float]:
    """Evaluate a node set as a lower-bound cut certificate.

    Returns (required, available): the sum of lower bounds on edges
    entering the set versus the capacity of edges leaving it. The set
    certifies infeasibility when required > available.
    """
    required = 0
    available: float = 0.0
    for e in edges:
        tail_in = e.tail in node_set
        head_in = e.head in node_set
        if head_in and not tail_in:
            required += e.lower
        elif tail_in and not head_in:
            available += np.inf if e.cap is None else e.cap
    return required, available
