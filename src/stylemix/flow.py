"""Quantity feasibility of an assignment pattern as a circulation.

Decides whether a fixed assignment pattern admits integer shipment
quantities. The network has a source (node 0), a sink (node 1), one
node per article (2 + i) and one per store (2 + n + t). Its edges, with
flow bounds [low, cap], are source -> article [0, planned_total],
article -> store [min_qty, big_m] per assigned pair, store -> sink
[lower_band, upper_band] and an uncapped return edge sink -> source.
Each edge becomes capacity cap - low, node imbalances from the lower
bounds are routed through a super source and sink, and the pattern is
feasible iff the max flow saturates every super-source edge. Integer
capacities give an integral flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DistributionInstance

__all__ = [
    "CutCertificate",
    "EdgeCertificate",
    "QuantityResult",
    "feasible_circulation",
    "split_feasible",
]

# scipy's maximum_flow stores capacities as 32-bit integers.
_MAX_CAPACITY = 2**31 - 1


@dataclass(frozen=True)
class CutCertificate:
    """Cut witness that no feasible quantities exist.

    ``required`` units must cross into the cut (lower bounds) but only
    ``available`` can, so required > available proves infeasibility.
    When ``demand_driven``, the listed stores' lower quantity bands
    outstrip the supply reachable from the listed articles; otherwise
    the forced minimum shipments into the listed stores exceed what
    those stores can absorb or reroute. The message names the records
    by their ids; ``articles`` and ``stores`` hold their positions.
    """

    articles: tuple[int, ...]
    stores: tuple[int, ...]
    demand_driven: bool
    required: int
    available: int
    article_ids: tuple[str, ...]
    store_ids: tuple[str, ...]

    def __str__(self) -> str:
        where = f"stores {list(self.store_ids)}" if self.stores else "the stores overall"
        if self.demand_driven:
            return (
                f"{where} demand at least {self.required} units, but at most "
                f"{self.available} can reach them (supply articles {list(self.article_ids)})"
            )
        return (
            f"minimum shipments into {where} total {self.required} units, "
            f"but at most {self.available} can be absorbed"
        )


@dataclass(frozen=True)
class EdgeCertificate:
    """A single (article, store) pair, by position and id, whose minimum exceeds its cap."""

    article: int
    store: int
    min_qty: int
    cap: int
    article_id: str
    store_id: str

    def __str__(self) -> str:
        return (
            f"article {self.article_id!r} at store {self.store_id!r} requires at least "
            f"{self.min_qty} units but is capped at {self.cap}"
        )


@dataclass(frozen=True)
class QuantityResult:
    """Outcome of a quantity-feasibility check for one pattern."""

    feasible: bool
    x: np.ndarray | None = None
    certificate: CutCertificate | EdgeCertificate | None = None


def split_feasible(y: np.ndarray, bounds: tuple[np.ndarray, ...]) -> bool:
    """Whether an even split of each article's spare units proves ``y`` feasible.

    A sufficient test, not a necessary one, on the
    ``DistributionInstance.bounds`` of a valid instance. Article i's spare
    is planned_i - min_i * deg_i over its deg_i assigned stores, and each
    assigned pair's share is min(cap_t - min_i, spare_i // deg_i). True
    means every share is at least 0 (so no spare is negative and no
    minimum exceeds its cap), every store's forced total F_t = sum_i
    min_i y_it is at most its upper band, and F_t plus the store's shares
    reaches its lower band. Then shipping each pair its minimum plus its
    share, and trimming each store's shares down to a total of
    max(F_t, lower_t), gives valid integer quantities.
    """
    mins, planned, caps, lowers, uppers = bounds
    deg = y.sum(axis=1)
    even = (planned - mins * deg) // np.maximum(deg, 1)
    share = np.minimum(caps - mins[:, None], even[:, None])
    forced = mins @ y
    return bool(
        np.all((share >= 0) | (y == 0))
        and np.all(forced <= uppers)
        and np.all(forced + (share * y).sum(axis=0) >= lowers)
    )


def feasible_circulation(instance: DistributionInstance, y: np.ndarray) -> QuantityResult:
    """Find integer quantities for the pattern ``y`` or a certificate cut.

    An assigned pair whose min_qty exceeds its store's big_m fails at
    once with an EdgeCertificate, before the bounds below are checked.
    Otherwise the certificate is read off the original nodes reachable
    from the super source in the final residual graph: the source side
    of a minimum cut, which always certifies.

    Raises:
        ValueError: A negative planned total or assigned min_qty, an
            invalid store band, or capacities above 2**31 - 1 after capping.
    """
    # scipy.sparse costs most of a cold CLI start; only this check needs it.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow

    n, s = y.shape
    min_qty, planned, cap, lower, upper = (bound.tolist() for bound in instance.bounds)
    pairs = [(i, t) for t in range(s) for i in np.flatnonzero(y[:, t]).tolist()]
    for i, t in pairs:
        if min_qty[i] > cap[t]:
            edge = EdgeCertificate(
                i, t, min_qty[i], cap[t], instance.articles[i].id, instance.stores[t].id
            )
            return QuantityResult(False, certificate=edge)
    for i, article in enumerate(instance.articles):
        if planned[i] < 0 or (min_qty[i] < 0 and y[i].any()):
            raise ValueError(f"article {article.id!r} has a negative planned_total or min_qty")
    for t, store in enumerate(instance.stores):
        if not 0 <= lower[t] <= upper[t]:
            raise ValueError(f"store {store.id!r} has an invalid band [{lower[t]}, {upper[t]}]")

    n_nodes = 2 + n + s
    art = lambda i: 2 + i
    sto = lambda t: 2 + n + t
    # (tail, head, lower, cap) per edge, the uncapped return edge last.
    edges = (
        [(0, art(i), 0, planned[i]) for i in range(n)]
        + [(art(i), sto(t), min_qty[i], cap[t]) for i, t in pairs]
        + [(sto(t), 1, lower[t], upper[t]) for t in range(s)]
        + [(1, 0, 0, math.inf)]
    )
    into, out_of, balance = [0] * n_nodes, [0] * n_nodes, [0] * n_nodes
    for u, v, low, c in edges:
        into[v] += c
        out_of[u] += c
        balance[v] += low
        balance[u] -= low
    # No edge carries more than can enter its tail or leave its head. A
    # cap one above the smaller of the two is never reached, so verdicts
    # and certificate cuts stay the same while capacities stay small.
    residual_caps = [max(low, min(c, 1 + into[u], 1 + out_of[v])) - low for u, v, low, c in edges]
    if max(residual_caps + [abs(b) for b in balance]) > _MAX_CAPACITY:
        raise ValueError(
            f"flow capacities exceed {_MAX_CAPACITY}, the largest the "
            "max-flow solver accepts"
        )

    ss, tt = n_nodes, n_nodes + 1
    arcs = [(u, v, r) for (u, v, _, _), r in zip(edges, residual_caps) if r > 0]
    arcs += [(ss, v, b) for v, b in enumerate(balance) if b > 0]
    arcs += [(v, tt, -b) for v, b in enumerate(balance) if b < 0]
    tails, heads, caps = (np.array(column, dtype=np.int64) for column in zip(*arcs))
    graph = csr_matrix((caps, (tails, heads)), shape=(tt + 1, tt + 1))
    result = maximum_flow(graph, ss, tt)
    if result.flow_value == sum(b for b in balance if b > 0):
        # The flow matrix is antisymmetric (net flow), so an arc whose
        # opposite direction carried flow shows a negative entry; the
        # clipped value is a valid per-arc assignment with the same
        # conservation balance.
        shipped = result.flow[2 : 2 + n, 2 + n : n_nodes].toarray()
        x = np.where(y, np.array(min_qty)[:, None] + np.maximum(shipped, 0), 0)
        return QuantityResult(True, x=x)

    cut = set(breadth_first_order(graph - result.flow > 0, ss, return_predecessors=False).tolist())
    # Lower bounds on the edges entering the cut against the caps of
    # the edges leaving it.
    required = sum(low for u, v, low, _ in edges if v in cut and u not in cut)
    available = sum(c for u, v, _, c in edges if u in cut and v not in cut)
    if required <= available:
        raise AssertionError("infeasible circulation produced no violated cut")
    demand_driven = 1 in cut
    if demand_driven:
        # Store lower bands cross into the cut exactly for the
        # stores outside it, and supply leaves over the planned
        # totals of the articles outside it.
        stores = tuple(t for t in range(s) if sto(t) not in cut)
        articles = tuple(i for i in range(n) if art(i) not in cut)
    else:
        # Forced minimum shipments flow into the stores inside
        # the cut from the assigned articles left outside it.
        stores = tuple(t for t in range(s) if sto(t) in cut)
        articles = tuple(sorted({i for i, t in pairs if art(i) not in cut and sto(t) in cut}))
    article_ids = tuple(instance.articles[i].id for i in articles)
    store_ids = tuple(instance.stores[t].id for t in stores)
    certificate = CutCertificate(
        articles, stores, demand_driven, required, int(available), article_ids, store_ids
    )
    return QuantityResult(False, certificate=certificate)
