"""Allocation solvers: quantity feasibility, exact search, heuristic.

The objective (sum over stores of the MAX_MEAN variety of the assigned
style set) depends only on the assignment indicators y, never on the
shipped quantities x. Both solvers therefore search over assignment
patterns and delegate quantity placement to a flow subproblem:

    quantity_feasible   decides, for a fixed 0/1 article-by-store
                        pattern y, whether integer quantities exist
                        inside all bounds, returning x or a cut
    solve_exact         depth-first enumeration of per-store subsets,
                        listed once with numpy, pruned by a completion
                        bound that prices each article's supply limit
                        (Lagrangian relaxation); optimal
    solve_heuristic     greedy construction, certificate-guided repair,
                        then first-improvement local search

Construction and repair take a chooser naming the article a store gets
next: variety gain for the heuristic, a catalog cursor for the baseline
in ``experiments``. Repair only adds styles, since both phases keep
every pair's min_qty within its cap and every store's forced minimums
within its upper band, so every violated cut asks for more supply.

Local search scans swaps, moves and toggles in that order. Each scan
yields improving moves of one shape, (delta, drops, adds) with drops
and adds tuples of (store, article) pairs; a move is undone by applying
it with drops and adds exchanged.

Objective comparisons use a 1e-9 tolerance, 1e-12 in the exact search's
pruning and tie rule; quantity arithmetic is exact integer.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    DistributionInstance,
    DistributionPlan,
    ensure_valid,
)
from .errors import (
    BudgetExceededError,
    InfeasibleError,
    InfeasiblePlanError,
    MalformedInputError,
    Violation,
)
from .flow import QuantityResult, feasible_circulation, split_feasible
from .variety import VarietyMeasure, variety

__all__ = [
    "EXACT_SIZE_LIMIT",
    "SolveStatus",
    "SolveLimits",
    "HeuristicConfig",
    "SolveReport",
    "quantity_feasible",
    "plan_from_quantities",
    "evaluate_plan",
    "plan_violations",
    "solve_exact",
    "solve_heuristic",
    "improve_plan",
    "auto_mode",
]

OBJECTIVE_TOLERANCE = 1e-9
_TIE_TOLERANCE = 1e-12


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    FEASIBLE_HEURISTIC = "feasible_heuristic"
    INFEASIBLE = "infeasible"


def _count(value, name: str) -> int:
    """A config count as an int; a bool, float, text or other non-integer raises ValueError."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class SolveLimits:
    """Budgets for the exact solver.

    max_patterns bounds the number of complete patterns whose quantities
    are checked; time_budget (seconds) bounds wall time. Either may be
    None for no limit; a negative value, a non-integer max_patterns or a
    NaN time_budget raises ValueError.
    """

    max_patterns: int | None = 1_000_000
    time_budget: float | None = 60.0

    def __post_init__(self):
        if self.max_patterns is not None and _count(self.max_patterns, "max_patterns") < 0:
            raise ValueError(f"max_patterns must be at least 0, got {self.max_patterns}")
        if self.time_budget is not None and not self.time_budget >= 0:
            raise ValueError(f"time_budget must be at least 0, got {self.time_budget}")


@dataclass(frozen=True)
class HeuristicConfig:
    """Settings for the heuristic.

    max_iters caps accepted local-search moves (0 skips the polish);
    restarts is the number of construction attempts. A non-integer
    count, a negative max_iters or fewer than one restart raises ValueError.
    """

    seed: int = 0
    max_iters: int = 10_000
    restarts: int = 16

    def __post_init__(self):
        if _count(self.max_iters, "max_iters") < 0:
            raise ValueError(f"max_iters must be at least 0, got {self.max_iters}")
        if _count(self.restarts, "restarts") < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")


@dataclass(frozen=True)
class SolveReport:
    """Solver outcome plus bookkeeping.

    iterations counts the patterns whose quantities were checked (exact),
    whether by the even split or by the flow, or accepted moves
    (heuristic).
    """

    plan: DistributionPlan | None
    status: SolveStatus
    iterations: int
    wall_time: float

    @property
    def objective(self) -> float | None:
        return None if self.plan is None else self.plan.objective

    def to_dict(self) -> dict:
        """Report-file payload; wall_time_s is null so the bytes repeat."""
        plan = (
            {"objective": None, "per_store_variety": [], "x": [], "y": []}
            if self.plan is None
            else self.plan.to_dict()
        )
        return {
            "status": self.status.value,
            **plan,
            "iterations": self.iterations,
            "wall_time_s": None,
        }


def quantity_feasible(instance: DistributionInstance, y) -> QuantityResult:
    """Decide whether the pattern ``y`` admits integer shipment quantities.

    ``y`` is any 0/1 array-like of the instance's shape; a store may hold
    any number of styles (the two-style rule is the plan's). Bounds
    enforced: per assigned pair, min_qty <= x_is <= big_m(s); per
    article, total shipped <= planned_total; per store, the total
    received lies in the integer quantity band. Unassigned pairs ship 0.

    Returns:
        QuantityResult. On success, x is one integer solution (flows are
        integral, so no rounding is involved). On failure, certificate
        explains the obstruction.

    Raises:
        MalformedInputError: ``y`` is not a 0/1 matrix of that shape.
        ValueError: Bounds that ``flow.feasible_circulation`` rejects.
    """
    try:
        y = np.asarray(y)
    except ValueError:  # a ragged nested list
        raise MalformedInputError("pattern must be a 2-D matrix") from None
    if y.ndim != 2:
        raise MalformedInputError("pattern must be a 2-D matrix")
    if y.shape != (instance.n_articles, instance.n_stores):
        raise MalformedInputError(
            f"pattern is {y.shape[0]}x{y.shape[1]} but the instance "
            f"has {instance.n_articles} articles and {instance.n_stores} stores"
        )
    if not np.all((y == 0) | (y == 1)):
        raise MalformedInputError("pattern entries must be 0 or 1")
    return feasible_circulation(instance, y)


def _pattern(n_articles: int, members) -> np.ndarray:
    """The int8 pattern y with y[i, t] = 1 for each article i in members[t]."""
    y = np.zeros((n_articles, len(members)), dtype=np.int8)
    for t, articles in enumerate(members):
        for i in articles:
            y[i, t] = 1
    return y


def _store_varieties(instance: DistributionInstance, y: np.ndarray) -> list[float]:
    columns = (np.flatnonzero(y[:, t]) for t in range(y.shape[1]))
    return [variety(VarietyMeasure.MAX_MEAN, c, instance.distances) if c.size else 0.0 for c in columns]


def plan_from_quantities(instance: DistributionInstance, x: np.ndarray) -> DistributionPlan:
    """Build a plan from shipment quantities, deriving the varieties."""
    x = np.asarray(x, dtype=np.int64)
    return DistributionPlan(x, tuple(_store_varieties(instance, x >= 1)))


def plan_violations(instance: DistributionInstance, plan: DistributionPlan) -> list[Violation]:
    """All constraint breaches of a plan against a valid instance."""
    violations: list[Violation] = []
    if plan.n_articles != instance.n_articles or plan.n_stores != instance.n_stores:
        violations.append(
            Violation(
                "shape_mismatch",
                "plan",
                f"plan is {plan.n_articles}x{plan.n_stores}, instance needs "
                f"{instance.n_articles}x{instance.n_stores}",
            )
        )
        return violations
    x, y = plan.x, plan.y
    mins, planned, caps, lowers, uppers = (bound.tolist() for bound in instance.bounds)
    for t in range(instance.n_stores):
        count = int(y[:, t].sum())
        if count < 2:
            violations.append(
                Violation(
                    "too_few_styles",
                    instance.stores[t].id,
                    f"store receives {count} styles, needs at least 2",
                )
            )
        total = int(x[:, t].sum())
        if not (lowers[t] <= total <= uppers[t]):
            violations.append(
                Violation(
                    "store_band",
                    instance.stores[t].id,
                    f"store total {total} outside [{lowers[t]}, {uppers[t]}]",
                )
            )
        for i in range(instance.n_articles):
            if y[i, t]:
                if x[i, t] < mins[i]:
                    violations.append(
                        Violation(
                            "below_min_qty",
                            f"{instance.articles[i].id}@{instance.stores[t].id}",
                            f"shipment {int(x[i, t])} below minimum {mins[i]}",
                        )
                    )
                if x[i, t] > caps[t]:
                    violations.append(
                        Violation(
                            "above_cap",
                            f"{instance.articles[i].id}@{instance.stores[t].id}",
                            f"shipment {int(x[i, t])} above cap {caps[t]}",
                        )
                    )
    for i in range(instance.n_articles):
        shipped = int(x[i].sum())
        if shipped > planned[i]:
            violations.append(
                Violation(
                    "planned_total_exceeded",
                    instance.articles[i].id,
                    f"shipped {shipped} exceeds planned total {planned[i]}",
                )
            )
    expected = _store_varieties(instance, y)
    for t, (stored, fresh) in enumerate(zip(plan.per_store_variety, expected)):
        if not math.isclose(stored, fresh, rel_tol=1e-9, abs_tol=1e-9):
            violations.append(
                Violation(
                    "variety_mismatch",
                    instance.stores[t].id,
                    f"stored variety {stored} does not match recomputed {fresh}",
                )
            )
    return violations


def evaluate_plan(instance: DistributionInstance, plan: DistributionPlan) -> float:
    """Validate a plan against every constraint and score it.

    Returns:
        The objective: sum over stores of the MAX_MEAN variety of the
        assigned style set.

    Raises:
        ValidationError: The instance itself is invalid.
        InfeasiblePlanError: Any constraint breach, carrying the list.
    """
    ensure_valid(instance)
    violations = plan_violations(instance, plan)
    if violations:
        raise InfeasiblePlanError(violations)
    return float(sum(_store_varieties(instance, plan.y)))


# Subsets per listing chunk, which bounds its working memory (12-subsets:
# 20k x 12 x 12 scores, 23 MB). With s > k stores a chunk of k-subsets
# holds k/s as many, so its rows x k x s store tests keep that bound.
_CHUNK_ROWS = 20_000
# Subgradient steps of the supply pricing.
_PRICE_STEPS = 300
# Candidate rows the exact search converts to Python at once; it often
# reads only a store's first few.
_BLOCK_ROWS = 1024


def _store_candidates(
    instance: DistributionInstance, deadline: float = math.inf
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each store's admissible style subsets as (varieties, article bitmasks), best first.

    Admissible means: at least two styles, each with min_qty within the
    store's cap, the forced minimum shipments fit under the store's upper
    band, and the combined per-pair caps can still cover its lower band.
    Variety ties keep size-then-lexicographic order. One listing of the
    styles usable in some store, up to the largest size any store admits,
    serves every store: each numpy chunk tests all stores in one rows x
    stores expression and scores the rows some store keeps, and one sort
    orders them for all stores. Raises BudgetExceededError once the
    ``time.perf_counter`` value ``deadline`` has passed, checked per chunk
    and before the sort, and InfeasibleError for a store without
    admissible subsets.
    """
    n, s = instance.n_articles, instance.n_stores
    mins, planned, caps, lowers, uppers = instance.bounds
    # An article whose min_qty exceeds a store's cap weighs more than the
    # store's upper band, so no subset that holds it passes the weight test.
    weights = np.where(mins[:, None] <= caps, mins[:, None], uppers + 1)  # articles x stores
    covers = np.minimum(planned[:, None], caps)
    bit = np.array([1 << i for i in range(n)], dtype=np.int64 if n < 64 else object)
    listed = [i for i in range(n) if mins[i] <= max(caps, default=0)]  # usable in some store
    # Subsets larger than the count of smallest weights that fit under the
    # upper band would all fail a store's weight test below.
    max_size = max(
        (np.count_nonzero(np.cumsum(np.sort(w)) <= u) for w, u in zip(weights.T, uppers)), default=0
    )
    parts = [(np.empty(0), np.empty(0, bit.dtype), np.empty((0, s), bool))]
    for k in range(2, max_size + 1):
        rows = max(1, _CHUNK_ROWS * k // max(k, s))
        combos = itertools.combinations(listed, k)
        for _ in range(0, math.comb(len(listed), k), rows):
            if time.perf_counter() > deadline:
                raise BudgetExceededError("time budget ran out while listing style subsets")
            chunk = itertools.chain.from_iterable(itertools.islice(combos, rows))
            c = np.fromiter(chunk, dtype=np.intp).reshape(-1, k)
            keep = (weights[c].sum(axis=1) <= uppers) & (covers[c].sum(axis=1) >= lowers)
            used = keep.any(axis=1)  # rows some store keeps
            c, keep = c[used], keep[used]
            values = instance.distances.entries[c[:, :, None], c[:, None, :]].sum((1, 2)) / 2 / k
            parts.append((values, bit[c].sum(axis=1), keep))
    if time.perf_counter() > deadline:
        raise BudgetExceededError("time budget ran out while listing style subsets")
    values, masks, keep = map(np.concatenate, zip(*parts))
    order = np.argsort(-values, kind="stable")
    values, masks = values[order], masks[order]
    out = []
    for t, kept in enumerate(keep[order].T):
        if not kept.any():
            raise InfeasibleError(f"store {instance.stores[t].id!r} has no admissible style subset")
        out.append((values[kept], masks[kept]))
    return out


def _supply_prices(
    candidates, counts: np.ndarray, deadline: float = math.inf
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Prices lam >= 0 on the articles' store counts, and per store each subset's lam . 1_S.

    Article i serves at most counts[i] = floor(planned_i / min_qty_i) stores,
    so every feasible pattern scores at most L(lam) = sum_t max_S (v(S) -
    lam . 1_S) + lam . counts (Lagrangian relaxation; Fisher, Manage. Sci.
    1981). Projected subgradient steps over all stores' subsets at once
    keep the lam with the lowest L; the run is deterministic and stops
    at the deadline. lam is 0 when every count covers all stores.

    Stores share most subsets, so each step prices each distinct subset
    once, by one matrix product, and reads the stores' rows through a
    stores x widest-store index table whose padding points at a -inf
    sentinel; its ``argmax(axis=1)`` is each store's first top subset.
    BLAS may round a row's product in the last bit by its position, so a
    price can differ from the same row's among all stores' rows; only
    prices or bounds within a few ulps could then order differently. The
    costs returned are the product over all stores' rows.
    """
    n = len(counts)
    if np.all(counts >= len(candidates)):
        return np.zeros(n), [np.zeros(len(values)) for values, _ in candidates]
    sizes = [len(values) for values, _ in candidates]
    values = np.concatenate([values for values, _ in candidates])
    masks = np.concatenate([masks for _, masks in candidates])
    _, first, subset = np.unique(masks, return_index=True, return_inverse=True)
    rows = (masks[:, None] >> np.arange(n) & 1).astype(float)
    members, worth, stores = rows[first], values[first], np.arange(len(sizes))
    table = np.full((len(sizes), max(sizes)), len(first))
    table[np.arange(max(sizes)) < np.array(sizes)[:, None]] = subset
    priced = np.full(len(first) + 1, -math.inf)
    counts = counts.astype(float)  # exact, and no cast in every step
    lam = best_lam = np.zeros(n)
    step, best = float(values.max()) / 4, math.inf
    for k in range(_PRICE_STEPS):
        if time.perf_counter() > deadline:
            break
        np.subtract(worth, members @ lam, out=priced[:-1])
        top = table[stores, priced[table].argmax(axis=1)]
        bound = priced[top].sum() + lam @ counts
        if bound < best:
            best, best_lam = bound, lam
        g = counts - members[top].sum(axis=0)
        norm2 = g @ g  # zero exactly when g is: its entries are whole numbers
        if not norm2:
            break
        lam = np.maximum(0.0, lam - step * 0.97**k / math.sqrt(norm2) * g)
    return best_lam, np.split(rows @ best_lam, np.cumsum(sizes[:-1]))


def _free_bests(values: np.ndarray, masks: np.ndarray, priced: np.ndarray, n: int):
    """One store's best value and best priced value among its rows avoiding an
    article bitmask, as a function of the mask; -inf for both if none does.
    Per article, a Python int holds the bits of the rows avoiding it, in value
    and in priced order: the first row avoiding every blocked article is the
    lowest set bit of their AND. Built on the first nonzero mask, if any."""
    avoiding: dict[int, tuple[int, int]] = {}  # article bit -> rows avoiding it, both orders
    ranked: list[list[float]] = []  # values, and priced values in priced order

    def best(blocked: int) -> tuple[float, float]:
        if not blocked:
            return float(values[0]), float(priced.max())
        if not avoiding:
            order = np.argsort(-priced, kind="stable")
            free = (masks[:, None] >> np.arange(n) & 1).T == 0  # articles x rows
            packed = (np.packbits(part, axis=1, bitorder="little") for part in (free, free[:, order]))
            by_value, by_price = ([int.from_bytes(row.tobytes(), "little") for row in p] for p in packed)
            avoiding.update((1 << i, pair) for i, pair in enumerate(zip(by_value, by_price)))
            ranked.extend((values.tolist(), priced[order].tolist()))
        first = cheapest = -1
        while blocked:
            low = blocked & -blocked
            by_value, by_price = avoiding[low]
            first, cheapest, blocked = first & by_value, cheapest & by_price, blocked ^ low
        if not first:
            return -math.inf, -math.inf
        plain, cheap = ranked
        return plain[(first & -first).bit_length() - 1], cheap[(cheapest & -cheapest).bit_length() - 1]

    return best


# Largest n_articles * n_stores that auto_mode sends to solve_exact.
EXACT_SIZE_LIMIT = 24


def auto_mode(instance: DistributionInstance) -> str:
    """The solver for an instance when none is named: "exact" up to
    EXACT_SIZE_LIMIT articles x stores, else "heuristic". ``solve --mode
    auto`` and the baseline comparison both pick by it."""
    return "exact" if instance.n_articles * instance.n_stores <= EXACT_SIZE_LIMIT else "heuristic"


def solve_exact(
    instance: DistributionInstance,
    limits: SolveLimits | None = None,
) -> SolveReport:
    """Enumerate assignment patterns to find the best feasible plan.

    Depth-first search assigns each store an admissible style subset,
    trying each store's subsets best-first (descending variety). Article
    i can serve floor(planned_i / min_qty_i) stores; the search counts
    down the stores each article has left, and its supply state is a
    bitmask of the articles with none left, whose subsets are skipped.
    The memoized ``suffix(t, blocked)`` sums over the later stores their
    best value, and their best value net of the ``_supply_prices`` lam,
    among the subsets avoiding the mask, which only grows with depth; each
    store answers from ``_free_bests``' row bitsets.
    Every completion is bounded by the smaller of the plain sum and the
    priced sum plus the credit sum_i lam_i (stores left for i).
    A store's remaining subsets are cut once the bound falls below the
    incumbent, and a subset is skipped when the bound under the articles
    it would block does. Neither prunes a pattern the last store's
    incumbent test would pass (the priced sum gets a rounding slack of
    1e-9 of the root bound; at the last store the plain sum is exact),
    so the same patterns reach the quantity check in the same order.
    Among objective ties (within 1e-12) the plan with the
    lexicographically smallest row-major y wins, so the result does not
    depend on the visiting order.

    Each complete pattern's quantities are checked once, on the int8
    ``y`` that ``_pattern`` builds from the stores' chosen article lists.
    An even split of each article's spare units (``flow.split_feasible``,
    on the instance's ``bounds``) proves most feasible patterns at once;
    the rest go to ``quantity_feasible``, and the last failure's cut
    certificate is the one an InfeasibleError carries. The winner's
    quantities come from one more flow call after the search.

    ``limits.time_budget`` is checked while listing candidate subsets,
    between pricing steps and on entry to every search node;
    ``limits.max_patterns`` caps the checked patterns. A budget
    that runs out after the search found a feasible plan returns that
    plan with status FEASIBLE_HEURISTIC.

    Raises:
        ValidationError: Invalid instance.
        InfeasibleError: No pattern admits feasible quantities.
        BudgetExceededError: Budget exhausted before any feasible plan
            was found.
    """
    ensure_valid(instance)
    limits = limits or SolveLimits()
    started = time.perf_counter()
    deadline = math.inf if limits.time_budget is None else started + limits.time_budget
    n, s = instance.n_articles, instance.n_stores

    counts = instance.bounds[1] // instance.bounds[0]
    candidates = _store_candidates(instance, deadline)
    lam, costs = _supply_prices(candidates, counts, deadline)
    bests = [_free_bests(v, m, v - cost, n) for (v, m), cost in zip(candidates, costs)]
    converted: list[list[tuple[float, float, int]]] = [[] for _ in range(s)]

    def rows(t: int):
        """Store t's (value, cost, mask) rows, best first. The search often
        reads only a few, so they are made Python a block at a time."""
        done, (values, masks) = converted[t], candidates[t]
        yield from done
        for lo in range(len(done), len(values), _BLOCK_ROWS):
            part = slice(lo, lo + _BLOCK_ROWS)
            block = list(zip(values[part].tolist(), costs[t][part].tolist(), masks[part].tolist()))
            done.extend(block)
            yield from block

    left = counts.tolist()
    # suffix's results per store and blocked mask; memo[s] stays empty.
    memo: list[dict[int, tuple[float, float]]] = [{} for _ in range(s + 1)]

    def suffix(t: int, blocked: int) -> tuple[float, float]:
        """Over stores u >= t, the sums of u's best value and of its best
        priced value among the subsets avoiding ``blocked``."""
        if t == s:
            return 0.0, 0.0
        level = memo[t]
        if blocked not in level:
            value, cheapest = bests[t](blocked)
            plain, cheap = suffix(t + 1, blocked) if value > -math.inf else (-math.inf, -math.inf)
            level[blocked] = (plain + value, cheap + cheapest)
        return level[blocked]

    best_value = -math.inf
    best_y: np.ndarray | None = None
    checked = 0
    chosen: list[list[int]] = []
    out_of_budget = False
    last_certificate = None

    def dfs(t: int, partial: float, blocked: int, tight: int, credit: float) -> None:
        nonlocal best_value, best_y, checked
        nonlocal out_of_budget, last_certificate
        if time.perf_counter() > deadline:
            out_of_budget = True
            return
        if t == s:
            if limits.max_patterns is not None and checked >= limits.max_patterns:
                out_of_budget = True
                return
            checked += 1
            y = _pattern(n, chosen)
            if not split_feasible(y, instance.bounds):
                result = quantity_feasible(instance, y)
                if not result.feasible:
                    last_certificate = result.certificate
                    return
            if (
                best_y is None
                or partial > best_value + _TIE_TOLERANCE
                or (partial >= best_value - _TIE_TOLERANCE and y.tobytes() < best_y.tobytes())
            ):
                best_value = max(best_value, partial)
                best_y = y
            return
        plain, cheap = suffix(t + 1, blocked)
        rest = min(plain, cheap + credit + slack)
        floor = best_value - _TIE_TOLERANCE
        below = memo[t + 1]
        for value, cost, mask in rows(t):
            reached = partial + value
            if reached + rest < floor:
                break
            if mask & blocked:
                continue
            after = blocked | (mask & tight)
            plain_after, cheap_after = below.get(after) or suffix(t + 1, after)
            priced_after = cheap_after + credit - cost + slack
            # min(plain_after, priced_after), without a call on this per-row path
            if reached + (priced_after if priced_after < plain_after else plain_after) < floor:
                continue
            combo = [i for i in range(n) if mask >> i & 1]
            tighter = tight
            for i in combo:
                left[i] -= 1
                if left[i] < 2:
                    tighter |= 1 << i
            chosen.append(combo)
            dfs(t + 1, reached, after, tighter, credit - cost)
            chosen.pop()
            for i in combo:
                left[i] += 1
            if out_of_budget:
                return
            floor = best_value - _TIE_TOLERANCE  # only a leaf below raises best_value

    # Article bitmasks: blocked articles have no store left (validation
    # gives every article at least one), tight ones at most one.
    tight = sum(1 << i for i in range(n) if left[i] < 2)
    try:
        slack = 1e-9 * abs(suffix(0, 0)[0])  # values are >= 0, so this is >= 1e-9 * |best|
        dfs(0, 0.0, 0, tight, float(lam @ counts))
    except RecursionError:  # hit on the first descent, the deepest, before any plan is found
        raise BudgetExceededError(
            f"the exact search recurses once per store and cannot reach {s} stores; try --mode heuristic"
        ) from None

    if best_y is not None:
        plan = plan_from_quantities(instance, quantity_feasible(instance, best_y).x)
        status = SolveStatus.FEASIBLE_HEURISTIC if out_of_budget else SolveStatus.OPTIMAL
        return SolveReport(plan, status, checked, time.perf_counter() - started)
    if out_of_budget:
        raise BudgetExceededError(
            f"no feasible plan within budget ({checked} patterns checked)"
        )
    raise InfeasibleError(
        "no assignment pattern admits feasible quantities",
        certificate=last_certificate,
    )


class _SearchState:
    """Mutable pattern state for construction and local search.

    ``pattern()`` is the int8 ``y`` of the store sets ``sets[t]``.
    ``left[i]`` counts the stores article i can still serve, as in the
    exact search: planned_i // min_i less the stores that hold it.
    ``apply(drops, adds)`` makes a move given as (store, article) pairs
    and ``apply(adds, drops)`` undoes it.
    """

    def __init__(self, instance: DistributionInstance):
        self.instance = instance
        self.d = instance.distances.entries.tolist()
        self.n = instance.n_articles
        self.s = instance.n_stores
        self.mins, self.planned, self.caps, self.lower, self.upper = (
            bound.tolist() for bound in instance.bounds
        )
        self.left = [total // least for total, least in zip(self.planned, self.mins)]
        self.sets: list[set[int]] = [set() for _ in range(self.s)]
        self.pair_sums = [0.0] * self.s
        self.forced = [0] * self.s

    def store_value(self, t: int) -> float:
        k = len(self.sets[t])
        return self.pair_sums[t] / k if k >= 2 else 0.0

    def links(self, t: int, i: int, skip: int | None = None) -> float:
        """Sum of d[i][j] over the members j of store t other than i and skip."""
        row = self.d[i]
        return float(sum(row[j] for j in self.sets[t] if j != i and j != skip))

    def add(self, t: int, i: int) -> None:
        self.pair_sums[t] += self.links(t, i)
        self.sets[t].add(i)
        self.forced[t] += self.mins[i]
        self.left[i] -= 1

    def remove(self, t: int, i: int) -> None:
        self.sets[t].discard(i)
        self.pair_sums[t] -= self.links(t, i)
        self.forced[t] -= self.mins[i]
        self.left[i] += 1

    def apply(self, drops, adds) -> None:
        for t, i in drops:
            self.remove(t, i)
        for t, i in adds:
            self.add(t, i)

    def gain(self, t: int, drop: int | None = None, add: int | None = None) -> float:
        """Change of store t's value when ``drop`` leaves and ``add`` joins."""
        k = len(self.sets[t])
        total = self.pair_sums[t]
        if drop is not None:
            total -= self.links(t, drop)
            k -= 1
        if add is not None:
            total += self.links(t, add, drop)
            k += 1
        return (total / k if k >= 2 else 0.0) - self.store_value(t)

    def fits(self, t: int, add: int, drop: int | None = None) -> bool:
        """Whether ``add`` may join store t in place of ``drop``: its min_qty within
        t's cap (the flow check's test), t's forced minimums within its upper band."""
        if add in self.sets[t] or self.mins[add] > self.caps[t]:
            return False
        released = 0 if drop is None else self.mins[drop]
        return self.forced[t] + self.mins[add] - released <= self.upper[t]

    def can_add(self, t: int, i: int) -> bool:
        """``fits``, plus a store left for i (swaps and moves add no store)."""
        return self.left[i] > 0 and self.fits(t, i)

    def pattern(self) -> np.ndarray:
        return _pattern(self.n, self.sets)


def _gain_chooser(state: _SearchState, priority, gain_driven: bool = True):
    """Chooser for _construct and _repair.

    It names the addable article with the best MAX_MEAN gain, or the
    first addable one when not ``gain_driven``. Ties go to the earliest
    in ``priority``: ``max`` returns the first of equal gains.
    """

    def choose(t: int) -> int | None:
        addable = [i for i in priority if state.can_add(t, i)]
        if not addable:
            return None
        if gain_driven:
            return max(addable, key=lambda i: state.gain(t, add=i))
        return addable[0]

    return choose


def _construct(state: _SearchState, choose_add) -> int | None:
    """Greedy pattern construction; returns the first store left short.

    Stores are filled in descending desired quantity, each taking the
    article ``choose_add(t)`` names until it holds two styles whose
    per-pair caps can cover its lower band, or until ``choose_add``
    returns None. A store left with fewer than two styles ends the
    construction and is returned; None means every store has two.
    """
    stores = state.instance.stores
    store_order = sorted(range(state.s), key=lambda t: (-stores[t].desired_qty, t))
    for t in store_order:
        while True:
            members = state.sets[t]
            coverage = sum(min(state.caps[t], state.planned[i]) for i in members)
            if len(members) >= 2 and coverage >= state.lower[t]:
                break
            chosen = choose_add(t)
            if chosen is None:
                break
            state.add(t, chosen)
        if len(state.sets[t]) < 2:
            return t
    return None


def _repair(state: _SearchState, choose_add) -> QuantityResult:
    """Grow a structurally complete pattern until its quantities fit.

    Each infeasible flow check yields a cut certificate; the first store
    of that cut for which ``choose_add`` names an article receives it.
    Repair only adds styles. Construction and repair add only pairs with
    ``min_qty <= cap`` and keep every store's forced minimums within its
    upper band, so by Hoffman's circulation theorem the only cut that
    can be violated contains the sink: every certificate here is
    demand-driven, and adding supply options is the only useful step.
    The pattern grows strictly, so the loop ends after at most
    ``n_articles * n_stores`` additions. Returns the last flow check:
    feasible, or infeasible once no store of the cut can take a style.
    """
    while True:
        result = quantity_feasible(state.instance, state.pattern())
        if result.feasible:
            return result
        for t in result.certificate.stores:
            chosen = choose_add(t)
            if chosen is not None:
                state.add(t, chosen)
                break
        else:
            return result


def _local_search(
    state: _SearchState,
    x0: np.ndarray,
    config: HeuristicConfig,
    started: float,
) -> SolveReport:
    """Keep the first improving move that passes the flow check; repeat."""
    instance = state.instance
    iterations = 0
    best_x = x0
    while iterations < config.max_iters:
        moves = itertools.chain(_scan_swap(state), _scan_move(state), _scan_toggle(state))
        for _, drops, adds in moves:
            state.apply(drops, adds)
            result = quantity_feasible(instance, state.pattern())
            if result.feasible:
                break
            state.apply(adds, drops)
        else:
            break
        iterations += 1
        best_x = result.x
    return SolveReport(
        plan_from_quantities(instance, best_x),
        SolveStatus.FEASIBLE_HEURISTIC,
        iterations,
        time.perf_counter() - started,
    )


def _scan_swap(state: _SearchState):
    """Two stores trade one style each."""
    for t in range(state.s):
        for u in range(t + 1, state.s):
            only_t = sorted(state.sets[t] - state.sets[u])
            only_u = sorted(state.sets[u] - state.sets[t])
            for i in only_t:
                for j in only_u:
                    if not (state.fits(t, j, i) and state.fits(u, i, j)):
                        continue
                    delta = state.gain(t, i, j) + state.gain(u, j, i)
                    if delta > OBJECTIVE_TOLERANCE:
                        yield delta, ((t, i), (u, j)), ((t, j), (u, i))


def _scan_move(state: _SearchState):
    """A style leaves a store holding more than two for another store."""
    for t in range(state.s):
        if len(state.sets[t]) <= 2:
            continue
        for u in range(state.s):
            if u == t:
                continue
            for i in sorted(state.sets[t] - state.sets[u]):
                if not state.fits(u, i):
                    continue
                delta = state.gain(t, drop=i) + state.gain(u, add=i)
                if delta > OBJECTIVE_TOLERANCE:
                    yield delta, ((t, i),), ((u, i),)


def _scan_toggle(state: _SearchState):
    """A store takes one more style, or gives up one of more than two."""
    for t in range(state.s):
        for i in range(state.n):
            if not state.can_add(t, i):
                continue
            delta = state.gain(t, add=i)
            if delta > OBJECTIVE_TOLERANCE:
                yield delta, (), ((t, i),)
        # A drop can gain only on raw distance entries: under both built-in
        # metrics MAX_MEAN never falls when a style is added (see README).
        if len(state.sets[t]) > 2:
            for i in sorted(state.sets[t]):
                delta = state.gain(t, drop=i)
                if delta > OBJECTIVE_TOLERANCE:
                    yield delta, ((t, i),), ()


def solve_heuristic(
    instance: DistributionInstance,
    config: HeuristicConfig | None = None,
) -> SolveReport:
    """Greedy construction plus local search; deterministic given seed.

    Construction fills stores in descending desired quantity, repeatedly
    taking the remaining-capacity article with the best MAX_MEAN
    marginal gain until the store's lower band is coverable. Certificate
    guided repair then adds styles to the short stores of each violated
    cut until the quantities fit; it never drops one, since every cut
    it can meet is demand-driven (see ``_repair``). Failed attempts
    restart with seeded random article priorities. First-improvement
    local search then polishes the pattern: the first improving swap,
    move or toggle is applied and flow-checked, undone if its quantities
    do not fit, and after each accepted move the scan starts over.

    Raises:
        ValidationError: Invalid instance.
        InfeasibleError: No feasible pattern was found by any restart;
            its certificate is the cut of the last pattern repair
            reached.
    """
    ensure_valid(instance)
    config = config or HeuristicConfig()
    started = time.perf_counter()
    last_certificate = None
    for attempt in range(config.restarts):
        state = _SearchState(instance)
        priority = list(range(instance.n_articles))
        if attempt > 0:
            rng = random.Random(config.seed * 1_000_003 + attempt)
            rng.shuffle(priority)
        gain_driven = attempt % 3 != 2
        if _construct(state, _gain_chooser(state, priority, gain_driven)) is not None:
            continue
        result = _repair(state, _gain_chooser(state, range(state.n)))
        if result.feasible:
            return _local_search(state, result.x, config, started)
        last_certificate = result.certificate
    raise InfeasibleError(
        "construction and repair found no feasible pattern",
        certificate=last_certificate,
    )


def improve_plan(
    instance: DistributionInstance,
    plan: DistributionPlan,
    config: HeuristicConfig | None = None,
) -> SolveReport:
    """Polish an already-feasible plan with the local-search phase only.

    Raises:
        ValidationError: Invalid instance.
        InfeasiblePlanError: The starting plan violates constraints.
    """
    config = config or HeuristicConfig()
    started = time.perf_counter()
    evaluate_plan(instance, plan)
    state = _SearchState(instance)
    for t in range(instance.n_stores):
        for i in plan.store_set(t):
            state.add(t, i)
    return _local_search(state, np.asarray(plan.x, dtype=np.int64), config, started)
