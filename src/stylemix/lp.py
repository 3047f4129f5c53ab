"""MILP formulation of the allocation problem and LP-format export.

The model maximizes the sum of per-store MAX_MEAN varieties. Because
that objective divides by the assigned-style count, continuous
auxiliaries linearize it: r_s stands for the reciprocal of store s's
style count, u_is for r_s * y_is, and w_ijs for r_s * y_is * y_js. At
integral y the constraint system pins these products exactly, so the
linearization is exact, not a relaxation.

Variable naming: x_i_s, y_i_s, r_s, u_i_s, w_i_j_s (i < j), v_s.
One generator yields the rows' LP text in blocks (a family, an article,
a pair or a store at a time): ``export_lp`` writes each block as it comes,
and ``build_milp`` parses the same blocks back into ``LpRow`` objects, so
the in-memory model is what the file says.
Rendering is deterministic: identical instances yield identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, TextIO

import numpy as np

from .core import DistributionInstance, DistributionPlan, ensure_valid

__all__ = [
    "LpRow",
    "MilpModel",
    "build_milp",
    "export_lp",
    "linearization_witness",
    "check_assignment",
    "var_x",
    "var_y",
    "var_r",
    "var_u",
    "var_w",
    "var_v",
]


def var_x(i: int, s: int) -> str:
    return f"x_{i}_{s}"


def var_y(i: int, s: int) -> str:
    return f"y_{i}_{s}"


def var_r(s: int) -> str:
    return f"r_{s}"


def var_u(i: int, s: int) -> str:
    return f"u_{i}_{s}"


def var_w(i: int, j: int, s: int) -> str:
    if not i < j:
        raise ValueError(f"w variable needs i < j, got ({i}, {j})")
    return f"w_{i}_{j}_{s}"


def var_v(s: int) -> str:
    return f"v_{s}"


@dataclass(frozen=True)
class LpRow:
    """One linear constraint: sum(coef * var) sense rhs."""

    name: str
    terms: tuple[tuple[str, float], ...]
    sense: str
    rhs: float

    def __post_init__(self):
        if self.sense not in ("<=", ">=", "="):
            raise ValueError(f"unknown sense {self.sense!r}")

    def residual(self, values: dict[str, float]) -> float:
        """lhs - rhs under an assignment (positive means above rhs)."""
        lhs = sum(coef * values[name] for name, coef in self.terms)
        return lhs - self.rhs

    def satisfied(self, values: dict[str, float], tol: float = 1e-9) -> bool:
        res = self.residual(values)
        if self.sense == "<=":
            return res <= tol
        if self.sense == ">=":
            return res >= -tol
        return abs(res) <= tol


@dataclass(frozen=True)
class MilpModel:
    """Complete model: objective terms, rows, and variable classes."""

    objective: tuple[tuple[str, float], ...]
    rows: tuple[LpRow, ...]
    generals: tuple[str, ...]
    binaries: tuple[str, ...]
    continuous: tuple[str, ...]

    @property
    def variable_names(self) -> tuple[str, ...]:
        return self.generals + self.binaries + self.continuous

    def objective_value(self, values: dict[str, float]) -> float:
        return sum(coef * values[name] for name, coef in self.objective)


def _fmt(value: float) -> str:
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


def _coef(value: float) -> str:
    """A term's '+ coef ' prefix: a magnitude of 1 drops the number."""
    sign = "- " if value < 0 else "+ "
    mag = abs(value)
    return sign if mag == 1 else f"{sign}{_fmt(mag)} "


def _body(pieces: list[str], indent: str = "\n    ") -> str:
    """'+ coef name' pieces, 8 a line, the leading '+ ' trimmed; no terms read '0'."""
    lines = (" ".join(pieces[k : k + 8]) for k in range(0, len(pieces), 8))
    return indent.join(lines).removeprefix("+ ") or "0"


def _row(name: str, pieces: list[str], sense: str, rhs: float) -> str:
    return f" {name}: {_body(pieces)} {sense} {_fmt(rhs)}\n"


def _subject_to(instance: DistributionInstance) -> Iterator[str]:
    """Yield the text of the model's rows, a block of whole rows at a time.

    This is the only source of the rows: ``export_lp`` writes the blocks
    as they come and ``build_milp`` reads them back. Variable names and
    coefficient pieces are rendered once per article, store or pair, not
    once per row; rows of a fixed shape are f-strings that follow
    ``_body``'s rule. The caller validates the instance first.
    """
    n, s = instance.n_articles, instance.n_stores
    x = [[var_x(i, t) for t in range(s)] for i in range(n)]
    y = [[var_y(i, t) for t in range(s)] for i in range(n)]
    u = [[var_u(i, t) for t in range(s)] for i in range(n)]
    r = [var_r(t) for t in range(s)]
    mins, planned, caps, lowers, uppers = (bound.tolist() for bound in instance.bounds)

    def column_sum(family: str, names: list[list[str]], sense: str, rhs: list[int]) -> str:
        return "".join(
            _row(f"{family}_{t}", [f"+ {names[i][t]}" for i in range(n)], sense, rhs[t])
            for t in range(s)
        )

    yield column_sum("store_ub", x, "<=", uppers)
    yield column_sum("store_lb", x, ">=", lowers)
    yield "".join(
        _row(f"resource_{i}", [f"+ {name}" for name in x[i]], "<=", planned[i]) for i in range(n)
    )
    for i in range(n):
        m = _coef(-mins[i])
        yield "".join(f" min_qty_{i}_{t}: {x[i][t]} {m}{y[i][t]} >= 0\n" for t in range(s))
    cap_terms = [_coef(-cap) for cap in caps]
    for i in range(n):
        yield "".join(f" cap_{i}_{t}: {x[i][t]} {cap_terms[t]}{y[i][t]} <= 0\n" for t in range(s))
    yield column_sum("min_styles", y, ">=", [2] * s)

    for i in range(n):
        yield "".join(f" u_lb_{i}_{t}: {u[i][t]} - {r[t]} - {y[i][t]} >= -1\n" for t in range(s))
    for i in range(n):
        yield "".join(f" u_le_r_{i}_{t}: {u[i][t]} - {r[t]} <= 0\n" for t in range(s))
    for i in range(n):
        yield "".join(f" u_le_y_{i}_{t}: {u[i][t]} - {y[i][t]} <= 0\n" for t in range(s))
    yield column_sum("u_sum", u, "=", [1] * s)

    for i in range(n):
        for j in range(i + 1, n):
            ijt = [f"{i}_{j}_{t}" for t in range(s)]
            yield "".join(
                f" w_lb_{k}: w_{k} - {r_t} - {y_it} - {y_jt} >= -2\n"
                f" w_le_yi_{k}: w_{k} - {y_it} <= 0\n"
                f" w_le_yj_{k}: w_{k} - {y_jt} <= 0\n"
                f" w_le_r_{k}: w_{k} - {r_t} <= 0\n"
                for k, r_t, y_it, y_jt in zip(ijt, r, y[i], y[j])
            )

    d = instance.distances.entries.tolist()
    pairs = [f"{_coef(-d[i][j])}w_{i}_{j}_" for i in range(n) for j in range(i + 1, n)]
    for t in range(s):
        yield _row(f"variety_{t}", [f"+ {var_v(t)}"] + [f"{p}{t}" for p in pairs], "=", 0)


def _parse_row(line: str) -> LpRow:
    """Read one row's text back: each term is a sign, a coefficient unless 1, a name."""
    name, _, rest = line[1:].partition(": ")
    *tokens, sense, rhs = rest.split()
    terms: list[tuple[str, float]] = []
    sign, mag = 1.0, 1.0
    for token in tokens:
        if token in ("+", "-"):
            sign = -1.0 if token == "-" else 1.0
        elif token[0].isdigit():
            mag = float(token)
        else:
            terms.append((token, sign * mag))
            sign, mag = 1.0, 1.0
    return LpRow(name, tuple(terms), sense, float(rhs))


def _grid(var, n: int, s: int) -> tuple[str, ...]:
    """``var(i, t)`` for every article i and store t, article by article."""
    return tuple(var(i, t) for i in range(n) for t in range(s))


def build_milp(instance: DistributionInstance) -> MilpModel:
    """Read the whole allocation MILP back from the rows ``export_lp`` writes.

    The rows are parsed from the same text blocks the export streams, so
    the in-memory model is what the file says. Row families, in emission
    order (n articles, s stores):
        store_ub_s, store_lb_s         store quantity bands      (2s rows)
        resource_i                     per-article supply        (n rows)
        min_qty_i_s, cap_i_s           shipment/indicator link   (2ns rows)
        min_styles_s                   at least two styles       (s rows)
        u_lb/u_le_r/u_le_y, u_sum_s    reciprocal linearization  (3ns + s)
        w_lb/w_le_yi/w_le_yj/w_le_r    pair-product linearization
                                       (4s * n(n-1)/2 rows)
        variety_s                      v_s definition            (s rows)
    """
    ensure_valid(instance)
    n, s = instance.n_articles, instance.n_stores
    rows = tuple(
        _parse_row(line)
        for block in _subject_to(instance)
        for line in block.replace("\n    ", " ").splitlines()
    )
    w = tuple(var_w(i, j, t) for i in range(n) for j in range(i + 1, n) for t in range(s))
    r, v = tuple(map(var_r, range(s))), tuple(map(var_v, range(s)))
    continuous = r + _grid(var_u, n, s) + w + v
    objective = tuple((name, 1.0) for name in v)
    return MilpModel(objective, rows, _grid(var_x, n, s), _grid(var_y, n, s), continuous)


def export_lp(instance: DistributionInstance, out: TextIO) -> None:
    """Write the full MILP to ``out`` in LP text format (deterministic bytes).

    The rows are written a block at a time as ``_subject_to`` yields
    them, so neither the model nor its text is ever held whole. The
    instance is validated before the first write.
    """
    ensure_valid(instance)
    n, s = instance.n_articles, instance.n_stores
    objective = _body([f"+ {var_v(t)}" for t in range(s)], "\n      ")
    out.write(f"Maximize\n obj: {objective}\n")
    out.write("Subject To\n")
    for block in _subject_to(instance):
        out.write(block)
    for header, names in (("Generals", _grid(var_x, n, s)), ("Binaries", _grid(var_y, n, s))):
        out.write(header + "\n")
        for start in range(0, len(names), 8):
            out.write(" " + " ".join(names[start : start + 8]) + "\n")
    out.write("End\n")


def linearization_witness(instance: DistributionInstance, plan: DistributionPlan) -> dict[str, float]:
    """Flat variable assignment for a plan, keyed by LP variable names.

    r, u and w take the values the module docstring gives them, and
    v_s = sum over i < j of d_ij * w_i_j_s. Substituting this dict into
    every row of ``build_milp(instance)`` satisfies the whole system
    when the plan is feasible; see ``check_assignment``.

    Raises:
        ValueError: Some store has fewer than two styles.
    """
    x, y = plan.x, plan.y
    n, s = y.shape
    d = instance.distances.entries
    counts = y.sum(axis=0)
    if np.any(counts < 2):
        raise ValueError("every store needs at least two styles for r = 1/count")
    r = [1.0 / float(c) for c in counts]
    v = [0.0] * s
    w: dict[str, float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            for t in range(s):
                w[var_w(i, j, t)] = w_ijt = r[t] * float(y[i, t]) * float(y[j, t])
                v[t] += float(d[i, j]) * w_ijt
    values: dict[str, float] = {}
    for i in range(n):
        for t in range(s):
            values[var_x(i, t)] = float(x[i, t])
            values[var_y(i, t)] = float(y[i, t])
            values[var_u(i, t)] = r[t] * float(y[i, t])
    for t in range(s):
        values[var_r(t)] = r[t]
        values[var_v(t)] = v[t]
    values.update(w)
    return values


def check_assignment(
    model: MilpModel, values: dict[str, float], tol: float = 1e-9
) -> list[str]:
    """Names of the model rows the assignment violates (empty if none)."""
    return [row.name for row in model.rows if not row.satisfied(values, tol)]
