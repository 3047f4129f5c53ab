"""MILP formulation of the allocation problem and LP-format export.

The model maximizes the sum of per-store MAX_MEAN varieties. Because
that objective divides by the assigned-style count, continuous
auxiliaries linearize it: r_s stands for the reciprocal of store s's
style count, u_is for r_s * y_is, and w_ijs for r_s * y_is * y_js. At
integral y the constraint system pins these products exactly, so the
linearization is exact, not a relaxation.

Variable naming: x_i_s, y_i_s, r_s, u_i_s, w_i_j_s (i < j), v_s.
One generator yields the rows; ``build_milp`` collects them and
``export_lp`` streams them to a text stream one row at a time.
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


def _rows(instance: DistributionInstance) -> Iterator[LpRow]:
    """Yield every row of the allocation MILP in deterministic order.

    This is the only source of the model's rows: ``build_milp`` collects
    them and ``export_lp`` renders each one as it is yielded. The caller
    validates the instance first.

    Row families, in emission order (n articles, s stores):
        store_ub_s, store_lb_s         store quantity bands      (2s rows)
        resource_i                     per-article supply        (n rows)
        min_qty_i_s, cap_i_s           shipment/indicator link   (2ns rows)
        min_styles_s                   at least two styles       (s rows)
        u_lb/u_le_r/u_le_y, u_sum_s    reciprocal linearization  (3ns + s)
        w_lb/w_le_yi/w_le_yj/w_le_r    pair-product linearization
                                       (4s * n(n-1)/2 rows)
        variety_s                      v_s definition            (s rows)
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
            yield LpRow(
                f"min_qty_{i}_{t}", ((var_x(i, t), 1.0), (var_y(i, t), -m_i)), ">=", 0.0
            )
    for i in range(n):
        for t in range(s):
            cap_t = float(instance.big_m(t))
            yield LpRow(
                f"cap_{i}_{t}", ((var_x(i, t), 1.0), (var_y(i, t), -cap_t)), "<=", 0.0
            )
    for t in range(s):
        terms = tuple((var_y(i, t), 1.0) for i in range(n))
        yield LpRow(f"min_styles_{t}", terms, ">=", 2.0)

    for i in range(n):
        for t in range(s):
            yield LpRow(
                f"u_lb_{i}_{t}",
                ((var_u(i, t), 1.0), (var_r(t), -1.0), (var_y(i, t), -1.0)),
                ">=",
                -1.0,
            )
    for i in range(n):
        for t in range(s):
            yield LpRow(f"u_le_r_{i}_{t}", ((var_u(i, t), 1.0), (var_r(t), -1.0)), "<=", 0.0)
    for i in range(n):
        for t in range(s):
            yield LpRow(f"u_le_y_{i}_{t}", ((var_u(i, t), 1.0), (var_y(i, t), -1.0)), "<=", 0.0)
    for t in range(s):
        terms = tuple((var_u(i, t), 1.0) for i in range(n))
        yield LpRow(f"u_sum_{t}", terms, "=", 1.0)

    for i in range(n):
        for j in range(i + 1, n):
            for t in range(s):
                w = var_w(i, j, t)
                yield LpRow(
                    f"w_lb_{i}_{j}_{t}",
                    ((w, 1.0), (var_r(t), -1.0), (var_y(i, t), -1.0), (var_y(j, t), -1.0)),
                    ">=",
                    -2.0,
                )
                yield LpRow(f"w_le_yi_{i}_{j}_{t}", ((w, 1.0), (var_y(i, t), -1.0)), "<=", 0.0)
                yield LpRow(f"w_le_yj_{i}_{j}_{t}", ((w, 1.0), (var_y(j, t), -1.0)), "<=", 0.0)
                yield LpRow(f"w_le_r_{i}_{j}_{t}", ((w, 1.0), (var_r(t), -1.0)), "<=", 0.0)

    for t in range(s):
        terms: list[tuple[str, float]] = [(var_v(t), 1.0)]
        for i in range(n):
            for j in range(i + 1, n):
                terms.append((var_w(i, j, t), -float(d[i, j])))
        yield LpRow(f"variety_{t}", tuple(terms), "=", 0.0)


def _objective(s: int) -> tuple[tuple[str, float], ...]:
    return tuple((var_v(t), 1.0) for t in range(s))


def _generals(n: int, s: int) -> tuple[str, ...]:
    return tuple(var_x(i, t) for i in range(n) for t in range(s))


def _binaries(n: int, s: int) -> tuple[str, ...]:
    return tuple(var_y(i, t) for i in range(n) for t in range(s))


def build_milp(instance: DistributionInstance) -> MilpModel:
    """Assemble the whole allocation MILP in memory, rows in ``_rows`` order."""
    ensure_valid(instance)
    n, s = instance.n_articles, instance.n_stores
    continuous = (
        tuple(var_r(t) for t in range(s))
        + tuple(var_u(i, t) for i in range(n) for t in range(s))
        + tuple(
            var_w(i, j, t)
            for i in range(n)
            for j in range(i + 1, n)
            for t in range(s)
        )
        + tuple(var_v(t) for t in range(s))
    )
    return MilpModel(
        _objective(s), tuple(_rows(instance)), _generals(n, s), _binaries(n, s), continuous
    )


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _render_terms(terms: tuple[tuple[str, float], ...]) -> list[str]:
    """Render '+ coef name' pieces, several per line, leading sign trimmed."""
    pieces: list[str] = []
    for name, coef in terms:
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        if mag == 1:
            pieces.append(f"{sign} {name}")
        else:
            pieces.append(f"{sign} {_fmt(mag)} {name}")
    if pieces and pieces[0].startswith("+ "):
        pieces[0] = pieces[0][2:]
    lines: list[str] = []
    for start in range(0, len(pieces), 8):
        lines.append(" ".join(pieces[start : start + 8]))
    return lines or ["0"]


def export_lp(instance: DistributionInstance, out: TextIO) -> None:
    """Write the full MILP to ``out`` in LP text format (deterministic bytes).

    Each row is rendered and written as ``_rows`` yields it, so neither
    the model nor its text is ever held whole. The instance is validated
    before the first write.
    """
    ensure_valid(instance)
    n, s = instance.n_articles, instance.n_stores
    out.write("Maximize\n obj: " + "\n      ".join(_render_terms(_objective(s))) + "\n")
    out.write("Subject To\n")
    for row in _rows(instance):
        body = "\n    ".join(_render_terms(row.terms))
        out.write(f" {row.name}: {body} {row.sense} {_fmt(row.rhs)}\n")
    for header, names in (("Generals", _generals(n, s)), ("Binaries", _binaries(n, s))):
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
