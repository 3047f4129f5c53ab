"""Output checkers that share no code with stylemix.

Everything here reads the files the CLI wrote and recomputes what it
needs with plain loops over plain JSON values: store bands from the
exact decimal ``alpha``, shipment bounds, planned totals, style counts
and the objective from the distance matrix. The linearity check
re-draws a few sample sizes with numpy's generator directly.

Each checker returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

OBJECTIVE_TOL = 1e-9
# Variety measures in the order the linearity report lists them; the
# position is the measure index in each sample's RNG spawn key.
MEASURES = ["max_sum_sum", "max_min", "max_min_sum", "max_sum_min", "max_mean"]


def read_instance(path: Path) -> dict:
    """Parse an instance file, keeping every JSON number as its text."""
    return json.loads(path.read_text(encoding="utf-8"), parse_float=str, parse_int=str)


def check_exit(code: int) -> list[str]:
    return [] if code == 0 else [f"exit code {code}"]


def check_plan(instance: dict, report: dict) -> list[str]:
    """Check a solve report against every constraint of its instance."""
    problems: list[str] = []
    articles, stores = instance["articles"], instance["stores"]
    n, s = len(articles), len(stores)
    alpha = Fraction(instance["alpha"])
    policy = instance.get("big_m_policy", "store_qty")
    entries = instance["distances"]["entries"]
    d = [[float(entries[i * n + j]) for j in range(n)] for i in range(n)]
    x, y = report.get("x"), report.get("y")
    if not (isinstance(x, list) and len(x) == n and all(isinstance(r, list) and len(r) == s for r in x)):
        return [f"x is not a {n}x{s} matrix"]
    if not (isinstance(y, list) and len(y) == n and all(isinstance(r, list) and len(r) == s for r in y)):
        return [f"y is not a {n}x{s} matrix"]
    for i in range(n):
        for t in range(s):
            if type(x[i][t]) is not int or x[i][t] < 0:
                problems.append(f"x[{i}][{t}]={x[i][t]!r} is not a non-negative integer")
            elif y[i][t] != (1 if x[i][t] >= 1 else 0):
                problems.append(f"y[{i}][{t}]={y[i][t]!r} disagrees with x={x[i][t]}")
    if problems:
        return problems

    objective = 0.0
    per_store = []
    for t in range(s):
        q = int(stores[t]["desired_qty"])
        lb = math.ceil((1 - alpha) * q)
        ub = math.floor((1 + alpha) * q)
        cap = q if policy == "store_qty" else ub
        members = [i for i in range(n) if x[i][t] >= 1]
        total = sum(x[i][t] for i in range(n))
        if not lb <= total <= ub:
            problems.append(f"store {t} total {total} outside band [{lb}, {ub}]")
        if len(members) < 2:
            problems.append(f"store {t} receives {len(members)} styles, needs 2")
        for i in members:
            min_qty = int(articles[i]["min_qty"])
            if not min_qty <= x[i][t] <= cap:
                problems.append(f"x[{i}][{t}]={x[i][t]} outside [{min_qty}, {cap}]")
        pair_sum = 0.0
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                pair_sum += d[members[a]][members[b]]
        value = pair_sum / len(members) if members else 0.0
        per_store.append(value)
        objective += value
    for i in range(n):
        shipped = sum(x[i])
        planned = int(articles[i]["planned_total"])
        if shipped > planned:
            problems.append(f"article {i} ships {shipped} over planned {planned}")

    reported = report.get("objective")
    if not isinstance(reported, (int, float)) or abs(reported - objective) > OBJECTIVE_TOL:
        problems.append(f"objective {reported!r} != recomputed {objective!r}")
    stored = report.get("per_store_variety")
    if not isinstance(stored, list) or len(stored) != s:
        problems.append("per_store_variety has the wrong length")
    else:
        for t, (got, want) in enumerate(zip(stored, per_store)):
            if abs(got - want) > OBJECTIVE_TOL:
                problems.append(f"store {t} variety {got!r} != recomputed {want!r}")
    return problems


def expected_lp_rows(n: int, s: int) -> int:
    """Row count from the family table in ``build_milp``'s docstring."""
    return 2 * s + n + 2 * n * s + s + (3 * n * s + s) + 4 * s * n * (n - 1) // 2 + s


def lp_stats(path: Path) -> tuple[int, str]:
    """Count constraint rows and hash the bytes of an LP file."""
    digest = hashlib.sha256()
    rows = 0
    section = None
    with path.open("rb") as handle:
        for line in handle:
            digest.update(line)
            if not line.startswith(b" "):
                section = line.strip()
            elif section == b"Subject To" and line[1:2] != b" ":
                rows += 1
    return rows, digest.hexdigest()


def check_lp(path: Path, n: int, s: int, expected_sha: str | None) -> list[str]:
    problems: list[str] = []
    rows, sha = lp_stats(path)
    want = expected_lp_rows(n, s)
    if rows != want:
        problems.append(f"LP has {rows} rows, closed form gives {want}")
    if expected_sha is not None and sha != expected_sha:
        problems.append(f"LP sha256 {sha} != recorded {expected_sha}")
    return problems


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _population_distances(size: int, dim: int, seed: int) -> list[list[float]]:
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    vectors = rng.random((size, dim)).tolist()
    return [
        [sum((a - b) ** 2 for a, b in zip(u, v)) for v in vectors] for u in vectors
    ]


def _score(measure: str, subset: list[int], d: list[list[float]]) -> float:
    k = len(subset)
    if k == 1:
        return 0.0
    rows = [[d[i][j] for j in subset if j != i] for i in subset]
    if measure == "max_sum_sum":
        return sum(map(sum, rows)) / 2.0
    if measure == "max_mean":
        return sum(map(sum, rows)) / 2.0 / k
    if measure == "max_min":
        return min(map(min, rows))
    if measure == "max_min_sum":
        return min(map(sum, rows))
    if measure == "max_sum_min":
        return sum(map(min, rows))
    raise ValueError(measure)


def check_linearity(
    json_path: Path,
    csv_path: Path,
    *,
    seed: int,
    population: int,
    dim: int,
    sizes: list[int],
    reps: int,
    spot_sizes: tuple[int, ...],
    expected_sha: str | None,
) -> list[str]:
    """Check a linearity report's shape, its CSV twin and a few re-drawn means."""
    import numpy as np

    problems: list[str] = []
    report = json.loads(json_path.read_text(encoding="utf-8"))
    if report.get("population_size") != population or report.get("repetitions") != reps:
        problems.append("population size or repetitions differ from the request")
    if report.get("seed") != seed:
        problems.append(f"seed {report.get('seed')!r} != {seed}")
    curves = report.get("curves", [])
    names = [c.get("measure") for c in curves]
    if names != MEASURES:
        return problems + [f"measures {names} != {MEASURES}"]
    csv_rows = csv_path.read_text(encoding="utf-8").splitlines()[1:]
    csv_means = {}
    for line in csv_rows:
        measure, k, mean, _ = line.split(",")
        csv_means[(measure, int(k))] = float(mean)
    d = _population_distances(population, dim, seed)
    for m_idx, curve in enumerate(curves):
        measure = curve["measure"]
        if curve.get("sizes") != sizes or len(curve.get("means", [])) != len(sizes):
            problems.append(f"{measure}: sizes differ from the request")
            continue
        for k, mean in zip(sizes, curve["means"]):
            if csv_means.get((measure, k)) != mean:
                problems.append(f"{measure} k={k}: CSV mean differs from JSON")
        for k in spot_sizes:
            total = 0.0
            for trial in range(reps):
                seq = np.random.SeedSequence(entropy=seed, spawn_key=(m_idx, k, trial))
                subset = np.random.default_rng(seq).choice(population, size=k, replace=False)
                total += _score(measure, [int(i) for i in subset], d)
            want = total / reps
            got = curve["means"][sizes.index(k)]
            if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"{measure} k={k}: mean {got!r} != re-drawn {want!r}")
    if expected_sha is not None:
        sha = sha256_file(json_path)
        if sha != expected_sha:
            problems.append(f"linearity JSON sha256 {sha} != recorded {expected_sha}")
    return problems
