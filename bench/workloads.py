"""Seeded workload inputs and the CLI calls each workload makes.

``prepare`` runs in a fresh interpreter during set-up: it imports
stylemix and writes the workload's input files. ``calls`` runs after
the timed set-up and builds the ``cli.main`` invocations, each with the
check its output must pass: one warm-up call and the timed pass. The
warm-up runs the same command on a small input, which ``calls`` writes
itself, so that lazy set-up finishes without paying for a second
full-size call and without counting in the set-up time. Nothing here
imports numpy or stylemix at module level, so the set-up timer covers
those imports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import check_exit, check_linearity, check_lp, check_plan, read_instance

DEFAULT_SEED = 0

# The ROADMAP "n x s" recipe.
RECIPE_DIM = 16
RECIPE_PLANNED_TOTAL = 40
RECIPE_MIN_QTY = 4
RECIPE_QTY_RANGE = (12, 40)
RECIPE_ALPHA = "0.2"

# Instances in the heuristic workload's pass. Every run times whole
# passes over the same instances, so a faster program repeats all of them
# equally, whatever its speed.
HEURISTIC_INSTANCES = 48
# Solves in the traced pass of the heuristic workload; fixed so that the
# traced counts repeat exactly for a given seed.
HEURISTIC_TRACE_CALLS = 20

LINEARITY = {"population": 35, "dim": 16, "sizes": list(range(2, 21)), "reps": 1000}
LINEARITY_SPOT_SIZES = (2, 20)
WARMUP_LINEARITY_REPS = 50


def recipe_instance(n: int, s: int, seed: int):
    """The ROADMAP recipe: n styles, s stores, everything drawn from seed."""
    import numpy as np

    from stylemix.core import Article, DistributionInstance, Metric, Store, distance_matrix
    from stylemix.experiments import synthetic_population

    catalog = synthetic_population(n, RECIPE_DIM, seed)
    quantities = np.random.default_rng(seed).integers(*RECIPE_QTY_RANGE, s)
    return DistributionInstance(
        articles=tuple(
            Article(catalog.ids[i], RECIPE_PLANNED_TOTAL, RECIPE_MIN_QTY) for i in range(n)
        ),
        stores=tuple(Store(f"s{t}", int(q)) for t, q in enumerate(quantities)),
        alpha=RECIPE_ALPHA,
        distances=distance_matrix(catalog, Metric.SQUARED_EUCLIDEAN),
    )


def write_instance(instance, path: Path) -> None:
    from stylemix.core import instance_to_json

    path.write_text(instance_to_json(instance), encoding="utf-8")


@dataclass
class Call:
    """One cli.main invocation, its output files and their check."""

    argv: list[str]
    outputs: list[Path]
    check: Callable[[int], list[str]]
    report: Path | None = None


@dataclass
class Workload:
    name: str
    prepare: Callable[[Path, int], None]
    # (work dir, seed, reference values) -> (warm-up call, timed pass)
    calls: Callable[[Path, int, dict], tuple[Call, list[Call]]]
    trace_calls: int = 1


def _solve_call(instance: Path, report: Path, mode: str, seed: int, expect: dict) -> Call:
    """A solve call whose report must pass the plan check and match expect."""

    def check(code: int) -> list[str]:
        problems = check_exit(code)
        if problems:
            return problems
        result = json.loads(report.read_text(encoding="utf-8"))
        problems = check_plan(read_instance(instance), result)
        if result.get("status") != expect["status"]:
            problems.append(f"status {result.get('status')!r} != {expect['status']!r}")
        if "objective" in expect:
            objective = result.get("objective")
            if not isinstance(objective, float) or abs(objective - expect["objective"]) > 1e-9:
                problems.append(f"objective {objective!r} != reference {expect['objective']!r}")
        return problems

    argv = [
        "solve", "--instance", str(instance), "--mode", mode,
        "--seed", str(seed), "--output", str(report),
    ]
    return Call(argv, [report], check, report)


# -- exact-demo ---------------------------------------------------------


def _prepare_exact(work: Path, seed: int) -> None:
    from stylemix.experiments import demo_instance

    write_instance(demo_instance(), work / "demo.json")


def _calls_exact(work: Path, seed: int, reference: dict) -> tuple[Call, list[Call]]:
    write_instance(recipe_instance(8, 3, seed), work / "warm.json")
    warm = _solve_call(work / "warm.json", work / "warm-plan.json", "exact", seed, {"status": "optimal"})
    demo = _solve_call(work / "demo.json", work / "demo-plan.json", "exact", seed, reference["exact_demo"])
    return warm, [demo]


# -- heuristic-20x10 ----------------------------------------------------


def _prepare_heuristic(work: Path, seed: int) -> None:
    for k in range(HEURISTIC_INSTANCES):
        instance_seed = seed * HEURISTIC_INSTANCES + k
        write_instance(recipe_instance(20, 10, instance_seed), work / f"h{k:03d}.json")


def _calls_heuristic(work: Path, seed: int, reference: dict) -> tuple[Call, list[Call]]:
    calls = [
        _solve_call(
            work / f"h{k:03d}.json", work / f"h{k:03d}-plan.json", "heuristic", seed,
            {"status": "feasible_heuristic"},
        )
        for k in range(HEURISTIC_INSTANCES)
    ]
    return calls[0], calls


# -- export-lp-80x40 ----------------------------------------------------


def _prepare_lp(work: Path, seed: int) -> None:
    write_instance(recipe_instance(80, 40, seed), work / "lp-instance.json")


def _lp_call(instance: Path, model: Path, n: int, s: int, expected_sha: str | None) -> Call:
    def check(code: int) -> list[str]:
        return check_exit(code) or check_lp(model, n, s, expected_sha)

    return Call(["export-lp", "--instance", str(instance), "--output", str(model)], [model], check)


def _calls_lp(work: Path, seed: int, reference: dict) -> tuple[Call, list[Call]]:
    expected = reference["export_lp_80x40_sha256"] if seed == DEFAULT_SEED else None
    write_instance(recipe_instance(20, 10, seed), work / "warm.json")
    warm = _lp_call(work / "warm.json", work / "warm.lp", 20, 10, None)
    return warm, [_lp_call(work / "lp-instance.json", work / "model.lp", 80, 40, expected)]


# -- linearity-default --------------------------------------------------


def _prepare_linearity(work: Path, seed: int) -> None:
    """Nothing to write: the CLI draws the population from the seed itself."""


def _linearity_call(base: Path, seed: int, reps: int, expected_sha: str | None) -> Call:
    json_path, csv_path = base.with_suffix(".json"), base.with_suffix(".csv")
    params = {**LINEARITY, "reps": reps}

    def check(code: int) -> list[str]:
        return check_exit(code) or check_linearity(
            json_path, csv_path, seed=seed, spot_sizes=LINEARITY_SPOT_SIZES,
            expected_sha=expected_sha, **params,
        )

    argv = ["experiment", "--kind", "linearity", "--seed", str(seed), "--output", str(base)]
    if reps != LINEARITY["reps"]:
        argv += ["--reps", str(reps)]
    return Call(argv, [json_path, csv_path], check)


def _calls_linearity(work: Path, seed: int, reference: dict) -> tuple[Call, list[Call]]:
    expected = reference["linearity_default_sha256"] if seed == DEFAULT_SEED else None
    warm = _linearity_call(work / "warm-curves", seed, WARMUP_LINEARITY_REPS, None)
    return warm, [_linearity_call(work / "curves", seed, LINEARITY["reps"], expected)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-demo", _prepare_exact, _calls_exact),
        Workload(
            "heuristic-20x10", _prepare_heuristic, _calls_heuristic,
            trace_calls=HEURISTIC_TRACE_CALLS,
        ),
        Workload("export-lp-80x40", _prepare_lp, _calls_lp),
        Workload("linearity-default", _prepare_linearity, _calls_linearity),
    )
}
