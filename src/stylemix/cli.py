"""Command-line front end.

Subcommands:
    distances    compute a pairwise distance matrix from a catalog
    solve        allocate articles to stores (exact, heuristic, or auto)
    export-lp    emit the MILP in LP text format
    experiment   linearity sweep, counterexample checks, baseline gap

Exit codes: 0 success, 1 counterexample verdict deviation, 2 parse or
validation failure, 3 infeasible instance, 4 budget exhausted with no
feasible plan.

Primary output files are byte-deterministic for fixed inputs, flags,
and seed; wall-clock timing is printed to stdout but written as null
inside report files so repeated runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .core import (
    Metric,
    distance_matrix,
    read_catalog_file,
    read_instance_file,
    ensure_valid,
)
from .errors import (
    BudgetExceededError,
    InfeasibleError,
    InfeasiblePlanError,
    MalformedInputError,
    StylemixError,
    VerificationError,
)
from .experiments import (
    LinearityConfig,
    compare_against_baseline,
    demo_instance,
    run_linearity,
    synthetic_population,
    verify_counterexamples,
)
from .lp import export_lp
from .solver import (
    HeuristicConfig,
    SolveLimits,
    SolveReport,
    SolveStatus,
    auto_mode,
    solve_exact,
    solve_heuristic,
)

__all__ = ["main", "build_parser"]

SEED_ENV_VAR = "STYLEMIX_SEED"

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared: parse with it, do not change it."""
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output", type=Path, default=None, help="output file (default: stdout)"
    )
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    measured = argparse.ArgumentParser(add_help=False)
    measured.add_argument(
        "--metric",
        choices=tuple(m.value for m in Metric),
        default=Metric.SQUARED_EUCLIDEAN.value,
    )

    parser = argparse.ArgumentParser(
        prog="stylemix",
        description="Variety-maximizing allocation of product styles to stores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "distances", parents=[common, formatted, measured], help="pairwise distances from a catalog"
    )
    p.add_argument("--catalog", type=Path, required=True, help="catalog file")
    p.add_argument(
        "--catalog-format",
        choices=("csv", "json"),
        default=None,
        help="catalog format (default: by file suffix)",
    )
    p.add_argument(
        "--normalize",
        action="store_true",
        help="scale vectors to unit L2 norm before measuring distances",
    )

    p = sub.add_parser("solve", parents=[seeded, common], help="compute an allocation plan")
    p.add_argument("--instance", type=Path, required=True, help="instance JSON file")
    p.add_argument("--mode", choices=("exact", "heuristic", "auto"), default="auto")
    p.add_argument(
        "--max-iters", type=int, default=HeuristicConfig.max_iters, help="heuristic move cap"
    )
    p.add_argument(
        "--time-budget", type=float, default=SolveLimits.time_budget, help="exact solver seconds cap"
    )
    p.add_argument(
        "--max-patterns",
        type=int,
        default=SolveLimits.max_patterns,
        help="exact solver cap on flow-checked patterns",
    )
    p.add_argument(
        "--restarts", type=int, default=HeuristicConfig.restarts, help="heuristic restarts"
    )

    p = sub.add_parser(
        "export-lp", parents=[common], help="emit the MILP in LP text format"
    )
    p.add_argument("--instance", type=Path, required=True, help="instance JSON file")

    p = sub.add_parser(
        "experiment", parents=[seeded, common, formatted, measured], help="run a validation study"
    )
    p.add_argument(
        "--kind", choices=("linearity", "counterexamples", "baseline"), required=True
    )
    p.add_argument(
        "--population", type=Path, default=None, help="catalog for linearity sampling"
    )
    p.add_argument(
        "--population-size",
        type=int,
        default=35,
        help="synthetic population size when no --population is given",
    )
    p.add_argument("--dim", type=int, default=16, help="synthetic population dimension")
    p.add_argument(
        "--sizes", default="2..20", help="subset sizes, e.g. 2..20 or 3,5,9"
    )
    p.add_argument(
        "--reps", type=int, default=LinearityConfig.repetitions, help="repetitions per size"
    )
    p.add_argument(
        "--instance",
        type=Path,
        default=None,
        help="instance for --kind baseline (default: built-in demo)",
    )
    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise MalformedInputError(
                f"{SEED_ENV_VAR} must be an integer, got {env!r}"
            ) from exc
    return 0


@contextlib.contextmanager
def _opened(output: Path | None) -> Iterator[TextIO]:
    """The text stream an output goes to: stdout, or the file, created afresh."""
    if output is None:
        yield sys.stdout
        return
    output.parent.mkdir(parents=True, exist_ok=True)
    with output.open("w", encoding="utf-8", newline="\n") as stream:
        yield stream


def _emit(text: str, output: Path | None) -> None:
    with _opened(output) as stream:
        stream.write(text)


def _parse_sizes(spec: str, population: int) -> tuple[int, ...]:
    spec = spec.strip()
    if ".." in spec:
        lo_text, hi_text = spec.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise MalformedInputError(f"empty size range {spec!r}")
        # Checked before the range is listed, which may not fit in memory.
        if hi > population:
            raise MalformedInputError(
                f"population has {population} styles but a subset of {hi} was requested"
            )
        return tuple(range(lo, hi + 1))
    return tuple(int(part) for part in spec.split(","))


def cmd_distances(args) -> int:
    catalog = read_catalog_file(args.catalog, args.catalog_format)
    d = distance_matrix(
        catalog, Metric.from_name(args.metric), normalize=args.normalize
    )
    text = d.to_csv() if args.format == "csv" else d.to_json()
    _emit(text, args.output)
    if args.output is not None:
        summary = f"n={d.n}"
        if d.n >= 2:
            mask = ~np.eye(d.n, dtype=bool)
            off = d.entries[mask]
            summary += (
                f" min={off.min():.6g} mean={off.mean():.6g} max={off.max():.6g}"
            )
        print(summary)
        print(f"wrote {args.output}")
    return EXIT_OK


def _solve_summary(report: SolveReport) -> str:
    return (
        f"status={report.status.value} objective={report.objective} "
        f"iterations={report.iterations} wall_time_s={report.wall_time:.3f}"
    )


def cmd_solve(args) -> int:
    instance = read_instance_file(args.instance)
    seed = _resolve_seed(args)
    limits = SolveLimits(max_patterns=args.max_patterns, time_budget=args.time_budget)
    config = HeuristicConfig(seed=seed, max_iters=args.max_iters, restarts=args.restarts)
    mode = auto_mode(instance) if args.mode == "auto" else args.mode
    infeasible = None
    try:
        if mode == "exact":
            report = solve_exact(instance, limits)
        else:
            report = solve_heuristic(instance, config)
    except InfeasibleError as exc:
        infeasible = exc
        report = SolveReport(None, SolveStatus.INFEASIBLE, 0, 0.0)
    _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.output)
    if infeasible is not None:
        raise infeasible
    if args.output is not None:
        print(_solve_summary(report))
    return EXIT_OK


def cmd_export_lp(args) -> int:
    # Validate before the output is opened, so a bad instance leaves it untouched.
    instance = ensure_valid(read_instance_file(args.instance))
    with _opened(args.output) as stream:
        export_lp(instance, stream)
    if args.output is not None:
        print(f"wrote {args.output}")
    return EXIT_OK


def _experiment_linearity(args, seed: int) -> int:
    if args.population is not None:
        population = read_catalog_file(args.population)
    else:
        population = synthetic_population(args.population_size, args.dim, seed)
    sizes = _parse_sizes(args.sizes, population.n)
    config = LinearityConfig(
        population=distance_matrix(population, Metric.from_name(args.metric)),
        subset_sizes=sizes,
        repetitions=args.reps,
        seed=seed,
    )
    report = run_linearity(config)
    if args.output is None:
        sys.stdout.write(report.to_csv() if args.format == "csv" else report.to_json())
    else:
        csv_path = args.output.with_suffix(".csv")
        json_path = args.output.with_suffix(".json")
        _emit(report.to_csv(), csv_path)
        _emit(report.to_json(), json_path)
        print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def _experiment_counterexamples(args) -> int:
    try:
        report = verify_counterexamples()
    except VerificationError as exc:
        print(f"verdict deviation: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    _emit(report.to_json(), args.output)
    if args.output is not None:
        for check in report.checks:
            verdict = "held" if check.held else "violated"
            print(
                f"{check.measure.value} on {check.geometry}: {verdict} "
                f"({check.before:.6f} -> {check.after:.6f})"
            )
    return EXIT_OK


def _experiment_baseline(args, seed: int) -> int:
    if args.instance is not None:
        instance = read_instance_file(args.instance)
    else:
        instance = demo_instance()
    comparison = compare_against_baseline(instance, seed)
    _emit(comparison.to_json(), args.output)
    if args.output is not None:
        print(
            f"baseline={comparison.baseline_objective:.4f} "
            f"optimized={comparison.optimized_objective:.4f} "
            f"improvement={comparison.improvement_pct:.2f}% "
            f"({comparison.optimizer})"
        )
    return EXIT_OK


# The options each experiment reads besides --kind. A --population file
# replaces the synthetic population, whose size and dimension go unread.
_EXPERIMENT_READS = {
    "linearity": {"output", "seed", "format", "population_size", "dim", "sizes", "reps", "metric"},
    "linearity with --population": {"output", "seed", "format", "population", "sizes", "reps", "metric"},
    "counterexamples": {"output"},
    "baseline": {"output", "seed", "instance"},
}


def cmd_experiment(args) -> int:
    kind = args.kind
    if kind == "linearity" and args.population is not None:
        kind += " with --population"
    # Only a value away from the parser default counts as given.
    defaults = vars(build_parser().parse_args(["experiment", "--kind", args.kind]))
    unread = [d for d, v in vars(args).items() if v != defaults[d] and d not in _EXPERIMENT_READS[kind]]
    if unread:
        flags = ", ".join("--" + d.replace("_", "-") for d in unread)
        raise ValueError(f"--kind {kind} does not read {flags}")
    seed = _resolve_seed(args)
    if args.kind == "linearity":
        return _experiment_linearity(args, seed)
    if args.kind == "counterexamples":
        return _experiment_counterexamples(args)
    return _experiment_baseline(args, seed)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "distances": cmd_distances,
        "solve": cmd_solve,
        "export-lp": cmd_export_lp,
        "experiment": cmd_experiment,
    }
    try:
        return handlers[args.command](args)
    except (InfeasibleError, InfeasiblePlanError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        if getattr(exc, "certificate", None) is not None:
            print(f"certificate: {exc.certificate}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (StylemixError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
