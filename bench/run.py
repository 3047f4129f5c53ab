#!/usr/bin/env python3
"""Benchmark for the stylemix CLI: one workload per run, from the repo root.

    python3 bench/run.py --workload exact-demo --seed 0 --seconds 30 --trace 0

A run sets up the workload's inputs, makes one untimed warm-up call (the
same command on a small input) and then calls ``stylemix.cli.main(argv)``
in a closed loop: one caller in one process, each call starting after the
previous one returned. It makes whole passes over the workload's fixed
list of calls until the timed calls add up to ``--seconds``. Every
output is checked by ``checks.py``, which shares no code with stylemix.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` makes a fixed
untraced pass and then the same pass with ``tracer.Tracer`` installed,
and prints the per-layer metrics derived from its spans. Metric names
and units are those declared in ``BENCHMARK.json``.

The last line of stdout is the result object; the line before it holds
the details (samples, tail percentile, versions, source line counts).
The run exits 2 without a result when ``src/stylemix`` is missing.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is imported here or in a child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Set-up runs in this many fresh interpreters; setup_s is their median.
SETUP_REPEATS = 7
# wall_s_tail is this percentile of the call times (nearest rank).
TAIL_PERCENTILE = 90
# Modules whose line counts are reported one by one; the total covers all.
SRC_MODULES = (
    "__init__", "__main__", "cli", "core", "errors", "experiments",
    "flow", "lp", "solver", "variety",
)


class SetupError(RuntimeError):
    """The program under test could not be found, imported or prepared."""


def import_cli():
    """Import stylemix.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "stylemix" / "__init__.py").is_file():
        raise SetupError(f"no stylemix package under {SRC}")
    sys.path.insert(0, str(SRC))
    from stylemix import cli

    if Path(cli.__file__).resolve().parent != (SRC / "stylemix").resolve():
        raise SetupError(f"stylemix imported from {cli.__file__}, not {SRC}")
    return cli


def prepare(name: str, seed: int) -> float:
    """Import stylemix and write the workload's inputs; return the seconds taken."""
    start = time.perf_counter()
    import_cli()
    WORKLOADS[name].prepare(work_dir(name, seed), seed)
    return time.perf_counter() - start


def work_dir(name: str, seed: int) -> Path:
    return WORK / f"{name}-seed{seed}"


def timed_setup(name: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--prepare",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if child.returncode != 0:
            raise SetupError(f"set-up failed:\n{child.stderr.strip()}")
        samples.append(json.loads(child.stdout.splitlines()[-1])["setup_s"])
    return samples


class Runner:
    """Makes CLI calls, times them and tallies failed output checks."""

    def __init__(self, main):
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._sink = open(os.devnull, "w")

    def close(self) -> None:
        self._sink.close()

    def call(self, call, main=None) -> float:
        for path in call.outputs:
            path.unlink(missing_ok=True)
        main = main or self.main
        gc.collect()
        with contextlib.redirect_stdout(self._sink):
            start = time.perf_counter()
            try:
                code = main(call.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crashing call is a failed call
                code = f"raised {exc!r}"
            elapsed = time.perf_counter() - start
        self.attempted += 1
        try:
            problems = call.check(code)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.failed += 1
            self.problems.append(f"{' '.join(call.argv)}: {'; '.join(problems[:5])}")
        return elapsed

    def loop(self, calls, seconds: float) -> list[float]:
        """Make whole passes over calls until the timed calls add up to seconds."""
        times: list[float] = []
        while not times or sum(times) < seconds:
            times.extend(self.call(call) for call in calls)
        return times


def tail(times: list[float]) -> tuple[float, int]:
    """(value, samples beyond it) of the TAIL_PERCENTILE-th percentile."""
    ordered = sorted(times)
    index = max(0, math.ceil(TAIL_PERCENTILE / 100 * len(ordered)) - 1)
    return ordered[index], len(ordered) - 1 - index


def src_lines() -> dict[str, int]:
    package = SRC / "stylemix"
    counts = {}
    for module in SRC_MODULES:
        path = package / f"{module}.py"
        counts[f"src_lines.{module}"] = path.read_bytes().count(b"\n") if path.exists() else 0
    counts["src_lines.total"] = sum(p.read_bytes().count(b"\n") for p in package.rglob("*.py"))
    return counts


def end_to_end(runner: Runner, calls, seconds: float, setup: list[float], details: dict) -> dict:
    times = runner.loop(calls, seconds)
    tail_value, beyond = tail(times)
    details.update(
        samples=len(times),
        wall_s_tail={"percentile": TAIL_PERCENTILE, "samples_beyond": beyond},
        call_s=times,
    )
    return {
        "wall_s": statistics.median(times),
        "wall_s_tail": tail_value,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runner: Runner, cli, calls, name: str, seed: int, details: dict) -> dict:
    untraced = sum(runner.call(call) for call in calls)
    tracer = Tracer()
    tracer.install_stylemix()
    traced_main = tracer.span("cli.main", cli.main)
    traced = 0.0
    output_bytes = iterations = 0
    objectives = []
    try:
        for call in calls:
            failed_before = runner.failed
            traced += runner.call(call, traced_main)
            if runner.failed > failed_before:
                continue
            output_bytes += sum(p.stat().st_size for p in call.outputs)
            if call.report is not None:
                report = json.loads(call.report.read_text(encoding="utf-8"))
                iterations += report["iterations"]
                objectives.append(report["objective"])
    finally:
        tracer.uninstall()
    tracer.write(WORK / "spans" / f"{name}-seed{seed}.jsonl")
    s = tracer.summary()
    details.update(samples=len(calls), untraced_s=untraced, traced_s=traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    flow_calls = s.calls("flow.feasible_circulation")
    qf_calls = s.calls("solver.quantity_feasible")
    variety_calls = s.calls("variety.variety")
    heuristic_checks = s.spans_under("solver.quantity_feasible", "solver.solve_heuristic")
    return {
        "cli.self_s": s.self_seconds("cli.main"),
        "cli.output_bytes": output_bytes,
        "core.read_instance.s": s.seconds("core.read_instance_file"),
        "core.ensure_valid.calls": s.calls("core.ensure_valid"),
        "core.ensure_valid.s": s.seconds("core.ensure_valid"),
        "core.distance_matrix.s": s.seconds("core.distance_matrix"),
        "core.band_calls": s.calls("core.band"),
        "core.band.s": s.seconds("core.band"),
        "variety.calls": variety_calls,
        "variety.s": s.seconds("variety.variety"),
        "variety.us_per_call": 1e6 * ratio(s.seconds("variety.variety"), variety_calls),
        "flow.calls": flow_calls,
        "flow.s": s.seconds("flow.feasible_circulation"),
        "flow.feasible_share": ratio(sum(s.values("flow.feasible_circulation")), flow_calls),
        "solver.qf.calls": qf_calls,
        "solver.qf.self_s": s.self_seconds("solver.quantity_feasible"),
        "solver.qf.feasible_share": ratio(sum(s.values("solver.quantity_feasible")), qf_calls),
        "solver.exact.self_s": s.self_seconds("solver.solve_exact"),
        "solver.exact.seed_s": s.span_seconds("solver.solve_heuristic", "solver.solve_exact"),
        "solver.heuristic.self_s": s.self_seconds("solver.solve_heuristic"),
        "solver.accepted_per_check": ratio(sum(s.values("solver.solve_heuristic")), heuristic_checks),
        "solver.iterations": iterations,
        "solver.objective": statistics.fmean(objectives) if objectives else 0.0,
        "lp.build_milp.s": s.seconds("lp.build_milp"),
        "lp.render.self_s": s.self_seconds("lp.export_lp"),
        "lp.rows": sum(s.values("lp.build_milp")),
        "lp.bytes": sum(s.values("lp.export_lp")),
        "experiments.linearity.self_s": s.self_seconds("experiments.run_linearity"),
        "trace.overhead_s": traced - untraced,
        **src_lines(),
    }


def declared_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "default_seed": DEFAULT_SEED,
        **src_lines(),
    }


def run(args) -> dict:
    name, seed = args.workload, args.seed
    cli = import_cli()
    work = work_dir(name, seed)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup = timed_setup(name, seed)
    reference = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[name]
    warmup, calls = workload.calls(work, seed, reference)
    runner = Runner(cli.main)
    details = {"workload": name, "seed": seed, "trace": args.trace, "setup_samples_s": setup}
    try:
        runner.call(warmup)  # checked, not timed
        if args.trace:
            section = "per_layer"
            values = per_layer(runner, cli, calls[: workload.trace_calls], name, seed, details)
        else:
            section = "end_to_end"
            values = end_to_end(runner, calls, args.seconds, setup, details)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
    units = declared_units(section)
    if set(values) != set(units):
        raise SetupError(
            f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json"
        )
    details.update(provenance(), failures=runner.problems[:20])
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }
    out = WORK / "results" / f"{name}-seed{seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"details": details, "result": result}, indent=1) + "\n")
    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {"details": details, "result": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.prepare:
            print(json.dumps({"setup_s": prepare(args.workload, args.seed)}))
            return 0
        outcome = run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"details": outcome["details"]}))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
