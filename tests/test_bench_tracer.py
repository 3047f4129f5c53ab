"""The benchmark's tracer must still find every binding it patches."""

from pathlib import Path

from stylemix import cli, solver
from stylemix.experiments import demo_instance
from stylemix.solver import HeuristicConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_records_and_uninstalls(monkeypatch, line_instance):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    originals = (cli.solve_exact, solver.quantity_feasible, solver.feasible_circulation)
    tracer = Tracer()
    tracer.install_stylemix()
    try:
        solver.solve_heuristic(line_instance, HeuristicConfig(restarts=1))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary.calls("solver.solve_heuristic") == 1
    assert summary.calls("solver.quantity_feasible") >= 1
    assert summary.calls("flow.feasible_circulation") >= 1
    assert (cli.solve_exact, solver.quantity_feasible, solver.feasible_circulation) == originals


def test_tracer_counts_every_flow_call(monkeypatch):
    # solve_exact flow-checks each complete pattern once, and each check
    # goes through the module global that the tracer patches.
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install_stylemix()
    try:
        report = solver.solve_exact(demo_instance())
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert report.iterations == 24
    assert summary.calls("solver.quantity_feasible") == report.iterations
    assert summary.calls("flow.feasible_circulation") == report.iterations
