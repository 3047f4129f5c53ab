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
    # The bounds table reads each store's three band methods once.
    assert summary.calls("core.band") == 3 * line_instance.n_stores
    assert (cli.solve_exact, solver.quantity_feasible, solver.feasible_circulation) == originals


def test_tracer_counts_every_flow_call(monkeypatch):
    # solve_exact checks each of the demo's 24 complete patterns; the even
    # split proves them all feasible, so the one flow call finds the
    # winner's quantities. Every flow call goes through the module
    # globals that the tracer patches. The bounds table reads each of
    # the 6 stores' three band methods once.
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
    assert summary.calls("solver.quantity_feasible") == 1
    assert summary.calls("flow.feasible_circulation") == 1
    assert summary.calls("core.band") == 18
