"""The benchmark's tracer must still find every binding it patches."""

from pathlib import Path

from stylemix import cli, solver
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
