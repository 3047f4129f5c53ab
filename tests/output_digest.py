"""Digest of the solvers' outputs over a fixed corpus, to compare two checkouts.

Not a test: run it on both sides of a change that must keep outputs
identical, and compare the last line it prints.

    python tests/output_digest.py
    python tests/output_digest.py --runs > runs.txt   # also one line per run

With ``--runs`` it first prints each run's ``label: outcome`` line, the
text that is hashed, so that diffing the files of two checkouts finds
the first run that differs.

Each run contributes its status, the objective as ``float.hex``, a hash
of ``x``, the iteration count, or the error's type, message and
certificate ``repr``. The corpus:

- ``solve_exact`` on the demo, ``random_feasible_instance`` 0-199,
  ``adversarial_instance`` 0-119, and without limits on the 8x12 and
  10x12 ``recipe_instance`` (seed 0), where supply binds and some
  patterns need the flow check;
- ``solve_heuristic`` with seeds 0 and 1 on ``random_feasible_instance``
  0-299, ``adversarial_instance`` 0-299, ``random_micro_case`` 0-399 and
  ``random_feasible_instance`` 5000-5299 with ``n_range=(5, 12)``,
  ``s_range=(2, 6)``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conftest import (  # noqa: E402
    adversarial_instance,
    random_feasible_instance,
    random_micro_case,
    recipe_instance,
)
from stylemix.errors import StylemixError  # noqa: E402
from stylemix.experiments import demo_instance  # noqa: E402
from stylemix.solver import HeuristicConfig, SolveLimits, solve_exact, solve_heuristic  # noqa: E402


def outcome(solve, instance) -> str:
    """One line naming what ``solve(instance)`` returned or raised."""
    try:
        report = solve(instance)
    except StylemixError as exc:
        certificate = getattr(exc, "certificate", None)
        return f"{type(exc).__name__}|{exc}|{certificate!r}"
    x = hashlib.sha256(report.plan.x.tobytes() + repr(report.plan.x.shape).encode()).hexdigest()
    return f"{report.status.value}|{report.objective.hex()}|{x[:16]}|{report.iterations}"


def corpus():
    """(label, solve, instance) for every run, in a fixed order."""
    yield "exact demo", solve_exact, demo_instance()
    for seed in range(200):
        yield f"exact feasible {seed}", solve_exact, random_feasible_instance(seed)[0]
    for seed in range(120):
        yield f"exact adversarial {seed}", solve_exact, adversarial_instance(seed)
    unlimited = SolveLimits(max_patterns=None, time_budget=None)
    for n in (8, 10):
        yield (
            f"exact recipe {n}x12 seed 0",
            lambda inst: solve_exact(inst, unlimited),
            recipe_instance(n, 12, 0),
        )
    families = [
        ("feasible", lambda seed: random_feasible_instance(seed)[0], range(300)),
        ("adversarial", adversarial_instance, range(300)),
        ("micro", lambda seed: random_micro_case(seed)[0], range(400)),
        (
            "feasible-large",
            lambda seed: random_feasible_instance(seed, n_range=(5, 12), s_range=(2, 6))[0],
            range(5000, 5300),
        ),
    ]
    for family, make, seeds in families:
        for seed in seeds:
            instance = make(seed)
            for config_seed in (0, 1):
                config = HeuristicConfig(seed=config_seed)
                yield (
                    f"heuristic {family} {seed} seed {config_seed}",
                    lambda inst, config=config: solve_heuristic(inst, config),
                    instance,
                )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", action="store_true", help="print one line per run before the digest")
    args = parser.parse_args()
    start = time.perf_counter()
    digest = hashlib.sha256()
    kinds: Counter[str] = Counter()
    for label, solve, instance in corpus():
        line = outcome(solve, instance)
        kinds[line.split("|", 1)[0]] += 1
        text = f"{label}: {line}\n"
        digest.update(text.encode())
        if args.runs:
            sys.stdout.write(text)
    runs = sum(kinds.values())
    print(", ".join(f"{kind} {count}" for kind, count in sorted(kinds.items())))
    print(f"{runs} runs in {time.perf_counter() - start:.1f} s")
    print(f"digest {digest.hexdigest()[:16]}")


if __name__ == "__main__":
    main()
