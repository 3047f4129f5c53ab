#!/usr/bin/env python3
"""Self-test of the benchmark's output checks, from the repo root:

    python3 bench/selftest.py

Runs the CLI on small inputs (the demo instance, the 20x10 recipe and a
short linearity sweep), confirms that every check accepts the real
output, then corrupts each output and confirms that the check rejects
it: a shipment below its minimum, an objective off by 1e-6, one flipped
byte in the LP text, a changed linearity mean and a nonzero exit code.
Exits 1 if any check accepts a corrupted output or rejects a good one.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from checks import check_exit, check_linearity, check_lp, check_plan, lp_stats, read_instance
from run import WORK, import_cli
from workloads import recipe_instance, write_instance

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())


class SelfTest:
    def __init__(self, work: Path, cli):
        self.work = work
        self.cli = cli
        self.failures = 0

    def expect(self, label: str, problems: list[str], *, rejected: bool) -> None:
        ok = bool(problems) == rejected
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}" + (f" ({problems[0]})" if problems else ""))
        self.failures += not ok

    def run_cli(self, argv: list[str]) -> int:
        return self.cli.main([str(a) for a in argv])

    def plan_cases(self, label: str, instance_path: Path, mode: str, reference: dict | None) -> None:
        report_path = self.work / f"{label}-plan.json"
        code = self.run_cli(["solve", "--instance", instance_path, "--mode", mode, "--output", report_path])
        instance = read_instance(instance_path)
        report = json.loads(report_path.read_text())

        def check(rep: dict) -> list[str]:
            problems = check_plan(instance, rep)
            if reference is not None and (
                rep["status"] != reference["status"]
                or abs(rep["objective"] - reference["objective"]) > 1e-9
            ):
                problems.append("differs from the reference status or objective")
            return problems

        self.expect(f"{label}: exit code", check_exit(code), rejected=False)
        self.expect(f"{label}: plan as written", check(report), rejected=False)

        below = json.loads(json.dumps(report))
        i, t = next(
            (i, t) for i, row in enumerate(below["x"]) for t, v in enumerate(row) if v >= 1
        )
        below["x"][i][t] = int(instance["articles"][i]["min_qty"]) - 1
        self.expect(f"{label}: x[{i}][{t}] moved below min_qty", check(below), rejected=True)

        shifted = json.loads(json.dumps(report))
        shifted["objective"] += 1e-6
        self.expect(f"{label}: objective off by 1e-6", check(shifted), rejected=True)

    def lp_cases(self, instance_path: Path) -> None:
        model = self.work / "model.lp"
        code = self.run_cli(["export-lp", "--instance", instance_path, "--output", model])
        self.expect("lp 20x10: exit code", check_exit(code), rejected=False)
        _, sha = lp_stats(model)
        self.expect("lp 20x10: rows match the closed form", check_lp(model, 20, 10, sha), rejected=False)
        data = bytearray(model.read_bytes())
        data[len(data) // 2] ^= 0x01
        model.write_bytes(bytes(data))
        self.expect("lp 20x10: one byte flipped", check_lp(model, 20, 10, sha), rejected=True)

    def linearity_cases(self) -> None:
        base = self.work / "curves"
        params = {"seed": 3, "population": 35, "dim": 16, "sizes": [2, 3, 4, 5], "reps": 50}
        code = self.run_cli([
            "experiment", "--kind", "linearity", "--seed", params["seed"],
            "--sizes", "2..5", "--reps", params["reps"], "--output", base,
        ])
        json_path, csv_path = base.with_suffix(".json"), base.with_suffix(".csv")

        def check() -> list[str]:
            return check_linearity(json_path, csv_path, spot_sizes=(2, 5), expected_sha=None, **params)

        self.expect("linearity: exit code", check_exit(code), rejected=False)
        self.expect("linearity: report as written", check(), rejected=False)
        # Change one mean in both files, so that only the re-drawn sample catches it.
        report = json.loads(json_path.read_text())
        curve = report["curves"][0]
        old = curve["means"][-1]
        curve["means"][-1] = new = old * (1 + 1e-6)
        json_path.write_text(json.dumps(report, indent=2) + "\n")
        prefix = f"{curve['measure']},{curve['sizes'][-1]},"
        csv_path.write_text("".join(
            line.replace(repr(old), repr(new)) if line.startswith(prefix) else line
            for line in csv_path.read_text().splitlines(keepends=True)
        ))
        self.expect("linearity: one mean changed by 1e-6", check(), rejected=True)

    def exit_code_cases(self) -> None:
        code = self.run_cli(["solve", "--instance", self.work / "missing.json", "--output", self.work / "x.json"])
        self.expect(f"missing instance: exit code {code}", check_exit(code), rejected=True)


def main() -> int:
    work = WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cli = import_cli()
    from stylemix.experiments import demo_instance

    test = SelfTest(work, cli)
    try:
        demo = work / "demo.json"
        write_instance(demo_instance(), demo)
        test.plan_cases("exact demo", demo, "exact", REFERENCE["exact_demo"])
        recipe = work / "recipe-20x10.json"
        write_instance(recipe_instance(20, 10, 0), recipe)
        test.plan_cases("heuristic 20x10", recipe, "heuristic", None)
        test.lp_cases(recipe)
        test.linearity_cases()
        test.exit_code_cases()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{test.failures} self-test failure(s)")
    return 1 if test.failures else 0


if __name__ == "__main__":
    sys.exit(main())
