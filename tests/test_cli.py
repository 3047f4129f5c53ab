"""End-to-end checks of the command-line interface.

Most cases call main() in process and assert on exit codes, files, and
captured streams. Byte-determinism and the module entry point go
through real subprocesses because that is the contract users see.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stylemix import cli
from stylemix.cli import build_parser, main
from stylemix.core import (
    Article,
    DistanceMatrix,
    DistributionInstance,
    Store,
    instance_to_json,
)
from stylemix.errors import (
    BudgetExceededError,
    InfeasibleError,
    InfeasiblePlanError,
    MalformedInputError,
    ValidationError,
    VerificationError,
    Violation,
)
from stylemix.experiments import demo_instance
from stylemix.solver import EXACT_SIZE_LIMIT


def _write_instance(path, instance):
    path.write_text(instance_to_json(instance), encoding="utf-8")
    return path


def _line_instance():
    """Four collinear unit-supply articles, two stores of two slots each."""
    d = np.subtract.outer(np.arange(4.0), np.arange(4.0)) ** 2
    return DistributionInstance(
        articles=tuple(Article(f"a{i}", 1, 1) for i in range(4)),
        stores=(Store("s0", 2), Store("s1", 2)),
        alpha=Fraction(0),
        distances=DistanceMatrix(d),
    )


def _line_payload_with(path, value):
    """The line instance's JSON with the field at ``path`` set to ``value``."""
    payload = json.loads(instance_to_json(_line_instance()))
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return payload


def _infeasible_instance():
    """Aggregate lower bands (36 + 36) exceed total supply (40)."""
    return DistributionInstance(
        articles=(Article("a0", 20, 2), Article("a1", 20, 2)),
        stores=(Store("s0", 40), Store("s1", 40)),
        alpha=Fraction(1, 10),
        distances=DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
    )


def _write_invalid_alpha(path):
    """An instance that parses but fails validation: alpha is 1.5."""
    payload = {
        "alpha": 1.5,
        "articles": [{"id": "a0", "planned_total": 4, "min_qty": 1}],
        "stores": [{"id": "s0", "desired_qty": 4}],
        "distances": {"n": 1, "entries": [[0.0]]},
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.fixture
def demo_path(tmp_path):
    return _write_instance(tmp_path / "demo.json", demo_instance())


@pytest.fixture
def line_path(tmp_path):
    return _write_instance(tmp_path / "line.json", _line_instance())


@pytest.fixture
def infeasible_path(tmp_path):
    return _write_instance(tmp_path / "infeasible.json", _infeasible_instance())


@pytest.fixture
def catalog_path(tmp_path):
    rows = ["a0,-0.5,0.0", "a1,0.5,0.0", "a2,9.5,0.0", "a3,10.5,0.0"]
    path = tmp_path / "catalog.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("STYLEMIX_SEED", raising=False)


class TestDistances:
    def test_stdout_json(self, catalog_path, capsys):
        assert main(["distances", "--catalog", str(catalog_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 4
        entries = np.asarray(payload["entries"], dtype=float).reshape(4, 4)
        assert entries[0, 1] == pytest.approx(1.0)
        assert entries[0, 3] == pytest.approx(121.0)

    def test_csv_file_and_summary(self, catalog_path, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = main(
            [
                "distances",
                "--catalog",
                str(catalog_path),
                "--format",
                "csv",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        assert [float(v) for v in lines[0].split(",")][1] == pytest.approx(1.0)
        stdout = capsys.readouterr().out
        assert "n=4" in stdout
        assert f"wrote {out}" in stdout

    def test_euclidean_metric_flag(self, catalog_path, capsys):
        code = main(
            ["distances", "--catalog", str(catalog_path), "--metric", "euclidean"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        entries = np.asarray(payload["entries"], dtype=float).reshape(4, 4)
        assert entries[0, 3] == pytest.approx(11.0)

    def test_ragged_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "ragged.csv"
        bad.write_text("a0,1.0,2.0\na1,3.0\n", encoding="utf-8")
        assert main(["distances", "--catalog", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_overflowing_integer_entry_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "huge.json"
        records = [{"id": "a0", "vector": [10**400, 0]}, {"id": "a1", "vector": [0, 1]}]
        bad.write_text(json.dumps(records), encoding="utf-8")
        assert main(["distances", "--catalog", str(bad)]) == 2
        assert "error: style 'a0' has a non-finite vector entry" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert main(["distances", "--catalog", str(missing)]) == 2
        assert "error:" in capsys.readouterr().err


class TestSolve:
    def test_auto_picks_exact_on_small_instance(self, line_path, capsys):
        assert main(["solve", "--instance", str(line_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "optimal"
        assert payload["objective"] == pytest.approx(5.0)
        assert payload["wall_time_s"] is None

    def test_auto_sends_demo_to_heuristic(self, demo_path, capsys):
        # The 8x6 demo has 48 cells, more than auto mode solves exactly.
        assert 8 * 6 > EXACT_SIZE_LIMIT
        assert main(["solve", "--instance", str(demo_path), "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "feasible_heuristic"

    def test_heuristic_matches_exact_on_line(self, line_path, capsys):
        code = main(
            ["solve", "--instance", str(line_path), "--mode", "heuristic", "--seed", "0"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective"] == pytest.approx(5.0)

    def test_report_file_shape(self, line_path, tmp_path, capsys):
        out = tmp_path / "plan.json"
        code = main(
            ["solve", "--instance", str(line_path), "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert list(payload) == [
            "status",
            "objective",
            "per_store_variety",
            "x",
            "y",
            "iterations",
            "wall_time_s",
        ]
        x = np.asarray(payload["x"], dtype=float)
        y = np.asarray(payload["y"], dtype=int)
        assert x.shape == (4, 2) and y.shape == (4, 2)
        assert np.all((y == 0) | (y == 1))
        assert x.sum() == pytest.approx(4.0)
        assert payload["wall_time_s"] is None
        stdout = capsys.readouterr().out
        assert "status=optimal" in stdout
        assert "wall_time_s=" in stdout

    def test_demo_heuristic_mode(self, demo_path, capsys):
        code = main(
            ["solve", "--instance", str(demo_path), "--mode", "heuristic", "--seed", "0"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "feasible_heuristic"
        assert payload["objective"] > 0
        assert len(payload["per_store_variety"]) == 6

    def test_invalid_alpha_exits_2(self, tmp_path, capsys):
        bad = _write_invalid_alpha(tmp_path / "bad.json")
        assert main(["solve", "--instance", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["solve", "--instance", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        # Written as text: json.dumps of such a list would recurse itself.
        bad = tmp_path / "nested.json"
        bad.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert main(["solve", "--instance", str(bad)]) == 2
        assert "error: invalid JSON: maximum recursion depth" in capsys.readouterr().err

    def test_infeasible_exits_3_with_certificate(self, infeasible_path, capsys):
        assert main(["solve", "--instance", str(infeasible_path)]) == 3
        captured = capsys.readouterr()
        assert "infeasible:" in captured.err
        assert (
            "certificate: stores ['s0', 's1'] demand at least 72 units, but at most 40 "
            "can reach them (supply articles ['a0', 'a1'])\n"
        ) in captured.err
        assert captured.out == (
            "{\n"
            '  "status": "infeasible",\n'
            '  "objective": null,\n'
            '  "per_store_variety": [],\n'
            '  "x": [],\n'
            '  "y": [],\n'
            '  "iterations": 0,\n'
            '  "wall_time_s": null\n'
            "}\n"
        )

    def test_budget_zero_exits_4(self, infeasible_path, capsys):
        code = main(
            [
                "solve",
                "--instance",
                str(infeasible_path),
                "--mode",
                "exact",
                "--max-patterns",
                "0",
            ]
        )
        assert code == 4
        assert "budget exceeded:" in capsys.readouterr().err

    def test_exact_search_beyond_the_recursion_limit_exits_4(self, tmp_path, capsys):
        stores = 1500
        instance = DistributionInstance(
            articles=(Article("a0", stores, 1), Article("a1", stores, 1)),
            stores=tuple(Store(f"s{t}", 2) for t in range(stores)),
            alpha=Fraction(0),
            distances=DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
        )
        path = _write_instance(tmp_path / "wide.json", instance)
        assert main(["solve", "--instance", str(path), "--mode", "exact"]) == 4
        err = capsys.readouterr().err
        assert "budget exceeded:" in err and "1500 stores" in err and "--mode heuristic" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--time-budget", "nan"),
            ("--time-budget", "-1"),
            ("--max-patterns", "-1"),
            ("--max-iters", "-1"),
            ("--restarts", "0"),
        ],
    )
    def test_bad_budget_exits_2(self, line_path, capsys, flag, value, mode):
        # A NaN deadline never passes, so it would not bound the run.
        code = main(["solve", "--instance", str(line_path), "--mode", mode, flag, value])
        assert code == 2
        assert flag.lstrip("-").replace("-", "_") in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("distances", "entries", 1), {}, "distances.entries"),
            (("distances", "entries", 1), None, "distances.entries"),
            (("big_m_policy",), 7, "big_m_policy"),
            (("articles", 0, "planned_total"), 10**20, "planned_total"),
            (("stores", 0, "desired_qty"), 10**20, "desired_qty"),
            *(
                ((records, 1, "id"), value, f"{record}: id must be a non-empty string")
                for records, record in (("articles", "article 1"), ("stores", "store 1"))
                for value in ({"a": 1}, [1], None, 7, "")
            ),
            # The line instance's d[0, 1] is 1, so reading True as 1.0 would solve.
            pytest.param(
                ("distances", "entries", 1),
                True,
                "'distances.entries' holds True, not a number",
                id="bool-entry",
            ),
            pytest.param(
                ("distances", "entries", 1),
                10**400,
                "distance matrix has non-finite entries",
                id="huge-int-entry",
            ),
            pytest.param(
                ("distances", "entries", 1),
                [1],
                "'distances.entries' holds [1], not a number",
                id="mixed-entries",
            ),
            # The line instance's rows regrouped: the same 16 numbers, row-major.
            pytest.param(
                ("distances", "entries"),
                [[0, 1], [4, 9, 1, 0, 1, 4], [4, 1, 0, 1], [9, 4, 1, 0]],
                "'distances.entries' must be 4 rows of 4 numbers",
                id="ragged-entries",
            ),
            pytest.param(
                ("distances",),
                {"catalog_ref": 7},
                "'distances.catalog_ref' must be a path string",
                id="catalog-ref",
            ),
            # n * n matches the entry count, which numpy's reshape took as
            # two unknown dimensions.
            pytest.param(
                ("distances",),
                {"n": -2, "entries": [0, 1, 1, 0]},
                "distances.n must be at least 0, got -2",
                id="negative-n",
            ),
            # Python reads digit separators: "0_1" as 1 (the line instance's
            # d[0, 1]) and "0.2_5" as a valid alpha, so both would solve.
            pytest.param(
                ("distances", "entries", 1),
                "0_1",
                "'distances.entries' holds '0_1', not a number",
                id="digit-separator-entry",
            ),
            pytest.param(("alpha",), "0.2_5", "not a number: '0.2_5'", id="digit-separator-alpha"),
        ],
    )
    def test_malformed_field_exits_2(self, tmp_path, capsys, path, value, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_line_payload_with(path, value)), encoding="utf-8")
        assert main(["solve", "--instance", str(bad)]) == 2
        assert field in capsys.readouterr().err

    def test_integer_past_4300_digits_is_a_validation_error(self, tmp_path, capsys):
        # JSON reads 1e5000 as the int 10**5000, whose repr raises ValueError.
        text = json.dumps(_line_payload_with(("stores", 0, "desired_qty"), "HUGE"))
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace('"HUGE"', "1e5000"), encoding="utf-8")
        assert main(["solve", "--instance", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "[not_an_integer_in_range] s0: desired_qty=<16610-bit int> must be" in err

    def test_non_string_metric_exits_2(self, catalog_path, capsys):
        distances = {"catalog_ref": catalog_path.name, "metric": ["euclidean"]}
        bad = catalog_path.parent / "bad.json"
        bad.write_text(
            json.dumps(_line_payload_with(("distances",), distances)), encoding="utf-8"
        )
        assert main(["solve", "--instance", str(bad)]) == 2
        assert "metric" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["false", "no", 1])
    def test_non_boolean_normalize_exits_2(self, catalog_path, capsys, value):
        distances = {"catalog_ref": catalog_path.name, "normalize": value}
        bad = catalog_path.parent / "bad.json"
        bad.write_text(
            json.dumps(_line_payload_with(("distances",), distances)), encoding="utf-8"
        )
        assert main(["solve", "--instance", str(bad)]) == 2
        assert "distances.normalize" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ids, style, article",
        [(("a1", "a0", "a2", "a3"), "a0", "a1"), (("a0", "a1", "x", "y"), "a2", "x")],
        ids=["reordered", "foreign"],
    )
    def test_catalog_ids_must_match_article_ids(self, catalog_path, capsys, ids, style, article):
        # Catalog rows pair with articles by position.
        payload = _line_payload_with(("distances",), {"catalog_ref": catalog_path.name})
        for record, article_id in zip(payload["articles"], ids):
            record["id"] = article_id
        bad = catalog_path.parent / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["solve", "--instance", str(bad)]) == 2
        assert f"style {style!r} is not article {article!r}" in capsys.readouterr().err


class TestExportLp:
    def test_stdout_sections(self, line_path, capsys):
        assert main(["export-lp", "--instance", str(line_path)]) == 0
        text = capsys.readouterr().out
        for section in ("Maximize", "Subject To", "Generals", "Binaries", "End"):
            assert section in text

    def test_file_output(self, line_path, tmp_path, capsys):
        out = tmp_path / "model.lp"
        assert main(["export-lp", "--instance", str(line_path), "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8").endswith("End\n")
        assert f"wrote {out}" in capsys.readouterr().out

    def test_invalid_instance_leaves_output_untouched(self, tmp_path, capsys):
        bad = _write_invalid_alpha(tmp_path / "bad.json")
        out = tmp_path / "model.lp"
        out.write_bytes(b"previous model\n")
        assert main(["export-lp", "--instance", str(bad), "--output", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert out.read_bytes() == b"previous model\n"


@pytest.mark.parametrize(
    "alpha", [10**400, -(10**400), "1e400"], ids=["int", "negative-int", "text"]
)
@pytest.mark.parametrize(
    "argv", [["solve"], ["export-lp"], ["experiment", "--kind", "baseline"]],
    ids=["solve", "export-lp", "baseline"],
)
def test_alpha_beyond_float_range_exits_2(tmp_path, capsys, alpha, argv):
    # A JSON number arrives as text, so "1e400" takes the path of 1e400.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_line_payload_with(("alpha",), alpha)), encoding="utf-8")
    assert main([*argv, "--instance", str(bad)]) == 2
    assert "[alpha_out_of_range] alpha: alpha=" in capsys.readouterr().err


class TestExperiment:
    def test_counterexamples_stdout(self, capsys):
        assert main(["experiment", "--kind", "counterexamples"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_as_expected"] is True
        held = {
            (c["measure"], c["geometry"]): c["held"] for c in payload["checks"]
        }
        assert held[("max_min_sum", "triangle_incenter")] is False
        assert held[("max_sum_min", "segment_midpoint")] is False
        assert held[("max_mean", "triangle_incenter")] is True
        assert held[("max_sum_sum", "segment_midpoint")] is True

    def test_counterexamples_file_prints_verdicts(self, tmp_path, capsys):
        out = tmp_path / "checks.json"
        assert main(["experiment", "--kind", "counterexamples", "--output", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["all_as_expected"] is True
        stdout = capsys.readouterr().out
        assert "violated" in stdout and "held" in stdout

    def test_linearity_writes_csv_and_json(self, tmp_path, capsys):
        out = tmp_path / "lin.csv"
        code = main(
            [
                "experiment",
                "--kind",
                "linearity",
                "--population-size",
                "12",
                "--sizes",
                "2..5",
                "--reps",
                "40",
                "--seed",
                "0",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        csv_path = tmp_path / "lin.csv"
        json_path = tmp_path / "lin.json"
        assert csv_path.exists() and json_path.exists()
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["population_size"] == 12
        assert payload["repetitions"] == 40
        assert len(payload["curves"]) == 5
        header = csv_path.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("measure,")
        assert f"wrote {csv_path} and {json_path}" in capsys.readouterr().out

    def test_linearity_sizes_list_spec(self, capsys):
        code = main(
            [
                "experiment",
                "--kind",
                "linearity",
                "--population-size",
                "10",
                "--sizes",
                "3,5,7",
                "--reps",
                "20",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(curve["sizes"] == [3, 5, 7] for curve in payload["curves"])

    def test_linearity_empty_range_exits_2(self, capsys):
        code = main(
            ["experiment", "--kind", "linearity", "--sizes", "9..2", "--reps", "5"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_linearity_repeated_sizes_exit_2(self, capsys):
        # A repeated size used to fit a line through two copies of one point.
        code = main(["experiment", "--kind", "linearity", "--sizes", "2,2", "--reps", "5"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: subset sizes must not repeat, got [2, 2]\n"

    def test_linearity_out_of_memory_exits_2(self, monkeypatch, capsys):
        # A huge --population-size makes numpy raise MemoryError; the
        # allocation itself is not attempted here.
        def too_large(n, dim, seed):
            raise MemoryError(f"Unable to allocate an array with shape ({n}, {dim})")

        monkeypatch.setattr(cli, "synthetic_population", too_large)
        code = main(["experiment", "--kind", "linearity", "--population-size", "100000000000"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: Unable to allocate an array with shape (100000000000, 16)\n"
        )

    def test_linearity_range_beyond_population_exits_2_early(self, capsys):
        # The range is checked against the population before it is listed.
        tracemalloc.start()
        try:
            code = main(["experiment", "--kind", "linearity", "--sizes", "2..3000000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == (
            "error: population has 35 styles but a subset of 3000000 was requested\n"
        )
        assert peak < 10 * 2**20

    def test_linearity_population_file(self, catalog_path, capsys):
        code = main(
            [
                "experiment",
                "--kind",
                "linearity",
                "--population",
                str(catalog_path),
                "--sizes",
                "2..3",
                "--reps",
                "10",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["population_size"] == 4

    def test_baseline_demo(self, capsys):
        assert main(["experiment", "--kind", "baseline", "--seed", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["optimized_objective"] > payload["baseline_objective"]
        assert payload["improvement_pct"] > 0

    def test_baseline_file_prints_summary(self, tmp_path, capsys):
        out = tmp_path / "baseline.json"
        assert main(["experiment", "--kind", "baseline", "--seed", "0", "--output", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert capsys.readouterr().out == (
            f"baseline={payload['baseline_objective']:.4f} "
            f"optimized={payload['optimized_objective']:.4f} "
            f"improvement={payload['improvement_pct']:.2f}% (heuristic)\n"
        )

    def test_baseline_infeasible_instance_exits_3(self, infeasible_path, capsys):
        code = main(["experiment", "--kind", "baseline", "--instance", str(infeasible_path)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "infeasible: baseline allocator found no feasible quantities\n"
            "certificate: stores ['s0', 's1'] demand at least 72 units, but at most 40 "
            "can reach them (supply articles ['a0', 'a1'])\n"
        )

    def test_counterexample_deviation_exits_1(self, monkeypatch, capsys):
        def deviate():
            raise VerificationError("max_mean on triangle_incenter: expected held")

        monkeypatch.setattr(cli, "verify_counterexamples", deviate)
        assert main(["experiment", "--kind", "counterexamples"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "verdict deviation: max_mean on triangle_incenter: expected held\n"

    def test_baseline_explicit_instance(self, line_path, capsys):
        code = main(
            ["experiment", "--kind", "baseline", "--instance", str(line_path), "--seed", "0"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["optimized_objective"] >= payload["baseline_objective"]


class TestSeeds:
    def test_env_seed_must_be_integer(self, line_path, monkeypatch, capsys):
        monkeypatch.setenv("STYLEMIX_SEED", "not-a-number")
        code = main(
            ["solve", "--instance", str(line_path), "--mode", "heuristic"]
        )
        assert code == 2
        assert "STYLEMIX_SEED" in capsys.readouterr().err

    def test_flag_overrides_env(self, line_path, monkeypatch, capsys):
        monkeypatch.setenv("STYLEMIX_SEED", "not-a-number")
        code = main(
            ["solve", "--instance", str(line_path), "--mode", "heuristic", "--seed", "5"]
        )
        assert code == 0


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (MalformedInputError("style 'a' has a zero vector"), 2, "error: "),
        (ValidationError([Violation("min_exceeds_planned", "a0", "min_qty=9")]), 2, "error: "),
        (InfeasibleError("supply short"), 3, "infeasible: "),
        (InfeasiblePlanError([Violation("store_band", "s0", "total=9")]), 3, "infeasible: "),
        (BudgetExceededError("no plan within 5 patterns"), 4, "budget exceeded: "),
    ],
    ids=["malformed", "validation", "infeasible", "infeasible-plan", "budget"],
)
def test_each_error_class_has_one_exit_code(monkeypatch, catalog_path, capsys, error, code, prefix):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_distances", fail)
    assert main(["distances", "--catalog", str(catalog_path)]) == code
    assert capsys.readouterr().err == f"{prefix}{error}\n"


def _run_cli(argv, env_extra=None):
    env = dict(os.environ)
    env.pop("STYLEMIX_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "stylemix", *argv],
        capture_output=True,
        env=env,
        timeout=300,
    )


def _scipy_loaded(argv):
    """scipy modules loaded in a fresh interpreter that imports the CLI and
    then, unless ``argv`` is None, runs ``main(argv)``."""
    probe = "import json, sys\nfrom stylemix.cli import main\n"
    if argv is not None:
        probe += f"assert main({argv!r}) == 0\n"
    probe += "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


class TestSubprocess:
    def test_module_entry_point_help(self):
        result = _run_cli(["--help"])
        assert result.returncode == 0
        assert b"stylemix" in result.stdout

    def test_missing_subcommand_exits_2(self):
        result = _run_cli([])
        assert result.returncode == 2

    def test_cli_import_loads_no_scipy(self):
        # scipy is most of a cold start; only the flow check and the
        # linearity study import it, on first use.
        assert _scipy_loaded(None) == []

    @pytest.mark.parametrize("command", ["export-lp", "distances"])
    def test_command_loads_no_scipy(self, command, demo_path, catalog_path, tmp_path):
        flag, path = ("--instance", demo_path) if command == "export-lp" else ("--catalog", catalog_path)
        assert _scipy_loaded([command, flag, str(path), "--output", str(tmp_path / "out")]) == []

    def test_solve_loads_scipy_sparse_for_the_flow_check(self, demo_path, tmp_path):
        out = str(tmp_path / "out")
        loaded = _scipy_loaded(["solve", "--instance", str(demo_path), "--mode", "exact", "--output", out])
        assert "scipy.sparse.csgraph" in loaded
        assert not {"scipy.spatial", "scipy.stats"} & set(loaded)

    def test_overflowing_distances_exit_2_without_a_warning(self, tmp_path):
        catalog = tmp_path / "huge.csv"
        catalog.write_text("a0,1e200,0\na1,-1e200,1\na2,0,2\n", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "stylemix"]
            + ["distances", "--catalog", str(catalog)],
            capture_output=True,
            timeout=60,
        )
        assert result.returncode == 2
        assert result.stderr == b"error: distance matrix has non-finite entries\n"

    @pytest.mark.parametrize("rows", [("1e200,0", "-1e200,1"), ("1e-320,0", "0,1e-320")], ids=["overflow", "underflow"])
    @pytest.mark.parametrize("command", ["distances", "solve"])
    def test_unrepresentable_norm_exits_2_without_a_warning(self, tmp_path, rows, command):
        # Squaring 1e200 overflows and squaring 1e-320 underflows, so
        # neither norm can scale its vector to unit length.
        catalog = tmp_path / "catalog.csv"
        rows += ("0,2", "0,3")
        catalog.write_text("".join(f"a{i},{row}\n" for i, row in enumerate(rows)), encoding="utf-8")
        if command == "distances":
            argv = ["distances", "--catalog", str(catalog), "--normalize"]
        else:
            instance = tmp_path / "instance.json"
            distances = {"catalog_ref": catalog.name, "normalize": True}
            instance.write_text(json.dumps(_line_payload_with(("distances",), distances)), encoding="utf-8")
            argv = ["solve", "--instance", str(instance)]
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "stylemix", *argv],
            capture_output=True,
            timeout=60,
        )
        assert result.returncode == 2
        assert result.stderr == (
            b"error: style 'a0' has an L2 norm that cannot be represented and cannot be normalized\n"
        )

    def test_solve_bytes_identical_across_runs(self, demo_path, tmp_path):
        outs = []
        for run in range(2):
            out = tmp_path / f"plan{run}.json"
            result = _run_cli(
                [
                    "solve",
                    "--instance",
                    str(demo_path),
                    "--mode",
                    "heuristic",
                    "--seed",
                    "42",
                    "--max-iters",
                    "400",
                    "--restarts",
                    "4",
                    "--output",
                    str(out),
                ]
            )
            assert result.returncode == 0, result.stderr.decode()
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_env_seed_matches_flag_seed(self, demo_path, tmp_path):
        flag_out = tmp_path / "flag.json"
        env_out = tmp_path / "env.json"
        args = [
            "solve",
            "--instance",
            str(demo_path),
            "--mode",
            "heuristic",
            "--max-iters",
            "400",
            "--restarts",
            "4",
        ]
        result = _run_cli([*args, "--seed", "7", "--output", str(flag_out)])
        assert result.returncode == 0, result.stderr.decode()
        result = _run_cli(
            [*args, "--output", str(env_out)], env_extra={"STYLEMIX_SEED": "7"}
        )
        assert result.returncode == 0, result.stderr.decode()
        assert flag_out.read_bytes() == env_out.read_bytes()

    def test_export_lp_bytes_identical_across_runs(self, demo_path, tmp_path):
        outs = []
        for run in range(2):
            out = tmp_path / f"model{run}.lp"
            result = _run_cli(
                ["export-lp", "--instance", str(demo_path), "--output", str(out)]
            )
            assert result.returncode == 0, result.stderr.decode()
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def _json_paths(node, prefix=()):
    """Every key path in a parsed JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _json_paths(child, prefix + (key,))


# Every field of the line instance's JSON, containers and leaves alike.
_LINE_FIELDS = list(_json_paths(json.loads(instance_to_json(_line_instance()))))[1:]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(path=st.sampled_from(_LINE_FIELDS), value=_JSON_VALUES)
# st.integers() never reaches beyond the float range.
@example(path=("alpha",), value=10**400)
@example(path=("alpha",), value=-(10**400))
@example(path=("alpha",), value="1e400")
def test_fuzzed_instance_field_exits_with_documented_code(tmp_path, path, value):
    instance = tmp_path / "fuzz.json"
    instance.write_text(json.dumps(_line_payload_with(path, value)), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["solve", "--instance", str(instance), "--output", str(tmp_path / "plan.json")])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stdout.getvalue() + stderr.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--instance", "x.json", "--format", "csv"],
        ["export-lp", "--instance", "x.json", "--seed", "3"],
        ["export-lp", "--instance", "x.json", "--format", "csv"],
        ["distances", "--catalog", "x.csv", "--seed", "3"],
    ],
    ids=["solve-format", "export-lp-seed", "export-lp-format", "distances-seed"],
)
def test_flag_a_command_ignores_is_rejected(argv, capsys):
    # --seed is taken only by solve and experiment, --format only by
    # distances and experiment.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--kind", "counterexamples", "--format", "csv"], "--format"),
        (["--kind", "baseline", "--format", "csv"], "--format"),
        (["--kind", "counterexamples", "--seed", "3"], "--seed"),
        (["--kind", "counterexamples", "--reps", "5"], "--reps"),
        (["--kind", "counterexamples", "--instance", "x.json"], "--instance"),
        (["--kind", "baseline", "--sizes", "2..3"], "--sizes"),
        (["--kind", "baseline", "--metric", "euclidean"], "--metric"),
        (["--kind", "linearity", "--instance", "x.json"], "--instance"),
        (
            ["--kind", "linearity", "--population", "CATALOG", "--sizes", "2..3", "--reps", "10",
             "--dim", "7", "--population-size", "99"],
            "--population-size, --dim",
        ),
    ],
    ids=[
        "counterexamples-format",
        "baseline-format",
        "counterexamples-seed",
        "counterexamples-reps",
        "counterexamples-instance",
        "baseline-sizes",
        "baseline-metric",
        "linearity-instance",
        "linearity-population-file-size-and-dim",
    ],
)
def test_flag_an_experiment_kind_ignores_is_rejected(argv, flag, catalog_path, capsys):
    # Only linearity reads --format; counterexamples reads no --seed. A
    # --population file replaces the synthetic population's size and dim.
    argv = [str(catalog_path) if arg == "CATALOG" else arg for arg in argv]
    assert main(["experiment", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and flag in captured.err


def test_parser_exposes_documented_defaults():
    parser = build_parser()
    args = parser.parse_args(["solve", "--instance", "x.json"])
    assert args.mode == "auto"
    args = parser.parse_args(["experiment", "--kind", "linearity"])
    assert args.dim == 16
    assert args.reps == 1000
    assert args.sizes == "2..20"
