import contextlib
import csv
import importlib.util
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wronoc
from conftest import package_env, table1_file_text
from wronoc import cli, model, verify
from wronoc.model import DeltaPolicy
from wronoc.parallelism import ParallelismSolution
from wronoc.spacing import SpacingProblem, SpacingSolution


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    return code, json.loads(out), err


def payload_problems(doc, instance_file):
    """What `verify` finds wrong with an emitted solve document, rebuilt
    from its payload alone on a fresh parse of the instance."""
    echo = doc["command"]
    policy = echo["delta_policy"]
    instance = model.parse_instance(
        Path(instance_file).read_text(encoding="utf-8"),
        DeltaPolicy.symmetric(policy["half_width_pm"]) if "half_width_pm" in policy
        else DeltaPolicy.explicit(),
    )
    result = doc["result"]
    results = [result["phase1"], result["phase2"]] if result["type"] == "pipeline" else [result]
    problems = []
    for part in filter(None, results):
        rows = part["rows"]
        if part["type"] == "parallelism":
            sol = ParallelismSolution(
                tuple(part["selected_radii"]),
                {row["radius"]: tuple(row["indices"]) for row in rows},
                {row["radius"]: row["q"] for row in rows},
                part["P"], part["status"])
            problems += verify.check_parallelism_solution(instance, sol, echo["n_radii"])
        else:
            problem = SpacingProblem(part["n_radii"], part["n_lambda"], part["mode"])
            sol = SpacingSolution(
                tuple(part["selected_radii"]),
                tuple(tuple(row["indices"]) for row in rows),
                part["dist_pm"], part["status"])
            problems += verify.check_spacing_solution(instance, problem, sol)
    return problems


class TestMaxParallelism:
    def test_worked_example(self, capsys, table1_file):
        code, doc, _ = run_json(
            capsys,
            ["max-parallelism", "--instance", table1_file, "--delta", "0",
             "--n-radii", "3"],
        )
        assert code == 0
        assert doc["status"] == "optimal"
        assert doc["result"]["P"] == 4
        assert doc["result"]["selected_radii"] == [1, 2, 3]
        assert doc["command"]["delta_policy"] == {
            "mode": "symmetric-half-width",
            "half_width_pm": 0,
        }

    def test_oversized_is_infeasible_exit_1(self, capsys, table1_file):
        code, doc, _ = run_json(
            capsys,
            ["max-parallelism", "--instance", table1_file, "--delta", "0",
             "--n-radii", "99"],
        )
        assert code == 1
        assert doc["status"] == "infeasible"

    def test_trim_flag(self, capsys, table1_file):
        code, doc, _ = run_json(
            capsys,
            ["max-parallelism", "--instance", table1_file, "--delta", "0",
             "--n-radii", "3", "--trim"],
        )
        assert code == 0
        assert all(len(row["indices"]) == 4 for row in doc["result"]["rows"])

    def test_byte_identical_rerun_modulo_timing(self, capsys, table1_file):
        argv = ["max-parallelism", "--instance", table1_file, "--delta", "1000",
                "--n-radii", "2"]
        _, doc_a, _ = run_json(capsys, argv)
        _, doc_b, _ = run_json(capsys, argv)
        doc_a.pop("wall_time_ms")
        doc_b.pop("wall_time_ms")
        assert json.dumps(doc_a) == json.dumps(doc_b)


class TestSpacing:
    def test_worked_example(self, capsys, table1_file):
        code, doc, _ = run_json(
            capsys,
            ["spacing", "--instance", table1_file, "--n-radii", "1",
             "--parallelism", "3", "--mode", "base"],
        )
        assert code == 0
        assert doc["result"]["dist_pm"] == 50700
        assert doc["result"]["selected_radii"] == [1]

    def test_refined_mode(self, capsys, table1_file):
        code, doc, _ = run_json(
            capsys,
            ["spacing", "--instance", table1_file, "--n-radii", "2",
             "--parallelism", "2", "--mode", "refined"],
        )
        assert code == 0
        assert doc["result"]["mode"] == "refined"
        assert doc["result"]["dist_pm"] == 9800

    def test_infeasible_exit_1(self, capsys, table1_file):
        code, doc, _ = run_json(
            capsys,
            ["spacing", "--instance", table1_file, "--n-radii", "1",
             "--parallelism", "9", "--mode", "base"],
        )
        assert code == 1
        assert doc["status"] == "infeasible"

    def test_never_builds_conflicts(self, capsys, table1_file, monkeypatch):
        def no_conflicts(*args, **kwargs):
            raise AssertionError("spacing called conflicts_of")

        monkeypatch.setattr(cli, "conflicts_of", no_conflicts)
        code, doc, _ = run_json(
            capsys,
            ["spacing", "--instance", table1_file, "--delta", "1000", "--n-radii", "2",
             "--parallelism", "2", "--mode", "refined"],
        )
        assert code == 0
        assert doc["result"]["dist_pm"] == 9800

    @pytest.mark.parametrize(
        "shape", [("70", "13", "base"), ("70", "13", "refined"), ("63", "15", "base")]
    )
    def test_matrix_deeper_than_the_recursion_limit(self, capsys, tmp_path, shape):
        # Exactly n_radii radii have enough resonances, so one subset decides.
        # In base mode one of its radii keeps too few carriers that equal no
        # resonance of another radius: infeasible.  Refined mode admits every
        # carrier at 0 pm and implies the base rule at 1 pm: optimal at 0.
        gen = str(tmp_path / "gen.txt")
        assert cli.main(["generate", "--seed", "0", "--jitter-pm", "100",
                         "--out", gen]) == 0
        capsys.readouterr()
        n_radii, parallelism, mode = shape
        code, doc, err = run_json(
            capsys,
            ["spacing", "--instance", gen, "--n-radii", n_radii,
             "--parallelism", parallelism, "--mode", mode, "--time-limit", "10"],
        )
        assert payload_problems(doc, gen) == []
        if mode == "refined":
            assert code == 0, err
            assert doc["result"]["dist_pm"] == 0
            return
        assert code == 1, err
        instance = model.parse_instance(Path(gen).read_text(encoding="utf-8"))
        eligible = [e for e in instance.radii if len(e.nominals()) >= int(parallelism)]
        assert len(eligible) == int(n_radii)
        short = []
        for entry in eligible:
            kept = 0
            for value in entry.nominals():
                clash = False
                for other in eligible:
                    if other is not entry and value in other.nominals():
                        clash = True
                        break
                if not clash:
                    kept += 1
            if kept < int(parallelism):
                short.append(entry.id)
        assert short


class TestPipeline:
    def test_feeds_p_into_phase2(self, capsys, table1_file):
        code, doc, _ = run_json(
            capsys,
            ["pipeline", "--instance", table1_file, "--delta", "0",
             "--n-radii", "2", "--mode", "base"],
        )
        assert code == 0
        p = doc["result"]["phase1"]["P"]
        assert p == 5
        assert doc["result"]["phase2"]["n_lambda"] == p
        assert doc["result"]["phase2"]["status"] == "optimal"

    def test_time_limit_is_one_budget(self, capsys, table1_file, monkeypatch):
        # Phase 1 spends the whole budget, so Phase 2 gets none of it.
        solve = cli.solve_max_parallelism

        def slow_solve(*args, **kwargs):
            time.sleep(0.3)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_max_parallelism", slow_solve)
        code, doc, _ = run_json(
            capsys,
            ["pipeline", "--instance", table1_file, "--delta", "0",
             "--n-radii", "2", "--time-limit", "0.2"],
        )
        assert code == 3
        assert doc["result"]["phase1"]["status"] == "optimal"
        assert doc["result"]["phase2"]["status"] == "incumbent-timeout"
        assert doc["status"] == "incumbent-timeout"


# The names bench/tracing.py replaces with timing wrappers.  The CLI must
# call each through the attribute it patches, at call time.
TRACED = [
    (cli, "conflicts_of"),
    (cli, "solve_max_parallelism"),
    (cli, "solve_spacing"),
    (model, "parse_instance"),
    (model, "instance_digest"),
    (verify, "check_parallelism_solution"),
    (verify, "check_spacing_solution"),
]


class TestTracedNames:
    def test_called_through_their_owners(self, capsys, table1_file, monkeypatch):
        called = set()
        for owner, name in TRACED:
            def wrapper(*args, _original=getattr(owner, name), _name=name, **kwargs):
                called.add(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)
        code, _, _ = run_json(
            capsys,
            ["pipeline", "--instance", table1_file, "--delta", "0", "--n-radii", "2"],
        )
        assert code == 0
        # A solve builds its own conflict table inside Phase 1; only the
        # `conflicts` subcommand calls the CLI's `conflicts_of`.
        assert called == {name for _, name in TRACED} - {"conflicts_of"}
        code, _, _ = run_json(capsys, ["conflicts", "--instance", table1_file])
        assert code == 0
        assert "conflicts_of" in called


    def test_the_bench_tracer_wraps_a_request(self, capsys, table1_file):
        # The tracer resolves each name with getattr when a request starts,
        # so a renamed or dropped name breaks every traced benchmark run.
        path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("bench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        originals = [getattr(owner, name) for owner, name in TRACED]
        tracer = tracing.Tracer(cli, model, verify)
        with tracer.request():
            code, doc, _ = run_json(
                capsys,
                ["max-parallelism", "--instance", table1_file, "--delta", "0",
                 "--n-radii", "3"],
            )
        assert (code, doc["result"]["P"]) == (0, 4)
        assert {span[1] for span in tracer.spans} == {
            "cli.request", "model.parse", "model.digest", "parallelism.solve",
            "verify.check",
        }
        assert tracer.counts == {"parallelism.optimal": 1}
        assert [getattr(owner, name) for owner, name in TRACED] == originals


class TestConflicts:
    def test_counts_and_pairs(self, capsys, table1_file):
        code, doc, _ = run_json(
            capsys, ["conflicts", "--instance", table1_file, "--delta", "0"]
        )
        assert code == 0
        assert doc["cross_count"] == 7
        assert doc["within_count"] == 0
        assert len(doc["pairs"]) == 7

    def test_table_goes_to_stderr(self, capsys, table1_file):
        code, out, err = run_cli(
            capsys,
            ["conflicts", "--instance", table1_file, "--delta", "0", "--table"],
        )
        assert code == 0
        json.loads(out)  # stdout stays machine-readable
        assert "1521.3 nm" in err


class TestValidateAndExport:
    def test_validate_clean(self, capsys, table1_file):
        code, doc, _ = run_json(capsys, ["validate", "--instance", table1_file])
        assert code == 0
        assert doc["violations"] == []

    def test_validate_broken_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("radius 1 0\nresonance 1 10 20 5\n", encoding="utf-8")
        code, doc, err = run_json(capsys, ["validate", "--instance", str(bad)])
        assert code == 2
        assert doc["violations"]
        assert "lmin" in err

    def test_export_round_trip(self, capsys, table1_file, tmp_path):
        out = tmp_path / "t1.lp"
        code, _, _ = run_cli(
            capsys,
            ["export-asp", "--instance", table1_file, "--out", str(out)],
        )
        assert code == 0
        assert out.read_text(encoding="utf-8").count("lambda(") == 24
        code, doc, _ = run_json(capsys, ["validate", "--instance", str(out)])
        assert code == 0 and doc["violations"] == []
        _, original, _ = run_json(capsys, ["validate", "--instance", table1_file])
        assert doc["instance_digest"] == original["instance_digest"]

    def test_export_json_format(self, capsys, table1_file):
        code, doc, _ = run_json(
            capsys,
            ["export-asp", "--instance", table1_file, "--format", "json"],
        )
        assert code == 0
        assert len(doc["radii"]) == 4
        assert doc["radii"][0]["resonances"][0]["nominal_pm"] == 1496400


class TestGenerateCommand:
    def test_writes_parseable_instance(self, capsys, tmp_path):
        out = tmp_path / "gen.txt"
        code, _, err = run_cli(
            capsys,
            ["generate", "--seed", "5", "--out", str(out),
             "--r-max-pm", "8000000"],
        )
        assert code == 0
        assert "wrote 13 radii" in err
        code, doc, _ = run_json(capsys, ["validate", "--instance", str(out)])
        assert code == 0 and doc["violations"] == []

    def test_defaults_are_genspec_defaults(self, capsys, tmp_path):
        out = tmp_path / "gen.txt"
        code, _, _ = run_cli(capsys, ["generate", "--out", str(out)])
        assert code == 0
        expected = model.format_instance(wronoc.generate(wronoc.GenSpec()))
        assert out.read_text(encoding="utf-8") == expected

    def test_degenerate_band_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            ["generate", "--band-lo-pm", "0", "--band-hi-pm", "0",
             "--out", str(tmp_path / "x.txt")],
        )
        assert code == 2
        assert "radii" in err


class TestBench:
    def test_grid_rows(self, capsys, table1_file, tmp_path):
        out = tmp_path / "bench.csv"
        code, _, _ = run_cli(
            capsys,
            ["bench", "--instance", table1_file, "--n-radii", "2,3",
             "--delta", "0,1000", "--phases", "1", "--out", str(out)],
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "instance,n_radii,delta_pm,phase,status,objective,wall_time_ms"
        assert len(lines) == 5
        assert all(line.startswith("table1,") for line in lines[1:])

    def test_rerun_objectives_identical(self, capsys, table1_file):
        argv = ["bench", "--instance", table1_file, "--n-radii", "2,3,4",
                "--delta", "0,1000", "--phases", "1,2"]
        _, out_a, _ = run_cli(capsys, argv)
        _, out_b, _ = run_cli(capsys, argv)

        def objectives(text):
            return [line.rsplit(",", 1)[0] for line in text.splitlines()]

        assert objectives(out_a) == objectives(out_b)

    def test_empty_grid_header_only(self, capsys, table1_file):
        code, out, _ = run_cli(
            capsys,
            ["bench", "--instance", table1_file, "--n-radii", "", "--delta", ""],
        )
        assert code == 0
        assert out == "instance,n_radii,delta_pm,phase,status,objective,wall_time_ms\n"

    def test_infeasible_cell_still_gets_phase2_row(self, capsys, tmp_path):
        twin = tmp_path / "twin.txt"
        twin.write_text(
            "radius 1 0\nresonance 1 1500000\nresonance 1 1510000\n"
            "radius 2 0\nresonance 2 1500000\nresonance 2 1510000\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys,
            ["bench", "--instance", str(twin), "--n-radii", "2",
             "--delta", "0", "--phases", "1,2"],
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[3:6] == ["1", "infeasible", ""]
        assert lines[2].split(",")[3:6] == ["2", "infeasible", ""]


    def test_fields_are_quoted(self, capsys, tmp_path, table1_text):
        labelled = tmp_path / "labelled.txt"
        labelled.write_text(
            table1_text.replace("# label: table1", "# label: chip A, rev 2"),
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys,
            ["bench", "--instance", str(labelled), "--n-radii", "2,3",
             "--delta", "0", "--phases", "1,2"],
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["instance", "n_radii", "delta_pm", "phase", "status",
                           "objective", "wall_time_ms"]
        assert [row[:6] for row in rows[1:]] == [
            ["chip A, rev 2", "2", "0", "1", "optimal", "5"],
            ["chip A, rev 2", "2", "0", "2", "optimal", "2900"],
            ["chip A, rev 2", "3", "0", "1", "optimal", "4"],
            ["chip A, rev 2", "3", "0", "2", "optimal", "3900"],
        ]

    @pytest.mark.parametrize("phase", [1, 2])
    def test_rows_are_checked(self, capsys, table1_file, monkeypatch, phase):
        name = ["check_parallelism_solution", "check_spacing_solution"][phase - 1]
        monkeypatch.setattr(verify, name, lambda *args: ["planted fault"])
        code, out, err = run_cli(
            capsys,
            ["bench", "--instance", table1_file, "--n-radii", "2", "--delta", "0",
             "--phases", "1,2"],
        )
        assert code == 4
        assert "planted fault" in err
        assert out.splitlines()[1:] == []

    def test_time_limit_is_one_budget_per_cell(self, capsys, table1_file, monkeypatch):
        # Phase 1 spends the cell's whole budget, so its Phase 2 gets none.
        solve = cli.solve_max_parallelism

        def slow_solve(*args, **kwargs):
            time.sleep(0.3)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_max_parallelism", slow_solve)
        code, out, _ = run_cli(
            capsys,
            ["bench", "--instance", table1_file, "--n-radii", "2,3", "--delta", "0",
             "--phases", "1,2", "--time-limit", "0.2"],
        )
        assert code == 0
        assert [row[3:5] for row in csv.reader(io.StringIO(out))][1:] == [
            ["1", "optimal"], ["2", "incumbent-timeout"],
            ["1", "optimal"], ["2", "incumbent-timeout"],
        ]


class TestCommandEcho:
    """The `command` echo of each solve subcommand, whole: keys, their order
    and their values."""

    @pytest.mark.parametrize("argv, echo", [
        (["max-parallelism", "--delta", "0", "--n-radii", "3"],
         [("n_radii", 3), ("method", "bnb"), ("time_limit", 0.0), ("trim", False),
          ("delta_policy", {"mode": "symmetric-half-width", "half_width_pm": 0})]),
        (["spacing", "--n-radii", "2", "--parallelism", "2", "--mode", "refined",
          "--time-limit", "5"],
         [("n_radii", 2), ("parallelism", 2), ("mode", "refined"), ("method", "bnb"),
          ("time_limit", 5.0),
          ("delta_policy", {"mode": "explicit-intervals"})]),
        (["pipeline", "--delta", "1000", "--n-radii", "2", "--mode", "base", "--trim"],
         [("n_radii", 2), ("mode", "base"), ("method", "bnb"), ("time_limit", 0.0),
          ("trim", True),
          ("delta_policy", {"mode": "symmetric-half-width", "half_width_pm": 1000})]),
    ], ids=["max-parallelism", "spacing", "pipeline"])
    def test_keys_order_and_values(self, capsys, table1_file, argv, echo):
        code, doc, _ = run_json(capsys, argv + ["--instance", table1_file])
        assert code == 0
        head = [("subcommand", argv[0]), ("instance", table1_file)]
        assert list(doc["command"].items()) == head + echo


class TestErrors:
    @pytest.mark.parametrize("flag", [["--frobnicate"], ["--method", "bnb"]],
                             ids=["frobnicate", "method"])
    def test_unknown_flag_exits_2(self, capsys, table1_file, flag):
        code, out, _ = run_cli(
            capsys, ["max-parallelism", "--instance", table1_file, "--n-radii", "2", *flag]
        )
        assert (code, out) == (2, "")

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, ["max-parallelism", "--instance", "/nope.txt", "--n-radii", "2"]
        )
        assert code == 2
        assert "/nope.txt" in err

    @pytest.mark.parametrize("argv", [["validate"], ["max-parallelism", "--n-radii", "2"]],
                             ids=lambda argv: argv[0])
    def test_undecodable_file_exits_2(self, capsys, tmp_path, argv):
        # Not UTF-8: reported as an unreadable file, as a missing one is.
        bad = tmp_path / "bytes.txt"
        bad.write_bytes(b"radius 1 \xff\xfe\x80 1500000\n")
        code, out, err = run_cli(capsys, argv + ["--instance", str(bad)])
        assert code == 2
        assert f"cannot read instance file {bad}: " in err
        assert "Traceback" not in err
        if argv[0] == "validate":
            doc = json.loads(out)
            assert list(doc) == ["schema_version", "violations"]
            assert doc["violations"] == [err.strip()]
        else:
            assert out == ""

    def test_malformed_instance_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("what even is this\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, ["max-parallelism", "--instance", str(bad), "--n-radii", "2"]
        )
        assert code == 2
        assert "line 1" in err

    def test_zero_n_radii_exits_2(self, capsys, table1_file):
        code, _, _ = run_cli(
            capsys,
            ["max-parallelism", "--instance", table1_file, "--n-radii", "0"],
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["max-parallelism", "--n-radii", "2"],
            ["conflicts"],
            ["validate"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_delta_exits_2(self, capsys, table1_file, argv):
        code, _, err = run_cli(
            capsys, argv + ["--instance", table1_file, "--delta", "-5"]
        )
        assert code == 2
        assert "--delta -5" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["max-parallelism", "--n-radii", "2"],
            ["export-asp"],
            ["export-asp", "--format", "json"],
            ["generate"],
            ["bench", "--n-radii", "2"],
        ],
        ids=["max-parallelism", "export-asp", "export-json", "generate", "bench"],
    )
    def test_unwritable_out_exits_2(self, capsys, table1_file, tmp_path, argv):
        if argv[0] != "generate":
            argv = argv + ["--instance", table1_file]
        out = tmp_path / "missing" / "out.txt"
        code, _, err = run_cli(capsys, argv + ["--out", str(out)])
        assert code == 2
        assert f"cannot write {out}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [["max-parallelism", "--delta", "1000", "--n-radii", "16"],
         ["bench", "--delta", "1000", "--n-radii", "16"]],
        ids=lambda argv: argv[0],
    )
    def test_nan_time_limit_exits_2(self, capsys, table1_file, argv):
        code, out, err = run_cli(
            capsys, argv + ["--instance", table1_file, "--time-limit", "nan"]
        )
        assert code == 2
        assert out == ""
        assert "time_limit must be >= 0" in err

    @pytest.mark.parametrize("limit", ["inf", "1e400"])
    @pytest.mark.parametrize(
        "argv",
        [["max-parallelism", "--n-radii", "2"],
         ["spacing", "--n-radii", "2", "--parallelism", "2"],
         ["pipeline", "--n-radii", "2"],
         ["bench", "--n-radii", "2", "--phases", "1,2"]],
        ids=lambda argv: argv[0],
    )
    def test_infinite_time_limit_exits_2(self, capsys, table1_file, argv, limit):
        # An infinite limit would echo as `Infinity`, which is not JSON.
        code, out, err = run_cli(
            capsys, argv + ["--instance", table1_file, "--time-limit", limit]
        )
        assert (code, out) == (2, "")
        assert "time_limit must be >= 0" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["bench", "--n-radii", "2,x"], "--n-radii expects a comma-separated integer list"),
            (["bench", "--n-radii", "2", "--phases", "3"], "--phases entries must be 1 or 2"),
            (["bench", "--n-radii", "2,0"], "--n-radii entries must be >= 1"),
            (["bench", "--n-radii", "2", "--delta", "0,-3"], "--delta entries must be >= 0"),
            (["generate", "--band-lo-pm", "1600000", "--band-hi-pm", "1500000"],
             "band_lo_pm must be <= band_hi_pm"),
            (["generate", "--n-eff-milli", "0"], "n_eff_milli must be positive"),
        ],
        ids=["bench-n-radii", "bench-phases", "bench-n-radii-range", "bench-delta-range",
             "generate-band", "generate-n-eff"],
    )
    def test_bad_grid_or_spec_exits_2(self, capsys, table1_file, tmp_path, argv, message):
        if argv[0] == "bench":
            argv = argv + ["--instance", table1_file]
        code, out, err = run_cli(capsys, argv + ["--out", str(tmp_path / "out.txt")])
        assert (code, out) == (2, "")
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.txt").exists()

    def test_out_of_memory_exits_4(self, capsys, table1_file, monkeypatch):
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "_solve", no_memory)
        code, out, err = run_cli(
            capsys, ["max-parallelism", "--instance", table1_file, "--n-radii", "2"]
        )
        assert code == 4
        assert out == ""
        assert err == "error: out of memory\n"

    @staticmethod
    def run_timed(args):
        """Run the CLI in a fresh interpreter, capped at 15 s; the process
        and its wall time in seconds."""
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "wronoc.cli", *args],
            capture_output=True, text=True, env=package_env(), timeout=15,
        )
        return proc, time.monotonic() - started

    @staticmethod
    def one_each(tmp_path, count):
        """`count` radii of one resonance each, 100 pm apart."""
        path = tmp_path / "one-each.txt"
        lines = []
        for rid in range(1, count + 1):
            lines += [f"radius {rid} {5_000_000 + 1000 * rid}",
                      f"resonance {rid} {1_500_000 + 100 * rid}"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_a_deep_search_is_solved(self, tmp_path):
        # Choosing 1,050 radii takes 1,050 search levels, past Python's
        # default recursion limit of 1,000; the searches keep their frames
        # on a stack of their own.  One subset, feasible at 100 pm.
        path = self.one_each(tmp_path, 1050)
        proc, _ = self.run_timed(
            ["spacing", "--instance", str(path), "--n-radii", "1050", "--parallelism", "1"])
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["status"] == "optimal"
        assert doc["result"]["dist_pm"] == 100
        assert payload_problems(doc, path) == []

    def test_a_deep_search_honours_time_limit(self, tmp_path):
        # 1,050 of 1,100 radii: every subset ties at 100 pm and the span
        # bound (100-104 pm) prunes almost none of the C(1100, 1050), so
        # only the limit ends the search, holding the first leaf's 100 pm.
        path = self.one_each(tmp_path, 1100)
        proc, elapsed = self.run_timed(
            ["spacing", "--instance", str(path), "--n-radii", "1050", "--parallelism", "1",
             "--time-limit", "2"])
        assert proc.returncode == 3, proc.stderr
        assert elapsed < 2 + 3
        doc = json.loads(proc.stdout)
        assert doc["status"] == "incumbent-timeout"
        assert doc["result"]["dist_pm"] == 100
        assert payload_problems(doc, path) == []

    def test_packing_dp_honours_time_limit(self, tmp_path):
        # 4 radii x 13 carriers: 38,416 DP states a probe, over ~4.1M subsets;
        # the solve runs past 40 s on a 2-vCPU VM.
        gen = tmp_path / "gen.txt"
        assert cli.main(["generate", "--seed", "1000", "--jitter-pm", "100",
                         "--out", str(gen)]) == 0
        proc, elapsed = self.run_timed(
            ["spacing", "--instance", str(gen), "--n-radii", "4", "--parallelism", "13",
             "--mode", "base", "--time-limit", "2"])
        assert proc.returncode == 3, proc.stderr
        assert elapsed < 2 + 1
        doc = json.loads(proc.stdout)
        assert doc["status"] == "incumbent-timeout"
        assert doc["result"]["dist_pm"] is not None
        assert payload_problems(doc, gen) == []

    def test_timeout_exits_3(self, capsys, tmp_path):
        gen = tmp_path / "gen.txt"
        assert cli.main(["generate", "--seed", "1", "--out", str(gen)]) == 0
        capsys.readouterr()
        code, doc, _ = run_json(
            capsys,
            ["max-parallelism", "--instance", str(gen), "--delta", "1000",
             "--n-radii", "8", "--time-limit", "1e-9"],
        )
        assert code == 3
        assert doc["status"] == "incumbent-timeout"


@pytest.fixture(scope="module")
def table1_path(tmp_path_factory):
    # Module-scoped: hypothesis does not rerun function-scoped fixtures.
    path = tmp_path_factory.mktemp("contract") / "table1.txt"
    path.write_text(table1_file_text(), encoding="utf-8")
    return str(path)


@st.composite
def solve_requests(draw):
    command = draw(st.sampled_from(["max-parallelism", "spacing", "pipeline", "bench"]))
    n_radii = str(draw(st.integers(-1, 6)))
    delta = str(draw(st.sampled_from([-5, 0, 1000, 20000])))
    time_limit = draw(st.sampled_from(["0", "1e-9", "0.5", "-1", "nan", "inf"]))
    argv = [command, "--n-radii", n_radii, "--delta", delta, "--time-limit", time_limit]
    if command in ("spacing", "pipeline", "bench"):
        argv += ["--mode", draw(st.sampled_from(["base", "refined"]))]
    if command == "spacing":
        argv += ["--parallelism", str(draw(st.integers(-1, 8)))]
    if command == "bench":
        argv += ["--phases", "1,2"]
    return argv


def _not_json(token):
    """`json.loads` accepts NaN and Infinity, which JSON has no token for."""
    raise ValueError(f"{token} is not JSON")


class TestExitCodeContract:
    @given(argv=solve_requests())
    @settings(max_examples=150, deadline=None)
    def test_documented_exit_codes(self, table1_path, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--instance", table1_path])
        assert code in (0, 1, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if argv[0] == "bench":
            assert code != 1
            assert all(len(row) == 7 for row in csv.reader(io.StringIO(out.getvalue())))
        elif out.getvalue():
            doc = json.loads(out.getvalue(), parse_constant=_not_json)
            assert (code == 1) == (doc["status"] == "infeasible")
            assert payload_problems(doc, table1_path) == []
        else:
            assert code == 2


class TestParserCache:
    def test_usage_errors_leave_the_parser_as_new(self, capsys, table1_file):
        argv = ["spacing", "--instance", table1_file, "--delta", "0",
                "--n-radii", "2", "--parallelism", "2"]

        def without_wall_time(out):
            return [line for line in out.splitlines() if '"wall_time_ms"' not in line]

        cli._parser.cache_clear()
        first_code, first_out, _ = run_cli(capsys, argv)
        assert run_cli(capsys, ["--help"])[0] == 0
        assert run_cli(capsys, ["frobnicate"])[0] == 2
        code, out, err = run_cli(capsys, argv[:4] + argv[6:])
        assert (code, out) == (2, "")
        assert "--n-radii" in err
        code, again_out, _ = run_cli(capsys, argv)
        assert code == first_code == 0
        assert without_wall_time(again_out) == without_wall_time(first_out)
        assert json.loads(again_out)["wall_time_ms"] >= 0

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()


# Small generated instances (9 radii) in both file formats, for mutation.
_FUZZ_BASES = [
    model.format_instance(wronoc.generate(wronoc.GenSpec(r_max_pm=7_000_000, jitter_pm=100))),
    model.export_asp_facts(model.apply_delta(
        wronoc.generate(wronoc.GenSpec(r_max_pm=7_000_000, jitter_pm=100, seed=1)), 300)),
]


@st.composite
def mutated_files(draw):
    """A generated file with one to three lines dropped, duplicated, given
    an extra field or with one digit corrupted."""
    lines = draw(st.sampled_from(_FUZZ_BASES)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "duplicate", "add-field", "corrupt-digit"]))
        if kind == "drop":
            del lines[k]
        elif kind == "duplicate":
            lines.insert(k, lines[k])
        elif kind == "add-field":
            lines[k] += " " + draw(st.sampled_from(["7", "x", "#", "-1", "1500000"]))
        else:
            digits = [j for j, c in enumerate(lines[k]) if c.isdigit()]
            if digits:
                j = draw(st.sampled_from(digits))
                lines[k] = lines[k][:j] + draw(st.sampled_from("0123456789x-. ")) + lines[k][j + 1:]
        if not lines:
            break
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    # Module-scoped: hypothesis does not rerun function-scoped fixtures.
    return tmp_path_factory.mktemp("fuzz")


class TestMalformedFiles:
    @given(text=mutated_files())
    @settings(max_examples=200, deadline=None)
    def test_validate_exits_0_or_2_without_a_traceback(self, fuzz_dir, text):
        path = fuzz_dir / "mutated.txt"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["validate", "--instance", str(path)])
        assert code in (0, 2)
        assert "Traceback" not in err.getvalue()
        try:
            model.parse_instance(text)
        except model.ParseError as exc:
            assert code == 2
            assert 1 <= exc.line_no <= len(text.splitlines())
            assert str(exc).startswith(f"line {exc.line_no}: ")
            assert f"line {exc.line_no}: " in err.getvalue()
        except model.ModelError:
            assert code == 2
        else:
            assert code == 0
            assert json.loads(out.getvalue())["violations"] == []
