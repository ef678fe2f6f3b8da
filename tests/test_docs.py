"""The README's "Performance envelope" must match the latest BENCH file,
its instance-file example must parse, its library example must run, every
flag it shows must exist, and the test dependencies are pinned alike in
CI, pyproject and the README."""

import json
import re
from pathlib import Path

from wronoc import (SpacingProblem, check_parallelism_solution, check_spacing_solution,
                    cli, parse_instance)

ROOT = Path(__file__).resolve().parent.parent


def readme_section(title):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_envelope_cites_the_latest_bench_file():
    numbers = [
        int(m.group(1))
        for path in ROOT.glob("BENCH_*.json")
        if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))
    ]
    assert numbers
    latest = f"BENCH_{max(numbers)}.json"
    assert f"`{latest}`" in readme_section("Performance envelope")
    json.loads((ROOT / latest).read_text(encoding="utf-8"))


def test_instance_file_example_parses():
    example = readme_section("Instance files").split("```\n", 2)[1]
    inst = parse_instance(example)
    assert inst.label == "table1"
    assert [(e.id, e.radius_pm) for e in inst.radii] == [(1, 5000000)]
    entry = inst.radii[0]
    assert entry.nominals() == (1496400, 1521300)
    assert entry.lmins == (1496400, 1520300)
    assert entry.lmaxs == (1496400, 1522300)


def test_library_example_runs(tmp_path, monkeypatch, table1_text):
    code = readme_section("Library use").split("```python\n", 1)[1].split("```", 1)[0]
    (tmp_path / "table1.txt").write_text(table1_text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(code, names)
    instance, phase1, phase2 = names["instance"], names["phase1"], names["phase2"]
    assert (phase1.status, phase2.status) == ("optimal", "optimal")
    assert check_parallelism_solution(instance, phase1, 3) == []
    problem = SpacingProblem(3, phase1.parallelism, "refined")
    assert check_spacing_solution(instance, problem, phase2) == []


def test_cli_flags_exist():
    section = readme_section("Command line")
    examples = section.split("```sh\n", 1)[1].split("```", 1)[0]
    common = section.split("Common flags:", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", examples + common))
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices.values()
    accepted = {flag for sub in subparsers for flag in sub._option_string_actions}
    assert len(named) > 10
    assert named - accepted == set()


def test_dependency_pins_agree():
    # Read as text: CI runs Python 3.10, which has no tomllib.
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    ci = re.search(r"pip install (.+)", workflow).group(1).split()
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    extra = re.findall(r'"([^"]+)"', re.search(r"^test = \[(.*)\]$", pyproject, re.M).group(1))
    readme = readme_section("Install and test")
    line = re.search(r"pip install (.+?)\s+# test dependencies", readme).group(1).split()
    assert len(ci) == 2 and all("==" in pin for pin in ci)
    assert sorted(extra) == sorted(ci)
    assert sorted(line) == sorted(ci)
