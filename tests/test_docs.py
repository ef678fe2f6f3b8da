"""The README's "Performance envelope" must match the latest BENCH file,
its instance-file example must parse, and the test dependencies are
pinned alike in CI, pyproject and the README."""

import json
import re
from pathlib import Path

from conftest import exact
from wronoc import Resonance, parse_instance

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
    assert inst.radii[0].resonances == (
        exact(1496400), Resonance(1521300, 1520300, 1522300))


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
