"""Smoke test of the benchmark: one or two requests per workload.

Run from the repository root (it takes about half a minute):

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _measure(workload, trace, reference=None, max_requests=1):
    if reference is None:
        reference = run.load_reference(workload)
    return run.report(run.measure(workload, run.DEFAULT_SEED, 60.0, trace, reference,
                                  max_requests=max_requests, setup_rounds=1))


def test_workloads_match_the_spec():
    assert sorted(WORKLOAD_NAMES) == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, kind, capsys):
    result = _measure(workload, trace)
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1]) == result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    report = [line.split() for line in lines[:-1]]
    for name, unit in units.items():
        assert any(f[:1] == [name] and f[2:3] == [unit] for f in report), name
    assert any(f[:1] == ["failed_ratio"] for f in report)


def test_request_disagreeing_with_reference_counts_as_failed(capsys):
    # Requests 0 and 1 of the default seed, after one warm-up on instance 0;
    # only this test's copy of the reference for instance 1 is altered.
    reference = run.load_reference("p1-front")
    key = run.DEFAULT_SEED + 1
    reference[key] = {**reference[key], "objective": reference[key]["objective"] + 1}
    result = _measure("p1-front", False, reference, max_requests=2)
    lines = capsys.readouterr().out.splitlines()
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 1)
    ratio = next(line.split() for line in lines if line.split()[:1] == ["failed_ratio"])
    assert float(ratio[1]) == pytest.approx(1 / 3, abs=1e-4)
    assert "reference: objective" in " ".join(lines)
