"""Rejection paths of the independent checkers: each case breaks one rule
of a valid table1 solution and expects exactly the messages that causes."""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wronoc import Instance, RadiusEntry, verify
from wronoc.parallelism import ParallelismSolution
from wronoc.spacing import SpacingProblem, SpacingSolution
from wronoc.verify import (_cross_clear, _disjoint, check_parallelism_solution,
                           check_spacing_solution)

# The Phase-1 optimum of table1 at two radii: P = 5.
PHASE1 = ParallelismSolution(
    (2, 3), {2: (0, 2, 3, 4, 5), 3: (0, 2, 3, 4, 5)}, {2: 5, 3: 5}, 5
)
# The base Phase-2 optimum of table1 at 2x2: 1500500 and 1610800 of radius
# 2, 1539600 and 1577700 of radius 3.
PHASE2 = SpacingSolution((2, 3), ((0, 5), (2, 4)), 33100)

PHASE1_CASES = {
    "radius-count": (
        {}, 3, ["selected 2 radii, expected 3"],
    ),
    "duplicate-radii": (
        {"selected_radii": (2, 2)}, 2, ["selected radii contain duplicates"],
    ),
    "unknown-id": (
        {"selected_radii": (2, 9)}, 2, ["selected radii not all present in the instance"],
    ),
    "unsorted": (
        {"selected_radii": (3, 2)}, 2, ["selected radii not sorted"],
    ),
    "empty-selection": (
        {"selections": {2: (), 3: (0, 2, 3, 4, 5)}}, 2, ["radius 2: empty selection"],
    ),
    "indices-not-ascending": (
        {"selections": {2: (2, 0, 3, 4, 5), 3: (0, 2, 3, 4, 5)}}, 2,
        ["radius 2: selection indices not ascending/unique"],
    ),
    "index-out-of-range": (
        {"selections": {2: (0, 2, 3, 4, 9), 3: (0, 2, 3, 4, 5)}}, 2,
        ["radius 2: selection index out of range"],
    ),
    "count-not-selection-size": (
        {"counts": {2: 6, 3: 5}}, 2, ["radius 2: count does not match selection size"],
    ),
    # Point resonances meet only themselves, so a repeated pick is the
    # within-radius conflict a valid table1 selection can be given.
    "within-radius-conflict": (
        {"selections": {2: (0, 0, 3, 4, 5), 3: (0, 2, 3, 4, 5)}}, 2,
        [
            "radius 2: selection indices not ascending/unique",
            "radius 2: selected resonances 0 and 0 conflict within the radius",
        ],
    ),
    # 1521300 pm is resonance 1 of both radius 2 and radius 3.
    "cross-conflict": (
        {"selections": {2: (1, 2, 3, 4, 5), 3: (0, 2, 3, 4, 5)}}, 2,
        ["carrier (2,1) conflicts with resonance (3,1)"],
    ),
    "p-not-min-count": (
        {"parallelism": 4}, 2,
        ["parallelism does not equal the minimum per-radius count"],
    ),
}

PHASE2_CASES = {
    "optimal-without-radii": (
        {"selected_radii": (), "matrix": (), "dist_pm": None}, 2,
        ["status optimal but no radii selected"],
    ),
    "radius-count": (
        {}, 3, ["selected 2 radii, expected 3"],
    ),
    # Radius 2 twice holds 1587500 and 1610800, 23300 pm apart.
    "duplicate-radii": (
        {"selected_radii": (2, 2), "dist_pm": 23300}, 2, ["selected radii contain duplicates"],
    ),
    "unknown-id": (
        {"selected_radii": (2, 9)}, 2, ["selected radii not all present in the instance"],
    ),
    "row-length": (
        {"matrix": ((0, 5), (2,))}, 2, ["radius 3: row has 1 carriers, expected 2"],
    ),
    "index-out-of-range": (
        {"matrix": ((0, 5), (2, 9))}, 2, ["radius 3: carrier index out of range"],
    ),
    "row-not-ascending": (
        {"matrix": ((0, 5), (4, 2))}, 2, ["radius 3: row not strictly ascending"],
    ),
    "first-column": (
        {"selected_radii": (3, 2), "matrix": ((2, 4), (0, 5))}, 2,
        ["first column does not ascend by at least dist_pm"],
    ),
    "carriers-too-close": (
        {"dist_pm": 33200}, 2, ["carriers 1610800 and 1577700 closer than dist_pm"],
    ),
}


class TestCheckParallelism:
    def test_valid_solution_passes(self, table1):
        assert check_parallelism_solution(table1, PHASE1, 2) == []

    @pytest.mark.parametrize("name", sorted(PHASE1_CASES))
    def test_each_rule_rejects(self, table1, name):
        changes, n_radii, want = PHASE1_CASES[name]
        sol = dataclasses.replace(PHASE1, **changes)
        assert check_parallelism_solution(table1, sol, n_radii) == want


class TestCheckSpacing:
    def test_valid_solution_passes(self, table1):
        assert check_spacing_solution(table1, SpacingProblem(2, 2, "base"), PHASE2) == []

    @pytest.mark.parametrize("name", sorted(PHASE2_CASES))
    def test_each_rule_rejects(self, table1, name):
        changes, n_radii, want = PHASE2_CASES[name]
        sol = dataclasses.replace(PHASE2, **changes)
        problem = SpacingProblem(n_radii, 2, "base")
        assert check_spacing_solution(table1, problem, sol) == want


@st.composite
def interval_solutions(draw):
    """2-4 radii of closed intervals of random widths on a narrow band, so
    they often meet within a radius and across radii, and a Phase-1
    solution over some of them whose picks may also repeat an index or
    overrun the spectrum."""
    n = draw(st.integers(2, 4))
    radii = []
    for rid in range(1, n + 1):
        size = draw(st.integers(1, 6))
        nominals = sorted(draw(st.sets(st.integers(1, 60), min_size=size, max_size=size)))
        lmins = [v - draw(st.integers(0, 4)) for v in nominals]
        lmaxs = [v + draw(st.integers(0, 4)) for v in nominals]
        radii.append(RadiusEntry(rid, 0, nominals, lmins, lmaxs))
    inst = Instance(tuple(radii), "intervals")
    sel = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=n))))
    selections = {}
    for rid in sel:
        size = len(inst.entry(rid).lmins)
        selections[rid] = tuple(draw(st.lists(st.integers(0, size), min_size=1, max_size=4)))
    counts = {rid: len(picks) for rid, picks in selections.items()}
    return inst, ParallelismSolution(sel, selections, counts, min(counts.values()))


class TestIntervalFastPaths:
    """The Phase-1 checker's sort-and-bisect passes only decide whether the
    pairwise loops run; with them forced to say "run", the loops alone
    give the reference messages."""

    @settings(max_examples=300, deadline=None)
    @given(interval_solutions())
    def test_fast_paths_agree_with_the_loops(self, case):
        inst, sol = case
        k = len(sol.selected_radii)
        with mock.patch.object(verify, "_disjoint", lambda intervals: False), \
                mock.patch.object(verify, "_cross_clear", lambda *args: False):
            loops = check_parallelism_solution(inst, sol, k)
        assert check_parallelism_solution(inst, sol, k) == loops
        for rid in sol.selected_radii:
            entry, picks = inst.entry(rid), sol.selections[rid]
            if all(0 <= j < len(entry.lmins) for j in picks):
                within = any(m.startswith(f"radius {rid}: selected resonances") for m in loops)
                intervals = [(entry.lmins[j], entry.lmaxs[j]) for j in picks]
                assert _disjoint(intervals) is not within
        cross = any(m.startswith("carrier (") for m in loops)
        assert _cross_clear(inst, sol.selected_radii, sol.selections) is not cross

    def test_touching_intervals_meet(self):
        # Closed intervals: [1, 3] and [3, 5] share 3, in either rule.
        assert not _disjoint([(3, 5), (1, 3)])
        assert _disjoint([(1, 2), (3, 5)])
        inst = Instance((RadiusEntry(1, 0, (2,), (1,), (3,)),
                         RadiusEntry(2, 0, (4,), (3,), (5,))), "touching")
        assert not _cross_clear(inst, (1, 2), {1: (0,), 2: ()})
        assert not _cross_clear(inst, (1, 2), {1: (), 2: (0,)})
