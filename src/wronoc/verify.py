"""Independent constraint checkers for solver output.

These re-verify returned solutions straight from the instance data with
plain loops: no conflict sets, no bitmasks, no solver bookkeeping.  The
CLI refuses to emit any payload these reject, and the property suite runs
them over every solver and oracle result.  The Phase-1 interval rules
first run one sort-and-bisect pass each, which only decides whether
their pairwise loops, the source of every message, run at all.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate

from .model import Instance
from .parallelism import OPTIMAL, ParallelismSolution
from .spacing import BASE, REFINED, SpacingProblem, SpacingSolution


def _disjoint(intervals) -> bool:
    """Whether no two of the closed (lmin, lmax) `intervals` meet: taken by
    lmin, each starts above the furthest end before it."""
    reach = -math.inf
    for lo, hi in sorted(intervals):
        if lo <= reach:
            return False
        if hi > reach:
            reach = hi
    return True


def _cross_clear(instance: Instance, sel, selections) -> bool:
    """Whether no selected carrier's interval meets an interval of another
    selected radius.  Per radius, the others' intervals are sorted by lmin
    with a running max of lmax, and one bisect per carrier finds those that
    start at or below its lmax; it is clear when they all end below its
    lmin."""
    for rid in sel:
        others = sorted(
            interval
            for other in sel
            if other != rid
            for interval in zip(instance.entry(other).lmins, instance.entry(other).lmaxs)
        )
        starts = [lo for lo, _ in others]
        reach = list(accumulate((hi for _, hi in others), max))
        entry = instance.entry(rid)
        for j in selections.get(rid, ()):
            if 0 <= j < len(entry.lmins):
                k = bisect_right(starts, entry.lmaxs[j])
                if k and reach[k - 1] >= entry.lmins[j]:
                    return False
    return True


def check_parallelism_solution(
    instance: Instance, solution: ParallelismSolution, n_radii: int
) -> list[str]:
    """All constraint violations of a Phase-1 solution; empty means valid."""
    out: list[str] = []
    if not solution.selected_radii:
        if solution.status == OPTIMAL:
            out.append("status optimal but no radii selected")
        if solution.parallelism is not None:
            out.append("P given but no radii selected")
        return out
    ids = set(instance.ids())
    sel = solution.selected_radii
    if len(sel) != n_radii:
        out.append(f"selected {len(sel)} radii, expected {n_radii}")
    if len(set(sel)) != len(sel):
        out.append("selected radii contain duplicates")
    if any(r not in ids for r in sel):
        out.append("selected radii not all present in the instance")
        return out
    if list(sel) != sorted(sel):
        out.append("selected radii not sorted")
    for rid in sel:
        picks = solution.selections.get(rid, ())
        entry = instance.entry(rid)
        lmins, lmaxs = entry.lmins, entry.lmaxs
        if not picks:
            out.append(f"radius {rid}: empty selection")
            continue
        if list(picks) != sorted(set(picks)):
            out.append(f"radius {rid}: selection indices not ascending/unique")
        if any(not 0 <= j < len(lmins) for j in picks):
            out.append(f"radius {rid}: selection index out of range")
            continue
        if solution.counts.get(rid) != len(picks):
            out.append(f"radius {rid}: count does not match selection size")
        if _disjoint([(lmins[j], lmaxs[j]) for j in picks]):
            continue
        for a_pos in range(len(picks)):
            a = picks[a_pos]
            for b_pos in range(a_pos + 1, len(picks)):
                b = picks[b_pos]
                if lmins[a] <= lmaxs[b] and lmins[b] <= lmaxs[a]:
                    out.append(
                        f"radius {rid}: selected resonances {a} and {b} "
                        "conflict within the radius"
                    )
    # Cross-radius rule: a selected carrier must clear the *entire*
    # spectrum of every other selected radius, not just its carriers.
    if not _cross_clear(instance, sel, solution.selections):
        for rid in sel:
            entry = instance.entry(rid)
            for j in solution.selections.get(rid, ()):
                if not 0 <= j < len(entry.lmins):
                    continue
                lmin, lmax = entry.lmins[j], entry.lmaxs[j]
                for other in sel:
                    if other == rid:
                        continue
                    other_entry = instance.entry(other)
                    for k, (lo, hi) in enumerate(zip(other_entry.lmins, other_entry.lmaxs)):
                        if lmin <= hi and lo <= lmax:
                            out.append(
                                f"carrier ({rid},{j}) conflicts with resonance "
                                f"({other},{k})"
                            )
    if solution.counts and solution.parallelism != min(solution.counts.values()):
        out.append("parallelism does not equal the minimum per-radius count")
    return out


def check_spacing_solution(
    instance: Instance, problem: SpacingProblem, solution: SpacingSolution
) -> list[str]:
    """All constraint violations of a Phase-2 solution; empty means valid."""
    out: list[str] = []
    if not solution.selected_radii:
        if solution.status == OPTIMAL:
            out.append("status optimal but no radii selected")
        if solution.dist_pm is not None:
            out.append("dist_pm given but no radii selected")
        return out
    ids = set(instance.ids())
    sel = solution.selected_radii
    dist = solution.dist_pm
    if dist is None or dist < 0:
        out.append("missing or negative dist_pm")
        return out
    if len(sel) != problem.n_radii:
        out.append(f"selected {len(sel)} radii, expected {problem.n_radii}")
    if len(set(sel)) != len(sel):
        out.append("selected radii contain duplicates")
    if any(r not in ids for r in sel):
        out.append("selected radii not all present in the instance")
        return out
    if len(solution.matrix) != len(sel):
        out.append("matrix row count does not match selected radii")
        return out
    row_values: list[list[int]] = []
    for rid, row in zip(sel, solution.matrix):
        noms = instance.entry(rid).nominals()
        if len(row) != problem.n_lambda:
            out.append(f"radius {rid}: row has {len(row)} carriers, "
                       f"expected {problem.n_lambda}")
        if any(not 0 <= j < len(noms) for j in row):
            out.append(f"radius {rid}: carrier index out of range")
            return out
        vals = [noms[j] for j in row]
        if any(b <= a for a, b in zip(vals, vals[1:])):
            out.append(f"radius {rid}: row not strictly ascending")
        row_values.append(vals)
    for i in range(len(row_values) - 1):
        if row_values[i][0] + dist > row_values[i + 1][0]:
            out.append("first column does not ascend by at least dist_pm")
    flat = [v for vals in row_values for v in vals]
    for i in range(len(flat)):
        for j in range(i + 1, len(flat)):
            if len(flat) > 1 and abs(flat[i] - flat[j]) < dist:
                out.append(
                    f"carriers {flat[i]} and {flat[j]} closer than dist_pm"
                )
    for i, rid in enumerate(sel):
        for v in row_values[i]:
            for other in sel:
                if other == rid:
                    continue
                for w in instance.entry(other).nominals():
                    if problem.mode == BASE and v == w:
                        out.append(
                            f"carrier {v} of radius {rid} equals a resonance "
                            f"of radius {other}"
                        )
                    if problem.mode == REFINED and abs(v - w) < dist:
                        out.append(
                            f"carrier {v} of radius {rid} within dist_pm of a "
                            f"resonance of radius {other}"
                        )
    return out
