import gc
import os
import types
from pathlib import Path

import pytest
from hypothesis import settings

import wronoc
from wronoc import Instance, RadiusEntry, SplitMix64, apply_delta, parallelism, spacing

# CI sets HYPOTHESIS_PROFILE=ci: derandomised, every run draws the same
# examples, so a property failure there replays locally under the same
# profile.  Local runs keep the random default.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# The four-radius example table: ring radii 5..8 um, nominals in pm.
TABLE1_PM = {
    1: (5_000_000, (1496400, 1521300, 1547100, 1573800, 1601400)),
    2: (6_000_000, (1500500, 1521300, 1542700, 1564800, 1587500, 1610800)),
    3: (7_000_000, (1503400, 1521300, 1539600, 1558400, 1577700, 1597400)),
    4: (8_000_000, (1505600, 1521300, 1537300, 1553700, 1570400, 1587500, 1604900)),
}


def package_env():
    """The environment of a fresh interpreter that imports the wronoc under
    test: its source directory leads PYTHONPATH."""
    src = str(Path(wronoc.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def entry_of(rid, radius_pm, nominals, half_width=0):
    """A radius entry whose intervals reach `half_width` pm either side of
    each nominal."""
    nominals = tuple(nominals)
    return RadiusEntry(rid, radius_pm, nominals,
                       tuple(n - half_width for n in nominals),
                       tuple(n + half_width for n in nominals))


def columns(entry):
    """An entry's three columns: nominals, lmins, lmaxs."""
    return entry.nominals(), entry.lmins, entry.lmaxs


def build_instance(values, label="test", half_width=0, radius_pm=None):
    """Build an Instance from {radius_id: (nominal, ...)} with symmetric widths."""
    radii = tuple(
        entry_of(rid, (radius_pm or {}).get(rid, 0), sorted(values[rid]), half_width)
        for rid in sorted(values)
    )
    return Instance(radii, label)


def table1_instance(half_width=0):
    radii = tuple(
        entry_of(rid, pm, vals, half_width) for rid, (pm, vals) in TABLE1_PM.items()
    )
    return Instance(radii, "table1")


def radius1_instance(half_width=0):
    full = table1_instance(half_width)
    return Instance((full.radii[0],), "table1-radius1")


def with_delta(instance, half_width):
    return apply_delta(instance, half_width)


def restrict(instance, ids):
    """The instance cut down to the radii in `ids`."""
    return Instance(tuple(e for e in instance.radii if e.id in ids), instance.label)


def cyclic_garbage_of(solve) -> int:
    """How many objects `solve()` leaves that only the cycle collector frees."""
    gc.collect()
    gc.disable()
    try:
        solve()
        return gc.collect()
    finally:
        gc.enable()


# Random-small parameters are pinned: the 1500 pm value grid makes exact
# cross-radius collisions common (and guarantees rich conflict structure
# once intervals widen past 750 pm), and the coin-flip injection copies a
# wavelength across radii in about half of all instances.
_SMALL_BASE_PM = 1_500_000
_SMALL_GRID_PM = 1_500
_SMALL_SLOTS = 64


def generate_random_small(
    seed: int, n_radii: int = 4, max_resonances: int = 8
) -> Instance:
    """Small random instance for oracle testing; deterministic per seed."""
    if not 1 <= n_radii <= 6:
        raise ValueError("n_radii must be in 1..6")
    if not 2 <= max_resonances <= 12:
        raise ValueError("max_resonances must be in 2..12")
    rng = SplitMix64(seed)
    values: list[list[int]] = []
    for _ in range(n_radii):
        count = rng.randint(2, max_resonances)
        vals: set[int] = set()
        while len(vals) < count:
            vals.add(_SMALL_BASE_PM + _SMALL_GRID_PM * rng.randint(0, _SMALL_SLOTS - 1))
        values.append(sorted(vals))
    if n_radii >= 2 and rng.randint(0, 1) == 1:
        a = rng.randint(0, n_radii - 1)
        b = rng.randint(0, n_radii - 2)
        if b >= a:
            b += 1
        shared = values[a][rng.randint(0, len(values[a]) - 1)]
        if shared not in values[b]:
            drop = values[b][rng.randint(0, len(values[b]) - 1)]
            merged = set(values[b])
            merged.discard(drop)
            merged.add(shared)
            values[b] = sorted(merged)
    radii = tuple(entry_of(rid, 0, vals) for rid, vals in enumerate(values, 1))
    return Instance(radii, f"small seed={seed} n_radii={n_radii}")


# Test-side reference for the Phase-2 ladder argument, from the definitions.

def distance_ladder(instance, selected):
    """Every candidate optimum distance for a radius subset: 0 plus every
    pairwise |difference| among the nominals of the selected radii."""
    noms = sorted(n for rid in set(selected) for n in instance.entry(rid).nominals())
    return tuple(sorted({0} | {b - a for i, a in enumerate(noms) for b in noms[i + 1:]}))


def dist_upper_bound(instance, selected, n_lambda):
    """Even-spacing bound: (count-1) * dist cannot exceed the spectrum span
    of the selected radii, so dist <= floor(span / (count-1))."""
    total = len(set(selected)) * n_lambda
    if total < 2:
        raise ValueError("bound undefined for a single carrier")
    noms = [n for rid in set(selected) for n in instance.entry(rid).nominals()]
    return (max(noms) - min(noms)) // (total - 1)


@pytest.fixture
def clocks(monkeypatch):
    """Every `_Clock` the solvers make, in order, each with its step count."""
    made = []

    class RecordingClock(parallelism._Clock):
        def __init__(self, time_limit):
            super().__init__(time_limit)
            made.append(self)

    monkeypatch.setattr(parallelism, "_Clock", RecordingClock)
    monkeypatch.setattr(spacing, "_Clock", RecordingClock)
    return made


# What the solvers own: their clock, search tables, probes and entry points.
# An oracle that named one of them would share code with what it checks.
SOLVER_NAMES = {
    "_Clock", "_Timeout", "tick", "_walk", "_Mis", "_Workspace", "_seed", "conflicts_of",
    "_admissible", "_packing", "_packs", "_greedy", "_witness", "_completes", "_ladder",
    "_deepest_hole", "_hole_bounds",
}


def solver_names_reached(func):
    """The solver names (`SOLVER_NAMES`, ``solve_*``) that `func` uses, in
    its nested code objects (comprehensions, closures) too, and in every
    package function it reaches through them."""
    names, funcs = set(), [func]
    for f in funcs:
        codes = [f.__code__]
        for code in codes:
            codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            names.update(code.co_names)
            for name in code.co_names:
                g = f.__globals__.get(name)
                if (isinstance(g, types.FunctionType) and g.__module__.startswith("wronoc")
                        and g not in funcs):
                    funcs.append(g)
    return {n for n in names if n in SOLVER_NAMES or n.startswith("solve_")}


@pytest.fixture
def table1():
    return table1_instance()


def table1_file_text():
    """The four-radius example table in the instance file format."""
    lines = ["# label: table1"]
    for rid, (pm, vals) in TABLE1_PM.items():
        lines.append(f"radius {rid} {pm}")
        lines.extend(f"resonance {rid} {v}" for v in vals)
    return "\n".join(lines) + "\n"


@pytest.fixture
def table1_text():
    return table1_file_text()


@pytest.fixture
def table1_file(tmp_path, table1_text):
    path = tmp_path / "table1.txt"
    path.write_text(table1_text, encoding="utf-8")
    return str(path)
