import pytest

from wronoc import Instance, RadiusEntry, Resonance, apply_delta, parallelism, spacing

# The four-radius example table: ring radii 5..8 um, nominals in pm.
TABLE1_PM = {
    1: (5_000_000, (1496400, 1521300, 1547100, 1573800, 1601400)),
    2: (6_000_000, (1500500, 1521300, 1542700, 1564800, 1587500, 1610800)),
    3: (7_000_000, (1503400, 1521300, 1539600, 1558400, 1577700, 1597400)),
    4: (8_000_000, (1505600, 1521300, 1537300, 1553700, 1570400, 1587500, 1604900)),
}


def build_instance(values, label="test", half_width=0, radius_pm=None):
    """Build an Instance from {radius_id: (nominal, ...)} with symmetric widths."""
    radii = []
    for rid in sorted(values):
        vals = values[rid]
        pm = (radius_pm or {}).get(rid, 0)
        radii.append(
            RadiusEntry(
                rid,
                pm,
                tuple(Resonance.widened(v, half_width) for v in sorted(vals)),
            )
        )
    return Instance(tuple(radii), label)


def table1_instance(half_width=0):
    radii = tuple(
        RadiusEntry(
            rid,
            pm,
            tuple(Resonance.widened(v, half_width) for v in vals),
        )
        for rid, (pm, vals) in TABLE1_PM.items()
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
