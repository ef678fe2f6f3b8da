"""Conflict relation between resonances.

Two resonances conflict when their closed uncertainty intervals
[lmin, lmax] intersect.  Cross-radius conflicts are what cause routing
faults: selecting a carrier that (nearly) coincides with any resonance of
another selected ring would divert the signal onto the wrong path.
Within-radius conflicts limit how many carriers one ring can host at the
same time.

Under a symmetric half-width policy this means two nominals conflict when
they are at most ``2 * half_width`` apart, since both intervals widen by
the half width.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .model import Instance

CROSS = "cross"
WITHIN = "within"


@dataclass(frozen=True, order=True)
class ConflictPair:
    """One conflicting pair; endpoints are (radius id, resonance index)."""

    kind: str
    first: tuple[int, int]
    second: tuple[int, int]


class ConflictSet:
    """Cross-radius keep masks of an instance; conflict pairs on demand.

    ``ids`` lists the radius ids in ascending order, and a radius's
    position is its place in that list.  ``keep[b][a]`` is the bitmask over
    resonance indices of the radius at position ``a`` that the radius at
    position ``b`` leaves usable: every bit is set except those of the
    resonances that some resonance of radius ``b`` conflicts with, and the
    diagonal is ``-1``.  The solver reads this table as it is.  The pairs
    are rebuilt from the sorted intervals each time they are asked for, so
    nothing is ever written after construction and a set can be shared
    across solves.
    """

    __slots__ = ("ids", "keep", "_sweep", "_count")

    def __init__(self, ids, keep, sweep, count: int):
        self.ids: tuple[int, ...] = tuple(ids)
        self.keep: tuple[tuple[int, ...], ...] = tuple(map(tuple, keep))
        self._sweep = sweep  # (lmins, lmaxs, positions, indices), sorted by lmin
        self._count = count

    def _iter_pairs(self):
        ids = self.ids
        lmins, lmaxs, positions, indices = self._sweep
        for i, end in _overlaps(lmins, lmaxs):
            p, j = positions[i], indices[i]
            for k in range(i + 1, end):
                p2 = positions[k]
                a, b = sorted(((ids[p], j), (ids[p2], indices[k])))
                yield ConflictPair(WITHIN if p == p2 else CROSS, a, b)

    def pairs(self) -> list[ConflictPair]:
        """Every conflicting pair, sorted: the cross pairs, then the within
        pairs, since pairs order by kind first."""
        return sorted(self._iter_pairs())

    def __len__(self) -> int:
        return self._count


def _overlaps(lmins, lmaxs):
    """For each interval i of columns sorted by lmin, the end of the run of
    later intervals that meet it: they start no later than interval i ends."""
    return [(i, bisect_right(lmins, hi, i + 1)) for i, hi in enumerate(lmaxs)]


def conflicts_of(instance: Instance) -> ConflictSet:
    """Compute the conflict relation of an instance as keep masks.

    Two resonances conflict iff their closed intervals intersect; equal
    nominals always conflict since both intervals contain the nominal.
    Uses a sweep over intervals sorted by lmin, so the cost is
    O(n log n + pairs) rather than a full pairwise scan.
    """
    ids = sorted(instance.ids())
    pos = {rid: p for p, rid in enumerate(ids)}
    flat_pos, flat_idx, flat_lo, flat_hi = [], [], [], []
    for e in instance.radii:
        n = len(e.lmins)
        flat_pos += [pos[e.id]] * n
        flat_idx += range(n)
        flat_lo += e.lmins
        flat_hi += e.lmaxs
    order = sorted(range(len(flat_lo)), key=flat_lo.__getitem__)
    lmins = [flat_lo[f] for f in order]
    lmaxs = [flat_hi[f] for f in order]
    positions = [flat_pos[f] for f in order]
    indices = [flat_idx[f] for f in order]
    cleared = [~(1 << j) for j in indices]
    keep = [[-1] * len(ids) for _ in ids]
    count = 0
    for i, end in _overlaps(lmins, lmaxs):
        count += end - i - 1
        p, bit = positions[i], cleared[i]
        row = keep[p]
        for k in range(i + 1, end):
            p2 = positions[k]
            if p2 != p:
                row[p2] &= cleared[k]
                keep[p2][p] &= bit
    return ConflictSet(ids, keep, (lmins, lmaxs, positions, indices), count)
