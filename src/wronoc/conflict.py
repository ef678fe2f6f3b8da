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
    """Cross-radius block masks of an instance; conflict pairs on demand.

    ``ids`` lists the radius ids in ascending order, and a radius's
    position is its place in that list.  ``block[a][b]`` is the bitmask over
    resonance indices of the radius at position ``a`` that some resonance
    of the radius at position ``b`` conflicts with; the diagonal is 0.  The
    solvers read only these masks.  The pairs themselves are rebuilt from
    the sorted intervals each time they are asked for, so nothing is ever
    written after construction and a set can be shared across solves.
    """

    __slots__ = ("ids", "block", "_items", "_count")

    def __init__(self, ids, block, items, count: int):
        self.ids: tuple[int, ...] = tuple(ids)
        self.block: tuple[tuple[int, ...], ...] = tuple(map(tuple, block))
        self._items = tuple(items)  # (lmin, lmax, position, index), sorted
        self._count = count

    def _iter_pairs(self):
        ids, items = self.ids, self._items
        for i, end in _overlaps(items):
            _, _, p, j = items[i]
            for _, _, p2, j2 in items[i + 1:end]:
                a, b = sorted(((ids[p], j), (ids[p2], j2)))
                yield ConflictPair(WITHIN if p == p2 else CROSS, a, b)

    def pairs(self) -> list[ConflictPair]:
        """Every conflicting pair, sorted: the cross pairs, then the within
        pairs, since pairs order by kind first."""
        return sorted(self._iter_pairs())

    def __len__(self) -> int:
        return self._count


def _overlaps(items):
    """For each item i of a list sorted by lmin, the end of the run of later
    items whose intervals meet it: they start no later than item i ends."""
    lmins = [t[0] for t in items]
    return [(i, bisect_right(lmins, t[1], i + 1)) for i, t in enumerate(items)]


def conflicts_of(instance: Instance) -> ConflictSet:
    """Compute the conflict relation of an instance as block masks.

    Two resonances conflict iff their closed intervals intersect; equal
    nominals always conflict since both intervals contain the nominal.
    Uses a sweep over intervals sorted by lmin, so the cost is
    O(n log n + pairs) rather than a full pairwise scan.
    """
    ids = sorted(instance.ids())
    pos = {rid: p for p, rid in enumerate(ids)}
    items = sorted(
        (lo, hi, pos[e.id], j)
        for e in instance.radii
        for j, (lo, hi) in enumerate(zip(e.lmins, e.lmaxs))
    )
    block = [[0] * len(ids) for _ in ids]
    count = 0
    for i, end in _overlaps(items):
        _, _, p, j = items[i]
        count += end - i - 1
        row, bit = block[p], 1 << j
        for _, _, p2, j2 in items[i + 1:end]:
            if p2 != p:
                row[p2] |= bit
                block[p2][p] |= 1 << j2
    return ConflictSet(ids, block, items, count)

