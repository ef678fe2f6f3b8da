"""Conflict relation between resonances and per-radius carrier capacity.

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

    __slots__ = ("ids", "block", "_pos", "_items", "_count")

    def __init__(self, ids, block, items, count: int):
        self.ids: tuple[int, ...] = tuple(ids)
        self.block: tuple[tuple[int, ...], ...] = tuple(map(tuple, block))
        self._pos = {rid: p for p, rid in enumerate(self.ids)}
        self._items = tuple(items)  # (lmin, lmax, position, index), sorted
        self._count = count

    def cross_blocked_mask(self, radius_id: int, other_id: int) -> int:
        """Bitmask over indices of `radius_id` blocked by resonances of `other_id`."""
        return self.block[self._pos[radius_id]][self._pos[other_id]]

    def _iter_pairs(self):
        ids, items = self.ids, self._items
        for i, end in _overlaps(items):
            _, _, p, j = items[i]
            for _, _, p2, j2 in items[i + 1:end]:
                a, b = sorted(((ids[p], j), (ids[p2], j2)))
                yield ConflictPair(WITHIN if p == p2 else CROSS, a, b)

    @property
    def pairs(self) -> frozenset[ConflictPair]:
        return frozenset(self._iter_pairs())

    def cross_pairs(self) -> list[ConflictPair]:
        return sorted(p for p in self._iter_pairs() if p.kind == CROSS)

    def within_pairs(self) -> list[ConflictPair]:
        return sorted(p for p in self._iter_pairs() if p.kind == WITHIN)

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
        (r.lmin, r.lmax, pos[e.id], j)
        for e in instance.radii
        for j, r in enumerate(e.resonances)
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


def usable_resonances(
    instance: Instance,
    conflicts: ConflictSet,
    selected: set[int] | frozenset[int],
    radius_id: int,
) -> list[int]:
    """Indices of `radius_id` selectable when `selected` radii are all chosen.

    A resonance is usable iff it has no cross conflict with *any*
    resonance of any other selected radius (selecting it would otherwise
    force that radius out of the selection entirely).
    """
    if radius_id not in selected:
        raise ValueError(f"radius {radius_id} is not in the selected set")
    entry = instance.entry(radius_id)
    mask = (1 << len(entry.resonances)) - 1
    for other in selected:
        if other != radius_id:
            mask &= ~conflicts.cross_blocked_mask(radius_id, other)
    return [j for j in range(len(entry.resonances)) if mask >> j & 1]


def max_compatible_count(
    instance: Instance,
    conflicts: ConflictSet,
    usable: list[int],
    radius_id: int,
) -> tuple[int, tuple[int, ...]]:
    """Largest pairwise conflict-free subset of `usable` indices of one radius.

    Within one radius the conflict graph is an interval graph (each
    resonance is the interval [lmin, lmax] on the wavelength axis), so the
    maximum independent set is found exactly by the greedy activity
    selection scan over intervals in ascending lmax order; the brute-force
    oracle in the test suite guards that claim.  The returned witness is
    the lexicographically smallest maximum-cardinality subset (by index),
    which keeps solver output canonical.
    """
    entry = instance.entry(radius_id)
    res = entry.resonances
    indices = sorted(set(usable))
    for j in indices:
        if not 0 <= j < len(res):
            raise ValueError(f"index {j} out of range for radius {radius_id}")

    def greedy_count(cands: list[int], floor: int) -> int:
        # cands: indices with lmin > floor allowed; scan in ascending lmax.
        count, end = 0, floor
        for j in sorted(cands, key=lambda j: (res[j].lmax, j)):
            if res[j].lmin > end:
                count += 1
                end = res[j].lmax
        return count

    total = greedy_count(indices, -1)
    witness: list[int] = []
    end = -1
    remaining_needed = total
    for pos, j in enumerate(indices):
        if remaining_needed == 0:
            break
        if res[j].lmin <= end:
            continue
        new_end = max(end, res[j].lmax)
        tail = [k for k in indices[pos + 1:] if res[k].lmin > new_end]
        if 1 + greedy_count(tail, new_end) >= remaining_needed:
            witness.append(j)
            end = new_end
            remaining_needed -= 1
    return total, tuple(witness)
