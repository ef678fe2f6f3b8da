"""Phase 1: maximise the minimum per-radius carrier count.

Pick exactly ``n_radii`` ring radii and, for each, a set of mutually
compatible resonances, so that no chosen carrier conflicts with any
resonance of another chosen radius.  The objective is max-min: the
network-wide parallelism is bounded by the selected radius with the
fewest usable carriers.

The search is depth-first branch and bound over radius subsets.  Radii
are pre-ordered by descending standalone capacity.  Along a branch, each
chosen radius keeps a bitmask of resonances still usable against the
other chosen radii; adding a radius can only shrink these masks, so the
running minimum of the per-radius capacities is a valid upper bound for
every completion of the branch.  A branch dies when that bound cannot
beat the incumbent, when a chosen radius drops to zero capacity, or when
too few viable candidates remain.  Each node is a frame of `_walk`, the
explicit stack every search of the package runs on.

Two exact rules keep the tree small.  A radius's capacity never exceeds
the count of its usable resonances, and equals it when no two of them
overlap, so every node test of "capacity > floor" counts bits instead
(at floor 0, as throughout an infeasibility proof, it is just "mask
nonempty"); the exact MIS runs only at a leaf, which is skipped when its
min capacity does not beat the floor.  And at every node that still
needs three or more radii, a greedy colouring of the candidate pool
bounds how many of them can still be chosen together (the MCQ/BBMC
colouring bound of Tomita & Seki 2003 and San Segundo et al. 2011): a
completion is a clique of that many candidates in a compatibility graph,
and a pool suffix coloured with fewer colours holds none.  Above floor 0
the vertices are radii, compatible when each keeps more than `floor`
resonances against the other (a count that bounds its capacity), so the
graph has every edge of the capacity graph.  At floor 0 the vertices are
the pool's resonances, two of different radii compatible when neither
meets an interval of the other's radius.  A leaf above floor 0 keeps one
resonance per radius, pairwise compatible, so there the clique question
is exact; the radius graph only relaxes it.  Both rules cut only
subtrees without a leaf above the floor, so the incumbents, and the
answer, are those of the plain search.

Only radii that can matter get a conflict table.  A solution of value V
uses only radii whose standalone capacity is at least V, so a proven
lower bound L lets the table skip every radius of capacity below L (the
core-number pruning of maximum-clique solvers; Rossi, Gleich &
Gebremedhin 2015).  L comes from a seed: the first ``n_radii`` radii in
capacity order, chosen together, are worth the least capacity their
masks keep against each other.  The seed reads them from a table like
the search's, built over its first 2, 4, 8, ... radii in turn, and stops
as soon as its value falls to the least capacity of the instance, where
it could drop no radius; the table is then built over every radius, and
the search starts at floor 0.  Otherwise the seed is the incumbent, and
when more than 2 * ``n_radii`` radii reach L, one more doubling comes
first: the value search runs over the first 2 * ``n_radii`` radii in
capacity order, from floor L, and its value V (L when it finds nothing
better) leaves only the radii of capacity at least V.  Unless the prefix
already holds them all, the table is built over them and the search runs
again from floor V, so it never repeats the prefix's proof.  With 2 *
``n_radii`` radii or fewer at L, the one table holds them, and the
search starts at floor L - 1.  Either way the last table holds every
radius that can beat or tie the value, so it proves the optimum and the
canonical pass below runs on it.

Among equally good optima the solver returns the lexicographically
smallest solution (by sorted radius ids, then per-radius selections).
Branch and bound in capacity order cannot promise that on its own, so a
second, cheap pass re-derives the canonical subset: the same search, run
in ascending id order with the floor just below the proven optimum, stops
at the first subset sustaining it.
"""

from __future__ import annotations

import math
import operator
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations

from .conflict import conflicts_of
from .model import Instance

OPTIMAL = "optimal"
INCUMBENT_TIMEOUT = "incumbent-timeout"
INFEASIBLE = "infeasible"


def _status(found: bool, timed_out: bool) -> str:
    """The status of a solve, either phase: a timeout wins, else whether a
    solution was found."""
    if timed_out:
        return INCUMBENT_TIMEOUT
    return OPTIMAL if found else INFEASIBLE


@dataclass(frozen=True)
class SolveConfig:
    """Knobs shared by both solve phases."""

    time_limit: float = 0.0  # seconds of wall time; 0 disables the limit
    trim_to_p: bool = False

    def __post_init__(self):
        # NaN fails every comparison; infinity is no limit, and no JSON number.
        if not 0 <= self.time_limit < math.inf:
            raise ValueError("time_limit must be >= 0 and finite")


@dataclass(frozen=True)
class ParallelismSolution:
    selected_radii: tuple[int, ...]
    selections: dict[int, tuple[int, ...]] = field(default_factory=dict)
    counts: dict[int, int] = field(default_factory=dict)
    parallelism: int | None = None
    status: str = OPTIMAL


class _Timeout(Exception):
    """Raised by `_Clock.tick` once the time limit has passed."""


class _Clock:
    """The time limit of one solve, shared by every search loop in it.

    Each loop calls `tick` once per step.  The clock is read on the first
    step, so a spent limit stops a search at once, and then on every
    256th, so a search overruns its limit by at most 256 steps.  `check`
    reads it every time, before work far longer than a step.  A time
    limit of 0 never expires.
    """

    __slots__ = ("deadline", "steps")

    def __init__(self, time_limit: float):
        self.deadline = time.monotonic() + time_limit if time_limit else math.inf
        self.steps = 0

    def check(self) -> None:
        if time.monotonic() > self.deadline:
            raise _Timeout

    def tick(self) -> None:
        if not self.steps & 255:
            self.check()
        self.steps += 1


def _walk(frame, *args) -> bool:
    """Depth-first search on an explicit stack, so no depth meets Python's
    recursion limit.  `frame(*args)` is the root frame: a generator that
    yields each child frame's arguments (not the frame: a frame function
    naming itself is a reference cycle), or None to end the whole walk.
    Returns whether a frame ended it."""
    stack = [frame(*args)]
    while stack:
        for child in stack[-1]:
            if child is None:
                return True
            stack.append(frame(*child))
            break
        else:
            stack.pop()
    return False


class _Mis:
    """Maximum independent sets of one radius's usable-index masks.

    Within one radius the conflict graph is an interval graph (each
    resonance is its interval [lmin, lmax]).  Resonances ascend by nominal
    and each interval holds its nominal, so compatible resonances lie in
    index order: a compatible subset is a chain of indices, each interval
    ending before the next begins.  When no two of the radius's intervals
    meet, each interval ends before the next begins and every mask is a
    chain, so its size is its bit count.  Otherwise one longest-chain pass
    over the mask gives both the size and the witness; the brute-force
    tests guard both paths.
    """

    __slots__ = ("lmins", "lmaxs", "disjoint")

    def __init__(self, lmins: tuple[int, ...], lmaxs: tuple[int, ...]):
        self.lmins, self.lmaxs = lmins, lmaxs
        # Closed intervals: touching endpoints conflict.
        self.disjoint = all(map(operator.lt, lmaxs, lmins[1:]))

    def _chains(self, mask: int) -> tuple[list[int], int]:
        """``longest[j]``, the length of the longest chain in `mask` that
        starts at j, and the longest chain's length, in one right-to-left
        pass: ``reach[c]`` is minus the largest lmin that starts a chain
        of c + 1 among the indices passed, which never decreases with c."""
        lmins, lmaxs = self.lmins, self.lmaxs
        longest, reach = [0] * len(lmins), []
        for j in range(len(lmins) - 1, -1, -1):
            if mask >> j & 1:
                c = bisect_left(reach, -lmaxs[j])  # chains starting after lmax
                longest[j] = c + 1
                if c == len(reach):
                    reach.append(-lmins[j])
                elif -lmins[j] < reach[c]:
                    reach[c] = -lmins[j]
        return longest, len(reach)

    def size(self, mask: int) -> int:
        if self.disjoint:
            return mask.bit_count()
        return self._chains(mask)[1]

    def witness(self, mask: int) -> tuple[int, ...]:
        """The lexicographically smallest maximum compatible subset of `mask`.

        On overlapping radii the upward pass takes each j that clears the
        last pick and still starts a chain long enough to reach the
        maximum.
        """
        n = len(self.lmins)
        if self.disjoint:
            return tuple(j for j in range(n) if mask >> j & 1)
        lmins, lmaxs = self.lmins, self.lmaxs
        longest, need = self._chains(mask)
        picks, end = [], None
        for j in range(n):
            if need and longest[j] == need and (end is None or lmins[j] > end):
                picks.append(j)
                need -= 1
                end = lmaxs[j]
        return tuple(picks)


class _Workspace:
    """Per-solve tables of the radii at the ascending positions `kept`, by
    place in `kept` (see `ConflictSet`): the ids, full index masks, MIS
    routines, and the ``keep`` table, the one source of Phase-1 masks."""

    def __init__(self, entries, full, mis, kept: list[int]):
        table = conflicts_of(Instance([entries[p] for p in kept]))
        self.ids, self.keep = table.ids, table.keep
        self.full, self.mis = [full[p] for p in kept], [mis[p] for p in kept]

    def search(self, order: list[int], n_radii: int, floor: int, first: bool,
               clock: _Clock) -> tuple[int, list[int] | None, bool]:
        """Depth-first search over size-`n_radii` subsets of `order`, in its order.

        A branch dies as soon as a usable-resonance count on it is <=
        `floor`, or when the colouring bound (or, near the leaves, the pool
        size) shows that too few candidates remain.  The colouring works on
        the pool's resonances at floor 0, where it is exact, and on its
        radii above (see `colour_limit`).  A leaf whose min capacity beats
        the floor becomes the incumbent and raises the floor to that
        capacity; with `first` the search stops there.
        Pool entries carry their mask against the chosen radii, so choosing
        a radius updates each in O(1).  Returns the floor, the incumbent's
        sorted positions and whether the time limit cut the search short.
        """
        keep, mis, tick, check = self.keep, self.mis, clock.tick, clock.check
        incumbent: list[int] | None = None

        def colour_limit(pool, need: int) -> int:
            """Greedy sequential colouring of the pool from its tail forward.
            A leaf above the floor picks `need` pairwise compatible entries,
            one per colour, so no candidate whose pool suffix takes fewer
            than `need` colours can reach one.  Returns the index after the
            last candidate that can, or 0.

            At floor 0 the vertices are the pool's resonances: (r, j) and
            (u, i) can both be kept just when u != r, j is in ``keep[u][r]``
            and i in ``keep[r][u]``.  A completion above floor 0 keeps one
            resonance per radius, pairwise compatible, so it needs a
            `need`-clique of this graph; among the pool's radii that test is
            exact, where the radius graph only relaxes it.  A class holds,
            per radius u, the bits of u's resonances in it.  One radius's
            own resonances are never adjacent, so an entry passes through
            the classes with its whole mask at once: the bits compatible
            with no member join a class, and whatever is left opens one new
            class, as the greedy taking one resonance at a time would colour
            them.

            Above floor 0 the vertices are radii, compatible when each keeps
            more than `floor` resonances against the other.  A resonance
            count bounds the capacity from above, so this graph has every
            edge of the capacity graph and the bound stays exact.  One
            resonance per radius cannot ask for more than `floor`, and
            colouring resonances at every floor tripled the steps of a
            delta-100, 10-radius desk solve."""
            check()  # a pass costs O(pool^2) mask tests, far more than a tick
            if not floor:
                classes: list[list[tuple[int, int]]] = []
                for i in range(len(pool) - 1, -1, -1):
                    r, rem = pool[i]
                    kept = keep[r]
                    for cls in classes:
                        join = rem  # the bits compatible with no member yet
                        for u, b in cls:
                            if b & kept[u]:
                                join &= ~keep[u][r]
                                if not join:
                                    break
                        else:
                            cls.append((r, join))
                            rem ^= join
                            if not rem:
                                break
                    if rem:
                        classes.append([(r, rem)])
                        if len(classes) == need:
                            return i + 1
                return 0
            classes = []
            for i in range(len(pool) - 1, -1, -1):
                r, m = pool[i]
                kept = keep[r]
                for cls in classes:
                    for r2, m2 in cls:
                        if ((m & keep[r2][r]).bit_count() > floor
                                and (m2 & kept[r2]).bit_count() > floor):
                            break
                    else:
                        cls.append((r, m))
                        break
                else:
                    classes.append([(r, m)])
                    if len(classes) == need:
                        return i + 1
            return 0

        def dfs(pool, chosen: list[int], masks: list[int]):
            """Frame of `_walk` over the completions of `chosen` from `pool`."""
            nonlocal floor, incumbent
            need = n_radii - len(chosen)
            # Below the root, a pool of exactly `need` is one subset: the node
            # tests settle it, where colouring it costs O(need^2) a level.
            if need >= 3 and (len(pool) > need or not chosen):
                limit = colour_limit(pool, need)
            else:
                limit = len(pool) - need + 1
            for i, (rid, mask_r) in enumerate(pool):
                tick()
                if i >= limit:
                    return
                if mask_r.bit_count() <= floor:
                    continue
                kept = keep[rid]
                new_masks = []
                for c, m in zip(chosen, masks):
                    m2 = m & kept[c]
                    if m2.bit_count() <= floor:
                        break
                    new_masks.append(m2)
                else:
                    new_masks.append(mask_r)
                    branch = chosen + [rid]
                    if need == 1:
                        low = min(mis[c].size(m) for c, m in zip(branch, new_masks))
                        if low > floor:
                            floor, incumbent = low, sorted(branch)
                            if first:
                                yield None
                        continue
                    child = [(r2, m2) for r2, m in pool[i + 1:]
                             if (m2 := m & kept[r2]).bit_count() > floor]
                    if len(child) >= need - 1:
                        yield child, branch, new_masks

        try:
            _walk(dfs, [(p, self.full[p]) for p in order], [], [])
        except _Timeout:
            return floor, incumbent, True
        return floor, incumbent, False

    def rows(self, subset: list[int]) -> dict[int, tuple[int, ...]]:
        """Radius id -> canonical witness for the sorted positions `subset`."""
        rows = {}
        for c in subset:
            mask = self.full[c]
            for o in subset:
                mask &= self.keep[o][c]  # keep[c][c] is ~0
            rows[self.ids[c]] = self.mis[c].witness(mask)
        return rows


def _solution(rows: dict[int, tuple[int, ...]] | None, timed_out: bool):
    """The solution selecting `rows` (radius id -> indices), or the empty one."""
    status = _status(rows is not None, timed_out)
    if rows is None:
        return ParallelismSolution((), {}, {}, None, status)
    counts = {rid: len(picks) for rid, picks in rows.items()}
    p = min(counts.values())
    return ParallelismSolution(tuple(sorted(rows)), rows, counts, p, status)


def _seed(entries, mis, full, caps, seed: list[int], clock: _Clock) -> int:
    """The value of the radii `seed` chosen together: the least capacity
    among their masks against each other, or 0 for no seed.

    It is read from the workspaces of the first 2, 4, 8, ... radii of
    `seed`, then of all of them.  A longer prefix can only shrink the masks,
    so the value only falls.  Once it is at most the least capacity of the
    instance, a bound that low would drop no radius, and the evaluation
    stops with no seed.  Doubling keeps an early stop cheap.
    """
    least, k = min(caps), min(2, len(seed))
    while True:
        clock.check()
        ws = _Workspace(entries, full, mis, sorted(seed[:k]))
        low = min(map(len, ws.rows(range(k)).values()))
        if low <= least:
            return 0
        if k == len(seed):
            return low
        k = min(2 * k, len(seed))


def _solve(instance: Instance, n_radii: int, clock: _Clock):
    """The rows of the solve (radius id -> indices), or None, and whether
    the time limit cut it short."""
    entries = sorted(instance.radii, key=operator.attrgetter("id"))
    mis = [_Mis(e.lmins, e.lmaxs) for e in entries]
    full = [(1 << len(e.lmins)) - 1 for e in entries]
    caps = [m.size(f) for m, f in zip(mis, full)]
    by_capacity = sorted(range(len(entries)), key=lambda p: (-caps[p], p))
    try:
        best = _seed(entries, mis, full, caps, by_capacity[:n_radii], clock)
    except _Timeout:
        return None, True
    # A solution worth `best` or more uses only radii of capacity >= best,
    # the incumbent's among them: a prefix of the capacity order.  Past
    # 2 * n_radii radii, a search over those first may raise `best` and so
    # shorten the prefix; each later search starts at floor `best`, so it
    # never repeats an earlier one's proof.
    incumbent = sorted(by_capacity[:n_radii]) if best else None  # positions in `entries`
    n, floor = sum(cap >= best for cap in caps), max(best - 1, 0)
    if best and n > 2 * n_radii:
        n, floor = 2 * n_radii, best
    while True:  # at most twice: the last table holds every radius that can tie
        kept = sorted(by_capacity[:n])
        ws = _Workspace(entries, full, mis, kept)
        at = {p: i for i, p in enumerate(kept)}
        floor, found, timed_out = ws.search([at[p] for p in by_capacity[:n]], n_radii,
                                            floor, False, clock)
        if found is not None:
            best, incumbent = floor, [kept[i] for i in found]
        if timed_out or (wide := sum(cap >= best for cap in caps)) <= n:
            break
        n = wide
    if incumbent is not None and not timed_out:
        # The value is proven; the first subset in ascending id order
        # that sustains it is the canonical witness.
        root = [i for i, p in enumerate(kept) if caps[p] >= best]
        _, canonical, timed_out = ws.search(root, n_radii, best - 1, True, clock)
        if canonical is not None:
            incumbent = [kept[i] for i in canonical]
    return (None if incumbent is None else ws.rows([at[p] for p in incumbent])), timed_out


def solve_max_parallelism(
    instance: Instance,
    n_radii: int,
    config: SolveConfig | None = None,
) -> ParallelismSolution:
    """Exact solve of the max-min carrier-count problem.

    Returns status ``optimal`` with the lexicographically smallest
    optimal solution, ``infeasible`` when no size-``n_radii`` subset keeps
    every chosen radius at capacity >= 1 (this covers ``n_radii`` larger
    than the instance), or ``incumbent-timeout`` with the best incumbent
    (possibly empty) when the time limit expires.  The limit covers the
    whole solve, the conflict table's build included.
    """
    if config is None:
        config = SolveConfig()
    if n_radii < 1:
        raise ValueError("n_radii must be >= 1")
    if n_radii > len(instance.radii):
        sol = _solution(None, False)
    else:
        sol = _solution(*_solve(instance, n_radii, _Clock(config.time_limit)))
    if config.trim_to_p and sol.parallelism is not None:
        p = sol.parallelism
        trimmed = {rid: picks[:p] for rid, picks in sol.selections.items()}
        sol = _solution(trimmed, sol.status == INCUMBENT_TIMEOUT)
    return sol


# --- oracle ----------------------------------------------------------------


def _longest_chain(lmins, lmaxs, usable: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically smallest largest set of pairwise disjoint intervals.

    Resonances ascend by nominal and each interval holds its nominal, so
    disjoint intervals lie in index order: a compatible set is a chain
    j1 < j2 < ... with each interval ending before the next begins.
    ``longest[j]`` is the length of the longest chain starting at j.
    """
    longest: dict[int, int] = {}
    for j in reversed(usable):
        longest[j] = 1 + max(
            (n for k, n in longest.items() if lmaxs[j] < lmins[k]), default=0
        )
    size, chain = max(longest.values(), default=0), []
    for j in usable:
        if size and longest[j] == size and (
            not chain or lmaxs[chain[-1]] < lmins[j]
        ):
            chain.append(j)
            size -= 1
    return tuple(chain)


def oracle_max_parallelism(instance: Instance, n_radii: int) -> ParallelismSolution:
    """Exhaustive reference solver; intended for small instances.

    Enumerates every size-``n_radii`` subset in ascending id order and
    evaluates each from the resonance intervals with plain loops and a
    longest-chain count; strict improvements win.  Apart from result
    packaging (`_solution`) it shares no code with the branch-and-bound
    path: no conflict masks, no workspace, no MIS routine, no clock.
    """
    if n_radii < 1:
        raise ValueError("n_radii must be >= 1")
    entries = {e.id: e for e in instance.radii}
    blocked: dict[tuple[int, int], set[int]] = {}  # indices of r meeting o
    chains: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}
    best, best_rows = 0, None
    for subset in combinations(sorted(entries), n_radii):
        rows = {}
        for r in subset:
            lmins, lmaxs = entries[r].lmins, entries[r].lmaxs
            hit: set[int] = set()
            for o in subset:
                if o == r:
                    continue
                if (r, o) not in blocked:
                    other = entries[o]
                    blocked[r, o] = {
                        j for j, (lo, hi) in enumerate(zip(lmins, lmaxs))
                        if any(lo <= y_hi and y_lo <= hi
                               for y_lo, y_hi in zip(other.lmins, other.lmaxs))
                    }
                hit |= blocked[r, o]
            usable = tuple(j for j in range(len(lmins)) if j not in hit)
            if (r, usable) not in chains:
                chains[r, usable] = _longest_chain(lmins, lmaxs, usable)
            rows[r] = chains[r, usable]
            if len(rows[r]) <= best:
                break
        else:
            best, best_rows = min(map(len, rows.values())), rows
    return _solution(best_rows, False)
