"""Phase 2: spread the selected carriers as evenly as possible.

Given the carrier count per radius (``n_lambda``, typically the Phase-1
optimum), pick ``n_radii`` radii and an ``n_radii x n_lambda`` carrier
matrix maximising the minimum spacing ``dist_pm`` between nominal
wavelengths.  Two rule sets are supported:

* ``base``: all carriers must be pairwise at least ``dist_pm`` apart, and
  a carrier must not *equal* any resonance of another selected radius
  (pure equality exclusion, independent of the distance).
* ``refined``: a carrier must additionally be at least ``dist_pm`` away
  from every resonance of every other selected radius, selected as a
  carrier or not.  Same-radius non-selected resonances stay
  unconstrained: the same ring routes identically, so proximity to its
  own spectrum cannot misroute.

Exactness comes from a ladder argument: the optimum distance is always a
realised pairwise distance among resonance nominals of the chosen radii
(or the single-carrier sentinel), so a feasibility test binary-searched
over that ladder finds the exact optimum without a continuous search.

At a fixed distance d both rule sets' cross rules are static, so one
filter (`_admissible`) cuts each radius to the carriers they admit, and
every probe works on what is left.  A probe is a quota packing: can
each radius take ``n_lambda`` of its admissible carriers, all pairwise at
least d apart?  One routine (`_packing`) returns a packing or None.  At
d = 0 each radius's first ``n_lambda`` carriers are one.  Otherwise two
greedies (`_greedy`) settle most probes: one builds a packing, the other
counts too few carriers d apart for any.  An exact DP over per-radius
count vectors (`_packs`) decides the rest and walks its packing back from
its table; beyond the DP's state budget the row search (`_witness`)
decides by backtracking.  The row search builds the witness slot by
slot; within the budget each slot takes the first candidate after which
the rest still packs, so it never backtracks.  It and the subset search
keep their frames on Phase 1's explicit stack, `_walk`.

Above the probes, refined mode propagates each radius's cardinality:
every chosen radius needs ``n_lambda`` carriers clear of the others'
spectra, so the subset search bounds a pair by the ``n_lambda``-th
deepest hole of either radius in the other (`_deepest_hole`), and a
radius by the largest distance at which its own holes still hold
``n_lambda`` carriers of another radius (`_hole_bounds`).  As the CLP(FD)
model prunes domains before labelling, the search carries its candidates
down the tree with their pair bounds (forward checking).

Solutions are canonical: of the radius subsets at the optimum the
lexicographically smallest (by sorted ids) is reported, found by the same
single subset search that proves the optimum; rows are built left to
right, rows open in ascending first-carrier order, and ties break toward
smaller wavelength then smaller radius id, so repeated runs are
byte-identical.  A timed-out
solve reports the packing that proved its incumbent, which is a valid
matrix but not necessarily the canonical one.

Two documented modelling alternatives for the refined rules (treating a
carrier as centred on its guard interval, or giving non-selected
resonances full-length guard intervals of their own) are intentionally
not implemented: the first propagates poorly and the second forbids
non-selected resonances from crowding each other, which the hardware does
not require and which would cut off optimal solutions.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import chain, combinations, product

from .model import Instance
from .parallelism import (
    INFEASIBLE,
    OPTIMAL,
    SolveConfig,
    _Clock,
    _Timeout,
    _status,
    _walk,
)

BASE = "base"
REFINED = "refined"


@dataclass(frozen=True)
class SpacingProblem:
    n_radii: int
    n_lambda: int
    mode: str = BASE

    def __post_init__(self):
        if self.n_radii < 1:
            raise ValueError("n_radii must be >= 1")
        if self.n_lambda < 1:
            raise ValueError("n_lambda must be >= 1")
        if self.mode not in (BASE, REFINED):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class SpacingSolution:
    """Rows are in ascending first-carrier order; ``selected_radii[i]`` is
    the radius of ``matrix[i]`` and each row holds ascending resonance
    indices into that radius."""

    selected_radii: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...] = ()
    dist_pm: int | None = None
    status: str = OPTIMAL


def _solution(rows, dist: int | None, timed_out: bool) -> SpacingSolution:
    """The solution with witness `rows` ((radius id, indices) in row order),
    or the empty one."""
    status = _status(rows is not None, timed_out)
    if rows is None:
        return SpacingSolution((), (), None, status)
    radii = tuple(r for r, _ in rows)
    return SpacingSolution(radii, tuple(tuple(idxs) for _, idxs in rows), dist, status)


def _ladder(noms, floor: int, top: int) -> list[int]:
    """The candidate distances in (floor, top], ascending: every gap between
    two of the sorted nominals `noms`, and 0.  Only the band is built; the
    full quadratic ladder per subset would dominate the search."""
    out = {0} if floor < 0 <= top else set()
    for i, v in enumerate(noms):
        start = bisect_right(noms, v + floor, i + 1)
        stop = bisect_right(noms, v + top, start)
        out.update(w - v for w in noms[start:stop])
    return sorted(out)


def _admissible(spectra, n_lambda: int, mode: str, dist: int):
    """Each radius's carriers that clear `mode`'s cross rules at `dist`, or
    None when some radius keeps fewer than `n_lambda`.

    `spectra` holds each chosen radius's sorted nominals.  At a fixed
    distance the cross rules are static: in base mode a carrier must equal
    no resonance of another chosen radius, in refined mode it must be at
    least `dist` from each.  This is the only place the solver applies them.
    """
    reach = dist if mode == REFINED else 1  # base: differ by at least 1 pm
    allowed = []
    for r, values in enumerate(spectra):
        others = [s for o, s in enumerate(spectra) if o != r]
        keep = []
        for v in values:
            for s in others:
                i = bisect_right(s, v - reach)
                if i < len(s) and s[i] < v + reach:
                    break
            else:
                keep.append(v)
        if len(keep) < n_lambda:
            return None
        allowed.append(keep)
    return allowed


def _clear(placed, v: int, dist: int) -> bool:
    """Whether `v` is at least `dist` from every value of the sorted list
    `placed`."""
    if dist > 0 and placed:
        i = bisect_left(placed, v)
        if i < len(placed) and placed[i] - v < dist:
            return False
        if i > 0 and v - placed[i - 1] < dist:
            return False
    return True


def _completes(allowed, n_lambda: int, dist: int, rows, placed, clock: _Clock) -> bool:
    """Whether a carrier matrix at `dist` over `allowed` (one sorted list
    per radius) extends `rows`, the (radius position, indices) rows placed
    so far in row order, the last one open, whose values are the sorted
    list `placed`.

    The carriers still to place are: each radius with no row yet,
    n_lambda at or above the open row's first + `dist`; the open row's own
    remaining ones, at later indices; all of them clear of `placed`.  That
    is a quota packing, which `_packing` decides once every list holds its
    quota.
    """
    lists, quotas = [], []
    used = {r for r, _ in rows}
    if rows:
        open_r, idxs = rows[-1]
        floor = allowed[open_r][idxs[0]] + dist
    else:
        open_r, floor = -1, -math.inf
    for r, lst in enumerate(allowed):
        if r == open_r:
            quota = n_lambda - len(idxs)
            start = idxs[-1] + 1
        elif r in used:
            continue
        else:
            quota = n_lambda
            start = bisect_left(lst, floor)
        if quota:
            keep = [v for v in lst[start:] if _clear(placed, v, dist)]
            if len(keep) < quota:
                return False
            lists.append(keep)
            quotas.append(quota)
    return not lists or _packing(lists, quotas, dist, clock) is not None


def _witness(allowed, n_lambda: int, dist: int, clock: _Clock):
    """The canonical carrier matrix at `dist` over the admissible carriers
    `allowed` (one sorted list per radius), or None when there is none.

    Rows are opened in ascending first-carrier order and filled left to
    right; at every slot candidates are tried in ascending (wavelength,
    radius) order, so the first complete assignment is the
    lexicographically smallest feasible matrix.  Every candidate already
    clears the cross rules, so a slot only tests the carriers placed so
    far.  Returns (radius position, carrier values) rows in row order.

    One `_walk` frame per carrier placed: it places each candidate in turn,
    yields the next carrier's frame arguments (`after`), and once that frame
    is spent takes its carrier back and tries the next.

    Within `_PACK_STATES`, a frame yields a candidate only when the
    carriers still to place pack (`_completes`), so nothing is taken back,
    and on an infeasible input every opener fails.  Beyond the budget it
    backtracks; `_packing` calls it there for the probes left open.
    """
    tick = clock.tick
    tail = n_lambda - 1
    # The openers that leave room for n_lambda - 1 more carriers dist apart.
    openers = sorted(
        (v, r, j)
        for r, lst in enumerate(allowed)
        for j, v in enumerate(lst)
        if j < len(lst) - tail and v <= lst[-1] - tail * dist
    )
    placed: list[int] = []  # sorted values of the placed carriers
    rows: list[tuple[int, list[int]]] = []
    used: set[int] = set()

    def after():
        """The next carrier's frame arguments, or None once the matrix is
        full: the open row's next carrier, `dist` past its last, or else a
        new row's opener, `dist` past the open row's first."""
        r, idxs = rows[-1]
        lst = allowed[r]
        if len(idxs) < n_lambda:
            return r, bisect_left(lst, lst[idxs[-1]] + dist, idxs[-1] + 1)
        if len(rows) < len(allowed):
            return None, bisect_left(openers, (lst[idxs[0]] + dist,))
        return None

    def place(r: int | None, start: int):
        """Frame that places the next carrier: with `r` None a new row's, from
        ``openers[start:]`` of radii with no row, else open row `r`'s, from
        ``allowed[r][start:]`` with room for the rest of the row."""
        if r is None:
            candidates = ((r2, j, v) for v, r2, j in openers[start:] if r2 not in used)
        else:
            lst = allowed[r]
            left = n_lambda - len(rows[-1][1]) - 1
            stop = min(len(lst) - left, bisect_right(lst, lst[-1] - left * dist))
            candidates = ((r, j, lst[j]) for j in range(start, stop))
        for r2, j, v in candidates:
            tick()
            if not _clear(placed, v, dist):
                continue
            insort(placed, v)
            if r is None:
                rows.append((r2, []))
                used.add(r2)
            rows[-1][1].append(j)
            if not complete or _completes(allowed, n_lambda, dist, rows, placed, clock):
                yield after()
            rows[-1][1].pop()
            if r is None:
                used.remove(r2)
                rows.pop()
            placed.pop(bisect_left(placed, v))

    complete = (n_lambda + 1) ** len(allowed) <= _PACK_STATES
    if _walk(place, None, 0):
        return [(r, [allowed[r][j] for j in idxs]) for r, idxs in rows]
    return None


# The largest quota-packing DP, in states, that `_packing` runs, for a
# ladder probe or a completion check in `_witness`; beyond it `_witness`
# decides the probe and builds the witness by backtracking, as the row
# search did before the DP.  `_packs` ticks the clock once per state, as
# every search loop ticks once per step (`_Clock` reads the time every 256
# steps), so a time limit bounds the DP too.  A state costs ~3 us at 6
# radii on a 2-vCPU VM, so a probe at the budget takes ~3 s.  Chosen by
# measurement: at 20 s on small-ring and desk instances the DP decider held
# a better incumbent than the row search at 262,144 (6x7), 823,543 (7x6)
# and 1,000,000 (6x9) states, the same one at 537,824 (5x13) and
# 1,679,616 (8x5), and a worse one at 2,097,152 (7x7).  Only probes that neither `_greedy` check settles reach
# the DP; in refined mode none did on desk 4x5 (seeds 1000, 1001) or
# small-ring 6x7 (seeds 3-5).  The budget also bounds the completion check
# of `_witness`, which runs the DP once per candidate the greedies leave
# open; a budget of 2^10, handing the base 6x7 and 7x6 probes to the row
# search, reached the same incumbents, so nothing argues for moving it.
_PACK_STATES = 1 << 20


def _packing(allowed, quotas, dist: int, clock: _Clock):
    """A packing of `quotas[r]` of each radius r's admissible carriers
    `allowed[r]` (one sorted list per radius), all pairwise at least `dist`
    apart, as (value, radius position) pairs, or None when there is none.

    Every list must hold at least its quota, so at `dist` = 0 each list's
    first carriers are a packing.  Otherwise the greedies (`_greedy`) try
    first, and the DP (`_packs`) decides what they leave open; beyond
    `_PACK_STATES` states the row search (`_witness`) does, which needs
    every quota to be the same.
    """
    if dist == 0:
        return [(v, r) for r, lst in enumerate(allowed) for v in lst[: quotas[r]]]
    picks = _greedy(allowed, quotas, dist)
    if picks is False:
        return None
    if picks is not None:
        return picks
    if math.prod(q + 1 for q in quotas) <= _PACK_STATES:
        return _packs(allowed, quotas, dist, clock)
    rows = _witness(allowed, quotas[0], dist, clock)
    return None if rows is None else [(v, r) for r, values in rows for v in values]


def _packs(allowed, quotas, dist: int, clock: _Clock):
    """The exact decider of `_packing` at `dist` > 0: a packing, or None.

    A quota packing: g(c), the smallest possible last carrier of a valid
    pick with per-radius counts c, is the minimum over radii r of the first
    admissible carrier of r at or above g(c - e_r) + dist.  The probe is
    feasible iff g(quotas) exists, and then the radii that set each g walk
    a packing back from it.  The DP has the product of (quotas[r] + 1)
    states.
    """
    strides = []
    size = 1
    for q in reversed(quotas):
        strides.append(size)
        size *= q + 1
    strides.reverse()
    g = [math.inf] * size
    g[0] = -math.inf
    tick = clock.tick
    counts = product(*(range(q + 1) for q in quotas))
    next(counts)
    for state, c in enumerate(counts, 1):
        tick()
        last = math.inf
        for r, stride in enumerate(strides):
            if c[r]:
                prev = g[state - stride]
                if prev != math.inf:
                    lst = allowed[r]
                    j = bisect_left(lst, prev + dist)
                    if j < len(lst) and lst[j] < last:
                        last = lst[j]
        g[state] = last
    if g[-1] == math.inf:
        return None
    picks = []
    state, c = size - 1, list(quotas)
    while state:
        v = g[state]
        for r, stride in enumerate(strides):
            if c[r] and g[state - stride] != math.inf:
                lst = allowed[r]
                j = bisect_left(lst, g[state - stride] + dist)
                if j < len(lst) and lst[j] == v:
                    break
        picks.append((v, r))
        c[r] -= 1
        state -= stride
    return picks


def _greedy(allowed, quotas, dist: int):
    """Two one-pass checks of the quota packing `_packs` decides: the
    packing built, as (value, radius position) pairs, when it is feasible,
    False when it is not, None when neither check settles it.

    Both take carriers of the radii with a quota in ascending order, each
    the lowest admissible one at least `dist` above the last pick.  The
    quota-free greedy, first, takes it from any of them, which finds the
    most carriers pairwise `dist` apart; fewer than sum(quotas) rules every
    packing out.  The quota greedy takes it from a radius that still needs
    one; filling every quota builds a packing.  A pass walks the merged
    carriers when there are no more of them than radii times picks, and
    otherwise finds each pick by one bisect per radius, so it never costs
    more than O(len(allowed) * sum(quotas)) steps, nor more than the DP.
    """
    total = sum(quotas)
    need = list(quotas)
    lists = [(r, lst) for r, lst in enumerate(allowed) if need[r]]
    merged = None
    if sum(len(lst) for _, lst in lists) <= len(lists) * total:
        merged = sorted((v, r) for r, lst in lists for v in lst)
    picks = []
    for free in (True, False):
        floor = -math.inf
        count = 0
        if merged is not None:
            for v, r in merged:
                if v >= floor and (free or need[r]):
                    if not free:
                        need[r] -= 1
                        picks.append((v, r))
                    count += 1
                    if count == total:
                        break
                    floor = v + dist
        else:
            while count < total:
                pick = math.inf
                for r, lst in lists:
                    if need[r]:
                        j = bisect_left(lst, floor)
                        if j < len(lst) and lst[j] < pick:
                            pick, taken = lst[j], r
                if pick == math.inf:
                    break
                if not free:
                    need[taken] -= 1
                    picks.append((pick, taken))
                count += 1
                floor = pick + dist
        if count < total:
            return False if free else None
    return picks


def _deepest_hole(values, others, k: int) -> int:
    """The k-th largest distance from one of `values` to its nearest
    neighbour in `others`, both sorted ascending: the most that a row of k
    of `values` can keep from every one of `others` (0 when `values` has
    fewer than k)."""
    nearest = []
    last = len(others) - 1
    for v in values:
        j = bisect_left(others, v)
        if j > last:
            nearest.append(v - others[last])
        elif j and v - others[j - 1] < others[j] - v:
            nearest.append(v - others[j - 1])
        else:
            nearest.append(others[j] - v)
    if len(nearest) < k:
        return 0
    nearest.sort()
    return nearest[-k]


def _hole_bounds(spectra, k: int) -> list[int]:
    """An O(1) bound per radius on the refined optimum of every subset it
    takes part in: entry i is the largest d at which the holes of spectrum
    i still hold k values pairwise at least d apart and at least d from
    every value of spectrum i (`spectra` are sorted ascending).

    Another chosen radius must place its k carriers so, and every value
    lies in [low, high], the extremes over all `spectra`.  A gap of width w
    holds w // d - 1 such values when w >= 2d, an overhang e (lows[i] - low
    or high - highs[i]) holds e // d, so a gap contributes one value at
    each of the thresholds w // 2, w // 3, ..., an overhang one at each of
    e, e // 2, ..., and the bound is the k-th largest threshold.  Only the
    k widest gaps can supply it.  At k = 1 it is max(half the widest gap,
    rounded down, lows[i] - low, high - highs[i]).
    """
    low = min(s[0] for s in spectra)
    high = max(s[-1] for s in spectra)
    steps = range(1, k + 1)
    far = []
    for s in spectra:
        widest = sorted([y - x for x, y in zip(s, s[1:])])[-k:]
        room = [w // (j + 1) for w in widest for j in steps]
        room += [e // j for e in (s[0] - low, high - s[-1]) for j in steps]
        far.append(sorted(room)[-k])
    return far


def solve_spacing(
    instance: Instance, problem: SpacingProblem, config: SolveConfig | None = None
) -> SpacingSolution:
    """Exact max-min spacing over all radius subsets and carrier matrices.

    Search plan: one depth-first pass over radius subsets, best-first (by
    `far`, below, descending, then lowest resonance, then id).  It keeps
    the incumbent distance `best` and `tie`, the smallest sorted subset
    known to fit there.  A leaf that sorts below `tie` is first tested at
    `best`: it becomes `tie` if it fits and is dropped if not, as it then
    fails at best + 1 too.  A leaf whose cap is above `best` is then tested
    at best + 1, and one that fits binary-searches its ladder, raising
    `best` and becoming `tie`.  A subset at the bound can still tie, so
    every prune drops only what is below `best`.  At the end `best` is the
    optimum and `tie` the lexicographically smallest subset there; only
    its witness is built.  At the last level, where a span may cap a
    sibling below its `far`, one filter drops the siblings whose span over
    the carrier gaps is below `best`; the rest go in order, each against
    its cheap cap, min(`far`, that span).  Each raise keeps the packing
    that the probe returned, so a timeout reports at once a matrix at the
    incumbent distance, though not necessarily the canonical one.

    Every probe first cuts the subset to its admissible carriers
    (`_admissible`); a radius left with fewer than n_lambda fails it.
    Base admissibility does not depend on d, and a subset in which no two
    radii share a nominal keeps its spectra whole, so a base leaf filters
    only when such a pair is chosen.  `_packing` then returns a packing or
    None: at d = 0 the counts decide; at d > 0 the quota greedy builds a
    packing or the quota-free one proves there is none, and what they
    leave the quota-packing DP, `_packs`, decides, or `_witness` when the
    DP would exceed `_PACK_STATES` states.  `_witness` builds the final
    witness, within that budget without backtracking.

    The DFS carries one bound, the refined pair hole: each of the
    n_lambda carriers of one radius must clear the whole spectrum of
    every co-selected radius, so the distance cannot exceed the
    n_lambda-th deepest spectral hole of either radius of a pair in the
    other.  It rides in a pool, as Phase 1's masks do: the candidates
    open to a node, in `order`, each with its least pair cap against
    every chosen radius but the last (infinite in base mode).  An inner
    node takes its last radius's caps once, dropping what falls below
    `best` from its children's pool; the last level takes them per
    sibling, so a raise of `best` still saves later scans.  A leaf also
    caps the distance by its span over its carrier gaps, a pre-filter and
    the top of its ladder.  Above the leaves, one span bound ends a
    node's loop: at position p, every subset completed from the pool
    spans at most the extent of the chosen radii and `order[p:]`, so once
    that extent over the carrier gaps is below `best`, no later position
    can win or tie.  The suffix extents only shrink as p grows, in either
    mode's order, so the loop breaks there.  The exact leaf test would
    reject each leaf it cuts; what the break saves is the roots'
    last-level span filters, not probes.

    A pair hole costs a scan per direction, so the DFS tests a cheaper
    bound first: `_hole_bounds` gives one number per radius, `far[i]`, the
    largest distance at which i's holes hold n_lambda carriers of another
    radius, pairwise that far apart.  With two or more radii to choose,
    every subset holding i has an optimum of at most `far[i]`, so a
    candidate with `far[i] < best` is dropped at any depth, the root
    included.  (One radius meets no cross rule, so the bound does not
    apply to it.)  An entry's cap with a new radius is scanned only while
    the entry is at or above the incumbent, and memoised by pair, the
    second direction only when the first leaves the pair at or above it:
    a cap below the incumbent prunes for good, since the incumbent only
    rises.  Both bounds are sound on their own, and neither dominates the
    other, so each only moves effort.
    """
    if config is None:
        config = SolveConfig()
    clock = _Clock(config.time_limit)
    if problem.n_radii * problem.n_lambda == 1:
        # A single carrier has no pairwise distance; report the instance span
        # and the canonical witness (lowest radius id, its lowest resonance).
        noms = instance.all_nominals()
        return SpacingSolution((min(instance.ids()),), ((0,),), max(noms) - min(noms))
    n_radii, n_lambda, mode = problem.n_radii, problem.n_lambda, problem.mode
    gaps = n_radii * n_lambda - 1
    entries = [
        e for e in sorted(instance.radii, key=lambda e: e.id) if len(e.nominals()) >= n_lambda
    ]
    if len(entries) < n_radii:
        return SpacingSolution((), (), None, INFEASIBLE)

    eligible = [e.id for e in entries]
    spectra = [e.nominals() for e in entries]
    lows = [min(s) for s in spectra]
    highs = [max(s) for s in spectra]
    refined = mode == REFINED
    quotas = [n_lambda] * n_radii

    best = -1
    # The incumbent: a subset, a distance it fits at and a packing of it
    # there.
    incumbent = None
    # The smallest sorted subset known to fit at `best`: the canonical one
    # once the search ends.
    tie: list[int] | None = None

    def fits(subset, clean: bool, dist: int):
        """A packing of the spectra `subset` at `dist`, as (value, radius
        position) pairs, or None.  A clean subset is a base one in which no
        two radii share a nominal, so every carrier is admissible."""
        allowed = subset if clean else _admissible(subset, n_lambda, mode, dist)
        return None if allowed is None else _packing(allowed, quotas, dist, clock)

    def payload(chosen: list[int], rows):
        """The (radius position, values) `rows` of `chosen` as payload rows:
        (radius id, indices)."""
        return [
            (eligible[chosen[r]], [bisect_left(spectra[chosen[r]], v) for v in values])
            for r, values in rows
        ]

    def improve(chosen: list[int], top: int, clean: bool) -> None:
        """A leaf: the subset becomes `tie` when it fits at `best` and sorts
        below `tie`, and raises the incumbent to its optimum when that beats
        `best`."""
        nonlocal best, incumbent, tie
        subset = [spectra[c] for c in chosen]
        key = sorted(chosen)
        if tie is not None and key < tie:
            # A subset that fails at best fails at best + 1 too.
            if fits(subset, clean, best) is None:
                return
            tie = key
        if top <= best:
            return
        # The subset optimum is a ladder value in (best, top], so it beats
        # `best` iff the subset fits at best + 1 (at best = -1, the d = 0
        # count); most leaves stop here.
        picks = fits(subset, clean, best + 1)
        if picks is None:
            return
        ladder = _ladder(sorted(v for s in subset for v in s), best, top)
        # ladder[0] fits: the packing keeps every distance, carrier to
        # carrier and, in refined mode, carrier to spectrum, above best, and
        # each is a gap of the subset's nominals, so at least ladder[0].
        # Every distance found to fit raises the incumbent with its
        # packing, so a timeout reports the highest with a matrix.
        best, incumbent, tie = ladder[0], (chosen, ladder[0], picks), key
        lo, hi = 0, len(ladder) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            picks = fits(subset, clean, ladder[mid])
            if picks is not None:
                lo = mid
                best, incumbent = ladder[mid], (chosen, ladder[mid], picks)
            else:
                hi = mid - 1

    def cap(c: int, i: int, bound):
        """`bound` cut by the refined pair cap of `c` and `i`."""
        hole = pair_cap.get((c, i))
        if hole is None:
            hole = _deepest_hole(spectra[c], spectra[i], n_lambda)
            if hole >= best:
                hole = min(hole, _deepest_hole(spectra[i], spectra[c], n_lambda))
            pair_cap[c, i] = hole
        return hole if hole < bound else bound

    def dfs(pool, caps, chosen: list[int], lo, hi, bound, shared: int):
        """Frame of `_walk` over the subsets that extend `chosen` from `pool`,
        the radii open to it in `order`; `improve` takes each that survives
        the bounds.  `caps[i]` is the least refined pair cap of pool radius i
        with every chosen radius but the last (inf in base mode), and
        `bound` the least among the chosen.  `shared` is the union of the
        chosen radii's `shares`, or -1 once two of them share a nominal."""
        need = n_radii - len(chosen)
        last = chosen[-1] if refined and chosen else None
        if need == 1:
            if far[pool[0]] * gaps > hi - lo:
                # A span may cap a sibling below its `far`: drop those whose
                # span is below the incumbent, as part of the step that
                # opened this node.  (Otherwise, as every span covers
                # hi - lo, the first sibling's cheap cap is its `far`, and
                # in `order`, descending by `far`, so is every sibling's.)
                pool = [
                    i for i in pool
                    if ((hi if hi > highs[i] else highs[i])
                        - (lo if lo < lows[i] else lows[i])) // gaps >= best
                ]
            for i in pool:
                clock.tick()
                if far[i] < best or bound < best:
                    break  # and so is every later sibling's cheap cap or top
                top = bound
                if last is not None:
                    top = caps[i]
                    if top < best:
                        continue
                    top = cap(last, i, top)
                    if top < best:
                        continue
                span = (hi if hi > highs[i] else highs[i]) - (lo if lo < lows[i] else lows[i])
                cheap = min(far[i], span // gaps)
                if cheap < best:
                    continue
                improve(chosen + [i], min(top, cheap, bound), not (refined or shared >> i & 1))
            return
        if last is not None:
            # The children's pool.  Its scan reads the clock once and ticks
            # no step, so steps still count the nodes visited.
            clock.check()
            kids, kid_caps = [], {}
            for i in pool:
                if far[i] < best:
                    break
                c = caps[i]
                if c >= best:
                    c = cap(last, i, c)
                    if c >= best:
                        kids.append(i)
                        kid_caps[i] = c
            pool, caps = kids, kid_caps
        for k in range(len(pool) - need + 1):
            i = pool[k]
            # Every subset completed from here spans at most high - low,
            # and the suffix extents only shrink along `order`.  The
            # chosen radii can only widen the suffix's own extent, so a
            # suffix cap at or above the incumbent settles the test.
            if suf_cap[i] < best:
                high = hi if hi > suf_hi[i] else suf_hi[i]
                low = lo if lo < suf_lo[i] else suf_lo[i]
                if (high - low) // gaps < best:
                    break
            clock.tick()
            # far[i] bounds the optimum of every subset holding i and
            # another radius, so this prunes no subset that could win or
            # tie, and no later radius of `order` has a larger one.
            if far[i] < best or bound < best:
                break
            c = caps[i]
            if c < best:
                continue
            yield (
                pool[k + 1:], caps, chosen + [i], min(lo, lows[i]), max(hi, highs[i]),
                min(bound, c), -1 if shared >> i & 1 else shared | shares[i],
            )

    far = [math.inf] * len(eligible)
    if refined and n_radii > 1:
        far = _hole_bounds(spectra, n_lambda)
    # The pair caps of the candidates that pass `far`, by (c, i), on demand.
    pair_cap: dict[tuple[int, int], int] = {}
    # shares[i]: the radii, as bits, that hold one of i's nominals (base).
    # Only a nominal that occurs twice can be shared, and few do.
    shares = [0] * len(eligible)
    if not refined:
        flat = sorted(chain.from_iterable(spectra))
        dups = {v for v, w in zip(flat, flat[1:]) if v == w}
        holding = []  # (i, the duplicated nominals i holds)
        holders: dict[int, int] = {}
        for i, s in enumerate(spectra):
            held = dups.intersection(s)
            if held:
                holding.append((i, held))
                for v in held:
                    holders[v] = holders.get(v, 0) | 1 << i
        for i, held in holding:
            for v in held:
                shares[i] |= holders[v]
            shares[i] &= ~(1 << i)
    order = sorted(range(len(eligible)), key=lambda i: (-far[i], lows[i], i))
    # By radius: the extent of it and the radii after it in `order`, and
    # that extent's span over the carrier gaps (j follows i).
    suf_hi, suf_lo = highs[:], lows[:]
    for i, j in zip(order[-2::-1], order[::-1]):
        suf_hi[i], suf_lo[i] = max(highs[i], suf_hi[j]), min(lows[i], suf_lo[j])
    suf_cap = [(h - l) // gaps for h, l in zip(suf_hi, suf_lo)]

    try:
        _walk(dfs, order, [math.inf] * len(eligible), [], math.inf, -math.inf, math.inf, 0)
        if tie is None:
            return SpacingSolution((), (), None, INFEASIBLE)
        allowed = _admissible([spectra[c] for c in tie], n_lambda, mode, best)
        return _solution(payload(tie, _witness(allowed, n_lambda, best, clock)), best, False)
    except _Timeout:
        if incumbent is None:
            return _solution(None, None, True)
        # The incumbent's packing, by radius, is a matrix at its distance,
        # though not necessarily the canonical one; taking the carriers in
        # ascending order opens the rows in ascending first-carrier order.
        chosen, dist, picks = incumbent
        rows: dict[int, list[int]] = {}
        for v, r in sorted(picks):
            rows.setdefault(r, []).append(v)
        return _solution(payload(chosen, rows.items()), dist, True)


def _matrix_key(rows_ordered, vals):
    """Canonical comparison key: the interleaved (value, radius, values...)
    sequence the depth-first witness search decides in."""
    key: list[int] = []
    for rid, idxs in rows_ordered:
        key.append(vals[rid][idxs[0]])
        key.append(rid)
        key.extend(vals[rid][j] for j in idxs[1:])
    return tuple(key)


def oracle_spacing(instance: Instance, problem: SpacingProblem) -> SpacingSolution:
    """Brute-force reference solver: enumerate every radius subset in
    ascending id order and every carrier matrix, score each directly from
    the definitions.

    Intended for small inputs (a handful of radii, n_radii * n_lambda up
    to about 8).  Apart from `_solution` (status and payload) it shares no
    code with `solve_spacing`, which is what it checks: it scores the
    single-carrier shape from the definitions too, and it runs with no
    clock.  Ties break identically (first subset in ascending-id order,
    then the canonical matrix key).
    """
    if problem.n_radii > len(instance.radii):
        return SpacingSolution((), (), None, INFEASIBLE)
    vals = {e.id: list(e.nominals()) for e in instance.radii}
    # A single carrier has no pairwise distance; by definition it scores the
    # span of the whole instance.
    noms = [v for values in vals.values() for v in values]
    span = max(noms, default=0) - min(noms, default=0)
    eligible = sorted(r for r in instance.ids() if len(vals[r]) >= problem.n_lambda)
    best_d: int | None = None
    best_rows = None
    for subset in combinations(eligible, problem.n_radii):
        sub_best: int | None = None
        sub_key = None
        sub_rows = None
        others = {
            r: [v for o in subset if o != r for v in vals[o]] for r in subset
        }
        others_set = {r: set(lst) for r, lst in others.items()}
        index_choices = [
            list(combinations(range(len(vals[r])), problem.n_lambda)) for r in subset
        ]
        for pick in product(*index_choices):
            rows = list(zip(subset, pick))
            carriers = [(vals[r][j], r) for r, idxs in rows for j in idxs]
            if problem.mode == BASE and any(
                v in others_set[r] for v, r in carriers
            ):
                continue
            # Binding gap: min pairwise carrier distance, plus in refined
            # mode the distance from each carrier to every resonance of
            # the other selected radii.  The scan aborts as soon as the
            # running minimum falls below the subset incumbent, since the
            # final gap can then no longer win or tie.
            values = sorted(v for v, _ in carriers)
            gap = min((b - a for a, b in zip(values, values[1:])), default=span)
            if sub_best is not None and gap < sub_best:
                continue
            if problem.mode == REFINED:
                for v, r in carriers:
                    for w in others[r]:
                        d = abs(v - w)
                        if d < gap:
                            gap = d
                    if sub_best is not None and gap < sub_best:
                        break
                if sub_best is not None and gap < sub_best:
                    continue
            ordered = sorted(rows, key=lambda row: (vals[row[0]][row[1][0]], row[0]))
            key = _matrix_key(ordered, vals)
            if sub_best is None or gap > sub_best or (gap == sub_best and key < sub_key):
                sub_best, sub_key, sub_rows = gap, key, ordered
        if sub_best is not None and (best_d is None or sub_best > best_d):
            best_d = sub_best
            best_rows = sub_rows
    return _solution(best_rows, best_d, False)
