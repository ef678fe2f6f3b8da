import math
import random
import time
import tracemalloc
from bisect import insort
from itertools import combinations, permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    build_instance,
    cyclic_garbage_of,
    dist_upper_bound,
    distance_ladder,
    generate_random_small,
    radius1_instance,
    restrict,
    solver_names_reached,
)
from wronoc import (
    GenSpec,
    SolveConfig,
    SpacingProblem,
    SpacingSolution,
    generate,
    oracle_spacing,
    solve_spacing,
    spacing,
)
from wronoc.parallelism import _Clock, _Timeout
from wronoc.spacing import (
    _admissible,
    _completes,
    _deepest_hole,
    _greedy,
    _hole_bounds,
    _ladder,
    _packing,
    _packs,
    _witness,
)
from wronoc.verify import check_spacing_solution


def nominal_rows(instance, solution):
    return [
        [instance.entry(rid).nominals()[j] for j in row]
        for rid, row in zip(solution.selected_radii, solution.matrix)
    ]


def check_rows(instance, mode, dist, rows):
    """Checker verdict on a matrix given as (radius id, indices) rows."""
    problem = SpacingProblem(len(rows), len(rows[0][1]), mode)
    radii = tuple(rid for rid, _ in rows)
    matrix = tuple(idxs for _, idxs in rows)
    return check_spacing_solution(instance, problem, SpacingSolution(radii, matrix, dist))


class TestCrossConstraint:
    """The cross-radius rules, as the independent checker applies them."""

    def test_base_equality_exclusion(self, table1):
        j_1587 = table1.entry(2).nominals().index(1587500)
        assert check_rows(table1, "base", 0, [(4, (0,)), (2, (j_1587,))]) == [
            "carrier 1587500 of radius 2 equals a resonance of radius 4"
        ]

    def test_singleton_always_ok(self, table1):
        for mode in ("base", "refined"):
            assert check_rows(table1, mode, 10**6, [(3, (0,))]) == []

    def test_refined_distance(self, table1):
        # 1503.4 nm of radius 3 sits 2200 pm from 1505.6 nm of radius 4
        rows = [(3, (0,)), (4, (6,))]
        assert check_rows(table1, "refined", 3000, rows) == [
            "carrier 1503400 of radius 3 within dist_pm of a resonance of radius 4"
        ]
        assert check_rows(table1, "refined", 2200, rows) == []

    def test_empty_timeout_with_a_distance_rejected(self, table1):
        problem = SpacingProblem(2, 2, "base")
        sol = SpacingSolution((), (), 4000, "incumbent-timeout")
        assert check_spacing_solution(table1, problem, sol) == [
            "dist_pm given but no radii selected"
        ]
        empty = SpacingSolution((), (), None, "incumbent-timeout")
        assert check_spacing_solution(table1, problem, empty) == []

    def test_requires_selected_carrier(self, table1):
        # A third row of carriers belongs to no selected radius.
        sol = SpacingSolution((1, 2), ((0,), (2,), (4,)), 0)
        assert check_spacing_solution(table1, SpacingProblem(2, 1, "base"), sol) == [
            "matrix row count does not match selected radii"
        ]


def witness(instance, selected, n_lambda, dist, mode="base"):
    """`_witness` over the admissible carriers of `selected` at `dist`, as
    (radius id, indices) rows, or None."""
    ids = sorted(selected)
    spectra = [instance.entry(r).nominals() for r in ids]
    allowed = _admissible(spectra, n_lambda, mode, dist)
    rows = None if allowed is None else _witness(allowed, n_lambda, dist, _Clock(0))
    if rows is None:
        return None
    return [(ids[r], tuple(spectra[r].index(v) for v in values)) for r, values in rows]


class TestFeasible:
    """The per-distance witness search of `solve_spacing`."""

    def test_radius1_triple_at_50700(self, table1):
        rows = witness(table1, {1}, 3, 50700)
        assert rows is not None
        (rid, idxs), = rows
        noms = table1.entry(1).nominals()
        assert rid == 1
        assert [noms[j] for j in idxs] == [1496400, 1547100, 1601400]

    def test_radius1_triple_at_50800_is_none(self, table1):
        assert witness(table1, {1}, 3, 50800) is None

    def test_zero_distance_single_carriers(self, table1):
        rows = witness(table1, {1, 2, 3, 4}, 1, 0)
        assert rows is not None
        assert len(rows) == 4

    def test_too_many_carriers_is_none(self, table1):
        assert witness(table1, {1}, 6, 0) is None

    def test_matrix_deeper_than_the_recursion_limit(self):
        # 3 rows of 600 carriers: one frame per carrier, 1800 in all.
        inst = build_instance(
            {rid: [1_500_000 + 1000 * rid + 3000 * j for j in range(600)] for rid in (1, 2, 3)}
        )
        rows = witness(inst, {1, 2, 3}, 600, 1000)
        assert rows == [(rid, tuple(range(600))) for rid in (1, 2, 3)]
        assert witness(inst, {1, 2, 3}, 600, 1001) is None

    def test_negative_distance_rejected(self, table1):
        assert check_rows(table1, "base", -1, [(1, (0,))]) == [
            "missing or negative dist_pm"
        ]


def fits(spectra, n_lambda, mode, dist):
    """A ladder probe as `solve_spacing` decides it within the DP budget,
    checking that the greedies, where they settle it, agree with the DP,
    that `_packing` agrees with both and that every packing returned is
    one."""
    allowed = _admissible(spectra, n_lambda, mode, dist)
    if allowed is None:
        return False
    quotas = [n_lambda] * len(allowed)
    picks = _packing(allowed, quotas, dist, _Clock(0))
    if picks is not None:
        assert_packing(picks, allowed, quotas, dist)
    if dist == 0:
        assert picks is not None
        return True
    verdict = _packs(allowed, quotas, dist, _Clock(0))
    assert (verdict is None) == (picks is None)
    if verdict is not None:
        assert_packing(verdict, allowed, quotas, dist)
    assert_greedy_agrees(allowed, quotas, dist, verdict is not None)
    return verdict is not None


class TestPacks:
    """Every ladder probe, decided by the DP, by the greedies where they
    settle it and by the row search, the row-search witness at the optimum
    and the solve itself, against the brute-force oracle on the subset
    alone."""

    @pytest.mark.parametrize("mode", ["base", "refined"])
    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_row_search(self, seed, mode):
        inst = generate_random_small(seed)
        verdicts = set()
        # 3 radii x 3 carriers is left out: the oracle alone takes ~8 s there.
        for k, n_lambda in [(1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
            for subset in combinations(inst.ids(), k):
                spectra = [inst.entry(r).nominals() for r in subset]
                sub, problem = restrict(inst, subset), SpacingProblem(k, n_lambda, mode)
                sol = oracle_spacing(sub, problem)
                assert solve_spacing(sub, problem) == sol, (subset, n_lambda)
                for dist in distance_ladder(inst, subset):
                    verdict = fits(spectra, n_lambda, mode, dist)
                    assert verdict == (
                        sol.status == "optimal" and dist <= sol.dist_pm
                    ), (subset, n_lambda, dist)
                    # The decider beyond the DP budget.
                    rows = witness(inst, subset, n_lambda, dist, mode)
                    assert (rows is not None) == verdict, (subset, n_lambda, dist)
                    verdicts.add(verdict)
                if sol.status == "optimal":
                    assert witness(inst, subset, n_lambda, sol.dist_pm, mode) == list(
                        zip(sol.selected_radii, sol.matrix)
                    ), (subset, n_lambda)
        assert verdicts == {True, False}

    def test_ticks_once_per_state(self, table1):
        clock = _Clock(0)
        spectra = [table1.entry(r).nominals() for r in (1, 2, 3)]
        allowed = _admissible(spectra, 2, "base", 1)
        picks = _packs(allowed, [2, 2, 2], 1, clock)
        assert picks is not None
        assert_packing(picks, allowed, [2, 2, 2], 1)
        assert clock.steps == 3**3 - 1


def spaced_row_hole(values, others, k):
    """The largest d at which some k of `values`, pairwise at least d apart,
    all keep at least d from `others`: every row tried."""
    best = 0
    for row in combinations(values, k):
        d = min(abs(v - w) for v in row for w in others)
        d = min([d] + [y - x for x, y in zip(row, row[1:])])
        best = max(best, d)
    return best


def holds(spectrum, low, high, d):
    """The most integers in [low, high] pairwise at least d > 0 apart and
    at least d from every value of `spectrum`: leftmost first, point by
    point."""
    count, last = 0, None
    for p in range(low, high + 1):
        if (last is None or p - last >= d) and all(abs(p - v) >= d for v in spectrum):
            count, last = count + 1, p
    return count


spectra_lists = st.lists(
    st.lists(st.integers(0, 60), min_size=1, max_size=6, unique=True).map(sorted),
    min_size=2,
    max_size=5,
)


class TestHoleBounds:
    """`_deepest_hole` is the refined pair cap: the k-th hole is the most a
    row of k carriers keeps from another spectrum.  `_hole_bounds` is the
    largest distance at which a spectrum's holes hold k carriers, so it
    never undercuts a row another radius can place there."""

    @given(
        values=st.lists(st.integers(0, 60), min_size=1, max_size=7, unique=True).map(sorted),
        others=st.lists(st.integers(0, 60), min_size=1, max_size=6, unique=True).map(sorted),
        k=st.integers(1, 4),
    )
    @example(values=[10, 20, 30], others=[0, 40], k=2)  # the middle value lies deepest
    @example(values=[0, 1], others=[50], k=2)  # wholly below
    @example(values=[5, 55], others=[30], k=3)  # fewer values than k
    @settings(max_examples=200, deadline=None)
    def test_kth_hole_is_the_best_row(self, values, others, k):
        rows = [min(abs(v - w) for v in row for w in others) for row in combinations(values, k)]
        assert _deepest_hole(values, others, k) == max(rows, default=0)

    @given(spectra=spectra_lists, k=st.integers(1, 3))
    @example(spectra=[[0, 2], [50, 52]], k=1)  # disjoint extents
    @example(spectra=[[0, 60], [29, 31]], k=1)  # one inside the other's gap
    @example(spectra=[[0, 30, 60], [10, 40]], k=2)  # nested, interleaved
    @example(spectra=[[30], [0, 10, 50], [55]], k=1)  # one-resonance radii
    @example(spectra=[[0, 20, 40], [20, 40, 41]], k=2)  # shared values
    @example(spectra=[[0, 60], [30, 31]], k=2)  # far[0] = 20, below the k-th hole of 29
    @example(spectra=[[0, 60], [5, 6, 7]], k=3)  # one gap, or one overhang, holds all
    @settings(max_examples=200, deadline=None)
    def test_never_below_a_spaced_row(self, spectra, k):
        far = _hole_bounds(spectra, k)
        for a, b in permutations(range(len(spectra)), 2):
            assert far[b] >= spaced_row_hole(spectra[a], spectra[b], k), (a, b)
            if k == 1:
                assert far[b] >= _deepest_hole(spectra[a], spectra[b], 1), (a, b)

    @given(spectra=spectra_lists, k=st.integers(1, 3))
    @example(spectra=[[0, 60], [30]], k=2)  # the gap holds both, the overhangs none
    @example(spectra=[[20, 21], [0, 60]], k=3)  # overhangs on both sides
    @settings(max_examples=100, deadline=None)
    def test_largest_distance_that_holds_k(self, spectra, k):
        low = min(s[0] for s in spectra)
        high = max(s[-1] for s in spectra)
        far = _hole_bounds(spectra, k)
        for s, bound in zip(spectra, far):
            assert bound == max(
                [0] + [d for d in range(1, high - low + 1) if holds(s, low, high, d) >= k]
            )
            if k == 1:
                widest = max((y - x for x, y in zip(s, s[1:])), default=0)
                assert bound == max(widest // 2, s[0] - low, high - s[-1])


class TestGreedy:
    """Where a greedy settles a packing probe, it agrees with `_packs`."""

    @given(
        allowed=st.lists(
            st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True).map(sorted),
            min_size=1,
            max_size=4,
        ),
        n_lambda=st.integers(1, 3),
        dist=st.integers(1, 12),
    )
    @example(allowed=[[0, 3], [1]], n_lambda=1, dist=2)  # neither settles: feasible
    @example(allowed=[[0, 1, 2], [1]], n_lambda=1, dist=2)  # neither settles: infeasible
    @example(allowed=[[0, 1], [2]], n_lambda=1, dist=5)  # too few points apart
    @example(allowed=[[0, 10], [5, 15]], n_lambda=2, dist=5)  # the quota greedy fills both
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_packs(self, allowed, n_lambda, dist):
        quotas = [n_lambda] * len(allowed)
        picks = _packs(allowed, quotas, dist, _Clock(0))
        if picks is not None:
            assert_packing(picks, allowed, quotas, dist)
        assert_greedy_agrees(allowed, quotas, dist, picks is not None)


def brute_packs(allowed, quotas, dist):
    """Whether some quotas[r] values of each allowed[r] are all pairwise at
    least `dist` apart: every pick tried."""
    for pick in product(*(combinations(lst, q) for lst, q in zip(allowed, quotas))):
        values = sorted(v for row in pick for v in row)
        if all(b - a >= dist for a, b in zip(values, values[1:])):
            return True
    return False


value_lists = st.lists(
    st.lists(st.integers(0, 30), min_size=1, max_size=5, unique=True).map(sorted),
    min_size=1,
    max_size=4,
)


def assert_packing(picks, allowed, quotas, dist):
    """`picks`, (value, radius position) pairs, fill every quota from the
    radius's own list, pairwise at least `dist` apart."""
    assert sorted(r for _, r in picks) == [r for r, q in enumerate(quotas) for _ in range(q)]
    assert all(v in allowed[r] for v, r in picks)
    values = sorted(v for v, _ in picks)
    assert all(b - a >= dist for a, b in zip(values, values[1:]))


def assert_greedy_agrees(allowed, quotas, dist, feasible):
    """`_greedy` leaves the probe open, proves it infeasible only when it is
    not `feasible`, or returns a packing only when it is."""
    verdict = _greedy(allowed, quotas, dist)
    if verdict is False:
        assert not feasible
    elif verdict is not None:
        assert feasible
        assert_packing(verdict, allowed, quotas, dist)


@st.composite
def packing_probes(draw):
    """Sorted value lists and a quota per list of at most what it holds,
    the same one for every list half the time."""
    allowed = draw(value_lists)
    if draw(st.booleans()):
        quota = draw(st.integers(0, min(3, *map(len, allowed))))
        return allowed, [quota] * len(allowed)
    return allowed, [draw(st.integers(0, min(3, len(lst)))) for lst in allowed]


class TestQuotaPacking:
    """`_packs` decides a packing with its own quota per radius, and
    `_greedy`, where it settles one, agrees; `_packing`, which chains them,
    decides it at any distance.  Every packing any of them returns is
    valid."""

    @given(
        allowed=value_lists,
        quotas=st.lists(st.integers(0, 3), min_size=4, max_size=4),
        dist=st.integers(1, 10),
    )
    @example(allowed=[[0, 10], [5]], quotas=[2, 0, 0, 0], dist=5)  # a zero quota drops a radius
    @settings(max_examples=300, deadline=None)
    def test_against_brute_force(self, allowed, quotas, dist):
        quotas = quotas[: len(allowed)]
        want = brute_packs(allowed, quotas, dist)
        picks = _packs(allowed, quotas, dist, _Clock(0))
        assert (picks is not None) == want
        if picks is not None:
            assert_packing(picks, allowed, quotas, dist)
        assert_greedy_agrees(allowed, quotas, dist, want)

    @given(probe=packing_probes(), dist=st.integers(0, 10))
    @example(probe=([[0]], [0]), dist=1)  # the empty packing, which is falsy
    @example(probe=([[0, 1]], [0]), dist=0)
    @example(probe=([[0, 3], [1]], [1, 1]), dist=2)  # neither greedy settles it
    @example(probe=([[0, 1, 2], [1]], [1, 1]), dist=2)  # nor this infeasible one
    @settings(max_examples=300, deadline=None)
    def test_packing_against_brute_force(self, probe, dist):
        allowed, quotas = probe
        picks = _packing(allowed, quotas, dist, _Clock(0))
        assert (picks is not None) == brute_packs(allowed, quotas, dist)
        if picks is not None:
            assert_packing(picks, allowed, quotas, dist)
        if len(set(quotas)) == 1:
            # Beyond the DP budget the row search decides what the greedies
            # leave open.
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(spacing, "_PACK_STATES", 0)
                rows = _packing(allowed, quotas, dist, _Clock(0))
            assert (rows is None) == (picks is None)
            if rows is not None:
                assert_packing(rows, allowed, quotas, dist)


def brute_completes(allowed, n_lambda, dist, rows):
    """Whether some choice of the carriers still to place after `rows`
    keeps every carrier pairwise at least `dist` apart: every pick tried."""
    placed = [allowed[r][j] for r, idxs in rows for j in idxs]
    used = {r for r, _ in rows}
    choices = []
    floor = -math.inf
    if rows:
        r, idxs = rows[-1]
        lst = allowed[r]
        later = [v for j, v in enumerate(lst) if j > idxs[-1] and v >= lst[idxs[-1]] + dist]
        choices.append(combinations(later, n_lambda - len(idxs)))
        floor = lst[idxs[0]] + dist
    for r, lst in enumerate(allowed):
        if r not in used:
            choices.append(combinations([v for v in lst if v >= floor], n_lambda))
    for pick in product(*choices):
        values = sorted(placed + [v for row in pick for v in row])
        if all(b - a >= dist for a, b in zip(values, values[1:])):
            return True
    return False


class TestCompletionWitness:
    """Within the DP budget `_witness` keeps, at each slot, the first
    candidate after which the rest still packs; that is the matrix the
    backtracking row search finds."""

    @given(allowed=value_lists, n_lambda=st.integers(1, 3), dist=st.integers(0, 10))
    @example(allowed=[[0, 5, 10], [5, 10, 15]], n_lambda=2, dist=0)  # shared values at d = 0
    @example(allowed=[[0, 5, 10], [5, 10, 15]], n_lambda=1, dist=5)  # shared values at d > 0
    @example(allowed=[[0, 5], [1, 2]], n_lambda=1, dist=3)  # the first opener fails
    @example(allowed=[[0, 3, 6], [1, 4]], n_lambda=2, dist=3)  # no matrix
    @example(allowed=[[0, 1, 2], [0, 1, 2], [0, 1, 2]], n_lambda=3, dist=0)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_row_search(self, allowed, n_lambda, dist):
        rows = _witness(allowed, n_lambda, dist, _Clock(0))
        with pytest.MonkeyPatch.context() as mp:
            # No completion check: the search backtracks.
            mp.setattr(spacing, "_PACK_STATES", 0)
            assert _witness(allowed, n_lambda, dist, _Clock(0)) == rows

    @pytest.mark.parametrize(
        "allowed,rows,want",
        [
            ([[0, 20], [10, 21]], [(0, [0, 1])], False),  # 21 is within 5 of row 0's 20
            ([[0, 20], [10, 26]], [(0, [0, 1])], True),
            ([[0, 20], [3, 10, 26]], [(0, [0])], True),
            ([[10, 30], [0, 40]], [(0, [0])], False),  # 0 clears 10 but opens before it
        ],
    )
    def test_check_on_hand_states(self, allowed, rows, want):
        placed = sorted(allowed[r][j] for r, idxs in rows for j in idxs)
        assert brute_completes(allowed, 2, 5, rows) == want
        assert _completes(allowed, 2, 5, rows, placed, _Clock(0)) == want

    @given(
        allowed=st.lists(
            st.lists(st.integers(0, 30), min_size=1, max_size=5, unique=True).map(sorted),
            min_size=1,
            max_size=3,
        ),
        n_lambda=st.integers(1, 3),
        dist=st.integers(0, 10),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_check_against_brute_force(self, allowed, n_lambda, dist, data):
        # Place carriers as the row search does, each a candidate clear of
        # those placed, and stop at a drawn step.
        rows, placed = [], []
        for _ in range(data.draw(st.integers(0, len(allowed) * n_lambda))):
            if rows and len(rows[-1][1]) < n_lambda:
                r, idxs = rows[-1]
                lst = allowed[r]
                cands = [
                    (r, j) for j in range(idxs[-1] + 1, len(lst))
                    if lst[j] >= lst[idxs[-1]] + dist
                ]
            elif len(rows) < len(allowed):
                used = {r for r, _ in rows}
                floor = allowed[rows[-1][0]][rows[-1][1][0]] + dist if rows else -math.inf
                cands = [
                    (r, j) for r, lst in enumerate(allowed) if r not in used
                    for j, v in enumerate(lst) if v >= floor
                ]
            else:
                break
            cands = [c for c in cands if all(abs(allowed[c[0]][c[1]] - w) >= dist for w in placed)]
            if not cands:
                break
            r, j = data.draw(st.sampled_from(cands))
            if rows and len(rows[-1][1]) < n_lambda:
                rows[-1][1].append(j)
            else:
                rows.append((r, [j]))
            insort(placed, allowed[r][j])
        want = brute_completes(allowed, n_lambda, dist, rows)
        assert _completes(allowed, n_lambda, dist, rows, placed, _Clock(0)) == want


class TestLadderAndBound:
    """The test-side reference the ladder and bound properties rely on."""

    def test_radius1_ladder(self, table1):
        ladder = distance_ladder(table1, {1})
        assert ladder[0] == 0
        assert len(ladder) == 11  # C(5,2) distinct pairwise distances plus zero
        assert 50700 in ladder and 105000 in ladder

    def test_single_resonance_ladder(self):
        inst = build_instance({1: (1500000,)})
        assert distance_ladder(inst, {1}) == (0,)

    def test_ladder_sorted_unique(self, table1):
        ladder = distance_ladder(table1, {1, 2, 3, 4})
        assert list(ladder) == sorted(set(ladder))

    def test_upper_bound_examples(self, table1):
        assert dist_upper_bound(table1, {1}, 3) == 52500
        assert dist_upper_bound(table1, {1}, 2) == 105000

    def test_upper_bound_undefined_for_single_carrier(self, table1):
        with pytest.raises(ValueError):
            dist_upper_bound(table1, {1}, 1)


class TestSolve:
    def test_radius1_only_goldens(self):
        sub = radius1_instance()
        for n_lambda, want_dist, want_vals in [
            (2, 105000, [1496400, 1601400]),
            (3, 50700, [1496400, 1547100, 1601400]),
        ]:
            for mode in ("base", "refined"):
                sol = solve_spacing(sub, SpacingProblem(1, n_lambda, mode))
                assert sol.status == "optimal"
                assert sol.dist_pm == want_dist
                assert nominal_rows(sub, sol) == [want_vals]

    def test_full_table1_one_row_two_carriers(self, table1):
        # Radius 2 spans 110.3 nm, beating radius 1's 105.0 nm.
        sol = solve_spacing(table1, SpacingProblem(1, 2, "base"))
        assert sol.dist_pm == 110300
        assert sol.selected_radii == (2,)

    def test_full_table1_one_row_three_carriers(self, table1):
        sol = solve_spacing(table1, SpacingProblem(1, 3, "base"))
        assert sol.dist_pm == 50700
        assert sol.selected_radii == (1,)

    def test_sentinel_single_carrier(self, table1):
        for mode in ("base", "refined"):
            sol = solve_spacing(table1, SpacingProblem(1, 1, mode))
            assert sol.status == "optimal"
            assert sol.dist_pm == 1610800 - 1496400  # whole-instance span
            assert sol.selected_radii == (1,)
            assert sol.matrix == ((0,),)
            assert oracle_spacing(table1, SpacingProblem(1, 1, mode)) == sol

    def test_sentinel_inside_the_band(self):
        # Radius 2 holds both ends of the band; the witness is still the
        # lowest resonance of the lowest id, scored with the whole span.
        inst = build_instance({1: (1_505_000, 1_507_000), 2: (1_500_000, 1_510_000)})
        for mode in ("base", "refined"):
            problem = SpacingProblem(1, 1, mode)
            sol = solve_spacing(inst, problem)
            assert (sol.dist_pm, sol.selected_radii, sol.matrix) == (10_000, (1,), ((0,),))
            assert oracle_spacing(inst, problem) == sol

    def test_infeasible_when_rows_cannot_fill(self, table1):
        sol = solve_spacing(table1, SpacingProblem(1, 8, "base"))
        assert sol.status == "infeasible"
        assert oracle_spacing(table1, SpacingProblem(1, 8, "base")).status == "infeasible"

    def test_oversized_subset_is_infeasible(self, table1):
        assert solve_spacing(table1, SpacingProblem(99, 1, "base")).status == "infeasible"
        assert oracle_spacing(table1, SpacingProblem(5, 1, "base")) == SpacingSolution(
            (), (), None, "infeasible"
        )

    def test_bad_problem_rejected(self):
        with pytest.raises(ValueError):
            SpacingProblem(0, 1, "base")
        with pytest.raises(ValueError):
            SpacingProblem(1, 0, "base")
        with pytest.raises(ValueError):
            SpacingProblem(1, 1, "softened")

    def test_base_infeasible_refined_zero(self):
        # Identical spectra: base equality exclusion kills every assignment,
        # while the refined rules collapse to nothing at distance zero.
        inst = build_instance({1: (1500000, 1510000), 2: (1500000, 1510000)})
        base = solve_spacing(inst, SpacingProblem(2, 1, "base"))
        refined = solve_spacing(inst, SpacingProblem(2, 1, "refined"))
        assert base.status == "infeasible"
        assert refined.status == "optimal"
        assert refined.dist_pm == 0
        assert oracle_spacing(inst, SpacingProblem(2, 1, "base")).status == "infeasible"
        assert oracle_spacing(inst, SpacingProblem(2, 1, "refined")).dist_pm == 0

    def test_large_pool_memory(self):
        # 2,501 radii: the exact pair caps are memoised per pair scanned, so
        # memory follows the search, not an N x N table (~50 MB here).
        inst = generate(GenSpec(r_step_pm=10_000))
        tracemalloc.start()
        try:
            sol = solve_spacing(inst, SpacingProblem(2, 2, "refined"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (sol.status, sol.dist_pm) == ("optimal", 13_209)
        assert peak < 10 * 2**20

    def test_timeout_status(self):
        inst = generate_random_small(11, 6, 10)
        sol = solve_spacing(inst, SpacingProblem(3, 2, "base"), SolveConfig(time_limit=1e-9))
        assert sol.status == "incumbent-timeout"

    def test_time_limit_stops_a_large_pool(self):
        # 1,251 radii, three a subset: the whole solve takes ~0.4 s on a
        # 2-vCPU VM, forty times the limit.
        inst = generate(GenSpec(r_step_pm=20_000))
        started = time.monotonic()
        sol = solve_spacing(inst, SpacingProblem(3, 2, "refined"), SolveConfig(time_limit=0.01))
        assert sol.status == "incumbent-timeout"
        assert time.monotonic() - started < 1

    @pytest.mark.parametrize("problem, limit", [
        (SpacingProblem(2, 2, "base"), 0),
        (SpacingProblem(3, 3, "refined"), 0),
        (SpacingProblem(3, 5, "base"), 0.01),
    ])
    def test_a_solve_leaves_no_cyclic_garbage(self, problem, limit):
        # A search frame that named its own function would be a cycle holding
        # the search's tables until the next full collection; `_walk` frames
        # yield their children's arguments instead.
        inst = generate(GenSpec(seed=1000, jitter_pm=100))
        config = SolveConfig(time_limit=limit)
        assert cyclic_garbage_of(lambda: solve_spacing(inst, problem, config)) == 0

    def test_time_limit_stops_a_large_base_pool(self):
        # 2,501 radii, base 3x2: siblings the last level filters out do not
        # tick, so the clock must still be read often enough to stop near
        # the limit (~0.05 s on a 2-vCPU VM).
        inst = generate(GenSpec(r_step_pm=10_000))
        started = time.monotonic()
        sol = solve_spacing(inst, SpacingProblem(3, 2, "base"), SolveConfig(time_limit=0.05))
        assert sol.status == "incumbent-timeout"
        assert time.monotonic() - started < 1

    @pytest.mark.parametrize("mode", ["base", "refined"])
    def test_timeout_in_witness_keeps_the_incumbent(self, table1, monkeypatch, mode):
        # The solve is cut while it builds the witness of the first subset
        # at the optimum, after the search has ended: the report is the
        # incumbent at the same distance, with the packing that proved it,
        # and no second witness is built after the cut.
        calls = []

        def cut(*args):
            calls.append(args)
            raise _Timeout

        problem = SpacingProblem(2, 2, mode)
        optimum = solve_spacing(table1, problem).dist_pm
        monkeypatch.setattr(spacing, "_witness", cut)
        sol = solve_spacing(table1, problem)
        assert len(calls) == 1
        assert (sol.status, sol.dist_pm) == ("incumbent-timeout", optimum)
        assert check_spacing_solution(table1, problem, sol) == []

    @pytest.mark.parametrize("mode", ["base", "refined"])
    def test_timeout_before_the_final_witness(self, table1, monkeypatch, mode):
        # Cut the solve at its last step before the final witness, the last
        # step of the subset search: the search has proven the optimum by
        # then, and its incumbent is reported.
        problem = SpacingProblem(2, 2, mode)
        starts = []

        def recorded(allowed, n_lambda, dist, clock):
            starts.append(clock.steps)
            return _witness(allowed, n_lambda, dist, clock)

        monkeypatch.setattr(spacing, "_witness", recorded)
        optimum = solve_spacing(table1, problem)
        steps = starts[-1]

        class Cut(_Clock):
            def tick(self):
                if self.steps == steps - 1:
                    raise _Timeout
                super().tick()

        monkeypatch.setattr(spacing, "_Clock", Cut)
        sol = solve_spacing(table1, problem)
        assert len(starts) == 1
        assert (sol.status, sol.dist_pm) == ("incumbent-timeout", optimum.dist_pm)
        assert check_spacing_solution(table1, problem, sol) == []

    @pytest.mark.parametrize("budget", [spacing._PACK_STATES, 0])
    @pytest.mark.parametrize("mode", ["base", "refined"])
    def test_a_cut_at_any_step_reports_a_matrix(self, monkeypatch, mode, budget):
        # Cut the solve at every step in turn.  Each report comes with no
        # second clock, so nothing runs after the cut; it is verified and
        # keeps the highest distance proven so far: none before the first,
        # then a rising one that ends at the optimum.  At budget 0 the row
        # search decides the probes and its matrices are the packings kept.
        monkeypatch.setattr(spacing, "_PACK_STATES", budget)
        inst = generate_random_small(5, 6, 5)
        problem = SpacingProblem(3, 2, mode)
        optimum = solve_spacing(inst, problem)
        assert optimum.status == "optimal"
        cut_at = [0]
        clocks = []

        class Cut(_Clock):
            def __init__(self, time_limit):
                super().__init__(time_limit)
                clocks.append(self)

            def tick(self):
                if self.steps == cut_at[0]:
                    raise _Timeout
                super().tick()

        monkeypatch.setattr(spacing, "_Clock", Cut)
        seen = []
        while True:
            sol = solve_spacing(inst, problem)
            if sol.status == "optimal":
                break
            assert sol.status == "incumbent-timeout"
            assert check_spacing_solution(inst, problem, sol) == []
            if sol.dist_pm is not None:
                assert len(sol.matrix) == problem.n_radii
            seen.append(sol.dist_pm)
            cut_at[0] += 1
        assert sol == optimum
        assert len(clocks) == len(seen) + 1
        proven = [d for d in seen if d is not None]
        assert seen[: len(seen) - len(proven)] == [None] * (len(seen) - len(proven))
        assert proven == sorted(proven)
        assert proven[-1] == optimum.dist_pm

    def test_determinism(self, table1):
        p = SpacingProblem(2, 2, "refined")
        assert solve_spacing(table1, p) == solve_spacing(table1, p)

    def test_oracle_agrees(self, table1):
        p = SpacingProblem(2, 2, "base")
        assert solve_spacing(table1, p) == oracle_spacing(table1, p)


# Hand-built instances where a pair cap is set by how the spectra sit
# against each other, not by their own gaps.
ABOVE = {  # radius 3 lies wholly above radii 1 and 2, radius 4 wholly below
    1: (1_500_000, 1_500_300, 1_500_600),
    2: (1_500_150, 1_500_450, 1_500_750),
    3: (1_520_000, 1_520_100, 1_520_200),
    4: (1_480_000, 1_480_100, 1_480_200),
}
IN_A_GAP = {  # radii 2 and 4 lie inside the 40 nm gap of radius 1
    1: (1_490_000, 1_530_000),
    2: (1_500_000, 1_500_300, 1_500_600),
    3: (1_500_150, 1_500_450, 1_500_750),
    4: (1_509_900, 1_510_000, 1_510_100),
}

# Refined instances for the per-radius hole bound `far` (`_hole_bounds`).
DENSE_COMB = {  # radius 3 combs the whole band: far = 50, below the optimum
    1: (1_500_000, 1_510_000),
    2: (1_505_000,),
    3: tuple(range(1_500_000, 1_510_001, 100)),
    4: (1_502_000,),
}
LOW_OUTLIER = {  # radius 1 sets the band's low end 100 nm below the rest
    1: (1_400_000, 1_400_010),
    2: (1_500_000, 1_500_400, 1_500_800),
    3: (1_500_200, 1_500_600, 1_501_000),
    4: (1_500_050, 1_500_950),
}

# Inner-node caps would prune here, and the exact leaf test must reject
# every leaf they cut.  The subset search carries no row-comb cap
# (NARROW_COMB); the suffix extent ends its loops (NARROW_SUFFIX, whose
# steps `NARROW_SUFFIX_STEPS` pins).
NARROW_COMB = {  # radius 3 cannot host two carriers the incumbent apart
    1: (1_500_000, 1_501_000),
    2: (1_500_500, 1_501_500),
    3: (1_510_000, 1_510_001, 1_510_002),
}
NARROW_SUFFIX = {  # radii 4-7 together span less than the incumbent
    1: (1_500_000,),
    2: (1_501_000,),
    3: (1_502_000,),
    4: (1_505_000,),
    5: (1_505_010,),
    6: (1_505_020,),
    7: (1_505_030,),
}
# `_Clock` steps of NARROW_SUFFIX 3x1 by mode.  In base mode the root loop
# stops at radius 3: radii 3-7 span 3,030 pm, 1,515 over the two carrier
# gaps, below the optimum of 2,000.  In refined mode, in `far` order, the
# loop under root 1 stops at radius 2: radii 1-3 span 2,000 pm, 1,000 over
# the gaps.  A search without the break takes 48 and 35 steps.
NARROW_SUFFIX_STEPS = {"base": 39, "refined": 34}

# Instances on which the subset search, visiting radii best-first, raises
# its incumbent to the optimum with a later subset in id order than the
# first one there: name -> (mode, shape, values, the subset it raises it
# with, the subset reported).
TIES = {
    "base-2x1": (
        "base", (2, 1),
        {1: (1_500_900, 1_502_900), 2: (1_501_300,), 3: (1_500_300, 1_502_000, 1_502_900)},
        (2, 3), (1, 2),
    ),
    "base-2x2": (
        "base", (2, 2),
        {
            1: (1_502_100, 1_502_600, 1_502_900),
            2: (1_500_900,),
            3: (1_501_800, 1_502_800),
            4: (1_501_600, 1_502_700),
        },
        (1, 4), (1, 3),
    ),
    "refined-2x1": (
        "refined", (2, 1),
        {
            1: (1_502_300,),
            2: (1_500_900, 1_501_100, 1_501_500),
            3: (1_500_400, 1_502_500),
            4: (1_500_800, 1_501_500),
        },
        (3, 4), (2, 3),
    ),
    "refined-2x2": (
        "refined", (2, 2),
        {1: (1_501_000, 1_501_200), 2: (1_500_600, 1_502_500), 3: (1_500_300, 1_500_800)},
        (1, 3), (1, 2),
    ),
    # Radius 1's `far` is 900, the optimum: the root `far` prune must keep
    # it once (3, 4) has raised the incumbent there.
    "refined-2x1-root-far": (
        "refined", (2, 1),
        {1: (1_500_100, 1_501_900), 2: (1_501_000,), 3: (1_501_100,), 4: (1_500_200,)},
        (3, 4), (1, 2),
    ),
    # The span of (1, 3) is 3,500, the optimum: the last-level span filter
    # must keep radius 1 once (2, 3) has raised the incumbent there.
    "base-2x1-span": (
        "base", (2, 1),
        {1: (1_503_900,), 2: (1_500_000, 1_503_900), 3: (1_500_400,)},
        (2, 3), (1, 3),
    ),
    # From the second root on, radii 1, 2 and 4 span 400 pm, 200 over the
    # two carrier gaps, the optimum: the suffix-extent break must keep that
    # root once (2, 3, 4) has raised the incumbent there.
    "base-3x1-suffix": (
        "base", (3, 1),
        {1: (1_500_300,), 2: (1_500_700,), 3: (1_500_200,), 4: (1_500_500, 1_500_600)},
        (2, 3, 4), (1, 2, 4),
    ),
    # One level down: under root 3, radius 3 with radii 2 and 1 spans 600
    # pm, 300 over the gaps, the optimum, so the break must keep radius 2
    # once (1, 3, 4) has raised the incumbent there.
    "refined-3x1-suffix": (
        "refined", (3, 1),
        {1: (1_500_300,), 2: (1_500_600,), 3: (1_500_000,), 4: (1_500_700,)},
        (1, 3, 4), (1, 2, 3),
    ),
}

# Base 2x1: the first subset in id order, (1, 2), reaches 17 pm, one below
# the optimum of 18 that (1, 3) reaches, though its span allows 20.
ONE_BELOW = {
    1: (1_500_008, 1_500_018, 1_500_028),
    2: (1_500_011,),
    3: (1_500_010, 1_500_011, 1_500_026),
}


def copy_nominals(values, seed):
    """`values` ({radius id: nominals}) with, for two pairs of radii in
    three, one nominal of one radius copied into the other, chosen by
    `seed`."""
    rng = random.Random(seed)
    out = {rid: set(noms) for rid, noms in values.items()}
    for a, b in combinations(sorted(values), 2):
        if rng.random() < 2 / 3:
            src, dst = rng.sample((a, b), 2)
            out[dst].add(rng.choice(sorted(out[src])))
    return {rid: tuple(sorted(noms)) for rid, noms in out.items()}


# Spectra for `copy_nominals`: the base `TIES` instances and small random
# ones, by name.
SHARED = {f"ties-{name}": TIES[name][2] for name in TIES if TIES[name][0] == "base"}
SHARED.update(
    (f"small-{seed}", {e.id: e.nominals() for e in generate_random_small(seed, 5, 6).radii})
    for seed in range(12)
)


class TestOracleAgreement:
    def test_oracle_shares_no_solver_code(self):
        assert solver_names_reached(oracle_spacing) == set()

    @pytest.mark.parametrize("shape", [(2, 1), (2, 2), (3, 1)], ids=str)
    @pytest.mark.parametrize("values", [ABOVE, IN_A_GAP], ids=["above", "in-a-gap"])
    def test_spectra_apart(self, values, shape):
        inst = build_instance(values)
        problem = SpacingProblem(*shape, "refined")
        sol = solve_spacing(inst, problem)
        assert sol == oracle_spacing(inst, problem)
        assert sol.status == "optimal"

    @pytest.mark.parametrize("name", sorted(TIES))
    def test_value_pass_meets_a_later_tie_first(self, name, monkeypatch):
        mode, shape, values, met, first = TIES[name]
        ladders = []

        def recorded(noms, floor, top):
            ladders.append(noms)
            return _ladder(noms, floor, top)

        monkeypatch.setattr(spacing, "_ladder", recorded)
        inst = build_instance(values)
        problem = SpacingProblem(*shape, mode)
        sol = solve_spacing(inst, problem)
        # Only a leaf that raises the incumbent builds a ladder.
        assert ladders[-1] == sorted(v for r in met for v in values[r])
        assert sol == oracle_spacing(inst, problem)
        assert sol.status == "optimal"
        assert tuple(sorted(sol.selected_radii)) == first < met

    def test_first_subset_one_below_the_optimum(self):
        # (1, 2) sorts below the tie (1, 3) but reaches only 17: a leaf that
        # sorts below the tie is tested at the incumbent itself.
        inst = build_instance(ONE_BELOW)
        problem = SpacingProblem(2, 1, "base")
        sol = solve_spacing(inst, problem)
        assert sol == oracle_spacing(inst, problem)
        assert (sol.dist_pm, sol.selected_radii) == (18, (1, 3))

    def test_hole_bound_prunes_at_the_root(self, monkeypatch):
        scanned = []

        def recorded(values, others, k):
            scanned.append({values, others})
            return _deepest_hole(values, others, k)

        monkeypatch.setattr(spacing, "_deepest_hole", recorded)
        inst = build_instance(DENSE_COMB)
        problem = SpacingProblem(2, 1, "refined")
        sol = solve_spacing(inst, problem)
        assert sol == oracle_spacing(inst, problem)
        assert sol.dist_pm == 5000
        comb = inst.entry(3).nominals()
        # Radius 3 never reaches an exact scan, not even against radius 4,
        # which only a branch opened at radius 3 would pair it with.
        assert _hole_bounds([inst.entry(r).nominals() for r in inst.ids()], 1)[2] == 50
        assert scanned and not any(comb in pair for pair in scanned)

    def test_hole_bound_looser_than_any_pair(self):
        # Radius 4's pair hole with radius 2 is 150 (the old pairwise bound
        # gave 200), but radius 1 sets the low end 100,050 below it, so far
        # is 50,025 for two carriers; the exact hole, not far, must drop the
        # pair.
        inst = build_instance(LOW_OUTLIER)
        assert _hole_bounds([inst.entry(r).nominals() for r in inst.ids()], 2)[3] == 50_025
        problem = SpacingProblem(2, 2, "refined")
        sol = solve_spacing(inst, problem)
        assert sol == oracle_spacing(inst, problem)
        assert (sol.dist_pm, sol.selected_radii) == (200, (2, 3))

    @pytest.mark.parametrize("mode", ["base", "refined"])
    @pytest.mark.parametrize(
        "values,shape", [(NARROW_COMB, (2, 2)), (NARROW_SUFFIX, (3, 1))],
        ids=["narrow-comb", "narrow-suffix"],
    )
    def test_caps_the_leaf_test_implies(self, values, shape, mode):
        inst = build_instance(values)
        problem = SpacingProblem(*shape, mode)
        sol = solve_spacing(inst, problem)
        assert sol == oracle_spacing(inst, problem)
        assert sol.status == "optimal"

    @pytest.mark.parametrize("mode", sorted(NARROW_SUFFIX_STEPS))
    def test_suffix_extent_ends_the_loop(self, mode, clocks):
        inst = build_instance(NARROW_SUFFIX)
        problem = SpacingProblem(3, 1, mode)
        sol = solve_spacing(inst, problem)
        assert (sol.dist_pm, sol.selected_radii) == (2000, (1, 3, 4))
        assert [c.steps for c in clocks] == [NARROW_SUFFIX_STEPS[mode]]

    @pytest.mark.parametrize("case", sorted(SHARED))
    def test_many_shared_nominals(self, case):
        # The base search tracks shared nominals only through the ones that
        # occur twice; here half the pairs of radii or more share one, some
        # nominals held by three radii at once.
        inst = build_instance(copy_nominals(SHARED[case], case))
        shared = sum(
            bool(set(inst.entry(a).nominals()) & set(inst.entry(b).nominals()))
            for a, b in combinations(inst.ids(), 2)
        )
        assert 2 * shared >= math.comb(len(inst.radii), 2)
        for shape in [(2, 1), (2, 2), (3, 1)]:
            problem = SpacingProblem(*shape, "base")
            assert solve_spacing(inst, problem) == oracle_spacing(inst, problem), shape

    @pytest.mark.parametrize("mode", ["base", "refined"])
    def test_table1_small_grid(self, table1, mode):
        for n_radii in (1, 2):
            for n_lambda in (1, 2, 3):
                problem = SpacingProblem(n_radii, n_lambda, mode)
                sol = solve_spacing(table1, problem)
                oracle = oracle_spacing(table1, problem)
                assert sol == oracle, (mode, n_radii, n_lambda)
                if sol.status == "optimal":
                    assert check_spacing_solution(table1, problem, sol) == []

    @pytest.mark.parametrize("mode", ["base", "refined"])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_small(self, seed, mode):
        shapes = [(3, 8, 1, 3), (4, 8, 2, 2), (5, 6, 3, 1), (4, 6, 2, 3)]
        n_radii_inst, max_res, n_radii, n_lambda = shapes[seed % len(shapes)]
        inst = generate_random_small(seed, n_radii_inst, max_res)
        problem = SpacingProblem(n_radii, n_lambda, mode)
        sol = solve_spacing(inst, problem)
        oracle = oracle_spacing(inst, problem)
        assert sol == oracle, (seed, mode)

    @pytest.mark.parametrize("mode", ["base", "refined"])
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize(
        "n_radii,n_lambda,max_res", [(4, 1, 5), (4, 2, 5), (5, 1, 4), (5, 2, 4), (6, 1, 4)],
        ids=["4x1", "4x2", "5x1", "5x2", "6x1"],
    )
    def test_random_small_at_depth(self, n_radii, n_lambda, max_res, seed, mode):
        # Four to six of six radii: the subset search carries pair caps
        # over two or more chosen radii before a leaf.
        inst = generate_random_small(seed, 6, max_res)
        problem = SpacingProblem(n_radii, n_lambda, mode)
        assert solve_spacing(inst, problem) == oracle_spacing(inst, problem), (seed, mode)


class TestProperties:
    def test_refined_never_beats_base(self, table1):
        for n_radii, n_lambda in [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)]:
            base = solve_spacing(table1, SpacingProblem(n_radii, n_lambda, "base"))
            refined = solve_spacing(table1, SpacingProblem(n_radii, n_lambda, "refined"))
            if base.status == "optimal" and refined.status == "optimal":
                assert refined.dist_pm <= base.dist_pm
            elif base.status == "infeasible" and refined.status == "optimal":
                assert refined.dist_pm == 0

    def test_monotone_in_n_lambda(self, table1):
        for mode in ("base", "refined"):
            prev = None
            for n_lambda in (1, 2, 3):
                sol = solve_spacing(table1, SpacingProblem(2, n_lambda, mode))
                assert sol.status == "optimal"
                if prev is not None:
                    assert sol.dist_pm <= prev
                prev = sol.dist_pm

    def test_monotone_in_n_radii(self, table1):
        for mode in ("base", "refined"):
            prev = None
            for n_radii in (1, 2, 3, 4):
                sol = solve_spacing(table1, SpacingProblem(n_radii, 2, mode))
                assert sol.status == "optimal"
                if prev is not None:
                    assert sol.dist_pm <= prev
                prev = sol.dist_pm

    def test_optimum_on_ladder_and_below_bound(self, table1):
        for mode in ("base", "refined"):
            for n_radii, n_lambda in [(1, 2), (2, 2), (2, 3), (3, 2)]:
                sol = solve_spacing(table1, SpacingProblem(n_radii, n_lambda, mode))
                assert sol.status == "optimal"
                ladder = distance_ladder(table1, set(sol.selected_radii))
                assert sol.dist_pm in ladder
                assert sol.dist_pm <= dist_upper_bound(
                    table1, set(sol.selected_radii), n_lambda
                )

    def test_checker_validates_solutions(self, table1):
        for mode in ("base", "refined"):
            for n_radii, n_lambda in [(1, 1), (1, 3), (2, 2), (3, 1)]:
                problem = SpacingProblem(n_radii, n_lambda, mode)
                sol = solve_spacing(table1, problem)
                assert check_spacing_solution(table1, problem, sol) == []

    def test_first_column_ascends(self, table1):
        sol = solve_spacing(table1, SpacingProblem(3, 2, "base"))
        rows = nominal_rows(table1, sol)
        firsts = [r[0] for r in rows]
        assert firsts == sorted(firsts)


# Desk-scale Phase-2 optima: (seed, n_radii, n_lambda, mode) ->
# (dist_pm, selected_radii, matrix, steps) on generate(GenSpec(seed,
# jitter_pm=100)).  The oracle tests use small instances, where the hole
# bounds and leaf span caps rarely prune; these pin the search where they
# do.  `steps` is the search effort in `_Clock` ticks (subset nodes of
# the search, witness candidates and packing-DP states), pinned as in
# `TestSearchEffort`: a change that alters it on purpose updates it here
# and says so in CHANGES.md with the old and new counts.
PINNED = {
    (1000, 2, 2, "base"): (43154, (72, 96), ((0, 8), (19, 28)), 193),
    (1001, 2, 2, "base"): (43122, (72, 96), ((0, 8), (19, 28)), 197),
    (1000, 3, 1, "base"): (64883, (63, 81, 24), ((0,), (12,), (10,)), 1280),
    (1000, 3, 3, "refined"): (4932, (6, 14, 1), ((0, 3, 4), (1, 4, 5), (1, 3, 4)), 774),
    (1001, 3, 3, "refined"): (4970, (8, 14, 1), ((0, 4, 5), (1, 5, 6), (1, 3, 4)), 761),
}


class TestPinnedDeskScale:
    @pytest.mark.parametrize("case", sorted(PINNED), ids=str)
    def test_matches_pinned(self, case, clocks):
        seed, n_radii, n_lambda, mode = case
        inst = generate(GenSpec(seed=seed, jitter_pm=100))
        problem = SpacingProblem(n_radii, n_lambda, mode)
        sol = solve_spacing(inst, problem)
        assert sol.status == "optimal"
        dist, radii, matrix, steps = PINNED[case]
        assert (sol.dist_pm, sol.selected_radii, sol.matrix) == (dist, radii, matrix)
        assert [c.steps for c in clocks] == [steps]
        assert check_spacing_solution(inst, problem, sol) == []


# `_deepest_hole` calls per refined `PINNED` solve: the exact pair holes the
# subset search scans once the per-radius `_hole_bounds` let a candidate
# through, the second direction of a pair only when the first leaves it
# above the incumbent.  Scanning every pair takes 10,100 (two scans for each
# of the 5,050 pairs of 101 radii); a change that moves these counts says so
# in CHANGES.md.
HOLE_SCANS = {
    (1000, 3, 3, "refined"): 965,
    (1001, 3, 3, "refined"): 907,
}


class TestPairHoleEffort:
    @pytest.mark.parametrize("case", sorted(HOLE_SCANS), ids=str)
    def test_exact_holes_on_demand(self, case, monkeypatch):
        scans = []

        def counted(values, others, k):
            scans.append(1)
            return _deepest_hole(values, others, k)

        monkeypatch.setattr(spacing, "_deepest_hole", counted)
        seed, n_radii, n_lambda, mode = case
        inst = generate(GenSpec(seed=seed, jitter_pm=100))
        sol = solve_spacing(inst, SpacingProblem(n_radii, n_lambda, mode))
        assert (sol.dist_pm, sol.selected_radii, sol.matrix) == PINNED[case][:3]
        assert len(scans) == HOLE_SCANS[case]


# Refined shapes the n_lambda-aware bounds bring within test time (solve
# only, 2-vCPU VM): desk 4x5 took ~7 s and small-ring 6x7 10-15 s before,
# and now take ~0.04 s and ~0.01 s.  name -> (GenSpec fields beside
# jitter_pm=100, n_radii, n_lambda, dist_pm, selected_radii, matrix, steps,
# ladder rungs), with steps pinned as in `PINNED`.
LARGE = {
    "desk-4x5": (
        {"seed": 1000}, 4, 5, 2650, (10, 13, 16, 6),
        ((0, 1, 5, 6, 7), (0, 1, 5, 6, 7), (0, 1, 5, 6, 7), (0, 1, 3, 4, 5)),
        6904, 36,
    ),
    "small-ring-6x7": (
        {"seed": 3, "r_max_pm": 12_000_000}, 6, 7, 1031, (18, 10, 21, 23, 14, 26),
        (
            (0, 1, 2, 5, 6, 7, 8),
            (0, 1, 2, 4, 5, 6, 7),
            (0, 1, 2, 6, 7, 8, 9),
            (0, 1, 2, 6, 7, 8, 9),
            (0, 1, 2, 4, 5, 6, 7),
            (0, 1, 2, 6, 7, 8, 9),
        ),
        2038, 30,
    ),
}


class TestLargeRefined:
    @pytest.mark.parametrize("name", sorted(LARGE))
    def test_matches_pinned(self, name, clocks, monkeypatch):
        # The rungs of every ladder the leaves walk, summed: a leaf's ladder
        # tops out at the least pair cap among its radii, so a looser top
        # would lengthen the ladders with every answer still right.
        rungs = []
        ladder = spacing._ladder

        def counting(noms, floor, top):
            out = ladder(noms, floor, top)
            rungs.append(len(out))
            return out

        fields, n_radii, n_lambda, dist, radii, matrix, steps, ladder_rungs = LARGE[name]
        monkeypatch.setattr(spacing, "_ladder", counting)
        inst = generate(GenSpec(jitter_pm=100, **fields))
        problem = SpacingProblem(n_radii, n_lambda, "refined")
        sol = solve_spacing(inst, problem)
        assert sol.status == "optimal"
        assert (sol.dist_pm, sol.selected_radii, sol.matrix) == (dist, radii, matrix)
        assert [c.steps for c in clocks] == [steps]
        assert sum(rungs) == ladder_rungs
        assert check_spacing_solution(inst, problem, sol) == []
