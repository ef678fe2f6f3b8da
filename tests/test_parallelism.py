import importlib
import pkgutil
import subprocess
import sys
import time
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wronoc
from conftest import (
    SOLVER_NAMES,
    build_instance,
    columns,
    cyclic_garbage_of,
    generate_random_small,
    package_env,
    restrict,
    solver_names_reached,
    table1_instance,
    with_delta,
)
from test_conflict import brute_force_mis
from wronoc import (
    GenSpec,
    Instance,
    ParallelismSolution,
    RadiusEntry,
    SolveConfig,
    SplitMix64,
    apply_delta,
    generate,
    oracle_max_parallelism,
    parallelism,
    solve_max_parallelism,
)
from wronoc.verify import check_parallelism_solution


def evaluate_subset(instance, subset):
    """Per-radius capacities of one radius subset: Phase 1 on the instance
    cut down to it, where that subset is the only choice."""
    inst = restrict(instance, subset)
    sol = solve_max_parallelism(inst, len(subset))
    assert check_parallelism_solution(inst, sol, len(subset)) == []
    return sol.counts


class TestEvaluateSubset:
    def test_worked_example(self, table1):
        assert evaluate_subset(table1, {2, 3, 4}) == {2: 4, 3: 5, 4: 5}

    def test_singleton_conflict_free(self, table1):
        assert evaluate_subset(table1, {4}) == {4: 7}

    def test_pair_34(self, table1):
        assert evaluate_subset(table1, {3, 4}) == {3: 5, 4: 6}

    def test_empty_subset_rejected(self, table1):
        sol = ParallelismSolution((), status="optimal")
        assert check_parallelism_solution(table1, sol, 1) == [
            "status optimal but no radii selected"
        ]

    def test_empty_timeout_with_a_p_rejected(self, table1):
        sol = ParallelismSolution((), parallelism=3, status="incumbent-timeout")
        assert check_parallelism_solution(table1, sol, 2) == [
            "P given but no radii selected"
        ]
        empty = ParallelismSolution((), status="incumbent-timeout")
        assert check_parallelism_solution(table1, empty, 2) == []


class TestSolve:
    @pytest.mark.parametrize("half_width, n_radii, limit", [(100, 4, 0), (1000, 16, 0.001)])
    def test_a_solve_leaves_no_cyclic_garbage(self, half_width, n_radii, limit):
        # A search frame that named its own function would be a cycle holding
        # the search tables until the next full collection; `_walk` frames
        # yield their children's arguments instead, timed out or not.
        inst = apply_delta(generate(GenSpec(seed=1000, jitter_pm=100)), half_width)
        config = SolveConfig(time_limit=limit)
        assert cyclic_garbage_of(lambda: solve_max_parallelism(inst, n_radii, config)) == 0

    def test_search_depth_is_not_bounded_by_recursion(self):
        # 150 search levels under a recursion limit of 120: Phase 1, the
        # Phase-2 subset search and the row search all keep their frames on
        # `_walk`'s stack, not on the interpreter's.
        code = """if True:
            import sys
            from wronoc import (SpacingProblem, parse_instance, solve_max_parallelism,
                                solve_spacing)
            inst = parse_instance("".join(
                f"radius {r} {5_000_000 + 1000 * r}\\nresonance {r} {1_500_000 + 100 * r}\\n"
                for r in range(1, 151)))
            sys.setrecursionlimit(120)
            sol = solve_max_parallelism(inst, 150)
            assert (sol.status, sol.parallelism) == ("optimal", 1), sol
            sol = solve_spacing(inst, SpacingProblem(150, 1))
            assert (sol.status, sol.dist_pm) == ("optimal", 100), sol
        """
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=package_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_three_radii(self, table1):
        sol = solve_max_parallelism(table1, 3)
        assert sol.status == "optimal"
        assert sol.parallelism == 4
        assert sol.selected_radii == (1, 2, 3)  # lexicographically smallest optimum

    def test_two_radii(self, table1):
        sol = solve_max_parallelism(table1, 2)
        assert sol.parallelism == 5
        assert sol.selected_radii == (2, 3)

    def test_four_radii(self, table1):
        sol = solve_max_parallelism(table1, 4)
        assert sol.parallelism == 4
        assert sol.counts == {1: 4, 2: 4, 3: 5, 4: 5}

    def test_one_radius_takes_largest_capacity(self, table1):
        sol = solve_max_parallelism(table1, 1)
        assert sol.parallelism == 7
        assert sol.selected_radii == (4,)

    def test_oversized_subset_is_infeasible(self, table1):
        sol = solve_max_parallelism(table1, 99)
        assert sol.status == "infeasible"
        assert sol.parallelism is None

    def test_bad_n_radii_raises(self, table1):
        with pytest.raises(ValueError):
            solve_max_parallelism(table1, 0)
        with pytest.raises(ValueError, match="n_radii must be >= 1"):
            oracle_max_parallelism(table1, 0)

    def test_all_shared_is_infeasible(self):
        inst = build_instance({1: (1500000, 1510000), 2: (1500000, 1510000)})
        sol = solve_max_parallelism(inst, 2)
        assert sol.status == "infeasible"
        assert oracle_max_parallelism(inst, 2).status == "infeasible"

    def test_trim_to_p(self, table1):
        sol = solve_max_parallelism(table1, 3, SolveConfig(trim_to_p=True))
        assert sol.parallelism == 4
        for rid in sol.selected_radii:
            assert len(sol.selections[rid]) == 4
            assert sol.counts[rid] == 4
        untrimmed = solve_max_parallelism(table1, 3)
        for rid in sol.selected_radii:
            # trimming keeps the leading entries of the untrimmed witness
            assert sol.selections[rid] == untrimmed.selections[rid][:4]

    def test_oracle_agrees(self, table1):
        for n in (1, 2, 3, 4):
            sol = solve_max_parallelism(table1, n)
            assert sol == oracle_max_parallelism(table1, n)

    def test_determinism(self, table1):
        a = solve_max_parallelism(table1, 3)
        b = solve_max_parallelism(table1, 3)
        assert a == b

    def test_timeout_reports_incumbent_status(self):
        inst = generate_random_small(3, 6, 10)
        sol = solve_max_parallelism(inst, 4, SolveConfig(time_limit=1e-9))
        assert sol.status == "incumbent-timeout"
        # The limit covers the seed: one this small is spent at the seed's
        # first clock read, before any subset is whole, so the incumbent
        # is the empty one.
        desk = apply_delta(generate(GenSpec(seed=1000, jitter_pm=100)), 100)
        sol = solve_max_parallelism(desk, 4, SolveConfig(time_limit=1e-9))
        assert (sol.status, sol.parallelism) == ("incumbent-timeout", None)
        assert check_parallelism_solution(desk, sol, 4) == []

    def test_a_cut_value_search_reports_the_seed(self, monkeypatch):
        # The limit runs out while the table is built, after the seed, so
        # the value search stops at its first clock read.  Every desk
        # radius is disjoint at delta 100, so capacity is resonance count.
        build = parallelism.conflicts_of

        def slow_build(instance):
            if len(instance.radii) > 4:  # past the seed's tables
                time.sleep(0.1)
            return build(instance)

        monkeypatch.setattr(parallelism, "conflicts_of", slow_build)
        desk = apply_delta(generate(GenSpec(seed=1000, jitter_pm=100)), 100)
        sol = solve_max_parallelism(desk, 4, SolveConfig(time_limit=0.05))
        seed = sorted(desk.radii, key=lambda e: (-len(e.nominals()), e.id))[:4]
        assert sol.status == "incumbent-timeout" and sol.parallelism >= 1
        assert sol.selected_radii == tuple(sorted(e.id for e in seed))
        assert check_parallelism_solution(desk, sol, 4) == []

    def test_time_limit_bounds_the_seed(self):
        # 600 conflict-free two-resonance radii and one with a single
        # resonance: the seed of 550 keeps capacity 2 above the least, 1,
        # so it never stops early.  Unless the clock it reads before each
        # prefix's table stops it, it runs for ~0.05 s and a cut search
        # reports it as the incumbent.
        values = {r: (1_500_000 + 100 * r, 1_600_000 + 100 * r) for r in range(1, 601)}
        inst = build_instance({**values, 601: (1_400_000,)})
        started = time.monotonic()
        sol = solve_max_parallelism(inst, 550, SolveConfig(time_limit=1e-9))
        assert (sol.status, sol.parallelism) == ("incumbent-timeout", None)
        assert time.monotonic() - started < 0.1

    def test_time_limit_bounds_the_colouring(self):
        # 600 conflict-free one-resonance radii, 550 to choose: no leaf is
        # found, so the floor stays 0 and each node colours the ~600
        # resonances of its pool, each adjacent to all the others: O(pool^2)
        # work between two ticks.
        inst = build_instance({r: (1_500_000 + 100 * r,) for r in range(1, 601)})
        started = time.monotonic()
        sol = solve_max_parallelism(inst, 550, SolveConfig(time_limit=0.5))
        assert sol.status == "incumbent-timeout"
        assert time.monotonic() - started < 2

    def test_a_chain_of_single_candidates_is_not_coloured(self):
        # 600 conflict-free one-resonance radii, all 600 to choose: one
        # subset.  Below the root every pool holds exactly the radii still
        # needed, and colouring each would cost O(pool^2) per level.
        inst = build_instance({r: (1_500_000 + 100 * r,) for r in range(1, 601)})
        sol = solve_max_parallelism(inst, 600, SolveConfig(time_limit=2))
        assert (sol.status, sol.parallelism, len(sol.selected_radii)) == ("optimal", 1, 600)

    def test_a_leaf_must_beat_the_floor_by_capacity(self):
        # Widened so that each radius's own intervals overlap: radii 1-3
        # have 5-6 resonances but capacity 3, radius 4 has 7 and capacity 4.
        # Their bit counts pass every node test at floor 4, so only the
        # exact capacity at the leaf keeps them from replacing radius 4.
        inst = table1_instance(half_width=15_000)
        sol = solve_max_parallelism(inst, 1)
        assert (sol.status, sol.parallelism, sol.selected_radii) == ("optimal", 4, (4,))
        assert sol == oracle_max_parallelism(inst, 1)

    def test_solution_passes_checker(self, table1):
        for n in (1, 2, 3, 4):
            sol = solve_max_parallelism(table1, n)
            assert check_parallelism_solution(table1, sol, n) == []


class TestOracleAgreement:
    def test_oracle_shares_no_solver_code(self):
        assert solver_names_reached(oracle_max_parallelism) == set()

    def test_every_guarded_name_is_solver_code(self):
        # A name the package no longer defines guards nothing: the guard
        # above would pass whatever the oracles did under it.
        defined = set()
        for info in pkgutil.iter_modules(wronoc.__path__, "wronoc."):
            module = importlib.import_module(info.name)
            for name, obj in vars(module).items():
                if getattr(obj, "__module__", None) == module.__name__:
                    defined.add(name)
                    if isinstance(obj, type):
                        defined.update(vars(obj))
        assert SOLVER_NAMES - defined == set()

    def test_table1_both_deltas(self):
        for hw in (0, 1000):
            inst = table1_instance(half_width=hw)
            for n in (1, 2, 3, 4):
                assert solve_max_parallelism(inst, n) == oracle_max_parallelism(inst, n)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_small(self, seed):
        n_radii = 2 + seed % 5
        base = generate_random_small(seed, n_radii, 9)
        for hw in (0, 500, 1200):
            inst = with_delta(base, hw)
            for n in range(1, n_radii + 1):
                sol = solve_max_parallelism(inst, n)
                oracle = oracle_max_parallelism(inst, n)
                assert sol == oracle, (seed, hw, n)
                if sol.status == "optimal":
                    assert check_parallelism_solution(inst, sol, n) == []

    @pytest.mark.parametrize("seed", range(15))
    def test_explicit_interval_instances(self, seed):
        from test_conflict import explicit_interval_instance

        inst = explicit_interval_instance(seed, n_radii=4)
        for n in range(1, 5):
            sol = solve_max_parallelism(inst, n)
            assert sol == oracle_max_parallelism(inst, n), (seed, n)
            if sol.status == "optimal":
                assert check_parallelism_solution(inst, sol, n) == []

    @pytest.mark.parametrize("seed", range(60))
    def test_random_small_proofs(self, seed):
        # Intervals wide enough that most answers are infeasible or 1, so
        # the floor-0 colouring of resonances decides most nodes.
        n_radii = 3 + seed % 4
        base = generate_random_small(seed, n_radii, 12)
        for hw in (1500, 2500, 4000):
            inst = with_delta(base, hw)
            for n in range(3, n_radii + 1):
                sol = solve_max_parallelism(inst, n)
                assert sol == oracle_max_parallelism(inst, n), (seed, hw, n)
                if sol.status == "optimal":
                    assert check_parallelism_solution(inst, sol, n) == []


def spread_interval_instance(seed):
    """Six radii with explicit intervals of unequal widths.  Radius r has
    up to 2r resonances, so capacities spread and a seed's bound drops the
    small radii; radius 6 copies radius 5, so every optimum that holds
    radius 5 ties with one that holds radius 6 instead."""
    rng = SplitMix64(seed)
    radii = []
    for rid in range(1, 6):
        noms = sorted({1_500_000 + 700 * rng.randint(0, 80) for _ in range(2 * rid)})
        radii.append(RadiusEntry(rid, 0, noms, [v - rng.randint(0, 1500) for v in noms],
                                 [v + rng.randint(0, 1500) for v in noms]))
    radii.append(RadiusEntry(6, 0, *columns(radii[-1])))
    return Instance(tuple(radii), f"spread seed={seed}")


class TestRestrictedTable:
    """The seed's bound restricts the conflict table to the radii that can
    matter, and the answers stay those of the oracle."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The radius count of every conflict table a solve builds."""
        sizes = []
        build = parallelism.conflicts_of

        def counting(instance):
            sizes.append(len(instance.radii))
            return build(instance)

        monkeypatch.setattr(parallelism, "conflicts_of", counting)
        return sizes

    def test_a_seed_restricts_the_table(self, built):
        inst = apply_delta(generate(GenSpec(seed=0, jitter_pm=100)), 100)
        # The seed's tables over its first 2 and all 4 radii; 56 radii have
        # capacity at least its value, so a search over the first 8 comes
        # next, and its value leaves 35 radii that can tie or beat it.
        assert solve_max_parallelism(inst, 4).parallelism == 24
        assert built == [2, 4, 8, 35]

    def test_no_seed_stops_at_its_first_prefix(self, built):
        # Infeasible: the seed's value falls to the least capacity at its
        # second radius, so its 2-radius table is its only one, it drops no
        # radius, and the search's table holds every radius.
        inst = apply_delta(generate(GenSpec(seed=0, jitter_pm=100)), 1000)
        assert solve_max_parallelism(inst, 16).status == "infeasible"
        assert built == [2, 101]

    def test_oracle_agrees_on_spread_capacities(self, built):
        restricted = tied = 0
        for seed in range(40):
            inst = spread_interval_instance(seed)
            for n in range(1, 6):
                built.clear()
                sol = solve_max_parallelism(inst, n)
                assert sol == oracle_max_parallelism(inst, n), (seed, n)
                if sol.status == "optimal":
                    assert check_parallelism_solution(inst, sol, n) == []
                restricted += built[-1] < 6
                tied += 5 in sol.selected_radii
        # Of the 200 cells, 52 build a restricted table and 84 break the
        # tie between radii 5 and 6.
        assert (restricted, tied) == (52, 84)

    @pytest.mark.parametrize("seed", range(4))
    def test_the_last_table_holds_every_radius_that_can_tie(self, monkeypatch, seed):
        # Whatever prefixes the seed and the prefix search read, the table
        # the value is proven on holds every radius of capacity >= P, and
        # each answer is the unrestricted search's: the solve with no seed,
        # whose one table holds every radius.
        tables = []
        build = parallelism.conflicts_of

        def recording(instance):
            tables.append({e.id for e in instance.radii})
            return build(instance)

        monkeypatch.setattr(parallelism, "conflicts_of", recording)
        base = generate(GenSpec(seed=seed, jitter_pm=100))
        prefixed = 0
        for delta in (0, 100, 300):
            inst = apply_delta(base, delta)
            everyone = {e.id for e in inst.radii}
            caps = {e.id: len(parallelism._longest_chain(e.lmins, e.lmaxs,
                                                         tuple(range(len(e.lmins)))))
                    for e in inst.radii}
            for n in range(1, 9):
                tables.clear()
                sol = solve_max_parallelism(inst, n)
                p = sol.parallelism or 0
                assert {rid for rid in everyone if caps[rid] >= p} <= tables[-1], (delta, n)
                prefixed += 2 * n in map(len, tables[:-1])
                with monkeypatch.context() as m:
                    m.setattr(parallelism, "_seed", lambda *args: 0)
                    tables.clear()
                    assert solve_max_parallelism(inst, n) == sol, (delta, n)
                    assert tables == [everyone]
        # Every delta-100 cell from n = 2 up searches a 2n-radius prefix.
        assert prefixed == 7

    def test_a_cut_final_search_reports_the_prefix_search(self, monkeypatch):
        # The limit runs out while the final table is built, after the
        # search over the first 8 radii raised the seed's value, so the
        # final search stops at its first clock read and that value stands.
        build = parallelism.conflicts_of

        def slow_build(instance):
            if len(instance.radii) > 8:  # the final table
                time.sleep(0.1)
            return build(instance)

        monkeypatch.setattr(parallelism, "conflicts_of", slow_build)
        desk = apply_delta(generate(GenSpec(seed=1000, jitter_pm=100)), 100)
        seed = sorted(desk.radii, key=lambda e: (-len(e.nominals()), e.id))[:4]
        seed_value = evaluate_subset(desk, [e.id for e in seed])
        sol = solve_max_parallelism(desk, 4, SolveConfig(time_limit=0.05))
        assert sol.status == "incumbent-timeout"
        assert sol.parallelism > min(seed_value.values())
        assert check_parallelism_solution(desk, sol, 4) == []


class TestMonotonicity:
    def test_p_nonincreasing_in_delta(self):
        for seed in range(12):
            base = generate_random_small(seed, 4, 8)
            prev = None
            for hw in (0, 500, 1200):
                inst = with_delta(base, hw)
                sol = solve_max_parallelism(inst, 2)
                p = sol.parallelism if sol.status == "optimal" else 0
                if prev is not None:
                    assert p <= prev
                prev = p

    def test_p_nonincreasing_in_n_radii(self):
        for seed in range(12):
            inst = with_delta(generate_random_small(seed, 5, 8), 500)
            prev = None
            for n in range(1, 6):
                sol = solve_max_parallelism(inst, n)
                p = sol.parallelism if sol.status == "optimal" else 0
                if prev is not None:
                    assert p <= prev
                prev = p


def _without(stop, *gaps):
    return tuple(j for j in range(stop) if j not in gaps)


# Phase-1 results on generated desk-scale instances (jitter 100 pm), which any
# rewrite of the search must reproduce exactly: (seed, delta, n_radii, trim)
# -> (P, selected radii, selections).  The 16-radius case is a full
# infeasibility proof.
PINNED = {
    (0, 100, 4, False): (24, (82, 87, 94, 101), {
        82: _without(26, 3, 11),
        87: _without(26, 11, 12),
        94: _without(28, 3, 11, 12, 13),
        101: _without(30, 12, 13),
    }),
    (0, 1000, 4, True): (5, (3, 6, 9, 16), {
        3: (0, 1, 3, 4, 5), 6: (0, 1, 3, 4, 5), 9: (0, 1, 2, 4, 5), 16: (0, 1, 2, 4, 5),
    }),
    (1, 1000, 8, False): (2, (1, 2, 4, 5, 7, 9, 14, 25), {
        1: (0, 4), 2: (0, 4), 4: (4, 5), 5: (4, 5), 7: (0, 4), 9: (0, 6),
        14: (1, 2, 4, 5, 7), 25: (3, 5, 10),
    }),
    (2, 1000, 8, False): (2, (1, 2, 5, 8, 15, 19, 26, 38), {
        1: (0, 4), 2: (0, 4), 5: (0, 4), 8: (0, 4), 15: (1, 5, 7), 19: (1, 7),
        26: (3, 5), 38: (5, 7),
    }),
    (0, 1000, 16, False): (None, (), {}),
    # Cases where the colouring bound prunes most of the tree.
    (1000, 1000, 12, False): (None, (), {}),
    (1000, 1000, 8, False): (2, (1, 3, 6, 9, 11, 13, 16, 34), {
        1: (1, 3), 3: (1, 3), 6: (0, 4, 5), 9: (0, 1, 5, 6), 11: (1, 5),
        13: (1, 5, 7), 16: (0, 6), 34: (1, 4, 6, 9),
    }),
    (0, 300, 8, False): (9, (18, 23, 28, 32, 35, 38, 41, 47), {
        18: _without(10, 4),
        23: _without(10, 4),
        28: _without(12, 0, 5, 10),
        32: _without(13, 4, 5, 11),
        35: _without(13, 4, 5, 6),
        38: _without(14, 0, 5, 6, 7, 12),
        41: _without(15, 5, 6, 7, 13),
        47: _without(17, 0, 7, 14),
    }),
}


class TestPinnedDeskScale:
    @pytest.mark.parametrize("case", sorted(PINNED), ids=str)
    def test_matches_pinned(self, case):
        seed, delta, n_radii, trim = case
        inst = apply_delta(generate(GenSpec(seed=seed, jitter_pm=100)), delta)
        sol = solve_max_parallelism(inst, n_radii, SolveConfig(trim_to_p=trim))
        p, radii, selections = PINNED[case]
        assert sol.status == ("optimal" if p else "infeasible")
        assert (sol.parallelism, sol.selected_radii, sol.selections) == (
            p, radii, selections
        )
        assert sol.counts == {rid: len(picks) for rid, picks in selections.items()}
        if p:
            assert check_parallelism_solution(inst, sol, n_radii) == []


class TestSearchEffort:
    """Exact search effort, counted in `_Clock` steps (one per candidate the
    branch and bound examines, both passes together).

    These counts guard against a change that slows the search while every
    answer stays right.  A change that alters search effort on purpose
    updates the pins here and says so, with the old and new counts, in
    CHANGES.md.
    """

    @pytest.mark.parametrize("n_radii,steps", [(3, 11), (4, 11)])
    def test_table1(self, clocks, table1, n_radii, steps):
        solve_max_parallelism(table1, n_radii)
        assert [c.steps for c in clocks] == [steps]

    def test_desk_scale_infeasibility_proof(self, clocks):
        inst = apply_delta(generate(GenSpec(seed=0, jitter_pm=100)), 1000)
        sol = solve_max_parallelism(inst, 16)
        assert sol.status == "infeasible"
        assert [c.steps for c in clocks] == [207]

    def test_desk_scale_overlapping_radii(self, clocks):
        # At delta 3000 a radius's own intervals overlap, so a node's bit
        # count can exceed its capacity.
        inst = apply_delta(generate(GenSpec(seed=0, jitter_pm=100)), 3000)
        sol = solve_max_parallelism(inst, 4)
        assert (sol.status, sol.parallelism) == ("optimal", 1)
        assert [c.steps for c in clocks] == [2564]

    def test_floor_zero_colours_resonances(self, clocks):
        # Every pair of radii keeps a resonance each against the other, so
        # the radius graph is a triangle; but no three resonances, one per
        # radius, are pairwise compatible, and two colours cover them.
        b = 1_500_000
        inst = build_instance({1: (b + 10_000, b + 20_000), 2: (b + 10_000, b + 30_000),
                               3: (b + 20_000, b + 40_000)})
        sol = solve_max_parallelism(inst, 3)
        assert sol.status == "infeasible"
        assert [c.steps for c in clocks] == [1]
        assert sol == oracle_max_parallelism(inst, 3)

    @pytest.fixture
    def mis_calls(self, monkeypatch):
        """Every `_Mis.size` call, as whether that radius's intervals overlap."""
        calls = []
        size = parallelism._Mis.size

        def counting(self, mask):
            calls.append(not self.disjoint)
            return size(self, mask)

        monkeypatch.setattr(parallelism._Mis, "size", counting)
        return calls

    def test_mis_runs_outside_the_node_tests(self, clocks, mis_calls):
        # 101 capacities for the root order and 4 per leaf at 6 leaves: 3
        # in the search over the first 8 radii, 2 on the final table and 1
        # in the canonical pass; the seed reads its value from witnesses, which
        # run no size, as the final rows do.  An MIS in the node tests
        # would make these counts grow with the steps.  Every desk radius
        # is disjoint at delta 100, so every call is a bit count.
        inst = apply_delta(generate(GenSpec(seed=0, jitter_pm=100)), 100)
        solve_max_parallelism(inst, 4)
        assert [c.steps for c in clocks] == [211]
        assert (len(mis_calls), sum(mis_calls)) == (125, 0)

    def test_overlapping_radii_take_the_chain_pass(self, clocks, mis_calls):
        # 101 root capacities and 4 per leaf at 2 leaves, the seed's
        # witnesses running none; 41 of the 109 calls are on radii whose
        # own intervals overlap at delta 3000.
        inst = apply_delta(generate(GenSpec(seed=0, jitter_pm=100)), 3000)
        solve_max_parallelism(inst, 4)
        assert [c.steps for c in clocks] == [2564]
        assert (len(mis_calls), sum(mis_calls)) == (109, 41)


class TestChainMis(TestPinnedDeskScale, TestSearchEffort):
    """Every pinned answer and effort count again, with `_Mis.size` swapped
    for the oracle's longest-chain count: the search reads the MIS routine
    only through its sizes, so an exact count of another make changes
    neither, and `_Mis`'s own count is checked at desk scale."""

    @pytest.fixture(autouse=True)
    def chain_size(self, monkeypatch):
        def size(self, mask):
            usable = tuple(j for j in range(len(self.lmins)) if mask >> j & 1)
            return len(parallelism._longest_chain(self.lmins, self.lmaxs, usable))

        monkeypatch.setattr(parallelism._Mis, "size", size)


class TestMis:
    """The MIS routine and its witness against a 2^n brute force."""

    def test_every_mask_against_the_longest_chain(self):
        # Widened so that neighbouring resonances overlap.
        entry = table1_instance(half_width=10_000).entry(4)
        n = len(entry.nominals())
        mis = parallelism._Mis(entry.lmins, entry.lmaxs)
        for mask in range(1 << n):
            usable = tuple(j for j in range(n) if mask >> j & 1)
            chain = parallelism._longest_chain(entry.lmins, entry.lmaxs, usable)
            assert mis.size(mask) == len(chain)
            assert mis.witness(mask) == chain


# One radius's columns, nominals strictly ascending: each resonance is
# (gap to the previous nominal, width below, width above).  Small values
# make touching (lmins[j+1] == lmaxs[j]) and nested intervals common.
_COLUMNS = st.lists(
    st.tuples(st.integers(1, 6), st.integers(0, 5), st.integers(0, 5)),
    min_size=1, max_size=7,
)


class TestMisFastPath:
    """`_Mis` takes bit counts exactly when no two of its radius's intervals
    meet, and its size and witness stay exact on both paths."""

    @given(columns=_COLUMNS)
    # Intervals as offsets from 1,500,000 pm:
    @example(columns=[(1, 0, 0)])  # a single resonance
    @example(columns=[(1, 0, 2), (3, 1, 0), (5, 0, 0)])  # 1..3 touches 3..4
    @example(columns=[(1, 0, 1), (3, 1, 0), (5, 0, 0)])  # 1..2 and 3..4 do not
    @example(columns=[(5, 0, 5), (1, 0, 0), (1, 0, 0)])  # 5..10 holds 6 and 7
    @settings(max_examples=100, deadline=None)
    def test_against_brute_force_and_the_oracle(self, columns):
        gaps, below, above = zip(*columns)
        nominals = tuple(accumulate(gaps, initial=1_500_000))[1:]
        entry = RadiusEntry(1, 0, nominals, [v - lo for v, lo in zip(nominals, below)],
                            [v + hi for v, hi in zip(nominals, above)])
        lmins, lmaxs, n = entry.lmins, entry.lmaxs, len(nominals)
        mis = parallelism._Mis(lmins, lmaxs)
        assert mis.disjoint == (brute_force_mis(entry, range(n))[0] == n)
        for mask in range(1 << n):
            usable = tuple(j for j in range(n) if mask >> j & 1)
            size, best = brute_force_mis(entry, usable)
            assert (mis.size(mask), mis.witness(mask)) == (size, best)
            assert parallelism._longest_chain(lmins, lmaxs, usable) == best
