from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import build_instance, generate_random_small, restrict, table1_instance, with_delta
from wronoc import (
    ConflictPair,
    GenSpec,
    Instance,
    ParallelismSolution,
    RadiusEntry,
    SplitMix64,
    apply_delta,
    conflicts_of,
    generate,
    solve_max_parallelism,
)
from wronoc.verify import check_parallelism_solution


def explicit_interval_instance(seed, n_radii):
    """Instance whose intervals are asymmetric and can nest arbitrarily."""
    rng = SplitMix64(seed)
    radii = []
    for rid in range(1, n_radii + 1):
        noms = sorted({1_500_000 + 900 * rng.randint(0, 50) for _ in range(8)})
        lmins, lmaxs = [], []
        for v in noms:
            lmins.append(v - rng.randint(0, 2500))
            lmaxs.append(v + rng.randint(0, 2500))
        radii.append(RadiusEntry(rid, 0, noms, lmins, lmaxs))
    return Instance(tuple(radii), f"explicit seed={seed}")


def brute_force_mis(entry, indices):
    """Exhaustive maximum independent set over within-radius conflicts: its
    size and its lexicographically smallest witness."""
    lmins, lmaxs = entry.lmins, entry.lmaxs

    def compatible(subset):
        return all(
            lmaxs[a] < lmins[b] or lmaxs[b] < lmins[a]
            for a, b in combinations(subset, 2)
        )

    for size in range(len(indices), 0, -1):
        for subset in combinations(indices, size):  # in lexicographic order
            if compatible(subset):
                return size, subset
    return 0, ()


def solve_one_radius(instance):
    """Phase 1 on a single-radius instance: the MIS of all its resonances."""
    (rid,) = instance.ids()
    sol = solve_max_parallelism(instance, 1)
    assert sol.status == "optimal"
    return sol.parallelism, sol.selections[rid]


class TestConflictsOf:
    def test_table1_delta_zero(self, table1):
        cs = conflicts_of(table1)
        assert all(p.kind == "cross" for p in cs.pairs())
        cross = {(p.first, p.second) for p in cs.pairs()}
        shared_1521 = {((a, 1), (b, 1)) for a, b in combinations((1, 2, 3, 4), 2)}
        assert cross == shared_1521 | {((2, 4), (4, 5))}

    def test_table1_delta_1200(self):
        cs = conflicts_of(table1_instance(half_width=1200))
        # 1503.4 nm and 1505.6 nm: 1503400+1200 >= 1505600-1200
        assert ("cross", (3, 0), (4, 0)) in {(p.kind, p.first, p.second) for p in cs.pairs()}

    def test_far_apart_single_radius(self):
        inst = build_instance({1: (1500000, 1530000)}, half_width=1000)
        assert len(conflicts_of(inst)) == 0

    def test_within_radius_pairs(self):
        inst = build_instance({1: (1500000, 1500500, 1510000)}, half_width=400)
        cs = conflicts_of(inst)
        assert [(p.kind, p.first, p.second) for p in cs.pairs()] == [
            ("within", (1, 0), (1, 1))]

    def test_symmetric_irreflexive(self):
        for seed in range(10):
            inst = with_delta(generate_random_small(seed, 4, 8), 700)
            cs = conflicts_of(inst)
            for p in cs.pairs():
                assert p.first < p.second

    def test_monotone_in_half_width(self):
        for seed in range(10):
            base = generate_random_small(seed, 4, 8)
            prev: set = set()
            for hw in (0, 500, 1200):
                cs = conflicts_of(with_delta(base, hw))
                pairs = {(p.first, p.second) for p in cs.pairs()}
                assert prev <= pairs
                prev = pairs


def brute_force_conflicts(instance):
    """Block masks and pairs from a plain O(n^2) scan over every interval pair."""
    block = {(r, o): 0 for r in instance.ids() for o in instance.ids()}
    pairs = set()
    flat = [
        (e.id, j, lo, hi)
        for e in instance.radii
        for j, (lo, hi) in enumerate(zip(e.lmins, e.lmaxs))
    ]
    for a, (r, i, x_lo, x_hi) in enumerate(flat):
        for o, j, y_lo, y_hi in flat[a + 1:]:
            if x_lo <= y_hi and y_lo <= x_hi:
                kind = "within" if r == o else "cross"
                pairs.add(ConflictPair(kind, *sorted(((r, i), (o, j)))))
                if r != o:
                    block[r, o] |= 1 << i
                    block[o, r] |= 1 << j
    return block, pairs


_SMALL_SWEEP = GenSpec(r_max_pm=10_000_000, jitter_pm=100, seed=7)
MASK_TABLE_CASES = {
    **{
        f"explicit-{seed}": lambda seed=seed: explicit_interval_instance(seed, 5)
        for seed in range(6)
    },
    **{
        f"generated-small-d{delta}":
            lambda delta=delta: apply_delta(generate(_SMALL_SWEEP), delta)
        for delta in (0, 100, 1000)
    },
    "generated-full-d1000":
        lambda: apply_delta(generate(GenSpec(jitter_pm=100, seed=3)), 1000),
}


class TestMaskTable:
    @pytest.mark.parametrize("case", sorted(MASK_TABLE_CASES))
    def test_matches_brute_force_scan(self, case):
        instance = MASK_TABLE_CASES[case]()
        block, pairs = brute_force_conflicts(instance)
        cs = conflicts_of(instance)
        assert cs.ids == tuple(sorted(instance.ids()))
        for a, r in enumerate(cs.ids):
            for b, o in enumerate(cs.ids):
                assert cs.keep[b][a] == ~block[r, o], (r, o)  # -1 on the diagonal
        listed = cs.pairs()
        assert set(listed) == pairs
        assert len(cs) == len(pairs) == len(listed)
        assert listed == (sorted(p for p in pairs if p.kind == "cross")
                          + sorted(p for p in pairs if p.kind == "within"))

    def test_keep_is_a_tuple_of_tuples(self):
        inst = apply_delta(generate(GenSpec(seed=0, jitter_pm=100)), 1000)
        keep = conflicts_of(inst).keep
        assert isinstance(keep, tuple) and all(isinstance(row, tuple) for row in keep)
        assert keep == conflicts_of(inst).keep


def usable_resonances(instance, cs, selected, radius_id):
    """Indices of `radius_id` that no other radius in `selected` blocks,
    read from the keep masks the solver uses."""
    a = cs.ids.index(radius_id)
    mask = (1 << len(instance.entry(radius_id).nominals())) - 1
    for other in selected:
        mask &= cs.keep[cs.ids.index(other)][a]
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


class TestUsableResonances:
    def test_worked_example(self, table1):
        cs = conflicts_of(table1)
        idx = usable_resonances(table1, cs, {2, 3, 4}, 2)
        noms = table1.entry(2).nominals()
        assert [noms[j] for j in idx] == [1500500, 1542700, 1564800, 1610800]

    def test_singleton_keeps_everything(self, table1):
        cs = conflicts_of(table1)
        assert usable_resonances(table1, cs, {3}, 3) == list(range(6))

    def test_pair_34(self, table1):
        cs = conflicts_of(table1)
        idx = usable_resonances(table1, cs, {3, 4}, 4)
        assert len(idx) == 6  # only the shared 1521.3 nm resonance drops out
        assert 1 not in idx

    def test_antitone_in_selected(self):
        for seed in range(15):
            inst = with_delta(generate_random_small(seed, 5, 8), 700)
            cs = conflicts_of(inst)
            ids = list(inst.ids())
            r = ids[0]
            grown = set(ids[:2])
            small = set(usable_resonances(inst, cs, grown, r))
            for extra in ids[2:]:
                grown.add(extra)
                bigger_sel = set(usable_resonances(inst, cs, grown, r))
                assert bigger_sel <= small
                small = bigger_sel


class TestMaxCompatibleCount:
    """The one MIS routine, through Phase 1 on single-radius instances."""

    def test_conflict_free_returns_everything(self, table1):
        assert solve_one_radius(restrict(table1, {4})) == (7, tuple(range(7)))

    def test_forced_pair(self):
        inst = build_instance({1: (1500000, 1500500, 1510000)}, half_width=400)
        # (0, 2) is the lexicographically smallest witness
        assert solve_one_radius(inst) == (2, (0, 2))

    def test_out_of_range_index(self, table1):
        sol = ParallelismSolution((1,), {1: (99,)}, {1: 1}, 1)
        assert check_parallelism_solution(table1, sol, 1) == [
            "radius 1: selection index out of range"
        ]

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed):
        rng = SplitMix64(seed)
        noms = sorted(
            {1_500_000 + 800 * rng.randint(0, 40) for _ in range(10)}
        )
        hw = (200, 600, 1500)[seed % 3]
        inst = build_instance({1: tuple(noms)}, half_width=hw)
        assert solve_one_radius(inst) == brute_force_mis(inst.entry(1), range(len(noms)))

    @given(
        nominals=st.lists(
            st.integers(min_value=1_500_000, max_value=1_540_000),
            min_size=1,
            max_size=10,
            unique=True,
        ),
        half_width=st.integers(min_value=0, max_value=4000),
    )
    @settings(max_examples=60, deadline=None)
    def test_greedy_is_exact_property(self, nominals, half_width):
        inst = build_instance({1: tuple(nominals)}, half_width=half_width)
        assert solve_one_radius(inst) == brute_force_mis(
            inst.entry(1), range(len(nominals))
        )

    @given(
        intervals=st.lists(
            st.tuples(
                st.integers(min_value=1_500_000, max_value=1_510_000),
                st.integers(min_value=0, max_value=4000),
                st.integers(min_value=0, max_value=4000),
            ),
            min_size=1,
            max_size=10,
            unique_by=lambda t: t[0],
        ),
    )
    # A wide first interval that blocks two compatible later ones.
    @example(intervals=[(1_500_000, 0, 4000), (1_500_001, 0, 0), (1_500_003, 0, 0)])
    @settings(max_examples=60, deadline=None)
    def test_explicit_intervals_property(self, intervals):
        # Each resonance widens by its own amounts below and above.
        noms, below, above = zip(*sorted(intervals))
        lmins = [v - lo for v, lo in zip(noms, below)]
        lmaxs = [v + hi for v, hi in zip(noms, above)]
        inst = Instance((RadiusEntry(1, 0, noms, lmins, lmaxs),), "explicit")
        assert solve_one_radius(inst) == brute_force_mis(inst.entry(1), range(len(noms)))

    @pytest.mark.parametrize("seed", range(25))
    def test_explicit_nested_intervals(self, seed):
        # Asymmetric, possibly nested uncertainty intervals still form an
        # interval graph, so the MIS must stay exact.
        inst = explicit_interval_instance(seed, n_radii=1)
        entry = inst.entry(1)
        assert solve_one_radius(inst) == brute_force_mis(
            entry, range(len(entry.nominals()))
        )
