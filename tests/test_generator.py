import pytest

from conftest import generate_random_small
from wronoc import (
    GenSpec,
    GeneratorError,
    SplitMix64,
    conflicts_of,
    generate,
    validate,
)


class TestSplitMix64:
    def test_reference_vector(self):
        # Published splitmix64 sequence for seed 1234567.
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_seed_zero_vector(self):
        rng = SplitMix64(0)
        assert rng.next_u64() == 16294208416658607535

    def test_randint_is_in_range_and_deterministic(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        vals = [a.randint(-3, 9) for _ in range(50)]
        assert vals == [b.randint(-3, 9) for _ in range(50)]
        assert all(-3 <= v <= 9 for v in vals)
        with pytest.raises(ValueError):
            a.randint(2, 1)


class TestGenerate:
    def test_default_shape(self):
        inst = generate(GenSpec())
        counts = [len(e.nominals()) for e in inst.radii]
        assert len(inst.radii) == 101
        assert 1200 <= sum(counts) <= 2400
        assert min(counts) >= 4 and max(counts) <= 32
        assert validate(inst) == []

    def test_smallest_radius_looks_like_a_5um_ring(self):
        inst = generate(GenSpec())
        first = inst.radii[0]
        assert first.radius_pm == 5_000_000
        assert 4 <= len(first.nominals()) <= 7
        gaps = [b - a for a, b in zip(first.nominals(), first.nominals()[1:])]
        assert all(20_000 <= g <= 30_000 for g in gaps)  # roughly 25 nm FSR

    def test_fsr_shrinks_with_radius(self):
        inst = generate(GenSpec())

        def mean_gap(entry):
            noms = entry.nominals()
            return (noms[-1] - noms[0]) / (len(noms) - 1)

        assert mean_gap(inst.radii[-1]) < mean_gap(inst.radii[0]) / 3

    def test_deterministic(self):
        spec = GenSpec(jitter_pm=400, seed=9)
        assert generate(spec) == generate(spec)

    def test_distinct_seeds_differ_with_jitter(self):
        assert generate(GenSpec(jitter_pm=400, seed=1)) != generate(
            GenSpec(jitter_pm=400, seed=2)
        )

    def test_degenerate_band_reports_empty_radii(self):
        with pytest.raises(GeneratorError, match="radii"):
            generate(GenSpec(band_lo_pm=0, band_hi_pm=0))

    def test_narrow_band_lists_empty_radii(self):
        # A 1 pm band misses every resonance of almost every radius.
        with pytest.raises(GeneratorError, match="zero resonances"):
            generate(GenSpec(band_lo_pm=1_505_000, band_hi_pm=1_505_001))

    def test_bad_spec_rejected(self):
        with pytest.raises(GeneratorError):
            GenSpec(r_min_pm=10, r_max_pm=5)
        with pytest.raises(GeneratorError):
            GenSpec(r_step_pm=0)
        with pytest.raises(GeneratorError):
            GenSpec(jitter_pm=-1)

    def test_cross_radius_collisions_exist_by_construction(self):
        # Radius and order scaling together (10 um at m vs 5 um at m/2)
        # give identical wavelengths; the conflict structure at delta 0
        # must therefore be non-trivial.
        inst = generate(GenSpec())
        assert sum(p.kind == "cross" for p in conflicts_of(inst).pairs()) > 100


class TestGenerateRandomSmall:
    def test_deterministic_and_distinct(self):
        assert generate_random_small(7) == generate_random_small(7)
        assert generate_random_small(1) != generate_random_small(2)

    def test_all_valid(self):
        for seed in range(50):
            inst = generate_random_small(seed, 1 + seed % 6, 8)
            assert validate(inst) == []

    def test_collision_rate(self):
        hits = sum(
            any(p.kind == "cross" for p in conflicts_of(generate_random_small(seed, 4, 8)).pairs())
            for seed in range(100)
        )
        assert hits >= 30

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            generate_random_small(0, n_radii=7)
        with pytest.raises(ValueError):
            generate_random_small(0, max_resonances=13)

    def test_golden_seed_zero(self):
        inst = generate_random_small(0, 2, 4)
        assert [e.id for e in inst.radii] == [1, 2]
        assert all(e.lmins == e.nominals() == e.lmaxs for e in inst.radii)
