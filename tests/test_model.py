import pytest

from conftest import build_instance, generate_random_small, table1_instance
from wronoc import (
    DeltaPolicy,
    Instance,
    ModelError,
    ParseError,
    RadiusEntry,
    Resonance,
    apply_delta,
    export_asp_facts,
    format_instance,
    instance_digest,
    parse_instance,
    validate,
)


class TestParse:
    def test_table1_symmetric_zero(self, table1_text):
        inst = parse_instance(table1_text, DeltaPolicy.symmetric(0))
        assert [e.id for e in inst.radii] == [1, 2, 3, 4]
        assert [len(e.resonances) for e in inst.radii] == [5, 6, 6, 7]
        assert inst.label == "table1"
        assert inst.entry(1).resonances[0] == Resonance(1496400, 1496400, 1496400)

    def test_symmetric_recomputes_intervals(self):
        text = "radius 1 0\nresonance 1 1500000 1490000 1510000\n"
        inst = parse_instance(text, DeltaPolicy.symmetric(250))
        res = inst.entry(1).resonances[0]
        assert (res.lmin, res.lmax) == (1499750, 1500250)

    def test_explicit_keeps_intervals(self):
        text = "radius 1 0\nresonance 1 1500000 1499000 1501000\n"
        res = parse_instance(text).entry(1).resonances[0]
        assert (res.lmin, res.lmax) == (1499000, 1501000)

    def test_empty_is_no_radii(self):
        with pytest.raises(ModelError, match="no radii"):
            parse_instance("# just a comment\n")

    def test_interval_invariant_explicit(self):
        text = "radius 1 0\nresonance 1 1500000 1500500 1501000\n"
        with pytest.raises(ParseError, match="lmin <= nominal <= lmax"):
            parse_instance(text)

    def test_inverted_interval_ignored_in_symmetric_mode(self):
        text = "radius 1 0\nresonance 1 1500000 1501000 1499000\n"
        inst = parse_instance(text, DeltaPolicy.symmetric(0))
        assert inst.entry(1).resonances[0] == Resonance.exact(1500000)

    def test_duplicate_radius_id(self):
        text = "radius 1 0\nradius 1 0\n"
        with pytest.raises(ParseError, match="line 2.*duplicate radius id 1"):
            parse_instance(text)

    def test_duplicate_nominal(self):
        text = "radius 1 0\nresonance 1 1500000\nresonance 1 1500000\n"
        with pytest.raises(ParseError, match="duplicate nominal"):
            parse_instance(text)

    def test_unknown_radius_reference(self):
        with pytest.raises(ParseError, match="unknown radius id 7"):
            parse_instance("resonance 7 1500000\n")

    def test_malformed_line_reports_position(self):
        text = "radius 1 0\nresonance 1 1500000\nnonsense here\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_instance(text)

    def test_resonances_sorted_on_parse(self):
        text = "radius 1 0\nresonance 1 1600000\nresonance 1 1500000\n"
        inst = parse_instance(text)
        assert inst.entry(1).nominals() == (1500000, 1600000)

    def test_plain_asp_facts_have_zero_radius_pm(self):
        text = "lambda(3,1499000,1500000,1501000).\nlambda(3,1509000,1510000,1511000).\n"
        inst = parse_instance(text)
        assert inst.entry(3).radius_pm == 0
        assert inst.entry(3).nominals() == (1500000, 1510000)

    def test_accepts_bytes(self):
        inst = parse_instance(b"radius 1 0\nresonance 1 1500000\n")
        assert inst.entry(1).nominals() == (1500000,)


class TestValidate:
    def test_table1_clean(self, table1):
        assert validate(table1) == []

    def test_unsorted_resonances(self):
        entry = RadiusEntry(1, 0, (Resonance.exact(1600000), Resonance.exact(1500000)))
        violations = validate(Instance((entry,)))
        assert len(violations) == 1
        assert "ascending" in violations[0]

    def test_duplicate_ids(self):
        entry = RadiusEntry(1, 0, (Resonance.exact(1500000),))
        violations = validate(Instance((entry, entry)))
        assert violations == ["duplicate radius id 1"]

    def test_bad_interval_and_nonpositive(self):
        entry = RadiusEntry(2, 0, (Resonance(100, 200, 50),))
        violations = validate(Instance((entry,)))
        assert any("interval" in v for v in violations)
        entry = RadiusEntry(2, 0, (Resonance(1, 0, 2),))
        assert any("non-positive" in v for v in validate(Instance((entry,))))

    def test_empty_radius(self):
        violations = validate(Instance((RadiusEntry(1, 0, ()),)))
        assert violations == ["radius 1: no resonances"]


class TestAspExport:
    def test_first_fact_delta_zero(self, table1):
        lines = export_asp_facts(table1).splitlines()
        facts = [ln for ln in lines if ln.startswith("lambda")]
        assert facts[0] == "lambda(1,1496400,1496400,1496400)."

    def test_first_fact_delta_one_nm(self, table1):
        widened = apply_delta(table1, 1000)
        facts = [ln for ln in export_asp_facts(widened).splitlines()
                 if ln.startswith("lambda")]
        assert facts[0] == "lambda(1,1495400,1496400,1497400)."

    def test_fact_count_and_order(self, table1):
        facts = [ln for ln in export_asp_facts(table1).splitlines()
                 if ln.startswith("lambda")]
        assert len(facts) == 24
        assert facts[-1] == "lambda(4,1604900,1604900,1604900)."

    def test_round_trip_table1(self, table1):
        assert parse_instance(export_asp_facts(table1)) == table1

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip_random(self, seed):
        inst = generate_random_small(seed, n_radii=1 + seed % 6, max_resonances=8)
        widened = apply_delta(inst, 300 * (seed % 3))
        assert parse_instance(export_asp_facts(widened)) == widened

    def test_round_trip_is_bit_exact_in_digest(self, table1):
        reparsed = parse_instance(export_asp_facts(table1))
        assert instance_digest(reparsed) == instance_digest(table1)


class TestCanonicalFormat:
    def test_round_trip(self, table1):
        assert parse_instance(format_instance(table1)) == table1

    def test_explicit_intervals_survive(self):
        inst = build_instance({1: (1500000, 1510000)}, half_width=400)
        assert parse_instance(format_instance(inst), DeltaPolicy.explicit()) == inst

    def test_digest_stable(self, table1):
        assert instance_digest(table1) == instance_digest(table1_instance())


class TestPolicy:
    def test_symmetric_half_width_property(self, table1):
        for hw in (0, 500, 1200):
            widened = apply_delta(table1, hw)
            for entry in widened.radii:
                for res in entry.resonances:
                    assert res.lmax - res.nominal == hw
                    assert res.nominal - res.lmin == hw

    def test_bad_policy_rejected(self):
        with pytest.raises(ModelError):
            DeltaPolicy("sideways", 0)
        with pytest.raises(ModelError):
            DeltaPolicy.symmetric(-1)

    def test_explicit_policy_rejects_half_width(self):
        # The file's intervals are kept, so a half width would be ignored.
        with pytest.raises(ModelError):
            DeltaPolicy("explicit-intervals", 500)
        assert DeltaPolicy("explicit-intervals", 0) == DeltaPolicy.explicit()

    def test_negative_half_width_rejected_in_apply(self, table1):
        with pytest.raises(ModelError):
            apply_delta(table1, -5)
