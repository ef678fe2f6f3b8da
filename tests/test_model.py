import copy
import dataclasses
import hashlib
import json
import pickle
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_instance, columns, entry_of, generate_random_small, table1_instance
from wronoc import cli, model
from wronoc import (
    DeltaPolicy,
    GenSpec,
    Instance,
    ModelError,
    ParseError,
    RadiusEntry,
    SpacingProblem,
    apply_delta,
    check_parallelism_solution,
    conflicts_of,
    export_asp_facts,
    format_instance,
    generate,
    instance_digest,
    oracle_max_parallelism,
    parse_instance,
    solve_max_parallelism,
    solve_spacing,
    validate,
)


class TestParse:
    def test_table1_symmetric_zero(self, table1_text):
        inst = parse_instance(table1_text, DeltaPolicy.symmetric(0))
        assert [e.id for e in inst.radii] == [1, 2, 3, 4]
        assert [len(e.nominals()) for e in inst.radii] == [5, 6, 6, 7]
        assert inst.label == "table1"
        assert [col[0] for col in columns(inst.entry(1))] == [1496400, 1496400, 1496400]

    def test_symmetric_recomputes_intervals(self):
        text = "radius 1 0\nresonance 1 1500000 1490000 1510000\n"
        inst = parse_instance(text, DeltaPolicy.symmetric(250))
        entry = inst.entry(1)
        assert (entry.lmins, entry.lmaxs) == ((1499750,), (1500250,))

    def test_explicit_keeps_intervals(self):
        text = "radius 1 0\nresonance 1 1500000 1499000 1501000\n"
        entry = parse_instance(text).entry(1)
        assert (entry.lmins, entry.lmaxs) == ((1499000,), (1501000,))

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
        assert columns(inst.entry(1)) == ((1500000,),) * 3

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
        entry = entry_of(1, 0, (1600000, 1500000))
        violations = validate(Instance((entry,)))
        assert len(violations) == 1
        assert "ascending" in violations[0]

    def test_duplicate_ids(self):
        entry = entry_of(1, 0, (1500000,))
        violations = validate(Instance((entry, entry)))
        assert violations == ["duplicate radius id 1"]

    def test_bad_interval_and_nonpositive(self):
        entry = RadiusEntry(2, 0, (100,), (200,), (50,))
        violations = validate(Instance((entry,)))
        assert any("interval" in v for v in violations)
        entry = RadiusEntry(2, 0, (1,), (0,), (2,))
        assert any("non-positive" in v for v in validate(Instance((entry,))))

    def test_empty_radius(self):
        violations = validate(Instance((RadiusEntry(1, 0, (), (), ()),)))
        assert violations == ["radius 1: no resonances"]

    @pytest.mark.parametrize("bad", [(1600000, 1600001, 1600002),
                                     (1600000, 1599999, 1599999)])
    def test_each_interval_bound_is_checked(self, bad):
        # Only one side of lmin <= nominal <= lmax fails, after a valid
        # resonance.
        nominal, lmin, lmax = bad
        entry = RadiusEntry(1, 0, (1500000, nominal), (1500000, lmin), (1500000, lmax))
        assert validate(Instance((entry,))) == [
            "radius 1, resonance 1: interval violates lmin <= nominal <= lmax"]


class TestEntry:
    def test_first_of_duplicate_ids_wins(self):
        first = entry_of(1, 0, (1500000,))
        second = entry_of(1, 7, (1600000,))
        inst = Instance((entry_of(2, 0, (1550000,)), first, second))
        assert inst.entry(1) is first
        assert inst.entry(2) is inst.radii[0]

    def test_unknown_id_raises(self, table1):
        with pytest.raises(KeyError) as raised:
            table1.entry(9)
        assert raised.value.args == ("no radius with id 9",)

    def test_index_is_not_part_of_equality(self, table1):
        table1.entry(1)
        assert table1 == table1_instance()
        assert hash(table1) == hash(table1_instance())


class TestColumns:
    """An entry is its three int columns, and nothing reads it any other way."""

    DESK = GenSpec(seed=1000, jitter_pm=100)

    def built_entries(self, table1_text):
        desk = generate(self.DESK)
        text = "radius 1 0\nresonance 1 1600000\nresonance 1 1500000 1499000 1501000\n"
        return [
            *parse_instance(table1_text).radii,
            *parse_instance(text).radii,
            *parse_instance(export_asp_facts(desk)).radii,
            *parse_instance(format_instance(desk), DeltaPolicy.symmetric(300)).radii,
            *desk.radii,
            *apply_delta(desk, 1000).radii,
        ]

    def test_equality_and_hash_are_by_value(self, table1_text):
        for entry in self.built_entries(table1_text):
            twin = RadiusEntry(entry.id, entry.radius_pm, *map(list, columns(entry)))
            assert entry == twin and twin == entry
            assert hash(entry) == hash(twin)
            assert entry != RadiusEntry(entry.id, entry.radius_pm + 1, *columns(entry))

    def test_repr_round_trip(self, table1_text):
        for entry in self.built_entries(table1_text):
            assert eval(repr(entry), {"RadiusEntry": RadiusEntry}) == entry
            assert copy.deepcopy(entry) == entry == pickle.loads(pickle.dumps(entry))
            assert entry.resonances == tuple(zip(*columns(entry)))
        entry = RadiusEntry(3, 5, [1500000], [1499000], [1501000])
        assert entry.nominals() == (1500000,)
        assert (entry.lmins, entry.lmaxs) == ((1499000,), (1501000,))
        assert repr(entry) == ("RadiusEntry(id=3, radius_pm=5, nominals=(1500000,), "
                               "lmins=(1499000,), lmaxs=(1501000,))")
        nominals = (1500000, 1510000)
        assert entry_of(1, 0, nominals).nominals() is nominals

    @pytest.mark.parametrize("lengths", [(2, 1, 1), (1, 2, 1), (1, 1, 2), (0, 0, 1)])
    def test_columns_must_align(self, lengths):
        cols = [tuple(range(1500000, 1500000 + n)) for n in lengths]
        with pytest.raises(ModelError, match="radius 4: columns differ in length"):
            RadiusEntry(4, 0, *cols)

    @pytest.mark.parametrize("name", ["id", "radius_pm", "lmins", "lmaxs", "resonances", "other"])
    def test_entries_are_immutable(self, table1, name):
        entry = table1.entry(1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(entry, name, ())
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(entry, name)
        assert entry == table1_instance().entry(1)

    def test_no_solver_or_checker_reads_resonances(self, monkeypatch, tmp_path):
        path = tmp_path / "desk.txt"
        path.write_text(format_instance(generate(self.DESK)), encoding="utf-8")
        out = tmp_path / "out.json"

        def refuse(self):
            raise AssertionError("resonances was read")

        monkeypatch.setattr(RadiusEntry, "resonances", property(refuse))
        desk = generate(self.DESK)
        inst = parse_instance(path.read_text(encoding="utf-8"))
        assert inst == desk
        wide = parse_instance(format_instance(desk), DeltaPolicy.symmetric(1000))
        assert wide == apply_delta(desk, 1000)
        assert parse_instance(export_asp_facts(wide)) == wide
        instance_digest(wide)
        assert len(conflicts_of(wide)) > 0
        phase1 = solve_max_parallelism(wide, 4)
        assert phase1.status == "optimal"
        assert check_parallelism_solution(wide, phase1, 4) == []
        table1 = table1_instance(half_width=1000)
        assert oracle_max_parallelism(table1, 3) == solve_max_parallelism(table1, 3)
        assert solve_spacing(inst, SpacingProblem(2, 2)).status == "optimal"
        common = ["--instance", str(path), "--n-radii", "2", "--out", str(out)]
        for argv in (["spacing", "--parallelism", "2"],
                     ["max-parallelism", "--delta", "100"],
                     ["pipeline"]):
            assert cli.main(argv + common) == 0
        with pytest.raises(AssertionError, match="resonances was read"):
            inst.radii[0].resonances


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
                for nominal, lmin, lmax in zip(*columns(entry)):
                    assert lmax - nominal == hw
                    assert nominal - lmin == hw

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


@st.composite
def instances(draw):
    """Random valid instances: distinct ids, distinct nominals per radius,
    and intervals that hold their nominal.  Nominals exceed 250 pm, so a
    symmetric half width up to that keeps every wavelength positive."""
    ids = draw(st.lists(st.integers(1, 10_000), min_size=1, max_size=6, unique=True))
    radii = []
    for rid in sorted(ids):
        nominals = draw(st.lists(st.integers(251, 2_000_000), min_size=1, max_size=8,
                                 unique=True))
        nominals.sort()
        lmins, lmaxs = [], []
        for nom in nominals:
            lmins.append(draw(st.integers(1, nom)))
            lmaxs.append(draw(st.integers(nom, nom + 5_000)))
        radii.append(RadiusEntry(rid, draw(st.integers(0, 40_000_000)), nominals, lmins, lmaxs))
    label = draw(st.text(string.ascii_letters + string.digits + " #%:()-_.", max_size=20))
    return Instance(tuple(radii), label.strip())


# The parse contract: for every error path, the exception type, the
# message and ``line_no``.  ``None`` as ``line_no`` marks a ``ModelError``
# from the final ``validate`` pass, which names no line.
R1 = "radius 1 0\n"
SYMMETRIC_0 = DeltaPolicy.symmetric(0)
PARSE_ERRORS = [
    # radius lines
    ("radius 1\n", ParseError, "radius line needs: radius <id> <radius_pm>", 1),
    ("radius 1 0 5\n", ParseError, "radius line needs: radius <id> <radius_pm>", 1),
    ("radius\n", ParseError, "radius line needs: radius <id> <radius_pm>", 1),
    ("radius one 0\n", ParseError, "radius arguments must be integers", 1),
    ("radius 1 0.5\n", ParseError, "radius arguments must be integers", 1),
    # duplicate radius ids, canonical and from '%' metadata
    ("radius 1 0\nradius 1 5\n", ParseError, "duplicate radius id 1", 2),
    ("% radius 2 7000\nradius 2 7000\n", ParseError, "duplicate radius id 2", 2),
    ("radius 2 0\n% radius 2 7000\n", ParseError, "duplicate radius id 2", 2),
    ("% radius 2 1\n% radius 2 1\n", ParseError, "duplicate radius id 2", 2),
    # resonance lines
    (R1 + "resonance 1\n", ParseError,
     "resonance line needs: resonance <radius_id> <nominal_pm> [<lmin_pm> <lmax_pm>]", 2),
    (R1 + "resonance 1 1500000 1499000\n", ParseError,
     "resonance line needs: resonance <radius_id> <nominal_pm> [<lmin_pm> <lmax_pm>]", 2),
    (R1 + "resonance 1 1500000 #c\n", ParseError,
     "resonance line needs: resonance <radius_id> <nominal_pm> [<lmin_pm> <lmax_pm>]", 2),
    (R1 + "resonance 1 1500000 1499000 1501000 # c\n", ParseError,
     "resonance line needs: resonance <radius_id> <nominal_pm> [<lmin_pm> <lmax_pm>]", 2),
    (R1 + "resonance 1 1500000 # c\n", ParseError,
     "resonance arguments must be integers", 2),
    (R1 + "resonance 1 1.5e6\n", ParseError, "resonance arguments must be integers", 2),
    (R1 + "resonance x 1500000\n", ParseError, "resonance arguments must be integers", 2),
    ("resonance 9 x\n", ParseError, "resonance arguments must be integers", 1),
    # unknown radius, duplicate nominal
    ("resonance 7 1500000\n", ParseError, "resonance references unknown radius id 7", 1),
    (R1 + "resonance 2 1500000\n", ParseError,
     "resonance references unknown radius id 2", 2),
    (R1 + "resonance 1 1500000\nresonance 1 1500000 1499000 1501000\n", ParseError,
     "duplicate nominal wavelength 1500000 for radius 1", 3),
    ("lambda(1,1500000,1500000,1500000).\nlambda(1,1,1500000,9000000).\n", ParseError,
     "duplicate nominal wavelength 1500000 for radius 1", 2),
    ("lambda(1,1500000,1500000,1500000).\nresonance 1 1500000\n", ParseError,
     "duplicate nominal wavelength 1500000 for radius 1", 2),
    # a duplicate nominal is reported before its bad interval
    (R1 + "resonance 1 1500000\nresonance 1 1500000 1500001 1500002\n", ParseError,
     "duplicate nominal wavelength 1500000 for radius 1", 3),
    # bad intervals
    (R1 + "resonance 1 1500000 1500001 1500002\n", ParseError,
     "radius 1: interval violates lmin <= nominal <= lmax", 2),
    (R1 + "resonance 1 1500000 1499000 1499999\n", ParseError,
     "radius 1: interval violates lmin <= nominal <= lmax", 2),
    ("lambda(4,1500001,1500000,1500002).\n", ParseError,
     "radius 4: interval violates lmin <= nominal <= lmax", 1),
    # unrecognised lines
    ("nonsense here\n", ParseError, "unrecognized line: 'nonsense here'", 1),
    (R1 + "\t  bogus\t\n", ParseError, "unrecognized line: 'bogus'", 2),
    ("lambda(1,-5,1500000,1500001).\n", ParseError,
     "unrecognized line: 'lambda(1,-5,1500000,1500001).'", 1),
    ("lambda(1,1499000,1500000).\n", ParseError,
     "unrecognized line: 'lambda(1,1499000,1500000).'", 1),
    ("lambda(1,1499000,1500000,1501000)\n", ParseError,
     "unrecognized line: 'lambda(1,1499000,1500000,1501000)'", 1),
    ("Radius 1 0\n", ParseError, "unrecognized line: 'Radius 1 0'", 1),
    # errors the final validate pass finds
    ("", ModelError, "no radii", None),
    ("# just a comment\n% and another\n\n", ModelError, "no radii", None),
    ("% radius 3 7000\n", ModelError, "radius 3: no resonances", None),
    ("radius 0 0\nresonance 0 1500000\n", ModelError, "radius 0: id must be positive", None),
    ("radius 1 -5\nresonance 1 1500000\n", ModelError, "radius 1: negative radius_pm", None),
    (R1 + "resonance 1 -5\n", ModelError,
     "radius 1, resonance 0: non-positive wavelength", None),
    ("lambda(2,0,0,0).\n", ModelError, "radius 2, resonance 0: non-positive wavelength", None),
]


class TestParseContract:
    @pytest.mark.parametrize("text, kind, message, line_no", PARSE_ERRORS)
    def test_error_paths(self, text, kind, message, line_no):
        with pytest.raises(ModelError) as info:
            parse_instance(text)
        assert type(info.value) is kind
        if line_no is None:
            assert str(info.value) == message
        else:
            assert str(info.value) == f"line {line_no}: {message}"
            assert info.value.line_no == line_no

    @pytest.mark.parametrize("text", [
        R1 + "resonance 1 1500000 1500001 1500002\n",
        R1 + "resonance 1 1500000 1501000 1499000\n",
        "lambda(1,1500001,1500000,1500002).\n",
    ])
    def test_bad_interval_ignored_under_symmetric_policy(self, text):
        inst = parse_instance(text, SYMMETRIC_0)
        assert columns(inst.radii[0]) == ((1500000,),) * 3

    def test_symmetric_policy_keeps_the_other_checks(self):
        text = R1 + "resonance 1 1500000 1500001 1500002\nresonance 1 1500000\n"
        with pytest.raises(ParseError) as info:
            parse_instance(text, SYMMETRIC_0)
        assert str(info.value) == (
            "line 3: duplicate nominal wavelength 1500000 for radius 1")

    @pytest.mark.parametrize("text", [
        "radius\t1\t0\nresonance\t1\t1500000\t1499000\t1501000\n# label: t\n",
        "radius 1 0\r\nresonance 1 1500000 1499000 1501000\r\n# label: t\r\n",
        "radius 1 0\rresonance 1 1500000 1499000 1501000\r# label: t",
        "  radius 1 0\n   resonance 1   1500000 1499000  1501000  \n  #   label: t  \n",
        "\n\n \t\nradius 1 0\n\nresonance 1 1500000 1499000 1501000\n\n#label:t\n",
        "% label: t\n% radius 1 0\n  lambda( 1 , 1499000 , 1500000 , 1501000 ) .\r\n",
    ])
    def test_whitespace_and_line_endings(self, text):
        inst = parse_instance(text)
        assert inst == Instance((RadiusEntry(1, 0, (1500000,), (1499000,), (1501000,)),), "t")

    @pytest.mark.parametrize("text, line_no", [
        ("radius 1 0\r\n\r\nbogus\r\n", 3),
        ("radius 1 0\r\rbogus\r", 3),
        ("\tradius 1 0\n\t\n\tresonance 1 1500000\n\tresonance 1 1500000\n", 4),
    ])
    def test_line_numbers_count_every_line_break(self, text, line_no):
        with pytest.raises(ParseError) as info:
            parse_instance(text)
        assert info.value.line_no == line_no

    def test_metadata_comments(self):
        text = ("# radius 9 9\n% radius x 5\n% radius 1 2 3\n% radius 1 5000\n"
                "lambda(1,1500000,1500000,1500000).\nlambda(3,1,2,3).\n% label:  a b \n")
        inst = parse_instance(text)
        assert [(e.id, e.radius_pm) for e in inst.radii] == [(1, 5000), (3, 0)]
        assert inst.label == "a b"

    def test_radius_line_after_facts_sets_radius_pm(self):
        text = "lambda(1,1500000,1500000,1500000).\nradius 1 7000\nradius 2 0\n" \
               "resonance 2 1500000\n"
        inst = parse_instance(text)
        assert [(e.id, e.radius_pm) for e in inst.radii] == [(1, 7000), (2, 0)]

    @given(instance=instances(), half_width=st.sampled_from([None, 0, 250]))
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, instance, half_width):
        if half_width is not None:
            instance = apply_delta(instance, half_width)
        assert parse_instance(format_instance(instance)) == instance
        assert parse_instance(export_asp_facts(instance)) == instance


def outcome(parse):
    """An instance with its canonical text, or the error's type, message
    and line number."""
    try:
        instance = parse()
    except ModelError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return instance, format_instance(instance)


def line_parser_outcome(text, policy):
    half_width = policy.half_width if policy.mode == "symmetric-half-width" else None
    return outcome(lambda: model._parse_lines(text, half_width))


CANONICAL = ("# label: t\nradius 1 5000\nresonance 1 1500000\nresonance 1 1500100\n"
             "radius 2 6000\nresonance 2 1490000\n")
EXPLICIT = DeltaPolicy.explicit()
# Texts close to canonical that the line parser reads differently, or not at
# all; the canonical fast path must give the same instance or the same error.
NEAR_CANONICAL = [
    (CANONICAL, EXPLICIT),
    (CANONICAL, DeltaPolicy.symmetric(1000)),
    (CANONICAL.replace("1500100", "01500100"), EXPLICIT),
    (CANONICAL.replace("radius 2 6000", "radius 02 6000"), EXPLICIT),
    (CANONICAL.replace("radius 1 5000", "radius 1 05000"), EXPLICIT),
    (CANONICAL.replace("1500100", "+1500100"), EXPLICIT),
    (CANONICAL.replace("1500100", "1_500_100"), EXPLICIT),
    (CANONICAL.replace("1500100", "\u0661\u0665\u0660\u0660\u0661\u0660\u0660"), EXPLICIT),
    (CANONICAL.replace("1500100", "\uff11\uff15\uff10\uff10\uff11\uff10\uff10"), EXPLICIT),
    (CANONICAL.replace("\n", "\r\n"), EXPLICIT),
    (CANONICAL.replace("\n", "\r"), EXPLICIT),
    (CANONICAL.replace("radius 1 5000", "radius\t1 5000"), EXPLICIT),
    (CANONICAL.replace("resonance 2 1490000", "resonance 2  1490000"), EXPLICIT),
    (CANONICAL.replace("t\n", "a\u00a0b\n", 1), EXPLICIT),
    (CANONICAL.replace("t\n", "t\u00a0\n", 1), EXPLICIT),
    (CANONICAL.replace("t\n", "t\x85\n", 1), EXPLICIT),
    (CANONICAL.replace("t\n", "t\u2028u\n", 1), EXPLICIT),
    (CANONICAL.replace("t\n", "my radius 1 5000\n", 1), EXPLICIT),
    (CANONICAL.replace("t\n", " t \n", 1), EXPLICIT),
    (CANONICAL.replace("# label: t\n", "# label: \n"), EXPLICIT),
    (CANONICAL.replace("# label: t\n", "#label: t\n"), EXPLICIT),
    (CANONICAL.replace("# label: t\n", "# a comment\n"), EXPLICIT),
    (CANONICAL.replace("# label: t\n", ""), EXPLICIT),
    ("# label: t\n", EXPLICIT),
    ("", EXPLICIT),
    (CANONICAL[:-1], EXPLICIT),
    (CANONICAL + "\n", EXPLICIT),
    (CANONICAL + "radius 3 7000\n", EXPLICIT),
    ("radius 1 5000\nradius 2 6000\nresonance 2 1490000\n", EXPLICIT),
    ("radius 2 6000\nresonance 2 1490000\nradius 1 5000\nresonance 1 1500000\n", EXPLICIT),
    ("radius 1 5000\nresonance 1 1500000\nradius 1 6000\nresonance 1 1490000\n", EXPLICIT),
    ("radius 1 0\nresonance 1 1500100\nresonance 1 1500000\n", EXPLICIT),
    ("radius 1 0\nresonance 1 1500000\nresonance 1 1500000\n", EXPLICIT),
    ("radius 1 0\nresonance 2 1500000\n", EXPLICIT),
    ("radius 1 0\nresonance 1 1500000 1499000 1501000\n", EXPLICIT),
    ("radius 1 0\nresonance 1 1500000 1499000 1501000\n", DeltaPolicy.symmetric(5)),
    ("radius 1 0\nresonance 1 1500000 1500000 1500000\n", EXPLICIT),
    ("radius 1 -5000\nresonance 1 1500000\n", EXPLICIT),
    ("radius 0 0\nresonance 0 1500000\n", EXPLICIT),
    ("radius -1 0\nresonance -1 1500000\n", EXPLICIT),
    ("radius 1 0\nresonance 1 -5\n", EXPLICIT),
    ("radius 1 0\nresonance 1 0\n", EXPLICIT),
    ("radius 1 0\nresonance 1 500\n", DeltaPolicy.symmetric(500)),
    ("radius 1 0\nresonance 1 500\n", DeltaPolicy.symmetric(499)),
    ("radius 1 0\nresonance 1 1500000\nradius 2 0\nresonance 2 500\n",
     DeltaPolicy.symmetric(600)),
    ("radius 1 0\nresonance 1 1500000\nxradius 2 0\nresonance 2 1500000\n", EXPLICIT),
    ("radius 1 0\nresonance 1 1500000 radius 2 0\n", EXPLICIT),
    ("radius 1 0\nresonance 1 1500000\n% radius 2 0\nlambda(2,1,1,1).\n", EXPLICIT),
]


class TestCanonicalFastPath:
    """``parse_instance`` reads canonical files block by block and falls
    back to the line parser; both must give the same result."""

    @pytest.mark.parametrize("text, policy", NEAR_CANONICAL)
    def test_same_result_as_the_line_parser(self, text, policy):
        assert outcome(lambda: parse_instance(text, policy)) == \
            line_parser_outcome(text, policy)

    def test_canonical_text_takes_the_fast_path(self):
        assert model._parse_canonical(CANONICAL, None) is not None
        # The file's own text is the instance's canonical text: no re-format.
        assert format_instance(parse_instance(CANONICAL)) is CANONICAL
        assert format_instance(parse_instance(CANONICAL, DeltaPolicy.symmetric(5))) != CANONICAL
        assert model._parse_canonical(CANONICAL.replace("\n", "\r\n"), None) is None

    @given(instance=instances(), half_width=st.sampled_from([None, 0, 250]),
           delta=st.sampled_from([None, 0, 250]))
    @settings(max_examples=150, deadline=None)
    def test_formatted_instances(self, instance, half_width, delta):
        if half_width is not None:
            instance = apply_delta(instance, half_width)
        text = format_instance(instance)
        policy = EXPLICIT if delta is None else DeltaPolicy.symmetric(delta)
        got = outcome(lambda: parse_instance(text, policy))
        assert got == line_parser_outcome(text, policy)
        if half_width == 0 and "radius " not in instance.label:
            assert model._parse_canonical(text, delta) is not None
        if delta is None:
            assert got[0] == instance
            assert instance_digest(got[0]) == hashlib.sha256(text.encode()).hexdigest()

    def test_digest_of_a_generated_file_is_its_sha256(self, tmp_path):
        # generate writes a canonical file, so validate reports the sha256
        # of its bytes as the instance digest.
        desk, out = tmp_path / "desk.txt", tmp_path / "validate.json"
        assert cli.main(["generate", "--seed", "1000", "--jitter-pm", "100",
                         "--out", str(desk)]) == 0
        assert cli.main(["validate", "--instance", str(desk), "--out", str(out)]) == 0
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["violations"] == []
        assert document["instance_digest"] == hashlib.sha256(desk.read_bytes()).hexdigest()
        inst = parse_instance(desk.read_text(encoding="utf-8"))
        assert instance_digest(inst) == instance_digest(Instance(inst.radii, inst.label))
