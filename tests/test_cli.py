import io
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votemanip import (
    InvalidInstance,
    ManipulationInstance,
    PartitionInstance,
    ScoringVector,
    WeightedVote,
    forward_witness,
    reduce_partition,
)
from votemanip.cli import (
    ParseError,
    parse_family_name,
    parse_instance,
    parse_witness,
    run_command,
    serialize_instance,
    serialize_witness,
)

from helpers import reference_parse_instance

DATA = Path(__file__).parent / "data"

VETO_TEXT = "alpha 1 1 0\np 1\ns 1 2 3 1\ns 1 3 2 1\nt 4\nt 4\n"

VETO_INSTANCE = ManipulationInstance(
    ScoringVector((1, 1, 0)),
    (WeightedVote(1, (2, 3, 1)), WeightedVote(1, (3, 2, 1))),
    (4, 4),
    1,
)

REDUCE_HEADER = (
    "# reduction case=general ell=0 r=0 target=1 equalizer-weight=0 t-unit=4\n"
    "# partition ks=1 1\n"
    "# roles p=1 a=2 b=3\n"
)

LOSING_WITNESS = "t-vote 1 2 1 3\nt-vote 2 2 1 3\n"


class TestParseInstance:
    def test_canonical_text(self):
        assert parse_instance(VETO_TEXT) == VETO_INSTANCE

    def test_matches_generated_artifact(self):
        art = reduce_partition(ScoringVector((1, 1, 0)), PartitionInstance((1, 1)))
        assert parse_instance(VETO_TEXT) == art.instance

    def test_comments_blanks_and_spacing(self):
        text = "# header\n\n  alpha 1 1 0   # trailing\n\np 1\ns 1  2 3 1\ns 1 3 2 1\nt 4\nt 4"
        assert parse_instance(text) == VETO_INSTANCE

    def test_family_directive(self):
        inst = parse_instance("family veto 3\np 2\ns 1 1 2 3\n")
        assert inst.alpha.entries == (1, 1, 0)
        assert inst.p == 2
        inst = parse_instance("family k-approval:2 4\np 1\n")
        assert inst.alpha.entries == (1, 1, 0, 0)

    def test_corpus_files_parse(self):
        for name in (
            "veto_partition_1_1.txt",
            "single_c_partition_2_2.txt",
            "single_c_padded_1_1.txt",
            "borda_family.txt",
            "plurality_race.txt",
            "all_equal_m3.txt",
            "negative_entries.txt",
            "big_weights.txt",
        ):
            inst = parse_instance((DATA / name).read_text())
            assert isinstance(inst, ManipulationInstance), name

    def test_golden_artifact_files_match_generator(self):
        art = reduce_partition(ScoringVector((1, 1, 0, 0)), PartitionInstance((2, 2)))
        on_disk = (DATA / "single_c_partition_2_2.txt").read_text()
        assert on_disk == serialize_instance(art.instance)
        art = reduce_partition(ScoringVector((2, 2, 1, 0, 0)), PartitionInstance((1, 1)))
        on_disk = (DATA / "single_c_padded_1_1.txt").read_text()
        assert on_disk == serialize_instance(art.instance)

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("p 1\n", None, "missing alpha"),
            ("alpha 1 0\n", None, "missing p"),
            ("alpha 1 0\nalpha 1 0\np 1\n", 2, "duplicate scoring-rule"),
            ("alpha 1 0\np 1\np 2\n", 3, "duplicate p"),
            ("alpha\np 1\n", 1, "scoring vector is empty"),
            ("alpha 1 x\np 1\n", 1, "integer"),
            ("alpha 1 0\np 1 2\n", 2, "exactly one"),
            ("alpha 1 0\np 1\ns 3\n", 3, "weight and a full ballot"),
            ("alpha 1 0\np 1\nt 1 2\n", 3, "exactly one weight"),
            ("alpha 1 0\np 1\nq 1\n", 3, "unknown directive 'q'"),
            ("family veto\np 1\n", 1, "name and a candidate count"),
            ("family k-approval:3 2\np 1\n", 1, "3-approval needs at least 3"),
            ("family nanson 3\np 1\n", 1, "unknown family"),
            ("family copeland:3 3\np 1\n", 1, "unknown family 'copeland:3'"),
            ("family k-approval:x 3\np 1\n", 1, "k-approval parameter must be an integer"),
            ("family constant 3\np 1\n", 1, "constant families need an integer value"),
            # the same bad ballot text twice: the first line is reported
            ("alpha 1 0\np 1\ns 1 1 2\ns 1 2 x\ns 1 2 x\n", 4, "integer, got 'x'"),
        ],
    )
    def test_syntax_errors(self, text, line, fragment):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == line
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "text,line,code",
        [
            ("alpha 0 1\np 1\n", 1, "NonMonotoneAlpha"),
            ("alpha 1 0\np 3\n", 2, "CandidateOutOfRange"),
            ("alpha 1 0\np 1\ns 1 1 1\n", 3, "NonPermutationOrder"),
            ("alpha 1 0\np 1\ns 1 2 1\ns 1 1 1\ns 1 1 1\n", 4, "NonPermutationOrder"),
            ("alpha 1 0\np 1\ns 0 1 2\n", 3, "NonPositiveWeight"),
            ("alpha 1 0\np 1\nt 0\n", 3, "NonPositiveWeight"),
            # several problems: the earliest line is the one reported
            ("alpha 0 1\np 9\n", 1, "NonMonotoneAlpha"),
        ],
    )
    def test_validation_errors_carry_line_and_code(self, text, line, code):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == line
        assert code in str(err.value)

    def test_repeated_ballots_share_one_order(self):
        inst = parse_instance("alpha 1 0\np 1\ns 1 2 1\ns 5 1 2\ns 7 2 1\n")
        V = WeightedVote
        assert inst.s_voters == (V(1, (2, 1)), V(5, (1, 2)), V(7, (2, 1)))
        assert inst.s_voters[0].order is inst.s_voters[2].order
        # orders are shared per ballot text, the rest of the line after the
        # weight: other spacing, even trailing, gives an equal order
        text = "alpha 1 0\np 1\ns 1 2 1\ns 22 2 1# c\ns\t3  2 1\ns 4 2  1\ns 5 2 1 \n"
        orders = [v.order for v in parse_instance(text).s_voters]
        assert orders == [(2, 1)] * 5
        assert orders[0] is orders[1] is orders[2]

    def test_voters_are_votes_holding_plain_tuples(self):
        # the parser builds its voters in bulk, skipping WeightedVote's
        # conversion of the order, so they must come out the same as built
        # one by one
        text = "alpha 2 1 0\np 1\ns 3 2 1 3\ns 4 3 1 2\ns 5 2 1 3\nt 1\n"
        voters = parse_instance(text).s_voters
        V = WeightedVote
        assert voters == (V(3, (2, 1, 3)), V(4, [3, 1, 2]), V(5, (2, 1, 3)))
        assert all(type(v) is WeightedVote and type(v.order) is tuple for v in voters)
        assert repr(voters[1]) == "WeightedVote(weight=4, order=(3, 1, 2))"


LIMIT = sys.get_int_max_str_digits()
BAD_TOKENS = ("x", "1.5", "--1", "+-2", "٣x", "0x1", "½", "1e3", "s")


def integer_token(rng, lo, hi, clean=False):
    """An integer token, mostly in lo..hi; unless clean, sometimes malformed."""
    kind = rng.randrange(15 if clean else 20)
    if kind <= 11:
        return str(rng.randint(lo, hi))
    if kind == 12:
        return rng.choice("+-") + str(rng.randint(0, hi))
    if kind == 13:  # int() reads any Unicode decimal digit, such as Arabic-Indic ٣
        return "".join(chr(0x0660 + int(d)) for d in str(rng.randint(0, hi)))
    if kind == 14:
        return str(rng.randint(2**64, 2**70))
    if kind == 15:  # longer than int() may convert
        return rng.choice(("", "+", "-")) + "7" * (LIMIT + rng.randint(1, 3))
    if kind == 16:
        return f"{rng.randint(1, 9)}_{rng.randint(0, 9)}"
    return rng.choice(BAD_TOKENS)


def instance_text(rng):
    """Instance text with every kind of oddity.

    Half the texts are clean: every token is an integer and every line
    well formed, so most of them parse or fail only validation.
    """
    clean = rng.randrange(2) == 0
    m = rng.randint(1, 4)

    def token(lo, hi):
        return integer_token(rng, lo, hi, clean)

    def join(tokens):
        gaps = (" ", " ", "  ", "\t", " \t", "\x1f", "\u3000")
        return "".join(t + rng.choice(gaps) for t in tokens[:-1]) + tokens[-1]

    def ballot():
        tokens = [str(c) for c in rng.sample(range(1, m + 1), m)]
        if rng.randrange(5) == 0:  # a bad, missing or extra candidate
            i = rng.randint(0, m)
            bad = str(rng.randint(0, m + 1)) if clean or rng.randrange(2) else token(0, m + 1)
            tokens[i:i + rng.randint(0, 1)] = [bad]
        return tokens or ["1"]

    pool = [ballot() for _ in range(rng.randint(1, 3))]  # ballots repeat
    entries = sorted((rng.randint(-2, 4) for _ in range(m)), reverse=True)
    family = rng.choice(("veto", "borda", "k-approval:2", "constant:1", "nanson", "k-approval:x"))
    header = [
        ["alpha", *map(str, entries)],
        ["alpha", *(token(-2, 4) for _ in range(m))],
        ["family", family, token(1, 4)],
        ["p", str(rng.randint(1, m)) if rng.randrange(4) else token(0, m + 1)],
    ]
    lines = [header[rng.choice((0, 0, 0, 1, 2))], header[3]]
    for _ in range(rng.randint(0, 8)):
        kind = rng.randrange(20)
        if kind <= 10:
            lines.append(["s", token(-1, 5), *rng.choice(pool)])
        elif kind <= 13:
            lines.append(["t", token(-1, 5)])
        elif kind == 14 and not clean:
            lines.append(rng.choice(header))  # a duplicate directive
        elif kind == 15 and not clean:
            lines.append(rng.choice((["s", "1"], ["t"], ["t", "1", "2"], ["p"], ["q", "1"])))
        else:
            lines.append([])
    rng.shuffle(lines)
    if not clean and rng.randrange(10) == 0:
        lines.pop()  # perhaps a missing directive
    text = []
    for tokens in lines:
        line = rng.choice(("", " ", "\t")) + (join(tokens) if tokens else "")
        line += rng.choice(("", "", " ", "\t "))
        if rng.randrange(8) == 0:  # a comment, possibly inside a ballot
            cut = rng.randint(0, len(line)) if not clean else len(line)
            line = line[:cut] + "#" + rng.choice(("", " s 1 2", "#", "alpha"))
        text.append(line + rng.choice(("\n", "\n", "\r\n", "\x0b", "\x1c")))
    return "".join(text)


VALIDATION_CODES = ("NonPositiveWeight", "NonPermutationOrder", "CandidateOutOfRange", "NonMonotoneAlpha")


def parse_outcome(parse, text):
    """The instance, or the error's type, line and message."""
    try:
        return parse(text)
    except Exception as exc:  # both parsers must fail the same way, whatever the error
        return (type(exc).__name__, getattr(exc, "line", None), str(exc))


class TestParseInstanceDifferential:
    """The one-pass parser against the tokenize-every-line reference."""

    def test_matches_reference(self):
        seen = {}

        @given(st.randoms(use_true_random=True))
        @settings(max_examples=400, deadline=None, derandomize=True)
        def check(rng):
            text = instance_text(rng)
            got = parse_outcome(parse_instance, text)
            assert got == parse_outcome(reference_parse_instance, text)
            if isinstance(got, ManipulationInstance):
                kind = "instance"
            elif "digits, more than" in got[2]:
                kind = "too long"
            else:
                kind = next((code for code in VALIDATION_CODES if code in got[2]), got[0])
            seen[kind] = seen.get(kind, 0) + 1

        check()
        # the texts reach valid instances and every kind of error
        assert seen["instance"] >= 40, seen
        for kind in VALIDATION_CODES + ("too long",):
            assert seen.get(kind, 0) >= 8, (kind, seen)
        assert seen["ParseError"] >= 80, seen


class TestSerializeInstance:
    def test_canonical_form(self):
        assert serialize_instance(VETO_INSTANCE) == VETO_TEXT

    def test_text_round_trip(self):
        assert serialize_instance(parse_instance(VETO_TEXT)) == VETO_TEXT

    def test_object_round_trip(self):
        art = reduce_partition(ScoringVector((3, 2, 1, 0)), PartitionInstance((1, 3, 2)))
        assert parse_instance(serialize_instance(art.instance)) == art.instance

    def test_family_rejected(self):
        inst = parse_instance("family veto 3\np 1\n")  # resolved on parse, fine
        assert serialize_instance(inst) == "alpha 1 1 0\np 1\n"
        from votemanip import ScoringFamily

        # an unresolved family never reaches serialize_instance: it is refused when built
        with pytest.raises(TypeError):
            serialize_instance(ManipulationInstance(ScoringFamily.veto(), (), (1,), 1))

    def test_only_parseable_instances_reach_it(self):
        # an instance the parser would reject cannot be built, so it never serializes
        with pytest.raises(ParseError, match="line 2: CandidateOutOfRange"):
            parse_instance("alpha 1 0\np 7\ns 0 1 1\nt -2\n")
        with pytest.raises(InvalidInstance) as err:
            ManipulationInstance(ScoringVector((1, 0)), (WeightedVote(0, (1, 1)),), (-2,), 7)
        assert [(i.code, i.where) for i in err.value.issues] == [
            ("CandidateOutOfRange", "p"),
            ("NonPositiveWeight", "s[1]"),
            ("NonPermutationOrder", "s[1]"),
            ("NonPositiveWeight", "t[1]"),
        ]

    def test_big_integers_stay_decimal(self):
        w = 10**40 + 7
        inst = ManipulationInstance(
            ScoringVector((1, 0)), (WeightedVote(w, (1, 2)),), (w,), 1
        )
        text = serialize_instance(inst)
        assert f"s {w} 1 2\n" in text
        assert parse_instance(text) == inst

    def test_integer_past_interpreter_limit(self):
        limit = sys.get_int_max_str_digits()
        for alpha, s_weight, t_weight, named in (
            ((0, -(10**limit)), 1, 1, f"alpha entry has {limit + 1} digits"),
            ((1, 0), 10 ** (2 * limit) - 1, 1, f"voter weight has {2 * limit} digits"),
            ((1, 0), 1, 10**limit, f"coalition weight has {limit + 1} digits"),
        ):
            inst = ManipulationInstance(
                ScoringVector(alpha), (WeightedVote(s_weight, (1, 2)),), (t_weight,), 1
            )
            with pytest.raises(ParseError, match=named):
                serialize_instance(inst)


class TestWitnessFormat:
    def test_round_trip(self):
        orders = ((1, 2, 3), (1, 3, 2))
        text = serialize_witness(orders)
        assert text == "t-vote 1 1 2 3\nt-vote 2 1 3 2\n"
        assert parse_witness(text, 2, 3) == orders

    def test_empty(self):
        assert serialize_witness(()) == ""
        assert parse_witness("", 0, 3) == ()

    def test_order_normalized_by_index(self):
        text = "t-vote 2 1 3 2\nt-vote 1 1 2 3\n"
        assert parse_witness(text, 2, 3) == ((1, 2, 3), (1, 3, 2))

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("vote 1 1 2 3\n", "unknown directive"),
            ("t-vote 1 1 2\n", "needs an index and 3 candidates"),
            ("t-vote 3 1 2 3\n", "outside 1..2"),
            ("t-vote 1 1 2 3\nt-vote 1 1 3 2\n", "duplicate ballot"),
            ("t-vote 1 1 2 3\n", "covers 1 of 2"),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_witness(text, 2, 3)
        assert fragment in str(err.value)


class TestFamilyNames:
    def test_known_names(self):
        assert parse_family_name("plurality").kind == "plurality"
        assert parse_family_name("k-approval:4").k == 4
        assert parse_family_name("constant:3").value == 3

    @pytest.mark.parametrize(
        "name",
        ["borda:2", "k-approval", "k-approval:0", "k-approval:-1", "constant", "copeland"],
    )
    def test_bad_names(self, name):
        with pytest.raises(ParseError):
            parse_family_name(name)


class TestClassifyCommand:
    def test_hard_line_format(self, capsys):
        assert run_command(["classify", "--alpha", "1 1 0"]) == 0
        assert capsys.readouterr().out == "Hard ℓ=0 r=0\n"
        assert run_command(["classify", "--alpha", "2 2 1 0 0"]) == 0
        assert capsys.readouterr().out == "Hard ℓ=1 r=1\n"

    def test_easy_classes(self, capsys):
        run_command(["classify", "--alpha", "1 0"])
        assert capsys.readouterr().out == "PluralityLike\n"
        run_command(["classify", "--alpha", "3 3"])
        assert capsys.readouterr().out == "AllEqual\n"

    def test_family_summary(self, capsys):
        assert run_command(["classify", "--family", "borda"]) == 0
        assert capsys.readouterr().out == "NP-hard for m >= 3; P for smaller m\n"
        assert run_command(["classify", "--family", "plurality"]) == 0
        assert capsys.readouterr().out == "P for all m\n"

    def test_family_at_size(self, capsys):
        assert run_command(["classify", "--family", "k-approval:2", "--m", "2"]) == 0
        assert capsys.readouterr().out == "AllEqual\n"
        assert run_command(["classify", "--family", "k-approval:2", "--m", "3"]) == 0
        assert capsys.readouterr().out == "Hard ℓ=0 r=0\n"

    def test_usage_errors(self, capsys):
        assert run_command(["classify"]) == 2
        assert run_command(["classify", "--alpha", "1 0", "--family", "borda"]) == 2
        assert run_command(["classify", "--alpha", "0 1"]) == 2
        assert "NonMonotoneAlpha" in capsys.readouterr().err

    def test_m_with_alpha_is_usage_error(self, capsys):
        # a vector has its own size, so --m means something only with --family
        assert run_command(["classify", "--alpha", "2 1 0", "--m", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--m goes with --family" in captured.err

    def test_explicit_family_summary_rejected(self, capsys):
        # the name grammar has no explicit families, so this is a parse error
        assert run_command(["classify", "--family", "explicit"]) == 2


class TestFamilyCommand:
    def test_prints_vector(self, capsys):
        assert run_command(["family", "--name", "borda", "--m", "4"]) == 0
        assert capsys.readouterr().out == "4 3 2 1\n"

    def test_unsupported_size(self, capsys):
        assert run_command(["family", "--name", "k-approval:9", "--m", "3"]) == 2


class TestEvaluateCommand:
    def test_fixed_voters_only(self, capsys):
        assert run_command(["evaluate", str(DATA / "negative_entries.txt")]) == 0
        assert capsys.readouterr().out == "score 1 0\nscore 2 -1\nwinners 1\nunique 1\n"

    def test_with_witness(self, tmp_path, capsys):
        witness = tmp_path / "w.txt"
        witness.write_text("t-vote 1 1 2 3\nt-vote 2 1 3 2\n")
        inst = tmp_path / "i.txt"
        inst.write_text(VETO_TEXT)
        assert run_command(["evaluate", str(inst), "--witness", str(witness)]) == 0
        out = capsys.readouterr().out
        assert out == "score 1 8\nscore 2 6\nscore 3 6\nwinners 1\nunique 1\n"

    def test_witness_required_when_coalition_exists(self, capsys):
        assert run_command(["evaluate", str(DATA / "plurality_race.txt")]) == 2
        assert "witness" in capsys.readouterr().err

    def test_tie_reports_none(self, tmp_path, capsys):
        f = tmp_path / "tie.txt"
        f.write_text("alpha 1 0\np 1\ns 2 1 2\ns 2 2 1\n")
        assert run_command(["evaluate", str(f)]) == 0
        assert capsys.readouterr().out.endswith("winners 1 2\nunique none\n")

    def test_stdin_dash(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("alpha 2 1 0\np 1\ns 1 3 1 2\n"))
        assert run_command(["evaluate", "-"]) == 0
        assert capsys.readouterr().out == "score 1 1\nscore 2 0\nscore 3 2\nwinners 3\nunique 3\n"

    def test_big_numbers_exact(self, capsys):
        code = run_command(
            [
                "evaluate",
                str(DATA / "big_weights.txt"),
                "--witness",
                str(DATA / "big_weights_witness.txt"),
            ]
        )
        assert code == 0
        s = 123456789012345678901234567890
        t = 99999999999999999999
        out = capsys.readouterr().out
        assert f"score 1 {2 * (s + t)}" in out
        assert f"score 2 {s + t}" in out
        assert "unique 1" in out

    def test_missing_file(self, capsys):
        assert run_command(["evaluate", "/nonexistent/instance.txt"]) == 2

    def test_integer_past_interpreter_limit(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        f = tmp_path / "i.txt"
        f.write_text(f"alpha 1 0\np 1\ns {'7' * (limit + 700)} 1 2\n")
        assert run_command(["evaluate", str(f)]) == 2
        err = capsys.readouterr().err
        assert f"line 3: voter weight 777777777777... has {limit + 700} digits" in err
        assert len(err) < 200

    def test_score_past_interpreter_limit(self, tmp_path, capsys):
        # every integer read fits the limit, but a score is their product
        limit = sys.get_int_max_str_digits()
        nines = "9" * (limit // 2 + 850)
        f = tmp_path / "i.txt"
        f.write_text(f"alpha {nines} 0\np 1\ns {nines} 1 2\n")
        assert run_command(["evaluate", str(f)]) == 2
        out, err = capsys.readouterr()
        digits = 2 * len(nines)
        assert out == ""
        assert f"error: score of candidate 1 has {digits} digits, more than this " \
            f"interpreter's limit of {limit}" in err
        assert len(err) < 200


class TestManipulateCommand:
    def test_yes_prints_witness(self, tmp_path, capsys):
        f = tmp_path / "i.txt"
        f.write_text(VETO_TEXT)
        assert run_command(["manipulate", str(f)]) == 0
        assert capsys.readouterr().out == "yes\nt-vote 1 1 2 3\nt-vote 2 1 3 2\n"

    def test_unique_flag(self, tmp_path, capsys):
        f = tmp_path / "i.txt"
        f.write_text(VETO_TEXT)
        assert run_command(["manipulate", str(f), "--unique"]) == 0
        assert capsys.readouterr().out.startswith("yes\n")

    def test_no_exit_code(self, capsys):
        # all-equal vectors never yield a unique winner beyond one candidate
        assert run_command(["manipulate", str(DATA / "all_equal_m3.txt"), "--unique"]) == 1
        assert capsys.readouterr().out == "no\n"

    def test_witness_out_file(self, tmp_path, capsys):
        f = tmp_path / "i.txt"
        f.write_text(VETO_TEXT)
        out = tmp_path / "w.txt"
        assert run_command(["manipulate", str(f), "--witness-out", str(out)]) == 0
        assert out.read_text() == "t-vote 1 1 2 3\nt-vote 2 1 3 2\n"
        capsys.readouterr()

    def test_cap_exhausted_exit_code(self, tmp_path, capsys):
        f = tmp_path / "i.txt"
        f.write_text(VETO_TEXT)
        assert run_command(["manipulate", str(f), "--cap", "1"]) == 3
        assert "leaf evaluations" in capsys.readouterr().err
        assert run_command(["manipulate", str(f), "--cap", "2"]) == 0
        capsys.readouterr()

    def test_cap_applies_to_easy_classes(self, capsys):
        # plurality-like instances take the same budget as every other class
        f = str(DATA / "plurality_race.txt")
        assert run_command(["manipulate", f, "--cap", "0"]) == 3
        assert "leaf evaluations" in capsys.readouterr().err
        assert run_command(["manipulate", f, "--cap", "1"]) == 0
        assert capsys.readouterr().out == "yes\nt-vote 1 1 2\nt-vote 2 1 2\n"

    def test_cap_exhausted_on_space_too_long_to_print(self, tmp_path, capsys):
        # 6 rows ^ 6000 voters has 4669 digits, past int-to-str's default limit
        f = tmp_path / "i.txt"
        f.write_text("alpha 3 2 1 0\np 1\ns 1000000000 2 3 4 1\n" + "t 1\n" * 6000)
        assert run_command(["manipulate", str(f), "--cap", "0"]) == 3
        assert "search space has 6^6000 leaves" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("alpha 0 1\np 1\n")
        assert run_command(["manipulate", str(f)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_family_instance_from_corpus(self, capsys):
        # no voters at all: everyone sits at 0, so p co-wins but never uniquely
        assert run_command(["manipulate", str(DATA / "borda_family.txt")]) == 0
        assert capsys.readouterr().out == "yes\n"
        assert run_command(["manipulate", str(DATA / "borda_family.txt"), "--unique"]) == 1
        assert capsys.readouterr().out == "no\n"


class TestReduceCommand:
    def test_stdout_artifact(self, capsys):
        assert run_command(["reduce", "--alpha", "1 1 0", "--partition", "1 1"]) == 0
        assert capsys.readouterr().out == REDUCE_HEADER + VETO_TEXT

    def test_out_file_parses_back(self, tmp_path, capsys):
        out = tmp_path / "artifact.txt"
        assert (
            run_command(
                ["reduce", "--alpha", "3 2 1 0", "--partition", "1 3 2", "--out", str(out)]
            )
            == 0
        )
        art = reduce_partition(ScoringVector((3, 2, 1, 0)), PartitionInstance((1, 3, 2)))
        assert parse_instance(out.read_text()) == art.instance
        header = out.read_text().splitlines()[0]
        assert "case=general" in header and "t-unit=8" in header
        capsys.readouterr()

    def test_easy_vector_is_usage_error(self, capsys):
        assert run_command(["reduce", "--alpha", "1 0 0", "--partition", "1 1"]) == 2

    def test_odd_total_is_usage_error(self, capsys):
        assert run_command(["reduce", "--alpha", "1 1 0", "--partition", "1 1 1"]) == 2

    def test_bad_partition_integer(self, capsys):
        assert run_command(["reduce", "--alpha", "1 1 0", "--partition", "1 0"]) == 2

    def test_weights_past_interpreter_limit(self, capsys):
        # the integers fit the limit; the gadget's weights outgrow them
        nines = "9" * sys.get_int_max_str_digits()
        assert run_command(["reduce", "--alpha", "2 1 0", "--partition", f"{nines} {nines}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "digits, more than this interpreter's limit" in err and len(err) < 200


class TestExtractCommand:
    def test_extracts_subset(self, tmp_path, capsys):
        art = reduce_partition(ScoringVector((1, 1, 0)), PartitionInstance((1, 1)))
        w = tmp_path / "w.txt"
        w.write_text(serialize_witness(forward_witness(art, {2})))
        code = run_command(
            ["extract-witness", "--alpha", "1 1 0", "--partition", "1 1", "--witness", str(w)]
        )
        assert code == 0
        assert capsys.readouterr().out == "indices 2\nsum 1\n"

    def test_losing_ballots_exit_one(self, tmp_path, capsys):
        w = tmp_path / "w.txt"
        w.write_text(LOSING_WITNESS)
        code = run_command(
            ["extract-witness", "--alpha", "1 1 0", "--partition", "1 1", "--witness", str(w)]
        )
        assert code == 1
        assert "does not win" in capsys.readouterr().err


class TestVerifyCommand:
    def test_yes_case_output(self, capsys):
        assert run_command(["verify", "--alpha", "1 1 0", "--partition", "1 1"]) == 0
        assert capsys.readouterr().out == (
            "case general ell=0 r=0 target=1\n"
            "partition yes\n"
            "partition-witness 1\n"
            "forward-unique-winner yes\n"
            "manipulation yes\n"
            "unique-manipulation yes\n"
            "extracted-indices 1\n"
            "extracted-sum 1\n"
            "verdict pass\n"
        )

    def test_no_case_output(self, capsys):
        assert run_command(["verify", "--alpha", "1 1 0", "--partition", "1 1 4"]) == 0
        assert capsys.readouterr().out == (
            "case general ell=0 r=0 target=3\n"
            "partition no\n"
            "manipulation no\n"
            "unique-manipulation no\n"
            "verdict pass\n"
        )

    def test_single_c_case(self, capsys):
        assert run_command(["verify", "--alpha", "1 1 0 0", "--partition", "2 2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("case single-c ell=1 r=0 target=2\n")
        assert out.endswith("verdict pass\n")

    def test_few_huge_integers(self, capsys):
        # a target of 10**12 with two integers: the oracle keeps at most four
        # sums, never a bitset of 10**12 bits
        big = "1000000000000"
        assert run_command(["verify", "--alpha", "1 1 0", "--partition", f"{big} {big}"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"case general ell=0 r=0 target={big}\npartition yes\n")
        assert out.endswith("extracted-sum 1000000000000\nverdict pass\n")

    def test_odd_total(self, capsys):
        assert run_command(["verify", "--alpha", "1 1 0", "--partition", "3"]) == 2


class TestDispatcher:
    def test_help_exits_zero(self, capsys):
        assert run_command(["--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command,shared",
        [
            ("manipulate", {"--cap"}),
            ("reduce", {"--alpha", "--partition"}),
            ("extract-witness", {"--alpha", "--partition"}),
            ("verify", {"--alpha", "--partition", "--cap"}),
        ],
    )
    def test_shared_options_listed_where_they_apply(self, command, shared, capsys):
        assert run_command([command, "--help"]) == 0
        out = capsys.readouterr().out
        for option in ("--cap", "--alpha", "--partition"):
            assert (option in out) == (option in shared), option

    @pytest.mark.parametrize(
        "argv,code,fragment",
        [
            # ParseError from the command itself
            (["evaluate", "{plurality}"], 2, "supply their ballots with --witness"),
            (["classify", "--family", "copeland:3"], 2, "unknown family 'copeland:3'"),
            # ElectionError from the library
            (["reduce", "--alpha", "1 0 0", "--partition", "1 1"], 2, "PluralityLike"),
            # ValueError from the library
            (["reduce", "--alpha", "1 1 0", "--partition", ""], 2, "at least one integer"),
            (["manipulate", "{veto}", "--cap", "-5"], 2, "node_cap must be an integer >= 0"),
            (
                ["verify", "--alpha", "1 1 0", "--partition", "1 1", "--cap", "-5"],
                2,
                "node_cap must be an integer >= 0, got -5",
            ),
            (["evaluate", "/nonexistent/instance.txt"], 2, "/nonexistent/instance.txt"),  # OSError
            (["manipulate", "{veto}", "--cap", "1"], 3, "leaf evaluations"),  # CapExhausted
            (  # NotAWinner
                ["extract-witness", "--alpha", "1 1 0", "--partition", "1 1"]
                + ["--witness", "{loser}"],
                1,
                "does not win",
            ),
            # candidate counts past what a tuple can be sized to: these fail
            # before anything is allocated
            (["family", "--name", "borda", "--m", str(2**64)], 2, f"count {2**64} is too large"),
            (["classify", "--family", "veto", "--m", str(2**64)], 2, f"count {2**64} is too large"),
            (["evaluate", "{huge}"], 2, f"line 1: candidate count {2**64} is too large"),
            # 2**63 still sizes a tuple, but no single allocation can hold it
            (["family", "--name", "veto", "--m", str(2**63)], 2, f"count {2**63} is too large"),
            # a witness given for an instance without coalition voters is read
            (["evaluate", "{no_t}", "--witness", "/nonexistent/w.txt"], 2, "/nonexistent/w.txt"),
            (["evaluate", "{no_t}", "--witness", "{loser}"], 2, "index 1 outside 1..0"),
            # the instance checks that witness ballots are permutations
            (["evaluate", "{veto}", "--witness", "{repeat}"], 2, "not a permutation"),
            (
                ["extract-witness", "--alpha", "1 1 0", "--partition", "1 1"]
                + ["--witness", "{repeat}"],
                2,
                "not a permutation",
            ),
        ],
    )
    def test_every_error_is_one_line_with_its_exit_code(
        self, argv, code, fragment, tmp_path, capsys
    ):
        (tmp_path / "loser.txt").write_text(LOSING_WITNESS)
        (tmp_path / "repeat.txt").write_text("t-vote 1 1 1 2\nt-vote 2 1 2 3\n")
        (tmp_path / "huge.txt").write_text(f"family borda {2**64}\np 1\n")
        (tmp_path / "no_t.txt").write_text("alpha 2 1 0\np 1\ns 1 1 2 3\n")
        paths = {
            "plurality": DATA / "plurality_race.txt",
            "veto": DATA / "veto_partition_1_1.txt",
            "loser": tmp_path / "loser.txt",
            "repeat": tmp_path / "repeat.txt",
            "huge": tmp_path / "huge.txt",
            "no_t": tmp_path / "no_t.txt",
        }
        assert run_command([arg.format(**paths) for arg in argv]) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.count("error:") == 1
        assert fragment in err

    def test_unknown_command_exits_two(self, capsys):
        assert run_command(["tabulate"]) == 2
        capsys.readouterr()

    def test_missing_required_argument(self, capsys):
        assert run_command(["reduce", "--alpha", "1 1 0"]) == 2
        capsys.readouterr()

    def test_repeated_calls_share_no_state(self, tmp_path, capsys):
        # the parser is built once per process: flags must not leak between calls
        f = tmp_path / "i.txt"
        f.write_text("alpha 2 1 0\np 1\ns 2 2 1 3\nt 1\n")  # p can tie 2, not beat it
        assert run_command(["manipulate", str(f), "--unique"]) == 1
        assert capsys.readouterr().out == "no\n"
        assert run_command(["manipulate", str(f)]) == 0
        assert capsys.readouterr().out == "yes\nt-vote 1 1 3 2\n"
        assert run_command(["manipulate", str(f), "--cap"]) == 2
        capsys.readouterr()
        assert run_command(["manipulate", str(f), "--cap", "0"]) == 3
        capsys.readouterr()
        assert run_command(["manipulate", str(f), "--unique"]) == 1
        assert capsys.readouterr().out == "no\n"
        assert run_command(["evaluate", str(f), "--witness", str(f)]) == 2
        assert "unknown directive 'alpha'" in capsys.readouterr().err
