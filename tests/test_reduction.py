import itertools
import random

import pytest

import votemanip.manipulation as manipulation
import votemanip.reduction as reduction
from votemanip import (
    CapExhausted,
    ElectionError,
    GadgetCase,
    NotAWinner,
    NonPermutationOrder,
    NonPositiveScale,
    NotHard,
    OddSum,
    PartitionInstance,
    ReductionArtifact,
    RoleMap,
    ScoringFamily,
    ScoringVector,
    RuleClass,
    SearchStats,
    UnsupportedM,
    WeightedVote,
    brute_force,
    build_core_voters,
    classify,
    build_equalizer_voters,
    extract_witness,
    family_vector,
    forward_witness,
    hardness_params,
    reduce_partition,
    scale,
    shift,
    solve_partition,
    tally,
    unique_winner,
    verify_reduction,
)
from helpers import (
    count_classifications,
    count_row_builds,
    count_tallied_ballots,
    count_vector_builds,
    count_walks,
    exhaustive_partition,
    random_instance,
    random_nonincreasing,
)

SV = ScoringVector
PI = PartitionInstance

VETO3 = SV((1, 1, 0))


class TestPartitionInstance:
    def test_total_and_target(self):
        part = PI((3, 5, 2, 4))
        assert part.total == 14
        assert part.target == 7

    def test_odd_total_has_no_target(self):
        with pytest.raises(OddSum):
            PI((1, 2)).target

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PI(())

    def test_nonpositive_rejected(self):
        for ks in ((0,), (3, -1)):
            with pytest.raises(ValueError):
                PI(ks)

    @pytest.mark.parametrize(
        "ks,named", [((1.5, 2.5), "1.5 at position 1"), ((1, "2"), "'2' at position 2")]
    )
    def test_non_integers_rejected(self, ks, named):
        # solve_partition would answer a silent "no" for (1.5, 2.5), and
        # verify_reduction would blame the gadget's generated voters
        with pytest.raises(ValueError, match=f"integers >= 1, got {named}"):
            PI(ks)


class TestRoleMap:
    def test_candidate_numbers(self):
        rm = RoleMap(ell=2, r=2)
        assert rm.m == 7
        assert (rm.p, rm.a, rm.b) == (1, 2, 3)
        assert rm.cs == (4, 5)
        assert rm.ds == (6, 7)
        assert rm.c(1) == 4 and rm.c(2) == 5
        assert rm.d(1) == 6 and rm.d(2) == 7

    def test_no_cycle_or_padding(self):
        rm = RoleMap(ell=0, r=0)
        assert rm.m == 3
        assert rm.cs == () and rm.ds == ()
        with pytest.raises(IndexError):
            rm.c(1)
        with pytest.raises(IndexError):
            rm.d(1)

    def test_role_names(self):
        rm = RoleMap(ell=1, r=2)
        names = [rm.role_name(c) for c in range(1, rm.m + 1)]
        assert names == ["p", "a", "b", "c1", "d1", "d2"]
        with pytest.raises(IndexError):
            rm.role_name(7)
        for ell in range(6):
            for r in range(6):
                rm = RoleMap(ell, r)
                expected = ["p", "a", "b"]
                expected += [f"c{i}" for i in range(1, ell + 1)]
                expected += [f"d{j}" for j in range(1, r + 1)]
                assert [rm.role_name(c) for c in range(1, rm.m + 1)] == expected
                for outside in (0, -1, rm.m + 1):
                    with pytest.raises(IndexError, match=f"candidate {outside} outside 1..{rm.m}"):
                        rm.role_name(outside)

    @pytest.mark.parametrize("index", [True, False, 1.0, 2.0, "1", None])
    def test_indices_must_be_integers(self, index):
        # True == 1 and 2.0 == 2 to Python, but no index is a bool or a float
        rm = RoleMap(ell=2, r=2)
        for method, name in ((rm.c, "cycle candidate index"), (rm.d, "padding candidate index")):
            with pytest.raises(IndexError, match=f"{name} {index!r} outside 1..2"):
                method(index)
        with pytest.raises(IndexError, match=f"candidate {index!r} outside 1..7"):
            rm.role_name(index)

    @pytest.mark.parametrize("ell,r", [(-1, 0), (0, -2), (1.5, 0), (0, "1")])
    def test_sizes_must_be_nonnegative_integers(self, ell, r):
        with pytest.raises(ValueError, match="must be an integer >= 0"):
            RoleMap(ell, r)


class TestSolvePartition:
    @pytest.mark.parametrize(
        "ks,expected",
        [
            ((3, 5, 2, 4), {1, 4}),
            ((1, 1), {1}),
            ((2, 2), {1}),
            ((1, 3, 2, 2), {1, 2}),
            ((6,), None),  # even total, unreachable half
            ((3,), None),  # odd total
            ((1, 1, 4), None),
            ((1, 2, 3), {1, 2}),  # not {3}: earliest feasible indices win
        ],
    )
    def test_frozen_cases(self, ks, expected):
        assert solve_partition(PI(ks)) == expected

    def test_agrees_with_exhaustive_search(self, monkeypatch):
        rng = random.Random(5)
        budget = reduction._BITSET_BUDGET
        # large entries make sums far wider than one machine word; a target
        # below 2**n takes the bitsets, above it the sets, and a zero budget
        # leaves the sets to answer every partition
        cases = ((7, 9, 300), (12, 500, 60), (10, 40, 60), (12, 20, 60), (6, 10**9, 60))
        for size, top, trials in cases:
            for _ in range(trials):
                ks = tuple(rng.randint(1, top) for _ in range(rng.randint(1, size)))
                hits = exhaustive_partition(ks)
                for each_budget in (budget, 0):
                    monkeypatch.setattr(reduction, "_BITSET_BUDGET", each_budget)
                    got = solve_partition(PI(ks))
                    if not hits:  # None (odd) or empty list (even, unreachable)
                        assert got is None, ks
                    else:
                        assert got is not None, ks
                        assert frozenset(got) in set(hits)
                        # greedy reconstruction picks the earliest feasible indices
                        assert tuple(sorted(got)) == min(tuple(sorted(h)) for h in hits)

    def test_few_huge_integers(self):
        # a bitset would need 10**30 bits; the sets hold at most four sums
        assert solve_partition(PI((10**30, 10**30))) == {1}
        assert solve_partition(PI((10**30, 10**30, 2, 4))) is None  # even, unreachable
        # many equal large integers: the target is below 2**n but its bitsets
        # would overrun the budget, and only 51 distinct sums exist
        ks = (2**60,) * 100
        got = solve_partition(PI(ks))
        assert got == set(range(1, 51))

    def test_large_partition(self):
        # 60 integers up to 100,000: a target near 1.5 million, one bit per sum
        rng = random.Random(8)
        ks = [rng.randint(1, 100_000) for _ in range(60)]
        ks[0] += sum(ks) % 2
        part = PI(tuple(ks))
        got = solve_partition(part)
        assert got is not None and sum(ks[i - 1] for i in got) == part.target


class TestCoreVoters:
    def test_three_candidate_two_voter_core(self):
        core = build_core_voters(VETO3, ell=0, r=0, target=1)
        assert core == (WeightedVote(1, (2, 3, 1)), WeightedVote(1, (3, 2, 1)))

    def test_general_scores_closed_form(self):
        # ell = 0: p at zero, a and b tied, padding fed by the second entry
        for entries, r in [((3, 2, 1, 0), 1), ((2, 1, 0), 0), ((5, 4, 2, 1, 0), 2)]:
            vec = SV(entries)
            a1, ar2, a2 = entries[0], entries[r + 1], entries[1]
            for target in (1, 2, 3, 5):
                scores = tally(build_core_voters(vec, 0, r, target), vec)
                w_ab = 2 * target * (2 * a1 - ar2) - 1
                assert scores[1] == 0
                assert scores[2] == scores[3] == w_ab * (a1 + ar2)
                if r:
                    assert scores[4] == 2 * w_ab * a2

    def test_general_with_cycle_candidates(self):
        # ell = 2, r = 1: cycle candidates share one score above a and b
        vec = SV((4, 2, 2, 0, 0, 0))
        a1, ar2, a2 = 4, 2, 2
        for target in (1, 3):
            core = build_core_voters(vec, 2, 1, target)
            w_ab = 2 * target * (2 * a1 - ar2) - 1
            w_c = 4 * a1 * target - 1
            assert len(core) == 2 + 2
            scores = tally(core, vec)
            assert scores[1] == 0
            assert scores[2] == scores[3] == w_ab * (a1 + ar2)
            assert scores[4] == scores[5] == w_c * (a1 + ar2)
            assert scores[4] > scores[2] > scores[1]
            assert scores[6] == (2 * w_ab + 2 * w_c) * a2

    def test_single_c_scores_closed_form(self):
        # exactly one cycle candidate: eight ballots, p lifted off zero
        vec = SV((2, 2, 1, 0, 0))
        a1, ar2, a2 = 2, 1, 2
        for target in (1, 2, 4):
            core = build_core_voters(vec, 1, 1, target)
            assert len(core) == 8
            w_ab = 3 * target * (2 * a1 - ar2) - 1
            w_six = 3 * a1 * target - 1
            sp = w_six * (a1 + ar2)
            scores = tally(core, vec)
            assert scores[1] == sp
            assert scores[2] == scores[3] == w_ab * (a1 + ar2) + sp
            assert scores[4] == 2 * w_six * (a1 + ar2) + sp
            assert scores[5] == (2 * w_ab + 6 * w_six) * a2

    def test_single_c_without_padding(self):
        core = build_core_voters(SV((1, 1, 0, 0)), 1, 0, target=2)
        assert [v.weight for v in core] == [5] * 8
        scores = tally(core, SV((1, 1, 0, 0)))
        assert scores == {1: 10, 2: 20, 3: 20, 4: 30}

    @pytest.mark.parametrize(
        "entries,ell,r,target,error,match",
        [
            # unchecked, ell=5 would give ballots over 8 candidates for a 4-entry vector
            ((3, 2, 1, 0), 5, 0, 1, ElectionError, "ell=5, r=0 does not match"),
            ((3, 2, 1, 0), 0, 7, 1, ElectionError, "ell=0, r=7 does not match"),
            ((4, 3, 2, 1), 0, 1, 1, ElectionError, r"normalized vector \(3, 2, 1, 0\)"),
            ((3, 2, 1, 0), 0, 1, 1.5, ElectionError, "target must be an integer >= 1, got 1.5"),
            ((3, 2, 1, 0), 0, 1, 0, ElectionError, "target must be an integer >= 1, got 0"),
            ((1, 0, 0), 0, 0, 1, NotHard, "PluralityLike"),
        ],
    )
    def test_rejects_input_that_does_not_match(self, entries, ell, r, target, error, match):
        with pytest.raises(error, match=match):
            build_core_voters(SV(entries), ell, r, target)


class TestEqualizerVoters:
    def test_frozen_rotation_block(self):
        vec = SV((3, 2, 1, 0))
        eq = build_equalizer_voters(vec, ell=0, r=1, weight=5)
        assert eq == (
            WeightedVote(5, (2, 3, 1, 4)),
            WeightedVote(5, (3, 1, 2, 4)),
            WeightedVote(5, (1, 2, 3, 4)),
        )
        assert tally(eq, vec) == {1: 30, 2: 30, 3: 30, 4: 0}

    def test_counts_and_levelling(self):
        cases = [
            (SV((3, 2, 1, 0)), 0, 1),
            (SV((2, 2, 1, 0, 0)), 1, 1),
            (SV((5, 4, 4, 1, 0, 0)), 1, 2),
            (SV((4, 2, 2, 0, 0, 0)), 2, 1),
        ]
        for vec, ell, r in cases:
            w = 7
            eq = build_equalizer_voters(vec, ell, r, w)
            assert len(eq) == (ell + 3) * r
            scores = tally(eq, vec)
            leaders = {scores[c] for c in range(1, ell + 4)}
            assert len(leaders) == 1
            head = leaders.pop()
            for d in range(ell + 4, vec.m + 1):
                # padding stays out of reach even when handed one extra ballot
                assert scores[d] + w <= head

    def test_empty_without_padding(self):
        assert build_equalizer_voters(VETO3, 0, 0, 1) == ()

    def test_weight_must_be_positive(self):
        with pytest.raises(ElectionError):
            build_equalizer_voters(SV((3, 2, 1, 0)), 0, 1, 0)

    @pytest.mark.parametrize(
        "entries,ell,r,weight,error,match",
        [
            ((3, 2, 1, 0), 3, 2, 5, ElectionError, "ell=3, r=2 does not match"),
            ((3, 2, 1, 0), 0, 0, 1, ElectionError, "ell=0, r=0 does not match"),
            ((4, 3, 2, 1), 0, 1, 5, ElectionError, "normalized vector"),
            ((3, 2, 1, 0), 0, 1, 1.5, ElectionError, "integer >= 1, got 1.5"),
            ((1, 1, 1), 0, 0, 1, NotHard, "AllEqual"),
        ],
    )
    def test_rejects_input_that_does_not_match(self, entries, ell, r, weight, error, match):
        with pytest.raises(error, match=match):
            build_equalizer_voters(SV(entries), ell, r, weight)


class TestReducePartition:
    def test_three_candidate_artifact(self):
        art = reduce_partition(VETO3, PI((1, 1)))
        assert isinstance(art, ReductionArtifact)
        assert art.case is GadgetCase.GENERAL
        assert (art.ell, art.r, art.target) == (0, 0, 1)
        assert art.equalizer_weight == 0
        assert art.t_unit == 4
        inst = art.instance
        assert inst.alpha.entries == (1, 1, 0)
        assert inst.p == 1
        assert inst.s_voters == (WeightedVote(1, (2, 3, 1)), WeightedVote(1, (3, 2, 1)))
        assert inst.t_weights == (4, 4)

    def test_input_vector_gets_normalized(self):
        art = reduce_partition(SV((2, 2, 1)), PI((1, 1)))
        assert art.instance.alpha.entries == (1, 1, 0)
        assert art == reduce_partition(VETO3, PI((1, 1)))

    def test_single_c_artifact(self):
        art = reduce_partition(SV((1, 1, 0, 0)), PI((2, 2)))
        assert art.case is GadgetCase.SINGLE_C
        assert (art.ell, art.r, art.target) == (1, 0, 2)
        assert art.t_unit == 6
        assert art.instance.t_weights == (12, 12)
        assert len(art.instance.s_voters) == 8
        assert {v.weight for v in art.instance.s_voters} == {5}

    def test_single_c_with_padding_artifact(self):
        art = reduce_partition(SV((2, 2, 1, 0, 0)), PI((1, 1)))
        assert art.case is GadgetCase.SINGLE_C
        assert (art.ell, art.r) == (1, 1)
        # padding candidate's core score doubles as the equalizer weight here
        assert art.equalizer_weight == 92
        assert art.t_unit == 9
        assert len(art.instance.s_voters) == 8 + 4

    def test_general_with_padding_artifact(self):
        art = reduce_partition(SV((3, 2, 1, 0)), PI((1, 1)))
        assert art.case is GadgetCase.GENERAL
        assert (art.ell, art.r) == (0, 1)
        # one point above the padding candidate's core score
        assert art.equalizer_weight == 37
        assert art.t_unit == 8
        assert len(art.instance.s_voters) == 2 + 3

    def test_weights_scale_with_partition_values(self):
        art = reduce_partition(VETO3, PI((2, 3, 5)))
        assert art.target == 5
        assert art.instance.t_weights == (8, 12, 20)
        assert art.instance.s_voters[0].weight == 2 * 5 * 1 - 1

    def test_easy_vector_rejected(self):
        with pytest.raises(NotHard):
            reduce_partition(SV((1, 0, 0)), PI((1, 1)))

    def test_odd_total_rejected(self):
        with pytest.raises(OddSum):
            reduce_partition(VETO3, PI((1, 1, 1)))


class TestGadgetFacts:
    """reduce_partition classifies once and reads d1's score off the core weights."""

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("ell", [0, 1, 2, 3])
    def test_equalizer_weight_is_d1s_core_score(self, ell, r):
        # ell + 1 trailing zeros below r + 2 distinct positive entries
        entries = tuple(range(r + 2, 0, -1)) + (0,) * (ell + 1)
        for ks in [(1, 1), (1, 2, 3), (3, 5, 2, 4), (7, 9)]:
            art = reduce_partition(SV(entries), PI(ks))
            assert (art.ell, art.r) == (ell, r)
            alpha = art.instance.alpha
            core = build_core_voters(alpha, ell, r, art.target)
            d1_score = tally(core, alpha)[art.role_map.d(1)]
            general = art.case is GadgetCase.GENERAL
            assert general == (ell != 1)
            assert art.equalizer_weight == d1_score + general, (entries, ks)

    @pytest.mark.parametrize("entries", [(1, 1, 0), (1, 1, 0, 0), (3, 2, 1, 0), (5, 4, 3, 1, 1)])
    def test_one_classification_and_no_tally(self, monkeypatch, entries):
        classified = count_classifications(monkeypatch)
        tallied = count_tallied_ballots(monkeypatch)
        reduce_partition(SV(entries), PI((1, 2, 3)))
        assert classified == [entries] and tallied == []

    def test_padding_trails_by_three_equalizer_weights(self):
        # the module docstring's r*S_top - (ell+3)*S_rest >= e[0] + e[1] + e[2] >= 3,
        # read off a weight-1 equalizer block, for every padded hard vector
        # with m <= 8 and entries in 0..4
        margins = {}
        for m in range(3, 9):
            for entries in itertools.combinations_with_replacement(range(4, -1, -1), m):
                dc = classify(SV(entries))
                if dc.tag is not RuleClass.HARD or dc.r == 0:
                    continue
                norm, ell, r = hardness_params(SV(entries))
                rm = RoleMap(ell, r)
                table = tally(build_equalizer_voters(norm, ell, r, 1), norm)
                leaders = (rm.p, rm.a, rm.b, *rm.cs)
                margin = min(table[c] for c in leaders) - max(table[d] for d in rm.ds)
                e = norm.entries
                assert margin >= e[0] + e[1] + e[2] >= 3, entries
                margins[entries] = margin
        assert len(margins) == 1056
        assert min(margins.values()) == margins[(1, 1, 1, 0)] == 3


class TestWitnessTranslation:
    def art(self):
        return reduce_partition(VETO3, PI((1, 1)))

    def final_table(self, art, ballots):
        votes = art.instance.s_voters + tuple(
            WeightedVote(w, o) for w, o in zip(art.instance.t_weights, ballots)
        )
        return tally(votes, art.instance.alpha)

    def test_forward_ballot_shapes(self):
        art = self.art()
        assert forward_witness(art, {1}) == ((1, 2, 3), (1, 3, 2))
        assert forward_witness(art, set()) == ((1, 3, 2), (1, 3, 2))
        assert forward_witness(art, {1, 2}) == ((1, 2, 3), (1, 2, 3))

    def test_forward_scores(self):
        art = self.art()
        assert self.final_table(art, forward_witness(art, {1})) == {1: 8, 2: 6, 3: 6}
        assert self.final_table(art, forward_witness(art, set())) == {1: 8, 2: 2, 3: 10}
        assert self.final_table(art, forward_witness(art, {1, 2})) == {1: 8, 2: 10, 3: 2}

    def test_forward_with_padding_ranks_padding_high(self):
        art = reduce_partition(SV((3, 2, 1, 0)), PI((1, 1)))
        assert forward_witness(art, {2}) == ((1, 4, 3, 2), (1, 4, 2, 3))

    def test_forward_rejects_bad_indices(self):
        art = self.art()
        for subset in ({0}, {3}, {1, 2, 3}):
            with pytest.raises(IndexError):
                forward_witness(art, subset)

    @pytest.mark.parametrize(
        "subset,bad", [({True}, "True"), ({1.0}, "1.0"), ([1, False], "False"), ({1, "a"}, "'a'")]
    )
    def test_forward_rejects_non_integer_indices(self, subset, bad):
        # {True} and {1.0} equal {1} to Python; the message names the item
        # without sorting the subset, which {1, "a"} could not be
        with pytest.raises(IndexError, match=f"subset index {bad} outside 1..2"):
            forward_witness(self.art(), subset)

    def test_extract_round_trip(self):
        art = self.art()
        for subset in ({1}, {2}):
            assert extract_witness(art, forward_witness(art, subset)) == subset

    def test_extract_normalizes_p_position(self):
        # p buried second on the first ballot still ties for the win, and
        # the subset is read off the a/b order alone
        art = self.art()
        assert extract_witness(art, ((2, 1, 3), (1, 3, 2))) == {1}

    def test_extract_rejects_losing_profiles(self):
        art = self.art()
        with pytest.raises(NotAWinner):
            extract_witness(art, ((2, 1, 3), (2, 1, 3)))

    @pytest.mark.parametrize(
        "ballots",
        [((1, 2, 2), (1, 3, 3)), ((1, 1, 1), (1, 1, 1)), ((1, 2), (1, 3, 2))],
    )
    def test_extract_rejects_non_permutation_ballots(self, ballots):
        with pytest.raises(NonPermutationOrder, match=r"t\[1\]"):
            extract_witness(self.art(), ballots)

    def test_extract_rejects_wrong_ballot_count(self):
        art = self.art()
        with pytest.raises(ElectionError):
            extract_witness(art, ((1, 2, 3),))

    def test_extract_sums_to_target_on_any_winning_profile(self):
        art = reduce_partition(VETO3, PI((2, 1, 1)))
        import itertools

        for ballots in itertools.product(
            itertools.permutations((1, 2, 3)), repeat=3
        ):
            try:
                subset = extract_witness(art, ballots)
            except NotAWinner:
                continue
            assert sum(art.source.ks[i - 1] for i in subset) == art.target


class TestVerifyReduction:
    def test_yes_case(self):
        report = verify_reduction(VETO3, PI((1, 1)))
        assert report.passed
        assert report.partition_witness == frozenset({1})
        assert report.mp.decision and report.ump.decision
        assert report.forward_unique is True
        assert report.extracted == frozenset({1})
        assert report.extracted_sum == 1

    def test_no_case(self):
        report = verify_reduction(VETO3, PI((1, 1, 4)))
        assert report.passed
        assert report.partition_witness is None
        assert not report.mp.decision and not report.ump.decision
        assert report.forward_unique is None
        assert report.extracted is None

    @pytest.mark.parametrize(
        "entries,ks",
        [
            ((1, 1, 0, 0), (2, 2)),
            ((2, 2, 1, 0, 0), (1, 1)),
            ((3, 2, 1, 0), (1, 2, 3)),
            ((4, 2, 2, 0, 0, 0), (1, 1)),
            ((4, 2, 2, 0, 0, 0), (1, 1, 4)),
        ],
    )
    def test_battery(self, entries, ks):
        assert verify_reduction(SV(entries), PI(ks)).passed

    def test_deep_search_stats(self):
        # a Borda m=5 "no" gadget of 10 voters: every cut fires and the walk
        # reaches the ninth voter; the counts pin the whole walk
        report = verify_reduction(
            SV((5, 4, 3, 2, 1)), PI((117, 144, 200, 120, 116, 131, 151, 49, 48, 132))
        )
        assert report.passed and not report.mp.decision
        assert report.mp.stats == SearchStats(24, 0, 234680, 48116, 21200, 4826, 9)


# veto and Borda at m=3..5, 2-approval at m=4 and (2, 2, 1, 0, 0), the
# vectors of the benchmark's reduction battery
VERIFY_MIX = (
    (1, 1, 0),
    (1, 1, 1, 0),
    (1, 1, 1, 1, 0),
    (3, 2, 1),
    (4, 3, 2, 1),
    (5, 4, 3, 2, 1),
    (1, 1, 0, 0),
    (2, 2, 1, 0, 0),
)


def random_gadget_inputs(rng, yes):
    """A hard vector and 3-8 integers with an even total; a split exists iff ``yes``."""
    if rng.random() < 0.5:
        alpha = SV(rng.choice(VERIFY_MIX))
    else:
        alpha = random_nonincreasing(rng, rng.randint(3, 5), lo=-4, hi=6)
        while classify(alpha).tag is not RuleClass.HARD:
            alpha = random_nonincreasing(rng, alpha.m, lo=-4, hi=6)
    n = rng.randint(3, 8)
    while True:
        ks = [rng.randint(1, 25) for _ in range(n)]
        if yes:
            # deal the integers onto two sides, then top up the lighter side
            side = [i % 2 == 0 for i in range(n)]
            gap = sum(k if s else -k for k, s in zip(ks, side))
            lighter = [i for i in range(n) if side[i] == (gap < 0)]
            ks[rng.choice(lighter)] += abs(gap)
        part = PI(tuple(ks))
        if part.total % 2 == 0 and (solve_partition(part) is not None) == yes:
            return alpha, part


def same_cap(shared, lone):
    return (str(shared), shared.stats, shared.search_space) == (
        str(lone),
        lone.stats,
        lone.search_space,
    )


class TestVerifySharesOneSearch:
    """verify_reduction answers both questions from one search."""

    def test_matches_lone_searches(self):
        # ump is the co-winner walk's answer, stats included, and what a
        # lone unique search finds
        rng = random.Random(11)
        for trial in range(320):
            alpha, part = random_gadget_inputs(rng, yes=trial % 2 == 0)
            report = verify_reduction(alpha, part)
            assert report.passed
            inst = report.artifact.instance
            lone = brute_force(inst, False)
            assert report.mp == lone and report.mp.stats == lone.stats, (alpha, part)
            assert report.ump is report.mp and report.ump == brute_force(inst, True), (alpha, part)
            # a budget the first walk exceeds
            first = report.mp.stats.terminals
            with pytest.raises(CapExhausted) as shared:
                verify_reduction(alpha, part, node_cap=first - 1)
            with pytest.raises(CapExhausted) as lone:
                brute_force(inst, False, node_cap=first - 1)
            assert same_cap(shared.value, lone.value), (alpha, part)

    @pytest.mark.parametrize(
        "entries,ks",
        [((5, 4, 3, 2, 1), (3, 5, 2, 4)), ((5, 4, 3, 2, 1), (1, 1, 4)), ((1, 1, 0, 0), (2, 2))],
    )
    def test_rows_built_once_when_a_root_survives(self, monkeypatch, entries, ks):
        drawn = count_row_builds(monkeypatch)
        report = verify_reduction(SV(entries), PI(ks))
        assert report.passed and report.mp.stats.deepest > 0
        assert sum(map(bool, drawn)) == 1

    @pytest.mark.parametrize("entries,ks", [((2, 1, 0), (6,)), ((1, 1, 1, 1, 0), (48,))])
    def test_no_rows_when_both_roots_are_cut(self, monkeypatch, entries, ks):
        # one coalition voter that cannot split a single integer: the
        # last-voter test cuts the root in both winner modes
        drawn = count_row_builds(monkeypatch)
        report = verify_reduction(SV(entries), PI(ks))
        assert report.passed and not report.mp.decision
        for answer in (report.mp, report.ump):
            assert answer.stats.terminals == answer.stats.pairing == 1
        assert not any(drawn)

    @pytest.mark.parametrize("entries,ks", [((1, 1, 0), (1, 1, 2)), ((5, 4, 3, 2, 1), (3, 5, 2, 4))])
    def test_fixed_voters_tallied_once(self, monkeypatch, entries, ks):
        # one fixed-voter tally; the yes check and the forward check each
        # tally only the coalition's ballots on top, and the extracted
        # subset is read off the checked ballots: F + 2n ballots, where
        # re-tallying the whole profile for both read 3F + 3n.  Building
        # the gadget tallies nothing, padded or not.
        counts = count_tallied_ballots(monkeypatch)
        report = verify_reduction(SV(entries), PI(ks))
        assert report.passed and report.mp.decision and report.ump.decision
        art = report.artifact
        fixed, n = len(art.instance.s_voters), len(art.instance.t_weights)
        assert counts == [fixed, n, n]

    @pytest.mark.parametrize(
        "entries,ks,yes",
        [((1, 1, 0), (1, 1, 4), False), ((5, 4, 3, 2, 1), (3, 5, 2, 4), True)],
    )
    def test_one_walk_answers_both_modes(self, monkeypatch, entries, ks, yes):
        # no gadget ties p, so the co-winner walk answers the unique question too
        walks = count_walks(monkeypatch)
        report = verify_reduction(SV(entries), PI(ks))
        assert report.passed and report.mp.decision == report.ump.decision == yes
        assert walks == [False]

    def test_normalized_gadget_builds_no_vector(self, monkeypatch):
        # veto m=3 is its own normal form: classifying it, building the
        # gadget and the search all use the vector as given
        alpha = SV((1, 1, 0))
        built = count_vector_builds(monkeypatch)
        report = verify_reduction(alpha, PI((1, 1, 2)))
        assert report.passed and report.mp.decision
        assert report.artifact.instance.alpha is alpha
        assert built == []


def only_ties(inst, witness):
    """Re-tally: p wins under ``witness`` but is not the unique winner."""
    return unique_winner(tally(inst.profile(witness), inst.alpha)) != inst.p


class TestExtractionFromTie:
    """The walks' witnesses differ exactly when the co-winner ballots only tie p."""

    def test_witnesses_differ_iff_p_only_ties(self):
        rng = random.Random(14)
        yes = ties = 0
        for trial in range(1500):
            restrict = trial % 2 == 0
            # small entries and weights tie often
            alpha = random_nonincreasing(rng, rng.randint(1, 5), lo=-2, hi=3)
            i = random_instance(rng, alpha, max_coalition=4, max_weight=3)
            mp = brute_force(i, False, restrict_p_first=restrict)
            if not mp.decision:
                continue
            ump = brute_force(i, True, restrict_p_first=restrict)
            tie = only_ties(i, mp.witness)
            assert (ump.witness != mp.witness) == tie, (i, restrict)
            yes += 1
            ties += tie
        assert yes >= 1000 and ties >= 250, (yes, ties)


class TestNoGadgetTiesP:
    """The module docstring's margin proof, checked on every p-first assignment."""

    # one vector per branch of the proof: (case, ell, r)
    BRANCHES = [
        ((1, 1, 0), (GadgetCase.GENERAL, 0, 0)),
        ((3, 2, 1, 0), (GadgetCase.GENERAL, 0, 1)),
        ((1, 1, 0, 0, 0), (GadgetCase.GENERAL, 2, 0)),
        ((3, 2, 1, 0, 0, 0), (GadgetCase.GENERAL, 2, 1)),
        ((1, 1, 0, 0), (GadgetCase.SINGLE_C, 1, 0)),
        ((5, 4, 3, 1, 1), (GadgetCase.SINGLE_C, 1, 1)),
    ]

    # four yes partitions, then three no partitions
    PARTITIONS = [(1, 1), (1, 1, 2), (1, 2, 3), (3, 5, 2, 4), (2, 4), (1, 1, 4), (2, 2, 2, 4)]

    @pytest.mark.parametrize("entries,branch", BRANCHES, ids=[str(e) for e, _ in BRANCHES])
    @pytest.mark.parametrize("ks", PARTITIONS)
    def test_every_co_win_leaves_p_strictly_ahead(self, entries, branch, ks):
        art = reduce_partition(SV(entries), PI(ks))
        assert (art.case, art.ell, art.r) == branch
        inst = art.instance
        m, p, e = art.role_map.m, inst.p, inst.alpha.entries
        fixed = tally(inst.s_voters, inst.alpha)
        rivals = [c for c in range(1, m + 1) if c != p]
        # each candidate's entry under every ballot ranking p first, once per distinct row
        rows = set()
        for order in itertools.permutations(rivals):
            ballot = (p, *order)
            rows.add(tuple(e[ballot.index(c)] for c in range(1, m + 1)))
        co_wins = ties = 0
        for picks in itertools.product(sorted(rows), repeat=len(inst.t_weights)):
            scores = [fixed[c] for c in range(1, m + 1)]
            for w, row in zip(inst.t_weights, picks):
                scores = [s + w * x for s, x in zip(scores, row)]
            best_rival = max(scores[c - 1] for c in rivals)
            co_wins += scores[p - 1] >= best_rival
            ties += scores[p - 1] == best_rival
        assert ties == 0
        assert (co_wins > 0) == (solve_partition(PI(ks)) is not None)

    def test_a_tied_yes_raises(self, monkeypatch):
        # a witness check that finds a rival level with p disproves the
        # margins, so the report is not built
        table = manipulation._with_coalition

        def tied(inst, fixed, ballots):
            scores = table(inst, fixed, ballots)
            scores[RoleMap.a] = scores[inst.p]
            return scores

        monkeypatch.setattr(manipulation, "_with_coalition", tied)
        with pytest.raises(ElectionError, match="internal error: .* only tie p"):
            verify_reduction(VETO3, PI((1, 1)))


VETO_GADGET = reduce_partition(VETO3, PI((1, 1))).instance


@pytest.mark.parametrize(
    "build,error",
    [
        (lambda: PI((True, 1)), ValueError),
        (lambda: RoleMap(True, 0), ValueError),
        (lambda: RoleMap(0, True), ValueError),
        (lambda: build_core_voters(VETO3, 0, 0, True), ElectionError),
        (lambda: build_equalizer_voters(SV((3, 2, 1, 0)), 0, 1, True), ElectionError),
        (lambda: brute_force(VETO_GADGET, node_cap=True), ValueError),
        (lambda: verify_reduction(VETO3, PI((1, 1)), node_cap=False), ValueError),
        (lambda: ScoringFamily.k_approval(True), ValueError),
        (lambda: ScoringFamily.constant(True), ValueError),
        (lambda: ScoringFamily.explicit({True: SV((1,))}), ValueError),
        (lambda: family_vector(ScoringFamily.borda(), True), UnsupportedM),
        (lambda: shift(VETO3, True), TypeError),
        (lambda: scale(VETO3, True), NonPositiveScale),
    ],
    ids=[
        "partition", "ell", "r", "target", "equalizer-weight", "brute-force-cap",
        "verify-cap", "k-approval", "constant", "explicit-size", "family-m", "shift", "scale",
    ],
)
def test_bool_is_no_integer(build, error):
    with pytest.raises(error):
        build()


class TestWideReduction:
    """Veto and 2-approval gadgets at m = 8..12, yes and no partitions."""

    @pytest.mark.parametrize("m", range(8, 13))
    @pytest.mark.parametrize(
        "family", [ScoringFamily.veto(), ScoringFamily.k_approval(2)], ids=["veto", "2-approval"]
    )
    @pytest.mark.parametrize("ks", [(1, 2, 3), (2, 3, 4, 5), (1, 1, 4), (2, 2, 2, 4)])
    def test_verify_and_round_trip(self, family, m, ks):
        report = verify_reduction(family_vector(family, m), PI(ks))
        assert report.passed
        art = report.artifact
        assert art.role_map.m == m
        hits = exhaustive_partition(ks)
        assert report.mp.decision == report.ump.decision == bool(hits)
        assert (report.partition_witness is not None) == bool(hits)
        if hits:
            assert report.extracted in hits
            assert report.extracted_sum == art.target
        for subset in hits:
            assert extract_witness(art, forward_witness(art, subset)) == subset
