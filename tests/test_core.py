import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votemanip import (
    DimensionMismatch,
    ElectionError,
    InvalidInstance,
    ManipulationInstance,
    NonMonotoneAlpha,
    NonPermutationOrder,
    ScoringFamily,
    ScoringVector,
    ValidationIssue,
    WeightedVote,
    is_permutation,
    require_valid,
    tally,
    unique_winner,
    winners,
)
from helpers import random_nonincreasing, random_order

V = WeightedVote


def naive_tally(votes, alpha):
    # independent oracle: per-candidate accumulation, no dict pre-seeding
    scores = {}
    for c in range(1, alpha.m + 1):
        total = 0
        for vote in votes:
            total += vote.weight * alpha.entries[vote.order.index(c)]
        scores[c] = total
    return scores


class TestScoringVector:
    def test_m_and_monotonicity(self):
        assert ScoringVector((3, 2, 1, 0)).m == 4
        assert ScoringVector((5, 5)).m == 2
        # empty, not all integers, or increasing somewhere: rejected when built
        for entries in ((1, 0, 1), (0, 1, 2), (2.5, 1, 0), ()):
            with pytest.raises(NonMonotoneAlpha):
                ScoringVector(entries)

    def test_entries_coerced_to_tuple(self):
        assert ScoringVector([2, 1]).entries == (2, 1)
        assert WeightedVote(1, [2, 1]).order == (2, 1)

    def test_negative_entries_allowed(self):
        assert ScoringVector((0, -1, -5)).entries == (0, -1, -5)

    def test_bool_entries_rejected(self):
        # True and False are ints to Python, but no file can spell them
        for entries in ((True, False), (2, True, 0), (1, 1, False)):
            with pytest.raises(NonMonotoneAlpha, match="entries must be integers"):
                ScoringVector(entries)


class TestWeightedVote:
    def test_immutable(self):
        vote = WeightedVote(1, (2, 1))
        for name, value in (("weight", 2), ("order", (1, 2)), ("other", 0)):
            with pytest.raises(AttributeError):
                setattr(vote, name, value)
        assert vote == WeightedVote(1, (2, 1))

    def test_equal_votes_hash_equal(self):
        a, b = WeightedVote(2**70, (2, 1, 3)), WeightedVote(2**70, [2, 1, 3])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != WeightedVote(2**70, (1, 2, 3)) and a != WeightedVote(1, (2, 1, 3))

    def test_repr(self):
        assert repr(WeightedVote(1, (2, 1))) == "WeightedVote(weight=1, order=(2, 1))"
        assert repr(WeightedVote(3, [1])) == "WeightedVote(weight=3, order=(1,))"


class TestProfile:
    def test_coalition_ballots_must_be_permutations(self):
        inst = ManipulationInstance(ScoringVector((2, 1, 0)), (), (1, 1), 1)
        # (True, 2, 3) equals the valid (1, 2, 3) cast before it, hash included
        bad_ballots = ((1, 2, 2), (1, 2), (1, 2, 3, 4), (0, 1, 2), ([1], [2], [3]), (1, None, 3))
        for bad in bad_ballots + ((True, 2, 3),):
            with pytest.raises(NonPermutationOrder, match=r"t\[2\]"):
                inst.profile([(1, 2, 3), bad])
        # several bad ballots: the first voter casting one is named
        with pytest.raises(NonPermutationOrder, match=r"t\[1\] \(3, 3, 3\)"):
            inst.profile([(3, 3, 3), (1, 1, 1)])

    def test_coalition_votes_leave_the_fixed_voters_out(self):
        fixed = (V(5, (3, 1, 2)), V(2, (2, 3, 1)))
        inst = ManipulationInstance(ScoringVector((2, 1, 0)), fixed, (4, 7), 1)
        orders = ([1, 2, 3], (3, 2, 1))
        cast = inst.coalition_votes(iter(orders))
        assert cast == (V(4, (1, 2, 3)), V(7, (3, 2, 1)))
        assert inst.profile(orders) == fixed + cast
        # both check the coalition's ballots with the same messages
        bad = {
            ((1, 2, 3), (1, 2, 2)): (
                NonPermutationOrder,
                "coalition ballot t[2] (1, 2, 2) is not a permutation of 1..3",
            ),
            ((1, 2, 3),): (ElectionError, "need 2 coalition ballots, got 1"),
        }
        for orders, (error, text) in bad.items():
            for cast in (inst.coalition_votes, inst.profile):
                with pytest.raises(error) as raised:
                    cast(orders)
                assert str(raised.value) == text


class TestIsPermutation:
    def test_basic(self):
        assert is_permutation((2, 1, 3), 3)
        assert not is_permutation((1, 1, 3), 3)
        assert not is_permutation((1, 2), 3)
        assert not is_permutation((0, 1, 2), 3)
        assert is_permutation((1,), 1)
        assert is_permutation((), 0)
        # True compares equal to 1, but a bool is no candidate
        assert not is_permutation((True, 2, 3), 3)
        assert not is_permutation((2, 3, True), 3)
        assert not is_permutation((True,), 1)
        # items that cannot be compared make no permutation, and raise nothing
        assert not is_permutation((1, "a"), 2)
        assert not is_permutation((1, None), 2)


class TestTally:
    def test_worked_example(self):
        alpha = ScoringVector((2, 1, 0))
        votes = (V(2, (1, 2, 3)), V(1, (2, 3, 1)), V(1, (3, 1, 2)))
        assert tally(votes, alpha) == {1: 5, 2: 4, 3: 3}

    def test_empty_profile(self):
        assert tally((), ScoringVector((1, 0))) == {1: 0, 2: 0}

    def test_single_candidate(self):
        assert tally((V(7, (1,)),), ScoringVector((4,))) == {1: 28}

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            tally((V(1, (1, 2)),), ScoringVector((1, 0, 0)))
        # a short ballot after repeated valid ones is still caught
        votes = (V(1, (1, 2, 3)), V(2, (1, 2, 3)), V(3, (3, 2, 1)), V(4, (1, 2)))
        with pytest.raises(DimensionMismatch, match="ballot has 2 positions, scoring vector has 3"):
            tally(votes, ScoringVector((1, 0, 0)))

    def test_huge_weights_exact(self):
        w = 10**30
        votes = (V(w, (1, 2)), V(w - 1, (2, 1)))
        assert tally(votes, ScoringVector((1, 0))) == {1: w, 2: w - 1}

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_oracle(self, data):
        import random

        rng = random.Random(data.draw(st.integers(0, 2**32)))
        m = rng.randint(1, 6)
        alpha = random_nonincreasing(rng, m)
        votes = tuple(
            V(rng.randint(1, 10**12), random_order(rng, m))
            for _ in range(rng.randint(0, 5))
        )
        assert tally(votes, alpha) == naive_tally(votes, alpha)
        # repeated ballots: orders drawn from a pool of at most three
        pool = [random_order(rng, m) for _ in range(rng.randint(1, 3))]
        votes = tuple(
            V(rng.randint(1, 2**80), rng.choice(pool)) for _ in range(rng.randint(0, 40))
        )
        assert tally(votes, alpha) == naive_tally(votes, alpha)

    @given(st.integers(1, 10**6), st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_weight_linearity(self, w, m):
        # one ballot of weight w scores the same as w stacked unit ballots
        import random

        rng = random.Random(w * 31 + m)
        alpha = random_nonincreasing(rng, m)
        order = random_order(rng, m)
        bulk = tally((V(w, order),), alpha)
        unit = tally((V(1, order),), alpha)
        assert bulk == {c: w * s for c, s in unit.items()}

    @pytest.mark.parametrize("m", range(1, 11))
    def test_run_shaped_vectors_match_naive_oracle(self, m):
        # vectors whose longest run of equal entries sits everywhere it can
        half = m // 2
        vectors = [
            (5,) * m,  # all equal: one run covers every position
            (1,) + (0,) * (m - 1),  # plurality-like
            (1,) * (m - 1) + (0,),  # veto
            *((1,) * k + (0,) * (m - k) for k in {half, half + 1, m - half - 1} if 0 < k < m),
            (7,) * half + (-3,) * half + (-9,) * (m % 2),  # two runs of equal length
            tuple(-i * i for i in range(m)),  # negative, no two entries equal
            (0,) + (-4,) * (m - 1),
            tuple(range(m, 0, -1)),  # Borda
        ]
        rng = random.Random(m)
        for entries in vectors:
            alpha = ScoringVector(entries)
            for _ in range(4):
                pool = [random_order(rng, m) for _ in range(rng.randint(1, 6))]
                votes = tuple(
                    V(rng.choice((1, rng.randint(2**64, 2**70))), rng.choice(pool))
                    for _ in range(rng.randint(0, 25))
                )
                expected = naive_tally(votes, alpha)
                assert tally(votes, alpha) == expected, entries
                # a one-shot generator is read once and gives the same table
                assert tally((vote for vote in votes), alpha) == expected, entries

    def test_wrong_length_found_wherever_it_sits(self):
        msg = "^ballot has 3 positions, scoring vector has 4$"
        good = [V(2**65, (1, 2, 3, 4)), V(3, (4, 3, 2, 1))]
        short = V(1, (2, 1, 3))
        placements = (
            [short, *good],
            [good[0], short, good[1]],
            [*good, *good, good[0], short],  # last, after repeats
        )
        # the longest run at the front, covering every position, and of length one
        for entries in ((1, 1, 0, 0), (3, 3, 3, 3), (4, 3, 2, 1)):
            for votes in placements:
                with pytest.raises(DimensionMismatch, match=msg):
                    tally(votes, ScoringVector(entries))
                with pytest.raises(DimensionMismatch, match=msg):
                    tally(iter(votes), ScoringVector(entries))
            # two wrong lengths: the first distinct one is named
            votes = [good[0], V(1, (1, 2, 3, 4, 5)), short]
            with pytest.raises(DimensionMismatch, match="ballot has 5 positions"):
                tally(votes, ScoringVector(entries))


class TestWinners:
    def test_unique(self):
        assert winners({1: 5, 2: 4, 3: 3}) == {1}
        assert unique_winner({1: 5, 2: 4, 3: 3}) == 1

    def test_tie(self):
        table = {1: 2, 2: 2, 3: 0}
        assert winners(table) == {1, 2}
        assert unique_winner(table) is None

    def test_all_tied(self):
        assert winners({1: 0, 2: 0}) == {1, 2}

    def test_negative_scores(self):
        assert winners({1: -3, 2: -1}) == {2}

    def test_empty_table_rejected(self):
        with pytest.raises(ElectionError):
            winners({})


class TestValidation:
    """An instance checks itself when it is built; bad ones raise every issue."""

    def good(self):
        return ManipulationInstance(
            ScoringVector((2, 1, 0)),
            (V(3, (1, 2, 3)), V(1, (3, 2, 1))),
            (4, 2),
            p=1,
        )

    def issues(self, *args, **kwargs):
        with pytest.raises(InvalidInstance) as err:
            ManipulationInstance(*args, **kwargs)
        return list(err.value.issues)

    def test_valid_instance_reports_nothing(self):
        require_valid(self.good())  # builds, and checking again must not raise

    def test_replace_checks_again(self):
        with pytest.raises(InvalidInstance) as err:
            replace(self.good(), p=9)
        assert [(i.code, i.where) for i in err.value.issues] == [("CandidateOutOfRange", "p")]

    def test_duplicate_candidate_in_ballot(self):
        (issue,) = self.issues(ScoringVector((1, 0, 0)), (V(1, (1, 1, 2)),), (), 1)
        assert issue.code == "NonPermutationOrder"
        assert issue.where == "s[1]"

    def test_repeated_invalid_ballot_reported_per_voter(self):
        issues = self.issues(
            ScoringVector((1, 0, 0)),
            (V(1, (1, 1, 2)), V(1, (1, 2, 3)), V(1, (1, 1, 2)), V(0, (1, 1, 2)), V(1, (1, 2, 3))),
            (),
            1,
        )
        assert [(i.code, i.where) for i in issues] == [
            ("NonPermutationOrder", "s[1]"),
            ("NonPermutationOrder", "s[3]"),
            ("NonPositiveWeight", "s[4]"),
            ("NonPermutationOrder", "s[4]"),
        ]

    def test_unhashable_ballot_is_nonpermutation(self):
        issues = self.issues(
            ScoringVector((1, 0)), (V(1, (1, 2)), V(1, ([1], [2])), V(1, ([1], [2]))), (), 1
        )
        assert [(i.code, i.where) for i in issues] == [
            ("NonPermutationOrder", "s[2]"),
            ("NonPermutationOrder", "s[3]"),
        ]

    def test_incomparable_ballot_is_nonpermutation(self):
        for bad in ((1, "a"), (1, None)):
            issues = self.issues(ScoringVector((1, 0)), (V(1, (1, 2)), V(2, bad)), (), 1)
            assert [(i.code, i.where, i.message) for i in issues] == [
                ("NonPermutationOrder", "s[2]", f"ballot {bad} is not a permutation of 1..2"),
            ]

    def test_bool_candidate_is_nonpermutation(self):
        # True == 1, so sorting alone would take (True, 2, 3) for a permutation
        issues = self.issues(
            ScoringVector((2, 1, 0)),
            (V(1, (3, 2, 1)), V(2, (True, 2, 3)), V(1, (3, 2, 1)), V(4, (True, 2, 3))),
            (1,),
            1,
        )
        message = "ballot (True, 2, 3) is not a permutation of 1..3"
        assert [(i.code, i.where, i.message) for i in issues] == [
            ("NonPermutationOrder", "s[2]", message),
            ("NonPermutationOrder", "s[4]", message),
        ]

    def test_bool_ballot_beside_its_int_twin(self):
        # (True, 2, 3) == (1, 2, 3) with equal hashes: each ballot is judged
        # on its own, whichever of the two comes first
        alpha, twin, good = ScoringVector((2, 1, 0)), (True, 2, 3), (1, 2, 3)
        message = "ballot (True, 2, 3) is not a permutation of 1..3"
        issues = self.issues(alpha, (V(1, good), V(2, twin)), (1,), 1)
        assert [(i.code, i.where, i.message) for i in issues] == [
            ("NonPermutationOrder", "s[2]", message),
        ]
        issues = self.issues(alpha, (V(2, twin), V(1, good)), (1,), 1)
        assert [(i.code, i.where, i.message) for i in issues] == [
            ("NonPermutationOrder", "s[1]", message),
        ]

    def test_bools_in_every_place_rejected(self):
        # each bool is an issue of its own, and a vector of bools is never built
        voters = (V(True, (1, 2, 3)), V(2, (2, 1, 3)), V(1, (3, True, 2)))
        issues = self.issues(ScoringVector((2, 1, 0)), voters, (True,), True)
        assert [(i.code, i.where) for i in issues] == [
            ("CandidateOutOfRange", "p"),
            ("NonPositiveWeight", "s[1]"),
            ("NonPermutationOrder", "s[3]"),
            ("NonPositiveWeight", "t[1]"),
        ]
        with pytest.raises(NonMonotoneAlpha):
            ManipulationInstance(ScoringVector((True, False)), (), (1,), 1)

    def test_short_ballot_is_nonpermutation(self):
        issues = self.issues(ScoringVector((1, 0, 0)), (V(1, (1, 2)),), (), 1)
        assert [i.code for i in issues] == ["NonPermutationOrder"]

    def test_p_out_of_range(self):
        for p in (0, 4, -1, 1.5, 2.0, True):
            (issue,) = self.issues(ScoringVector((1, 0, 0)), (), (1,), p)
            assert issue.code == "CandidateOutOfRange"
            assert issue.where == "p"
            assert issue.message == f"preferred candidate {p!r} outside 1..3"

    def test_nonpositive_weights(self):
        issues = self.issues(ScoringVector((1, 0)), (V(0, (1, 2)),), (1, 0, -2), 1)
        assert [i.where for i in issues] == ["s[1]", "t[2]", "t[3]"]
        assert {i.code for i in issues} == {"NonPositiveWeight"}

    def test_non_integer_weights(self):
        # float weights would otherwise tally to float scores and wrong answers
        issues = self.issues(
            ScoringVector((1, 0)),
            (V(1.1, (2, 1)), V(2, (2, 1)), V(True, (2, 1)), V(False, (1, 2))),
            (3.3, 2.0, True, False),
            1,
        )
        assert [(i.code, i.where) for i in issues] == [
            ("NonPositiveWeight", "s[1]"),
            ("NonPositiveWeight", "s[3]"),
            ("NonPositiveWeight", "s[4]"),
            ("NonPositiveWeight", "t[1]"),
            ("NonPositiveWeight", "t[2]"),
            ("NonPositiveWeight", "t[3]"),
            ("NonPositiveWeight", "t[4]"),
        ]
        assert issues[1].message == "weight True must be an integer >= 1"
        assert all("must be an integer >= 1" in i.message for i in issues)

    def test_increasing_alpha(self):
        # a bad vector is rejected when it is built, so no instance holds one
        with pytest.raises(NonMonotoneAlpha, match=r"entries must be nonincreasing, got \(1, 2\)"):
            ManipulationInstance(ScoringVector((1, 2)), (), (1,), 1)
        with pytest.raises(NonMonotoneAlpha, match=r"entries must be integers, got \(1.5, 0\)"):
            ManipulationInstance(ScoringVector((1.5, 0)), (), (1,), 1)

    def test_empty_alpha(self):
        with pytest.raises(NonMonotoneAlpha, match="scoring vector is empty"):
            ManipulationInstance(ScoringVector(()), (), (1,), 1)

    def test_all_issues_collected_not_just_first(self):
        issues = self.issues(
            ScoringVector((2, 1)),
            (V(-1, (2, 1)), V(1, (1, 1))),
            (0,),
            p=9,
        )
        assert len(issues) == 4
        assert [i.code for i in issues] == [
            "CandidateOutOfRange",
            "NonPositiveWeight",
            "NonPermutationOrder",
            "NonPositiveWeight",
        ]

    @pytest.mark.parametrize("unhashable", [False, True])
    def test_many_voters_with_mixed_problems_keep_issue_order(self, unhashable):
        # p first, then per fixed voter its weight issue before its ballot
        # issue, in voter order, then the coalition weights
        rng = random.Random(12)
        weights = ((1, 7, 2**70), (0, -3, 2.5, None, True))  # good, then bad
        orders = (((1, 2, 3), (3, 1, 2)), ((1, 1, 2), (1, 2), (0, 1, 2), (1, 2, 3, 4), (1, None, 3)))
        voters = [
            V(rng.choice(weights[rng.randrange(2)]), rng.choice(orders[rng.randrange(2)]))
            for _ in range(400)
        ]
        if unhashable:  # a ballot is checked whether or not it hashes
            voters[rng.randrange(400)] = V(1, ([1], [2], [3]))
        want = [("CandidateOutOfRange", "p", "preferred candidate 4 outside 1..3")]
        for i, vote in enumerate(voters, start=1):
            if not (type(vote.weight) is int and vote.weight >= 1):
                message = f"weight {vote.weight!r} must be an integer >= 1"
                want.append(("NonPositiveWeight", f"s[{i}]", message))
            if not is_permutation(vote.order, 3):
                message = f"ballot {vote.order} is not a permutation of 1..3"
                want.append(("NonPermutationOrder", f"s[{i}]", message))
        want.append(("NonPositiveWeight", "t[2]", "weight 0 must be an integer >= 1"))
        issues = self.issues(ScoringVector((2, 1, 0)), voters, (1, 0), 4)
        assert [(i.code, i.where, i.message) for i in issues] == want
        # a quarter of the voters have no problem, a quarter both
        both = [k for k in range(1, len(want)) if want[k - 1][1] == want[k][1]]
        assert 300 < len(want) < 500 and 50 < len(both) < 150

    def test_require_valid_raises_with_issues(self):
        with pytest.raises(InvalidInstance) as err:
            ManipulationInstance(ScoringVector((1, 0)), (), (0,), 1)
        assert len(err.value.issues) == 1
        assert isinstance(err.value.issues[0], ValidationIssue)
        assert "t[1]: NonPositiveWeight" in str(err.value)

    def test_family_alpha_must_be_resolved_first(self):
        # an instance holds only a vector; families go through family_vector
        with pytest.raises(TypeError, match="family_vector"):
            ManipulationInstance(ScoringFamily.borda(), (), (1,), 1)
