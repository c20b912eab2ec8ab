import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votemanip import (
    DimensionMismatch,
    ElectionError,
    InvalidInstance,
    ManipulationInstance,
    ScoringVector,
    ValidationIssue,
    WeightedVote,
    is_permutation,
    require_valid,
    tally,
    unique_winner,
    validate_instance,
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
        v = ScoringVector((3, 2, 1, 0))
        assert v.m == 4
        assert v.is_nonincreasing()
        assert not ScoringVector((1, 2)).is_nonincreasing()
        assert ScoringVector(()).is_nonincreasing()  # vacuous

    def test_entries_coerced_to_tuple(self):
        assert ScoringVector([2, 1]).entries == (2, 1)
        assert WeightedVote(1, [2, 1]).order == (2, 1)

    def test_negative_entries_allowed(self):
        assert ScoringVector((0, -1, -5)).is_nonincreasing()


class TestIsPermutation:
    def test_basic(self):
        assert is_permutation((2, 1, 3), 3)
        assert not is_permutation((1, 1, 3), 3)
        assert not is_permutation((1, 2), 3)
        assert not is_permutation((0, 1, 2), 3)
        assert is_permutation((1,), 1)
        assert is_permutation((), 0)


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
    def good(self):
        return ManipulationInstance(
            ScoringVector((2, 1, 0)),
            (V(3, (1, 2, 3)), V(1, (3, 2, 1))),
            (4, 2),
            p=1,
        )

    def test_valid_instance_reports_nothing(self):
        assert validate_instance(self.good()) == []
        require_valid(self.good())  # must not raise

    def test_duplicate_candidate_in_ballot(self):
        inst = ManipulationInstance(
            ScoringVector((1, 0, 0)), (V(1, (1, 1, 2)),), (), 1
        )
        (issue,) = validate_instance(inst)
        assert issue.code == "NonPermutationOrder"
        assert issue.where == "s[1]"

    def test_repeated_invalid_ballot_reported_per_voter(self):
        inst = ManipulationInstance(
            ScoringVector((1, 0, 0)),
            (V(1, (1, 1, 2)), V(1, (1, 2, 3)), V(1, (1, 1, 2)), V(0, (1, 1, 2)), V(1, (1, 2, 3))),
            (),
            1,
        )
        issues = validate_instance(inst)
        assert [(i.code, i.where) for i in issues] == [
            ("NonPermutationOrder", "s[1]"),
            ("NonPermutationOrder", "s[3]"),
            ("NonPositiveWeight", "s[4]"),
            ("NonPermutationOrder", "s[4]"),
        ]

    def test_unhashable_ballot_is_nonpermutation(self):
        inst = ManipulationInstance(
            ScoringVector((1, 0)), (V(1, (1, 2)), V(1, ([1], [2])), V(1, ([1], [2]))), (), 1
        )
        issues = validate_instance(inst)
        assert [(i.code, i.where) for i in issues] == [
            ("NonPermutationOrder", "s[2]"),
            ("NonPermutationOrder", "s[3]"),
        ]

    def test_short_ballot_is_nonpermutation(self):
        inst = ManipulationInstance(ScoringVector((1, 0, 0)), (V(1, (1, 2)),), (), 1)
        codes = [i.code for i in validate_instance(inst)]
        assert codes == ["NonPermutationOrder"]

    def test_p_out_of_range(self):
        for p in (0, 4, -1, 1.5, 2.0):
            inst = ManipulationInstance(ScoringVector((1, 0, 0)), (), (1,), p)
            (issue,) = validate_instance(inst)
            assert issue.code == "CandidateOutOfRange"
            assert issue.where == "p"

    def test_nonpositive_weights(self):
        inst = ManipulationInstance(
            ScoringVector((1, 0)), (V(0, (1, 2)),), (1, 0, -2), 1
        )
        issues = validate_instance(inst)
        assert [i.where for i in issues] == ["s[1]", "t[2]", "t[3]"]
        assert {i.code for i in issues} == {"NonPositiveWeight"}

    def test_non_integer_weights(self):
        # float weights would otherwise tally to float scores and wrong answers
        inst = ManipulationInstance(
            ScoringVector((1, 0)), (V(1.1, (2, 1)), V(2, (2, 1))), (3.3, 2.0), 1
        )
        issues = validate_instance(inst)
        assert [(i.code, i.where) for i in issues] == [
            ("NonPositiveWeight", "s[1]"),
            ("NonPositiveWeight", "t[1]"),
            ("NonPositiveWeight", "t[2]"),
        ]
        assert all("must be an integer >= 1" in i.message for i in issues)

    def test_increasing_alpha(self):
        for entries in ((1, 2), (1.5, 0)):  # a float entry is rejected too
            inst = ManipulationInstance(ScoringVector(entries), (), (1,), 1)
            (issue,) = validate_instance(inst)
            assert issue.code == "NonMonotoneAlpha"
            assert issue.where == "alpha"

    def test_empty_alpha(self):
        inst = ManipulationInstance(ScoringVector(()), (), (1,), 1)
        codes = {i.code for i in validate_instance(inst)}
        # empty vector implies p=1 is also out of range
        assert "NonMonotoneAlpha" in codes
        assert "CandidateOutOfRange" in codes

    def test_all_issues_collected_not_just_first(self):
        inst = ManipulationInstance(
            ScoringVector((1, 2)),
            (V(-1, (2, 1)), V(1, (1, 1))),
            (0,),
            p=9,
        )
        issues = validate_instance(inst)
        assert len(issues) == 5
        assert [i.code for i in issues] == [
            "NonMonotoneAlpha",
            "CandidateOutOfRange",
            "NonPositiveWeight",
            "NonPermutationOrder",
            "NonPositiveWeight",
        ]

    def test_require_valid_raises_with_issues(self):
        inst = ManipulationInstance(ScoringVector((1, 2)), (), (), 1)
        with pytest.raises(InvalidInstance) as err:
            require_valid(inst)
        assert len(err.value.issues) == 1
        assert isinstance(err.value.issues[0], ValidationIssue)
        assert "NonMonotoneAlpha" in str(err.value)

    def test_family_alpha_must_be_resolved_first(self):
        from votemanip import ScoringFamily

        inst = ManipulationInstance(ScoringFamily.borda(), (), (1,), 1)
        with pytest.raises(TypeError):
            validate_instance(inst)
