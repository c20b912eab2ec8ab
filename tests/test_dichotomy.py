import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votemanip import (
    DichotomyClass,
    ExplicitFamilyUnsupported,
    NonPositiveScale,
    NotHard,
    RuleClass,
    ScoringFamily,
    ScoringVector,
    UnsupportedM,
    WeightedVote,
    classify,
    classify_family,
    family_vector,
    hardness_params,
    normalize_last_zero,
    scale,
    shift,
    tally,
    winners,
)
from helpers import count_vector_builds, random_nonincreasing, random_profile

SV = ScoringVector


class TestShiftScale:
    def test_shift(self):
        assert shift(SV((3, 1, 0)), 2).entries == (5, 3, 2)
        assert shift(SV((3, 1, 0)), -3).entries == (0, -2, -3)

    def test_scale(self):
        assert scale(SV((3, 1, 0)), 4).entries == (12, 4, 0)
        assert scale(SV((3, 1, 0)), 1).entries == (3, 1, 0)

    def test_scale_rejects_zero_and_negative(self):
        for k in (0, -1):
            with pytest.raises(NonPositiveScale):
                scale(SV((1, 0)), k)

    def test_non_integer_amounts_are_named(self):
        # the amount is at fault, not the vector it would produce
        with pytest.raises(NonPositiveScale, match="scale factor must be an integer >= 1, got 1.5"):
            scale(SV((2, 1, 0)), 1.5)
        with pytest.raises(TypeError, match="shift amount must be an integer, got 0.5"):
            shift(SV((2, 1, 0)), 0.5)

    def test_normalize_last_zero(self):
        assert normalize_last_zero(SV((5, 3, 2))).entries == (3, 1, 0)
        assert normalize_last_zero(SV((0, -2, -4))).entries == (4, 2, 0)
        assert normalize_last_zero(SV((7,))).entries == (0,)

    def test_normalize_no_gcd_division(self):
        # only a shift: common factors are left alone
        assert normalize_last_zero(SV((6, 4, 2))).entries == (4, 2, 0)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_normalized_vector_is_its_own_normal_form(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        alpha = random_nonincreasing(rng, rng.randint(1, 7))
        norm = normalize_last_zero(alpha)
        assert norm.entries[-1] == 0
        assert normalize_last_zero(norm) is norm
        assert (normalize_last_zero(alpha) is alpha) == (alpha.entries[-1] == 0)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_winners_invariant_and_shift_bookkeeping(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        m = rng.randint(1, 5)
        alpha = random_nonincreasing(rng, m)
        votes = random_profile(rng, m, rng.randint(1, 6))
        k = data.draw(st.integers(-3, 3))
        c = data.draw(st.sampled_from([1, 2, 5]))
        base = tally(votes, alpha)
        total_weight = sum(v.weight for v in votes)
        shifted = tally(votes, shift(alpha, k))
        assert shifted == {cand: s + k * total_weight for cand, s in base.items()}
        assert winners(shifted) == winners(base)
        scaled = tally(votes, scale(alpha, c))
        assert scaled == {cand: c * s for cand, s in base.items()}
        assert winners(scaled) == winners(base)


class TestClassify:
    @pytest.mark.parametrize(
        "entries",
        [(0,), (5,), (2, 2), (0, 0, 0), (-1, -1, -1, -1)],
    )
    def test_all_equal(self, entries):
        assert classify(SV(entries)).tag is RuleClass.ALL_EQUAL

    @pytest.mark.parametrize(
        "entries",
        [(1, 0), (1, 0, 0), (5, 2, 2, 2), (0, -3, -3)],
    )
    def test_plurality_like(self, entries):
        dc = classify(SV(entries))
        assert dc.tag is RuleClass.PLURALITY_LIKE
        assert dc.ell is None and dc.r is None
        # no gadget, so no normalized vector either
        with pytest.raises(NotHard):
            hardness_params(SV(entries))

    @pytest.mark.parametrize(
        "entries,norm,ell,r",
        [
            ((1, 1, 0), (1, 1, 0), 0, 0),  # veto, m=3
            ((2, 1, 0), (2, 1, 0), 0, 0),  # borda-shaped, m=3
            ((3, 2, 1), (2, 1, 0), 0, 0),  # same after normalization
            ((1, 1, 0, 0), (1, 1, 0, 0), 1, 0),
            ((1, 1, 1, 0), (1, 1, 1, 0), 0, 1),
            ((2, 2, 1, 0, 0), (2, 2, 1, 0, 0), 1, 1),
            ((4, 2, 2, 0, 0, 0), (4, 2, 2, 0, 0, 0), 2, 1),
            ((5, 4, 3, 1, 1), (4, 3, 2, 0, 0), 1, 1),
            ((3, 2, 1, 0), (3, 2, 1, 0), 0, 1),
        ],
    )
    def test_hard_with_params(self, entries, norm, ell, r):
        dc = classify(SV(entries))
        assert dc.tag is RuleClass.HARD
        normalized = hardness_params(SV(entries))[0]
        assert normalized.entries == norm
        assert (dc.ell, dc.r) == (ell, r)
        # structural identities every hard vector satisfies
        m = len(entries)
        assert m == ell + r + 3
        assert normalized.entries[-1] == 0
        assert normalized.entries[r + 1] >= 1  # entry before the zero block

    @pytest.mark.parametrize(
        "entries",
        [(3, 3, 3), (-1, -1), (5, 2, 2, 2), (1, 0, 0), (1, 1, 0), (3, 2, 1), (5, 4, 3, 1, 1)],
    )
    def test_classify_builds_no_vector(self, monkeypatch, entries):
        # the class and gadget sizes are counted off the entries as given
        alpha = SV(entries)
        built = count_vector_builds(monkeypatch)
        classify(alpha)
        assert built == []

    def test_hardness_params_passthrough(self):
        norm, ell, r = hardness_params(SV((4, 4, 3, 1)))
        assert norm.entries == (3, 3, 2, 0)
        assert (ell, r) == (0, 1)

    @pytest.mark.parametrize("entries", [(1,), (1, 0), (3, 3), (1, 0, 0), (4, 4, 4)])
    def test_hardness_params_rejects_easy(self, entries):
        with pytest.raises(NotHard):
            hardness_params(SV(entries))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_class_invariant_under_shift_and_scale(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        alpha = random_nonincreasing(rng, rng.randint(1, 7))
        k = data.draw(st.integers(-4, 4))
        c = data.draw(st.integers(1, 5))
        base = classify(alpha)
        assert classify(shift(alpha, k)).tag is base.tag
        scaled = classify(scale(alpha, c))
        assert scaled.tag is base.tag
        if base.tag is RuleClass.HARD:
            # shifting never moves the gadget sizes; scaling cannot either
            assert (scaled.ell, scaled.r) == (base.ell, base.r)
            shifted = classify(shift(alpha, k))
            assert (shifted.ell, shifted.r) == (base.ell, base.r)
            # the sizes counted off the raw entries are the normalized form's
            ell = hardness_params(alpha)[0].entries.count(0) - 1
            assert (base.ell, base.r) == (ell, alpha.m - ell - 3)


class TestFamilyVectors:
    def test_plurality(self):
        assert family_vector(ScoringFamily.plurality(), 4).entries == (1, 0, 0, 0)
        assert family_vector(ScoringFamily.plurality(), 1).entries == (1,)

    def test_borda(self):
        assert family_vector(ScoringFamily.borda(), 4).entries == (4, 3, 2, 1)
        assert family_vector(ScoringFamily.borda(), 1).entries == (1,)

    def test_veto(self):
        assert family_vector(ScoringFamily.veto(), 4).entries == (1, 1, 1, 0)
        assert family_vector(ScoringFamily.veto(), 1).entries == (0,)

    def test_k_approval(self):
        fam = ScoringFamily.k_approval(2)
        assert family_vector(fam, 5).entries == (1, 1, 0, 0, 0)
        assert family_vector(fam, 2).entries == (1, 1)
        with pytest.raises(UnsupportedM):
            family_vector(fam, 1)

    def test_half_approval(self):
        fam = ScoringFamily.half_approval()
        assert family_vector(fam, 4).entries == (1, 1, 0, 0)
        assert family_vector(fam, 5).entries == (1, 1, 0, 0, 0)
        assert family_vector(fam, 1).entries == (0,)

    def test_constant(self):
        assert family_vector(ScoringFamily.constant(3), 3).entries == (3, 3, 3)

    def test_explicit(self):
        fam = ScoringFamily.explicit({3: SV((5, 1, 0)), 2: SV((1, 0))})
        assert family_vector(fam, 3).entries == (5, 1, 0)
        assert family_vector(fam, 2).entries == (1, 0)
        with pytest.raises(UnsupportedM):
            family_vector(fam, 4)

    def test_m_below_one_rejected(self):
        with pytest.raises(UnsupportedM):
            family_vector(ScoringFamily.plurality(), 0)

    @pytest.mark.parametrize("m", [2.5, 3.0, "3"])
    def test_non_integer_m_rejected(self, m):
        for family in (ScoringFamily.plurality(), ScoringFamily.k_approval(2)):
            with pytest.raises(UnsupportedM, match="must be an integer >= 1"):
                family_vector(family, m)

    @pytest.mark.parametrize("m", [2**64, 10**30, 2**63, 2**63 - 1])
    def test_m_past_tuple_size_rejected(self, m):
        # every kind fails before allocating: the count overflows the
        # tuple's index size, or (at 2**63 - 1, and for some kinds at
        # 2**63) asks for more memory than one allocation can get
        families = (
            ScoringFamily.plurality(),
            ScoringFamily.borda(),
            ScoringFamily.veto(),
            ScoringFamily.k_approval(2),
            ScoringFamily.half_approval(),
            ScoringFamily.constant(1),
        )
        for family in families:
            with pytest.raises(UnsupportedM, match=f"count {m} is too large"):
                family_vector(family, m)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            ScoringFamily("schulze")
        with pytest.raises(ValueError):
            ScoringFamily.k_approval(0)

    @pytest.mark.parametrize("k", [2.5, 3.0, "2"])
    def test_non_integer_parameters_rejected(self, k):
        # classify_family would put a 2.5-approval family's cutoff at m = 3.5
        with pytest.raises(ValueError, match=f"integer block size k >= 1, got {k!r}"):
            ScoringFamily.k_approval(k)
        with pytest.raises(ValueError, match=f"integer value, got {k!r}"):
            ScoringFamily.constant(k)

    @pytest.mark.parametrize(
        "vectors",
        [
            {3: SV((1, 0))},  # would be handed out as the m=3 vector
            {"3": SV((1, 0, 0))},  # would never be found for m=3
            {2: SV((1, 0)), "3": SV((1, 0, 0))},
            {3.0: SV((1, 0, 0))},
            {3: (1, 0, 0)},
        ],
    )
    def test_explicit_sizes_checked(self, vectors):
        with pytest.raises(ValueError, match="explicit famil"):
            ScoringFamily.explicit(vectors)

    def test_malformed_explicit_tables(self):
        shape = "map each candidate count to a scoring vector of that size, got "
        # a mapping is the likely slip, since only ScoringFamily.explicit takes one
        for table in ({3: SV((1, 1, 0))}, (5,), ((3,),), ((3, SV((1, 1, 0)), 0),), 5):
            with pytest.raises(ValueError, match=shape):
                ScoringFamily("explicit", table=table)
        for make in (lambda: ScoringFamily("explicit"), lambda: ScoringFamily.explicit({})):
            with pytest.raises(ValueError, match="explicit families need at least one vector"):
                make()

    def test_explicit_size_defined_once(self):
        with pytest.raises(ValueError, match="m=2 twice"):
            ScoringFamily("explicit", table=((2, SV((1, 0))), (2, SV((2, 0)))))

    @pytest.mark.parametrize(
        "kind,params",
        [
            # same vectors as ScoringFamily.plurality(), yet unequal to it
            ("plurality", {"k": 3}),
            # would silently give Borda's (3, 2, 1) at m=3
            ("borda", {"table": ((3, SV((1, 0, 0))),)}),
            ("veto", {"value": 0}),
            ("half-approval", {"k": 2}),
            ("k-approval", {"k": 2, "value": 1}),
            ("k-approval", {"k": 2, "table": ((2, SV((1, 0))),)}),
            ("constant", {"value": 1, "k": 1}),
            ("explicit", {"table": ((2, SV((1, 0))),), "value": 1}),
            ("plurality", {"table": ()}),
        ],
    )
    def test_parameters_of_other_kinds_rejected(self, kind, params):
        with pytest.raises(ValueError, match=f"{kind} families take no"):
            ScoringFamily(kind, **params)


class TestClassifyFamily:
    def test_easy_everywhere(self):
        assert classify_family(ScoringFamily.plurality()).always_easy
        assert classify_family(ScoringFamily.constant(7)).always_easy
        assert classify_family(ScoringFamily.k_approval(1)).always_easy

    def test_hard_cutoffs(self):
        assert classify_family(ScoringFamily.borda()).hard_from == 3
        assert classify_family(ScoringFamily.veto()).hard_from == 3
        assert classify_family(ScoringFamily.half_approval()).hard_from == 4
        fc = classify_family(ScoringFamily.k_approval(3))
        assert fc.hard_from == 4
        assert fc.min_m == 3

    def test_explicit_rejected(self):
        with pytest.raises(ExplicitFamilyUnsupported):
            classify_family(ScoringFamily.explicit({2: SV((1, 0))}))

    @pytest.mark.parametrize(
        "family",
        [
            ScoringFamily.plurality(),
            ScoringFamily.borda(),
            ScoringFamily.veto(),
            ScoringFamily.k_approval(1),
            ScoringFamily.k_approval(2),
            ScoringFamily.k_approval(3),
            ScoringFamily.half_approval(),
            ScoringFamily.constant(0),
            ScoringFamily.constant(4),
        ],
    )
    def test_cutoff_agrees_with_per_vector_classifier(self, family):
        fc = classify_family(family)
        for m in range(fc.min_m, 13):
            is_hard = classify(family_vector(family, m)).tag is RuleClass.HARD
            expected = fc.hard_from is not None and m >= fc.hard_from
            assert is_hard == expected, (family.kind, m)


def test_dichotomy_class_is_hashable():
    # results get stashed in sets/dicts by callers
    assert classify(SV((1, 0))) == DichotomyClass(RuleClass.PLURALITY_LIKE)
    assert len({classify(SV((1, 0))), classify(SV((2, 0)))}) == 1
    # a hard class is its gadget sizes, whatever the entries
    hard_00 = DichotomyClass(RuleClass.HARD, ell=0, r=0)
    assert classify(SV((4, 2, 0))) == classify(SV((2, 1, 0))) == hard_00
    assert classify(SV((4, 2, 0))) != classify(SV((2, 1, 0, 0)))
    assert classify(SV((4, 2, 0))) != classify(SV((2, 1, 1, 0)))


def test_profiles_reusable_across_vectors():
    # same ballots tallied under two family vectors of equal m
    votes = (WeightedVote(2, (3, 1, 2)),)
    assert tally(votes, family_vector(ScoringFamily.borda(), 3)) == {3: 6, 1: 4, 2: 2}
    assert tally(votes, family_vector(ScoringFamily.veto(), 3)) == {3: 2, 1: 2, 2: 0}
