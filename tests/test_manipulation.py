import itertools
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

import votemanip.manipulation as manipulation
from votemanip import (
    CapExhausted,
    InvalidInstance,
    ManipulationInstance,
    RuleClass,
    ScoringFamily,
    ScoringVector,
    SearchStats,
    WeightedVote,
    WrongClass,
    brute_force,
    classify,
    family_vector,
    normalize_last_zero,
    solve,
    solve_all_equal,
    solve_plurality_like,
)
from votemanip.cli import parse_instance
from votemanip.manipulation import _row_ballots
from votemanip.reduction import (
    PartitionInstance,
    extract_witness,
    reduce_partition,
    solve_partition,
)
from helpers import (
    count_row_builds,
    count_tallied_ballots,
    count_vector_builds,
    product_oracle,
    random_instance,
    random_nonincreasing,
    random_order,
    random_plurality_like,
    small_instance_grid,
)

V = WeightedVote
SV = ScoringVector
DATA = Path(__file__).parent / "data"


def inst(alpha, s, t, p=1):
    return ManipulationInstance(SV(alpha), tuple(V(w, o) for w, o in s), tuple(t), p)


# the three-candidate instance produced by splitting (1, 1) under veto
VETO_11 = inst((1, 1, 0), [(1, (2, 3, 1)), (1, (3, 2, 1))], (4, 4))


class TestInstanceVector:
    def test_family_without_fixed_voters_rejected(self):
        # an instance holds only a vector; with no fixed ballot to fix m,
        # a family alpha is refused when the instance is built
        with pytest.raises(TypeError):
            ManipulationInstance(ScoringFamily.borda(), (), (1,), 1)


class TestAllEqual:
    def test_cowinner_always_yes(self):
        i = inst((4, 4, 4), [(9, (3, 2, 1))], (7,), p=2)
        ans = solve_all_equal(i)
        assert ans.decision and ans.mode == "all-equal"
        assert ans.witness == ((2, 1, 3),)

    def test_unique_impossible_beyond_one_candidate(self):
        i = inst((4, 4, 4), [(9, (3, 2, 1))], (7,), p=2)
        ans = solve_all_equal(i, unique=True)
        assert not ans.decision and ans.witness is None

    def test_unique_trivial_single_candidate(self):
        i = inst((5,), [], (3,), p=1)
        assert solve_all_equal(i, unique=True).decision
        assert solve_all_equal(i, unique=True).witness == ((1,),)

    def test_empty_coalition(self):
        i = inst((0, 0), [(2, (2, 1))], (), p=1)
        ans = solve_all_equal(i)
        assert ans.decision and ans.witness == ()

    def test_wrong_class(self):
        with pytest.raises(WrongClass):
            solve_all_equal(inst((1, 0), [], (1,)))
        # an invalid instance of the wrong class fails when it is built
        with pytest.raises(InvalidInstance):
            inst((1, 0), [(0, (1, 2))], (1,))


class TestPluralityLike:
    def test_yes_with_all_p_first_witness(self):
        i = inst((1, 0), [(3, (2, 1))], (2, 2))
        ans = solve_plurality_like(i)
        assert ans.decision and ans.witness == ((1, 2), (1, 2))
        assert ans.mode == "plurality-like"
        assert solve_plurality_like(i, unique=True).decision  # 4 > 3

    def test_no_when_even_best_effort_loses(self):
        i = inst((1, 0), [(3, (2, 1))], (2,))
        assert not solve_plurality_like(i).decision
        assert solve_plurality_like(i).witness is None

    def test_tie_splits_mp_from_ump(self):
        i = inst((1, 0), [(3, (2, 1))], (3,))
        assert solve_plurality_like(i).decision
        assert not solve_plurality_like(i, unique=True).decision

    def test_flat_tail_below_top(self):
        # tail positions are interchangeable, only the top slot matters
        i = inst((5, 2, 2, 2), [(1, (2, 3, 4, 1)), (1, (3, 4, 2, 1))], (1,), p=4)
        ans = solve_plurality_like(i)
        assert ans.decision
        assert ans.witness == ((4, 1, 2, 3),)

    def test_wrong_class(self):
        with pytest.raises(WrongClass):
            solve_plurality_like(inst((1, 1, 0), [], (1,)))
        with pytest.raises(WrongClass):
            solve_plurality_like(inst((2, 2), [], (1,)))


class TestEasyPath:
    """Easy vectors give one p-first score row, so the search walks one path."""

    def test_one_row_exactly_when_easy(self):
        rng = random.Random(5)
        seen = {True: 0, False: 0}
        for trial in range(200):
            m = rng.randint(1, 8)
            entries = random_nonincreasing(rng, m, lo=-3, hi=3).entries
            if trial % 2:  # flatten the tail: all-equal or plurality-like
                entries = entries[:1] + entries[-1:] * (m - 1)
            easy = classify(SV(entries)).tag is not RuleClass.HARD
            for p in range(1, m + 1):
                assert (len(list(_row_ballots(entries, m, p))) == 1) == easy, (entries, p)
            seen[easy] += 1
        assert min(seen.values()) > 60

    def test_large_coalition_is_one_terminal(self):
        # 3000 unit-weight coalition voters lift p to 6000 against 2 * fixed
        # for each rival; the single path is decided within one terminal
        for fixed, won in ((2999, True), (3000, False)):
            i = inst((2, 0, 0), [(fixed, (2, 3, 1)), (fixed, (3, 2, 1))], (1,) * 3000)
            ans = solve(i, unique=True, node_cap=1)
            assert (ans.decision, ans.mode) == (won, "plurality-like")
            assert ans.witness == (((1, 2, 3),) * 3000 if won else None)

    def test_cap_applies_to_easy_classes(self):
        for name in ("plurality_race.txt", "all_equal_m3.txt"):
            i = parse_instance((DATA / name).read_text())
            with pytest.raises(CapExhausted):
                solve(i, node_cap=0)
            assert solve(i, node_cap=1).decision

    def test_brute_force_reports_class_as_mode(self):
        assert brute_force(inst((3, 3), [], (1,))).mode == "all-equal"
        assert brute_force(inst((1, 0), [], (1,))).mode == "plurality-like"
        assert brute_force(inst((1, 0), [], (1,)), restrict_p_first=False).mode == "plurality-like"


class TestBruteForce:
    def test_veto_partition_yes(self):
        for unique in (False, True):
            ans = brute_force(VETO_11, unique=unique)
            assert ans.decision and ans.mode == "brute-force"
            # first satisfying assignment in lexicographic p-first order
            assert ans.witness == ((1, 2, 3), (1, 3, 2))

    def test_veto_partition_no(self):
        # splitting (1, 1, 4) is impossible, and so is the manipulation
        i = inst((1, 1, 0), [(5, (2, 3, 1)), (5, (3, 2, 1))], (4, 4, 16))
        assert not brute_force(i).decision
        assert not brute_force(i, unique=True).decision

    def test_witness_is_first_in_enumeration_order(self):
        # both coalition ballots free: (p,2,3)x(p,2,3) fails, next leaf wins
        ans = brute_force(VETO_11)
        assert ans.witness == ((1, 2, 3), (1, 3, 2))

    def test_cap_exhausted_only_when_undecided(self):
        with pytest.raises(CapExhausted) as err:
            brute_force(VETO_11, node_cap=1)
        assert err.value.node_cap == 1
        assert err.value.search_space == 4  # 2 p-first ballots, 2 voters
        # the witness is leaf 2, so a budget of 2 suffices
        assert brute_force(VETO_11, node_cap=2).decision

    @pytest.mark.parametrize("node_cap", [-1, -5, 1.5, None])
    def test_budget_not_a_count_rejected(self, node_cap):
        # a budget counts terminals, so anything else is a usage error, not CapExhausted
        with pytest.raises(ValueError, match="node_cap must be an integer >= 0"):
            brute_force(VETO_11, node_cap=node_cap)
        with pytest.raises(ValueError, match="node_cap must be an integer >= 0"):
            solve(VETO_11, unique=True, node_cap=node_cap)

    def test_cap_equal_to_space_gives_clean_no(self):
        # p can reach 1 against 5 for both rivals: the bound cuts the root,
        # so one terminal decides what the 2-leaf space would
        i = inst((1, 1, 0), [(5, (2, 3, 1))], (1,))
        assert not brute_force(i, node_cap=2).decision
        assert not brute_force(i, node_cap=1).decision
        with pytest.raises(CapExhausted) as err:
            brute_force(i, node_cap=0)
        assert err.value.search_space == 2

    def test_cap_exhausted_on_space_too_long_to_print(self):
        # 6 rows ^ 6000 voters has 4669 digits, past int-to-str's default limit
        i = inst((3, 2, 1, 0), [(10**9, (2, 3, 4, 1))], (1,) * 6000)
        with pytest.raises(CapExhausted) as err:
            brute_force(i, node_cap=0)
        assert err.value.search_space == 6**6000
        assert "search space has 6^6000 leaves" in str(err.value)

    def test_empty_coalition_is_one_leaf(self):
        i = inst((1, 1, 0), [(1, (1, 2, 3))], ())
        ans = brute_force(i, node_cap=1)
        assert ans.decision and ans.witness == ()  # p ties with candidate 2
        assert not brute_force(i, unique=True).decision
        with pytest.raises(CapExhausted):
            brute_force(i, node_cap=0)

    def test_p_out_of_range(self):
        # refused when the instance is built, so no search ever sees it
        with pytest.raises(InvalidInstance) as err:
            inst((2, 1, 0), [], (1,), p=5)
        assert [i.code for i in err.value.issues] == ["CandidateOutOfRange"]

    @pytest.mark.parametrize(
        "bad",
        [
            ((2, 1, 0), [(1, (2, 2, 2))], (1,)),  # fixed ballot not a permutation
            ((2, 1, 0), [(1, (2, 3, 1))], (0,)),  # coalition weight 0
            ((2, 1, 0), [(1.5, (2, 3, 1))], (1,)),  # non-integer fixed weight
        ],
    )
    def test_invalid_instance_rejected(self, bad):
        # an invalid instance cannot be built, so no solver is ever handed one
        with pytest.raises(InvalidInstance):
            inst(*bad)

    def test_deep_coalition_is_iterative(self):
        # 3000 equal-weight voters, far past the recursion limit; the bound
        # and the symmetry cut settle it within two terminals
        i = inst((2, 1, 0), [(2999, (2, 3, 1))], (1,) * 3000)
        ans = brute_force(i, unique=True, node_cap=2)
        assert ans.decision and ans.witness == ((1, 2, 3),) + ((1, 3, 2),) * 2999

    def test_unique_implies_cowinner(self):
        rng = random.Random(7)
        for _ in range(60):
            i = random_instance(
                rng, SV((rng.randint(2, 3), 1, 0)), max_voters=3, max_weight=6
            )
            if brute_force(i, unique=True).decision:
                assert brute_force(i).decision

    def test_p_first_restriction_loses_nothing(self):
        rng = random.Random(19)
        for _ in range(40):
            i = random_instance(rng, SV((2, 1, 0)), max_voters=2, max_coalition=2, max_weight=5)
            for unique in (False, True):
                a = brute_force(i, unique=unique)
                b = brute_force(i, unique=unique, restrict_p_first=False)
                assert a.decision == b.decision, i

    def test_determinism(self):
        answers = {brute_force(VETO_11).witness for _ in range(5)}
        assert len(answers) == 1


def close_rivals(rng, i, n):
    """``i`` with n coalition voters and fixed voters that put p last and
    leave every rival close below p's best reachable score."""
    m, p = i.alpha.m, i.p
    shifted = [x - i.alpha.entries[-1] for x in i.alpha.entries]
    t_weights = tuple(rng.randint(1, 9) for _ in range(n))
    rivals = [c for c in range(1, m + 1) if c != p]
    # each rival takes every one of the top m-1 positions once
    per_rival = sum(shifted[: m - 1]) or 1
    w = max(1, shifted[0] * sum(t_weights) * rng.randint(70, 100) // (100 * per_rival))
    rotations = tuple(V(w, tuple(rivals[j:] + rivals[:j]) + (p,)) for j in range(m - 1))
    return replace(i, s_voters=rotations + i.s_voters, t_weights=t_weights)


def partition_runs(rng, alpha, n):
    """The partition gadget over ``alpha`` for n integers 1..9 that come in
    runs of equal values, so its coalition weights do too."""
    while classify(alpha).tag is not RuleClass.HARD:
        alpha = random_nonincreasing(rng, alpha.m, lo=-4, hi=4)
    ks = [rng.randint(1, 9)]
    while len(ks) < n:
        ks.append(ks[-1] if rng.random() < 0.5 else rng.randint(1, 9))
    ks[-1] += sum(ks) % 2
    return reduce_partition(alpha, PartitionInstance(tuple(ks))).instance


class TestDifferentialOracle:
    """The pruned search against the unpruned product scan in helpers."""

    def test_decisions_and_witnesses_match_product_scan(self):
        rng = random.Random(2718)
        big = 2**64
        seen = {True: 0, False: 0}
        close_trials = close_cut = 0
        runs_trials = runs_pairing = runs_repeats = 0
        for trial in range(1800):
            restrict = trial % 2 == 0
            kind = trial // 2 % 6
            m = rng.randint(3, 5) if kind == 4 else rng.randint(3, 4) if kind == 5 else rng.randint(1, 5)
            per_voter = math.factorial(m - 1 if restrict else m)
            n_max = max(n for n in range(1, 11 if kind == 5 else 5) if per_voter**n <= 1500)
            i = random_instance(
                rng,
                random_nonincreasing(rng, m, lo=-4, hi=4),
                max_voters=3,
                max_coalition=n_max,
                max_weight=9,
            )
            if kind == 1:  # empty coalition
                i = replace(i, t_weights=())
            elif kind == 2:  # equal-weight coalition
                i = replace(i, t_weights=(i.t_weights[0],) * n_max)
            elif kind == 3:  # weights above 2^64
                i = replace(
                    i,
                    s_voters=tuple(V(v.weight * big + rng.randrange(big), v.order) for v in i.s_voters),
                    t_weights=tuple(w * big + rng.randrange(big) for w in i.t_weights),
                )
            elif kind == 4:  # a heavy coalition against several close rivals
                i = close_rivals(rng, i, n_max)
            elif kind == 5:  # a partition gadget, its coalition weights in runs
                i = partition_runs(rng, i.alpha, n_max)
            for unique in (False, True):
                want = product_oracle(i, unique, restrict)
                got = brute_force(i, unique, restrict_p_first=restrict)
                assert (got.decision, got.witness) == want, (i, unique, restrict)
                seen[want[0]] += 1
                if kind == 4:
                    close_trials += 1
                    close_cut += got.stats.capacity > 0
                elif kind == 5:
                    runs_trials += 1
                    runs_pairing += got.stats.pairing > 0
                    runs_repeats += got.stats.repeats > 0
        assert min(seen.values()) > 400
        # every bound must be exercised, not only kept out of the way
        assert close_cut >= close_trials // 4
        assert runs_pairing >= runs_trials // 4
        assert runs_repeats >= runs_trials // 10

    def test_big_weight_reduction_witness(self):
        w = 10**30
        i = inst((1, 1, 0), [(w, (2, 3, 1)), (w, (3, 2, 1))], (4 * w, 4 * w))
        ans = brute_force(i)
        assert ans.decision and ans.witness == ((1, 2, 3), (1, 3, 2))
        assert product_oracle(i) == (True, ans.witness)


# A Borda m=5 gadget over 8 integers: without the capacity bound its
# search needs more than 500000 terminals, with it about a hundred
BORDA_8 = PartitionInstance((38, 20, 57, 2, 14, 12, 26, 55))


class TestCapacityBound:
    def test_reduction_decided_within_few_terminals(self):
        art = reduce_partition(SV((4, 3, 2, 1, 0)), BORDA_8)
        half = sum(BORDA_8.ks) // 2
        for unique in (False, True):
            ans = brute_force(art.instance, unique, node_cap=500000)
            assert ans.decision == (solve_partition(BORDA_8) is not None)
            assert sum(BORDA_8.ks[k - 1] for k in extract_witness(art, ans.witness)) == half
            assert ans.stats.capacity > 0
            assert ans.stats.terminals < 1000

    def test_stats_count_terminals_by_cause(self):
        def counts(ans):
            s = ans.stats
            return s.rows, s.leaves, s.monotone, s.capacity, s.deepest

        # rivals at 5 and 5, p reaches 8: the 8 points the coalition must
        # give the rivals overfill the room of 3 + 3 they have below p
        assert counts(brute_force(inst((1, 1, 0), [(5, (2, 3, 1))], (4, 4)))) == (2, 0, 0, 1, 0)
        # p reaches only 1: one rival already beats it
        assert counts(brute_force(inst((1, 1, 0), [(5, (2, 3, 1))], (1,)))) == (2, 0, 1, 0, 0)
        # the first leaf loses, the second wins
        assert counts(brute_force(VETO_11)) == (2, 2, 0, 0, 2)
        # the one-row walk of an easy vector
        assert counts(solve(inst((2, 0, 0), [(5, (2, 3, 1))], (1,) * 6))) == (1, 1, 0, 0, 6)

    def test_cap_exhausted_reports_progress(self):
        art = reduce_partition(SV((4, 3, 2, 1, 0)), BORDA_8)
        with pytest.raises(CapExhausted) as err:
            brute_force(art.instance, node_cap=50)
        stats = err.value.stats
        assert stats.terminals == 50 and stats.rows == 24
        assert 0 < stats.deepest <= 8
        assert f"deepest level reached {stats.deepest} of 8" in str(err.value)

    def test_stats_take_no_part_in_equality(self):
        ans = brute_force(VETO_11)
        assert ans == replace(ans, stats=replace(ans.stats, leaves=7))


# A Borda m=5 gadget over 10 integers with no equal split: with only the
# monotone and capacity bounds its search needs more than 500000
# terminals in either winner mode, with the last-voter test and the
# failed-state table about 107000
BORDA_10 = PartitionInstance((182, 45, 18, 119, 191, 63, 173, 128, 56, 115))


class TestLastVoterAndFailedStates:
    def test_reduction_decided_within_budget(self):
        art = reduce_partition(SV((4, 3, 2, 1, 0)), BORDA_10)
        assert solve_partition(BORDA_10) is None
        for unique in (False, True):
            ans = brute_force(art.instance, unique, node_cap=500000)
            assert not ans.decision
            assert ans.stats.pairing > 0 and ans.stats.repeats > 0
            assert ans.stats.terminals < 200000

    @pytest.mark.parametrize("cap", [1, 2])
    def test_table_cleared_when_full(self, monkeypatch, cap):
        # a table of one or two states is emptied on nearly every record;
        # hits must still come only from states that failed
        monkeypatch.setattr(manipulation, "FAILED_STATE_CAP", cap)
        rng = random.Random(cap)
        hits = 0
        for trial in range(120):
            restrict = trial % 2 == 0
            m = rng.randint(3, 4)
            per_voter = math.factorial(m - 1 if restrict else m)
            n = max(n for n in range(1, 11) if per_voter**n <= 1500)
            i = partition_runs(rng, random_nonincreasing(rng, m, lo=-4, hi=4), n)
            for unique in (False, True):
                got = brute_force(i, unique, restrict_p_first=restrict)
                assert (got.decision, got.witness) == product_oracle(i, unique, restrict)
                hits += got.stats.repeats > 0
        assert hits > 0

    def test_hits_count_against_the_budget(self):
        rng = random.Random(3)
        i = partition_runs(rng, SV((2, 1, 0)), 10)
        while not brute_force(i).stats.repeats:
            i = partition_runs(rng, SV((2, 1, 0)), 10)
        spent = brute_force(i).stats.terminals
        assert brute_force(i, node_cap=spent) == brute_force(i)
        with pytest.raises(CapExhausted):
            brute_force(i, node_cap=spent - 1)


class TestRootCut:
    """A root the bounds already cut is answered without building a row."""

    def test_cut_root_builds_no_rows(self, monkeypatch):
        # one weight-1 coalition voter against a weight-1000 fixed voter
        # under Borda m=10: p reaches 9 at most, a rival already holds 9000
        m = 10
        i = inst(tuple(range(m, 0, -1)), [(1000, tuple(range(2, m + 1)) + (1,))], (1,))

        def refuse(*args):
            raise AssertionError("score rows built for a root the bounds cut")
            yield  # a generator: only drawing a row fails

        monkeypatch.setattr(manipulation, "_row_ballots", refuse)
        for restrict, rows in ((True, math.factorial(m - 1)), (False, math.factorial(m))):
            for unique in (False, True):
                ans = brute_force(i, unique, restrict_p_first=restrict)
                assert (ans.decision, ans.witness) == (False, None)
                assert ans.stats == SearchStats(rows, 0, 1, 0, 0, 0, 0)
        # the root is tested and counted once: a budget of one terminal suffices
        assert brute_force(i, node_cap=1).stats.terminals == 1
        with pytest.raises(CapExhausted) as err:
            brute_force(i, node_cap=0)
        assert err.value.stats == SearchStats(math.factorial(m - 1), 0, 0, 0, 0, 0, 0)

    def test_row_count_without_building(self):
        rng = random.Random(10)
        for _ in range(150):
            m = rng.randint(1, 7)
            entries = random_nonincreasing(rng, m, lo=0, hi=3).entries
            for p in (None, *range(1, m + 1)):
                built = list(_row_ballots(entries, m, p))
                assert manipulation._row_count(entries, p is not None) == len(built)


def multinomial(entries, pinned):
    """The row count as a factorial over the factorials of the run lengths."""
    free = entries[1:] if pinned else entries
    count = math.factorial(len(free))
    for size in (len(list(run)) for _, run in itertools.groupby(free)):
        count //= math.factorial(size)
    return count


class TestRowCount:
    def test_matches_factorial_formula(self):
        rng = random.Random(60)
        for _ in range(300):
            # m entries in up to 13 runs of equal entries
            m = rng.randint(1, 60)
            cuts = sorted(rng.sample(range(1, m), rng.randint(0, min(m - 1, 12))))
            sizes = [b - a for a, b in zip([0, *cuts], [*cuts, m])]
            entries = tuple(len(sizes) - r for r, size in enumerate(sizes) for _ in range(size))
            for pinned in (False, True):
                assert manipulation._row_count(entries, pinned) == multinomial(entries, pinned)

    @pytest.mark.parametrize(
        "family", [ScoringFamily.plurality(), ScoringFamily.veto()], ids=["plurality", "veto"]
    )
    def test_long_runs(self, family):
        entries = family_vector(family, 20000).entries
        for pinned in (False, True):
            assert manipulation._row_count(entries, pinned) == multinomial(entries, pinned)


class TestRowBallots:
    def test_first_ballot_of_each_row(self):
        # the oracle scans every ballot in lexicographic order (p-first ones
        # only when p is pinned) and keeps the first of each distinct score row
        def first_ballots(entries, m, p):
            firsts = {}
            for ballot in itertools.permutations(range(1, m + 1)):
                if p is None or ballot[0] == p:
                    row = tuple(entries[ballot.index(c)] for c in range(1, m + 1))
                    firsts.setdefault(row, ballot)
            return sorted(firsts.values())

        rng = random.Random(11)
        negative = runs = 0
        for _ in range(60):
            m = rng.randint(1, 6)
            entries = random_nonincreasing(rng, m, lo=-3, hi=3).entries
            negative += min(entries) < 0
            runs += len(set(entries)) < m
            for p in (None, *range(1, m + 1)):
                got = list(_row_ballots(entries, m, p))
                assert got == first_ballots(entries, m, p), (entries, p)
        assert negative > 20 and runs > 20


class TestRowBudget:
    """The budget bounds the rows built as well as the terminals spent."""

    def test_no_budget_builds_one_row(self, monkeypatch):
        # Borda m=10 and two unit coalition voters with p first win at the
        # first leaf; a budget of 0 stops there, having picked only row 0
        m = 10
        i = inst(tuple(range(m, 0, -1)), [], (1, 1))
        drawn = count_row_builds(monkeypatch)
        with pytest.raises(CapExhausted) as err:
            brute_force(i, False, 0)
        assert err.value.stats == SearchStats(math.factorial(m - 1), 0, 0, 0, 0, 0, 2)
        assert [len(ballots) for ballots in drawn] == [1]

    @pytest.mark.parametrize("m", [9, 12])
    def test_first_leaf_builds_one_row(self, monkeypatch, m):
        # the same election under the default budget wins at its first leaf,
        # so the walk builds the one row it picked, not the 8! or 11! rows
        i = inst(tuple(range(m, 0, -1)), [], (1, 1))
        drawn = count_row_builds(monkeypatch)
        got = brute_force(i, False, manipulation.DEFAULT_NODE_CAP)
        assert got.decision and got.stats.terminals == 1
        assert got.witness == (tuple(range(1, m + 1)),) * 2
        assert [len(ballots) for ballots in drawn] == [1]


class TestPreparedSearch:
    """Each search prepares the vector it walks once, before its walk; a
    vector whose last entry is already 0 is walked as it is."""

    @pytest.mark.parametrize("restrict", [True, False])
    def test_vector_ending_in_zero_is_searched_uncopied(self, monkeypatch, restrict):
        # veto's last entry is already 0, so the search shifts nothing
        i = inst((1, 1, 1, 0), [(3, (2, 3, 4, 1)), (1, (4, 3, 1, 2))], (2, 1, 1))
        built = count_vector_builds(monkeypatch)
        for unique in (False, True):
            assert brute_force(i, unique, restrict_p_first=restrict).mode == "brute-force"
        assert built == []


class TestFixedVotersTalliedOnce:
    """The fixed voters are tallied once per search, under the instance's
    own vector; a yes adds a tally of only the coalition's ballots."""

    def test_yes_tallies_fixed_voters_once(self, monkeypatch):
        rng = random.Random(19)
        fixed = tuple(V(rng.randint(1, 9), random_order(rng, 4)) for _ in range(40))
        yes = ManipulationInstance(SV((5, 3, 2, 1)), fixed, (90, 90, 90), 2)
        no = replace(yes, t_weights=(1, 1))
        counts = count_tallied_ballots(monkeypatch)
        for unique in (False, True):
            for restrict in (True, False):
                assert brute_force(yes, unique, restrict_p_first=restrict).decision
                assert counts == [40, 3]  # F + n ballots, where a full re-tally read 2F + n
                counts.clear()
                assert not brute_force(no, unique, restrict_p_first=restrict).decision
                assert counts == [40]
                counts.clear()

    @pytest.mark.parametrize("restrict", [True, False])
    def test_search_decides_as_on_the_shifted_vector(self, restrict):
        # the walk starts from the fixed voters' unshifted scores, which
        # differ from the shifted ones by the same amount for every candidate
        rng = random.Random(20)
        fixed_vectors = ((5, 4, 3, 2, 1), (3, 1, 1), (2, 2, 1, 1), (-1, -2, -4), (0, -3, -3, -5))
        cut = capped = 0
        for trial in range(500):
            if trial % 2:
                alpha = SV(fixed_vectors[trial // 2 % len(fixed_vectors)])
            else:
                alpha = random_nonincreasing(rng, rng.randint(2, 5), lo=-6, hi=6)
                while alpha.entries[-1] == 0:
                    alpha = random_nonincreasing(rng, alpha.m, lo=-6, hi=6)
            i = random_instance(rng, alpha, max_voters=4, max_coalition=4, max_weight=9)
            if trial % 3 == 0:  # heavy fixed voters: a large offset, and cuts that fire
                i = close_rivals(rng, i, rng.randint(1, 4))
            shifted = replace(i, alpha=normalize_last_zero(i.alpha))
            assert shifted.alpha.entries[-1] == 0 != i.alpha.entries[-1]
            for unique in (False, True):
                got = brute_force(i, unique, restrict_p_first=restrict)
                want = brute_force(shifted, unique, restrict_p_first=restrict)
                assert (got, got.stats) == (want, want.stats), (i, unique)
                cut += got.stats.terminals > got.stats.leaves
                if got.stats.terminals > 1:
                    budget = rng.randrange(got.stats.terminals)
                    with pytest.raises(CapExhausted) as a:
                        brute_force(i, unique, budget, restrict_p_first=restrict)
                    with pytest.raises(CapExhausted) as b:
                        brute_force(shifted, unique, budget, restrict_p_first=restrict)
                    assert (str(a.value), a.value.stats) == (str(b.value), b.value.stats)
                    capped += 1
        assert cut >= 100 and capped >= 100


class TestSolve:
    def test_routes_by_class(self):
        assert solve(inst((3, 3), [], (1,))).mode == "all-equal"
        assert solve(inst((1, 0), [], (1,))).mode == "plurality-like"
        assert solve(VETO_11).mode == "brute-force"

    def test_validates_first(self):
        # every instance a solver is handed was checked when it was built
        with pytest.raises(InvalidInstance):
            inst((1, 0), [(0, (1, 2))], (1,))
        # float weights would tally to float scores and answer "no" here
        with pytest.raises(InvalidInstance):
            inst((1, 0), [(1.1, (2, 1)), (2.2, (2, 1))], (3.3,))

    def test_easy_solvers_validate(self):
        with pytest.raises(InvalidInstance):
            inst((1, 0), [(1, (1, 2))], (0,))
        with pytest.raises(InvalidInstance):
            inst((3, 3), [(1, (1, 1))], (1,))

    def test_matches_specialized_solvers_on_easy_classes(self):
        # the class solvers against the unpruned product scan
        rng = random.Random(41)
        for trial in range(300):
            if trial % 2:
                alpha, solver = random_plurality_like(rng), solve_plurality_like
            else:
                m, k = rng.randint(1, 4), rng.randint(-3, 5)
                alpha, solver = SV((k,) * m), solve_all_equal
            i = random_instance(rng, alpha, max_voters=3, max_coalition=3, max_weight=20)
            for unique in (False, True):
                got = solver(i, unique)
                assert (got.decision, got.witness) == product_oracle(i, unique), (i, unique)

    def test_grid_against_unrestricted_search(self):
        # small exhaustive grid, every class, both decision problems
        checked = 0
        for i in small_instance_grid():
            if checked % 7 == 0:  # keep runtime modest, grid is dense
                for unique in (False, True):
                    routed = solve(i, unique)
                    free = brute_force(i, unique, restrict_p_first=False)
                    assert routed.decision == free.decision, (i, unique)
            checked += 1
        assert checked > 1000
