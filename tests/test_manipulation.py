import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from votemanip import (
    CandidateOutOfRange,
    CapExhausted,
    InvalidInstance,
    ManipulationInstance,
    RuleClass,
    ScoringFamily,
    ScoringVector,
    UnsupportedM,
    WeightedVote,
    WrongClass,
    brute_force,
    classify,
    instance_vector,
    normalize_p_first,
    solve,
    solve_all_equal,
    solve_plurality_like,
    tally,
    winners,
)
from votemanip.cli import parse_instance
from votemanip.manipulation import _row_ballots
from helpers import (
    product_oracle,
    random_instance,
    random_nonincreasing,
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
    def test_passthrough(self):
        assert instance_vector(VETO_11).entries == (1, 1, 0)

    def test_family_resolved_from_fixed_ballots(self):
        i = ManipulationInstance(ScoringFamily.borda(), (V(1, (2, 1, 3)),), (1,), 1)
        assert instance_vector(i).entries == (3, 2, 1)

    def test_family_without_fixed_voters_rejected(self):
        i = ManipulationInstance(ScoringFamily.borda(), (), (1,), 1)
        with pytest.raises(UnsupportedM):
            instance_vector(i)


class TestNormalizePFirst:
    def test_hoist(self):
        assert normalize_p_first([(2, 1, 3), (3, 2, 1)], 1) == ((1, 2, 3), (1, 3, 2))
        assert normalize_p_first([(1, 2, 3)], 1) == ((1, 2, 3),)
        assert normalize_p_first([], 2) == ()

    def test_never_hurts_p(self):
        rng = random.Random(11)
        for _ in range(120):
            i = random_instance(rng, SV(sorted(
                (rng.randint(0, 6) for _ in range(rng.randint(1, 5))), reverse=True)))
            vec = i.alpha
            raw = tuple(
                tuple(rng.sample(range(1, vec.m + 1), vec.m)) for _ in i.t_weights
            )
            hoisted = normalize_p_first(raw, i.p)
            before = tally(
                i.s_voters + tuple(V(w, o) for w, o in zip(i.t_weights, raw)), vec
            )
            after = tally(
                i.s_voters + tuple(V(w, o) for w, o in zip(i.t_weights, hoisted)), vec
            )
            assert after[i.p] >= before[i.p]
            for c in range(1, vec.m + 1):
                if c != i.p:
                    assert after[c] <= before[c]
            if i.p in winners(before):
                assert i.p in winners(after)


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
        # the class is checked before the instance is validated
        with pytest.raises(WrongClass):
            solve_all_equal(inst((1, 0), [(0, (1, 2))], (1,)))


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
                assert (len(_row_ballots(entries, m, p)) == 1) == easy, (entries, p)
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
        i = inst((2, 1, 0), [], (1,), p=5)
        with pytest.raises(CandidateOutOfRange):
            brute_force(i)

    @pytest.mark.parametrize(
        "bad",
        [
            inst((2, 1, 0), [(1, (2, 2, 2))], (1,)),  # fixed ballot not a permutation
            inst((2, 1, 0), [(1, (2, 3, 1))], (0,)),  # coalition weight 0
            inst((0, 1, 2), [(1, (2, 3, 1))], (1,)),  # increasing vector
        ],
    )
    def test_invalid_instance_rejected(self, bad):
        with pytest.raises(InvalidInstance):
            brute_force(bad)
        with pytest.raises(InvalidInstance):
            brute_force(bad, restrict_p_first=False)

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


class TestDifferentialOracle:
    """The pruned search against the unpruned product scan in helpers."""

    def test_decisions_and_witnesses_match_product_scan(self):
        rng = random.Random(2718)
        big = 2**64
        seen = {True: 0, False: 0}
        for trial in range(1200):
            restrict = trial % 2 == 0
            m = rng.randint(1, 5)
            per_voter = math.factorial(m - 1 if restrict else m)
            n_max = max(n for n in range(1, 5) if per_voter**n <= 1500)
            i = random_instance(
                rng,
                random_nonincreasing(rng, m, lo=-4, hi=4),
                max_voters=3,
                max_coalition=n_max,
                max_weight=9,
            )
            kind = trial // 2 % 4
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
            for unique in (False, True):
                want = product_oracle(i, unique, restrict)
                got = brute_force(i, unique, restrict_p_first=restrict)
                assert (got.decision, got.witness) == want, (i, unique, restrict)
                seen[want[0]] += 1
        assert min(seen.values()) > 400

    def test_big_weight_reduction_witness(self):
        w = 10**30
        i = inst((1, 1, 0), [(w, (2, 3, 1)), (w, (3, 2, 1))], (4 * w, 4 * w))
        ans = brute_force(i)
        assert ans.decision and ans.witness == ((1, 2, 3), (1, 3, 2))
        assert product_oracle(i) == (True, ans.witness)


class TestSolve:
    def test_routes_by_class(self):
        assert solve(inst((3, 3), [], (1,))).mode == "all-equal"
        assert solve(inst((1, 0), [], (1,))).mode == "plurality-like"
        assert solve(VETO_11).mode == "brute-force"

    def test_validates_first(self):
        bad = inst((1, 0), [(0, (1, 2))], (1,))
        with pytest.raises(InvalidInstance):
            solve(bad)
        # float weights would tally to float scores and answer "no" here
        with pytest.raises(InvalidInstance):
            solve(inst((1, 0), [(1.1, (2, 1)), (2.2, (2, 1))], (3.3,)))

    def test_easy_solvers_validate(self):
        with pytest.raises(InvalidInstance):
            solve_plurality_like(inst((1, 0), [(1, (1, 2))], (0,)))
        with pytest.raises(InvalidInstance):
            solve_all_equal(inst((3, 3), [(1, (1, 1))], (1,)))

    def test_family_instances_accepted(self):
        i = ManipulationInstance(
            ScoringFamily.veto(),
            (V(1, (2, 3, 1)), V(1, (3, 2, 1))),
            (4, 4),
            1,
        )
        ans = solve(i)
        assert ans.decision and ans.witness == ((1, 2, 3), (1, 3, 2))

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
