"""Coalition-manipulation solvers: one exact search for every scoring vector.

Every answer comes from an exact, deterministic depth-first search over
the distinct score rows a coalition voter can cast, with a budget on
search terminals.  All-equal and plurality-like vectors give a single
p-first score row, so on them the search walks one path of coalition
voters, which is the polynomial side of the dichotomy; hard vectors give
several rows and the search prunes.  Instances checked themselves when
they were built, so the solvers do no validation of their own.  Every
"yes" answer carries a witness (one ballot per coalition voter) and is
checked before being returned: the witness ballots are cast and tallied,
added to the fixed voters' scores, and p must win on the sum.

A search is prepared once per instance and ``restrict_p_first`` setting,
then walked once per question.  The walks share the vector's class, the
shifted vector (the instance's own when it ends in 0), the fixed voters'
scores, tallied once under the instance's own vector, the row count, the
bound tables and the score rows with their weighted gains, each built
when a walk first picks it.  Each walk has its own budget, failed-state
table, picks and stats, and checks its own "yes".  :func:`brute_force`
prepares and walks once; ``reduction.verify_reduction`` walks one
preparation for both winner modes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import add
from typing import Iterator

from .core import ElectionError, ManipulationInstance, Order, tally, unique_winner, winners
from .dichotomy import RuleClass, classify, normalize_last_zero

DEFAULT_NODE_CAP = 10**7

# Entry cap of the search's failed-state table, which is emptied when full.
# A Borda m=5 state (level, p's score, four rival scores) takes about 270
# bytes with its set slot, so a full table holds about 9 MB.
FAILED_STATE_CAP = 1 << 15

# An answer's mode names its vector's class; hard vectors are "brute-force".
MODES = {
    RuleClass.ALL_EQUAL: "all-equal",
    RuleClass.PLURALITY_LIKE: "plurality-like",
    RuleClass.HARD: "brute-force",
}


class WrongClass(ElectionError):
    """A class-specific solver was handed a vector of another class."""


@dataclass(frozen=True)
class SearchStats:
    """How one search spent its budget, counted only at terminals.

    A terminal is a node the walk does not descend from.  ``leaves``
    counts evaluated leaves, where every coalition voter has a ballot
    (the winning leaf included).  ``monotone`` counts branches cut by the
    monotone bound: one rival already beats p's best reachable score.
    ``capacity`` counts branches cut by the capacity bound: the k
    highest-scoring rivals cannot absorb the points the voters still to
    vote must give them.  ``pairing`` counts last-voter branches cut
    because no ballot of that voter makes p win, and ``repeats`` branches
    cut because the failed-state table already holds their state.
    ``terminals`` is their sum, the number ``node_cap`` budgets.
    ``rows`` is the number of distinct score rows each coalition voter
    picks from, and ``deepest`` the most coalition voters that held a
    ballot at any node the walk reached.
    """

    rows: int
    leaves: int
    monotone: int
    capacity: int
    pairing: int
    repeats: int
    deepest: int

    @property
    def terminals(self) -> int:
        return self.leaves + self.monotone + self.capacity + self.pairing + self.repeats


class CapExhausted(ElectionError):
    """Answering would need more search terminals than the budget allows.

    Terminals are the evaluated leaves plus the cut branches of the
    search tree.  ``search_space`` is the number of leaves an unpruned
    search would visit: distinct score rows to the power of the
    coalition size.  The message writes it as ``rows^voters``, which
    stays printable however many digits the power has.  ``stats`` holds
    the terminals spent by cause when the budget ran out (leaves and
    monotone, capacity, pairing and repeat cuts), and in
    ``stats.deepest`` how many coalition voters the walk got to assign.
    """

    def __init__(self, node_cap: int, voters: int, stats: SearchStats):
        self.node_cap = node_cap
        self.search_space = stats.rows**voters
        self.stats = stats
        super().__init__(
            f"search needs more than {node_cap} terminals, counting leaf evaluations "
            f"and cut branches (search space has {stats.rows}^{voters} leaves; "
            f"deepest level reached {stats.deepest} of {voters})"
        )


@dataclass(frozen=True)
class ManipulationAnswer:
    """Decision plus, on yes, one witness ballot per coalition voter.

    ``stats`` says how the search reached the answer; it takes no part
    in comparing answers.
    """

    decision: bool
    witness: tuple[Order, ...] | None
    mode: str
    stats: SearchStats = field(compare=False)


def _row_ballots(entries: tuple[int, ...], m: int, p: int | None) -> Iterator[Order]:
    """The lexicographically first ballot of each distinct score row, in order.

    Ballots that differ only inside a run of equal vector entries give
    every candidate the same score; the first of them lists each run's
    candidates in increasing order.  With ``p`` set, p is pinned to the
    top and the runs start below it.  Choosing each run's candidates as
    a combination of the unused ones, runs left to right, yields exactly
    those ballots in lexicographic order, one at a time.
    """
    head: Order = (p,) if p is not None else ()
    runs = [len(tuple(run)) for _, run in itertools.groupby(entries[len(head):])]
    pool = [c for c in range(1, m + 1) if c != p]

    def extend(prefix: Order, left: list[int], i: int) -> Iterator[Order]:
        # recursion depth is the number of runs, and k runs already mean
        # at least k! ballots, so the depth stays far below any limit
        if i == len(runs):
            yield prefix
            return
        for block in itertools.combinations(left, runs[i]):
            yield from extend(prefix + block, [c for c in left if c not in block], i + 1)

    yield from extend(head, pool, 0)


def _row_count(entries: tuple[int, ...], pinned: bool) -> int:
    """How many ballots :func:`_row_ballots` gives, without building them.

    It is the multinomial count of the entries below a pinned top, or of
    all entries, taken as a product of binomials: each run of equal
    entries, left to right, chooses its candidates among those the runs
    before it left over.
    """
    free = entries[1:] if pinned else entries
    count, left = 1, len(free)
    for _, run in itertools.groupby(free):
        size = len(tuple(run))
        count *= math.comb(left, size)
        left -= size
    return count


def _ballot_row(ballot: Order, entries: tuple[int, ...]) -> list[int]:
    row = [0] * len(ballot)
    for position, candidate in enumerate(ballot):
        row[candidate - 1] = entries[position]
    return row


class _PreparedSearch:
    """One instance made ready for search, answered in either winner mode.

    Everything that does not depend on the winner mode or the budget is
    worked out once here: the vector's class, the vector shifted so its
    last entry is 0 (the vector itself when it ends in 0, as veto,
    k-approval and every gadget do), the fixed voters' tally under the
    instance's own vector (``fixed``, and ``base`` as a 0-based list), p's
    index, the number of distinct score rows, the per-voter bound tables
    and the row generator.  Only the rows' gains use the shifted entries.
    Against the shifted vector's tally, every candidate's fixed score
    carries the same offset, the last entry times the fixed voters' total
    weight.  The monotone, capacity and pairing tests compare sums with
    as many offsets on each side, and every failed-state key of a walk
    moves by that one offset, so the walk starting from the unshifted
    table makes exactly the decisions it would make from the shifted one.

    A generator runs nothing until drawn, so each row and its weighted
    gains are built the first time a walk picks it (a root the bounds cut
    builds none) and kept for later walks.  Each call of :meth:`answer` is
    its own walk, with its own budget, failed-state table, picks and
    stats, and checks its own "yes" against ``fixed``.
    """

    def __init__(self, inst: ManipulationInstance, restrict_p_first: bool):
        vec = inst.alpha
        dc = classify(vec)
        self.inst = inst
        self.mode = MODES[dc.tag]
        entries = self.entries = normalize_last_zero(vec).entries
        fixed = self.fixed = tally(inst.s_voters, vec)
        self.base = [fixed[c] for c in range(1, vec.m + 1)]
        self.p = inst.p - 1
        self.rows = _row_count(entries, restrict_p_first)
        weights = self.weights = list(inst.t_weights)
        n = len(weights)
        # entries are nonincreasing, so lower ascends: what the rivals share when p takes the top
        self.top = entries[0]
        self.lower = entries[:0:-1]
        # lows[k-1] = L_k.  The capacity and pairing tests run on hard vectors,
        # as classify reports them; an easy vector's tail is flat, so every
        # L_k is 0 and the monotone bound implies both tests
        self.lows = list(itertools.accumulate(self.lower))
        self.capacity_on = dc.tag is RuleClass.HARD
        slack = self.slack = [0] * (n + 1)  # the most p can still gain from voters i..n-1: top * R
        for i in range(n - 1, -1, -1):
            slack[i] = slack[i + 1] + weights[i] * self.top
        self.tabled = [
            self.rows > 1 and i < n - 1 and (i == 0 or weights[i] != weights[i - 1])
            for i in range(n)
        ]
        # the rows built so far and, per voter, what each gives p and the
        # rivals at that voter's weight; voters of equal weight share a pair
        self.ballots: list[Order] = []
        self.by_weight = {w: ([], []) for w in weights}
        self.gains = [self.by_weight[w] for w in weights]
        self.next_ballot = _row_ballots(entries, vec.m, inst.p if restrict_p_first else None)

    def _add_row(self) -> None:
        ballot = next(self.next_ballot)
        self.ballots.append(ballot)
        p = self.p
        row = _ballot_row(ballot, self.entries)
        rivals = row[:p] + row[p + 1:]
        for w, (gain_p, gain_rivals) in self.by_weight.items():
            gain_p.append(w * row[p])
            gain_rivals.append([w * x for x in rivals])

    def answer(self, unique: bool, node_cap: int) -> ManipulationAnswer:
        """Decide one winner mode within ``node_cap`` terminals; see :func:`brute_force`.

        A "yes" is checked before it is returned: the instance casts the
        witness ballots (rejecting any that is not a permutation), only
        those coalition votes are tallied under the instance's vector, and
        p must win on their scores plus the kept fixed-voter table.  The
        tally is exact and linear in the voters, so that sum is the whole
        profile's tally.
        """
        if not isinstance(node_cap, int) or node_cap < 0:
            raise ValueError(f"search budget node_cap must be an integer >= 0, got {node_cap!r}")
        witness, stats = self._walk(unique, node_cap)
        if witness is None:
            return ManipulationAnswer(False, None, self.mode, stats)
        # Soundness check on every yes: the witness must actually make p win.
        inst = self.inst
        cast = tally(inst.profile(witness)[len(inst.s_voters):], inst.alpha)
        table = {c: score + cast[c] for c, score in self.fixed.items()}
        won = unique_winner(table) == inst.p if unique else inst.p in winners(table)
        if not won:
            raise ElectionError("internal error: witness failed re-evaluation")
        return ManipulationAnswer(True, witness, self.mode, stats)

    def _walk(self, unique, node_cap):
        """First winning ballot per coalition voter (None if none), and stats.

        Each coalition voter picks one distinct score row, cast by its
        lexicographically first ballot (see :func:`_row_ballots`; p is
        pinned first under ``restrict_p_first``).  Voters are assigned left
        to right and each tries rows in order, so the first winning
        assignment reached is the lexicographically first one.  Row k is built the
        first time a voter picks it, and no voter picks it before one has
        picked row k-1, so the walk builds only the rows it reaches.  Every
        row is a permutation of ``entries``, so the bounds need only their
        sorted values and the row count, and a root cut builds no row.  Six
        cuts keep the witness:

        * monotone bound: shifted entries are >= 0, so rivals never lose
          points and p gains at most ``top`` times the weight R still to
          vote, reaching at most P (less 1 when ``unique``); a branch dies
          once a rival beats P, and a leaf is a win exactly when it is not
          cut;
        * capacity bound: each voter still to vote gives any k rivals k
          distinct positions, so they gain at least R times L_k, the sum of
          the k smallest shifted entries; a branch dies once, for some k in
          1..m-1, the k highest-scoring rivals have less room than that
          below P (k = 1 is the monotone bound, since L_1 = 0).  Every row
          is a permutation of the shifted vector and k < m, so the k
          smallest entries are the same with p pinned first or not;
        * last-voter pairing: with one voter of weight w left, moving p to
          the top of a winning ballot keeps it winning, and among p-first
          ballots, giving the rivals, highest score first, the m-1 smallest
          entries in ascending order leaves the highest final rival score as
          low as it can be (swapping two rivals' entries never lowers it);
          the branch dies when even that leaves a rival above P, so no row
          wins;
        * failed-state table: with voter i free to pick any row (i = 0 or
          its weight differs from voter i-1's), whether voters i..n-1 can
          still make p win depends only on i, p's score and the sorted rival
          scores, because the rows are closed under permuting the rivals.
          Each such node is recorded once every row under it has failed, and
          a later node with the same state is cut.  The table holds at most
          ``FAILED_STATE_CAP`` states and is emptied when full;
        * row dedup: each distinct score row is tried once;
        * equal-weight symmetry: voter i picks no earlier row than voter i-1
          when their weights are equal, since swapping their picks changes
          no score and only the nondecreasing order can come first.

        The capacity and pairing tests run on hard vectors, as classify
        reports them, the only ones with a shifted entry above 0 below the
        top, and the table only when there are several rows; the
        one-row walk of an easy vector runs none of them.  A free last voter
        that passes the pairing (or, with a flat tail, the monotone) test
        always wins, so the table skips the last level.

        The depth-first walk is iterative, so coalition size meets no
        recursion limit.  ``node_cap`` bounds terminals, the evaluated leaves
        plus cut branches; every internal node has a child, so it bounds the
        work.  Raises CapExhausted as soon as one more terminal than the
        budget would be needed, so an answer returned is always exact.
        """
        weights, base, p, nrows = self.weights, self.base, self.p, self.rows
        top, lower, lows, capacity_on = self.top, self.lower, self.lows, self.capacity_on
        slack, tabled = self.slack, self.tabled
        n = len(weights)
        ballots, gains = self.ballots, self.gains
        built = len(ballots)
        strict = 1 if unique else 0
        failed: set[tuple[int, ...]] = set()
        keys: list[tuple[int, ...] | None] = [None] * n  # the state of each tabled node on the path
        picks = [0] * n
        score_p = [base[p]] + [0] * n
        score_rivals = [base[:p] + base[p + 1:]] + [None] * n
        # cut terminals by cause: monotone, capacity, pairing, repeats
        cuts = [0, 0, 0, 0]
        terminals = deepest = 0
        level = 0
        while True:
            rivals = score_rivals[level]
            best = score_p[level] + slack[level] - strict
            cause = -1
            if rivals and max(rivals) > best:
                cause = 0
            elif level < n and (capacity_on or tabled[level]):
                ranked = sorted(rivals, reverse=True)
                if capacity_on:
                    # k * P - S_k >= R * L_k, with S_k the sum of the k highest
                    # scores, both sides times top so that top * R is the slack
                    room = slack[level]
                    for k, (taken, low) in enumerate(zip(itertools.accumulate(ranked), lows), 1):
                        if top * (k * best - taken) < room * low:
                            cause = 1
                            break
                    if cause < 0 and level == n - 1:
                        w = weights[level]
                        for score, entry in zip(ranked, lower):
                            if score + w * entry > best:
                                cause = 2
                                break
                if cause < 0 and tabled[level]:
                    key = (level, score_p[level], *ranked)
                    if key in failed:
                        cause = 3
                    else:
                        keys[level] = key
            if level < n and cause < 0:
                pick = picks[level - 1] if level and weights[level] == weights[level - 1] else 0
            else:
                if level > deepest:
                    deepest = level
                if terminals >= node_cap:
                    raise CapExhausted(node_cap, n, _stats(nrows, terminals, cuts, deepest))
                terminals += 1
                if cause < 0:
                    break
                if level < n:
                    cuts[cause] += 1
                level -= 1
                while level >= 0 and picks[level] == nrows - 1:
                    # every row under this node failed
                    if tabled[level]:
                        if len(failed) >= FAILED_STATE_CAP:
                            failed.clear()
                        failed.add(keys[level])
                    level -= 1
                if level < 0:
                    picks = None
                    break
                pick = picks[level] + 1
            if pick == built:
                self._add_row()
                built += 1
            picks[level] = pick
            gain_p, gain_rivals = gains[level]
            score_p[level + 1] = score_p[level] + gain_p[pick]
            score_rivals[level + 1] = list(map(add, score_rivals[level], gain_rivals[pick]))
            level += 1
        stats = _stats(nrows, terminals, cuts, deepest)
        if picks is None:
            return None, stats
        return tuple(ballots[i] for i in picks), stats


def _stats(rows, terminals, cuts, deepest):
    return SearchStats(rows, terminals - sum(cuts), *cuts, deepest)


def brute_force(
    inst: ManipulationInstance,
    unique: bool = False,
    node_cap: int = DEFAULT_NODE_CAP,
    *,
    restrict_p_first: bool = True,
) -> ManipulationAnswer:
    """Exact search over coalition ballot assignments.

    Each coalition voter picks one distinct score row, represented by its
    lexicographically first ballot (with the preferred candidate pinned
    first unless ``restrict_p_first`` is off).  Voters are assigned left
    to right and the first satisfying assignment in lexicographic ballot
    order wins, so answers and witnesses are reproducible.  A monotone
    score bound, a capacity bound on the highest-scoring rivals, an exact
    test of the last voter, a bounded table of failed states and an
    equal-weight symmetry cut prune branches that cannot hold that
    witness (see :meth:`_PreparedSearch._walk`).  Each row is built the
    first time the search picks it, so bounds that cut the empty
    assignment build none, and a first leaf that wins builds one.  The call
    prepares a search (class, shifted vector, one tally of the fixed
    voters, bound tables) and walks it once; callers asking both winner
    questions of one instance can share the preparation, as
    ``verify_reduction`` does, and get the same answers, witnesses and
    stats.  A "yes" is checked by tallying only the witness ballots and
    adding the fixed voters' kept scores, so the fixed voters are tallied
    once per call whatever the answer.

    ``node_cap`` budgets search-tree terminals: evaluated leaves plus cut
    branches.  It must be an integer >= 0, else ValueError is raised.
    Raises CapExhausted once answering would need more; any decision
    reached within the budget is exact.  The answer's ``mode`` names the
    vector's class (see :data:`MODES`), and its ``stats`` count the
    terminals by cause (see :class:`SearchStats`).
    """
    return _PreparedSearch(inst, restrict_p_first).answer(unique, node_cap)


def solve(
    inst: ManipulationInstance,
    unique: bool = False,
    node_cap: int = DEFAULT_NODE_CAP,
) -> ManipulationAnswer:
    """Decide manipulation for any vector with :func:`brute_force`.

    There is one search for every class.  All-equal and plurality-like
    vectors give a single p-first score row, so the search walks one path
    of coalition voters in polynomial time.  ``node_cap`` budgets the
    search on every class, so a cap of 0 raises CapExhausted on easy
    vectors too.  The answer's ``mode`` names the vector's class.
    """
    return brute_force(inst, unique, node_cap)


def solve_all_equal(inst: ManipulationInstance, unique: bool = False) -> ManipulationAnswer:
    """Decide manipulation for a vector whose entries are all equal.

    Scores cannot depend on how anyone votes, so all candidates always
    tie: p is always *a* winner, and the *unique* winner only in a
    one-candidate election.  The vector has one score row, which the
    search walks as a single path.  Raises WrongClass on other vectors.
    """
    if classify(inst.alpha).tag is not RuleClass.ALL_EQUAL:
        raise WrongClass("solver requires an all-equal scoring vector")
    return brute_force(inst, unique)


def solve_plurality_like(inst: ManipulationInstance, unique: bool = False) -> ManipulationAnswer:
    """Decide manipulation for a top-weighted vector with a flat tail.

    Positions below the top are interchangeable, so every p-first ballot
    casts the same score row and p wins exactly when the all-p-first
    profile makes it win.  The search walks that one row as a single
    path.  Raises WrongClass on other vectors.
    """
    if classify(inst.alpha).tag is not RuleClass.PLURALITY_LIKE:
        raise WrongClass("solver requires a plurality-like scoring vector")
    return brute_force(inst, unique)
