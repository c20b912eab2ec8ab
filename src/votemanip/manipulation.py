"""Coalition-manipulation solvers: one exact search for every scoring vector.

Every answer comes from an exact, deterministic depth-first search over
the distinct score rows a coalition voter can cast, with a budget on
search terminals.  All-equal and plurality-like vectors give a single
p-first score row, so on them the search walks one path of coalition
voters, which is the polynomial side of the dichotomy; hard vectors give
several rows and the search prunes.  Every public solver validates its
instance first.  Every "yes" answer carries a witness (one ballot per
coalition voter) and is re-evaluated before being returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from operator import add
from typing import Iterable

from .core import (
    CandidateOutOfRange,
    ElectionError,
    ManipulationInstance,
    Order,
    ScoringVector,
    require_valid,
    tally,
    unique_winner,
    winners,
)
from .dichotomy import RuleClass, classify, family_vector, normalize_last_zero

DEFAULT_NODE_CAP = 10**7

# An answer's mode names its vector's class; hard vectors are "brute-force".
MODES = {
    RuleClass.ALL_EQUAL: "all-equal",
    RuleClass.PLURALITY_LIKE: "plurality-like",
    RuleClass.HARD: "brute-force",
}


class WrongClass(ElectionError):
    """A class-specific solver was handed a vector of another class."""


class CapExhausted(ElectionError):
    """Answering would need more search terminals than the budget allows.

    Terminals are the evaluated leaves plus the cut branches of the
    search tree.  ``search_space`` is the number of leaves an unpruned
    search would visit: distinct score rows to the power of the
    coalition size.  The message writes it as ``rows^voters``, which
    stays printable however many digits the power has.
    """

    def __init__(self, node_cap: int, rows: int, voters: int):
        self.node_cap = node_cap
        self.search_space = rows**voters
        super().__init__(
            f"search needs more than {node_cap} terminals, counting leaf evaluations "
            f"and cut branches (search space has {rows}^{voters} leaves)"
        )


@dataclass(frozen=True)
class ManipulationAnswer:
    """Decision plus, on yes, one witness ballot per coalition voter."""

    decision: bool
    witness: tuple[Order, ...] | None
    mode: str


def instance_vector(inst: ManipulationInstance) -> ScoringVector:
    """The instance's scoring vector, generated from its family if needed.

    Family-based instances take their candidate count from the fixed
    ballots; with no fixed voters there is nothing to infer from, which
    raises UnsupportedM.
    """
    if isinstance(inst.alpha, ScoringVector):
        return inst.alpha
    if not inst.s_voters:
        from .dichotomy import UnsupportedM

        raise UnsupportedM("family-based instance with no fixed voters: candidate count unknown")
    return family_vector(inst.alpha, len(inst.s_voters[0].order))


def _validated(inst: ManipulationInstance) -> tuple[ManipulationInstance, ScoringVector]:
    """The instance with its family resolved to a vector, once it is valid.

    An out-of-range preferred candidate raises CandidateOutOfRange; any
    other violation raises InvalidInstance listing every issue.
    """
    vec = instance_vector(inst)
    if inst.alpha is not vec:
        inst = replace(inst, alpha=vec)
    if not isinstance(inst.p, int) or not 1 <= inst.p <= vec.m:
        raise CandidateOutOfRange(f"preferred candidate {inst.p!r} outside 1..{vec.m}")
    require_valid(inst)
    return inst, vec


def normalize_p_first(orders: Iterable[Order], p: int) -> tuple[Order, ...]:
    """Hoist ``p`` to the top of every ballot, keeping the others' relative order.

    Under any nonincreasing vector this never lowers p's score and never
    raises anyone else's, so profiles where p wins stay winning.
    """
    return tuple((p,) + tuple(c for c in order if c != p) for order in orders)


def _row_ballots(entries: tuple[int, ...], m: int, p: int | None) -> list[Order]:
    """The lexicographically first ballot of each distinct score row, in order.

    Ballots that differ only inside a run of equal vector entries give
    every candidate the same score; the first of them lists each run's
    candidates in increasing order.  With ``p`` set, p is pinned to the
    top and the runs start below it.  Choosing each run's candidates as
    a combination of the unused ones, runs left to right, yields exactly
    those ballots in lexicographic order.
    """
    head: Order = (p,) if p is not None else ()
    runs = [len(tuple(run)) for _, run in itertools.groupby(entries[len(head):])]
    pool = [c for c in range(1, m + 1) if c != p]
    ballots: list[Order] = []

    def extend(prefix: Order, left: list[int], i: int) -> None:
        # recursion depth is the number of runs, and k runs already mean
        # at least k! ballots, so the depth stays far below any limit
        if i == len(runs):
            ballots.append(prefix)
            return
        for block in itertools.combinations(left, runs[i]):
            extend(prefix + block, [c for c in left if c not in block], i + 1)

    extend(head, pool, 0)
    return ballots


def _ballot_row(ballot: Order, entries: tuple[int, ...]) -> list[int]:
    row = [0] * len(ballot)
    for position, candidate in enumerate(ballot):
        row[candidate - 1] = entries[position]
    return row


def _search(weights, rows, base, p, top, unique, node_cap):
    """First winning pick of one score row per coalition voter, or None.

    ``rows[j][c]`` is what row j gives candidate c (0-based) at weight 1
    and ``base`` what the fixed voters give, both on a vector shifted so
    its last entry is 0; ``top`` is the shifted top entry.  Voter i picks
    ``rows[picks[i]]``; voters are assigned left to right and each tries
    rows in order, so the first winning assignment reached is the
    lexicographically first one.  Three cuts keep that witness:

    * monotone bound: shifted entries are >= 0, so rivals never lose
      points and p gains at most ``top`` times the weight still to vote;
      a branch dies once a rival beats that best score (or ties it, when
      ``unique``), and a leaf is a win exactly when it is not cut;
    * row dedup: ``rows`` holds each distinct score row once;
    * equal-weight symmetry: voter i picks no earlier row than voter i-1
      when their weights are equal, since swapping their picks changes
      no score and only the nondecreasing order can come first.

    The depth-first walk is iterative, so coalition size meets no
    recursion limit.  ``node_cap`` bounds terminals, the evaluated leaves
    plus cut branches; every internal node has a child, so it bounds the
    work.  Raises CapExhausted as soon as one more terminal than the
    budget would be needed, so an answer returned is always exact.
    """
    n = len(weights)
    nrows = len(rows)
    slack = [0] * (n + 1)  # the most p can still gain from voters i..n-1
    for i in range(n - 1, -1, -1):
        slack[i] = slack[i + 1] + weights[i] * top
    strict = 1 if unique else 0
    by_weight: dict[int, tuple[list[int], list[list[int]]]] = {}
    for w in weights:
        if w not in by_weight:
            by_weight[w] = (
                [w * row[p] for row in rows],
                [[w * x for x in row[:p] + row[p + 1:]] for row in rows],
            )
    gains = [by_weight[w] for w in weights]
    picks = [0] * n
    score_p = [base[p]] + [0] * n
    score_rivals = [base[:p] + base[p + 1:]] + [None] * n
    terminals = 0
    level = 0
    while True:
        rivals = score_rivals[level]
        dead = bool(rivals) and max(rivals) > score_p[level] + slack[level] - strict
        if level < n and not dead:
            same = level and weights[level] == weights[level - 1]
            pick = picks[level - 1] if same else 0
        else:
            if terminals >= node_cap:
                raise CapExhausted(node_cap, nrows, n)
            terminals += 1
            if not dead:
                return picks
            level -= 1
            while level >= 0 and picks[level] == nrows - 1:
                level -= 1
            if level < 0:
                return None
            pick = picks[level] + 1
        picks[level] = pick
        gain_p, gain_rivals = gains[level]
        score_p[level + 1] = score_p[level] + gain_p[pick]
        score_rivals[level + 1] = list(map(add, score_rivals[level], gain_rivals[pick]))
        level += 1


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
    score bound and an equal-weight symmetry cut prune branches that
    cannot hold that witness (see :func:`_search`).

    ``node_cap`` budgets search-tree terminals: evaluated leaves plus cut
    branches.  Raises CapExhausted once answering would need more; any
    decision reached within the budget is exact.  The answer's ``mode``
    names the vector's class (see :data:`MODES`).
    """
    inst, vec = _validated(inst)
    mode = MODES[classify(vec).tag]
    shifted = normalize_last_zero(vec)
    base_table = tally(inst.s_voters, shifted)
    base = [base_table[c] for c in range(1, vec.m + 1)]
    ballots = _row_ballots(vec.entries, vec.m, inst.p if restrict_p_first else None)
    rows = [_ballot_row(b, shifted.entries) for b in ballots]
    picks = _search(
        list(inst.t_weights), rows, base, inst.p - 1, shifted.entries[0], unique, node_cap
    )
    if picks is None:
        return ManipulationAnswer(False, None, mode)
    witness = tuple(ballots[i] for i in picks)
    # Soundness check on every yes: the witness must actually make p win.
    table = tally(inst.profile(witness), vec)
    won = unique_winner(table) == inst.p if unique else inst.p in winners(table)
    if not won:
        raise ElectionError("internal error: witness failed re-evaluation")
    return ManipulationAnswer(True, witness, mode)


def solve(
    inst: ManipulationInstance,
    unique: bool = False,
    node_cap: int = DEFAULT_NODE_CAP,
) -> ManipulationAnswer:
    """Decide manipulation for any vector with :func:`brute_force`, which validates first.

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
    if classify(instance_vector(inst)).tag is not RuleClass.ALL_EQUAL:
        raise WrongClass("solver requires an all-equal scoring vector")
    return brute_force(inst, unique)


def solve_plurality_like(inst: ManipulationInstance, unique: bool = False) -> ManipulationAnswer:
    """Decide manipulation for a top-weighted vector with a flat tail.

    Positions below the top are interchangeable, so every p-first ballot
    casts the same score row and p wins exactly when the all-p-first
    profile makes it win.  The search walks that one row as a single
    path.  Raises WrongClass on other vectors.
    """
    if classify(instance_vector(inst)).tag is not RuleClass.PLURALITY_LIKE:
        raise WrongClass("solver requires a plurality-like scoring vector")
    return brute_force(inst, unique)
