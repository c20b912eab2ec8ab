"""Exact data model and winner evaluation for weighted scoring-rule elections.

Candidates are the integers ``1..m``.  A ballot ranks all m candidates (a
permutation, most preferred first), every voter carries a positive integer
weight, and a scoring vector awards its i-th entry to the candidate in
ballot position i.  Weights and scores are plain Python integers, so
tallies stay exact at any magnitude; generated instances routinely carry
weights far beyond 64 bits and are never expanded into unit-weight ballots.

Scoring vectors and manipulation instances check themselves when they
are built, so every function that takes one can trust it; a bad instance
raises InvalidInstance listing every problem at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

Order = tuple[int, ...]
ScoreTable = dict[int, int]


class ElectionError(Exception):
    """Base class for every error this package raises on purpose."""


class DimensionMismatch(ElectionError):
    """A ballot's length does not match the scoring vector's."""


class NonPermutationOrder(ElectionError):
    """A ballot is not a permutation of 1..m."""


class NonPositiveWeight(ElectionError):
    """A voter or coalition weight is not an integer >= 1."""


class CandidateOutOfRange(ElectionError):
    """A candidate index falls outside 1..m."""


class NonMonotoneAlpha(ElectionError):
    """Scoring-vector entries are empty, not integers, or increase somewhere."""


class InvalidInstance(ElectionError):
    """A manipulation instance violates structural invariants."""

    def __init__(self, issues: Sequence["ValidationIssue"]):
        self.issues = tuple(issues)
        super().__init__("; ".join(f"{i.where}: {i.code}: {i.message}" for i in self.issues))


@dataclass(frozen=True)
class ScoringVector:
    """Nonincreasing integer scores, one per ballot position.

    Raises NonMonotoneAlpha when built from no entries, from entries that
    are not all ``int`` (a ``bool`` is not one), or from entries that
    increase somewhere.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise NonMonotoneAlpha("scoring vector is empty")
        if not all(isinstance(e, int) and not isinstance(e, bool) for e in entries):
            raise NonMonotoneAlpha(f"entries must be integers, got {entries}")
        if sorted(entries, reverse=True) != list(entries):
            raise NonMonotoneAlpha(f"entries must be nonincreasing, got {entries}")

    @property
    def m(self) -> int:
        """Number of candidates the vector scores."""
        return len(self.entries)


class WeightedVote(NamedTuple("WeightedVote", [("weight", int), ("order", Order)])):
    """One ballot cast with an integer weight >= 1.

    A vote is a named pair of ``weight`` and ``order``: immutable,
    hashable and equal by value.  ``order`` is kept as given when it is a
    tuple and converted to one otherwise (a list or a tuple subclass
    included).  Building a vote from a pair with ``tuple.__new__`` (or
    ``WeightedVote._make``) skips that conversion, so a caller whose
    orders are already plain tuples can build many votes without running
    Python code per vote, as :func:`votemanip.cli.parse_instance` does.
    """

    __slots__ = ()

    def __new__(cls, weight: int, order: Iterable[int]) -> "WeightedVote":
        if type(order) is not tuple:
            order = tuple(order)
        return tuple.__new__(cls, (weight, order))


@dataclass(frozen=True)
class ManipulationInstance:
    """Fixed voters, coalition weights, and the candidate to be made a winner.

    ``alpha`` is a ScoringVector, which checked its own entries when it
    was built; anything else, a ScoringFamily included, raises TypeError
    (resolve a family with :func:`votemanip.dichotomy.family_vector`
    first).  ``s_voters`` are the voters whose ballots are already cast;
    the coalition casts one ballot per entry of ``t_weights``.  The rest
    is checked by :func:`require_valid` when the instance is built (by
    ``dataclasses.replace`` too), so an instance that exists is valid.
    """

    alpha: ScoringVector
    s_voters: tuple[WeightedVote, ...]
    t_weights: tuple[int, ...]
    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.alpha, ScoringVector):
            raise TypeError(
                f"alpha must be a ScoringVector, got {type(self.alpha).__name__}; "
                "resolve scoring families with family_vector first"
            )
        object.__setattr__(self, "s_voters", tuple(self.s_voters))
        object.__setattr__(self, "t_weights", tuple(self.t_weights))
        require_valid(self)

    def profile(self, orders: Iterable[Order]) -> tuple[WeightedVote, ...]:
        """The fixed voters, then one vote per coalition weight cast with ``orders``.

        Each distinct ballot is checked once; when some are not
        permutations of 1..m, NonPermutationOrder names the first
        coalition voter (1-based) casting one.
        """
        orders = tuple(orders)
        if len(orders) != len(self.t_weights):
            raise ElectionError(f"need {len(self.t_weights)} coalition ballots, got {len(orders)}")
        m = self.alpha.m
        bad = _non_permutations(orders, m)
        if bad:
            i = bad[0]
            raise NonPermutationOrder(
                f"coalition ballot t[{i + 1}] {orders[i]} is not a permutation of 1..{m}"
            )
        return self.s_voters + tuple(WeightedVote(w, o) for w, o in zip(self.t_weights, orders))


def is_permutation(order: Sequence[int], m: int) -> bool:
    """True when ``order`` lists each of 1..m exactly once, as ``int``s.

    A ``bool`` is no candidate, although ``True`` compares equal to 1.
    """
    if len(order) != m:
        return False
    try:
        ranked = sorted(order)
    except TypeError:  # items that do not compare, like (1, None), are no permutation
        return False
    # only True can pass for a candidate, as 1, so it would sort first
    return ranked == list(range(1, m + 1)) and (m == 0 or ranked[0] is not True)


def _non_permutations(orders: Sequence[Order], m: int) -> list[int]:
    """Indices of the orders that are not permutations of 1..m.

    Each distinct order is checked once; orders with unhashable items
    are checked one by one.
    """
    try:
        bad = {order for order in set(orders) if not is_permutation(order, m)}
    except TypeError:
        return [i for i, order in enumerate(orders) if not is_permutation(order, m)]
    return [i for i, order in enumerate(orders) if order in bad] if bad else []


def tally(votes: Iterable[WeightedVote], alpha: ScoringVector) -> ScoreTable:
    """Exact positional scores for candidates 1..m.

    Each ballot adds ``weight * entries[position]`` to the candidate at
    every position.  The profile is scored per distinct ballot: weights
    are summed per order first, then each order is scored once with its
    total weight, which is exact because scores are linear in weight.

    Only positions outside the vector's longest run ``[lo, hi)`` of equal
    entries ``b`` (the first such run on ties) are visited: every
    candidate starts at ``b * W``, W the total weight, and each order of
    weight w adds ``w * (entries[pos] - b)`` at the other positions.  This
    is the integer identity sum(w * a_pos) = b * W + sum(w * (a_pos - b)),
    whose terms vanish inside the run, so a distinct ballot costs m - L
    additions for a run of length L: 1 for plurality and veto, k for
    k-approval with k <= m/2, 0 for an all-equal vector, m - 1 for Borda.

    Ballots must be permutations of 1..m, and only their length is
    checked: DimensionMismatch names the first distinct ballot whose
    length differs from ``alpha.m``, before anything is scored.
    """
    m = alpha.m
    entries = alpha.entries
    totals: dict[Order, int] = {}
    for vote in votes:
        order = vote.order
        totals[order] = totals.get(order, 0) + vote.weight
    for order in totals:
        if len(order) != m:
            raise DimensionMismatch(f"ballot has {len(order)} positions, scoring vector has {m}")
    lo = hi = start = 0
    for _, run in itertools.groupby(entries):
        end = start + len(list(run))
        if end - start > hi - lo:
            lo, hi = start, end
        start = end
    b = entries[lo]
    scores: ScoreTable = dict.fromkeys(range(1, m + 1), b * sum(totals.values()))
    for pos in itertools.chain(range(lo), range(hi, m)):
        gap = entries[pos] - b
        for order, w in totals.items():
            scores[order[pos]] += w * gap
    return scores


def winners(table: Mapping[int, int]) -> set[int]:
    """All candidates whose score ties the maximum; never empty."""
    if not table:
        raise ElectionError("cannot take winners of an empty score table")
    best = max(table.values())
    return {c for c, s in table.items() if s == best}


def unique_winner(table: Mapping[int, int]) -> int | None:
    """The sole argmax candidate, or None on any tie."""
    top = winners(table)
    if len(top) == 1:
        return top.pop()
    return None


@dataclass(frozen=True)
class ValidationIssue:
    """One structural violation carried by InvalidInstance."""

    code: str  # matching exception-class name, e.g. "NonPermutationOrder"
    where: str  # "p", "s[3]", "t[2]" (1-based positions)
    message: str


def require_valid(inst: ManipulationInstance) -> None:
    """Raise InvalidInstance listing every violation, in component order.

    Every instance runs this when it is built.  Checks the preferred
    candidate's range, each fixed ballot and every weight; the weights,
    ``p`` and the ballots' candidates must be ``int``, and a ``bool`` is
    not one.  Each voter holding an invalid ballot gets its own issue,
    after the issue for its weight.  The scoring vector checked itself
    when it was built.
    """
    m = inst.alpha.m
    issues: list[ValidationIssue] = []
    if not isinstance(inst.p, int) or isinstance(inst.p, bool) or not 1 <= inst.p <= m:
        issues.append(
            ValidationIssue(
                "CandidateOutOfRange", "p", f"preferred candidate {inst.p!r} outside 1..{m}"
            )
        )
    voters = inst.s_voters
    bad = set(_non_permutations([vote.order for vote in voters], m))
    for i, vote in enumerate(voters):
        # a bool is no weight; False already fails w >= 1
        if not (isinstance(w := vote.weight, int) and w >= 1 and w is not True):
            issues.append(_weight_issue(f"s[{i + 1}]", w))
        if i in bad:
            issues.append(
                ValidationIssue(
                    "NonPermutationOrder",
                    f"s[{i + 1}]",
                    f"ballot {vote.order} is not a permutation of 1..{m}",
                )
            )
    for i, w in enumerate(inst.t_weights, start=1):
        if not (isinstance(w, int) and w >= 1 and w is not True):
            issues.append(_weight_issue(f"t[{i}]", w))
    if issues:
        raise InvalidInstance(issues)


def _weight_issue(where: str, w: object) -> ValidationIssue:
    return ValidationIssue("NonPositiveWeight", where, f"weight {w!r} must be an integer >= 1")
