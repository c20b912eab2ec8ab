"""Exact data model and winner evaluation for weighted scoring-rule elections.

Candidates are the integers ``1..m``.  A ballot ranks all m candidates (a
permutation, most preferred first), every voter carries a positive integer
weight, and a scoring vector awards its i-th entry to the candidate in
ballot position i.  Weights and scores are plain Python integers, so
tallies stay exact at any magnitude; generated instances routinely carry
weights far beyond 64 bits and are never expanded into unit-weight ballots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .dichotomy import ScoringFamily

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
    """Nonincreasing integer scores, one per ballot position."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def m(self) -> int:
        """Number of candidates the vector scores."""
        return len(self.entries)

    def is_nonincreasing(self) -> bool:
        return all(a >= b for a, b in zip(self.entries, self.entries[1:]))


@dataclass(frozen=True)
class WeightedVote:
    """One ballot cast with an integer weight >= 1."""

    weight: int
    order: Order

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(self.order))


@dataclass(frozen=True)
class ManipulationInstance:
    """Fixed voters, coalition weights, and the candidate to be made a winner.

    ``alpha`` is normally a ScoringVector; it may also be a ScoringFamily,
    in which case the concrete vector is generated from the candidate count
    before solving (see :func:`votemanip.manipulation.instance_vector`).
    ``s_voters`` are the voters whose ballots are already cast; the
    coalition casts one ballot per entry of ``t_weights``.
    """

    alpha: "ScoringVector | ScoringFamily"
    s_voters: tuple[WeightedVote, ...]
    t_weights: tuple[int, ...]
    p: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "s_voters", tuple(self.s_voters))
        object.__setattr__(self, "t_weights", tuple(self.t_weights))

    def profile(self, orders: Iterable[Order]) -> tuple[WeightedVote, ...]:
        """The fixed voters, then one vote per coalition weight cast with ``orders``."""
        orders = tuple(orders)
        if len(orders) != len(self.t_weights):
            raise ElectionError(f"need {len(self.t_weights)} coalition ballots, got {len(orders)}")
        return self.s_voters + tuple(WeightedVote(w, o) for w, o in zip(self.t_weights, orders))


def is_permutation(order: Sequence[int], m: int) -> bool:
    """True when ``order`` lists each of 1..m exactly once."""
    return len(order) == m and sorted(order) == list(range(1, m + 1))


def tally(votes: Iterable[WeightedVote], alpha: ScoringVector) -> ScoreTable:
    """Exact positional scores for candidates 1..m.

    Each ballot adds ``weight * entries[position]`` to the candidate at
    every position.  The profile is scored per distinct ballot: weights
    are summed per order first, then each order is scored once with its
    total weight, which is exact because scores are linear in weight.
    Raises DimensionMismatch when a ballot's length differs from
    ``alpha.m``; ballots are otherwise assumed valid.
    """
    m = alpha.m
    entries = alpha.entries
    totals: dict[Order, int] = {}
    for vote in votes:
        totals[vote.order] = totals.get(vote.order, 0) + vote.weight
    scores: ScoreTable = dict.fromkeys(range(1, m + 1), 0)
    for order, w in totals.items():
        if len(order) != m:
            raise DimensionMismatch(f"ballot has {len(order)} positions, scoring vector has {m}")
        for position, candidate in enumerate(order):
            scores[candidate] += w * entries[position]
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
    """One structural violation found by :func:`validate_instance`."""

    code: str  # matching exception-class name, e.g. "NonMonotoneAlpha"
    where: str  # "alpha", "p", "s[3]", "t[2]" (1-based positions)
    message: str


def validate_instance(inst: ManipulationInstance) -> list[ValidationIssue]:
    """Every structural violation in the instance, in component order.

    Checks the scoring vector's shape, each fixed ballot, every weight,
    and the preferred candidate's range; the vector's entries, the weights
    and ``p`` must all be ``int``.  Each distinct ballot is checked
    for being a permutation once; every voter holding an invalid ballot
    still gets its own issue.  An empty list means the instance is valid.
    Family-based instances must be resolved to a concrete vector first.
    """
    alpha = inst.alpha
    if not isinstance(alpha, ScoringVector):
        raise TypeError("resolve the scoring family to a vector before validating")
    issues: list[ValidationIssue] = []
    if alpha.m == 0:
        issues.append(ValidationIssue("NonMonotoneAlpha", "alpha", "scoring vector is empty"))
    elif not all(isinstance(e, int) for e in alpha.entries):
        issues.append(
            ValidationIssue(
                "NonMonotoneAlpha", "alpha", f"entries must be integers, got {alpha.entries}"
            )
        )
    elif not alpha.is_nonincreasing():
        issues.append(
            ValidationIssue(
                "NonMonotoneAlpha",
                "alpha",
                f"entries must be nonincreasing, got {alpha.entries}",
            )
        )
    m = alpha.m
    if not isinstance(inst.p, int) or not 1 <= inst.p <= m:
        issues.append(
            ValidationIssue(
                "CandidateOutOfRange", "p", f"preferred candidate {inst.p!r} outside 1..{m}"
            )
        )
    permutations: set[Order] = set()  # orders already found to be permutations of 1..m
    for i, vote in enumerate(inst.s_voters, start=1):
        if not _is_weight(vote.weight):
            issues.append(_weight_issue(f"s[{i}]", vote.weight))
        try:
            valid = vote.order in permutations
        except TypeError:  # unhashable items: checked every time, never remembered
            valid = is_permutation(vote.order, m)
        else:
            if not valid and is_permutation(vote.order, m):
                permutations.add(vote.order)
                valid = True
        if not valid:
            issues.append(
                ValidationIssue(
                    "NonPermutationOrder",
                    f"s[{i}]",
                    f"ballot {vote.order} is not a permutation of 1..{m}",
                )
            )
    for i, w in enumerate(inst.t_weights, start=1):
        if not _is_weight(w):
            issues.append(_weight_issue(f"t[{i}]", w))
    return issues


def _is_weight(w: object) -> bool:
    return isinstance(w, int) and w >= 1


def _weight_issue(where: str, w: object) -> ValidationIssue:
    return ValidationIssue("NonPositiveWeight", where, f"weight {w!r} must be an integer >= 1")


def require_valid(inst: ManipulationInstance) -> None:
    """Raise InvalidInstance listing every violation; no-op when valid."""
    issues = validate_instance(inst)
    if issues:
        raise InvalidInstance(issues)
