"""Partition-to-manipulation gadgets, witness translation, and verification.

Given a hard scoring vector and positive integers summing to an even
total, these builders emit a weighted manipulation instance that has a
successful coalition exactly when some subset of the integers hits half
the total.  The candidate numbering is fixed by :class:`RoleMap`: the
preferred candidate p, the pair a/b whose coalition split encodes the
chosen subset, ``ell`` cycle candidates that must never receive coalition
points, and ``r`` padding candidates that absorb the positions between.

Two voter blocks make the scores work out:

* the core voters pin the landscape so that a and b sit exactly one
  coalition margin below what an even split hands to p, and
* when padding candidates exist, equalizer voters (every cyclic rotation
  of the leaders block crossed with every rotation of the padding block)
  tie p, a, b and the cycle candidates while leaving each padding
  candidate at least one full equalizer weight behind.

Witnesses translate both ways: a subset maps to ballots whose members
rank a above b, and winning ballots map back to the subset of voters
ranking a above b.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .core import (
    ElectionError,
    ManipulationInstance,
    Order,
    ScoringVector,
    WeightedVote,
    tally,
    unique_winner,
    winners,
)
from .dichotomy import hardness_params
from .manipulation import DEFAULT_NODE_CAP, ManipulationAnswer, _PreparedSearch


class OddSum(ElectionError):
    """Partition totals must be even for a half-sum target to exist."""


class NotAWinner(ElectionError):
    """Witness extraction needs ballots under which p actually wins."""


@dataclass(frozen=True)
class PartitionInstance:
    """Positive integers; the question is whether a subset hits half the total.

    Raises ValueError when built from no entries or from an entry that is
    not an ``int`` >= 1.
    """

    ks: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ks", tuple(self.ks))
        if not self.ks:
            raise ValueError("partition instances need at least one integer")
        for i, k in enumerate(self.ks, start=1):
            if not isinstance(k, int) or k < 1:
                raise ValueError(
                    f"partition entries must be integers >= 1, got {k!r} at position {i}"
                )

    @property
    def total(self) -> int:
        return sum(self.ks)

    @property
    def target(self) -> int:
        """Half the total; only defined when the total is even."""
        if self.total % 2:
            raise OddSum(f"total {self.total} is odd; no half-sum target exists")
        return self.total // 2


@dataclass(frozen=True)
class RoleMap:
    """The one owner of the reduction's candidate numbering.

    p=1 (preferred), a=2 and b=3 (the pair whose coalition split encodes
    the subset), then ``ell`` cycle candidates c1.. and ``r`` padding
    candidates d1.., so m = ell + r + 3.  Raises ValueError unless ``ell``
    and ``r`` are both an ``int`` >= 0.
    """

    ell: int
    r: int
    p = 1
    a = 2
    b = 3

    def __post_init__(self) -> None:
        for name, size in (("ell", self.ell), ("r", self.r)):
            if not isinstance(size, int) or size < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {size!r}")

    @property
    def m(self) -> int:
        return self.ell + self.r + 3

    def c(self, i: int) -> int:
        if not 1 <= i <= self.ell:
            raise IndexError(f"cycle candidate index {i} outside 1..{self.ell}")
        return 3 + i

    def d(self, j: int) -> int:
        if not 1 <= j <= self.r:
            raise IndexError(f"padding candidate index {j} outside 1..{self.r}")
        return 3 + self.ell + j

    @property
    def cs(self) -> tuple[int, ...]:
        return tuple(range(4, 4 + self.ell))

    @property
    def ds(self) -> tuple[int, ...]:
        return tuple(range(4 + self.ell, 4 + self.ell + self.r))

    def role_name(self, candidate: int) -> str:
        if not 1 <= candidate <= self.m:
            raise IndexError(f"candidate {candidate} outside 1..{self.m}")
        i = candidate - 3  # the cycle and padding candidates' offset
        if i < 1:
            return ("p", "a", "b")[candidate - 1]
        return f"c{i}" if i <= self.ell else f"d{i - self.ell}"


class GadgetCase(Enum):
    """Which core construction applies.

    The general core cycles each cycle candidate's ballot through the
    next one; with exactly one cycle candidate that pairing would make it
    follow itself, so a single-c instance uses its own six-ballot block.
    """

    GENERAL = "general"
    SINGLE_C = "single-c"


@dataclass(frozen=True)
class ReductionArtifact:
    """A generated instance plus the bookkeeping to translate witnesses."""

    instance: ManipulationInstance
    role_map: RoleMap
    case: GadgetCase
    ell: int
    r: int
    target: int  # subset-sum target (half the partition total)
    equalizer_weight: int  # 0 when r == 0
    t_unit: int  # common factor of every coalition weight
    source: PartitionInstance


def _role_map(alpha_norm: ScoringVector, ell: int, r: int) -> RoleMap:
    """The gadget's numbering, once ``hardness_params`` gives back all three inputs."""
    norm, want_ell, want_r = hardness_params(alpha_norm)
    if (alpha_norm, ell, r) != (norm, want_ell, want_r):
        raise ElectionError(
            f"gadget input {alpha_norm.entries}, ell={ell!r}, r={r!r} does not match "
            f"the normalized vector {norm.entries}, ell={want_ell}, r={want_r}"
        )
    return RoleMap(ell, r)


def build_core_voters(
    alpha_norm: ScoringVector, ell: int, r: int, target: int
) -> tuple[WeightedVote, ...]:
    """Fixed voters that pin down the gadget's score landscape.

    ``alpha_norm`` must be the normalized form of a hard vector with the
    given sizes, and ``target`` the subset-sum target (>= 1).  Writing a1
    for the top entry and ar2 for the entry at position r+2 (the last
    nonzero one), the general case emits two heavy a/b voters of weight
    2*target*(2*a1 - ar2) - 1 and one voter of weight 4*a1*target - 1 per
    cycle candidate, ranked so that p scores 0, a and b tie, every cycle
    candidate sits higher still, and padding candidates trail the top
    positions only.  The single-c case (exactly one cycle candidate) uses
    weights 3*target*(2*a1 - ar2) - 1 and 3*a1*target - 1 over eight
    ballots instead, which also lifts p itself to one six-block weight
    times (a1 + ar2).  Raises NotHard for an easy vector, and ElectionError
    for any other vector or sizes that do not match or a ``target`` that is
    not an ``int`` >= 1; past these checks a1 >= ar2 >= 1, so every weight
    is >= 1.
    """
    rm = _role_map(alpha_norm, ell, r)
    if not (isinstance(target, int) and target >= 1):
        raise ElectionError(f"target must be an integer >= 1, got {target!r}")
    e = alpha_norm.entries
    a1 = e[0]
    ar2 = e[r + 1]
    ds, cs = rm.ds, rm.cs
    w_ab = (2 if ell != 1 else 3) * target * (2 * a1 - ar2) - 1
    voters = [
        WeightedVote(w_ab, (rm.a, *ds, rm.b, rm.p, *cs)),
        WeightedVote(w_ab, (rm.b, *ds, rm.a, rm.p, *cs)),
    ]
    if ell != 1:
        w_c = 4 * a1 * target - 1
        for i in range(1, ell + 1):
            partner = rm.c(1 + (i % ell))
            head = [rm.c(i), *ds, partner, rm.a, rm.b, rm.p]
            rest = [c for c in range(1, rm.m + 1) if c not in head]
            voters.append(WeightedVote(w_c, tuple(head + rest)))
    else:
        c1 = rm.c(1)
        w_six = 3 * a1 * target - 1
        six = (
            (c1, rm.a, rm.b, rm.p),
            (rm.a, c1, rm.b, rm.p),
            (c1, rm.b, rm.a, rm.p),
            (rm.b, c1, rm.a, rm.p),
            (c1, rm.p, rm.a, rm.b),
            (rm.p, c1, rm.a, rm.b),
        )
        for first, second, third, fourth in six:
            voters.append(WeightedVote(w_six, tuple([first, *ds, second, third, fourth])))
    return tuple(voters)


def build_equalizer_voters(
    alpha_norm: ScoringVector, ell: int, r: int, weight: int
) -> tuple[WeightedVote, ...]:
    """Cyclic-rotation ballots that level the leaders and bury the padding.

    With no padding candidates there is nothing to level and the block is
    empty.  Otherwise one ballot per rotation pair: the leaders block
    [a, b, p, c1..] rotated by i (i in 0..ell+2) followed by the padding
    block [d1..] rotated by j (j in 0..r-1), all at the same weight, for
    (ell+3)*r ballots.  Every leader then gains r*weight*(sum of the top
    ell+3 entries) while every padding candidate gains (ell+3)*weight*(sum
    of the rest), which on a normalized hard vector trails the leaders by
    more than one full weight.  Checks ``alpha_norm``, ``ell`` and ``r``
    as :func:`build_core_voters` does, and ``weight``, read only with
    padding, must then be an ``int`` >= 1 (ElectionError otherwise).
    """
    rm = _role_map(alpha_norm, ell, r)
    if r == 0:
        return ()
    if not (isinstance(weight, int) and weight >= 1):
        raise ElectionError(f"equalizer weight must be an integer >= 1, got {weight!r}")
    leaders = [rm.a, rm.b, rm.p, *rm.cs]
    padding = list(rm.ds)
    voters = []
    for i in range(ell + 3):
        head = leaders[i:] + leaders[:i]
        for j in range(r):
            tail = padding[j:] + padding[:j]
            voters.append(WeightedVote(weight, tuple(head + tail)))
    return tuple(voters)


def reduce_partition(alpha: ScoringVector, part: PartitionInstance) -> ReductionArtifact:
    """Build the manipulation instance a partition instance maps to.

    The vector must classify as hard (NotHard otherwise) and the
    partition total must be even (OddSum otherwise).  The instance uses
    the normalized vector, the core voters, the equalizer voters when
    padding candidates exist, and one coalition weight ``t_unit * k`` per
    input integer k, where t_unit is 2*(a1 + ar2) in the general case and
    3*(a1 + ar2) in the single-c case.  A subset summing to the target
    exists iff the coalition can make candidate 1 win (equivalently: the
    unique winner).
    """
    norm, ell, r = hardness_params(alpha)
    target = part.target
    rm = RoleMap(ell, r)
    core = build_core_voters(norm, ell, r, target)
    eq_weight = 0
    if r > 0:
        d1_score = tally(core, norm)[rm.d(1)]
        # The strict leader margin needs one extra point in the general
        # case; the single-c core already keeps p strictly ahead on its own.
        eq_weight = d1_score + 1 if ell != 1 else d1_score
    equalizers = build_equalizer_voters(norm, ell, r, eq_weight)
    a1 = norm.entries[0]
    ar2 = norm.entries[r + 1]
    t_unit = (2 if ell != 1 else 3) * (a1 + ar2)
    t_weights = tuple(t_unit * k for k in part.ks)
    instance = ManipulationInstance(norm, core + equalizers, t_weights, rm.p)
    case = GadgetCase.GENERAL if ell != 1 else GadgetCase.SINGLE_C
    return ReductionArtifact(instance, rm, case, ell, r, target, eq_weight, t_unit, part)


def forward_witness(art: ReductionArtifact, subset: Iterable[int]) -> tuple[Order, ...]:
    """Coalition ballots realizing an index subset.

    Voters in the subset cast p > d1..dr > a > b > c1..; the rest swap a
    and b.  Indices are 1-based positions into the partition integers.
    """
    rm = art.role_map
    n = len(art.source.ks)
    chosen = set(subset)
    if not chosen <= set(range(1, n + 1)):
        raise IndexError(f"subset {sorted(chosen)} has indices outside 1..{n}")
    ballot_in = (rm.p, *rm.ds, rm.a, rm.b, *rm.cs)
    ballot_out = (rm.p, *rm.ds, rm.b, rm.a, *rm.cs)
    return tuple(ballot_in if i in chosen else ballot_out for i in range(1, n + 1))


def extract_witness(art: ReductionArtifact, t_votes: Iterable[Order]) -> set[int]:
    """Read an index subset off coalition ballots under which p wins.

    Re-tallies first: a ballot that is not a permutation of the
    candidates raises NonPermutationOrder, and NotAWinner is raised if p
    is not among the winners.  The subset is the voters ranking a above
    b; on artifact-generated winning profiles it always sums to the
    target.
    """
    inst = art.instance
    t_votes = tuple(t_votes)
    table = tally(inst.profile(t_votes), inst.alpha)
    if inst.p not in winners(table):
        raise NotAWinner(f"candidate {inst.p} does not win under the supplied ballots")
    rm = art.role_map
    return {
        i
        for i, order in enumerate(t_votes, start=1)
        if order.index(rm.a) < order.index(rm.b)
    }


def solve_partition(part: PartitionInstance) -> set[int] | None:
    """Subset of 1-based indices summing to half the total, or None.

    Suffix-reachability dynamic program over sums up to the target, then
    a left-to-right reconstruction that takes an index whenever the rest
    can still finish, which yields the lexicographically smallest witness.
    Odd totals have no witness.
    """
    if part.total % 2:
        return None
    target = part.total // 2
    ks = part.ks
    n = len(ks)
    reachable: list[set[int]] = [set() for _ in range(n + 1)]
    reachable[n] = {0}
    for i in range(n - 1, -1, -1):
        sums = set(reachable[i + 1])
        for v in reachable[i + 1]:
            if v + ks[i] <= target:
                sums.add(v + ks[i])
        reachable[i] = sums
    if target not in reachable[0]:
        return None
    picked: set[int] = set()
    remaining = target
    for i in range(n):
        if ks[i] <= remaining and (remaining - ks[i]) in reachable[i + 1]:
            picked.add(i + 1)
            remaining -= ks[i]
    if remaining:
        raise ElectionError("internal error: reconstruction missed the target")
    return picked


@dataclass(frozen=True)
class VerificationReport:
    """End-to-end cross-check of one vector/partition pair."""

    artifact: ReductionArtifact
    partition_witness: frozenset[int] | None
    mp: ManipulationAnswer
    ump: ManipulationAnswer
    forward_unique: bool | None  # partition-yes: forward ballots leave p alone on top
    extracted: frozenset[int] | None  # manipulation-yes: subset read off the ballots
    extracted_sum: int | None
    extraction_from_tie: bool  # the first found ballots only tie p (still extractable)
    passed: bool


def verify_reduction(
    alpha: ScoringVector,
    part: PartitionInstance,
    node_cap: int = DEFAULT_NODE_CAP,
) -> VerificationReport:
    """Check a reduction end to end and report every intermediate fact.

    Passes when the partition oracle, the co-winner search, and the
    unique-winner search all agree, a partition witness forwards to
    ballots leaving p the unique winner, and extraction from found
    ballots sums to the target.

    Both searches walk one preparation of the gadget (p pinned first):
    the vector's class, the shifted vector and one tally of the fixed
    voters are worked out once, and each score row with its weighted gains
    is built the first time either walk picks it.  Each walk keeps its own
    ``node_cap`` budget, failed-state table and stats, and checks its own
    "yes" by tallying only its witness ballots onto the shared fixed-voter
    table, so ``mp`` and ``ump`` equal what ``brute_force`` returns for
    each mode, and the first walk to run out raises the same
    CapExhausted.  Each witness is its mode's lexicographically first win
    and every unique win co-wins, so the two differ exactly when the
    co-winner ballots only tie p (``extraction_from_tie``).
    """
    art = reduce_partition(alpha, part)
    subset = solve_partition(part)
    search = _PreparedSearch(art.instance, restrict_p_first=True)
    mp = search.answer(False, node_cap)
    ump = search.answer(True, node_cap)

    forward_unique: bool | None = None
    if subset is not None:
        votes = art.instance.profile(forward_witness(art, subset))
        forward_unique = unique_winner(tally(votes, art.instance.alpha)) == art.instance.p

    extracted: frozenset[int] | None = None
    extracted_sum: int | None = None
    from_tie = False
    if mp.decision:
        assert mp.witness is not None
        extracted = frozenset(extract_witness(art, mp.witness))
        extracted_sum = sum(part.ks[i - 1] for i in extracted)
        # each witness is its mode's first win and unique wins co-win: they differ iff mp only ties
        from_tie = ump.witness != mp.witness

    agree = (subset is not None) == mp.decision == ump.decision
    forward_ok = forward_unique is not False
    extract_ok = extracted_sum is None or extracted_sum == art.target
    passed = agree and forward_ok and extract_ok
    return VerificationReport(
        artifact=art,
        partition_witness=None if subset is None else frozenset(subset),
        mp=mp,
        ump=ump,
        forward_unique=forward_unique,
        extracted=extracted,
        extracted_sum=extracted_sum,
        extraction_from_tie=from_tie,
        passed=passed,
    )
