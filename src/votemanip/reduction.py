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
  candidate at least three full equalizer weights behind.

Witnesses translate both ways: a subset maps to ballots whose members
rank a above b, and winning ballots map back to the subset of voters
ranking a above b.

A winner is the unique winner
-----------------------------

The reduction claims that the coalition can make p *a* winner exactly
when it can make p the *unique* winner.  The margins below show more:
when every coalition ballot ranks p first, as :func:`verify_reduction`
searches, p never ties a rival.  Write e for the normalized entries, a1 =
e[0] for the top one and ar2 = e[r+1] for the last nonzero one (a1 >= ar2
>= 1), T = 2*target*t_unit for the coalition's total weight and W for the
equalizer weight.  For a rival x, G_x is x's coalition gain divided by
t_unit, an integer since every coalition weight is a multiple of t_unit.
p's coalition gain is T*a1.  The equalizers give every leader (p, a, b
and the cycle candidates) the same r*W*S_top, with S_top the sum of the
top ell+3 entries, so they cancel between p and any leader.  A padding
candidate d_j sits at position j of every core ballot, so its core score
is at most d1_score = e[1]*(the core voters' total weight), d1's; it gets
(ell+3)*W*S_rest from the equalizers, with S_rest the sum of the other r
entries, and at most T*e[1] <= T*a1 from a coalition that ranks p first.
And r*S_top - (ell+3)*S_rest >= e[0] + e[1] + e[2] >= 3: it is the sum of
e[i] - e[k] over the top i and the other k, each term at least 0, and the
three that pair i = 0, 1, 2 with the last position k = m-1, one of the
other r with e[m-1] = 0, add up to e[0] + e[1] + e[2], and each of those
is at least e[r+1] >= 1 since 2 <= r+1.

General case, t_unit = 2*(a1 + ar2), W = d1_score + 1:

* the core gives p nothing and a and b (a1 + ar2)*(2*target*(2*a1 - ar2) - 1)
  each, so p - a = (a1 + ar2)*(2*target*ar2 + 1 - 2*G_a), whose second
  factor is odd and so never 0; the same holds for b;
* each cycle candidate c gets (a1 + ar2)*(4*a1*target - 1) from the core,
  so p - c = (a1 + ar2)*(1 - 2*G_c), never 0;
* p - d_j >= W*(r*S_top - (ell+3)*S_rest) - d1_score >= 3*W - d1_score
  >= 2*W > 0, so the margin does not need W's "+ 1" (it stays part of the
  gadget: dropping it would change every padded general gadget).

Single-c case, t_unit = 3*(a1 + ar2), W = d1_score:

* the six-ballot block gives p, a and b (a1 + ar2)*w_six each and c1 three
  times that, with w_six = 3*a1*target - 1, and the a/b voters add
  (a1 + ar2)*(3*target*(2*a1 - ar2) - 1) to a and to b, so p - a =
  (a1 + ar2)*(3*target*ar2 + 1 - 3*G_a), never 0; the same holds for b;
* p - c1 = (a1 + ar2)*(2 - 3*G_c), never 0;
* p - d_j >= (a1 + ar2)*w_six + 3*W - d1_score = (a1 + ar2)*w_six + 2*W > 0.

So every p-first co-win leaves p strictly ahead.  A co-win that does not
rank p first stays a co-win when p moves to the top of every coalition
ballot, so the claim holds for every assignment.  It also lets one
co-winner search answer both questions: the first co-winning p-first
assignment is a unique win, and no unique win comes before it, since that
would be an earlier co-win.  :func:`verify_reduction` checks the claim on
every "yes" it finds.
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
    _is_int,
    tally,
    unique_winner,
    winners,
)
from .dichotomy import hardness_params
from .manipulation import DEFAULT_NODE_CAP, ManipulationAnswer, _search, _with_coalition


# Most bits solve_partition's bitsets may hold together (32 MiB).
_BITSET_BUDGET = 1 << 28


class OddSum(ElectionError):
    """Partition totals must be even for a half-sum target to exist."""


class NotAWinner(ElectionError):
    """Witness extraction needs ballots under which p actually wins."""


@dataclass(frozen=True)
class PartitionInstance:
    """Positive integers; the question is whether a subset hits half the total.

    Raises ValueError when built from no entries or from an entry that is
    not an ``int`` >= 1 (a ``bool`` is not one).
    """

    ks: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ks", tuple(self.ks))
        if not self.ks:
            raise ValueError("partition instances need at least one integer")
        for i, k in enumerate(self.ks, start=1):
            if not _is_int(k) or k < 1:
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
    and ``r`` are both an ``int`` >= 0 (a ``bool`` is not one).  ``c``,
    ``d`` and ``role_name`` raise IndexError for an index that is not an
    ``int`` in range.
    """

    ell: int
    r: int
    p = 1
    a = 2
    b = 3

    def __post_init__(self) -> None:
        for name, size in (("ell", self.ell), ("r", self.r)):
            if not _is_int(size) or size < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {size!r}")

    @property
    def m(self) -> int:
        return self.ell + self.r + 3

    def c(self, i: int) -> int:
        if not (_is_int(i) and 1 <= i <= self.ell):
            raise IndexError(f"cycle candidate index {i!r} outside 1..{self.ell}")
        return 3 + i

    def d(self, j: int) -> int:
        if not (_is_int(j) and 1 <= j <= self.r):
            raise IndexError(f"padding candidate index {j!r} outside 1..{self.r}")
        return 3 + self.ell + j

    @property
    def cs(self) -> tuple[int, ...]:
        return tuple(range(4, 4 + self.ell))

    @property
    def ds(self) -> tuple[int, ...]:
        return tuple(range(4 + self.ell, 4 + self.ell + self.r))

    def role_name(self, candidate: int) -> str:
        if not (_is_int(candidate) and 1 <= candidate <= self.m):
            raise IndexError(f"candidate {candidate!r} outside 1..{self.m}")
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
    if not (_is_int(target) and target >= 1):
        raise ElectionError(f"target must be an integer >= 1, got {target!r}")
    return _core_voters(rm, alpha_norm.entries, target)[2]


def _core_voters(
    rm: RoleMap, e: tuple[int, ...], target: int
) -> tuple[GadgetCase, int, tuple[WeightedVote, ...]]:
    """The checked gadget's case, t_unit and core voters (see :func:`build_core_voters`)."""
    a1, ar2 = e[0], e[rm.r + 1]
    case = GadgetCase.SINGLE_C if rm.ell == 1 else GadgetCase.GENERAL
    k = 2 if case is GadgetCase.GENERAL else 3  # t_unit is k*(a1 + ar2)
    ds, cs = rm.ds, rm.cs
    w_ab = k * target * (2 * a1 - ar2) - 1
    voters = [
        WeightedVote(w_ab, (rm.a, *ds, rm.b, rm.p, *cs)),
        WeightedVote(w_ab, (rm.b, *ds, rm.a, rm.p, *cs)),
    ]
    if case is GadgetCase.GENERAL:
        w_c = 4 * a1 * target - 1
        for i in range(1, rm.ell + 1):
            partner = rm.c(1 + (i % rm.ell))
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
    return case, k * (a1 + ar2), tuple(voters)


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
    at least three full weights.  Checks ``alpha_norm``, ``ell`` and ``r``
    as :func:`build_core_voters` does, and ``weight``, read only with
    padding, must then be an ``int`` >= 1 (ElectionError otherwise).
    """
    rm = _role_map(alpha_norm, ell, r)
    if r == 0:
        return ()
    if not (_is_int(weight) and weight >= 1):
        raise ElectionError(f"equalizer weight must be an integer >= 1, got {weight!r}")
    return _equalizer_voters(rm, weight)


def _equalizer_voters(rm: RoleMap, weight: int) -> tuple[WeightedVote, ...]:
    """The checked gadget's equalizer voters (see :func:`build_equalizer_voters`)."""
    leaders = [rm.a, rm.b, rm.p, *rm.cs]
    padding = list(rm.ds)
    return tuple(
        WeightedVote(weight, tuple(leaders[i:] + leaders[:i] + padding[j:] + padding[:j]))
        for i in range(rm.ell + 3)
        for j in range(rm.r)
    )


def reduce_partition(alpha: ScoringVector, part: PartitionInstance) -> ReductionArtifact:
    """Build the manipulation instance a partition instance maps to.

    The vector must classify as hard (NotHard otherwise) and the
    partition total must be even (OddSum otherwise).  The instance uses
    the normalized vector, the core voters, the equalizer voters when
    padding candidates exist, and one coalition weight ``t_unit * k`` per
    input integer k, where t_unit is 2*(a1 + ar2) in the general case and
    3*(a1 + ar2) in the single-c case.  A subset summing to the target
    exists iff the coalition can make candidate 1 win, and then it can make
    candidate 1 the unique winner (see the module docstring).
    """
    norm, ell, r = hardness_params(alpha)
    target = part.target
    rm = RoleMap(ell, r)
    e = norm.entries
    case, t_unit, core = _core_voters(rm, e, target)
    eq_weight = 0
    if r > 0:
        # d1 is second on every core ballot; the general case's extra point
        # is not needed for p's margin (see the module docstring)
        d1_score = e[1] * sum(v.weight for v in core)
        eq_weight = d1_score + 1 if case is GadgetCase.GENERAL else d1_score
    t_weights = tuple(t_unit * k for k in part.ks)
    instance = ManipulationInstance(norm, core + _equalizer_voters(rm, eq_weight), t_weights, rm.p)
    return ReductionArtifact(instance, rm, case, ell, r, target, eq_weight, t_unit, part)


def forward_witness(art: ReductionArtifact, subset: Iterable[int]) -> tuple[Order, ...]:
    """Coalition ballots realizing an index subset.

    Voters in the subset cast p > d1..dr > a > b > c1..; the rest swap a
    and b.  Indices are 1-based positions into the partition integers;
    IndexError names the first that is not an ``int`` in 1..n (a
    ``bool`` is not one).
    """
    rm = art.role_map
    n = len(art.source.ks)
    indices = tuple(subset)
    for i in indices:
        if not (_is_int(i) and 1 <= i <= n):
            raise IndexError(f"subset index {i!r} outside 1..{n}")
    chosen = set(indices)
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
    return _a_above_b(art, t_votes)


def _a_above_b(art: ReductionArtifact, t_votes: tuple[Order, ...]) -> set[int]:
    """The 1-based indices of the coalition ballots ranking a above b."""
    a, b = art.role_map.a, art.role_map.b
    return {i for i, order in enumerate(t_votes, start=1) if order.index(a) < order.index(b)}


def solve_partition(part: PartitionInstance) -> set[int] | None:
    """Subset of 1-based indices summing to half the total, or None.

    Suffix-reachability dynamic program over sums up to the target, then
    a left-to-right reconstruction that takes an index whenever the rest
    can still finish, which yields the lexicographically smallest witness.
    Odd totals have no witness.

    Each suffix's reachable sums are kept in one of two forms, chosen from
    the input.  With many mid-sized integers (the target below 2**n, and
    n bitsets of target + 1 bits within ``_BITSET_BUDGET``) they are one
    integer bitset per suffix, bit v set when some subset sums to v: a
    shift and an or per integer, where a set could hold up to target sums.
    Otherwise, as with few large integers, they are a set per suffix,
    which never holds more than 2**n sums, where a bitset would need
    target + 1 bits.
    """
    if part.total % 2:
        return None
    target = part.total // 2
    ks = part.ks
    n = len(ks)
    if target >> n or n * (target + 1) > _BITSET_BUDGET:
        sums: list[set[int]] = [set() for _ in range(n + 1)]
        sums[n] = {0}
        for i in range(n - 1, -1, -1):
            sums[i] = set(sums[i + 1])
            for v in sums[i + 1]:
                if v + ks[i] <= target:
                    sums[i].add(v + ks[i])

        def reaches(i: int, v: int) -> bool:
            return v in sums[i]

    else:
        mask = (1 << target + 1) - 1
        bits = [1] * (n + 1)
        for i in range(n - 1, -1, -1):
            bits[i] = (bits[i + 1] | (bits[i + 1] << ks[i])) & mask

        def reaches(i: int, v: int) -> bool:
            return bool(bits[i] >> v & 1)

    if not reaches(0, target):
        return None
    picked: set[int] = set()
    remaining = target
    for i in range(n):
        if ks[i] <= remaining and reaches(i + 1, remaining - ks[i]):
            picked.add(i + 1)
            remaining -= ks[i]
    if remaining:
        raise ElectionError("internal error: reconstruction missed the target")
    return picked


@dataclass(frozen=True)
class VerificationReport:
    """End-to-end cross-check of one vector/partition pair.

    ``mp`` and ``ump`` answer the co-winner and unique-winner questions.
    Both come from one co-winner search: with p pinned first no gadget
    ties p (see the module docstring), so ``ump`` is ``mp``, stats
    included.
    """

    artifact: ReductionArtifact
    partition_witness: frozenset[int] | None
    mp: ManipulationAnswer
    ump: ManipulationAnswer
    forward_unique: bool | None  # partition-yes: forward ballots leave p alone on top
    extracted: frozenset[int] | None  # manipulation-yes: subset read off the ballots
    extracted_sum: int | None
    passed: bool


def verify_reduction(
    alpha: ScoringVector,
    part: PartitionInstance,
    node_cap: int = DEFAULT_NODE_CAP,
) -> VerificationReport:
    """Check a reduction end to end and report every intermediate fact.

    Passes when the partition oracle and the search agree, a partition
    witness forwards to ballots leaving p the unique winner, and
    extraction from found ballots sums to the target.

    The gadget is searched once (p pinned first), in the co-winner
    mode, with the ``node_cap`` budget; ``mp``
    equals what ``brute_force`` returns, stats included, and the walk
    raises the same CapExhausted.  By the module docstring's margins that
    walk's answer is also the unique-winner answer, so ``ump`` is ``mp``;
    a "yes" whose ballots leave p tied with a rival would disprove the
    margins and raises ElectionError.  The walk's check of a "yes"
    tallies only the coalition's ballots onto the search's fixed-voter
    table, and so does the forward check; the extracted subset is read off the
    checked ballots without another tally.
    """
    art = reduce_partition(alpha, part)
    subset = solve_partition(part)
    mp, fixed, table = _search(art.instance, False, node_cap, restrict_p_first=True)
    p = art.instance.p
    if mp.decision and unique_winner(table) != p:
        raise ElectionError("internal error: co-winning gadget ballots only tie p")

    forward_unique: bool | None = None
    if subset is not None:
        forward = _with_coalition(art.instance, fixed, forward_witness(art, subset))
        forward_unique = unique_winner(forward) == p

    extracted: frozenset[int] | None = None
    extracted_sum: int | None = None
    if mp.decision:
        assert mp.witness is not None
        extracted = frozenset(_a_above_b(art, mp.witness))
        extracted_sum = sum(part.ks[i - 1] for i in extracted)

    agree = (subset is not None) == mp.decision
    forward_ok = forward_unique is not False
    extract_ok = extracted_sum is None or extracted_sum == art.target
    passed = agree and forward_ok and extract_ok
    return VerificationReport(
        artifact=art,
        partition_witness=None if subset is None else frozenset(subset),
        mp=mp,
        ump=mp,
        forward_unique=forward_unique,
        extracted=extracted,
        extracted_sum=extracted_sum,
        passed=passed,
    )
