"""Scoring-vector algebra, the easy/hard manipulation classifier, and
named vector families (plurality, Borda, veto, k-approval, ...).

Coalition manipulation under a nonincreasing integer vector is polynomial
exactly when all entries below the top one are equal; any other shape is
hard.  Hard vectors get two gadget sizes counted off their entries:
``ell`` is one less than the number of entries equal to the last one, and
``r = m - ell - 3`` counts the positions between the runner-up block and
that last block.  Shifting all entries by a constant or scaling them by a
positive factor never changes winners or these counts, which is what makes
the normalized form (last entry shifted to zero) harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .core import ElectionError, ScoringVector, _is_int


class NonPositiveScale(ElectionError):
    """Scaling factor must be an integer >= 1."""


class NotHard(ElectionError):
    """The scoring vector is polynomial-time manipulable."""


class UnsupportedM(ElectionError):
    """The family defines no vector for this candidate count."""


class ExplicitFamilyUnsupported(ElectionError):
    """Per-size vector tables cannot be classified for every size."""


class RuleClass(Enum):
    ALL_EQUAL = "AllEqual"
    PLURALITY_LIKE = "PluralityLike"
    HARD = "Hard"


@dataclass(frozen=True)
class DichotomyClass:
    """Complexity class of a vector, with gadget sizes when hard.  Hard
    classes with equal sizes are equal; :func:`hardness_params` normalizes."""

    tag: RuleClass
    ell: int | None = None
    r: int | None = None


def shift(alpha: ScoringVector, k: int) -> ScoringVector:
    """Add ``k`` to every entry.  Winners are unchanged; each candidate's
    score moves by exactly ``k`` times the profile's total weight.  A
    non-integer ``k`` raises TypeError."""
    if not _is_int(k):
        raise TypeError(f"shift amount must be an integer, got {k!r}")
    return ScoringVector(tuple(e + k for e in alpha.entries))


def scale(alpha: ScoringVector, k: int) -> ScoringVector:
    """Multiply every entry by an integer ``k >= 1``; winners are unchanged."""
    if not _is_int(k) or k < 1:
        raise NonPositiveScale(f"scale factor must be an integer >= 1, got {k!r}")
    return ScoringVector(tuple(e * k for e in alpha.entries))


def normalize_last_zero(alpha: ScoringVector) -> ScoringVector:
    """Shift so the last (smallest) entry becomes 0.  A vector already
    ending in 0 is its own normal form and comes back as itself."""
    return shift(alpha, -alpha.entries[-1]) if alpha.entries[-1] else alpha


def classify(alpha: ScoringVector) -> DichotomyClass:
    """Sort a vector into one of the three manipulation-complexity classes.

    AllEqual: every entry equal (all candidates always tie; includes m=1).
    PluralityLike: top entry strictly above an otherwise constant tail;
    winner-equivalent to plurality after shift/scale.
    Hard: the tail takes at least two distinct values; the result carries
    the gadget sizes, counted off the entries as they are: ell + 1 entries
    equal the last one, and r = m - ell - 3.  No vector is built.
    """
    entries = alpha.entries
    tail = set(entries[1:])
    if len(tail) <= 1:
        if not tail or entries[0] in tail:
            return DichotomyClass(RuleClass.ALL_EQUAL)
        return DichotomyClass(RuleClass.PLURALITY_LIKE)
    ell = entries.count(entries[-1]) - 1
    return DichotomyClass(RuleClass.HARD, ell=ell, r=len(entries) - ell - 3)


def hardness_params(alpha: ScoringVector) -> tuple[ScoringVector, int, int]:
    """Normalized vector and gadget sizes ``(ell, r)`` of a hard vector.

    The normalized vector is ``normalize_last_zero(alpha)``: ``alpha``
    itself when it ends in 0.  A hard vector always satisfies
    ``m = ell + r + 3`` with the normalized entry at position r+2 still
    nonzero.  Raises NotHard for all-equal or plurality-like vectors.
    """
    dc = classify(alpha)
    if dc.tag is not RuleClass.HARD:
        raise NotHard(f"{alpha.entries} is {dc.tag.value}; no gadget parameters exist")
    assert dc.ell is not None and dc.r is not None
    return normalize_last_zero(alpha), dc.ell, dc.r


_KINDS = ("plurality", "borda", "veto", "k-approval", "half-approval", "constant", "explicit")


@dataclass(frozen=True)
class ScoringFamily:
    """A scoring rule defined per candidate count (one vector for each m).

    Raises ValueError for an unknown kind, a k-approval ``k`` that is not
    an ``int`` >= 1, a constant ``value`` that is not an ``int``, and an
    explicit family without vectors, with a table that is not an iterable
    of (size, vector) pairs (a mapping included: only :meth:`explicit`
    takes one), with a size that is not the ``int`` length of its
    ``ScoringVector``, or with a size given twice; a
    ``bool`` is not an ``int`` in any of these.  Each
    parameter belongs to one kind (``k`` to k-approval, ``value`` to
    constant, ``table`` to explicit), and setting it on another kind is a
    ValueError too, since that kind would ignore it.  An explicit table is
    kept sorted by size.
    """

    kind: str
    k: int | None = None  # k-approval block size
    value: int | None = None  # constant families
    table: tuple[tuple[int, ScoringVector], ...] | None = None  # explicit families

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        for param, owner in (("k", "k-approval"), ("value", "constant"), ("table", "explicit")):
            if getattr(self, param) is not None and self.kind != owner:
                raise ValueError(f"{self.kind} families take no {param}; only {owner} does")
        if self.kind == "k-approval" and not (_is_int(self.k) and self.k >= 1):
            raise ValueError(f"k-approval needs an integer block size k >= 1, got {self.k!r}")
        if self.kind == "constant" and not _is_int(self.value):
            raise ValueError(f"constant families need an integer value, got {self.value!r}")
        if self.kind == "explicit":
            if not self.table:
                raise ValueError("explicit families need at least one vector")
            shape = "explicit families map each candidate count to a scoring vector of that size"
            try:
                pairs = [(size, vec) for size, vec in self.table]
            except (TypeError, ValueError):
                # not an iterable of pairs, such as a mapping
                raise ValueError(f"{shape}, got {self.table!r}") from None
            for size, vec in pairs:
                if not (_is_int(size) and isinstance(vec, ScoringVector) and vec.m == size):
                    raise ValueError(f"{shape}, got {size!r} -> {vec!r}")
            table = tuple(sorted(pairs, key=lambda item: item[0]))
            for (size, _), (next_size, _) in zip(table, table[1:]):
                if size == next_size:
                    raise ValueError(f"explicit family defines m={size} twice")
            object.__setattr__(self, "table", table)

    @classmethod
    def plurality(cls) -> "ScoringFamily":
        return cls("plurality")

    @classmethod
    def borda(cls) -> "ScoringFamily":
        return cls("borda")

    @classmethod
    def veto(cls) -> "ScoringFamily":
        return cls("veto")

    @classmethod
    def k_approval(cls, k: int) -> "ScoringFamily":
        return cls("k-approval", k=k)

    @classmethod
    def half_approval(cls) -> "ScoringFamily":
        return cls("half-approval")

    @classmethod
    def constant(cls, value: int) -> "ScoringFamily":
        return cls("constant", value=value)

    @classmethod
    def explicit(cls, vectors: Mapping[int, ScoringVector]) -> "ScoringFamily":
        return cls("explicit", table=tuple(vectors.items()))


def family_vector(family: ScoringFamily, m: int) -> ScoringVector:
    """Concrete scoring vector of the family at candidate count ``m``.

    Raises UnsupportedM for an ``m`` that is not an integer >= 1, for an
    ``m`` whose vector is too long for Python to size a tuple (from about
    2**63 on 64-bit builds) or to allocate in one request (just below
    that), for k-approval with fewer than k candidates, and for explicit
    tables without an entry for m.
    """
    if not _is_int(m) or m < 1:
        raise UnsupportedM(f"candidate count must be an integer >= 1, got {m!r}")
    try:
        return _vector_at(family, m)
    except (OverflowError, MemoryError):
        raise UnsupportedM(f"candidate count {m} is too large for a scoring vector") from None


def _vector_at(family: ScoringFamily, m: int) -> ScoringVector:
    kind = family.kind
    if kind == "plurality":
        return ScoringVector((1,) + (0,) * (m - 1))
    if kind == "borda":
        return ScoringVector(tuple(range(m, 0, -1)))
    if kind == "veto":
        return ScoringVector((1,) * (m - 1) + (0,))
    if kind == "k-approval":
        assert family.k is not None
        if family.k > m:
            raise UnsupportedM(f"{family.k}-approval needs at least {family.k} candidates, got {m}")
        return ScoringVector((1,) * family.k + (0,) * (m - family.k))
    if kind == "half-approval":
        ones = m // 2
        return ScoringVector((1,) * ones + (0,) * (m - ones))
    if kind == "constant":
        assert family.value is not None
        return ScoringVector((family.value,) * m)
    assert family.table is not None
    for size, vec in family.table:
        if size == m:
            return vec
    raise UnsupportedM(f"explicit family defines no vector for m={m}")


@dataclass(frozen=True)
class FamilyClassification:
    """Family-level complexity: easy at every size, or hard from a cutoff up."""

    hard_from: int | None  # smallest hard candidate count; None = easy everywhere
    min_m: int = 1  # smallest candidate count the family defines

    @property
    def always_easy(self) -> bool:
        return self.hard_from is None


def classify_family(family: ScoringFamily) -> FamilyClassification:
    """Split a family into easy-everywhere or hard-from-a-cutoff.

    The cutoff is the smallest m whose vector has two distinct values
    below the top entry:

    * plurality and constant rules never do;
    * Borda and veto first do at m=3;
    * k-approval (k >= 2) first does at m=k+1, when a zero appears after
      the ones; 1-approval is plurality;
    * half-approval first does at m=4, the smallest m with
      2 <= floor(m/2) <= m-1.

    Explicit tables carry no rule for unlisted sizes and are rejected.
    """
    kind = family.kind
    if kind in ("plurality", "constant"):
        return FamilyClassification(None)
    if kind in ("borda", "veto"):
        return FamilyClassification(3)
    if kind == "k-approval":
        assert family.k is not None
        if family.k == 1:
            return FamilyClassification(None)
        return FamilyClassification(family.k + 1, min_m=family.k)
    if kind == "half-approval":
        return FamilyClassification(4)
    raise ExplicitFamilyUnsupported("explicit families must be classified one size at a time")
