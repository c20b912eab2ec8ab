"""Shared generators for the test suite.

Everything here is deterministic given a seed so failures reproduce.
"""

import itertools
import random

from votemanip import (
    InvalidInstance,
    ManipulationInstance,
    ScoringVector,
    UnsupportedM,
    WeightedVote,
    family_vector,
    tally,
)
from votemanip.cli import ParseError, _int, _lines, _vector, parse_family_name


def random_order(rng, m):
    order = list(range(1, m + 1))
    rng.shuffle(order)
    return tuple(order)


def random_profile(rng, m, n_voters, max_weight=50):
    return tuple(
        WeightedVote(rng.randint(1, max_weight), random_order(rng, m))
        for _ in range(n_voters)
    )


def random_nonincreasing(rng, m, lo=-5, hi=9):
    entries = sorted((rng.randint(lo, hi) for _ in range(m)), reverse=True)
    return ScoringVector(tuple(entries))


def random_plurality_like(rng, max_m=4):
    # top entry strictly above a flat tail
    m = rng.randint(2, max_m)
    tail = rng.randint(0, 3)
    top = tail + rng.randint(1, 5)
    return ScoringVector((top,) + (tail,) * (m - 1))


def count_vector_builds(monkeypatch):
    """Record the entries of every ScoringVector built from here on."""
    built = []
    check = ScoringVector.__post_init__

    def counted(self):
        built.append(self.entries)
        check(self)

    monkeypatch.setattr(ScoringVector, "__post_init__", counted)
    return built


def count_tallied_ballots(monkeypatch):
    """Record how many ballots each tally the search runs from here on reads."""
    import votemanip.manipulation as manipulation

    counts = []

    def counted(votes, alpha):
        votes = tuple(votes)
        counts.append(len(votes))
        return tally(votes, alpha)

    monkeypatch.setattr(manipulation, "tally", counted)
    return counts


def random_instance(rng, alpha, max_voters=4, max_coalition=3, max_weight=20):
    m = alpha.m
    s_voters = random_profile(rng, m, rng.randint(0, max_voters), max_weight)
    t_weights = tuple(
        rng.randint(1, max_weight) for _ in range(rng.randint(1, max_coalition))
    )
    p = rng.randint(1, m)
    return ManipulationInstance(alpha, s_voters, t_weights, p)


def all_orders(m):
    return [tuple(perm) for perm in itertools.permutations(range(1, m + 1))]


def small_instance_grid():
    """Exhaustive grid of tiny instances for cross-checking solvers.

    Covers every rule class, empty and single-voter S, empty and
    multi-member T, and every choice of p.
    """
    vectors = [
        ScoringVector((2,)),
        ScoringVector((1, 0)),
        ScoringVector((3, 3)),
        ScoringVector((1, 0, 0)),
        ScoringVector((1, 1, 0)),
        ScoringVector((2, 1, 0)),
        ScoringVector((3, 3, 3)),
    ]
    coalitions = [(), (1,), (3,), (1, 1), (1, 3), (3, 3)]
    for alpha in vectors:
        m = alpha.m
        s_choices = [()]
        for w in (2, 5):
            s_choices.extend(((WeightedVote(w, o),) for o in all_orders(m)))
        for s_voters, t_weights, p in itertools.product(
            s_choices, coalitions, range(1, m + 1)
        ):
            yield ManipulationInstance(alpha, s_voters, tuple(t_weights), p)


def even_multisets(values, max_len):
    """All multisets over `values` up to max_len whose sum is even."""
    for n in range(1, max_len + 1):
        for combo in itertools.combinations_with_replacement(values, n):
            if sum(combo) % 2 == 0:
                yield combo


def exhaustive_partition(ks):
    """Reference subset-sum: every 1-based index subset hitting half the total."""
    total = sum(ks)
    if total % 2:
        return None
    target = total // 2
    hits = []
    for mask in range(1 << len(ks)):
        subset = frozenset(i + 1 for i in range(len(ks)) if mask >> i & 1)
        if sum(ks[i - 1] for i in subset) == target:
            hits.append(subset)
    return hits


def search_ballots(weights, ballot_scores, base, p, unique):
    """Depth-first product scan over per-voter ballot choices.

    weights: coalition voters' weights, leftmost voter varying slowest.
    ballot_scores: for each candidate ballot, the per-candidate (0-based)
        score row it contributes at weight 1; the same rows apply to every
        voter.  Ballot index order defines the enumeration order.
    base: per-candidate scores contributed by the fixed voters.
    p: 0-based index of the candidate that must win.
    unique: require a strict win instead of a tie for first place.

    Returns the per-voter ballot index of the first satisfying
    assignment, or None.  No pruning: every leaf is evaluated.
    """
    n = len(weights)
    nb = len(ballot_scores)
    m = len(base)
    contrib = [[[w * x for x in row] for row in ballot_scores] for w in weights]
    choice = [0] * n
    rows = [list(base)] + [[0] * m for _ in range(n)]
    level = 0
    while True:
        while level < n:
            choice[level] = 0
            _add(rows[level], contrib[level][0], rows[level + 1])
            level += 1
        if _wins(rows[n], p, unique):
            return list(choice)
        level = n - 1
        while level >= 0 and choice[level] == nb - 1:
            level -= 1
        if level < 0:
            return None
        choice[level] += 1
        _add(rows[level], contrib[level][choice[level]], rows[level + 1])
        level += 1


def _add(src, extra, dst):
    for i, v in enumerate(src):
        dst[i] = v + extra[i]


def _wins(scores, p, unique):
    sp = scores[p]
    for c, v in enumerate(scores):
        if c == p:
            continue
        if v > sp or (unique and v == sp):
            return False
    return True


def product_oracle(inst, unique=False, restrict_p_first=True):
    """Reference (decision, witness) from the unpruned product scan.

    Every ballot (every p-first ballot when restricted) is a choice for
    every coalition voter, in lexicographic order, so the witness is the
    lexicographically first winning assignment.  Needs a valid instance
    with a concrete vector.
    """
    vec = inst.alpha
    m = vec.m
    if restrict_p_first:
        others = [c for c in range(1, m + 1) if c != inst.p]
        ballots = [(inst.p,) + rest for rest in itertools.permutations(others)]
    else:
        ballots = all_orders(m)
    rows = []
    for ballot in ballots:
        row = [0] * m
        for position, candidate in enumerate(ballot):
            row[candidate - 1] = vec.entries[position]
        rows.append(row)
    base_table = tally(inst.s_voters, vec)
    base = [base_table[c] for c in range(1, m + 1)]
    picks = search_ballots(list(inst.t_weights), rows, base, inst.p - 1, unique)
    if picks is None:
        return False, None
    return True, tuple(ballots[i] for i in picks)


def reference_parse_instance(text):
    """Reference instance parser: tokenize every line, then build the voters.

    The straightforward parser the one-pass ``cli.parse_instance`` replaced,
    kept as an oracle: both must give equal instances, or ParseErrors with
    the same line and message.
    """
    alpha = None
    p_val = None
    p_line = None
    s_rows = []
    orders = {}  # ballot tokens -> parsed order
    t_rows = []
    for lineno, tokens in _lines(text):
        keyword = tokens[0]
        if keyword in ("alpha", "family"):
            if alpha is not None:
                raise ParseError(lineno, "duplicate scoring-rule directive")
            if keyword == "alpha":
                alpha = _vector(tokens[1:], lineno, "alpha entry")
            else:
                if len(tokens) != 3:
                    raise ParseError(lineno, "family needs a name and a candidate count")
                fam = parse_family_name(tokens[1], lineno)
                m = _int(tokens[2], lineno, "candidate count")
                try:
                    alpha = family_vector(fam, m)
                except UnsupportedM as exc:
                    raise ParseError(lineno, str(exc)) from None
        elif keyword == "p":
            if p_val is not None:
                raise ParseError(lineno, "duplicate p directive")
            if len(tokens) != 2:
                raise ParseError(lineno, "p needs exactly one candidate index")
            p_val = _int(tokens[1], lineno, "preferred candidate")
            p_line = lineno
        elif keyword == "s":
            if len(tokens) < 3:
                raise ParseError(lineno, "s needs a weight and a full ballot")
            weight = _int(tokens[1], lineno, "voter weight")
            ballot = tuple(tokens[2:])
            order = orders.get(ballot)
            if order is None:
                try:
                    order = tuple(map(int, ballot))
                except ValueError:  # _int names the first bad token and raises
                    order = tuple(_int(t, lineno, "ballot candidate") for t in ballot)
                orders[ballot] = order
            s_rows.append((lineno, weight, order))
        elif keyword == "t":
            if len(tokens) != 2:
                raise ParseError(lineno, "t needs exactly one weight")
            t_rows.append((lineno, _int(tokens[1], lineno, "coalition weight")))
        else:
            raise ParseError(lineno, f"unknown directive {keyword!r}")
    if alpha is None:
        raise ParseError(None, "missing alpha or family directive")
    if p_val is None:
        raise ParseError(None, "missing p directive")
    try:
        return ManipulationInstance(
            alpha,
            tuple(WeightedVote(w, o) for _, w, o in s_rows),
            tuple(w for _, w in t_rows),
            p_val,
        )
    except InvalidInstance as exc:
        def issue_line(where):
            if where == "p":
                return p_line or 0
            kind, index = where[0], int(where[2:-1])
            rows = s_rows if kind == "s" else t_rows
            return rows[index - 1][0]

        first = min(exc.issues, key=lambda issue: issue_line(issue.where))
        raise ParseError(issue_line(first.where), f"{first.code}: {first.message}") from None
