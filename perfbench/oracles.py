"""Correctness oracles that share no code with the program under test.

Each one re-derives an answer from first principles: a bitmask subset sum
for partition instances, a product search over the distinct score rows a
coalition voter can cast, and a plain re-tally of a profile.  They are
slow on purpose and run only after the timed loop.
"""

from __future__ import annotations

import itertools
import math


def subset_sum_yes(ks) -> bool:
    """True when some subset of ``ks`` sums to exactly half the total."""
    total = sum(ks)
    if total % 2:
        return False
    reach = 1  # bit s set <=> some subset sums to s
    for k in ks:
        reach |= reach << k
    return bool((reach >> (total // 2)) & 1)


def tally(entries, m, votes):
    """Scores of candidates 1..m (index 0 unused) for (weight, order) pairs."""
    scores = [0] * (m + 1)
    for weight, order in votes:
        for position, candidate in enumerate(order):
            scores[candidate] += weight * entries[position]
    return scores


def p_wins(scores, p, unique) -> bool:
    best = max(scores[1:])
    if scores[p] != best:
        return False
    return not unique or scores[1:].count(best) == 1


def _multiset_perms(values):
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    keys = sorted(counts)
    out = []

    def rec(prefix):
        if len(prefix) == len(values):
            out.append(tuple(prefix))
            return
        for key in keys:
            if counts[key]:
                counts[key] -= 1
                prefix.append(key)
                rec(prefix)
                prefix.pop()
                counts[key] += 1

    rec([])
    return out


def pfirst_rows(entries, p):
    """Distinct score rows (index 0 unused) of ballots that rank p first.

    Ranking p first never lowers p's score and never raises a rival's, so
    these rows lose no winning profile.
    """
    m = len(entries)
    others = [c for c in range(1, m + 1) if c != p]
    rows = []
    for tail in _multiset_perms(entries[1:]):
        row = [0] * (m + 1)
        row[p] = entries[0]
        for c, score in zip(others, tail):
            row[c] = score
        rows.append(row)
    return rows


def can_manipulate(entries, fixed_votes, t_weights, p, unique) -> bool:
    """Exhaustive product search over per-voter distinct score rows."""
    m = len(entries)
    base = tally(entries, m, fixed_votes)
    rows = pfirst_rows(entries, p)
    for combo in itertools.product(rows, repeat=len(t_weights)):
        scores = list(base)
        for weight, row in zip(t_weights, combo):
            for c in range(1, m + 1):
                scores[c] += weight * row[c]
        if p_wins(scores, p, unique):
            return True
    return False


def shape(entries, n_coalition, p=1) -> dict:
    """Computed instance-shape counts of one manipulation instance."""
    per_voter = math.factorial(len(entries) - 1)
    return {
        "ballots_per_voter": per_voter,
        "distinct_rows": len(pfirst_rows(entries, p)),
        "search_space_log10": n_coalition * math.log10(per_voter),
    }
