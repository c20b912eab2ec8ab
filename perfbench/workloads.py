"""The three workloads: seeded inputs, the op each input drives, and its oracle.

Every op calls the program through a module attribute looked up at call
time, so the tracer's wrappers see the benchmark's own calls as well.
Labels (yes/no) are fixed per slot and enforced by rejection sampling
against the oracles, so every seed runs the same mix of answers.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Callable

import oracles

# One search budget for every op: verify_reduction, solve and the CLI's --cap.
NODE_CAP = 500_000

# Coalition weight as a multiple of the weight that closes p's deficit.
RATIO_BAND = (0.3, 3.0)

DECIDED = ("yes", "no", "done")


@dataclass
class Op:
    name: str
    run: Callable[[], tuple[str, object]]  # -> (status, payload)
    check: Callable[[str, object], str | None]  # oracle for a decided op: mismatch or None
    expected: bool | None = None  # true answer, for manipulation ops
    shape: dict | None = None  # computed instance-shape counts


def _order(rng, m):
    order = list(range(1, m + 1))
    rng.shuffle(order)
    return tuple(order)


def _coalition(rng, entries, fixed, n):
    """p (never the fixed profile's leader) and n coalition weights.

    The coalition's total weight is a log-uniform point of RATIO_BAND times
    the weight that would just close p's deficit to the leader, so its
    ratio to the fixed weight sweeps the band where answers flip.
    """
    m = len(entries)
    scores = oracles.tally(entries, m, fixed)
    best = max(scores[1:])
    if entries[0] == entries[-1]:  # all-equal: every candidate always ties
        p, need = rng.randint(1, m), sum(w for w, _ in fixed) / 100
    else:
        p = rng.choice([c for c in range(1, m + 1) if scores[c] < best])
        need = (best - scores[p]) / (entries[0] - entries[-1])
    lo, hi = RATIO_BAND
    total = lo * (hi / lo) ** rng.random() * need
    return p, tuple(max(1, round(total / n * rng.uniform(0.8, 1.2))) for _ in range(n))


def _labelled(rng, label, attempt, what):
    """Rejection-sample ``attempt(rng)`` until its oracle answer is ``label``."""
    for _ in range(2000):
        answer, found = attempt(rng)
        if answer == label:
            return found
    raise RuntimeError(f"could not draw a {'yes' if label else 'no'} instance for {what}")


def _check_witness(entries, fixed, t_weights, witness, p, unique):
    """Re-tally a yes witness; None when p really wins under it."""
    m = len(entries)
    if witness is None or len(witness) != len(t_weights):
        return "yes answer without one ballot per coalition voter"
    for order in witness:
        if sorted(order) != list(range(1, m + 1)):
            return f"witness ballot {order} is not a permutation of 1..{m}"
    scores = oracles.tally(entries, m, list(fixed) + list(zip(t_weights, witness)))
    if not oracles.p_wins(scores, p, unique):
        return f"witness {witness} does not make {p} {'the unique' if unique else 'a'} winner"
    return None


# -------------------------------------------------------------- reduction-verify

# Cells of the battery: (entries, partition size, yes?, copies).  Vectors
# are veto and Borda at m=3..5, 2-approval at m=4 and (2,2,1,0,0).  Under
# the budget, today's core raises CapExhausted on the six m=5, n=5 ops; with
# the three m=5, n=4 no-instances (2 x 24^4 leaves) they are the slowest
# 9 of 52 ops, so p90 sits inside them.  Twenty-four m=4, n=5 no-instances
# (2 x 6^5 leaves, ~20 ms) sit in the middle, so p50 falls inside one
# latency mode instead of between two.
VETO3, VETO4, VETO5 = (1, 1, 0), (1, 1, 1, 0), (1, 1, 1, 1, 0)
BORDA3, BORDA4, BORDA5 = (3, 2, 1), (4, 3, 2, 1), (5, 4, 3, 2, 1)
APPROVE2_4, V22100 = (1, 1, 0, 0), (2, 2, 1, 0, 0)
REDUCTION_CELLS = (
    [(e, 5, yes, 1) for e in (VETO5, BORDA5, V22100) for yes in (True, False)]
    + [(e, 4, False, 1) for e in (VETO5, BORDA5, V22100)]
    + [(e, 3, yes, 1) for e in (VETO5, BORDA5, V22100) for yes in (True, False)]
    + [(e, 5, False, 8) for e in (VETO4, BORDA4, APPROVE2_4)]
    + [(e, 5, True, 1) for e in (VETO4, BORDA4, APPROVE2_4)]
    + [(e, 4, yes, 1) for e in (VETO4, BORDA4, APPROVE2_4) for yes in (True, False)]
    + [(e, 5, yes, 1) for e in (VETO3, BORDA3) for yes in (True, False)]
)
PARTITION_MAX = 200


def _partition(rng, n, yes):
    """n positive integers with an even total; a yes split exists iff ``yes``."""
    while True:
        ks = [rng.randint(1, PARTITION_MAX) for _ in range(n)]
        if yes:
            # Deal the integers onto two sides, then top up the lighter side.
            side = [rng.random() < 0.5 for _ in range(n)]
            side[0], side[1] = True, False
            gap = sum(k for k, s in zip(ks, side) if s) - sum(k for k, s in zip(ks, side) if not s)
            pool = [i for i in range(n) if side[i] == (gap < 0)]
            ks[rng.choice(pool)] += abs(gap)
        if sum(ks) % 2 == 0 and oracles.subset_sum_yes(ks) == yes:
            return tuple(ks)


def reduction_verify(vm, rng, workdir):
    ops = []
    for entries, n, yes, copies in REDUCTION_CELLS:
        for _ in range(copies):
            ks = _partition(rng, n, yes)
            name = f"alpha={entries} ks={ks} {'yes' if yes else 'no'}"
            ops.append(_verify_op(vm, name, entries, ks, yes))
    return ops


def _verify_op(vm, name, entries, ks, yes):
    vec = vm.core.ScoringVector(entries)
    part = vm.reduction.PartitionInstance(ks)

    def run():
        try:
            report = vm.reduction.verify_reduction(vec, part, node_cap=NODE_CAP)
        except vm.manipulation.CapExhausted:
            return "cap", None
        except vm.core.ElectionError as exc:
            return "error", f"raised {exc!r}"
        return ("yes" if report.mp.decision else "no"), report

    def check(status, report):
        if status != ("yes" if yes else "no"):
            return f"decision {status}, subset-sum oracle says {'yes' if yes else 'no'}"
        if report.ump.decision != yes or not report.passed:
            return f"unique decision {report.ump.decision}, report passed={report.passed}"
        if not yes:
            return None
        inst = report.artifact.instance
        half = sum(ks) // 2
        if sum(ks[i - 1] for i in report.partition_witness) != half:
            return f"partition witness {sorted(report.partition_witness)} misses {half}"
        fixed = [(v.weight, v.order) for v in inst.s_voters]
        norm = inst.alpha.entries
        for answer, unique in ((report.mp, False), (report.ump, True)):
            bad = _check_witness(norm, fixed, inst.t_weights, answer.witness, inst.p, unique)
            if bad:
                return bad
        return None

    return Op(name, run, check, expected=yes, shape=oracles.shape(entries, len(ks)))


def reduction_warmup(vm, workdir):
    vm.reduction.verify_reduction(
        vm.core.ScoringVector((2, 1, 0)), vm.reduction.PartitionInstance((1, 1, 2)), node_cap=NODE_CAP
    )


# ----------------------------------------------------------------- wide-approval

WIDE_FIXED_VOTERS = 24


def _approval(m, k):
    return (1,) * k + (0,) * (m - k)


# (yes?, m, approvals, coalition voters).  One coalition voter: veto, 2-
# and 3-approval at m=8 (5 yes, ~10 ms; 12 no, ~20 ms), m=9 (3 no, ~0.2 s)
# and m=10 (4 no, ~1.6 s, mostly row build).  No-instances search every
# leaf, so their cost does not hinge on where a witness sits.  Two 2-voter
# m=8 no-instances need 5040^2 leaves and exhaust the budget (~0.7 s).  Of
# the 26 ops, p50 falls mid m=8 no and p90 among the four m=10 ops.
WIDE_SLOTS = (
    [(True, 8, k, 1) for k in (7, 2, 3, 7, 2)]
    + [(False, 8, k, 1) for k in (7, 2, 3) * 4]
    + [(False, 9, k, 1) for k in (8, 2, 3)]
    + [(False, 8, 2, 2), (False, 8, 3, 2)]
    + [(False, 10, k, 1) for k in (9, 2, 3, 3)]
)
# Weights above 256 keep every weight*score product a fresh int object,
# so memory does not depend on which weights a seed draws.
WIDE_WEIGHTS = (1000, 100000)


def wide_approval(vm, rng, workdir):
    ops = []
    for label, m, k, n in WIDE_SLOTS:
        entries = _approval(m, k)

        def attempt(rng, m=m, n=n, entries=entries):
            fixed = [(rng.randint(*WIDE_WEIGHTS), _order(rng, m)) for _ in range(WIDE_FIXED_VOTERS)]
            p, t_weights = _coalition(rng, entries, fixed, n)
            unique = rng.random() < 0.5
            yes = oracles.can_manipulate(entries, fixed, t_weights, p, unique)
            return yes, (fixed, t_weights, p, unique)

        fixed, t_weights, p, unique = _labelled(rng, label, attempt, f"m={m} {k}-approval")
        name = f"m={m} approve={k} n={n} {'unique ' if unique else ''}{'yes' if label else 'no'}"
        ops.append(_solve_op(vm, name, entries, fixed, t_weights, p, unique, label))
    return ops


def _solve_op(vm, name, entries, fixed, t_weights, p, unique, expected):
    inst = vm.core.ManipulationInstance(
        vm.core.ScoringVector(entries),
        tuple(vm.core.WeightedVote(w, o) for w, o in fixed),
        t_weights,
        p,
    )

    def run():
        try:
            answer = vm.manipulation.solve(inst, unique=unique, node_cap=NODE_CAP)
        except vm.manipulation.CapExhausted:
            return "cap", None
        except vm.core.ElectionError as exc:
            return "error", f"raised {exc!r}"
        return ("yes" if answer.decision else "no"), answer

    def check(status, answer):
        if status != ("yes" if expected else "no"):
            return f"decision {status}, product oracle says {'yes' if expected else 'no'}"
        if expected:
            return _check_witness(entries, fixed, t_weights, answer.witness, p, unique)
        return None

    return Op(name, run, check, expected=expected, shape=oracles.shape(entries, len(t_weights), p))


def wide_warmup(vm, workdir):
    vec = vm.core.ScoringVector(_approval(6, 2))
    voters = (vm.core.WeightedVote(3, (2, 3, 4, 5, 6, 1)),)
    vm.manipulation.solve(vm.core.ManipulationInstance(vec, voters, (1,), 1), node_cap=NODE_CAP)


# ------------------------------------------------------------------ cli-profiles

CLI_FIXED_VOTERS = 2000
CLI_WEIGHT_BITS = (64, 80)

# (name, entries, coalition voters, unique, label); label None means the
# answer follows from the rule (all-equal: yes unless a unique win is asked).
CLI_SLOTS = (
    ("plurality4", (1, 0, 0, 0), 2, False, True),
    ("plurality4", (1, 0, 0, 0), 3, True, False),
    ("plurality-like5", (3, 1, 1, 1, 1), 2, True, True),
    ("plurality-like5", (3, 1, 1, 1, 1), 3, False, False),
    ("all-equal4", (2, 2, 2, 2), 2, False, None),
    ("all-equal5", (1, 1, 1, 1, 1), 3, True, None),
    ("borda4", (4, 3, 2, 1), 2, False, True),
    ("borda4", (4, 3, 2, 1), 3, True, False),
    ("borda5", (5, 4, 3, 2, 1), 2, True, True),
    ("borda5", (5, 4, 3, 2, 1), 3, False, False),
    ("borda5", (5, 4, 3, 2, 1), 3, True, True),
    ("borda5", (5, 4, 3, 2, 1), 2, False, False),
    ("veto4", (1, 1, 1, 0), 3, False, True),
    ("veto4", (1, 1, 1, 0), 2, True, False),
    ("veto5", (1, 1, 1, 1, 0), 2, False, True),
    ("veto5", (1, 1, 1, 1, 0), 3, True, False),
)


def _instance_text(entries, p, fixed, t_weights):
    lines = ["alpha " + " ".join(map(str, entries)), f"p {p}"]
    lines += [f"s {w} " + " ".join(map(str, o)) for w, o in fixed]
    lines += [f"t {w}" for w in t_weights]
    return "\n".join(lines) + "\n"


def _witness_text(orders):
    return "".join(f"t-vote {i} " + " ".join(map(str, o)) + "\n" for i, o in enumerate(orders, 1))


def _parse_witness_lines(lines, m):
    orders = []
    for i, line in enumerate(lines, 1):
        tokens = line.split()
        if len(tokens) != m + 2 or tokens[0] != "t-vote" or tokens[1] != str(i):
            raise ValueError(f"bad witness line {line!r}")
        orders.append(tuple(int(t) for t in tokens[2:]))
    return tuple(orders)


def cli_profiles(vm, rng, workdir):
    ops = []
    lo_bits, hi_bits = CLI_WEIGHT_BITS
    for j, (rname, entries, n, unique, label) in enumerate(CLI_SLOTS):
        m = len(entries)
        fixed = [(rng.randrange(2**lo_bits, 2**hi_bits), _order(rng, m)) for _ in range(CLI_FIXED_VOTERS)]

        def attempt(rng, n=n, entries=entries, fixed=fixed, unique=unique):
            p, t_weights = _coalition(rng, entries, fixed, n)
            return oracles.can_manipulate(entries, fixed, t_weights, p, unique), (p, t_weights)

        if label is None:
            label = not unique
            p, t_weights = attempt(rng)[1]
        else:
            p, t_weights = _labelled(rng, label, attempt, rname)
        stem = os.path.join(workdir, f"cli{j:02d}")
        paths = {"instance": stem + ".txt", "out": stem + ".witness.txt", "canon": stem + ".canon.txt"}
        with open(paths["instance"], "w", encoding="utf-8") as fh:
            fh.write(_instance_text(entries, p, fixed, t_weights))
        canon = tuple((p,) + tuple(c for c in range(1, m + 1) if c != p) for _ in t_weights)
        with open(paths["canon"], "w", encoding="utf-8") as fh:
            fh.write(_witness_text(canon))
        name = f"{rname} n={n} {'unique ' if unique else ''}{'yes' if label else 'no'}"
        ops += _cli_ops(vm, name, entries, fixed, t_weights, p, unique, label, paths)
    return ops


def _run_cli(vm, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = vm.cli.run_command(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_ops(vm, name, entries, fixed, t_weights, p, unique, expected, paths):
    m = len(entries)
    argv = ["manipulate", paths["instance"], "--cap", str(NODE_CAP), "--witness-out", paths["out"]]
    if unique:
        argv.append("--unique")
    last = {}  # status of the latest manipulate, which picks evaluate's witness

    def manipulate():
        code, out, err = _run_cli(vm, argv)
        status = {0: "yes", 1: "no", 3: "cap"}.get(code, "error")
        last["status"] = status
        return status, (out if status != "error" else f"exit code {code}: {err.strip()}")

    def check_manipulate(status, out):
        if status != ("yes" if expected else "no"):
            return f"decision {status}, product oracle says {'yes' if expected else 'no'}"
        lines = out.splitlines()
        if lines[0] != status:
            return f"first stdout line {lines[0]!r}, exit code says {status}"
        if not expected:
            return None
        try:
            witness = _parse_witness_lines(lines[1:], m)
        except ValueError as exc:
            return str(exc)
        with open(paths["out"], encoding="utf-8") as fh:
            if fh.read() != out.split("\n", 1)[1]:
                return "--witness-out file differs from the witness on stdout"
        return _check_witness(entries, fixed, t_weights, witness, p, unique)

    def evaluate():
        witness = paths["out"] if last.get("status") == "yes" else paths["canon"]
        code, out, err = _run_cli(vm, ["evaluate", paths["instance"], "--witness", witness])
        if code:
            return "error", f"exit code {code}: {err.strip()}"
        return "done", (out, witness)

    def check_evaluate(status, payload):
        out, witness_path = payload
        with open(witness_path, encoding="utf-8") as fh:
            orders = _parse_witness_lines(fh.read().splitlines(), m)
        scores = oracles.tally(entries, m, list(fixed) + list(zip(t_weights, orders)))
        best = max(scores[1:])
        top = [c for c in range(1, m + 1) if scores[c] == best]
        want = [f"score {c} {scores[c]}" for c in range(1, m + 1)]
        want += ["winners " + " ".join(map(str, top)), f"unique {top[0] if len(top) == 1 else 'none'}"]
        if out.splitlines() != want:
            return f"evaluate printed {out.splitlines()[-2:]}, re-tally gives {want[-2:]}"
        return None

    shape = oracles.shape(entries, len(t_weights), p)
    return [
        Op(f"manipulate {name}", manipulate, check_manipulate, expected=expected, shape=shape),
        Op(f"evaluate {name}", evaluate, check_evaluate),
    ]


def cli_warmup(vm, workdir):
    path = os.path.join(workdir, "warmup.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_instance_text((2, 1, 0), 1, [(3, (2, 3, 1))], (5,)))
    out = os.path.join(workdir, "warmup.witness.txt")
    _run_cli(vm, ["manipulate", path, "--cap", str(NODE_CAP), "--witness-out", out])
    _run_cli(vm, ["evaluate", path, "--witness", out])


WORKLOADS = {
    "reduction-verify": (reduction_verify, reduction_warmup),
    "wide-approval": (wide_approval, wide_warmup),
    "cli-profiles": (cli_profiles, cli_warmup),
}
