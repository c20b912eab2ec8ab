"""Command-line front end and the plain-text instance/witness formats.

Instance files are line oriented UTF-8; ``#`` starts a comment.  One
``alpha`` or ``family`` directive picks the scoring rule, exactly one
``p`` names the candidate to promote, each ``s`` line is a fixed voter
(weight then a full ballot), and each ``t`` line is one coalition weight.
Witness files carry one ``t-vote <index> <ballot>`` line per coalition
voter.  All integers are decimal and may be arbitrarily long up to the
interpreter's integer-string limit (``sys.get_int_max_str_digits()``,
4300 digits by default).  That limit also bounds every integer the
commands print, such as the scores ``evaluate`` prints or the weights of a
reduced instance; a longer one is reported with its digit count.

The parsers check only the grammar; the library types the text builds
check their own values, and the instance checks witness ballots as it casts
them.  Every error is one ``error: ...`` line on stderr.  Exit codes:
0 = yes/pass/success, 1 = no/fail, 2 = usage or parse error, 3 = search
budget exhausted.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Iterator

from .core import (
    ElectionError,
    InvalidInstance,
    ManipulationInstance,
    NonMonotoneAlpha,
    Order,
    ScoringVector,
    WeightedVote,
    tally,
    unique_winner,
    winners,
)
from .dichotomy import (
    DichotomyClass,
    RuleClass,
    ScoringFamily,
    UnsupportedM,
    classify,
    classify_family,
    family_vector,
)
from .manipulation import DEFAULT_NODE_CAP, CapExhausted, solve
from .reduction import (
    NotAWinner,
    PartitionInstance,
    ReductionArtifact,
    extract_witness,
    reduce_partition,
    verify_reduction,
)


class ParseError(ElectionError):
    """Malformed instance or witness text; carries the offending line."""

    def __init__(self, line: int | None, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def _lines(text: str) -> Iterator[tuple[int, list[str]]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def _int(token: str, lineno: int | None, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        pass
    digits = token.lstrip("+-")
    if len(token) - len(digits) <= 1 and digits.isdecimal():
        # well formed, but longer than int() may convert
        raise ParseError(
            lineno,
            f"{what} {token[:12]}... has {len(digits)} digits, more than this "
            f"interpreter's limit of {sys.get_int_max_str_digits()}",
        )
    raise ParseError(lineno, f"{what} must be an integer, got {token!r}")


def _decimal(n: int, what: str) -> str:
    """``str(n)``; an integer too long for it is a ParseError naming its digits."""
    try:
        return str(n)
    except ValueError:
        pass
    size = abs(n)
    digits = max(1, int((size.bit_length() - 1) * math.log10(2)))  # at most the true count
    while size >= 10**digits:
        digits += 1
    raise ParseError(
        None,
        f"{what} has {digits} digits, more than this interpreter's limit of "
        f"{sys.get_int_max_str_digits()} for printing it",
    )


def _vector(tokens: list[str], lineno: int | None, what: str) -> ScoringVector:
    """The scoring vector the tokens spell; a bad vector is a ParseError."""
    try:
        return ScoringVector(tuple(_int(t, lineno, what) for t in tokens))
    except NonMonotoneAlpha as exc:
        raise ParseError(lineno, f"NonMonotoneAlpha: {exc}") from None


_FAMILY_NAMES = ("plurality", "borda", "veto", "half-approval", "k-approval", "constant")
_FAMILY_PARAM = {"k-approval": "k", "constant": "value"}  # field that ":<integer>" sets


def parse_family_name(name: str, lineno: int | None = None) -> ScoringFamily:
    """Family from its CLI name: plurality, borda, veto, k-approval:<k>,
    half-approval, or constant:<c>.  ScoringFamily checks the values."""
    base, _, arg = name.partition(":")
    if base not in _FAMILY_NAMES:
        raise ParseError(lineno, f"unknown family {name!r}")
    if arg and base not in _FAMILY_PARAM:
        raise ParseError(lineno, f"family {base} takes no parameter")
    params = {_FAMILY_PARAM[base]: _int(arg, lineno, f"{base} parameter")} if arg else {}
    try:
        return ScoringFamily(base, **params)
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None


# WeightedVote from a (weight, order) pair whose order is a plain tuple,
# without the conversion WeightedVote() runs in Python for each vote
_vote = functools.partial(tuple.__new__, WeightedVote)


def parse_instance(text: str) -> ManipulationInstance:
    """Parse instance text, resolving families; the instance checks itself.

    One pass over the lines does the work per voter once.  A comment is
    cut only from a line holding ``#``, and ``s`` lines, nearly all the
    lines of a large file, are tested for first and split only as far as
    the weight; the rest of the line, spacing included, is the ballot
    text.  Orders are shared per ballot text, so a repeated ballot is
    split and converted once and its voters hold the same order tuple.
    The orders are plain tuples already, so the fixed voters are built in
    one call that runs no Python code per voter (:data:`_vote`).

    Problems are reported as a ParseError carrying the line.  A bad
    ``alpha`` or ``family`` line is reported when it is parsed; of the
    issues the instance raises when it is built (see
    :func:`votemanip.core.require_valid`), the one on the earliest line
    is reported.
    """
    alpha: ScoringVector | None = None
    p_val: int | None = None
    p_line: int | None = None
    s_lines: list[int] = []
    s_weights: list[int] = []
    s_orders: list[Order] = []
    orders: dict[str, Order] = {}  # ballot text -> parsed order
    t_rows: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split(None, 2)
        if not parts:
            continue
        keyword = parts[0]
        if keyword == "s":
            if len(parts) < 3:
                raise ParseError(lineno, "s needs a weight and a full ballot")
            try:
                weight = int(parts[1])
            except ValueError:
                weight = _int(parts[1], lineno, "voter weight")  # raises, naming the problem
            ballot = parts[2]
            order = orders.get(ballot)
            if order is None:
                tokens = ballot.split()
                try:
                    order = tuple(map(int, tokens))
                except ValueError:  # _int names the first bad token and raises
                    order = tuple(_int(t, lineno, "ballot candidate") for t in tokens)
                orders[ballot] = order
            s_lines.append(lineno)
            s_weights.append(weight)
            s_orders.append(order)
            continue
        tokens = line.split()
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
            tuple(map(_vote, zip(s_weights, s_orders))),
            tuple(w for _, w in t_rows),
            p_val,
        )
    except InvalidInstance as exc:
        def issue_line(where: str) -> int:
            if where == "p":
                return p_line or 0
            index = int(where[2:-1]) - 1
            return s_lines[index] if where[0] == "s" else t_rows[index][0]

        first = min(exc.issues, key=lambda issue: issue_line(issue.where))
        raise ParseError(issue_line(first.where), f"{first.code}: {first.message}") from None


def serialize_instance(inst: ManipulationInstance) -> str:
    """Canonical text form: alpha, p, s lines, t lines."""
    vec = inst.alpha
    lines = ["alpha " + " ".join(_decimal(x, "alpha entry") for x in vec.entries), f"p {inst.p}"]
    lines += [
        f"s {_decimal(v.weight, 'voter weight')} " + " ".join(map(str, v.order))
        for v in inst.s_voters
    ]
    lines += [f"t {_decimal(w, 'coalition weight')}" for w in inst.t_weights]
    return "\n".join(lines) + "\n"


def parse_witness(text: str, count: int, m: int) -> tuple[Order, ...]:
    """One ballot per voter 1..count, each an index then m candidates; the instance checks them."""
    ballots: dict[int, Order] = {}
    for lineno, tokens in _lines(text):
        if tokens[0] != "t-vote":
            raise ParseError(lineno, f"unknown directive {tokens[0]!r}")
        if len(tokens) != 2 + m:
            raise ParseError(lineno, f"t-vote needs an index and {m} candidates")
        index = _int(tokens[1], lineno, "coalition voter index")
        if not 1 <= index <= count:
            raise ParseError(lineno, f"coalition voter index {index} outside 1..{count}")
        if index in ballots:
            raise ParseError(lineno, f"duplicate ballot for coalition voter {index}")
        ballots[index] = tuple(_int(t, lineno, "ballot candidate") for t in tokens[2:])
    if len(ballots) != count:
        raise ParseError(None, f"witness covers {len(ballots)} of {count} coalition voters")
    return tuple(ballots[i] for i in range(1, count + 1))


def serialize_witness(orders: tuple[Order, ...]) -> str:
    lines = [f"t-vote {i} " + " ".join(map(str, o)) for i, o in enumerate(orders, start=1)]
    return "\n".join(lines) + ("\n" if lines else "")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _vector_arg(text: str) -> ScoringVector:
    return _vector(text.split(), None, "scoring vector entry")


def _partition_arg(text: str) -> PartitionInstance:
    return PartitionInstance(tuple(_int(t, None, "partition integer") for t in text.split()))


def _class_line(dc: DichotomyClass) -> str:
    if dc.tag is RuleClass.HARD:
        return f"Hard ℓ={dc.ell} r={dc.r}"
    return dc.tag.value


def _artifact_text(art: ReductionArtifact) -> str:
    rm = art.role_map
    roles = " ".join(f"{rm.role_name(c)}={c}" for c in range(1, rm.m + 1))
    header = (
        f"# reduction case={art.case.value} ell={art.ell} r={art.r} "
        f"target={_decimal(art.target, 'target')} "
        f"equalizer-weight={_decimal(art.equalizer_weight, 'equalizer weight')} "
        f"t-unit={_decimal(art.t_unit, 't-unit')}\n"
        f"# partition ks={' '.join(_decimal(k, 'partition integer') for k in art.source.ks)}\n"
        f"# roles {roles}\n"
    )
    return header + serialize_instance(art.instance)


def _cmd_classify(args: argparse.Namespace) -> int:
    if args.alpha is not None:
        if args.m is not None:
            raise ParseError(None, "--m goes with --family; a --alpha vector has its own size")
        print(_class_line(classify(_vector_arg(args.alpha))))
        return 0
    fam = parse_family_name(args.family)
    if args.m is not None:
        print(_class_line(classify(family_vector(fam, args.m))))
    else:
        fc = classify_family(fam)
        if fc.always_easy:
            print("P for all m")
        else:
            print(f"NP-hard for m >= {fc.hard_from}; P for smaller m")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.instance))
    vec = inst.alpha
    orders: tuple[Order, ...] = ()
    if args.witness is not None:
        orders = parse_witness(_read(args.witness), len(inst.t_weights), vec.m)
    elif inst.t_weights:
        raise ParseError(
            None, "instance has coalition voters; supply their ballots with --witness"
        )
    table = tally(inst.profile(orders), vec)
    scores = [_decimal(table[c], f"score of candidate {c}") for c in range(1, vec.m + 1)]
    for c, score in enumerate(scores, start=1):
        print(f"score {c} {score}")
    print("winners " + " ".join(map(str, sorted(winners(table)))))
    top = unique_winner(table)
    print(f"unique {top if top is not None else 'none'}")
    return 0


def _cmd_manipulate(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.instance))
    answer = solve(inst, unique=args.unique, node_cap=args.cap)
    print("yes" if answer.decision else "no")
    if answer.decision:
        text = serialize_witness(answer.witness)
        sys.stdout.write(text)
        if args.witness_out:
            _write(args.witness_out, text)
    return 0 if answer.decision else 1


def _cmd_reduce(args: argparse.Namespace) -> int:
    art = reduce_partition(_vector_arg(args.alpha), _partition_arg(args.partition))
    text = _artifact_text(art)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    art = reduce_partition(_vector_arg(args.alpha), _partition_arg(args.partition))
    orders = parse_witness(_read(args.witness), len(art.instance.t_weights), art.role_map.m)
    subset = extract_witness(art, orders)
    print("indices " + " ".join(map(str, sorted(subset))))
    print(f"sum {_decimal(sum(art.source.ks[i - 1] for i in subset), 'subset sum')}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_reduction(
        _vector_arg(args.alpha), _partition_arg(args.partition), node_cap=args.cap
    )
    art = report.artifact
    print(f"case {art.case.value} ell={art.ell} r={art.r} target={_decimal(art.target, 'target')}")
    if report.partition_witness is None:
        print("partition no")
    else:
        print("partition yes")
        print("partition-witness " + " ".join(map(str, sorted(report.partition_witness))))
        print(f"forward-unique-winner {'yes' if report.forward_unique else 'no'}")
    print(f"manipulation {'yes' if report.mp.decision else 'no'}")
    print(f"unique-manipulation {'yes' if report.ump.decision else 'no'}")
    if report.extracted is not None:
        print("extracted-indices " + " ".join(map(str, sorted(report.extracted))))
        print(f"extracted-sum {_decimal(report.extracted_sum, 'extracted sum')}")
        if report.extraction_from_tie:
            print("extraction-from-tie yes")
    print(f"verdict {'pass' if report.passed else 'fail'}")
    return 0 if report.passed else 1


def _cmd_family(args: argparse.Namespace) -> int:
    vec = family_vector(parse_family_name(args.name), args.m)
    print(" ".join(map(str, vec.entries)))
    return 0


@functools.cache  # parse_args leaves the parser unchanged, so one per process serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="votemanip",
        description="Weighted scoring-rule elections: evaluation, manipulation, reductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # options several subcommands share, each declared once
    gadget = argparse.ArgumentParser(add_help=False)
    gadget.add_argument("--alpha", required=True, help="hard scoring vector")
    gadget.add_argument("--partition", required=True, help="space-separated positive integers")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_NODE_CAP,
        help="search budget in terminals (an integer >= 0): evaluated leaves plus cut branches",
    )

    c = sub.add_parser("classify", help="complexity class of a vector or family")
    rule = c.add_mutually_exclusive_group(required=True)
    rule.add_argument("--alpha", help="space-separated entries, e.g. '2 1 0'")
    rule.add_argument("--family", help="family name, e.g. borda or k-approval:2")
    c.add_argument("--m", type=int, help="candidate count (with --family)")
    c.set_defaults(func=_cmd_classify)

    e = sub.add_parser("evaluate", help="scores and winners of an instance")
    e.add_argument("instance", help="instance file, or - for stdin")
    e.add_argument("--witness", help="coalition ballots file (required when t lines exist)")
    e.set_defaults(func=_cmd_evaluate)

    man = sub.add_parser("manipulate", parents=[budget], help="decide coalition manipulation")
    man.add_argument("instance", help="instance file, or - for stdin")
    man.add_argument("--unique", action="store_true", help="require a strict unique win")
    man.add_argument("--witness-out", help="also write the witness ballots to this file")
    man.set_defaults(func=_cmd_manipulate)

    red = sub.add_parser(
        "reduce", parents=[gadget], help="partition instance to manipulation instance"
    )
    red.add_argument("--out", help="write the instance here instead of stdout")
    red.set_defaults(func=_cmd_reduce)

    ext = sub.add_parser(
        "extract-witness", parents=[gadget], help="subset encoded by winning coalition ballots"
    )
    ext.add_argument("--witness", required=True, help="coalition ballots file")
    ext.set_defaults(func=_cmd_extract)

    ver = sub.add_parser(
        "verify", parents=[gadget, budget], help="end-to-end reduction cross-check"
    )
    ver.set_defaults(func=_cmd_verify)

    fam = sub.add_parser("family", help="print a family's vector at a given size")
    fam.add_argument("--name", required=True, help="family name, e.g. borda")
    fam.add_argument("--m", required=True, type=int, help="candidate count")
    fam.set_defaults(func=_cmd_family)
    return parser


def run_command(argv: list[str] | None = None) -> int:
    """Run one subcommand; print any error as one ``error:`` line and map it to an exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ElectionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CapExhausted):
            return 3
        return 1 if isinstance(exc, NotAWinner) else 2


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
