"""Command-line front end and the plain-text instance/witness formats.

Instance files are line oriented UTF-8; ``#`` starts a comment.  One
``alpha`` or ``family`` directive picks the scoring rule, exactly one
``p`` names the candidate to promote, each ``s`` line is a fixed voter
(weight then a full ballot), and each ``t`` line is one coalition weight.
Witness files carry one ``t-vote <index> <ballot>`` line per coalition
voter.  All integers are decimal and may be arbitrarily long up to the
interpreter's integer-string limit (``sys.get_int_max_str_digits()``,
4300 digits by default); that limit also bounds the scores ``evaluate``
prints.

Exit codes: 0 = yes/pass/success, 1 = no/fail, 2 = usage or parse error,
3 = search budget exhausted.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Iterator

from .core import (
    ElectionError,
    ManipulationInstance,
    Order,
    ScoringVector,
    WeightedVote,
    is_permutation,
    tally,
    unique_winner,
    validate_instance,
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


def parse_family_name(name: str, lineno: int | None = None) -> ScoringFamily:
    """Family from its CLI name: plurality, borda, veto, k-approval:<k>,
    half-approval, or constant:<c>."""
    base, _, arg = name.partition(":")
    if base in ("plurality", "borda", "veto", "half-approval"):
        if arg:
            raise ParseError(lineno, f"family {base} takes no parameter")
        return ScoringFamily(base)
    if base == "k-approval":
        k = _int(arg, lineno, "k-approval block size") if arg else None
        if k is None or k < 1:
            raise ParseError(lineno, "k-approval needs a block size >= 1, e.g. k-approval:2")
        return ScoringFamily.k_approval(k)
    if base == "constant":
        if not arg:
            raise ParseError(lineno, "constant needs a value, e.g. constant:3")
        return ScoringFamily.constant(_int(arg, lineno, "constant value"))
    raise ParseError(lineno, f"unknown family {name!r}")


def parse_instance(text: str) -> ManipulationInstance:
    """Parse instance text, resolving families and validating.

    The first problem (by line) is reported as a ParseError; structural
    checks are delegated to :func:`votemanip.core.validate_instance` and
    mapped back to the offending line.
    """
    alpha: ScoringVector | None = None
    alpha_line: int | None = None
    p_val: int | None = None
    p_line: int | None = None
    s_rows: list[tuple[int, int, Order]] = []
    orders: dict[tuple[str, ...], Order] = {}  # ballot tokens -> parsed order
    t_rows: list[tuple[int, int]] = []
    for lineno, tokens in _lines(text):
        keyword = tokens[0]
        if keyword in ("alpha", "family"):
            if alpha is not None:
                raise ParseError(lineno, "duplicate scoring-rule directive")
            if keyword == "alpha":
                if len(tokens) < 2:
                    raise ParseError(lineno, "alpha needs at least one entry")
                alpha = ScoringVector(
                    tuple(_int(t, lineno, "alpha entry") for t in tokens[1:])
                )
            else:
                if len(tokens) != 3:
                    raise ParseError(lineno, "family needs a name and a candidate count")
                fam = parse_family_name(tokens[1], lineno)
                m = _int(tokens[2], lineno, "candidate count")
                try:
                    alpha = family_vector(fam, m)
                except UnsupportedM as exc:
                    raise ParseError(lineno, str(exc)) from None
            alpha_line = lineno
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
    inst = ManipulationInstance(
        alpha,
        tuple(WeightedVote(w, o) for _, w, o in s_rows),
        tuple(w for _, w in t_rows),
        p_val,
    )
    issues = validate_instance(inst)
    if issues:
        def issue_line(where: str) -> int:
            if where == "alpha":
                return alpha_line or 0
            if where == "p":
                return p_line or 0
            kind, index = where[0], int(where[2:-1])
            rows = s_rows if kind == "s" else t_rows
            return rows[index - 1][0]

        first = min(issues, key=lambda issue: issue_line(issue.where))
        raise ParseError(issue_line(first.where), f"{first.code}: {first.message}")
    return inst


def serialize_instance(inst: ManipulationInstance) -> str:
    """Canonical text form: alpha, p, s lines, t lines."""
    vec = inst.alpha
    if not isinstance(vec, ScoringVector):
        raise TypeError("resolve the scoring family to a vector before serializing")
    lines = ["alpha " + " ".join(map(str, vec.entries)), f"p {inst.p}"]
    lines += [f"s {v.weight} " + " ".join(map(str, v.order)) for v in inst.s_voters]
    lines += [f"t {w}" for w in inst.t_weights]
    return "\n".join(lines) + "\n"


def parse_witness(text: str, count: int, m: int) -> tuple[Order, ...]:
    """Parse coalition ballots; every voter 1..count must appear once."""
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
        order = tuple(_int(t, lineno, "ballot candidate") for t in tokens[2:])
        if not is_permutation(order, m):
            raise ParseError(lineno, f"ballot {order} is not a permutation of 1..{m}")
        ballots[index] = order
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
    tokens = text.split()
    if not tokens:
        raise ParseError(None, "empty scoring vector")
    vec = ScoringVector(tuple(_int(t, None, "scoring vector entry") for t in tokens))
    if not vec.is_nonincreasing():
        raise ParseError(None, f"NonMonotoneAlpha: entries must be nonincreasing, got {vec.entries}")
    return vec


def _partition_arg(text: str) -> PartitionInstance:
    tokens = text.split()
    if not tokens:
        raise ParseError(None, "empty partition instance")
    return PartitionInstance(tuple(_int(t, None, "partition integer") for t in tokens))


def _class_line(dc: DichotomyClass) -> str:
    if dc.tag is RuleClass.HARD:
        return f"Hard ℓ={dc.ell} r={dc.r}"
    return dc.tag.value


def _artifact_text(art: ReductionArtifact) -> str:
    rm = art.role_map
    roles = " ".join(f"{rm.role_name(c)}={c}" for c in range(1, rm.m + 1))
    header = (
        f"# reduction case={art.case.value} ell={art.ell} r={art.r} "
        f"target={art.target} equalizer-weight={art.equalizer_weight} t-unit={art.t_unit}\n"
        f"# partition ks={' '.join(map(str, art.source.ks))}\n"
        f"# roles {roles}\n"
    )
    return header + serialize_instance(art.instance)


def _cmd_classify(args: argparse.Namespace) -> int:
    if args.alpha is not None and args.family is not None:
        print("error: give --alpha or --family, not both", file=sys.stderr)
        return 2
    if args.alpha is not None:
        print(_class_line(classify(_vector_arg(args.alpha))))
        return 0
    if args.family is not None:
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
    print("error: classify needs --alpha or --family", file=sys.stderr)
    return 2


def _cmd_evaluate(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.instance))
    vec = inst.alpha  # parse_instance resolves families to vectors
    orders: tuple[Order, ...] = ()
    if inst.t_weights:
        if not args.witness:
            print(
                "error: instance has coalition voters; supply their ballots with --witness",
                file=sys.stderr,
            )
            return 2
        orders = parse_witness(_read(args.witness), len(inst.t_weights), vec.m)
    table = tally(inst.profile(orders), vec)
    for c in range(1, vec.m + 1):
        print(f"score {c} {table[c]}")
    print("winners " + " ".join(map(str, sorted(winners(table)))))
    top = unique_winner(table)
    print(f"unique {top if top is not None else 'none'}")
    return 0


def _cmd_manipulate(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.instance))
    answer = solve(inst, unique=args.unique, node_cap=args.cap)
    print("yes" if answer.decision else "no")
    if answer.decision and answer.witness is not None:
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
    print(f"sum {sum(art.source.ks[i - 1] for i in subset)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_reduction(
        _vector_arg(args.alpha), _partition_arg(args.partition), node_cap=args.cap
    )
    art = report.artifact
    print(f"case {art.case.value} ell={art.ell} r={art.r} target={art.target}")
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
        print(f"extracted-sum {report.extracted_sum}")
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

    c = sub.add_parser("classify", help="complexity class of a vector or family")
    c.add_argument("--alpha", help="space-separated entries, e.g. '2 1 0'")
    c.add_argument("--family", help="family name, e.g. borda or k-approval:2")
    c.add_argument("--m", type=int, help="candidate count (with --family)")
    c.set_defaults(func=_cmd_classify)

    e = sub.add_parser("evaluate", help="scores and winners of an instance")
    e.add_argument("instance", help="instance file, or - for stdin")
    e.add_argument("--witness", help="coalition ballots file (required when t lines exist)")
    e.set_defaults(func=_cmd_evaluate)

    man = sub.add_parser("manipulate", help="decide coalition manipulation")
    man.add_argument("instance", help="instance file, or - for stdin")
    man.add_argument("--unique", action="store_true", help="require a strict unique win")
    man.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_NODE_CAP,
        help="search budget in terminals: evaluated leaves plus cut branches",
    )
    man.add_argument("--witness-out", help="also write the witness ballots to this file")
    man.set_defaults(func=_cmd_manipulate)

    red = sub.add_parser("reduce", help="partition instance to manipulation instance")
    red.add_argument("--alpha", required=True, help="hard scoring vector")
    red.add_argument("--partition", required=True, help="space-separated positive integers")
    red.add_argument("--out", help="write the instance here instead of stdout")
    red.set_defaults(func=_cmd_reduce)

    ext = sub.add_parser("extract-witness", help="subset encoded by winning coalition ballots")
    ext.add_argument("--alpha", required=True, help="hard scoring vector")
    ext.add_argument("--partition", required=True, help="space-separated positive integers")
    ext.add_argument("--witness", required=True, help="coalition ballots file")
    ext.set_defaults(func=_cmd_extract)

    ver = sub.add_parser("verify", help="end-to-end reduction cross-check")
    ver.add_argument("--alpha", required=True, help="hard scoring vector")
    ver.add_argument("--partition", required=True, help="space-separated positive integers")
    ver.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_NODE_CAP,
        help="search budget in terminals: evaluated leaves plus cut branches",
    )
    ver.set_defaults(func=_cmd_verify)

    fam = sub.add_parser("family", help="print a family's vector at a given size")
    fam.add_argument("--name", required=True, help="family name, e.g. borda")
    fam.add_argument("--m", required=True, type=int, help="candidate count")
    fam.set_defaults(func=_cmd_family)
    return parser


def run_command(argv: list[str] | None = None) -> int:
    """Run one subcommand and translate outcomes into exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NotAWinner as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ElectionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
