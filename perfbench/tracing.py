"""Per-layer spans recorded from outside the program.

Every traced function is replaced, at each ``votemanip`` module attribute
bound to it, by one wrapper that records a span: name, start, end, parent
span and the op it belongs to.  Spans stay in memory until the run ends.
A function missing from its defining module fails the traced run.
"""

from __future__ import annotations

import sys
import time

# Traced functions as "<module>.<function>", named by the module that
# defines them; the module name doubles as the layer name.
TRACED = (
    "cli.run_command",
    "cli.parse_instance",
    "cli.parse_witness",
    "cli.serialize_witness",
    "core.require_valid",
    "core.tally",
    "core.winners",
    "dichotomy.classify",
    "manipulation.solve",
    "manipulation.solve_all_equal",
    "manipulation.solve_plurality_like",
    "manipulation.brute_force",
    "reduction.verify_reduction",
    "reduction.reduce_partition",
    "reduction.solve_partition",
    "reduction.forward_witness",
    "reduction.extract_witness",
)

# Answer modes the solver reports, keyed to route counter names.
ROUTES = {"brute-force": "search", "plurality-like": "plurality_like", "all-equal": "all_equal"}

# Layer metric -> {workload: end-to-end metrics it should move}, printed
# with every traced run.
MOVES = {
    "manipulation.brute_force.*": {
        "reduction-verify": ["battery_s", "op_ms_p90", "decided_frac"],
        "wide-approval": ["battery_s", "op_ms_p50", "peak_rss_mb"],
        "cli-profiles": [],
    },
    "manipulation.{solve,solve_all_equal,solve_plurality_like}.self_s, manipulation.route.*": {
        "cli-profiles": ["op_ms_p50"],
    },
    "cli.*.self_s, core.*.self_s, core.tally.{calls,ballots}": {
        "cli-profiles": ["op_ms_p50", "battery_s"],
    },
    "dichotomy.classify.*": {},
    "reduction.*.self_s": {"reduction-verify": ["battery_s"]},
}


class MissingFunction(RuntimeError):
    """A traced function no longer exists where the benchmark expects it."""


PACKAGE = "votemanip"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end, outcome, child_s)
        self.counts: dict[str, int] = {}
        self.op = None
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0

    def install(self) -> None:
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        for qual in TRACED:
            layer, func = qual.split(".")
            home = mods.get(f"{PACKAGE}.{layer}")
            original = getattr(home, func, None) if home is not None else None
            if not callable(original):
                raise MissingFunction(f"{PACKAGE}.{qual} is missing; cannot trace it")
            wrapper = self._wrap(qual, original)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, qual, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if qual == "core.tally":
                votes = args[0] if args else kwargs["votes"]
                if not hasattr(votes, "__len__"):
                    votes = tuple(votes)
                    args = (votes,) + args[1:]
                self._count("core.tally.ballots", len(votes))
            self._count(qual + ".calls")
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append([sid, 0.0])
            outcome = "ok"
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                outcome = type(exc).__name__
                raise
            finally:
                end = clock()
                _, child = self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans.append((sid, parent, self.op, qual, start, end, outcome, child))
            if qual == "manipulation.solve":
                self._count("manipulation.route." + ROUTES.get(result.mode, result.mode))
            return result

        traced.__wrapped__ = fn
        return traced

    def self_seconds(self) -> dict[str, float]:
        """Span duration minus the time its child spans cover, summed per name."""
        out = {qual: 0.0 for qual in TRACED}
        for _sid, _parent, _op, qual, start, end, _outcome, child in self.spans:
            out[qual] += (end - start) - child
        return out

    def outcomes(self, qual: str, outcome: str) -> int:
        return sum(1 for s in self.spans if s[3] == qual and s[6] == outcome)

    def dump(self) -> list[dict]:
        keys = ("id", "parent", "op", "name", "start", "end", "outcome", "child_s")
        return [dict(zip(keys, span)) for span in self.spans]
