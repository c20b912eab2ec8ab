#!/usr/bin/env python3
"""Time-to-decision benchmark for votemanip.

    python3 perfbench/run.py --workload reduction-verify --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory.  One process, no threads, one closed-loop client: each
op starts when the previous one returns.  A run sets up (imports, input
generation, instance files, warm-up) nine times, repeats the workload's
battery of ops while another fits in ``--seconds``, checks every answer
against independent oracles, and prints one JSON line last.  With
``--trace 0`` that line carries the end-to-end metrics; with ``--trace 1``
it carries per-layer metrics from a traced run, measured after an untraced
one in the same process.  ``--workload all`` runs each workload in its own
child process.  A mismatch against an oracle names the op and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUPS = 9
# A second seed, never used while tuning, that every later claim must also hold on.
HELD_OUT_SEED = 90210

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402

LAYER_MODULES = ("core", "dichotomy", "manipulation", "reduction", "cli")


class Lib:
    """Freshly imported ``votemanip`` modules."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "votemanip" or n.startswith("votemanip.")]:
            del sys.modules[name]
        pkg = importlib.import_module("votemanip")
        if not os.path.abspath(pkg.__file__).startswith(os.path.join(SRC, "votemanip") + os.sep):
            raise ImportError(f"votemanip imported from {pkg.__file__}, not from {SRC}")
        for layer in LAYER_MODULES:
            setattr(self, layer, importlib.import_module("votemanip." + layer))


def use_checkout_source():
    if not os.path.isfile(os.path.join(SRC, "votemanip", "__init__.py")):
        sys.exit(f"error: no votemanip package under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)


def setup(workload, seed, workdir):
    """Import, generate, write instance files and warm up; returns the ops."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    lib = Lib()
    generate, warmup = workloads.WORKLOADS[workload]
    ops = generate(lib, random.Random(f"{workload}:{seed}"), workdir)
    warmup(lib, workdir)
    return ops


class Timing:
    """Op latencies, battery wall times and per-op outcomes of one timed loop."""

    def __init__(self, ops):
        self.ops = ops
        self.samples: list[float] = []
        self.batteries: list[float] = []
        self.outcomes: list[tuple[str, object]] = []  # first run of each op
        self.decided = 0
        self.failed = 0

    def record(self, i, status, payload, seconds):
        self.samples.append(seconds)
        self.decided += status in workloads.DECIDED
        self.failed += status == "error"
        if len(self.outcomes) < len(self.ops):
            self.outcomes.append((status, payload))
        elif self.outcomes[i][0] != status:
            self.outcomes[i] = ("error", f"status {status} on a repeat, {self.outcomes[i][0]} before")


def measure(ops, seconds, tracer=None):
    """Repeat the battery while another one fits in ``seconds`` (at least once).

    Closed loop, one client: each op starts when the previous one returns.
    """
    timing = Timing(ops)
    clock = time.perf_counter
    deadline = clock() + seconds
    while not timing.batteries or clock() + statistics.median(timing.batteries) <= deadline:
        begin = clock()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = f"{len(timing.batteries)}:{i}"
            start = clock()
            status, payload = op.run()
            timing.record(i, status, payload, clock() - start)
        timing.batteries.append(clock() - begin)
    return timing


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(workload, seed):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg_dir = os.path.join(SRC, "votemanip")
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(pkg_dir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        importlib.import_module("votemanip._bruteforce")
        compiled = True
    except ImportError:
        compiled = False
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "node_cap": workloads.NODE_CAP,
        "compiled_core": compiled,
    }


def check_outcomes(ops, outcomes):
    """Oracle pass after all timing; returns mismatch lines naming each op."""
    bad = []
    for i, (op, (status, payload)) in enumerate(zip(ops, outcomes)):
        if status == "cap":
            continue  # undecided within the budget: counted by decided_frac
        if status == "error":
            bad.append(f"op {i} [{op.name}]: {payload}")
            continue
        try:
            problem = op.check(status, payload)
        except Exception as exc:  # an oracle crash is a failed check, reported per op
            problem = f"oracle raised {exc!r}"
        if problem:
            bad.append(f"op {i} [{op.name}]: {problem}")
    return bad


SHAPE_UNITS = {
    "ballots_per_voter": "count",
    "distinct_rows": "count",
    "search_space_log10": "log10",
}


def shape_metrics(ops):
    """Instance-shape counts computed from the inputs, not measured."""
    shaped = [op for op in ops if op.shape is not None]
    out = {
        f"manipulation.{key}": metric(statistics.median(op.shape[key] for op in shaped), unit)
        for key, unit in SHAPE_UNITS.items()
    }
    yes = sum(bool(op.expected) for op in shaped) / len(shaped)
    out["manipulation.yes_frac"] = metric(yes, "ratio")
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_one(args):
    use_checkout_source()
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    setup_times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        ops = setup(args.workload, args.seed, workdir)
        setup_times.append(time.perf_counter() - start)
    fp = fingerprint(args.workload, args.seed)

    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = measure(ops, seconds)
    rss = peak_rss_mb()
    timings = [plain]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        traced = measure(ops, seconds, tracer)
        timings.append(traced)
        for i, (old, new) in enumerate(zip(plain.outcomes, traced.outcomes)):
            if old[0] != new[0]:
                plain.outcomes[i] = ("error", f"status {new[0]} traced, {old[0]} untraced")

    bad = check_outcomes(ops, plain.outcomes)
    shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(t.samples) for t in timings)
    failed = sum(t.failed for t in timings)
    end_to_end = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "battery_s": metric(statistics.median(plain.batteries), "s"),
        "op_ms_p50": metric(quantile(plain.samples, 50) * 1000, "ms"),
        "op_ms_p90": metric(quantile(plain.samples, 90) * 1000, "ms"),
        "decided_frac": metric(plain.decided / len(plain.samples), "ratio"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    computed = shape_metrics(ops)
    if args.trace:
        overhead = statistics.median(traced.batteries) / statistics.median(plain.batteries) - 1
        metrics = {**layer_metrics(tracer, len(traced.batteries), overhead), **computed}
    else:
        metrics = end_to_end

    os.makedirs(WORK, exist_ok=True)
    stem = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    report = {
        "fingerprint": fp,
        "end_to_end": end_to_end,
        "metrics": metrics,
        "op_samples": len(plain.samples),
        "batteries": len(plain.batteries),
        "ops": [op.name for op in ops],
        "setup_s_each": setup_times,
        "mismatches": bad,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if tracer is not None:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)

    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print(f"workload {args.workload}: {len(ops)} ops per battery, {len(plain.batteries)} batteries, "
          f"{len(plain.samples)} op samples untraced (p50/p90 are over these), node_cap={workloads.NODE_CAP}")
    show = {**end_to_end, **metrics} if args.trace else end_to_end
    for name, m in show.items():
        label = "  (computed from the inputs)" if name in computed else ""
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}{label}")
    if args.trace:
        print("layer metric -> end-to-end metrics it should move, per workload:")
        for layer, moves in tracing.MOVES.items():
            print(f"  {layer}: {json.dumps(moves) if moves else 'negligible everywhere'}")
    for line in bad:
        print("oracle mismatch: " + line, file=sys.stderr)
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if bad else 0


def layer_metrics(tracer, n_batteries, overhead):
    """Per-battery self time and counts for every traced function."""
    per = 1.0 / n_batteries
    out = {}
    for qual, secs in tracer.self_seconds().items():
        out[qual + ".self_s"] = metric(secs * per, "s")
    for qual in ("manipulation.brute_force", "core.tally", "dichotomy.classify"):
        out[qual + ".calls"] = metric(tracer.counts.get(qual + ".calls", 0) * per, "count")
    out["core.tally.ballots"] = metric(tracer.counts.get("core.tally.ballots", 0) * per, "count")
    out["manipulation.brute_force.cap_exhausted"] = metric(
        tracer.outcomes("manipulation.brute_force", "CapExhausted") * per, "count"
    )
    for route in tracing.ROUTES.values():
        key = "manipulation.route." + route
        out[key] = metric(tracer.counts.get(key, 0) * per, "count")
    out["trace.overhead_frac"] = metric(overhead, "ratio")
    return out


def run_all(args):
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode or not lines:
            code = code or proc.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
