#!/usr/bin/env python3
"""Benchmark of the EEL edit pipeline, one workload per run.

    python3 perfbench/run.py --workload edit_corpus --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The line before it is a detail record: the workload's
own named metrics, the effective configuration and a host fingerprint.
Both are also written under ``.perfbench/``.  See README.md here.
"""

import argparse
import importlib
import json
import os
import random
import signal
import sys
from time import perf_counter as clock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import spans  # noqa: E402

# Each workload is a module here providing ``State(recorder, seed)``
# (set-up; has ``inputs`` and ``close()``), ``next_round(state, rng)``,
# ``run_round(state, work, recorder, tally)`` and ``named_metrics(state,
# ops_per_s, tally)``; optionally ``check_outputs(state, tally)`` and
# ``remote_layers(state, operations)``.
WORKLOADS = ("edit_corpus", "run_verify", "serve_fleet", "cli_cold",
             "fuzz_meta")
SETUPS = 3  # set-ups per run; setup_s is their median

# Public functions the program calls internally, timed from outside
# during traced rounds: (module, attribute, layer).
LAYER_TARGETS = (
    ("repro.binfmt.serialize", "image_from_bytes", "binfmt.read"),
    ("repro.binfmt.serialize", "image_to_bytes", "binfmt.write"),
    ("repro.core.executable", "Executable.read_contents", "core.analyze"),
    ("repro.core.trust", "attempt", "core.trust"),
    ("repro.core.executable", "Executable.edited_image", "core.layout"),
    ("repro.tools.qpt", "QptProfiler.run", "tools.qpt"),
    ("repro.tools.sfi", "Sandboxer.instrument", "tools.sfi"),
    ("repro.tools.elsie", "ElsieSimulatorBuilder.instrument", "tools.elsie"),
    ("repro.tools.active_memory", "ActiveMemory.instrument",
     "tools.active_memory"),
    ("repro.sim.machine", "Simulator.run", "sim.run"),
    # Co-simulation steps each side with the block engine's run_until.
    ("repro.sim.blocks", "_BlockMixin.run_until", "sim.run"),
    ("repro.verify", "verify_session", "verify.session"),
    ("repro.fuzz.campaign", "plan_to_program", "fuzz.gen"),
    ("repro.fuzz.gen", "assemble", "asm.assemble"),
    ("repro.fuzz.check", "check_manifest", "fuzz.check"),
)

# Figures only the serving workload measures (from the fleet's stats op
# and interpreter start-up); 0 elsewhere.
SERVE_LAYERS = ("serve.routines.p50_ms", "serve.instrument.p50_ms",
                "serve.run.p50_ms", "serve.queue_wait_p99_ms",
                "fleet.queue_wait_p99_ms", "fleet.retries", "fleet.rejected",
                "cli.import_s")


class Interrupted(Exception):
    """SIGTERM or SIGINT: unwind so that every ``finally`` runs."""


def _interrupt(signum, frame):
    raise Interrupted("signal %d" % signum)


def per_layer(op_layers, ops, setup_layers, setups, counts, count_ops,
              setup_counts, extra, overhead_pct):
    """The per-layer metrics of a traced run.

    Times and counts are per operation.  A layer that only set-up uses
    is reported per set-up instead: the compiler's time, and the
    *setup_counts* of work a workload does in set-up for its operations
    (the edits ``run_verify`` prepares).  Ratios are over the same work.
    """
    def seconds(layer):
        if layer in op_layers:
            return op_layers[layer] / ops
        return setup_layers.get(layer, 0.0) / setups

    def source(*names):
        if any(counts.get(name) for name in names):
            return counts, count_ops
        return setup_counts, 1

    def count(name):
        table, per = source(name)
        return table.get(name, 0) / per if per else 0.0

    def share(part, *whole):
        table, _ = source(*whole)
        return common.ratio(table.get(part, 0),
                            sum(table.get(name, 0) for name in whole))

    metrics = {
        "minic.compile_s": (seconds("minic.compile"), "s"),
        "asm.assemble_s": (seconds("asm.assemble"), "s"),
        "binfmt.read_s": (seconds("binfmt.read"), "s"),
        "binfmt.write_s": (seconds("binfmt.write"), "s"),
        "core.analyze_s": (seconds("core.analyze"), "s"),
        "core.refine.routines": (count("refine.routines"), "count"),
        "core.refine.hidden": (count("refine.hidden"), "count"),
        "core.cfg.builds": (count("cfg.builds"), "count"),
        "core.cfg.blocks": (count("cfg.blocks"), "count"),
        "core.trust_s": (seconds("core.trust"), "s"),
        "core.trust.accept_ratio": (share("meta.trusted", "meta.present"),
                                    "ratio"),
        "tools.instrument_s": (sum(seconds("tools." + tool)
                                   for tool in common.SPARC_TOOLS), "s"),
    }
    for tool in common.SPARC_TOOLS:
        metrics["tools.%s.instrument_s" % tool] = (seconds("tools." + tool),
                                                   "s")
    metrics.update({
        "tools.qpt.counters_placed": (count("qpt.counters_placed"), "count"),
        "core.layout_s": (seconds("core.layout"), "s"),
        "core.layout.long_branches": (count("layout.long_branches"),
                                      "count"),
        "core.layout.stubs": (count("layout.stubs"), "count"),
        "core.layout.trampolines": (count("layout.trampolines"), "count"),
        "core.regalloc.spilled": (count("regalloc.spilled"), "count"),
        "core.regalloc.spill_ratio": (share("regalloc.spilled",
                                            "regalloc.allocations"), "ratio"),
        "sim.run_s": (seconds("sim.run"), "s"),
        "sim.instructions": (count("sim.instructions"), "count"),
        "sim.blocks.compiles": (count("sim.blocks.compiles"), "count"),
        "sim.blocks.hit_ratio": (share("sim.blocks.hits", "sim.blocks.hits",
                                       "sim.blocks.misses"), "ratio"),
        "verify.session_s": (seconds("verify.session"), "s"),
        "verify.cosim_syncs": (count("verify.cosim_syncs"), "count"),
        "cache.hit_ratio": (share("cache.hits", "cache.hits",
                                  "cache.misses"), "ratio"),
    })
    for name in SERVE_LAYERS:
        unit = "count" if name.startswith("fleet.r") else \
            "ms" if name.endswith("_ms") else "s"
        metrics[name] = (extra.get(name, 0.0), unit)
    metrics.update({
        "fuzz.gen_s": (seconds("fuzz.gen"), "s"),
        "fuzz.check_s": (seconds("fuzz.check"), "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return metrics


def traced_round(workload, state, work, recorder, patches, tally, counts):
    """Run one round with spans on; add its counter deltas to *counts*
    and return its duration."""
    before = common.counters()
    patches.install()
    recorder.enabled = True
    begin = clock()
    try:
        workload.run_round(state, work, recorder, tally)
    finally:
        seconds = clock() - begin
        recorder.enabled = False
        patches.uninstall()
    for name, delta in common.counter_delta(before,
                                            common.counters()).items():
        counts[name] = counts.get(name, 0) + delta
    return seconds


def measure(workload, state, args, recorder, tally):
    """Run rounds for the window; in a traced run each round runs twice,
    untraced and traced, so that the difference is the overhead."""
    rng = random.Random(args.seed)
    patches = spans.LayerPatches(recorder, LAYER_TARGETS)
    counts = {}
    plain_s = traced_s = 0.0
    rounds = []  # (operations, seconds) of each untraced round
    first = None
    start = clock()
    while not rounds or clock() - start < args.seconds:
        work = workload.next_round(state, rng)
        if first is None:
            first = common.digest(repr(list(work)).encode())
        # Alternate which copy runs first, so that caches the first copy
        # warms do not bias the overhead either way.
        traced_first = bool(args.trace) and len(rounds) % 2 == 1
        if traced_first:
            traced_s += traced_round(workload, state, work, recorder,
                                     patches, tally, counts)
        done = len(tally.latencies)
        begin = clock()
        workload.run_round(state, work, recorder, tally)
        rounds.append((len(tally.latencies) - done, clock() - begin))
        plain_s += rounds[-1][1]
        if args.trace and not traced_first:
            traced_s += traced_round(workload, state, work, recorder,
                                     patches, tally, counts)
    window_s = clock() - start
    overhead = (traced_s / plain_s - 1.0) * 100.0 if plain_s else 0.0
    return window_s, rounds, first, counts, overhead


def set_up(workload, args, recorder):
    """Set up SETUPS times; returns the last state and the times."""
    times = []
    state = None
    try:
        while len(times) < SETUPS:
            if state is not None:
                state.close()
                state = None
            recorder.enabled = bool(args.trace)
            begin = clock()
            with recorder.span("setup"):
                state = workload.State(recorder, args.seed)
            times.append(clock() - begin)
            recorder.enabled = False
    except BaseException:
        if state is not None:
            state.close()
        raise
    return state, times


def run(args):
    common.pin_environment()
    workload = importlib.import_module(args.workload)
    recorder = spans.Recorder()
    tally = common.Tally()
    detail = {"perfbench": 1, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": common.host_fingerprint(),
              "config": common.effective_config()}
    state, setup_times = set_up(workload, args, recorder)
    try:
        window_s, rounds, first, counts, overhead = measure(
            workload, state, args, recorder, tally)
        if hasattr(workload, "check_outputs"):  # checks made after rounds
            workload.check_outputs(state, tally)
        # Throughput over whole rounds only, so every input counts
        # equally often; traced copies of rounds are not timed here.
        rate = sum(n for n, _ in rounds) / sum(t for _, t in rounds)
        named = workload.named_metrics(state, rate, tally)
        remote = None
        if args.trace and hasattr(workload, "remote_layers"):
            remote = workload.remote_layers(state, len(tally.latencies))
    finally:
        # A second signal must not cut the fleet's shutdown short.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        state.close()
    setup_s = common.median(setup_times)
    rss = common.peak_rss_mb()
    named.update({
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "failed_ratio": (common.ratio(tally.failed, tally.attempted),
                         "ratio"),
    })
    ops, op_layers, violations = spans.summarize(recorder.spans, "op")
    if args.trace:
        _, setup_layers, setup_violations = spans.summarize(recorder.spans,
                                                            "setup")
        violations += setup_violations
        count_ops, extra = ops, {}
        if remote is not None:
            counts, count_ops, extra = remote
        metrics = per_layer(op_layers, ops, setup_layers, len(setup_times),
                            counts, count_ops,
                            getattr(state, "setup_counts", {}), extra,
                            overhead)
    else:
        latencies = tally.latencies
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss, "MB"),
            "ops_per_s": (rate, "1/s"),
            "op_p50_ms": (common.percentile(latencies, 0.5) * 1e3, "ms"),
            "op_p90_ms": (common.percentile(latencies, 0.9) * 1e3, "ms"),
        }
    detail.update({
        "inputs": state.inputs, "window_s": window_s, "rounds": rounds,
        "first_round": first, "operations": len(tally.latencies),
        "setup_runs_s": setup_times,
        "named": {name: {"value": value, "unit": unit}
                  for name, (value, unit) in named.items()},
        "span_violations": violations, "errors": tally.errors,
    })
    result = {
        "correct": tally.failed == 0 and violations == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    stem = os.path.join(common.WORK, "results", "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    os.makedirs(os.path.dirname(stem), exist_ok=True)
    with open(stem + ".json", "w") as handle:
        json.dump({"detail": detail, "result": result,
                   "operations": list(zip(map(repr, tally.keys),
                                          tally.latencies))}, handle, indent=1)
    if args.trace:
        recorder.dump(stem + ".spans.jsonl")
    for message in tally.errors:
        print("perfbench: FAILED: %s" % message, file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(common.SRC, "repro", "__init__.py")):
        print("perfbench: no program source at %s; run from the root of "
              "a checkout" % common.SRC, file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGINT, _interrupt)
    if args.workload == "serve_fleet":
        importlib.import_module("serve_fleet").set_subreaper()
    try:
        return run(args)
    except Interrupted as error:
        print("perfbench: interrupted (%s)" % error, file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
