"""JSON export of telemetry with a stable, versioned schema.

The report is the machine-readable surface the benchmarks and the CLI
share: ``python -m repro.cli stats`` and ``run --stats-json`` both call
:func:`dump`, and ``benchmarks/conftest.py`` writes its
``BENCH_RESULTS.json`` through :func:`write_bench_results`.

Schema ``repro.obs/1``::

    {
      "schema": "repro.obs/1",
      "spans": [ {name, duration_s, attrs, children: [...],
                  trace_id?, span_id?, parent_span_id?} ],
      "counters": { name: int },
      "gauges": { name: value },
      "histograms": { name: {count, sum, min, max, mean,
                             p50, p95, p99} },
      "derived": { name: value },     # ratios + phase percentiles
      "phases": { name: {count, mean, p50, p95, p99, max} },
      "cache": { enabled, dir, hits, misses, stores, invalidations,
                 evictions, hit_rate, latency },  # analysis-cache state
      "facts": { derived, rederived, refreshed, invalidated, adopted,
                 hydrated, hydrate_rejects, escalations,
                 incremental_rate, solve },  # incremental fact store
      "meta": { present, trusted, rejects, trust_rate,
                reject_reasons: {reason: int} },  # .eel.meta trust path
      "serve": { requests, ok, errors, rejected, timeouts, retries,
                 coalesced, degraded, worker_deaths, ok_rate,
                 latency, queue_wait },
      "fleet": { requests, forwarded, rerouted, retries, rejected,
                 shard_deaths, respawns, hot_restarts, forward_rate,
                 queues: {interactive, bulk}, queue_wait,
                 shards: {id: {...}} },  # shards filled by a gateway
      "sim": { default_engine, instructions, runs,
               flyweight: {hits, misses, compiles, evictions, hit_rate},
               blocks: {hits, misses, compiles, evictions,
                        invalidations, hit_rate,
                        fallback: {cold, budget, uncompilable,
                                   resume}} }
    }

Benchmark results use schema ``repro.obs.bench/1``::

    { "schema": "repro.obs.bench/1",
      "results": [ {name, value, unit} ] }

New keys may be added; existing keys keep their meaning (tests pin the
key set, so widening the schema is an explicit act).
"""

import json

from repro.obs import metrics, trace

# Pre-register the cache counters (interned by name — repro.cache gets
# the same objects) so they are present, zero-valued, in every snapshot
# even before the cache package loads; otherwise consecutive reports in
# one process could disagree on the counter key set.
for _name in ("hits", "misses", "miss.cold", "miss.version",
              "miss.corrupt", "miss.hydrate_reject", "stores",
              "invalidations", "evictions", "store_errors", "restored_cfgs",
              "memory_hits", "prune_races"):
    metrics.counter("cache." + _name)

# And the serve daemon: a drained daemon flushes these through
# --stats-json, and a report taken in a process that never served
# still carries the full, zero-valued key set.
for _name in ("requests", "responses.ok", "responses.error",
              "rejected.queue_full", "rejected.draining", "timeouts",
              "retries", "coalesced", "degraded", "worker_deaths"):
    metrics.counter("serve." + _name)

# Same for the verify subsystem: lints, cosimulation, and verdict
# memoization report through these whether or not a verify ever runs.
for _name in ("runs", "passed", "failed", "lints_run", "findings",
              "cosim_syncs", "cosim_divergences", "memo_hits",
              "memo_misses", "parallel_fallbacks"):
    metrics.counter("verify." + _name)

# The fleet gateway: forwarding outcomes and lifecycle counters, so a
# gateway's --stats-json (and the `stats` op it serves) always carries
# the full key set, and a non-gateway process reports them as zeros.
for _name in ("requests", "forwarded", "rerouted", "retries",
              "rejected", "shard_deaths", "respawns", "hot_restarts"):
    metrics.counter("fleet." + _name)

# And the simulator engines: the prepared-op flyweight (per-instruction
# engine) and the block-compilation cache (block engine) both report
# here, so a report carries the full key set whichever engine ran.
# The block engine also counts why it single-stepped, by reason.
_FALLBACK_REASONS = ("cold", "budget", "uncompilable", "resume")
for _name in ("instructions", "runs", "flyweight.hits",
              "flyweight.misses", "flyweight.compiles",
              "flyweight.evictions", "blocks.hits", "blocks.misses",
              "blocks.compiles", "blocks.evictions",
              "blocks.invalidations") + tuple(
                  "blocks.fallback." + reason
                  for reason in _FALLBACK_REASONS):
    metrics.counter("sim." + _name)

# The incremental fact store (repro.core.facts): derivation, dirty-set,
# hydration, and adoption traffic — the surface the incremental
# re-analysis benchmark and tests assert against.
for _name in ("derived", "rederived", "refreshed", "invalidated",
              "adopted", "hydrated", "hydrate_rejects", "escalations"):
    metrics.counter("facts." + _name)

# Trusted-producer metadata (repro.core.trust): how often .eel.meta was
# present, trusted, or rejected — with one counter per typed rejection
# reason so the adversarial fuzz campaign's classification is visible
# in stats/top/Prometheus without parsing details.
for _name in ("present", "trusted", "rejects"):
    metrics.counter("meta." + _name)
for _name in ("format", "text-hash", "extent", "entry", "dispatch",
              "island", "probe", "cti"):
    metrics.counter("meta.reject." + _name)
del _name

SCHEMA = "repro.obs/1"
BENCH_SCHEMA = "repro.obs.bench/1"


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else None


def _percentiles(summary):
    """The percentile view of one histogram snapshot dict."""
    if not summary:
        return None
    return {
        "count": summary.get("count", 0),
        "mean": summary.get("mean"),
        "p50": summary.get("p50"),
        "p95": summary.get("p95"),
        "p99": summary.get("p99"),
        "max": summary.get("max"),
    }


def derived_metrics(counters, histograms=None):
    """Ratios the paper's Table 1 discussion quotes directly, plus
    p50/p95/p99 for every per-phase latency histogram."""
    derived = {}
    for name, summary in sorted((histograms or {}).items()):
        if name.startswith(("phase.", "serve.latency.", "serve.queue")):
            for key in ("p50", "p95", "p99"):
                if summary.get(key) is not None:
                    derived["%s.%s" % (name, key)] = summary[key]
    hits = counters.get("sim.flyweight.hits", 0)
    misses = counters.get("sim.flyweight.misses", 0)
    rate = _ratio(hits, hits + misses)
    if rate is not None:
        derived["sim.flyweight.hit_rate"] = rate
    bhits = counters.get("sim.blocks.hits", 0)
    bmisses = counters.get("sim.blocks.misses", 0)
    rate = _ratio(bhits, bhits + bmisses)
    if rate is not None:
        derived["sim.blocks.hit_rate"] = rate
    resolved = sum(counters.get("indirect.%s" % status, 0)
                   for status in ("table", "literal", "tailcall"))
    fallback = counters.get("indirect.unanalyzable", 0)
    if resolved or fallback:
        derived["indirect.resolved"] = resolved
        derived["indirect.fallback"] = fallback
        derived["indirect.resolved_rate"] = _ratio(resolved,
                                                   resolved + fallback)
    editable = counters.get("cfg.editable_blocks", 0)
    blocks = counters.get("cfg.blocks", 0)
    if blocks:
        derived["cfg.uneditable_block_rate"] = _ratio(blocks - editable,
                                                      blocks)
    editable_edges = counters.get("cfg.editable_edges", 0)
    edges = counters.get("cfg.edges", 0)
    if edges:
        derived["cfg.uneditable_edge_rate"] = _ratio(edges - editable_edges,
                                                     edges)
    scavenged = counters.get("regalloc.scavenged", 0)
    spilled = counters.get("regalloc.spilled", 0)
    if scavenged or spilled:
        derived["regalloc.spill_rate"] = _ratio(spilled, scavenged + spilled)
    return derived


def cache_section(counters, histograms=None):
    """Analysis-cache state and counters (tentpole surface)."""
    # Imported lazily: repro.obs must not depend on repro.cache at
    # import time (cache.store uses the metrics registry).
    from repro.cache.store import cache_dir, enabled

    histograms = histograms or {}
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    return {
        "enabled": enabled(),
        "dir": cache_dir(),
        "hits": hits,
        "misses": misses,
        "stores": counters.get("cache.stores", 0),
        "invalidations": counters.get("cache.invalidations", 0),
        "evictions": counters.get("cache.evictions", 0),
        "hit_rate": _ratio(hits, hits + misses),
        "latency": {
            "load": _percentiles(histograms.get("phase.cache.load")),
            "store": _percentiles(histograms.get("phase.cache.store")),
        },
    }


def serve_section(counters, histograms=None):
    """Edit-serving daemon state: admission, outcomes, resilience,
    and per-op latency percentiles."""
    histograms = histograms or {}
    requests = counters.get("serve.requests", 0)
    ok = counters.get("serve.responses.ok", 0)
    rejected = (counters.get("serve.rejected.queue_full", 0)
                + counters.get("serve.rejected.draining", 0))
    latency = {}
    for name, summary in sorted(histograms.items()):
        if name.startswith("serve.latency."):
            latency[name[len("serve.latency."):]] = _percentiles(summary)
    return {
        "requests": requests,
        "ok": ok,
        "errors": counters.get("serve.responses.error", 0),
        "rejected": rejected,
        "timeouts": counters.get("serve.timeouts", 0),
        "retries": counters.get("serve.retries", 0),
        "coalesced": counters.get("serve.coalesced", 0),
        "degraded": counters.get("serve.degraded", 0),
        "worker_deaths": counters.get("serve.worker_deaths", 0),
        "ok_rate": _ratio(ok, requests),
        "latency": latency,
        "queue_wait": _percentiles(histograms.get("serve.queue_wait")),
    }


def fleet_section(counters, gauges=None, histograms=None):
    """Fleet gateway state: forwarding outcomes, queue depths, and the
    per-shard table.

    ``shards`` is empty here — only a live gateway knows its shard
    processes, and it grafts its table into this section when it
    answers the ``stats`` op (see ``fleet.gateway``).  Every other
    field comes from the process-local metrics registry, so the
    section exists (zero-valued) in any process's report.
    """
    gauges = gauges or {}
    histograms = histograms or {}
    requests = counters.get("fleet.requests", 0)
    forwarded = counters.get("fleet.forwarded", 0)
    return {
        "requests": requests,
        "forwarded": forwarded,
        "rerouted": counters.get("fleet.rerouted", 0),
        "retries": counters.get("fleet.retries", 0),
        "rejected": counters.get("fleet.rejected", 0),
        "shard_deaths": counters.get("fleet.shard_deaths", 0),
        "respawns": counters.get("fleet.respawns", 0),
        "hot_restarts": counters.get("fleet.hot_restarts", 0),
        "forward_rate": _ratio(forwarded, requests),
        "queues": {
            "interactive": gauges.get("fleet.queue.interactive", 0),
            "bulk": gauges.get("fleet.queue.bulk", 0),
        },
        "queue_wait": _percentiles(histograms.get("fleet.queue_wait")),
        "shards": {},
    }


def sim_section(counters):
    """Simulator engine state: which engine new simulators get by
    default, flyweight (per-instruction) and block-cache (block
    engine) traffic with hit rates."""
    from repro.sim.machine import default_engine

    fly_hits = counters.get("sim.flyweight.hits", 0)
    fly_misses = counters.get("sim.flyweight.misses", 0)
    blk_hits = counters.get("sim.blocks.hits", 0)
    blk_misses = counters.get("sim.blocks.misses", 0)
    return {
        "default_engine": default_engine(),
        "instructions": counters.get("sim.instructions", 0),
        "runs": counters.get("sim.runs", 0),
        "flyweight": {
            "hits": fly_hits,
            "misses": fly_misses,
            "compiles": counters.get("sim.flyweight.compiles", 0),
            "evictions": counters.get("sim.flyweight.evictions", 0),
            "hit_rate": _ratio(fly_hits, fly_hits + fly_misses),
        },
        "blocks": {
            "hits": blk_hits,
            "misses": blk_misses,
            "compiles": counters.get("sim.blocks.compiles", 0),
            "evictions": counters.get("sim.blocks.evictions", 0),
            "invalidations": counters.get("sim.blocks.invalidations", 0),
            "hit_rate": _ratio(blk_hits, blk_hits + blk_misses),
            "fallback": {
                reason: counters.get("sim.blocks.fallback." + reason, 0)
                for reason in _FALLBACK_REASONS},
        },
    }


def facts_section(counters, histograms=None):
    """Incremental fact-store state: derivation and dirty-set traffic,
    cache hydration outcomes, and the solve-latency percentiles.

    ``incremental_rate`` is the share of fact derivations that were
    incremental re-derivations or refreshes (vs. cold derivations) —
    the number the incremental-analysis benchmark moves."""
    histograms = histograms or {}
    derived = counters.get("facts.derived", 0)
    rederived = counters.get("facts.rederived", 0)
    refreshed = counters.get("facts.refreshed", 0)
    return {
        "derived": derived,
        "rederived": rederived,
        "refreshed": refreshed,
        "invalidated": counters.get("facts.invalidated", 0),
        "adopted": counters.get("facts.adopted", 0),
        "hydrated": counters.get("facts.hydrated", 0),
        "hydrate_rejects": counters.get("facts.hydrate_rejects", 0),
        "escalations": counters.get("facts.escalations", 0),
        "incremental_rate": _ratio(rederived + refreshed, derived),
        "solve": _percentiles(histograms.get("phase.facts.solve")),
    }


def meta_section(counters):
    """Trusted-metadata fast-path outcomes: how many analyzed images
    carried ``.eel.meta``, how many were trusted vs rejected, and the
    per-reason rejection breakdown (see ``repro.core.trust``)."""
    present = counters.get("meta.present", 0)
    trusted = counters.get("meta.trusted", 0)
    prefix = "meta.reject."
    return {
        "present": present,
        "trusted": trusted,
        "rejects": counters.get("meta.rejects", 0),
        "trust_rate": _ratio(trusted, present),
        "reject_reasons": {name[len(prefix):]: value
                           for name, value in sorted(counters.items())
                           if name.startswith(prefix)},
    }


def phases_section(histograms):
    """Percentile summary of every per-phase latency histogram
    (refinement, CFG build, indirect resolution, layout, cosim,
    simulator runs — see ``trace.PHASE_SPANS``)."""
    return {name[len("phase."):]: _percentiles(summary)
            for name, summary in sorted(histograms.items())
            if name.startswith("phase.")}


def build_report():
    """Snapshot the tracer and metrics registry as one JSON-ready dict."""
    snap = metrics.snapshot()
    return {
        "schema": SCHEMA,
        "spans": trace.TRACER.tree(),
        "counters": snap["counters"],
        "gauges": snap["gauges"],
        "histograms": snap["histograms"],
        "derived": derived_metrics(snap["counters"], snap["histograms"]),
        "phases": phases_section(snap["histograms"]),
        "cache": cache_section(snap["counters"], snap["histograms"]),
        "facts": facts_section(snap["counters"], snap["histograms"]),
        "meta": meta_section(snap["counters"]),
        "serve": serve_section(snap["counters"], snap["histograms"]),
        "fleet": fleet_section(snap["counters"], snap["gauges"],
                               snap["histograms"]),
        "sim": sim_section(snap["counters"]),
    }


def dump(path=None):
    """Build the report; write it to *path* when given.  Returns the dict."""
    report = build_report()
    if path is not None:
        with open(path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report


def render(report=None, stream=None):
    """Span-tree + top-counter text summary (for ``--trace`` on stderr)."""
    import sys

    if report is None:
        report = build_report()
    if stream is None:
        stream = sys.stderr
    lines = ["-- spans " + "-" * 48]
    lines.append(trace.TRACER.render() or "(tracing disabled or no spans)")
    lines.append("-- counters " + "-" * 45)
    for name, value in sorted(report["counters"].items()):
        lines.append("%-44s %12d" % (name, value))
    for name, value in sorted(report["derived"].items()):
        lines.append("%-44s %12.4f" % (name, value)
                     if isinstance(value, float)
                     else "%-44s %12d" % (name, value))
    print("\n".join(lines), file=stream)


# ----------------------------------------------------------------------
# Benchmark results (satellite: machine-readable bench output)
# ----------------------------------------------------------------------

def bench_record(name, value, unit):
    """One benchmark measurement in the shared schema."""
    return {"name": str(name), "value": value, "unit": str(unit)}


def write_bench_results(path, records):
    """Write ``BENCH_RESULTS.json``; returns the payload dict."""
    payload = {"schema": BENCH_SCHEMA, "results": list(records)}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload
