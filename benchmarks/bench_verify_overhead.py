"""Verification cost: cosim lockstep vs. a plain instrumented run.

The co-simulation oracle runs *both* images and pays a stop-set check
per instruction, so it is necessarily slower than simply executing the
edited binary.  This benchmark bounds that overhead factor — the price
of a differential correctness check per edit session — and also
measures the memoized path, which should be orders of magnitude
cheaper because a clean verdict re-check is one cache read.
"""

import time

from conftest import record, report
from repro.sim.machine import run_image
from repro.verify import instrument_workload, verify_session

WORKLOAD = "fib"
# Lockstep runs two simulators with per-step stop checks; anything
# under this factor keeps verification usable after every edit.
MAX_OVERHEAD_FACTOR = 30.0


def test_verify_overhead(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CACHE", "on")

    executable, edited_image, _ = instrument_workload(WORKLOAD)

    started = time.perf_counter()
    run_image(edited_image)
    plain = time.perf_counter() - started

    started = time.perf_counter()
    result = verify_session(executable, edited_image, label=WORKLOAD)
    full = time.perf_counter() - started
    assert result.ok and not result.memoized

    started = time.perf_counter()
    memo = verify_session(executable, edited_image, label=WORKLOAD)
    memoized = time.perf_counter() - started
    assert memo.memoized

    factor = full / plain if plain else float("inf")
    memo_factor = full / memoized if memoized else float("inf")
    rows = [
        ("path", "seconds", "vs plain run"),
        ("plain edited run", "%.4f" % plain, "1.0x"),
        ("verify (lints + cosim)", "%.4f" % full, "%.1fx" % factor),
        ("verify (memoized)", "%.6f" % memoized,
         "%.4fx" % (memoized / plain if plain else 0.0)),
    ]
    report("Verification overhead on %s (%d syncs)"
           % (WORKLOAD, result.syncs), rows,
           paper_note="an edited program must behave identically to "
                      "the original (section 3.5)")
    record("verify_overhead.%s.plain" % WORKLOAD, plain, "s")
    record("verify_overhead.%s.full" % WORKLOAD, full, "s")
    record("verify_overhead.%s.factor" % WORKLOAD, factor, "x")
    record("verify_overhead.%s.memo_speedup" % WORKLOAD, memo_factor, "x")
    assert factor <= MAX_OVERHEAD_FACTOR, (
        "verification costs %.1fx a plain run (budget %.1fx)"
        % (factor, MAX_OVERHEAD_FACTOR))
    assert memoized < full


FUZZ_SEEDS = range(1, 17)


def test_fuzz_seeds_per_min(monkeypatch):
    """Throughput of the verified-metadata fuzz campaign: each seed is
    generated, analyzed through ``.eel.meta``, checked, instrumented
    with every tool and verified, so verification dominates.  Recorded
    only (no gate)."""
    from repro.fuzz.campaign import classify_seed
    from repro.obs import metrics

    monkeypatch.setenv("REPRO_CACHE", "off")  # as the campaign runs
    compiles = metrics.counter("sim.blocks.compiles")
    compiles_before = compiles.value
    started = time.perf_counter()
    outcomes = {seed: classify_seed(seed, meta_mode="emit")
                for seed in FUZZ_SEEDS}
    elapsed = time.perf_counter() - started
    unclean = {seed: outcome for seed, outcome in outcomes.items()
               if outcome[0] != "clean"}
    assert not unclean, unclean
    seeds_per_min = len(FUZZ_SEEDS) * 60.0 / elapsed
    compiles_per_seed = (compiles.value - compiles_before) / len(FUZZ_SEEDS)
    report("Fuzz campaign with verified metadata (%d seeds)"
           % len(FUZZ_SEEDS),
           [("metric", "value"),
            ("seeds/min", "%.0f" % seeds_per_min),
            ("block compiles/seed", "%.1f" % compiles_per_seed)])
    record("verify_overhead.fuzz.seeds_per_min", seeds_per_min, "1/min")
    record("verify_overhead.fuzz.compiles_per_seed", compiles_per_seed, "")
