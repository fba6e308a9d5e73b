"""Block-compiling engine: observable equivalence with the interpreter.

The block engine promises to be indistinguishable from the handwritten
per-instruction engine for every observable: program output, exit code,
exact instruction counts under ``max_steps``, per-pc profiles, category
telemetry, memory-hook traces, and ``run_until`` stop behaviour.  These
tests pin that contract over the full workload corpus, the fuzz
reproducer corpus, and hand-built programs that target the tricky
boundaries (self-modifying text, stops on fused back-edges, resumed
step budgets).
"""

import glob
import json
import os

import pytest

from repro import obs
from repro.asm import assemble
from repro.binfmt import link
from repro.fuzz.gen import plan_to_program
from repro.sim import Simulator, run_image
from repro.sim.blocks import WARM_THRESHOLD
from repro.sim.machine import ENGINES, SimulationTimeout, default_engine
from repro.sim.syscalls import ExitProgram
from repro.verify import corpus_names
from repro.workloads import builder

ENGINE_PAIR = ("handwritten", "block")


def build_workload(name):
    if name in builder.mips_program_names():
        return builder.build_mips_image(name)
    return builder.build_image(name)


def sparc_image(body):
    source = """
        .text
        .global _start
    _start:
    %s
        mov %%l7, %%o0
        mov 2, %%g1
        ta 0
        clr %%o0
        mov 1, %%g1
        ta 0
    """ % body
    return link([assemble(source, "sparc")])


def observe(image, engine, **kwargs):
    """Run *image* under *engine*; capture every observable as a tuple."""
    try:
        simulator = run_image(image, count_pcs=True, engine=engine, **kwargs)
    except Exception as exc:  # timeout/fault parity is part of the contract
        return ("raise", type(exc).__name__, str(exc))
    return ("exit", simulator.output, simulator.exit_code,
            simulator.instructions_executed, simulator.pc_counts)


# ----------------------------------------------------------------------
# Equivalence sweeps


@pytest.mark.parametrize("name", corpus_names())
def test_engine_equivalence_corpus(name):
    image = build_workload(name)
    baseline = observe(image, "handwritten")
    assert observe(image, "block") == baseline
    assert baseline[0] == "exit"


def _corpus_entries():
    root = os.path.join(os.path.dirname(__file__), os.pardir, "fuzz-corpus")
    entries = []
    for path in sorted(glob.glob(os.path.join(root, "*.json"))):
        with open(path) as handle:
            entries.append(json.load(handle))
    return entries


def test_engine_equivalence_fuzz_reproducers():
    entries = _corpus_entries()
    assert entries, "fuzz corpus missing"
    for entry in entries:
        image = plan_to_program(entry["plan"]).image
        baseline = observe(image, "handwritten", max_steps=500_000)
        assert observe(image, "block", max_steps=500_000) == baseline, \
            "engines diverge on reproducer %s" % entry["id"]


# ----------------------------------------------------------------------
# Self-modifying text invalidates compiled blocks


def test_block_invalidation_on_text_write():
    # The loop body patches its own first instruction: iteration one
    # executes `add %l7, 1` then overwrites it with the donor word
    # `add %l7, 2`, so iteration two must see the new text.  A block
    # engine that kept executing the stale compiled body would print 3
    # instead of 5.
    body = """
        set patch, %l1
        set donor, %l3
        ld [%l3], %l2
        clr %l7
        mov 2, %l0
    loop:
    patch:
        add %l7, 1, %l7
        st %l2, [%l1]
        subcc %l0, 1, %l0
        bne loop
        nop
        b finish
        nop
    donor:
        add %l7, 2, %l7
    finish:
    """
    image = sparc_image(body)
    baseline = observe(image, "handwritten")
    assert observe(image, "block") == baseline
    assert baseline[1] == "3"  # 1 + 2 across the two iterations

    simulator = Simulator(image, engine="block")
    simulator.run()
    assert simulator.output == "3"
    assert simulator.cpu.text_version > 0
    assert simulator.cpu.block_invalidations >= 1


# ----------------------------------------------------------------------
# run_until stop-pc contract


def _counting_loop():
    # _start: clr, then a loop whose only CTI is an unconditional
    # branch straight back to `loop` — the block compiler fuses that
    # back-edge, so a stop pc on `loop` exercises truncation of a
    # fused continuation.
    body = """
        clr %l7
    loop:
        add %l7, 1, %l7
        cmp %l7, 400
        be finish
        nop
        b loop
        nop
    finish:
    """
    image = sparc_image(body)
    loop_pc = image.entry + 4
    return image, loop_pc


def test_run_until_stops_on_fused_back_edge():
    image, loop_pc = _counting_loop()
    traces = {}
    for engine in ENGINE_PAIR:
        simulator = Simulator(image, engine=engine)
        stops = frozenset([loop_pc])
        trace = []
        # First call stops before the loop body ever runs; later calls
        # must pause at every revolution even once the block is warm
        # (compiled, fused and truncated at the stop).
        for _ in range(WARM_THRESHOLD + 4):
            steps = simulator.cpu.run_until(stops, 10_000)
            trace.append((steps, simulator.cpu.pc,
                          simulator.cpu.r[23]))  # %l7
        traces[engine] = trace
        if engine == "block":
            assert simulator.cpu.block_compiles > 0
    assert traces["block"] == traces["handwritten"]
    steps, pc, counter = traces["block"][1]
    assert pc == loop_pc and counter == 1


def test_run_until_budget_exhaustion_parity():
    image, loop_pc = _counting_loop()
    outcomes = {}
    for engine in ENGINE_PAIR:
        simulator = Simulator(image, engine=engine)
        with pytest.raises(SimulationTimeout) as excinfo:
            simulator.cpu.run_until(frozenset([0xDEAD0000]), 37)
        outcomes[engine] = (excinfo.value.steps, excinfo.value.pc,
                            simulator.instructions_executed)
    assert outcomes["block"] == outcomes["handwritten"]
    assert outcomes["block"][0] == 37


def test_run_until_counts_pcs_and_categories():
    # Satellite fix: run_until must account pcs and categories exactly
    # like run() — historically it skipped both.
    image, loop_pc = _counting_loop()
    profiles = {}
    obs.enable()
    try:
        for engine in ENGINE_PAIR:
            simulator = Simulator(image, engine=engine, count_pcs=True)
            total = 0
            for _ in range(WARM_THRESHOLD + 8):
                total += simulator.cpu.run_until(frozenset([loop_pc]),
                                                 10_000)
            if engine == "block":
                assert simulator.cpu.block_compiles > 0
            profiles[engine] = (total, dict(simulator.pc_counts),
                                dict(simulator.cpu.category_counts))
    finally:
        obs.disable()
        obs.reset()
    assert profiles["block"] == profiles["handwritten"]
    total, pc_counts, categories = profiles["block"]
    assert total > 0
    assert sum(pc_counts.values()) == total
    assert sum(categories.values()) == total


def _straight_line():
    # No back-edge: every pc runs exactly once.
    body = "\n".join("add %%l7, %d, %%l7" % n for n in range(1, 25))
    image = sparc_image(body)
    return image, frozenset([image.entry + 40, image.entry + 80])


def test_run_until_one_shot_code_compiles_nothing():
    image, stops = _straight_line()
    traces = {}
    for engine in ENGINE_PAIR:
        simulator = Simulator(image, engine=engine, count_pcs=True)
        trace = []
        with pytest.raises(ExitProgram):
            while True:
                steps = simulator.cpu.run_until(stops, 10_000)
                trace.append((steps, simulator.cpu.pc,
                              simulator.cpu.r[23]))
        traces[engine] = (trace, simulator.instructions_executed,
                          simulator.pc_counts, simulator.output)
        if engine == "block":
            cpu = simulator.cpu
            assert cpu.block_compiles == 0
            assert cpu.fallback_cold == simulator.instructions_executed
    assert traces["block"] == traces["handwritten"]
    assert traces["block"][0][:2] == [(10, image.entry + 40, 55),
                                      (10, image.entry + 80, 210)]


def test_run_until_binds_memoized_blocks_without_warm_up():
    image, loop_pc = _counting_loop()
    stops = frozenset([loop_pc])
    first = Simulator(image, engine="block")
    for _ in range(WARM_THRESHOLD + 2):
        first.cpu.run_until(stops, 10_000)
    assert first.cpu.block_compiles > 0
    # A second simulator over the same image and an equal stop set: the
    # entry block (run once above, so never compiled) is still cold,
    # but the loop block binds from the image memo on its first visit.
    second = Simulator(image, engine="block")
    cpu = second.cpu
    cpu.run_until(frozenset(stops), 10_000)
    assert (cpu.block_compiles, cpu.fallback_cold) == (0, 1)
    # One revolution of the loop: every block of it binds at once.
    cpu.run_until(stops, 10_000)
    assert cpu.block_compiles > 0 and cpu.fallback_cold == 1
    assert cpu.pc == loop_pc and cpu.r[23] == 1


def _single_steps(cpu):
    # Every single step either hits or fills the prepared-op flyweight.
    return cpu.fly_hits + cpu.compiles


def _fallbacks(cpu):
    return {reason: getattr(cpu, "fallback_" + reason)
            for reason in ("cold", "budget", "uncompilable", "resume")}


def test_fallback_reasons_sum_to_single_steps():
    image, loop_pc = _counting_loop()
    # run(): cold warm-up visits, then blocks that outgrow the budget.
    simulator = Simulator(image, engine="block", max_steps=500)
    with pytest.raises(SimulationTimeout):
        simulator.run()
    cpu = simulator.cpu
    reasons = _fallbacks(cpu)
    assert reasons["cold"] > 0 and reasons["budget"] > 0
    assert sum(reasons.values()) == _single_steps(cpu) > 0
    # run_until(): cold visits, plus mid-delay-slot resumes after a stop
    # on a delay slot (`b loop` at loop_pc + 16, its slot at + 20).
    simulator = Simulator(image, engine="block")
    cpu = simulator.cpu
    stops = frozenset([loop_pc, loop_pc + 20])
    for _ in range(2 * WARM_THRESHOLD + 4):
        cpu.run_until(stops, 10_000)
    reasons = _fallbacks(cpu)
    assert reasons["cold"] > 0 and reasons["resume"] > 0
    assert cpu.block_compiles > 0
    assert sum(reasons.values()) == _single_steps(cpu)
    # The counters reach the registry (and so `repro stats`).
    obs.reset()
    obs.enable()
    try:
        simulator._record_telemetry()
        built = obs.report.build_report()
    finally:
        obs.disable()
        obs.reset()
    for reason, count in reasons.items():
        assert built["counters"]["sim.blocks.fallback." + reason] == count
    assert built["sim"]["blocks"]["fallback"] == reasons


# ----------------------------------------------------------------------
# Resumed runs and cumulative budgets (satellite fix)


@pytest.mark.parametrize("engine", ENGINE_PAIR)
def test_resumed_run_budget_cumulative(engine):
    image, _loop_pc = _counting_loop()
    simulator = Simulator(image, max_steps=50, engine=engine)
    with pytest.raises(SimulationTimeout) as excinfo:
        simulator.run()
    assert excinfo.value.steps == 50
    assert simulator.instructions_executed == 50

    # Raising the budget and resuming runs exactly 30 more
    # instructions; the reported step count stays cumulative.
    simulator.max_steps = 80
    with pytest.raises(SimulationTimeout) as excinfo:
        simulator.run()
    assert excinfo.value.steps == 80
    assert simulator.instructions_executed == 80


# ----------------------------------------------------------------------
# Configuration validation and cache accounting


def test_cap_validation():
    image = sparc_image("mov 7, %l7")
    for kwargs in ({"prepared_cache_cap": 0}, {"block_cache_cap": 0},
                   {"block_max_len": 0}, {"prepared_cache_cap": -3}):
        with pytest.raises(ValueError):
            Simulator(image, **kwargs)
    with pytest.raises(ValueError):
        Simulator(image, engine="jit-of-the-week")


def test_block_cache_eviction_accounting():
    image = build_workload("fib")
    simulator = Simulator(image, engine="block", block_cache_cap=2)
    simulator.run()
    cpu = simulator.cpu
    assert cpu.block_evictions > 0
    for cache in cpu._block_caches.values():
        assert len(cache) <= 2
    # hit/miss arithmetic stays exact: every lookup is one or the other.
    assert cpu.block_hits + cpu.block_misses > 0


def test_block_max_len_respected():
    # A tiny block cap still produces identical results (blocks just
    # chain more often).
    image = build_workload("fib")
    baseline = observe(image, "handwritten")
    simulator = Simulator(image, count_pcs=True, engine="block",
                          block_max_len=2)
    simulator.run()
    assert ("exit", simulator.output, simulator.exit_code,
            simulator.instructions_executed,
            simulator.pc_counts) == baseline


# ----------------------------------------------------------------------
# Memory hook parity


def test_mem_hook_fires_per_access():
    body = """
        set buffer, %l1
        mov 258, %l2
        st %l2, [%l1]
        ld [%l1], %l3
        sth %l2, [%l1]
        lduh [%l1], %l4
        stb %l2, [%l1]
        ldub [%l1], %l5
        ldsb [%l1], %l6
        add %l3, %l4, %l7
        add %l7, %l5, %l7
        b finish
        nop
    buffer:
        .word 0
    finish:
    """
    image = sparc_image(body)
    traces = {}
    for engine in ENGINE_PAIR:
        events = []

        def hook(is_store, addr, width, events=events):
            events.append((is_store, addr, width))

        simulator = Simulator(image, engine=engine, mem_hook=hook)
        simulator.run()
        traces[engine] = (events, simulator.output)
    assert traces["block"] == traces["handwritten"]
    events, _output = traces["block"]
    assert len(events) == 7


# ----------------------------------------------------------------------
# Engine selection


def test_default_engine_env(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_ENGINE", "handwritten")
    assert default_engine() == "handwritten"
    monkeypatch.setenv("REPRO_SIM_ENGINE", "block")
    assert default_engine() == "block"
    monkeypatch.delenv("REPRO_SIM_ENGINE")
    assert default_engine() in ENGINES
