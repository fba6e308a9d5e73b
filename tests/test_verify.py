"""Differential verification engine: lints, cosim, fault injection."""

import pytest

from repro.sim.machine import (SimulationError, SimulationTimeout, Simulator,
                               run_image)
from repro.verify import (VerifyResult, corpus_names, instrument_workload,
                          verify_session, verify_workload)
from repro.verify.context import Finding, VerifyContext
from repro.verify.inject import (clone_image, inject_stale_dispatch_entry,
                                 run_fault_suite)
from repro.verify.lints import run_lints
from repro.workloads import builder


@pytest.fixture(scope="module")
def fib_session():
    return instrument_workload("fib")


@pytest.fixture(scope="module")
def fib_suite(fib_session):
    executable, _, _ = fib_session
    return run_fault_suite(executable)


# ----------------------------------------------------------------------
# Clean edits pass
# ----------------------------------------------------------------------

def test_qpt_fib_verifies_clean(fib_session):
    executable, edited_image, configure = fib_session
    result = verify_session(executable, edited_image, use_memo=False,
                            configure_edited=configure, label="fib[qpt]")
    assert result.ok
    assert result.findings == []
    assert result.syncs > 1000
    assert "PASS" in result.render()


def test_qpt_dispatch_table_workload_verifies_clean():
    # interp's bytecode loop dispatches through a rewritten jump table.
    result = verify_workload("interp", use_memo=False)
    assert result.ok, result.render()
    assert result.syncs > 0


def test_qpt_retained_text_workload_verifies_clean():
    # mips_switch dispatches through a rewritten MIPS jump table
    # (lw off(base+scaled) now folds to a table in the evaluator).
    result = verify_workload("mips_switch", use_memo=False)
    assert result.ok, result.render()


def test_sfi_verifies_clean():
    result = verify_workload("fib", tool="sfi", use_memo=False)
    assert result.ok, result.render()


def test_elsie_verifies_clean():
    result = verify_workload("fib", tool="elsie", use_memo=False)
    assert result.ok, result.render()


def test_corpus_names_cover_both_architectures():
    names = corpus_names()
    assert "fib" in names and "mips_fib" in names
    with pytest.raises(ValueError):
        verify_workload("nonesuch")
    with pytest.raises(ValueError):
        instrument_workload("mips_fib", tool="sfi")  # sparc-only tool


# ----------------------------------------------------------------------
# Structural lints and placement provenance
# ----------------------------------------------------------------------

def test_lints_clean_on_instrumented_image(fib_session):
    executable, edited_image, _ = fib_session
    context = VerifyContext(executable, edited_image)
    assert run_lints(context) == []


def test_placement_reconstructs_edit_provenance(fib_session):
    executable, edited_image, _ = fib_session
    context = VerifyContext(executable, edited_image)
    placement = context.placement
    assert placement.entries, "instrumented image has placed items"
    snippets = list(placement.snippets())
    assert snippets, "qpt placed counter snippets"
    placed = snippets[0]
    assert placed.routine
    covering = placement.covering(placed.start)
    assert covering is placed
    assert "snippet" in placed.describe()


def test_finding_renders_provenance():
    finding = Finding("stale-dispatch-entry", "points at 0x10f0",
                      routine="interp", block=0x1040, addr=0x2040)
    text = str(finding)
    assert "stale-dispatch-entry" in text
    assert "interp" in text and "0x1040" in text and "0x2040" in text


# ----------------------------------------------------------------------
# Fault injection: every corruption class is detected with provenance
# ----------------------------------------------------------------------

def test_fault_suite_detects_all_classes(fib_suite):
    assert len(fib_suite) >= 4
    for cls, outcome in fib_suite.items():
        assert outcome["detected"], "%s went undetected" % cls
        assert outcome["by"] in ("lints", "cosim")


def test_fault_suite_reports_carry_provenance(fib_suite):
    details = fib_suite["corrupt-word"]["details"]
    assert details["routine"]
    assert isinstance(details["addr"], int)
    assert "invalid-word" in fib_suite["corrupt-word"]["report"]


def test_cosim_divergence_report_is_minimized(fib_suite):
    outcome = fib_suite["clobber-live-register"]
    assert outcome["by"] == "cosim"
    assert "first divergent pc pair" in outcome["report"]
    assert outcome["details"]["register"]


def test_stale_dispatch_entry_detected_on_table_workload():
    executable, _, _ = instrument_workload("interp")
    context = VerifyContext(executable)
    image, info = inject_stale_dispatch_entry(context)
    findings = run_lints(VerifyContext(executable, image))
    assert any(f.code == "stale-dispatch-entry" for f in findings)
    assert info["routine"]


def test_mips_fault_suite():
    executable, _, _ = instrument_workload("mips_sum")
    suite = run_fault_suite(executable)
    detected = [cls for cls, outcome in suite.items() if outcome["detected"]]
    assert "corrupt-word" in detected
    assert "clobber-live-register" in detected


# ----------------------------------------------------------------------
# Simulator support: distinct timeout, run_until
# ----------------------------------------------------------------------

def test_simulation_timeout_carries_pc_and_steps():
    image = builder.build_image("fib")
    with pytest.raises(SimulationTimeout) as info:
        run_image(image, max_steps=10)
    assert info.value.steps == 10
    assert isinstance(info.value.pc, int)
    assert "10 steps" in str(info.value)
    assert isinstance(info.value, SimulationError)


def test_run_until_stops_at_sync_point():
    image = builder.build_image("fib")
    simulator = Simulator(image)
    target = image.entry + 4  # the first instruction's delay slot
    steps = simulator.cpu.run_until({target}, 1000)
    assert simulator.cpu.pc == target
    assert steps == 1
    with pytest.raises(SimulationTimeout):
        simulator.cpu.run_until({0xDEAD0000}, 50)


# ----------------------------------------------------------------------
# Memoized verdicts
# ----------------------------------------------------------------------

def test_clean_verdict_is_memoized(fib_session, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    executable, edited_image, _ = fib_session
    first = verify_session(executable, edited_image, label="memo")
    assert first.ok
    second = verify_session(executable, edited_image, label="memo")
    assert second.ok and second.memoized
    assert "memoized" in second.render()
    third = verify_session(executable, edited_image, label="memo",
                           use_memo=False)
    assert third.ok and not third.memoized


def test_memoized_result_shape():
    result = VerifyResult("x", memoized=True)
    assert result.ok and result.syncs == 0 and result.errors == []


# ----------------------------------------------------------------------
# The verifier's analysis of an original image
# ----------------------------------------------------------------------

def test_verifier_analyzes_each_original_image_once(monkeypatch):
    from repro.obs import metrics
    from repro.tools import instrument_image

    monkeypatch.setenv("REPRO_CACHE", "off")  # every analysis builds CFGs
    monkeypatch.setattr(VerifyContext, "_memo", None)
    builds = metrics.counter("cfg.builds")
    image = builder.build_image("fib")
    sessions = [instrument_image(image, tool) for tool in ("qpt", "sfi",
                                                           "elsie")]
    deltas = []
    for session in sessions:
        before = builds.value
        result = verify_session(session.executable, session.edited_image,
                                configure_edited=session.configure_edited,
                                use_memo=False)
        assert result.ok
        deltas.append(builds.value - before)
    assert deltas[0] > 0 and deltas[1:] == [0, 0]
    # A content change misses the memo and is analyzed afresh, and so is
    # the first image again once the changed one has displaced it.
    changed = clone_image(image)
    rodata = changed.sections[".rodata"]
    rodata.data[0] ^= 0x20
    for original in (changed, image):
        session = instrument_image(original, "qpt")
        before = builds.value
        assert verify_session(session.executable, session.edited_image,
                              use_memo=False).ok
        assert builds.value - before > 0
