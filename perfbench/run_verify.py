"""run_verify: simulate and co-simulate edits prepared during set-up.

Set-up builds the corpus and edits every program with qpt and sfi (both
ISAs for qpt, SPARC only for sfi).  One operation runs the original
image, runs the edited image, and verifies the pair with
``verify_session(use_memo=False)``; analysis and layout do no work
here.  Each round is every pair in a seeded order.

Checks: both runs print the corpus reference output and exit 0, every
verdict is ``ok``, and each pair's instruction counts are identical in
every round.
"""

from time import perf_counter as clock

import common

TOOLS = ("qpt", "sfi")


class State:
    def __init__(self, recorder, seed):
        from repro.binfmt import serialize
        from repro.sim import run_image
        from repro.tools import instrument_image

        images = common.build_corpus(recorder)
        self.pairs = []
        before = common.counters()
        for name in sorted(images):
            for tool in TOOLS:
                if tool in common.tools_for(images[name]):
                    session = instrument_image(images[name], tool)
                    self.pairs.append((name, tool, images[name], session))
        # What editing cost, reported per set-up: the rounds run these
        # edits but never make them.
        self.setup_counts = common.counter_delta(before, common.counters())
        # Fill the simulator's process-wide memo layers (compiled blocks
        # per image) so that rounds measure steady-state simulation.
        for _name, _tool, image, session in self.pairs:
            run_image(image)
            run_image(session.edited_image)
        self.inputs = common.digest(b"".join(
            serialize.image_to_bytes(image)
            for _name, _tool, image, _session in self.pairs))
        self.instructions = {}  # (name, tool) -> (original, edited)
        self.sim_s = 0.0
        self.sim_instructions = 0
        self.verify_latencies = []

    def close(self):
        pass


def next_round(state, rng):
    order = list(range(len(state.pairs)))
    rng.shuffle(order)
    return order


def _check_run(name, label, simulator):
    if simulator.output != common.EXPECTED[name] or simulator.exit_code != 0:
        return "%s %s run printed %r, exit %r" % (
            name, label, simulator.output, simulator.exit_code)
    return None


def run_round(state, order, recorder, tally):
    from repro import sim, verify

    for index in order:
        name, tool, image, session = state.pairs[index]
        start = clock()
        try:
            with recorder.span("op"):
                original = sim.run_image(image)
                edited = sim.run_image(session.edited_image)
                sim_done = clock()
                result = verify.verify_session(
                    session.executable, session.edited_image,
                    configure_edited=session.configure_edited,
                    use_memo=False, label="%s-%s" % (name, tool))
        except Exception as error:  # counted as a failed operation
            tally.record((name, tool), clock() - start,
                         "%s/%s: %s: %s" % (name, tool,
                                            type(error).__name__, error))
            continue
        done = clock()
        state.sim_s += sim_done - start
        counts = (original.instructions_executed,
                  edited.instructions_executed)
        state.sim_instructions += sum(counts)
        state.verify_latencies.append(done - sim_done)
        problem = (_check_run(name, "original", original)
                   or _check_run(name, tool, edited))
        if problem is None and not result.ok:
            problem = "%s/%s: verify failed:\n%s" % (name, tool,
                                                     result.render())
        known = state.instructions.setdefault((name, tool), counts)
        if problem is None and known != counts:
            problem = "%s/%s: instruction counts changed %r -> %r" % (
                name, tool, known, counts)
        tally.record((name, tool), done - start, problem)


def named_metrics(state, rate, tally):
    overhead = common.geomean(edited / original for original, edited
                              in state.instructions.values())
    return {
        "sim_minsts_per_s": (state.sim_instructions / state.sim_s / 1e6,
                             "Minst/s"),
        "verify_p50_ms": (common.percentile(state.verify_latencies, 0.5)
                          * 1e3, "ms"),
        "overhead_x": (overhead, "x"),
    }
