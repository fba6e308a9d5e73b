"""edit_corpus: cold in-process edits of the whole corpus.

One operation is one edit, bytes to bytes: decode the image, analyze it
(the tool constructor calls ``read_contents``), instrument, lay out,
encode.  The analysis cache is off and no image carries ``.eel.meta``,
so every edit runs discovery.  SPARC programs get all four tools, MIPS
programs get qpt; each round is the whole corpus in a seeded order.

Checks: an edit's bytes are identical in every round, and after the
measured window edited programs run once each and must print the corpus
reference output: every qpt and sfi edit, and the elsie and
active_memory edits of a seeded sample of SAMPLED programs (those two
run under a memory-system model and cost ~0.4 s each to simulate).
"""

import random
from time import perf_counter as clock

import common

SAMPLED = 5


def _session(tool, image):
    """Construct the tool on *image* and instrument; returns the tool."""
    if tool == "qpt":
        from repro.tools.qpt import QptProfiler

        return QptProfiler(image).run()
    if tool == "sfi":
        from repro.tools.sfi import Sandboxer

        session = Sandboxer(image)
    elif tool == "elsie":
        from repro.tools.elsie import ElsieSimulatorBuilder

        session = ElsieSimulatorBuilder(image)
    else:
        from repro.tools.active_memory import ActiveMemory

        session = ActiveMemory(image)
    session.instrument()
    return session


class State:
    def __init__(self, recorder, seed):
        from repro.binfmt import serialize

        images = common.build_corpus(recorder)
        self.blobs = {name: serialize.image_to_bytes(image)
                      for name, image in images.items()}
        self.inputs = common.digest(b"".join(
            self.blobs[name] for name in sorted(self.blobs)))
        self.text_words = {name: common.text_words(image)
                           for name, image in images.items()}
        self.edits = [(name, tool) for name in sorted(images)
                      for tool in common.tools_for(images[name])]
        sparc = sorted(name for name in images
                       if images[name].arch == "sparc")
        sample = set(random.Random(seed).sample(sparc, SAMPLED))
        self.checked = {(name, tool) for name, tool in self.edits
                        if tool in ("qpt", "sfi") or name in sample}
        # Warm imports and lazy module state with one edit per tool, so
        # the first timed edit of each tool is not an import.
        for tool in common.SPARC_TOOLS:
            _session(tool, serialize.image_from_bytes(self.blobs["fib"])) \
                .edited_image()
        self.digests = {}
        self.outputs = {}  # (name, tool) -> edited bytes of one round
        self.elsie = {}  # name -> a finished elsie session (its hooks)
        self.growth = {}

    def close(self):
        pass


def next_round(state, rng):
    order = list(state.edits)
    rng.shuffle(order)
    return order


def run_round(state, order, recorder, tally):
    from repro.binfmt import serialize

    for name, tool in order:
        problem = None
        start = clock()
        try:
            with recorder.span("op"):
                image = serialize.image_from_bytes(state.blobs[name])
                session = _session(tool, image)
                edited = session.edited_image()
                blob = serialize.image_to_bytes(edited)
        except Exception as error:  # counted as a failed edit
            tally.record((name, tool), clock() - start,
                         "%s/%s: %s: %s" % (name, tool,
                                            type(error).__name__, error))
            continue
        seconds = clock() - start
        key = (name, tool)
        known = state.digests.setdefault(key, common.digest(blob))
        if known != common.digest(blob):
            problem = "%s/%s: edited bytes differ between rounds" % key
        state.outputs[key] = blob
        if tool == "elsie":
            state.elsie[name] = session
        state.growth[key] = (common.text_words(edited)
                             / state.text_words[name])
        tally.record(key, seconds, problem)


def check_outputs(state, tally):
    """Run each distinct edited program once against the reference."""
    from repro.binfmt import layout, serialize
    from repro.sim.machine import Simulator

    for (name, tool), blob in sorted(state.outputs.items()):
        if (name, tool) not in state.checked:
            continue
        image = serialize.image_from_bytes(blob)
        try:
            if tool == "elsie":
                session = state.elsie[name]
                brk = layout.align_up(session.exec.image.address_limit()
                                      + layout.HEAP_GAP, 16)
                simulator = Simulator(image, brk_base=brk)
                session.configure_simulator(simulator)
            else:
                simulator = Simulator(image)
            simulator.run()
        except Exception as error:
            tally.fail("%s/%s: edited program failed: %s: %s"
                       % (name, tool, type(error).__name__, error))
            continue
        if simulator.output != common.EXPECTED[name] \
                or simulator.exit_code != 0:
            tally.fail("%s/%s: edited program printed %r, exit %r"
                       % (name, tool, simulator.output,
                          simulator.exit_code))


def named_metrics(state, rate, tally):
    latencies = tally.latencies
    return {
        "edits_per_s": (rate, "1/s"),
        "edit_p50_ms": (common.percentile(latencies, 0.5) * 1e3, "ms"),
        "edit_p90_ms": (common.percentile(latencies, 0.9) * 1e3, "ms"),
        "text_growth_x": (common.geomean(state.growth.values()), "x"),
    }
