"""fuzz_meta: generated programs through the verified-metadata path.

Seeds start at the workload seed.  Each program comes from
``GenConfig()`` defaults with a ``.eel.meta`` table derived from its
ground-truth manifest, and one operation is
``classify_plan(plan, meta_mode="emit")``: generate and assemble,
analyze through verify-and-trust, check against the manifest, then
instrument with every tool for the ISA and verify each edit.  A round
is a chunk of consecutive seeds.

Check: every seed classifies ``clean``.
"""

from time import perf_counter as clock

import common

CHUNK = 8
WARM_SEEDS = range(-4, 0)  # fixed, so set-up cost does not depend on --seed


class State:
    def __init__(self, recorder, seed):
        from repro.fuzz import campaign, gen

        self.config = gen.GenConfig()
        self.next_seed = seed
        self.inputs = common.digest(
            repr(gen.build_plan(seed, self.config)).encode())
        # Classifying a few fixed programs loads the pipeline's modules
        # and lazy tables before the first timed seed.
        for warm in WARM_SEEDS:
            campaign.classify_plan(gen.build_plan(warm, self.config),
                                   meta_mode="emit")

    def close(self):
        pass


def next_round(state, rng):
    first = state.next_seed
    state.next_seed += CHUNK
    return range(first, first + CHUNK)


def run_round(state, seeds, recorder, tally):
    from repro.fuzz import campaign, gen

    for seed in seeds:
        start = clock()
        try:
            with recorder.span("op"):
                with recorder.span("fuzz.gen"):
                    plan = gen.build_plan(seed, state.config)
                status, detail = campaign.classify_plan(
                    plan, label="fuzz-%d" % seed, meta_mode="emit")
        except Exception as error:  # counted as a failed operation
            tally.record(seed, clock() - start, "seed %d: %s: %s" % (
                seed, type(error).__name__, error))
            continue
        problem = None
        if status != "clean":
            problem = "seed %d: %s %s" % (seed, status, detail[:500])
        tally.record(seed, clock() - start, problem)


def named_metrics(state, rate, tally):
    return {"seeds_per_min": (rate * 60.0, "1/min")}
