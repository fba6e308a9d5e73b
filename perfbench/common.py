"""Shared pieces of the benchmark: configuration, corpus, statistics.

Nothing here imports :mod:`repro` at module level: :func:`pin_environment`
must run first so that shell variables cannot change what is measured.
"""

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from time import perf_counter as clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SIM_ENGINE = "block"
TRUST_META = "on"

with open(os.path.join(HERE, "expected.json")) as _handle:
    # Reference outputs of the corpus, produced once by the handwritten
    # CPU model (the oracle independent of the block engine measured
    # here); MIPS entries equal the programs' hand-written strings.
    EXPECTED = json.load(_handle)

SPARC_TOOLS = ("qpt", "sfi", "elsie", "active_memory")
MIPS_TOOLS = ("qpt",)


def pin_environment():
    """Drop every ``REPRO_*`` variable, then set the measured config.

    The in-process analysis cache is off: the benchmark's own processes
    never read or write ``~/.cache/repro-eel``.  Processes that serve
    from a cache (the fleet, the cold CLI calls) get a fresh directory
    of their own.
    """
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_SIM_ENGINE"] = SIM_ENGINE
    os.environ["REPRO_TRUST_META"] = TRUST_META
    os.environ["REPRO_CACHE"] = "off"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def effective_config():
    """The settings as the program itself resolves them."""
    import importlib

    from repro.core import trust

    store = importlib.import_module("repro.cache.store")
    from repro.sim.machine import default_engine

    return {
        "sim_engine": default_engine(),
        "trust_meta": trust.trust_enabled(),
        "cache": store.enabled(),
        "verify_memo": False,
        "environ": {name: value for name, value in sorted(os.environ.items())
                    if name.startswith("REPRO_")},
    }


def host_fingerprint():
    """Usable cores, interpreter, and a fixed pure-Python loop's time.

    Recorded with every result so that a comparison across hosts is
    visible as one; results are never rescaled by it.
    """
    start = time.perf_counter()
    total = 0
    for value in range(300_000):
        total = (total + value * value) % 1_000_003
    calibration = time.perf_counter() - start
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "calibration_s": calibration,
    }


def peak_rss_mb():
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------------
# Corpus
# ----------------------------------------------------------------------

def build_corpus(recorder):
    """Compile the SPARC programs and assemble the MIPS ones, from source.

    Returns ``{name: Image}``; every call builds afresh (the workload
    builder's memo is bypassed so that set-up time is real).
    """
    from repro.asm import assemble
    from repro.binfmt import link
    from repro.minic import compile_to_image
    from repro.minic.runtime import MIPS_CRT0
    from repro.workloads.mips_programs import MIPS_PROGRAMS
    from repro.workloads.programs import PROGRAMS

    images = {}
    for name in sorted(PROGRAMS):
        with recorder.span("minic.compile"):
            images[name] = compile_to_image(PROGRAMS[name])
    for name in sorted(MIPS_PROGRAMS):
        with recorder.span("asm.assemble"):
            images[name] = link([assemble(MIPS_CRT0, "mips"),
                                 assemble(MIPS_PROGRAMS[name][0], "mips")])
    return images


def routine_table(image):
    """``(name, blocks)`` of each routine, in address order, as analysis
    in this process finds them: the reference for ``routines`` answers."""
    from repro.core import Executable

    exe = Executable(image).read_contents()
    return [(routine.name, len(routine.control_flow_graph().blocks))
            for routine in sorted(exe.all_routines(), key=lambda r: r.start)]


def import_seconds(repeats=5):
    """``import repro.cli`` in a fresh interpreter minus a bare start."""
    env = dict(os.environ, PYTHONPATH=SRC)

    def timed(code):
        start = clock()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        return clock() - start

    bare, full = [], []
    for _ in range(repeats):
        bare.append(timed("pass"))
        full.append(timed("import repro.cli"))
    return median(full) - median(bare)


def tools_for(image):
    return SPARC_TOOLS if image.arch == "sparc" else MIPS_TOOLS


def text_words(image):
    return sum(len(section.data) for section in image.sections.values()
               if section.is_exec) // 4


def digest(blob):
    return hashlib.sha256(blob).hexdigest()


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def percentile(values, q):
    """Linear-interpolated *q*-quantile (0..1) of *values*."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def geomean(values):
    """Geometric mean; ``fsum`` keeps it independent of the order."""
    logs = [math.log(value) for value in values]
    return math.exp(math.fsum(logs) / len(logs))


def median(values):
    return statistics.median(values)


def counters():
    from repro.obs import metrics

    return {name: counter.value
            for name, counter in metrics.REGISTRY.counters.items()}


def counter_delta(before, after):
    return {name: value - before.get(name, 0)
            for name, value in after.items()
            if value != before.get(name, 0)}


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


class Tally:
    """Operations attempted and failed, with each one's key and latency.

    The key names what the operation did (a program and tool, a request,
    a seed), so that repetitions of one operation can be told apart from
    different operations.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.keys = []
        self.latencies = []
        self.errors = []

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def record(self, key, seconds, problem=None):
        """Count one operation; *problem* (a string) marks it failed."""
        self.attempted += 1
        self.keys.append(key)
        self.latencies.append(seconds)
        if problem is not None:
            self.fail(problem)
