"""cli_cold: cold ``python -m repro.cli routines <file>`` calls.

Set-up builds the corpus and writes each image to a file.  One
operation is one fresh interpreter running ``repro routines`` on one
file, with a cache directory of its own that starts empty: interpreter
start, ``import repro.cli``, decode and a cold analysis, with the
analysis cache written but never read.  A round is every program once,
in a seeded order; calls are sequential.

Check: every call exits 0 and prints the reference routine table.
"""

import os
import shutil
import subprocess
import sys
from time import perf_counter as clock

import common


class State:
    def __init__(self, recorder, seed):
        from repro.binfmt import serialize

        images = common.build_corpus(recorder)
        self.names = sorted(images)
        self.tmp = os.path.join(common.WORK, "tmp", "cli-%d" % os.getpid())
        shutil.rmtree(self.tmp, ignore_errors=True)
        os.makedirs(os.path.join(self.tmp, "images"))
        self.files = {}
        self.routines = {}
        for name, image in images.items():
            path = os.path.join(self.tmp, "images", name + ".eelf")
            serialize.write_image(image, path)
            self.files[name] = path
            self.routines[name] = common.routine_table(image)
        self.inputs = common.digest(repr(sorted(self.routines.items()))
                                    .encode())
        self.calls = 0
        # One call loads the program's files into the page cache (and
        # writes their bytecode) before the first timed call.
        warm = common.Tally()
        self.call("fib", warm)
        if warm.failed:
            self.close()
            raise RuntimeError("cold CLI warm-up failed: %s" % warm.errors[0])

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def call(self, name, tally):
        """One ``repro routines`` process with a fresh cache directory."""
        self.calls += 1
        cache = os.path.join(self.tmp, "cache-%d" % self.calls)
        env = dict(os.environ, PYTHONPATH=common.SRC, REPRO_CACHE="on",
                   REPRO_CACHE_DIR=cache)
        start = clock()
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "routines", self.files[name]],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=60)
        seconds = clock() - start
        shutil.rmtree(cache, ignore_errors=True)
        problem = None
        try:
            rows = [line.split() for line in proc.stdout.decode().splitlines()]
            got = [(row[1], int(row[2])) for row in rows if row]
        except (IndexError, ValueError) as error:
            got = "%s: %s" % (type(error).__name__, error)
        if proc.returncode != 0 or got != self.routines[name]:
            problem = "cli routines %s: exit %d, table differs: %s" % (
                name, proc.returncode, proc.stderr.decode()[-300:])
        tally.record(name, seconds, problem)


def next_round(state, rng):
    order = list(state.names)
    rng.shuffle(order)
    return order


def run_round(state, order, recorder, tally):
    for name in order:
        with recorder.span("op"):
            with recorder.span("cli.routines"):
                try:
                    state.call(name, tally)
                except subprocess.TimeoutExpired as error:
                    tally.record(name, 60.0, "cli routines %s: %s"
                                 % (name, error))


def remote_layers(state, operations):
    """The import share, which only a fresh interpreter shows."""
    return {}, operations, {"cli.import_s": common.import_seconds()}


def named_metrics(state, rate, tally):
    return {"cli_cold_p50_ms": (common.percentile(tally.latencies, 0.5)
                                * 1e3, "ms")}
