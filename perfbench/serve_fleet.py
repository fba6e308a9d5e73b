"""serve_fleet: a closed loop against ``repro fleet``.

Set-up starts ``repro fleet --shards 2 --shard-jobs 1`` (gateway, two
shard daemons) with its sockets, run directory and analysis cache in a
fresh temporary directory, and warms it with every request the loop can
draw.  The loop is closed: two client threads, one connection each, and
each thread sends its next request when the previous one answered.  A
round is one routines, one instrument (qpt, edited image returned) and
one run request for every program of the corpus, in a seeded order, so
that every round carries the same mix.  That 1:1:1 mix is assumed: no
recorded request mix exists to check it against.

Checks: routines answers list the reference routines, every instrument
answer's image equals an in-process qpt edit of the same program byte
for byte, and run answers print the reference output.
"""

import base64
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from time import perf_counter as clock

import common

CLIENTS = 2
SHARDS = 2
OPS = ("routines", "instrument", "run")
STOP_TIMEOUT_S = 15.0


def set_subreaper():
    """Adopt orphaned descendants (a killed gateway's shards) so that
    :meth:`Fleet.stop` can reap them; best effort, Linux only."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


class Fleet:
    """One gateway process group and everything under its directory."""

    def __init__(self, directory):
        self.directory = directory
        self.address = os.path.relpath(os.path.join(directory, "gw.sock"))
        env = dict(os.environ, PYTHONPATH=common.SRC, REPRO_CACHE="on",
                   REPRO_CACHE_DIR=os.path.join(directory, "cache"))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "fleet",
             "--address", "gw.sock", "--dir", "shards",
             "--shards", str(SHARDS), "--shard-jobs", "1"],
            cwd=directory, env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def wait_ready(self):
        from repro.serve.client import wait_for_daemon

        if not wait_for_daemon(self.address, timeout=60.0):
            raise RuntimeError("fleet gateway did not come up")

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient(self.address, retries=10).connect()

    def shard_addresses(self):
        with self.client() as client:
            table = client.request("stats", sections=["fleet"])
        shards = table["report"]["fleet"]["shards"]
        return [os.path.relpath(os.path.join(self.directory, entry["socket"]))
                for _index, entry in sorted(shards.items())]

    def stop(self):
        """``shutdown`` op, then SIGTERM, then SIGKILL to the group."""
        from repro.serve.client import ServeClient

        if self.process.poll() is None:
            try:
                with ServeClient(self.address, connect_timeout=2.0,
                                 io_timeout=5.0, retries=0) as client:
                    client.shutdown()
            except Exception:  # a dead or wedged gateway: signals next
                pass
        for sig in (None, signal.SIGTERM, signal.SIGKILL):
            if sig is not None:
                self._signal_group(sig)
            try:
                self.process.wait(STOP_TIMEOUT_S)
                break
            except subprocess.TimeoutExpired:
                continue
        self._reap_group()
        shutil.rmtree(self.directory, ignore_errors=True)

    def _signal_group(self, sig):
        try:
            os.killpg(self.process.pid, sig)
        except ProcessLookupError:
            pass

    def _reap_group(self):
        """Kill and wait for any shard that outlived its gateway."""
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                os.killpg(self.process.pid, 0)
            except ProcessLookupError:
                return
            self._signal_group(signal.SIGKILL)
            try:
                while os.waitpid(-1, os.WNOHANG)[0]:
                    pass
            except ChildProcessError:
                pass
            time.sleep(0.05)


class State:
    def __init__(self, recorder, seed):
        from repro.binfmt import serialize
        from repro.tools.qpt import QptProfiler

        images = common.build_corpus(recorder)
        self.requests = [(op, name) for name in sorted(images) for op in OPS]
        self.tmp = os.path.join(common.WORK, "tmp", "fleet-%d" % os.getpid())
        shutil.rmtree(self.tmp, ignore_errors=True)
        os.makedirs(self.tmp)
        self.routines = {}
        self.edits = {}
        for name, image in images.items():
            self.routines[name] = common.routine_table(image)
            edited = QptProfiler(image).run().edited_image()
            self.edits[name] = common.digest(serialize.image_to_bytes(edited))
        self.inputs = common.digest(repr(sorted(self.edits.items())).encode())
        self.fleet = Fleet(self.tmp)
        self.clients = []
        try:
            self.fleet.wait_ready()
            self.clients = [self.fleet.client() for _ in range(CLIENTS)]
            warm = common.Tally()
            self.drive(self.requests, recorder, warm)
            if warm.failed:
                raise RuntimeError("fleet warm-up failed: %s"
                                   % warm.errors[0])
            self.shards = self.fleet.shard_addresses()
            self.stats_before = self.stats()
        except BaseException:
            self.close()
            raise

    def close(self):
        for client in self.clients:
            client.close()
        self.clients = []
        self.fleet.stop()

    # ------------------------------------------------------------------
    def _check(self, op, name, result):
        if op == "routines":
            got = [(row["name"], row["blocks"]) for row in result["routines"]]
            if got != self.routines[name]:
                return "%s: routines answer differs from the reference" % name
        elif op == "instrument":
            blob = base64.b64decode(result["edited_image"])
            if common.digest(blob) != self.edits[name]:
                return "%s: served qpt edit differs from the in-process edit" \
                    % name
        elif result.get("output") != common.EXPECTED[name] \
                or result.get("exit_code") != 0:
            return "%s: run printed %r, exit %r" % (
                name, result.get("output"), result.get("exit_code"))
        return None

    def _request(self, client, op, name):
        if op == "instrument":
            return client.request("instrument", workload=name, tool="qpt")
        return client.request(op, workload=name)

    def drive(self, requests, recorder, tally):
        """Send *requests* through the clients in a closed loop."""
        queue = iter(requests)
        lock = threading.Lock()

        def worker(client):
            while True:
                with lock:
                    item = next(queue, None)
                if item is None:
                    return
                op, name = item
                start = clock()
                try:
                    with recorder.span("op"):
                        with recorder.span("serve.client." + op):
                            result = self._request(client, op, name)
                    problem = self._check(op, name, result)
                except Exception as error:  # a failed request
                    problem = "%s %s: %s: %s" % (op, name,
                                                 type(error).__name__, error)
                seconds = clock() - start
                with lock:
                    tally.record(item, seconds, problem)

        threads = [threading.Thread(target=worker, args=(client,),
                                    daemon=True)
                   for client in self.clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def stats(self):
        """Counters and histograms of the gateway and of each shard."""
        def fetch(address):
            from repro.serve.client import ServeClient

            with ServeClient(address, retries=5) as client:
                report = client.request(
                    "stats", sections=["counters", "histograms"])["report"]
            return report["counters"], report["histograms"]

        return fetch(self.fleet.address), [fetch(a) for a in self.shards]


def next_round(state, rng):
    requests = list(state.requests)
    rng.shuffle(requests)
    return requests


def run_round(state, requests, recorder, tally):
    state.drive(requests, recorder, tally)


def remote_layers(state, requests):
    """Per-layer figures the fleet reports through its ``stats`` op, and
    the ``import repro.cli`` share that only a fresh interpreter shows."""
    (gw_before, _), shards_before = state.stats_before
    (gw_counters, gw_hist), shards_after = state.stats()
    counts = {}
    for (before, _), (after, _) in zip(shards_before, shards_after):
        for name, value in common.counter_delta(before, after).items():
            counts[name] = counts.get(name, 0) + value

    def p(histograms, name, q):
        entry = histograms.get(name) or {}
        return (entry.get(q) or 0.0) * 1e3, entry.get("count") or 0

    def weighted(name, q):
        pairs = [p(hist, name, q) for _, hist in shards_after]
        total = sum(count for _, count in pairs)
        return sum(v * c for v, c in pairs) / total if total else 0.0

    extra = {
        "serve.routines.p50_ms": weighted("serve.latency.routines", "p50"),
        "serve.instrument.p50_ms": weighted("serve.latency.instrument",
                                            "p50"),
        "serve.run.p50_ms": weighted("serve.latency.run", "p50"),
        "serve.queue_wait_p99_ms": max(p(hist, "serve.queue_wait", "p99")[0]
                                       for _, hist in shards_after),
        "fleet.queue_wait_p99_ms": p(gw_hist, "fleet.queue_wait", "p99")[0],
        "fleet.retries": gw_counters.get("fleet.retries", 0)
        - gw_before.get("fleet.retries", 0),
        "fleet.rejected": gw_counters.get("fleet.rejected", 0)
        - gw_before.get("fleet.rejected", 0),
        "cli.import_s": common.import_seconds(),
    }
    return counts, requests, extra


def named_metrics(state, rate, tally):
    requests = tally.latencies
    return {
        "requests_per_s": (rate, "1/s"),
        "request_p50_ms": (common.percentile(requests, 0.5) * 1e3, "ms"),
        "request_p99_ms": (common.percentile(requests, 0.99) * 1e3, "ms"),
    }
