"""Shard processes: spawn, health, respawn, and warm hot-restart.

Each shard slot ``0..N-1`` owns one child daemon process (a plain
``repro serve`` with ``--shard-id``) listening on its own Unix socket
under the fleet's run directory.  The slot index is the routing
identity — stable across respawns and restarts — while the process
behind it changes generation (``shard-<i>-g<gen>.sock``), so routing
state never dangles on a dead socket path.

Health is two-source: the manager's health loop pings every slot on an
interval, and forwarders report transport failures inline.  A dead
slot is respawned (within a per-slot budget) and pre-warmed from the
gateway's record of what that slot served recently; while it is down,
rendezvous failover routes its keys to their second-choice shard.

Hot-restart is the same machinery driven deliberately: spawn the
replacement at the next generation, pre-warm it from the *old*
process's own handoff snapshot (the ``handoff``/``warm`` ops), swap
the slot atomically, then drain the old process.  Clients see at most
a ``draining`` answer with ``retry_after`` — which the gateway's
forward loop retries onto the warm replacement — never a failure.
"""

import os
import subprocess
import threading
import time
from collections import OrderedDict

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.serve.client import ServeClient, ServeError, wait_for_daemon

_C_DEATHS = _metrics.counter("fleet.shard_deaths")
_C_RESPAWNS = _metrics.counter("fleet.respawns")
_C_HOT_RESTARTS = _metrics.counter("fleet.hot_restarts")

_RECENT_CAP = 64  # per-slot LRU of workloads, the respawn warm set

# How long a shard declared dead gets to exit after SIGTERM, and then
# after SIGKILL, before its slot is respawned regardless.
_STOP_GRACE_S = 2.0


def _stop_process(process, grace_s=_STOP_GRACE_S):
    """SIGTERM *process*, then SIGKILL it if it outlives *grace_s*.

    Bounded: returns after at most two grace periods even if the
    process survives SIGKILL (an uninterruptible hang), so callers
    holding a lock never wait on it longer than that."""
    for send in (process.terminate, process.kill):
        if process.poll() is not None:
            return
        send()
        try:
            process.wait(timeout=grace_s)
            return
        except subprocess.TimeoutExpired:
            pass


class ShardSlot:
    """One routing slot: a shard process plus its gateway-side state."""

    def __init__(self, index):
        self.index = index
        self.generation = 0
        self.socket_path = None
        self.process = None
        self.alive = False
        self.respawns = 0
        self.lock = threading.Lock()
        # Free connections to the *current* generation, checked out by
        # forwarders; a generation bump orphans them (stale clients are
        # detected by generation tag and discarded on check-in).
        self._pool = []
        # What this slot served recently — the warm set a respawned
        # process is pre-warmed with when the old one died without a
        # handoff (gateway-side fallback snapshot).
        self.recent = OrderedDict()
        # Gateway-side per-slot counters (the `stats` shard table).
        self.requests = 0
        self.ok = 0
        self.errors = 0
        self.rerouted_away = 0

    # ------------------------------------------------------------------
    def note_recent(self, workload):
        if not workload:
            return
        with self.lock:
            self.recent.pop(workload, None)
            self.recent[workload] = True
            while len(self.recent) > _RECENT_CAP:
                self.recent.popitem(last=False)

    def recent_workloads(self):
        with self.lock:
            return list(self.recent)

    # ------------------------------------------------------------------
    def checkout(self, timeout_s):
        """A connected client for the current generation (pooled)."""
        with self.lock:
            path = self.socket_path
            generation = self.generation
            while self._pool:
                tagged_gen, client = self._pool.pop()
                if tagged_gen == generation:
                    return generation, client
                client.close()
        client = ServeClient(path, connect_timeout=2.0,
                             io_timeout=timeout_s, retries=0)
        return generation, client

    def checkin(self, generation, client):
        with self.lock:
            if generation == self.generation and self.alive \
                    and len(self._pool) < 16:
                self._pool.append((generation, client))
                return
        client.close()

    def drop_pool(self):
        with self.lock:
            pool, self._pool = self._pool, []
        for _generation, client in pool:
            client.close()

    # ------------------------------------------------------------------
    def describe(self):
        """JSON-ready shard-table entry (numeric fields become the
        ``shard="N"``-labeled Prometheus samples)."""
        with self.lock:
            return {
                "shard": self.index,
                "alive": self.alive,
                "generation": self.generation,
                "pid": self.process.pid if self.process else None,
                "respawns": self.respawns,
                "requests": self.requests,
                "ok": self.ok,
                "errors": self.errors,
                "rerouted_away": self.rerouted_away,
                "warm_keys": len(self.recent),
                "socket": self.socket_path,
            }


class ShardManager:
    """Owns the shard slots: spawning, health, respawn, hot-restart."""

    def __init__(self, config):
        self.config = config
        self.slots = [ShardSlot(i) for i in range(config.shards)]
        self._spawn_lock = threading.Lock()
        self._stop = threading.Event()
        self._health_thread = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        os.makedirs(self.config.run_dir, exist_ok=True)
        for slot in self.slots:
            self._spawn(slot, generation=1)
        for slot in self.slots:
            if not wait_for_daemon(slot.socket_path,
                                   timeout=self.config.spawn_timeout_s):
                raise RuntimeError("shard %d did not come up on %s"
                                   % (slot.index, slot.socket_path))
            slot.alive = True
        self._health_thread = threading.Thread(target=self._health_loop,
                                               name="fleet-health",
                                               daemon=True)
        self._health_thread.start()
        return self

    def stop(self):
        """Shut every shard down (gateway drain path)."""
        self._stop.set()
        for slot in self.slots:
            self._shutdown_process(slot.socket_path, slot.process)
            with slot.lock:
                slot.alive = False
            slot.drop_pool()

    def live_slots(self):
        return {slot.index for slot in self.slots if slot.alive}

    def shard_table(self):
        return {str(slot.index): slot.describe() for slot in self.slots}

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------

    def _spawn(self, slot, generation):
        """Start a shard process at *generation* and point the slot's
        routing state at it (the cold-start and respawn path; the
        hot-restart path spawns detached and swaps later)."""
        process = self._spawn_detached(slot, generation)
        with slot.lock:
            slot.generation = generation
            slot.socket_path = self.config.shard_socket(slot.index,
                                                        generation)
            slot.process = process
        return process

    def _shutdown_process(self, socket_path, process,
                          timeout_s=None):
        """Drain one shard process: polite shutdown op, then SIGTERM."""
        if process is None:
            return
        timeout_s = timeout_s or self.config.drain_timeout_s
        try:
            with ServeClient(socket_path, connect_timeout=1.0,
                             io_timeout=5.0, retries=0) as client:
                client.shutdown()
        except (OSError, ServeError):
            pass  # already gone or unreachable; SIGTERM below
        try:
            process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            _stop_process(process, grace_s=5.0)

    # ------------------------------------------------------------------
    # Health / failure handling
    # ------------------------------------------------------------------

    def _health_loop(self):
        while not self._stop.wait(self.config.health_interval_s):
            for slot in self.slots:
                if self._stop.is_set():
                    return
                if slot.alive and not self._ping(slot):
                    self.report_failure(slot, reason="health-ping")

    def _ping(self, slot):
        try:
            with ServeClient(slot.socket_path, connect_timeout=1.0,
                             io_timeout=3.0, retries=0) as client:
                return bool(client.ping().get("pong"))
        except (OSError, ServeError):
            return False

    def report_failure(self, slot, reason="transport"):
        """A shard stopped answering: mark dead, respawn within budget.

        Called from the health loop and from forwarders that hit
        transport errors; idempotent per incident (the first reporter
        does the respawn, later ones see ``alive`` already False).
        """
        with self._spawn_lock:
            with slot.lock:
                if not slot.alive:
                    return
                slot.alive = False
                process = slot.process
            slot.drop_pool()
            _C_DEATHS.inc()
            _events.emit("fleet.shard_death", shard=slot.index,
                         generation=slot.generation, reason=reason)
            if process is not None:
                # A slow shard that missed one ping is still running:
                # stop it so the replacement does not run beside it.
                _stop_process(process)
            if self._stop.is_set() \
                    or slot.respawns >= self.config.respawn_limit:
                return
            slot.respawns += 1
            _C_RESPAWNS.inc()
            warm = slot.recent_workloads()
            self._spawn(slot, generation=slot.generation + 1)
            if wait_for_daemon(slot.socket_path,
                               timeout=self.config.spawn_timeout_s):
                self._prewarm(slot.socket_path, warm)
                with slot.lock:
                    slot.alive = True
                _events.emit("fleet.shard_up", shard=slot.index,
                             generation=slot.generation,
                             warmed=len(warm), respawn=True)

    def _prewarm(self, socket_path, workloads):
        if not workloads:
            return 0
        try:
            with ServeClient(socket_path, connect_timeout=2.0,
                             io_timeout=self.config.spawn_timeout_s,
                             retries=0) as client:
                result = client.request("warm", workloads=workloads)
                return result.get("warmed", 0)
        except (OSError, ServeError):
            return 0  # a cold replacement still beats a dead slot

    # ------------------------------------------------------------------
    # Hot restart
    # ------------------------------------------------------------------

    def hot_restart(self, slot):
        """Rolling replacement of *slot* with zero failed requests.

        1. Spawn the next generation on a fresh socket (the old
           process keeps serving).
        2. Ask the *old* process for its handoff snapshot and pre-warm
           the replacement with it (falling back to the gateway-side
           recent set if the old process cannot answer).
        3. Swap the slot's routing state atomically.
        4. Drain the old process; requests it rejects as ``draining``
           are retried by the gateway onto the warm replacement.

        Returns a summary dict (generation, warmed count).
        """
        with self._spawn_lock:
            with slot.lock:
                old_process = slot.process
                old_path = slot.socket_path
                old_generation = slot.generation
            new_generation = old_generation + 1
            new_path = self.config.shard_socket(slot.index, new_generation)
            _events.emit("fleet.hot_restart.begin", shard=slot.index,
                         generation=old_generation,
                         replacement=new_generation)
            replacement = self._spawn_detached(slot, new_generation)
            if not wait_for_daemon(new_path,
                                   timeout=self.config.spawn_timeout_s):
                self._shutdown_process(new_path, replacement,
                                       timeout_s=2.0)
                _events.emit("fleet.hot_restart.abort", shard=slot.index,
                             generation=old_generation)
                raise RuntimeError("replacement shard %d-g%d did not "
                                   "come up" % (slot.index, new_generation))
            workloads = self._handoff(old_path) or slot.recent_workloads()
            warmed = self._prewarm(new_path, workloads)
            # Atomic swap: from here every new forward resolves to the
            # replacement; in-flight requests still finish on the old
            # process while it drains below.
            with slot.lock:
                slot.generation = new_generation
                slot.socket_path = new_path
                slot.process = replacement
                slot.alive = True
            slot.drop_pool()
            _C_HOT_RESTARTS.inc()
            _events.emit("fleet.hot_restart.swap", shard=slot.index,
                         generation=new_generation, warmed=warmed,
                         handoff=len(workloads))
        # Drain outside the spawn lock: other slots stay restartable.
        self._shutdown_process(old_path, old_process)
        _events.emit("fleet.hot_restart.finish", shard=slot.index,
                     generation=new_generation)
        return {"shard": slot.index, "generation": new_generation,
                "warmed": warmed, "handoff": len(workloads)}

    def _spawn_detached(self, slot, generation):
        """Spawn a process for *generation* without touching the slot's
        routing state (the hot-restart pre-swap phase)."""
        path = self.config.shard_socket(slot.index, generation)
        argv = [self.config.python, "-m", "repro.cli", "serve",
                "--socket", path,
                "--shard-id", str(slot.index),
                "--jobs", str(self.config.shard_jobs),
                "--timeout", str(self.config.shard_timeout_s)]
        events_path = self.config.shard_events_path(slot.index)
        if events_path:
            # --trace rides along so per-request span trees land in the
            # shard's event log (the smoke test validates gateway→shard
            # span connectivity across the merged logs).
            argv += ["--events", events_path, "--trace"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.abspath(__file__)))),
                        env.get("PYTHONPATH")) if p)
        process = subprocess.Popen(argv, env=env,
                                   stdout=subprocess.DEVNULL,
                                   stderr=subprocess.DEVNULL)
        _events.emit("fleet.shard_spawn", shard=slot.index,
                     generation=generation, pid=process.pid, socket=path)
        return process

    def _handoff(self, socket_path):
        """The old process's warm snapshot, or None when unreachable."""
        try:
            with ServeClient(socket_path, connect_timeout=1.0,
                             io_timeout=5.0, retries=0) as client:
                result = client.request("handoff")
                workloads = result.get("workloads")
                return workloads if isinstance(workloads, list) else None
        except (OSError, ServeError):
            return None

    def rolling_restart(self):
        """Hot-restart every slot in turn; the fleet never goes cold."""
        summaries = []
        for slot in self.slots:
            summaries.append(self.hot_restart(slot))
        return summaries
