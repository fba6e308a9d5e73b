"""The edit daemon: the worker-pool backend of the server skeleton.

:mod:`repro.serve.server` owns the socket, the connections, admission
and drain; this module supplies what a daemon does with an admitted
request.  A bounded :class:`queue.Queue` is the admission queue (its
bound *is* the backpressure: a full queue turns into an ``overloaded``
response with ``retry_after``, never into unbounded growth); ``jobs``
worker threads execute requests with bounded retry-with-backoff for
transient failures.  A worker killed by
:class:`~repro.serve.ops.WorkerDeath` is replaced from a finite
restart budget; once the budget is spent and no normal worker
survives, a single immortal fallback worker serves the queue serially
— degraded, but never dark.

The daemon process itself stays single-address-space: the cache's
in-memory warm layer is enabled, so all requests share one warm
analysis state under one lock discipline.
"""

import os
import queue
import threading
import time
from collections import OrderedDict
from time import perf_counter

from repro.obs import context as _context
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.serve import ops, protocol, server
from repro.serve.config import ServeConfig

_C_REQUESTS = _metrics.counter("serve.requests")
_C_OK = _metrics.counter("serve.responses.ok")
_C_ERRORS = _metrics.counter("serve.responses.error")
_C_QUEUE_FULL = _metrics.counter("serve.rejected.queue_full")
_C_DRAINING = _metrics.counter("serve.rejected.draining")
_C_TIMEOUTS = _metrics.counter("serve.timeouts")
_C_RETRIES = _metrics.counter("serve.retries")
_C_DEGRADED = _metrics.counter("serve.degraded")
_C_DEATHS = _metrics.counter("serve.worker_deaths")

# Latency accounting is unconditional (histograms are cheap and `repro
# top` must work against a daemon running without --trace).
_H_QUEUE_WAIT = _metrics.histogram("serve.queue_wait")

_STOP = object()  # queue sentinel: worker exits cleanly

_WARM_KEYS_CAP = 64  # recent workloads remembered for hot-restart handoff


class EditServer(server.Server):
    """Long-lived edit daemon over a Unix (or ``tcp://``) stream socket."""

    name, prog, role = "serve", "repro-serve", "daemon"
    start_event, drain_event = "daemon.start", "drain"
    counters = server.Counters(
        requests=_C_REQUESTS, ok=_C_OK, errors=_C_ERRORS,
        draining=_C_DRAINING, overloaded=_C_QUEUE_FULL,
        timeouts=_C_TIMEOUTS)

    def __init__(self, config=None):
        config = config or ServeConfig()
        super().__init__(config, config.socket_path)
        self.shard_id = config.shard_id
        self._queue = queue.Queue(maxsize=config.queue_size)
        self._workers = {}            # thread -> True while alive
        self._restarts_used = 0
        self._fallback_started = False
        self._coalesce_lock = threading.Lock()
        self._coalescing = {}         # key -> Event of the leading request
        self._chaos_lock = threading.Lock()
        self._chaos_counts = {}
        self._worker_states = {}      # thread name -> "idle" | op name
        self._top_lock = threading.Lock()
        self._top_cursor = 0
        self._top_snapshots = {}      # cursor -> counter snapshot
        self._warm_lock = threading.Lock()
        self._warm_keys = OrderedDict()  # workload name -> True (LRU)

    # ------------------------------------------------------------------
    # Backend hooks of the server skeleton
    # ------------------------------------------------------------------

    def _start_backend(self):
        """Warm the caches, spawn the worker pool."""
        from repro.cache import enable_memory_layer

        enable_memory_layer(self.config.warm_cap)
        for _ in range(self.config.jobs):
            self._spawn_worker()

    def _start_fields(self):
        return {"socket": self.address, "jobs": self.config.jobs,
                "queue_size": self.config.queue_size,
                "tracing": _trace.is_enabled()}

    def _submit(self, job):
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            return False
        return True

    def _queue_depth(self):
        return self._queue.qsize()

    def _wait_deadline(self):
        return self.config.timeout_s

    def _stop(self, deadline):
        """Dismiss the workers and join them: no orphans."""
        with self._lock:
            workers = list(self._workers)
        for _ in workers:
            try:
                self._queue.put(_STOP, timeout=1.0)
            except queue.Full:
                break
        for thread in workers:
            thread.join(max(0.1, deadline - time.monotonic()))
        return {"degraded": self._fallback_started,
                "worker_deaths": _C_DEATHS.value}

    def banner(self):
        shard_tag = "" if self.shard_id is None \
            else ", shard %d" % self.shard_id
        return "listening on %s (%d workers, queue %d, pid %d%s)" % (
            self.address, self.config.jobs, self.config.queue_size,
            os.getpid(), shard_tag)

    def summary(self, report):
        serve = report["serve"]
        return ("drained cleanly (%d requests: %d ok, %d errors, "
                "%d rejected, %d timeouts)"
                % (serve["requests"], serve["ok"], serve["errors"],
                   serve["rejected"], serve["timeouts"]))

    def describe(self):
        with self._lock:
            alive = len(self._workers)
            degraded = self._fallback_started
            states = dict(self._worker_states)
        return dict(super().describe(),
                    shard=self.shard_id, socket=self.address,
                    jobs=self.config.jobs, workers_alive=alive,
                    worker_states=states, degraded=degraded)

    def top_snapshot(self, cursor=None):
        """Incremental metrics snapshot for the ``top`` op.

        Returns live daemon state plus *counter deltas* since the
        snapshot named by *cursor* (absolute values when the cursor is
        unknown or absent), gauges, and per-op latency percentiles.
        The response carries a fresh cursor the caller hands back on
        its next call; a handful of recent snapshots are kept so one
        slow watcher cannot grow daemon memory.
        """
        counters = {name: instrument.value for name, instrument
                    in _metrics.REGISTRY.counters.items()}
        with self._top_lock:
            baseline = self._top_snapshots.get(cursor, {})
            self._top_cursor += 1
            fresh = self._top_cursor
            self._top_snapshots[fresh] = counters
            while len(self._top_snapshots) > 8:
                self._top_snapshots.pop(min(self._top_snapshots))
        deltas = {name: value - baseline.get(name, 0)
                  for name, value in sorted(counters.items())
                  if value - baseline.get(name, 0)}
        gauges = {name: instrument.value for name, instrument
                  in sorted(_metrics.REGISTRY.gauges.items())
                  if instrument.value is not None}
        latency = {}
        for name, instrument in sorted(_metrics.REGISTRY.histograms.items()):
            if name.startswith("serve.latency.") and instrument.count:
                latency[name[len("serve.latency."):]] = instrument.snapshot()
        queue_wait = _H_QUEUE_WAIT.snapshot() if _H_QUEUE_WAIT.count \
            else None
        return {
            "cursor": fresh,
            "incremental": bool(baseline),
            "server": self.describe(),
            "counters": deltas,
            "gauges": gauges,
            "latency": latency,
            "queue_wait": queue_wait,
        }

    # ------------------------------------------------------------------
    # Shared warm-state helpers (used by ops)
    # ------------------------------------------------------------------

    def coalesce(self, key, fn):
        """Run *fn* once per concurrent burst of *key*.

        The first requester becomes the leader and computes; everyone
        arriving while the leader runs waits, then recomputes against
        the warm state the leader left (memoized verdicts, in-memory
        summaries), which is the cheap path.  Leader failure just
        releases the waiters to try themselves.
        """
        with self._coalesce_lock:
            event = self._coalescing.get(key)
            if event is None:
                self._coalescing[key] = event = threading.Event()
                leader = True
            else:
                leader = False
        if leader:
            _events.emit("coalesce.leader", key=key)
            try:
                return fn()
            finally:
                with self._coalesce_lock:
                    self._coalescing.pop(key, None)
                event.set()
        ops._C_COALESCED.inc()
        _events.emit("coalesce.loser", key=key)
        event.wait(self.config.timeout_s)
        return fn()

    def chaos_attempts(self, key):
        with self._chaos_lock:
            self._chaos_counts[key] = self._chaos_counts.get(key, 0) + 1
            return self._chaos_counts[key]

    def note_warm(self, workload):
        """Remember that *workload* is warm here (handoff snapshot)."""
        with self._warm_lock:
            self._warm_keys.pop(workload, None)
            self._warm_keys[workload] = True
            while len(self._warm_keys) > _WARM_KEYS_CAP:
                self._warm_keys.popitem(last=False)

    def warm_workloads(self):
        """Recently served workloads, oldest first — what a hot-restart
        replacement should pre-analyze before taking this daemon's
        traffic."""
        with self._warm_lock:
            return list(self._warm_keys)

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    def _spawn_worker(self, fallback=False):
        name = "serve-fallback" if fallback else \
            "serve-worker-%d" % len(self._workers)
        thread = threading.Thread(target=self._worker_loop, args=(fallback,),
                                  name=name, daemon=True)
        with self._lock:
            self._workers[thread] = True
        thread.start()
        return thread

    def _set_worker_state(self, state):
        with self._lock:
            self._worker_states[threading.current_thread().name] = state

    def _worker_loop(self, fallback=False):
        """Execute queued jobs until dismissed.

        A normal worker dies with its job on WorkerDeath: the job is
        requeued within budget and the worker replaced.  The fallback
        worker (serial execution once the pool is unhealthy) catches it
        instead: with the restart budget spent, staying alive serially
        beats going dark.
        """
        self._set_worker_state("idle")
        while True:
            job = self._queue.get()
            if job is _STOP:
                self._remove_worker()
                return
            if fallback:
                _C_DEGRADED.inc()
            try:
                self._set_worker_state(job.op)
                self._execute(job)
            except ops.WorkerDeath as death:
                _C_DEATHS.inc()
                _events.emit("worker.death",
                             worker=threading.current_thread().name,
                             op=job.op, degraded=fallback, reason=str(death))
                if not fallback:
                    self._reschedule_after_death(job, death)
                    self._remove_worker()
                    self._replace_worker()
                    return
                job.finish(protocol.error_response(
                    job.id, protocol.E_INTERNAL,
                    "worker death in degraded mode: %s" % death))
                _C_ERRORS.inc()
            self._job_finished(job)
            self._set_worker_state("idle")

    def _execute(self, job):
        """Run one job to a response, retrying transient failures.

        The job's trace context is attached for the duration, so every
        span the handler opens (cache, analysis, verify, simulation)
        joins the request's trace; the whole per-request span tree is
        serialized into the ``request.finish`` event rather than the
        process-global forest, keeping daemon memory flat.
        """
        if job.abandoned:
            job.finish(None)
            return
        started = perf_counter()
        queue_wait = started - job.admitted
        _H_QUEUE_WAIT.observe(queue_wait)
        token = _context.attach(job.context)
        span_attrs = {"op": job.op, "request_id": job.id,
                      "worker": threading.current_thread().name}
        if self.config.shard_id is not None:
            span_attrs["shard"] = self.config.shard_id
        root_span = _trace.TRACER.request_span("serve.request",
                                               **span_attrs)
        root_span.__enter__()
        status, code = "ok", None
        try:
            while True:
                try:
                    result = ops.dispatch(self, job.op, job.params)
                except ops.OpError as error:
                    _C_ERRORS.inc()
                    status, code = "error", error.code
                    job.finish(protocol.error_response(
                        job.id, error.code, error.message))
                    return
                except ops.TransientOpError as error:
                    if job.attempts < self.config.retries:
                        job.attempts += 1
                        _C_RETRIES.inc()
                        time.sleep(self.config.backoff_for(job.attempts))
                        continue
                    _C_ERRORS.inc()
                    status, code = "error", protocol.E_INTERNAL
                    job.finish(protocol.error_response(
                        job.id, protocol.E_INTERNAL,
                        "retries exhausted: %s" % error))
                    return
                _C_OK.inc()
                job.finish(protocol.ok_response(job.id, result))
                return
        finally:
            # Runs on every exit — return paths and WorkerDeath alike —
            # so the span stack and context never leak across jobs.
            root_span.__exit__(None, None, None)
            _context.detach(token)
            handler_s = perf_counter() - started
            _metrics.histogram("serve.latency.%s" % job.op) \
                .observe(handler_s)
            if not job.done.is_set() and status == "ok":
                # WorkerDeath unwound dispatch before a response landed.
                status, code = "error", protocol.E_INTERNAL
            extra = {"abandoned": True} if job.abandoned else {}
            self._emit_request_event(job, status, code, root_span,
                                     queue_wait_s=queue_wait,
                                     handler_s=handler_s,
                                     attempts=job.attempts, **extra)

    def _reschedule_after_death(self, job, death):
        """Worker death mid-job is transient: requeue within budget."""
        if job.attempts < self.config.retries:
            job.attempts += 1
            _C_RETRIES.inc()
            try:
                self._queue.put_nowait(job)
                _events.emit("request.requeued",
                             trace_id=job.context.trace_id,
                             id=job.id, op=job.op, attempts=job.attempts)
                return  # stays in flight; a surviving worker picks it up
            except queue.Full:
                pass
        _C_ERRORS.inc()
        job.finish(protocol.error_response(
            job.id, protocol.E_INTERNAL, "worker died: %s" % death))
        self._job_finished(job)

    def _remove_worker(self):
        with self._lock:
            self._workers.pop(threading.current_thread(), None)

    def _replace_worker(self):
        with self._lock:
            if self._restarts_used < self.config.restarts:
                self._restarts_used += 1
                fallback = False
            elif not self._workers and not self._fallback_started:
                self._fallback_started = True
                fallback = True
            else:
                return  # budget spent; surviving workers carry the load
        if fallback:
            _events.emit("worker.degraded",
                         restarts_used=self._restarts_used)
        else:
            _events.emit("worker.restart",
                         restarts_used=self._restarts_used,
                         restarts_budget=self.config.restarts)
        self._spawn_worker(fallback=fallback)


def serve_main(config, stats_json=None, trace=False):
    """Run a daemon in the foreground until SIGTERM/SIGINT/shutdown.

    On drain the full ``repro.obs`` report — ``serve.*`` counters and,
    when tracing, the span forest — is flushed to *stats_json* and a
    one-line summary goes to stderr.  Returns the process exit code.
    """
    return server.main(EditServer(config), stats_json, trace)
