"""The fleet gateway: one front door, N warm shard daemons behind it.

The gateway is the forwarding backend of the server skeleton in
:mod:`repro.serve.server`, which :class:`~repro.serve.daemon.EditServer`
also runs: it speaks the same ``repro.serve/1`` protocol as a single
daemon — a client cannot tell the difference except that answers carry
a ``shard`` field — and listens on a Unix socket or ``tcp://host:port``.
The skeleton parses requests per connection; admitted requests enter the
two-class :class:`~repro.fleet.admission.AdmissionQueue` (interactive
ahead of bulk, starvation-bounded); forwarder threads route each
request by content key over the rendezvous ring to the shard that
holds that executable's warm analysis state, and relay the shard's
response verbatim.

The gateway owns retries, not its shard clients: a transport failure
marks the shard dead (respawn path) and re-routes to the key's
next-choice live shard; a ``draining`` or ``overloaded`` answer backs
off by the shard's own ``retry_after`` hint and re-resolves — which is
how a hot-restart looks like nothing at all from the outside.

A few ops never reach a shard: ``ping``, ``stats``, ``top``, and
``shutdown`` describe or control the fleet itself, and ``hot_restart``
triggers a rolling replacement.  ``stats`` grafts the live shard table
into the report's ``fleet`` section, which is what gives ``repro
export`` its per-shard labels and ``repro top`` its shard rows.
"""

import os
import threading
import time
from time import perf_counter

from repro.obs import context as _context
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.serve import ops, protocol, server
from repro.serve.client import ServeError
from repro.fleet import ring
from repro.fleet.admission import AdmissionQueue, priority_class
from repro.fleet.config import FleetConfig
from repro.fleet.shards import ShardManager

_C_REQUESTS = _metrics.counter("fleet.requests")
_C_FORWARDED = _metrics.counter("fleet.forwarded")
_C_REROUTED = _metrics.counter("fleet.rerouted")
_C_RETRIES = _metrics.counter("fleet.retries")
_C_REJECTED = _metrics.counter("fleet.rejected")
_G_Q_INTERACTIVE = _metrics.gauge("fleet.queue.interactive")
_G_Q_BULK = _metrics.gauge("fleet.queue.bulk")
_H_QUEUE_WAIT = _metrics.histogram("fleet.queue_wait")

_STOP = object()


def _op_ping(gateway, params):
    return dict(ops.HANDLERS["ping"](gateway, params),
                fleet={"shards": gateway.config.shards,
                       "live": len(gateway.manager.live_slots())})


def _op_hot_restart(gateway, params):
    manager = gateway.manager
    shard = params.get("shard")
    if shard is None:
        return {"restarted": manager.rolling_restart()}
    if not isinstance(shard, int) \
            or not 0 <= shard < gateway.config.shards:
        raise ValueError("no such shard %r" % (shard,))
    return {"restarted": [manager.hot_restart(manager.slots[shard])]}


class FleetGateway(server.Server):
    """Front process: admission, routing, forwarding, fleet control."""

    name, prog, role = "fleet", "repro-fleet", "gateway"
    start_event, drain_event = "fleet.start", "fleet.drain"
    counters = server.Counters(requests=_C_REQUESTS, draining=_C_REJECTED,
                               overloaded=_C_REJECTED)
    shutdown_result = {"draining": True, "fleet": True}
    # Fleet state and control: answered by the gateway, never forwarded.
    local_ops = {"ping": _op_ping, "stats": ops.HANDLERS["stats"],
                 "top": ops.HANDLERS["top"], "hot_restart": _op_hot_restart}

    def __init__(self, config=None):
        config = config or FleetConfig()
        super().__init__(config, config.address)
        self.manager = ShardManager(config)
        self.queue = AdmissionQueue(config.queue_size,
                                    config.starvation_limit)
        self._forwarders = []

    # ------------------------------------------------------------------
    # Backend hooks of the server skeleton
    # ------------------------------------------------------------------

    def _start_backend(self):
        """Spawn the shard fleet, then the forwarders."""
        self.manager.start()
        for index in range(self.config.forwarders):
            thread = threading.Thread(target=self._forward_loop,
                                      name="fleet-forward-%d" % index,
                                      daemon=True)
            thread.start()
            self._forwarders.append(thread)

    def _start_fields(self):
        return {"address": self.address, "shards": self.config.shards,
                "forwarders": self.config.forwarders}

    def _admit_fields(self, op):
        return {"priority": priority_class(op)}

    def _submit(self, job):
        if not self.queue.put(job, op=job.op):
            return False
        self._note_depths()
        return True

    def _queue_depth(self):
        return len(self.queue)

    def _wait_deadline(self):
        # Worst case one forward waits through a full shard timeout per
        # retry; bound the client wait above that so the gateway, not
        # the client's io_timeout, reports the failure.
        return self.config.shard_timeout_s \
            * (1 + min(1, self.config.retries)) + 10.0

    def _stop(self, deadline):
        """Dismiss the forwarders, then shut every shard down."""
        for _ in self._forwarders:
            self.queue.put_control(_STOP)
        for thread in self._forwarders:
            thread.join(max(0.1, deadline - time.monotonic()))
        self.manager.stop()
        return {}

    def banner(self):
        return "gateway on %s (%d shards, %d forwarders, pid %d)" % (
            self.address, self.config.shards, self.config.forwarders,
            os.getpid())

    def summary(self, report):
        fleet = report["fleet"]
        return ("drained (%d requests, %d forwarded, %d rerouted, "
                "%d retries, %d hot restarts)"
                % (fleet["requests"], fleet["forwarded"], fleet["rerouted"],
                   fleet["retries"], fleet["hot_restarts"]))

    def describe(self):
        interactive, bulk = self.queue.depths()
        return dict(super().describe(),
                    fleet=True, address=self.address,
                    shards=self.config.shards,
                    live=sorted(self.manager.live_slots()),
                    forwarders=self.config.forwarders,
                    queue_depth=interactive + bulk,
                    queues={"interactive": interactive, "bulk": bulk})

    def report(self):
        """The obs report with the live shard table grafted into its
        ``fleet`` section: ``repro export`` labels and ``repro top``
        rows come from it."""
        report = super().report()
        report["fleet"]["shards"] = self.manager.shard_table()
        return report

    def top_snapshot(self, cursor=None):
        """Fleet shape of the ``top`` op: gateway counters plus the
        shard table (``repro top`` renders the table when present).
        Never incremental, so *cursor* is ignored."""
        counters = {name: instrument.value for name, instrument
                    in sorted(_metrics.REGISTRY.counters.items())
                    if instrument.value and name.startswith("fleet.")}
        gauges = {name: instrument.value for name, instrument
                  in sorted(_metrics.REGISTRY.gauges.items())
                  if instrument.value is not None}
        queue_wait = _H_QUEUE_WAIT.snapshot() if _H_QUEUE_WAIT.count \
            else None
        return {
            "cursor": 0,
            "incremental": False,
            "server": self.describe(),
            "counters": counters,
            "gauges": gauges,
            "latency": {},
            "queue_wait": queue_wait,
            "shards": self.manager.shard_table(),
        }

    def _note_depths(self):
        interactive, bulk = self.queue.depths()
        _G_Q_INTERACTIVE.set(interactive)
        _G_Q_BULK.set(bulk)

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------

    def _forward_loop(self):
        while True:
            job = self.queue.get(timeout=0.2)
            if job is _STOP:
                return
            if job is None:
                continue
            self._note_depths()
            try:
                self._forward(job)
            finally:
                self._job_finished(job)

    def _forward(self, job):
        _H_QUEUE_WAIT.observe(perf_counter() - job.admitted)
        token = _context.attach(job.context)
        root = _trace.TRACER.request_span("fleet.request", op=job.op,
                                          request_id=job.id)
        root.__enter__()
        status, code, shard_used = "ok", None, None
        try:
            response, shard_used = self._forward_routed(job, root)
            if isinstance(response, dict):
                code = (response.get("error") or {}).get("code")
                status = "ok" if response.get("ok") else "error"
            job.finish(response)
        finally:
            root.__exit__(None, None, None)
            _context.detach(token)
            self._emit_request_event(job, status, code, root,
                                     shard=shard_used)

    def _forward_routed(self, job, root):
        """Route and relay one request; returns (response, shard_index).

        Transport failures re-route to the key's next-choice live
        shard (the failing shard is reported for respawn); ``draining``
        and ``overloaded`` answers back off and re-resolve, so a
        mid-hot-restart shard costs one retry, never a failure.
        """
        key = ring.content_key(job.op, job.params) \
            or "req:%s:%s" % (job.op, job.id)
        attempts = 0
        while True:
            slot_index = ring.route(key, self.config.shards,
                                    live=self.manager.live_slots())
            if slot_index is None:
                return protocol.error_response(
                    job.id, protocol.E_UNAVAILABLE,
                    "no live shards (fleet of %d)" % self.config.shards,
                    retry_after=self.config.retry_after_s), None
            slot = self.manager.slots[slot_index]
            with slot.lock:
                slot.requests += 1
            with _trace.TRACER.span("fleet.forward", shard=slot_index,
                                    attempt=attempts) as forward_span:
                if isinstance(forward_span, _trace.Span) \
                        and forward_span.span_id:
                    wire = job.context.child(forward_span.span_id)
                else:
                    wire = job.context
                params = dict(job.params)
                params["trace"] = wire.to_wire()
                generation, client = slot.checkout(
                    self.config.shard_timeout_s)
                try:
                    response = client.roundtrip(job.op, **params)
                except (OSError, ServeError, protocol.ProtocolError):
                    client.close()
                    with slot.lock:
                        slot.rerouted_away += 1
                    _C_REROUTED.inc()
                    _events.emit("fleet.reroute", shard=slot_index,
                                 op=job.op, key=key)
                    # Report in a helper thread? No: report_failure is
                    # idempotent and bounded; inline keeps ordering.  A
                    # client of a generation a hot restart already
                    # swapped out says nothing about the current one.
                    if generation == slot.generation:
                        self.manager.report_failure(slot)
                    attempts += 1
                    if attempts > self.config.retries \
                            + self.config.shards:
                        return protocol.error_response(
                            job.id, protocol.E_UNAVAILABLE,
                            "shard %d unreachable and rerouting "
                            "exhausted" % slot_index), slot_index
                    continue
                slot.checkin(generation, client)
            code = (response.get("error") or {}).get("code") \
                if isinstance(response, dict) else None
            if code in (protocol.E_DRAINING, protocol.E_OVERLOADED) \
                    and attempts < self.config.retries:
                attempts += 1
                _C_RETRIES.inc()
                retry_after = response.get("retry_after")
                time.sleep(min(retry_after if retry_after is not None
                               else self.config.retry_after_s, 2.0))
                continue
            # Relay: the response is the shard's, the identity is ours.
            if isinstance(response, dict):
                response["id"] = job.id
                response["shard"] = slot_index
                if response.get("ok"):
                    with slot.lock:
                        slot.ok += 1
                    slot.note_recent(job.params.get("workload"))
                else:
                    with slot.lock:
                        slot.errors += 1
            _C_FORWARDED.inc()
            return response, slot_index


def fleet_main(config, stats_json=None, trace=False):
    """Run a gateway (and its shard fleet) until SIGTERM/shutdown."""
    return server.main(FleetGateway(config), stats_json, trace)
