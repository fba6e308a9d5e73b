"""The server skeleton shared by the edit daemon and the fleet gateway.

Both speak ``repro.serve/1`` and differ only in what happens to an
admitted request: :class:`~repro.serve.daemon.EditServer` runs it on a
local worker pool, :class:`~repro.fleet.gateway.FleetGateway` forwards
it to a shard daemon.  Everything in front of that lives here, once:

* the listener — a Unix socket path (probed before a stale file is
  clobbered, so a live server's path is never stolen) or
  ``tcp://host:port``;
* one thread per accepted connection turning lines into requests;
* the common part of every request: trace adoption, ``trace_id``
  tagging, the ``bad_request``/``shutdown``/``draining`` answers, ops
  the backend answers inline, admission with in-flight accounting,
  and the bounded wait for the backend's response;
* the drain sequence (stop accepting, finish in-flight work, stop the
  backend, unlink the socket);
* :func:`main`, the foreground entry point with signal handling and
  the telemetry flush.

A backend subclasses :class:`Server` and supplies only what differs.
"""

import contextlib
import errno
import os
import socket
import sys
import threading
import time
from collections import namedtuple
from time import perf_counter

from repro.obs import context as _context
from repro.obs import events as _events
from repro.obs import trace as _trace
from repro.serve import protocol
from repro.serve.client import parse_address
from repro.serve.ops import OpError

# The counters a backend reports the skeleton's outcomes under; None
# leaves an outcome uncounted.
Counters = namedtuple("Counters", "requests ok errors draining overloaded "
                                  "timeouts", defaults=(None,) * 6)


def socket_in_use(path):
    """True when a live server still answers connections at *path*.

    Distinguishes a *stale* socket file (the previous server was
    killed; connecting is refused) from a *live* one (another server
    is serving it right now).  Unlinking a live server's socket would
    silently steal its rendezvous point — two servers would both
    believe they own the path while only the thief receives
    connections.
    """
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
        probe.settimeout(0.5)
        try:
            probe.connect(path)
        except OSError:
            return False  # refused / gone / not a socket: safe to clobber
    return True


class Job:
    """One admitted request travelling from its connection to a backend."""

    __slots__ = ("id", "op", "params", "attempts", "done", "response",
                 "abandoned", "context", "admitted")

    def __init__(self, request_id, op, params, context):
        self.id = request_id
        self.op = op
        self.params = params
        self.attempts = 0
        self.done = threading.Event()
        self.response = None
        self.abandoned = False  # requester gave up (timeout); drop result
        self.context = context  # TraceContext the request travels under
        self.admitted = perf_counter()

    def finish(self, response):
        self.response = response
        self.done.set()


class Server:
    """Listener, connections, admission and drain over one backend.

    Lifecycle: ``start()`` binds and spawns threads; ``request_drain()``
    (SIGTERM, the ``shutdown`` op, or a test) begins graceful shutdown;
    ``wait_drained()`` blocks until in-flight work finished and the
    backend stopped.

    A backend supplies:

    * ``_start_backend()`` — start what executes admitted jobs;
    * ``_submit(job)`` — hand a job over; False when overloaded;
    * ``_wait_deadline()`` — seconds a connection waits for a response;
    * ``_queue_depth()`` — jobs admitted but not yet picked up;
    * ``_stop(deadline)`` — stop the backend; returns extra fields for
      the drain-finish event;
    * ``_start_fields()``, ``banner()``, ``summary(report)`` — its
      start event, and its stderr lines at start and after drain;
    * the class attributes below, and ``describe()`` additions.
    """

    # Names the backend reports under (thread prefix, stderr prefix,
    # the noun in messages, event kinds) and its counters.
    name = prog = role = start_event = drain_event = None
    counters = Counters()
    shard_id = None                 # stamped onto every response when set
    shutdown_result = {"draining": True}
    # Ops answered inline on the connection thread, never admitted:
    # name -> handler(server, params) returning a result dict.
    local_ops = {}

    def __init__(self, config, address):
        self.config = config
        self.address = address
        self.started_at = None
        self._listener = None
        self._unix_path = None
        self._lock = threading.Lock()
        self._in_flight = 0
        self._inflight_zero = threading.Condition(self._lock)
        self._drain_requested = threading.Event()
        self.drained = threading.Event()

    def _admit_fields(self, op):
        """Extra fields of the ``request.admit`` event."""
        return {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Bind the listener, start the backend, spawn accept and drain."""
        self._bind()
        try:
            self._start_backend()
        except BaseException:
            self._listener.close()
            self._unlink()
            raise
        self.started_at = time.monotonic()
        for target, role in ((self._accept_loop, "accept"),
                             (self._drain_loop, "drain")):
            threading.Thread(target=target, daemon=True,
                             name="%s-%s" % (self.name, role)).start()
        _events.emit(self.start_event, pid=os.getpid(),
                     **self._start_fields())
        return self

    def _bind(self):
        family, target = parse_address(self.address)
        if family == "unix":
            if os.path.exists(target):
                # Probe before unlink: a *stale* socket (the previous
                # server was killed) is clobbered; a *live* one is
                # refused, so two servers never steal each other's path.
                if socket_in_use(target):
                    raise OSError(errno.EADDRINUSE,
                                  "socket %s is served by a live %s; "
                                  "refusing to steal it"
                                  % (target, self.role))
                os.unlink(target)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._unix_path = target
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind(target)
            # Backlog sized for a whole client fleet connecting at
            # once; the kernel clamps to net.core.somaxconn.
            listener.listen(min(socket.SOMAXCONN, 512))
        except OSError:
            listener.close()
            raise
        listener.settimeout(0.2)
        self._listener = listener

    def _unlink(self):
        if self._unix_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self._unix_path)

    def request_drain(self):
        """Begin graceful shutdown (idempotent, signal-safe)."""
        self._drain_requested.set()

    def wait_drained(self, timeout=None):
        return self.drained.wait(timeout)

    def describe(self):
        """Live server state (the ``server`` part of stats and top)."""
        return {
            "pid": os.getpid(),
            "draining": self._drain_requested.is_set(),
            "queue_depth": self._queue_depth(),
            "uptime_s": time.monotonic() - self.started_at
            if self.started_at is not None else 0.0,
        }

    def report(self):
        """The ``repro.obs`` report behind ``stats`` and the drain flush."""
        from repro.obs import report as obs_report

        return obs_report.build_report()

    # ------------------------------------------------------------------
    # Accept / connection handling
    # ------------------------------------------------------------------

    def _accept_loop(self):
        while not self._drain_requested.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed underneath us
            threading.Thread(target=self._serve_connection,
                             args=(conn,), daemon=True).start()

    def _serve_connection(self, conn):
        reader = protocol.LineReader(conn)
        with contextlib.suppress(OSError), conn:  # OSError: peer went away
            while True:
                try:
                    message = reader.next_message()
                except protocol.ProtocolError as error:
                    conn.sendall(protocol.encode(protocol.error_response(
                        None, protocol.E_BAD_REQUEST, str(error))))
                    return
                if message is None:
                    return
                response = self._handle_request(message)
                if response is not None:
                    conn.sendall(protocol.encode(response))

    def _handle_request(self, message):
        request_id = message.get("id")
        op = message.get("op")
        # Adopt the client's trace context, or mint one: every request
        # is attributable in the event log either way.
        ctx = _context.TraceContext.from_wire(message.get("trace")) \
            or _context.TraceContext()
        counters = self.counters
        _bump(counters.requests)

        def _tagged(response):
            if isinstance(response, dict):
                response.setdefault("trace_id", ctx.trace_id)
                if self.shard_id is not None:
                    response.setdefault("shard", self.shard_id)
            return response

        def _error(code, text, counter, **fields):
            _bump(counter)
            _events.emit("request.error", trace_id=ctx.trace_id,
                         id=request_id, op=op, code=code, **fields)
            return _tagged(protocol.error_response(
                request_id, code, text,
                retry_after=self.config.retry_after_s))

        if not isinstance(op, str):
            _bump(counters.errors)
            return _tagged(protocol.error_response(
                request_id, protocol.E_BAD_REQUEST,
                "request needs a string 'op'"))
        if op == "shutdown":
            self.request_drain()
            _bump(counters.ok)
            return _tagged(protocol.ok_response(request_id,
                                                dict(self.shutdown_result)))
        if self._drain_requested.is_set():
            # retry_after: under a fleet, a draining shard is being
            # replaced — a brief client backoff usually lands on the
            # warm successor instead of failing.
            return _error(protocol.E_DRAINING, "%s is draining" % self.role,
                          counters.draining)
        params = {key: value for key, value in message.items()
                  if key not in ("id", "op", "trace")}
        handler = self.local_ops.get(op)
        if handler is not None:
            with _context.attached(ctx):
                return _tagged(_run_local(handler, self, request_id,
                                          params))
        job = Job(request_id, op, params, ctx)
        _events.emit("request.admit", trace_id=ctx.trace_id,
                     id=request_id, op=op, queue_depth=self._queue_depth(),
                     **self._admit_fields(op))
        # Count the job in flight *before* the backend can see it: a
        # job finishing instantly must never see the count at 0.
        with self._lock:
            self._in_flight += 1
        if not self._submit(job):
            self._job_finished(job)
            return _error(protocol.E_OVERLOADED,
                          "%s admission queue is full (%d waiting)"
                          % (self.role, self.config.queue_size),
                          counters.overloaded,
                          queue_depth=self.config.queue_size)
        deadline = self._wait_deadline()
        if not job.done.wait(deadline):
            job.abandoned = True
            return _error(protocol.E_TIMEOUT,
                          "request exceeded %.1fs" % deadline,
                          counters.timeouts, timeout_s=deadline)
        return _tagged(job.response)

    def _job_finished(self, job):
        if not job.done.is_set():
            job.finish(None)
        with self._lock:
            self._in_flight -= 1
            if self._in_flight <= 0:
                self._inflight_zero.notify_all()

    def _emit_request_event(self, job, status, code, root, **fields):
        """``request.finish`` (or ``request.error``) for an executed
        job, carrying the request's serialized span tree."""
        if not _events.is_configured():
            return
        fields.update(trace_id=job.context.trace_id, id=job.id, op=job.op)
        if isinstance(root, _trace.Span):
            fields["spans"] = [root.to_dict()]
        if status == "ok":
            _events.emit("request.finish", **fields)
        else:
            _events.emit("request.error",
                         code=code or protocol.E_INTERNAL, **fields)

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------

    def _drain_loop(self):
        self._drain_requested.wait()
        _events.emit(self.drain_event + ".begin",
                     queue_depth=self._queue_depth(),
                     in_flight=self._in_flight)
        deadline = time.monotonic() + self.config.drain_timeout_s
        # 1. Stop accepting: the accept loop exits on the drain flag;
        #    closing the listener unblocks it immediately.
        with contextlib.suppress(OSError):
            self._listener.close()
        # 2. Finish in-flight work (admitted jobs; open connections are
        #    already getting 'draining' rejections for anything new).
        with self._lock:
            while self._in_flight > 0 and time.monotonic() < deadline:
                self._inflight_zero.wait(timeout=0.1)
        # 3. Stop the backend: no orphaned threads or processes.
        fields = self._stop(deadline)
        self._unlink()
        _events.emit(self.drain_event + ".finish",
                     clean=self._in_flight <= 0, **fields)
        self.drained.set()


def _bump(counter):
    if counter is not None:
        counter.inc()


def _run_local(handler, server, request_id, params):
    try:
        return protocol.ok_response(request_id, handler(server, params))
    except OpError as error:
        return protocol.error_response(request_id, error.code,
                                       error.message)
    except Exception as error:
        return protocol.error_response(
            request_id, protocol.E_INTERNAL,
            "%s: %s" % (type(error).__name__, error))


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------

def main(server, stats_json=None, trace=False):
    """Run *server* in the foreground until SIGTERM/SIGINT/shutdown.

    Tracing is on whenever something reads spans: ``trace``, the
    *stats_json* flush, or the event log, whose request records carry
    each request's span tree.  On drain the full ``repro.obs`` report
    is flushed to *stats_json* (and rendered to stderr under *trace*),
    and a one-line summary goes to stderr.  Returns the process exit
    code.
    """
    import json
    import signal

    from repro import obs
    from repro.obs import report as obs_report

    events_path = server.config.events_path
    if stats_json or trace or events_path:
        obs.enable()
    if events_path:
        _events.configure(events_path)
        # Every record a shard process writes names its shard.
        _events.bind(shard=server.shard_id)
    try:
        server.start()
    except (OSError, RuntimeError, ValueError) as error:
        print("%s: %s" % (server.prog, error), file=sys.stderr, flush=True)
        if events_path:
            _events.unconfigure()
        return 1
    print("%s: %s" % (server.prog, server.banner()), file=sys.stderr,
          flush=True)

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, lambda _signum, _frame:
                          server.request_drain())
        except ValueError:
            pass  # not the main thread (embedded use)
    # Chunked waits keep the main thread responsive to signals.
    while not server.wait_drained(timeout=0.2):
        pass
    obs.disable()
    if events_path:
        _events.unconfigure()
    report = server.report()
    if stats_json:
        with open(stats_json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if trace:
        obs_report.render(report)
    print("%s: %s" % (server.prog, server.summary(report)),
          file=sys.stderr, flush=True)
    return 0
