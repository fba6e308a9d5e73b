"""Edit-serving daemon: protocol, lifecycle, backpressure, resilience.

The in-process tests run a real :class:`EditServer` (real socket, real
worker threads) against temp-dir sockets; the SIGTERM drain test runs
the actual ``repro serve`` CLI in a subprocess, because signal-driven
drain is exactly the part that cannot be faked in-process.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.obs import metrics
from repro.serve import EditServer, ServeConfig
from repro.serve.client import ServeClient, ServeError, wait_for_daemon
from repro.serve import protocol

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _counter(name):
    return metrics.counter(name).value


def _client(server, **kwargs):
    kwargs.setdefault("retries", 0)
    return ServeClient(server.address, **kwargs)


@pytest.fixture(params=("daemon", "fleet"))
def any_server(request):
    """``make_server`` or a one-shard ``make_fleet``: the protocol front
    end both servers share runs the tests that take this fixture."""
    if request.param == "daemon":
        return request.getfixturevalue("make_server")
    make_fleet = request.getfixturevalue("make_fleet")
    return lambda: make_fleet(shards=1)


# ----------------------------------------------------------------------
# Protocol framing
# ----------------------------------------------------------------------

def test_line_reader_reassembles_split_messages():
    left, right = socket.socketpair()
    reader = protocol.LineReader(right)
    payload = protocol.encode({"id": 1, "op": "ping"})
    left.sendall(payload[:5])
    left.sendall(payload[5:] + b'{"id": 2, "op"')
    left.sendall(b': "stats"}\n')
    left.close()
    assert reader.next_message() == {"id": 1, "op": "ping"}
    assert reader.next_message() == {"id": 2, "op": "stats"}
    assert reader.next_message() is None


def test_line_reader_rejects_garbage_and_non_objects():
    for line in (b"not json\n", b"[1, 2]\n"):
        left, right = socket.socketpair()
        left.sendall(line)
        left.close()
        with pytest.raises(protocol.ProtocolError):
            protocol.LineReader(right).next_message()


def test_line_reader_caps_line_length():
    left, right = socket.socketpair()
    reader = protocol.LineReader(right, max_line=64)
    threading.Thread(target=left.sendall,
                     args=(b"x" * 4096,), daemon=True).start()
    with pytest.raises(protocol.ProtocolError):
        reader.next_message()


# ----------------------------------------------------------------------
# Defensive REPRO_SERVE_* parsing
# ----------------------------------------------------------------------

def test_malformed_serve_env_falls_back_with_warning(monkeypatch, capsys):
    from repro import env as repro_env

    monkeypatch.setenv("REPRO_SERVE_QUEUE", "1e3")
    monkeypatch.setenv("REPRO_SERVE_TIMEOUT", "lots")
    monkeypatch.setenv("REPRO_SERVE_JOBS", "-4")
    for name in ("REPRO_SERVE_QUEUE", "REPRO_SERVE_TIMEOUT",
                 "REPRO_SERVE_JOBS"):
        repro_env._WARNED.discard(name)
    config = ServeConfig()
    assert config.queue_size == 32
    assert config.timeout_s == 60.0
    assert config.jobs == 2
    warnings = capsys.readouterr().err
    for name in ("REPRO_SERVE_QUEUE", "REPRO_SERVE_TIMEOUT",
                 "REPRO_SERVE_JOBS"):
        assert name in warnings


# ----------------------------------------------------------------------
# Basic service and concurrency
# ----------------------------------------------------------------------

def test_ping_run_and_stats_roundtrip(make_server):
    server = make_server()
    with _client(server) as client:
        assert client.ping()["pong"] is True
        result = client.run_workload("fib")
        assert result["exit_code"] == 0
        assert result["output"] == "fib 1597\n"
        stats = client.stats()
        assert stats["report"]["serve"]["requests"] >= 2
        assert stats["server"]["degraded"] is False


def test_unknown_op_and_unknown_workload_are_clean_errors(make_server):
    server = make_server()
    with _client(server) as client:
        with pytest.raises(ServeError) as err:
            client.request("frobnicate")
        assert err.value.code == protocol.E_UNKNOWN_OP
        with pytest.raises(ServeError) as err:
            client.request("run", workload="no_such_program")
        assert err.value.code == protocol.E_BAD_REQUEST


def test_eight_concurrent_clients_zero_dropped(make_server):
    """The acceptance scenario: 8 clients mixing SPARC and MIPS
    workloads with qpt-instrument and verify requests; every request
    answers, none are dropped."""
    server = make_server(jobs=4, queue_size=16)
    workloads = ["fib", "mips_sum"]
    failures = []
    results = []

    def one_client(index):
        name = workloads[index % len(workloads)]
        try:
            with _client(server, retries=8) as client:
                run = client.run_workload(name)
                verify = client.request("verify", workload=name,
                                        tool="qpt")
                results.append((run["exit_code"], verify["ok"]))
        except Exception as error:  # noqa: BLE001 - recorded for assert
            failures.append((index, error))

    threads = [threading.Thread(target=one_client, args=(i,))
               for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    assert not failures, failures
    assert len(results) == 8
    assert all(code == 0 and ok for code, ok in results)


def test_concurrent_same_image_requests_coalesce(make_server, monkeypatch,
                                                 tmp_path):
    """Concurrent requests against one content hash share a single cold
    analysis; the rest restore from the warm summary it left behind."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "fresh-cache"))
    server = make_server(jobs=4)
    before = _counter("serve.coalesced")
    errors = []

    def ask_routines():
        try:
            with _client(server) as client:
                result = client.request("routines", workload="interp")
                assert len(result["routines"]) > 10
        except Exception as error:  # noqa: BLE001
            errors.append(error)

    threads = [threading.Thread(target=ask_routines) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not errors, errors
    assert _counter("serve.coalesced") > before


# ----------------------------------------------------------------------
# Backpressure, timeout, retry
# ----------------------------------------------------------------------

def test_queue_full_rejects_with_retry_after(make_server):
    server = make_server(jobs=1, queue_size=1, chaos=True,
                         retry_after_s=0.05)
    blockers = []

    def blocker():
        with _client(server) as client:
            blockers.append(client.request("chaos", kind="sleep",
                                           seconds=1.0))

    threads = [threading.Thread(target=blocker) for _ in range(2)]
    for thread in threads:
        thread.start()
        time.sleep(0.15)  # one executing, one occupying the queue slot
    with _client(server) as client:
        with pytest.raises(ServeError) as err:
            client.request("chaos", kind="sleep", seconds=0.1)
    assert err.value.code == protocol.E_OVERLOADED
    assert err.value.retry_after == pytest.approx(0.05)
    for thread in threads:
        thread.join(30)
    assert len(blockers) == 2  # admitted work still completed
    assert _counter("serve.rejected.queue_full") >= 1


def test_client_retries_through_backpressure(make_server):
    """Bounded queue + client retry-after loop: every request lands
    eventually even when the queue is 1 deep."""
    server = make_server(jobs=1, queue_size=1, chaos=True,
                         retry_after_s=0.05)
    outcomes = []
    errors = []

    def one(index):
        try:
            with _client(server, retries=40) as client:
                outcomes.append(client.request("chaos", kind="sleep",
                                               seconds=0.1))
        except Exception as error:  # noqa: BLE001
            errors.append(error)

    threads = [threading.Thread(target=one, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not errors, errors
    assert len(outcomes) == 4


def test_request_timeout_reported_and_worker_result_dropped(make_server):
    server = make_server(jobs=1, timeout_s=0.2, chaos=True)
    with _client(server) as client:
        with pytest.raises(ServeError) as err:
            client.request("chaos", kind="sleep", seconds=0.8)
        assert err.value.code == protocol.E_TIMEOUT
        # The daemon recovers: the slot frees once the sleeper finishes.
        time.sleep(0.8)
        assert client.ping()["pong"] is True
    assert _counter("serve.timeouts") >= 1


def test_transient_failures_retry_with_backoff(make_server):
    server = make_server(jobs=1, chaos=True, retries=2, backoff_s=0.01)
    before = _counter("serve.retries")
    with _client(server) as client:
        result = client.request("chaos", kind="flaky", fails=2,
                                key="retry-me")
    assert result["attempts"] == 3  # failed twice, succeeded on retry 2
    assert _counter("serve.retries") - before == 2
    # Exhausted retries surface as a clean internal error, not a hang.
    with _client(server) as client:
        with pytest.raises(ServeError) as err:
            client.request("chaos", kind="flaky", fails=99,
                           key="never-lands")
        assert err.value.code == protocol.E_INTERNAL


# ----------------------------------------------------------------------
# Worker death, restart budget, degraded serial fallback
# ----------------------------------------------------------------------

def test_worker_death_restarts_then_degrades_to_serial(make_server):
    server = make_server(jobs=1, chaos=True, retries=0, restarts=1)
    # Each chaos death kills the worker: the first is replaced from the
    # restart budget, the second exhausts it and flips the daemon into
    # serial fallback mode.
    for _ in range(2):
        with _client(server) as client:
            with pytest.raises(ServeError) as err:
                client.request("chaos", kind="die")
            assert err.value.code == protocol.E_INTERNAL
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if server.describe()["degraded"]:
            break
        time.sleep(0.05)
    assert server.describe()["degraded"] is True
    # Degraded is degraded, not dark: requests still serve, serially.
    with _client(server) as client:
        assert client.ping()["pong"] is True
        assert client.run_workload("fib")["exit_code"] == 0
        # Even another death cannot kill the fallback worker.
        with pytest.raises(ServeError):
            client.request("chaos", kind="die")
        assert client.ping()["pong"] is True
    assert _counter("serve.worker_deaths") >= 3
    assert _counter("serve.degraded") >= 3


# ----------------------------------------------------------------------
# Drain
# ----------------------------------------------------------------------

def test_drain_rejects_new_requests_on_open_connections(make_server):
    server = make_server()
    with _client(server) as client:
        assert client.ping()["pong"] is True
        server.request_drain()
        with pytest.raises(ServeError) as err:
            client.ping()
        assert err.value.code == protocol.E_DRAINING
    assert server.wait_drained(10.0)
    assert not os.path.exists(server.config.socket_path)


def test_shutdown_op_drains(make_server):
    server = make_server()
    with _client(server) as client:
        assert client.shutdown() == {"draining": True}
    assert server.wait_drained(10.0)
    assert server.describe()["workers_alive"] == 0


def test_sigterm_drains_cleanly_with_stats_flush(tmp_path):
    """The real CLI daemon: SIGTERM finishes in-flight work, flushes
    serve.* counters to --stats-json, exits 0, and leaves no orphaned
    processes or stale socket."""
    sock = str(tmp_path / "d.sock")
    stats = str(tmp_path / "stats.json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--socket", sock,
         "--jobs", "2", "--chaos", "--stats-json", stats],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert wait_for_daemon(sock, timeout=30.0), "daemon never came up"
        with ServeClient(sock) as client:
            assert client.run_workload("fib")["exit_code"] == 0
        # Put one request in flight, then SIGTERM while it runs.
        slow_result = {}

        def slow():
            with ServeClient(sock) as client:
                slow_result["result"] = client.request(
                    "chaos", kind="sleep", seconds=1.0)

        thread = threading.Thread(target=slow)
        thread.start()
        time.sleep(0.3)
        proc.send_signal(signal.SIGTERM)
        thread.join(30)
        assert slow_result.get("result") == {"slept": 1.0}, \
            "in-flight request was not finished during drain"
        _out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err.decode()
        assert "drained cleanly" in err.decode()
        assert not os.path.exists(sock)
        with open(stats) as handle:
            report = json.load(handle)
        assert report["schema"] == "repro.obs/1"
        assert report["serve"]["requests"] >= 3
        assert report["serve"]["ok"] >= 3
        assert report["counters"]["serve.requests"] == \
            report["serve"]["requests"]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(10)


# ----------------------------------------------------------------------
# CLI client subcommand
# ----------------------------------------------------------------------

def test_cli_client_roundtrip(make_server, capsys):
    from repro import cli

    server = make_server()
    rc = cli.main(["client", "ping", "--socket",
                   server.config.socket_path])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["pong"] is True
    rc = cli.main(["client", "run", "--workload", "fib", "--socket",
                   server.config.socket_path])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["output"] == "fib 1597\n"


def test_cli_client_without_daemon_fails_cleanly(tmp_path, capsys):
    from repro import cli

    rc = cli.main(["client", "ping", "--socket",
                   str(tmp_path / "nobody-home.sock")])
    assert rc == 1
    assert "cannot reach daemon" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Socket startup: stale paths clobbered, live daemons never robbed
# ----------------------------------------------------------------------

def test_startup_refuses_to_steal_live_socket(any_server, tmp_path):
    """Two servers pointed at one path: the second must refuse, and the
    first must keep receiving connections (the unlink race fix)."""
    import errno

    from repro.fleet import FleetConfig, FleetGateway

    server = any_server()
    if isinstance(server, EditServer):
        rival = EditServer(ServeConfig(socket_path=server.address, jobs=1))
    else:
        rival = FleetGateway(FleetConfig(address=server.address, shards=1,
                                         run_dir=str(tmp_path / "rival")))
    with pytest.raises(OSError) as err:
        rival.start()
    assert err.value.errno == errno.EADDRINUSE
    # The incumbent survived the attempted theft.
    with _client(server) as client:
        assert client.ping()["pong"] is True


def test_serve_main_reports_malformed_address(capsys):
    """A bad ``tcp://`` address is a one-line error and exit 1, not a
    traceback."""
    from repro.serve import serve_main

    assert serve_main(ServeConfig(socket_path="tcp://nohost")) == 1
    assert "bad TCP address" in capsys.readouterr().err


def test_startup_clobbers_stale_socket(tmp_path, make_server):
    """A socket file whose daemon is gone (nothing accepts) is stale:
    startup unlinks it and binds normally."""
    path = str(tmp_path / "stale.sock")
    dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    dead.bind(path)
    dead.close()  # file remains; connections are refused
    assert os.path.exists(path)
    server = make_server(socket_path=path)
    with _client(server) as client:
        assert client.ping()["pong"] is True


# ----------------------------------------------------------------------
# Server-side framing and the common request path, over both servers
# ----------------------------------------------------------------------

def _raw_connection(server):
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(30.0)
    conn.connect(server.address)
    return conn


def test_framing_errors_answer_bad_request_then_close(any_server):
    """A line that is not JSON, or JSON that is not an object, gets one
    ``bad_request`` answer with a null id; then the server hangs up."""
    server = any_server()
    for line in (b"\xff\xfe{garbage\n", b"[1, 2]\n"):
        with _raw_connection(server) as conn:
            conn.sendall(line)
            with conn.makefile("rb") as stream:
                answers = stream.read().splitlines()  # to EOF
        assert len(answers) == 1, answers
        answer = json.loads(answers[0])
        assert answer["ok"] is False
        assert answer["id"] is None
        assert answer["error"]["code"] == protocol.E_BAD_REQUEST


def test_open_connection_bad_op_trace_echo_and_draining(any_server):
    """On one open connection: a non-string op is a ``bad_request``
    that keeps the connection, a client trace id is echoed, and after
    drain begins requests get ``draining`` with ``retry_after``."""
    from repro.obs.context import TraceContext

    server = any_server()
    with _raw_connection(server) as conn, conn.makefile("rwb") as stream:
        def ask(message):
            stream.write(protocol.encode(message))
            stream.flush()
            return json.loads(stream.readline())

        bad = ask({"id": 7, "op": 5})
        assert bad["id"] == 7
        assert bad["error"]["code"] == protocol.E_BAD_REQUEST
        assert bad["trace_id"]  # minted: every answer is attributable
        ctx = TraceContext()
        pong = ask({"id": 8, "op": "ping", "trace": ctx.to_wire()})
        assert pong["ok"] is True
        assert pong["trace_id"] == ctx.trace_id
        server.request_drain()
        late = ask({"id": 9, "op": "ping"})
        assert late["id"] == 9
        assert late["error"]["code"] == protocol.E_DRAINING
        assert late["retry_after"] == server.config.retry_after_s
    assert server.wait_drained(30.0)


def test_stats_sections_validated(any_server):
    """``stats`` answers a malformed or unknown ``sections`` list with
    ``bad_request``, and a valid one with just those sections."""
    server = any_server()
    with _client(server) as client:
        for sections in ("counters", [1], ["counters", "no_such_section"]):
            with pytest.raises(ServeError) as err:
                client.request("stats", sections=sections)
            assert err.value.code == protocol.E_BAD_REQUEST
        report = client.request("stats", sections=["counters"])["report"]
        assert sorted(report) == ["counters", "schema"]


# ----------------------------------------------------------------------
# Client backoff metadata (retry_after honoring)
# ----------------------------------------------------------------------

def _scripted_peer(responses):
    """A ServeClient wired to a fake daemon that answers request N with
    ``responses[N](request)`` (the multi-request _misbehaving_peer)."""
    left, right = socket.socketpair()
    client = ServeClient("unused.sock")
    client._sock = left
    client._reader = protocol.LineReader(left)

    def responder():
        reader = protocol.LineReader(right)
        try:
            for factory in responses:
                request = reader.next_message()
                if request is None:
                    return
                right.sendall(protocol.encode(factory(request)))
        except (OSError, protocol.ProtocolError):
            pass

    threading.Thread(target=responder, daemon=True).start()
    return client


def test_client_retry_surfaces_attempt_metadata():
    """overloaded-with-retry_after then ok: the client backs off, wins,
    and reports how hard it worked in last_meta and result['_meta']."""
    client = _scripted_peer([
        lambda req: protocol.error_response(
            req["id"], protocol.E_OVERLOADED, "busy", retry_after=0.01),
        lambda req: protocol.ok_response(req["id"], {"pong": True}),
    ])
    result = client.request("ping")
    assert result["pong"] is True
    assert result["_meta"]["attempts"] == 2
    assert result["_meta"]["backoff_s"] == pytest.approx(0.01)
    assert client.last_meta["attempts"] == 2


def test_client_retries_draining_responses():
    """draining is client-retryable (a fleet shard mid-hot-restart is
    seconds from a warm replacement)."""
    client = _scripted_peer([
        lambda req: protocol.error_response(
            req["id"], protocol.E_DRAINING, "draining", retry_after=0.01),
        lambda req: protocol.ok_response(req["id"], {"pong": True}),
    ])
    result = client.request("ping")
    assert result["pong"] is True
    assert result["_meta"]["attempts"] == 2


def test_client_first_attempt_results_carry_no_meta(make_server):
    """No-retry responses stay byte-identical to what the daemon sent:
    _meta appears only when the client actually backed off."""
    with _client(make_server()) as client:
        result = client.ping()
        assert "_meta" not in result
        assert client.last_meta == {"attempts": 1, "backoff_s": 0.0}


# ----------------------------------------------------------------------
# Response correlation: exact id match only
# ----------------------------------------------------------------------

def _misbehaving_peer(response_factory):
    """A ServeClient wired to a fake daemon that answers each request
    with ``response_factory(request)``."""
    left, right = socket.socketpair()
    client = ServeClient("unused.sock")
    client._sock = left
    client._reader = protocol.LineReader(left)

    def responder():
        reader = protocol.LineReader(right)
        try:
            request = reader.next_message()
            right.sendall(protocol.encode(response_factory(request)))
        except (OSError, protocol.ProtocolError):
            pass

    threading.Thread(target=responder, daemon=True).start()
    return client


def test_client_rejects_mismatched_response_id():
    client = _misbehaving_peer(
        lambda req: protocol.ok_response(999_999, {"pong": True}))
    with pytest.raises(ServeError) as err:
        client.request("ping")
    assert err.value.code == "protocol_error"
    assert "999999" in err.value.message


def test_client_surfaces_id_none_as_protocol_error():
    """A daemon-side framing error answers with id null; the client
    must not silently adopt it as this request's response."""
    client = _misbehaving_peer(
        lambda req: protocol.error_response(
            None, protocol.E_BAD_REQUEST, "undecodable line"))
    with pytest.raises(ServeError) as err:
        client.request("ping")
    assert err.value.code == "protocol_error"
    assert "undecodable line" in err.value.message


def test_client_accepts_exact_id_match(make_server):
    with _client(make_server()) as client:
        assert client.ping()["pong"] is True


# ----------------------------------------------------------------------
# Tracing: one request -> one connected span tree in the event log
# ----------------------------------------------------------------------

def test_chaos_request_yields_single_connected_span_tree(make_server,
                                                         tmp_path):
    """Under a multi-worker chaos config, a retried request still
    produces one span tree with no orphans, rooted at the client's
    span, with queue-wait and handler latency split out."""
    from repro import obs
    from repro.obs import events as obs_events

    events_path = str(tmp_path / "events.jsonl")
    obs_events.configure(events_path)
    obs.enable()
    try:
        server = make_server(jobs=2, chaos=True, retries=2,
                             backoff_s=0.01)
        with _client(server) as client:
            result = client.request("chaos", kind="flaky", fails=2,
                                    key="traced-flake")
            assert result["attempts"] == 3
            run = client.run_workload("fib")
            assert run["exit_code"] == 0
        server.request_drain()
        assert server.wait_drained(15.0)
    finally:
        obs.disable()
        obs.reset()
        obs_events.unconfigure()

    traces = obs_events.build_traces(obs_events.load_events(events_path))
    finished = [r for r in traces.values() if r.finish is not None]
    assert len(finished) == 2
    by_op = {record.op: record for record in finished}
    flaky = by_op["chaos"]
    assert flaky.status == "ok"
    assert flaky.attempts == 2  # two transient failures, then success
    assert flaky.queue_wait_s is not None and flaky.queue_wait_s >= 0
    assert flaky.handler_s is not None and flaky.handler_s > 0
    for record in finished:
        assert record.admit is not None, "admit event missing"
        spans = record.spans
        assert spans and len(spans) == 1
        root = spans[0]
        assert root["name"] == "serve.request"
        assert root["trace_id"] == record.trace_id
        # Every span links to its parent inside the tree: no orphans.
        assert obs_events.connected_spans(
            spans, root_parent=root.get("parent_span_id"))
    run_record = by_op["run"]
    names = set()

    def walk(node):
        names.add(node["name"])
        for child in node.get("children", ()):
            walk(child)

    walk(run_record.spans[0])
    assert "serve.op" in names
    assert "sim.run" in names


def test_client_span_parents_daemon_tree(make_server, tmp_path):
    """With tracing on in the client process, the daemon's root span
    hangs off the client's serve.client.request span id."""
    from repro import obs
    from repro.obs import events as obs_events
    from repro.obs import trace as obs_trace

    events_path = str(tmp_path / "events.jsonl")
    obs_events.configure(events_path)
    obs.enable()
    try:
        server = make_server()
        with _client(server) as client:
            client.ping()
        client_roots = obs_trace.TRACER.tree()
        server.request_drain()
        assert server.wait_drained(15.0)
    finally:
        obs.disable()
        obs.reset()
        obs_events.unconfigure()

    client_spans = [node for node in client_roots
                    if node["name"] == "serve.client.request"]
    assert len(client_spans) == 1
    client_span = client_spans[0]
    traces = obs_events.build_traces(obs_events.load_events(events_path))
    record = next(r for r in traces.values() if r.op == "ping")
    assert record.trace_id == client_span["trace_id"]
    root = record.spans[0]
    assert root["parent_span_id"] == client_span["span_id"]


def test_serve_main_events_log_alone_records_span_trees(tmp_path):
    """``repro serve --events`` with no --trace or --stats-json still
    writes each finished request's span tree into the event log."""
    from repro.cache import disable_memory_layer
    from repro.obs import events as obs_events
    from repro.serve import serve_main

    sock = str(tmp_path / "d.sock")
    events_path = str(tmp_path / "events.jsonl")
    config = ServeConfig(socket_path=sock, jobs=1, events_path=events_path)
    exit_codes = []
    thread = threading.Thread(
        target=lambda: exit_codes.append(serve_main(config)))
    thread.start()
    try:
        assert wait_for_daemon(sock, timeout=30.0), "daemon never came up"
        with ServeClient(sock) as client:
            assert client.run_workload("fib")["exit_code"] == 0
    finally:
        with ServeClient(sock, retries=0) as client:
            client.shutdown()
        thread.join(30)
        disable_memory_layer()
    assert not thread.is_alive()
    assert exit_codes == [0]
    traces = obs_events.build_traces(obs_events.load_events(events_path))
    record = next(r for r in traces.values() if r.op == "run")
    assert record.finish is not None
    assert record.spans and record.spans[0]["name"] == "serve.request"


# ----------------------------------------------------------------------
# Live introspection: the top op
# ----------------------------------------------------------------------

def test_top_op_reports_latency_and_counter_deltas(make_server):
    server = make_server()
    with _client(server) as client:
        for _ in range(3):
            assert client.ping()["pong"] is True
        first = client.top()
        assert first["incremental"] is False
        assert first["counters"]["serve.requests"] >= 3
        ping_latency = first["latency"]["ping"]
        for key in ("count", "p50", "p95", "p99", "min", "max", "mean"):
            assert key in ping_latency
        assert ping_latency["count"] >= 3
        assert first["queue_wait"]["count"] >= 3
        server_state = first["server"]
        assert server_state["workers_alive"] == 2
        assert set(server_state["worker_states"].values()) <= \
            {"idle", "top", "ping"}
        assert server_state["uptime_s"] > 0
        # Second snapshot with the cursor: deltas, not absolutes.
        assert client.ping()["pong"] is True
        second = client.top(first["cursor"])
        assert second["incremental"] is True
        assert second["counters"]["serve.requests"] == 2  # ping + top
        assert second["cursor"] > first["cursor"]


def test_top_cursor_history_is_bounded(make_server):
    server = make_server()
    with _client(server) as client:
        for _ in range(12):
            client.top()
    assert len(server._top_snapshots) <= 8


def test_cli_top_renders_snapshot(make_server, capsys):
    from repro import cli

    server = make_server()
    with _client(server) as client:
        client.ping()
    rc = cli.main(["top", "--socket", server.config.socket_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "repro-serve pid" in out
    assert "serve.requests" in out
    assert "latency:" in out


# ----------------------------------------------------------------------
# Routine-scoped instrumentation (incremental fact reuse)
# ----------------------------------------------------------------------

def test_instrument_routines_subset_reuses_warm_facts(make_server,
                                                      monkeypatch,
                                                      tmp_path):
    """A warm image plus a single-routine instrument request must not
    rebuild unrelated routines' CFGs: every analysis the edit touches
    comes out of the hydrated fact store."""
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    server = make_server(jobs=2)
    with _client(server) as client:
        client.request("routines", workload="fib")  # warm the analysis
        builds_before = _counter("cfg.builds")
        restores_before = _counter("cache.restored_cfgs")
        result = client.request("instrument", workload="fib", tool="qpt",
                                routines=["fib"], return_image=False,
                                run=True)
        assert result["run"]["exit_code"] == 0
        assert _counter("cfg.builds") == builds_before
        # Only the requested routine's CFG (plus none of the others)
        # was materialized from facts for instrumentation.
        assert _counter("cache.restored_cfgs") - restores_before <= 2


def test_instrument_rejects_unknown_routine_names(make_server):
    server = make_server(jobs=1)
    with _client(server) as client:
        with pytest.raises(ServeError) as err:
            client.request("instrument", workload="fib", tool="qpt",
                           routines=["no_such_routine"])
        assert err.value.code == protocol.E_BAD_REQUEST
        assert "no_such_routine" in str(err.value)
        with pytest.raises(ServeError) as err:
            client.request("instrument", workload="fib", tool="qpt",
                           routines="fib")
        assert err.value.code == protocol.E_BAD_REQUEST
