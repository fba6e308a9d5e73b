"""Shared test configuration.

The analysis cache defaults to ``~/.cache/repro-eel``; pointing it at a
per-session temporary directory keeps the test suite hermetic (no state
leaks between suite runs or into the developer's real cache).  An
explicitly exported ``REPRO_CACHE_DIR`` is respected so CI can exercise
a pre-warmed cache deliberately.

``make_server`` and ``make_fleet`` start real in-process servers (an
edit daemon; a fleet gateway with shard subprocesses) and drain them
at teardown; the serving tests run the protocol front end they share
against both.
"""

import os

import pytest

from repro.fleet import FleetConfig, FleetGateway
from repro.serve import EditServer, ServeConfig


@pytest.fixture(scope="session", autouse=True)
def _hermetic_analysis_cache(tmp_path_factory):
    if os.environ.get("REPRO_CACHE_DIR"):
        yield
        return
    directory = tmp_path_factory.mktemp("analysis-cache")
    os.environ["REPRO_CACHE_DIR"] = str(directory)
    try:
        yield
    finally:
        os.environ.pop("REPRO_CACHE_DIR", None)


@pytest.fixture
def make_server(tmp_path):
    """Start real in-process servers; drain them all at teardown."""
    from repro.cache import disable_memory_layer

    started = []

    def _make(**overrides):
        overrides.setdefault("socket_path",
                             str(tmp_path / ("s%d.sock" % len(started))))
        overrides.setdefault("jobs", 2)
        overrides.setdefault("timeout_s", 20.0)
        overrides.setdefault("drain_timeout_s", 10.0)
        server = EditServer(ServeConfig(**overrides)).start()
        started.append(server)
        return server

    try:
        yield _make
    finally:
        for server in started:
            server.request_drain()
        for server in started:
            assert server.wait_drained(15.0), "server failed to drain"
        # The daemon turns on the process-global warm layer; turn it
        # off for the rest of the suite.
        disable_memory_layer()


@pytest.fixture
def make_fleet(tmp_path):
    """Start real in-process gateways, each over real shard daemons;
    drain them all at teardown."""
    started = []

    def _make(**overrides):
        overrides.setdefault("address", str(tmp_path / "gw.sock"))
        overrides.setdefault("run_dir", str(tmp_path / "fleet"))
        overrides.setdefault("shards", 2)
        overrides.setdefault("shard_jobs", 1)
        overrides.setdefault("forwarders", 4)
        overrides.setdefault("health_interval_s", 0.2)
        overrides.setdefault("shard_timeout_s", 30.0)
        overrides.setdefault("drain_timeout_s", 10.0)
        gateway = FleetGateway(FleetConfig(**overrides)).start()
        started.append(gateway)
        return gateway

    try:
        yield _make
    finally:
        for gateway in started:
            gateway.request_drain()
        for gateway in started:
            assert gateway.wait_drained(30.0), "gateway failed to drain"
