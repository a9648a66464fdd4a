"""start/stop behave the same on both TCP servers: one admission loop."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.net.gateway import GatewayServer
from repro.net.server import ChunkServer
from repro.providers.memory import InMemoryProvider

from tests.fleet.conftest import make_base_registry, make_gateway


@pytest.fixture(params=["chunk", "gateway"])
def make_server(request):
    """A factory of unstarted servers of one kind: ``make_server(port=0)``."""
    if request.param == "chunk":
        backend = InMemoryProvider("life")
        yield lambda port=0: ChunkServer(backend, port=port, max_workers=2)
        return
    fleet = make_gateway(make_base_registry())
    yield lambda port=0: GatewayServer(fleet, port=port, max_workers=2)
    fleet.close()


def test_start_twice_raises_and_stop_leaves_nothing_behind(make_server):
    before = set(threading.enumerate())
    server = make_server()
    assert server.port == 0 and not server.running  # the requested port
    server.start()
    port = server.port
    assert port != 0 and server.running
    with pytest.raises(RuntimeError, match="already running"):
        server.start()
    assert server.port == port  # the refused start bound nothing new
    server.stop()
    server.stop()  # idempotent
    assert not server.running
    # Every thread the server started is gone (two workers + the acceptor).
    assert [t for t in set(threading.enumerate()) - before if t.is_alive()] == []
    # Nothing listens any more, and the port is free for a fresh server.
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", port), timeout=1).close()
    with make_server(port=port) as fresh:
        assert fresh.port == port
        socket.create_connection(("127.0.0.1", port), timeout=1).close()
