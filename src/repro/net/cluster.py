"""Local chunk-server clusters: N socket providers in one process.

Tests, examples and benchmarks all need the same scaffolding -- start a
handful of :class:`ChunkServer` processes-worth of threads on localhost,
point a :class:`RemoteProvider` at each, and register them as a fleet the
distributor can stripe over.  :class:`LocalCluster` owns that lifecycle,
including killing and restarting individual servers to exercise the RAID
degraded-read and repair paths over a real transport.
"""

from __future__ import annotations

from repro.core.privacy import CostLevel, PrivacyLevel
from repro.net.remote import RemoteProvider, RetryPolicy
from repro.net.server import ChunkServer
from repro.providers.base import CloudProvider
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry


class LocalCluster:
    """A fleet of localhost chunk servers plus their remote clients.

    ``backends`` defaults to in-memory stores named ``node0..node{n-1}``;
    pass explicit :class:`CloudProvider` instances (e.g. ``DiskProvider``)
    to persist across restarts.  ``server_cls`` lets a test substitute a
    misbehaving :class:`ChunkServer` subclass.  Usable as a context manager.
    """

    def __init__(
        self,
        count: int = 4,
        backends: list[CloudProvider] | None = None,
        *,
        host: str = "127.0.0.1",
        retry: RetryPolicy | None = None,
        op_timeout: float = 10.0,
        pool_size: int = 4,
        failfast_window: float = 0.0,
        server_cls: type = ChunkServer,
    ) -> None:
        if backends is not None:
            if not backends:
                raise ValueError("backends must be non-empty")
            self.backends = list(backends)
        else:
            if count < 1:
                raise ValueError(f"count must be >= 1, got {count}")
            self.backends = [InMemoryProvider(f"node{i}") for i in range(count)]
        self.host = host
        self.retry = retry or RetryPolicy(attempts=3, base_delay=0.02)
        self.op_timeout = op_timeout
        self.pool_size = pool_size
        self.failfast_window = failfast_window
        self.server_cls = server_cls
        self.servers: list = []
        self.providers: list[RemoteProvider] = []
        self._ports: list[int] = []

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "LocalCluster":
        """Bind every server and connect a remote client to each."""
        if self.servers:
            raise RuntimeError("cluster already started")
        try:
            for backend in self.backends:
                server = self.server_cls(backend, host=self.host).start()
                self.servers.append(server)
                self._ports.append(server.port)
                self.providers.append(
                    RemoteProvider(
                        backend.name,
                        self.host,
                        server.port,
                        retry=self.retry,
                        op_timeout=self.op_timeout,
                        pool_size=self.pool_size,
                        failfast_window=self.failfast_window,
                    )
                )
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        """Close every client and stop every server."""
        for provider in self.providers:
            provider.close()
        for server in self.servers:
            server.stop()
        self.servers.clear()
        self.providers.clear()
        self._ports.clear()

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- fault injection ---------------------------------------------------

    def kill_server(self, index: int) -> None:
        """Stop one server (its backend keeps its objects); clients start
        failing with :class:`ProviderUnavailableError` after retries."""
        self.servers[index].stop()
        self.providers[index].pool.discard_idle()

    def restart_server(self, index: int) -> None:
        """Bring a killed server back on its original port."""
        server = self.servers[index]
        if server.running:
            raise RuntimeError(f"server {index} is still running")
        # Revive with the dead server's own class: a substituted fake
        # comes back as the fake.
        revived = type(server)(
            server.backend, host=self.host, port=self._ports[index]
        ).start()
        self.servers[index] = revived
        self.providers[index].reset_circuit()

    # -- registry ----------------------------------------------------------

    def build_registry(
        self,
        privacy_level: PrivacyLevel | int = PrivacyLevel.PRIVATE,
        cost_level: CostLevel | int = CostLevel.CHEAP,
    ) -> ProviderRegistry:
        """Register every remote provider into a fresh registry.

        All nodes get the same PL/CL -- localhost chunk servers are peers;
        heterogeneous fleets can register the providers themselves.
        """
        if not self.providers:
            raise RuntimeError("cluster is not started")
        registry = ProviderRegistry()
        for provider in self.providers:
            registry.register(provider, privacy_level, cost_level)
        return registry
