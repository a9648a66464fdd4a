"""Admission control for the TCP servers: bounded workers, bounded queue, shed.

Instead of one unbounded thread per connection, a bounded pool of
``max_workers`` threads serves connections popped from a bounded accept
queue of ``accept_queue`` slots.  When both are full the server *sheds*:
the new connection is answered with one refusal carrying a retry-after
hint and closed, rather than accepted-and-stalled -- the client learns
immediately that it should back off, and the server's memory/thread
footprint stays bounded no matter the offered load.

:class:`~repro.net.server.ChunkServer` and
:class:`~repro.net.gateway.GatewayServer` differ only in the protocol
they speak on an admitted connection and in the bytes of the refusal.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
from typing import TypeVar

log = logging.getLogger(__name__)

_S = TypeVar("_S", bound="AdmissionServer")


class AdmissionServer:
    """Listener + accept queue + worker pool; subclasses speak the protocol.

    A subclass provides ``metrics`` (a registry), :attr:`metric_prefix`
    (its ``<prefix>_accept_queue_depth`` gauge and ``<prefix>_shed_total``
    counter), :meth:`_serve_connection` and :meth:`_shed_reply`.  *label*
    names the server in thread names, log lines and errors.  Usable as a
    context manager; ``port=0`` binds an ephemeral port, readable from
    :attr:`port` after :meth:`start`.
    """

    metric_prefix: str

    def __init__(
        self,
        label: str,
        host: str,
        port: int,
        max_workers: int,
        accept_queue: int,
        shed_retry_after: float,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if accept_queue < 1:
            raise ValueError(f"accept_queue must be >= 1, got {accept_queue}")
        if shed_retry_after < 0:
            raise ValueError(
                f"shed_retry_after must be >= 0, got {shed_retry_after}"
            )
        self.label = label
        self.host = host
        self.max_workers = max_workers
        self.shed_retry_after = shed_retry_after
        self._requested_port = port
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._workers: list[threading.Thread] = []
        self._conn_queue: queue.Queue[socket.socket | None] = queue.Queue(
            maxsize=accept_queue
        )
        self._connections: set[socket.socket] = set()
        self._state_lock = threading.Lock()
        self._running = False
        self.requests_shed = 0

    # -- what a subclass provides ------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        """Speak the protocol on *conn* until the peer (or stop()) ends it.

        The worker loop untracks and closes *conn* afterwards.
        """
        raise NotImplementedError

    def _shed_reply(self) -> bytes:
        """The one refusal a shed connection is sent before the hang-up."""
        raise NotImplementedError

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (the requested one until :meth:`start`)."""
        if self._listener is None:
            return self._requested_port
        return self._listener.getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def running(self) -> bool:
        return self._running

    def start(self: _S) -> _S:
        """Bind the port and begin accepting connections in the background."""
        if self._running:
            raise RuntimeError(f"{self.label} already running")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen()
        self._listener = listener
        self._running = True
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"{self.label}-worker-{i}",
                daemon=True,
            )
            for i in range(self.max_workers)
        ]
        for worker in self._workers:
            worker.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{self.label}-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, sever live connections, release the port."""
        if not self._running:
            return
        self._running = False
        listener, self._listener = self._listener, None
        if listener is not None:
            port = listener.getsockname()[1]
            # A plain close() does not wake a thread blocked in accept();
            # shutdown() does on Linux, and the self-connection covers
            # platforms where it does not.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                socket.create_connection((self.host, port), timeout=0.2).close()
            except OSError:
                pass
            listener.close()
        with self._state_lock:
            connections = list(self._connections)
            self._connections.clear()
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        # Wake every worker with a sentinel, then drain whatever the accept
        # loop queued but no worker reached (those sockets are already
        # severed above; close() here releases the descriptors).
        for _ in self._workers:
            self._conn_queue.put(None)
        for worker in self._workers:
            worker.join(timeout=5.0)
        self._workers = []
        while True:
            try:
                leftover = self._conn_queue.get_nowait()
            except queue.Empty:
                break
            if leftover is not None:
                leftover.close()

    def __enter__(self: _S) -> _S:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- serving -----------------------------------------------------------

    def _queue_depth_changed(self) -> None:
        self.metrics.gauge(f"{self.metric_prefix}_accept_queue_depth").set(
            self._conn_queue.qsize()
        )

    def _accept_loop(self) -> None:
        listener = self._listener
        while self._running and listener is not None:
            try:
                conn, _peer = listener.accept()
            except OSError:
                break  # listener closed by stop()
            with self._state_lock:
                if not self._running:
                    conn.close()
                    break
                self._connections.add(conn)
            try:
                self._conn_queue.put_nowait(conn)
            except queue.Full:
                with self._state_lock:
                    self._connections.discard(conn)
                self._shed(conn)
                continue
            self._queue_depth_changed()

    def _worker_loop(self) -> None:
        while True:
            conn = self._conn_queue.get()
            if conn is None:
                return  # stop() sentinel
            self._queue_depth_changed()
            try:
                self._serve_connection(conn)
            except Exception:  # noqa: BLE001 -- a pooled worker must survive
                log.exception("%s connection handler failed", self.label)
            finally:
                with self._state_lock:
                    self._connections.discard(conn)
                conn.close()

    def _shed(self, conn: socket.socket) -> None:
        """Refuse a connection at admission: one reply, then close.

        The client gets a definitive "overloaded, come back in ~N seconds"
        instead of a socket that accepts requests and never answers them.
        """
        self.requests_shed += 1
        self.metrics.counter(f"{self.metric_prefix}_shed_total").inc()
        try:
            conn.settimeout(1.0)
            conn.sendall(self._shed_reply())
        except OSError:
            pass
        finally:
            conn.close()
