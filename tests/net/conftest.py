"""Server-side witnesses shared by the wire tests."""

from __future__ import annotations

from collections import Counter


class RequestLog:
    """Mixin over a ``ChunkServer`` class (list it first) that records what
    the server was sent: the connections it accepted, the op code of every
    request frame it read, and the envelopes it unwrapped and served."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.connections = 0
        self.ops: list[int] = []
        self.served: Counter[str] = Counter()

    def _serve_connection(self, conn):
        self.connections += 1
        return super()._serve_connection(conn)

    def _dispatch_multi(self, frame, session):
        self.ops.append(frame.code)
        return super()._dispatch_multi(frame, session)

    def _dispatch_deadline(self, frame):
        self.served["DEADLINE"] += 1
        return super()._dispatch_deadline(frame)

    def _dispatch_traced(self, frame):
        self.served["TRACED"] += 1
        return super()._dispatch_traced(frame)
