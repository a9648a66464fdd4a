"""Threaded chunk server: fronts any ``CloudProvider`` backend over TCP.

"The main tasks of Cloud Providers are: storing chunks of data, responding
to a query by providing the desired data, and removing chunks when asked"
(Section IV-B).  A :class:`ChunkServer` is exactly that entity as a network
process: it binds a localhost TCP port, serves connections from a bounded
worker pool (:mod:`repro.net.admission`), and answers the wire protocol of
:mod:`repro.net.protocol` by delegating to its backend -- so the same
in-memory or on-disk store used in-process can also be reached the way a
real provider would be.

Backend exceptions are translated into wire status codes (never into a
dropped connection), so a remote client can distinguish "no such object"
from "object corrupted" from "server gone".
"""

from __future__ import annotations

import itertools
import json
import logging
import select
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.net.admission import AdmissionServer
from repro.net.protocol import (
    HEADER,
    STREAM_OPS,
    Frame,
    OpCode,
    ProtocolError,
    Status,
    decode_deadline_request,
    decode_keys,
    decode_multi_put,
    decode_traced_request,
    encode_batch_results,
    encode_digest,
    encode_frame,
    encode_keys,
    encode_retry_hint,
    encode_stat,
    encode_stream_count,
    encode_traced_response,
    first_batch_key,
    frame_segments,
    read_frame,
    send_frame,
    sendmsg_all,
    status_for_error,
)
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.trace import Tracer, get_tracer
from repro.providers.base import CloudProvider, blob_checksum
from repro.util.deadline import Deadline, check_deadline, deadline_scope
from repro.util.rng import SeedLike, derive_rng

log = logging.getLogger(__name__)

_OK = int(Status.OK)


def _item_error(exc: Exception) -> tuple[int, bytes]:
    """A batch item's ``(status, message)`` answer for its error."""
    return int(status_for_error(exc)), str(exc).encode("utf-8")


@dataclass
class WireFaults:
    """Wire-level fault injection for a :class:`ChunkServer`.

    Where :class:`~repro.providers.chaos.ChaosProvider` faults the storage
    *semantics*, these hooks fault the *transport*: the backend has already
    executed the request (or not), and the failure happens on the way back
    to the client -- exactly the ambiguity real networks produce.

    * ``stall_rate`` / ``stall_s`` -- the response is delayed ``stall_s``
      seconds (exercises client socket timeouts);
    * ``drop_rate`` -- the connection is closed without answering (the
      client cannot tell whether the request executed);
    * ``corrupt_rate`` -- the response frame's CRC field is flipped, so the
      client detects a damaged frame and must retry.

    Draws are seeded, so a server's fault schedule is reproducible for a
    fixed request sequence.  Counters record what was injected.

    ``key_prefix`` scopes the faults to requests whose (innermost) key
    starts with the prefix -- the chaos drills use the fleet's
    ``fleet/<shard>/`` namespace prefixes to stall exactly one shard's
    traffic over a shared physical fleet.  Draws always advance regardless
    of the key, so a fixed seed yields the same schedule whether or not a
    prefix filters the injection.
    """

    stall_rate: float = 0.0
    stall_s: float = 0.05
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    seed: SeedLike = None
    key_prefix: str = ""

    def __post_init__(self) -> None:
        for attr in ("stall_rate", "drop_rate", "corrupt_rate"):
            value = getattr(self, attr)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{attr} must be in [0, 1], got {value}")
        if self.stall_s < 0:
            raise ValueError(f"stall_s must be >= 0, got {self.stall_s}")
        self._rng = derive_rng(self.seed)
        self._lock = threading.Lock()
        self.injected: dict[str, int] = {"stall": 0, "drop": 0, "corrupt": 0}

    def draw(self, key: str = "") -> str | None:
        """Advance the schedule one response; returns the fault to inject."""
        with self._lock:
            r_stall = float(self._rng.random())
            r_drop = float(self._rng.random())
            r_corrupt = float(self._rng.random())
            fault = None
            if r_drop < self.drop_rate:
                fault = "drop"
            elif r_corrupt < self.corrupt_rate:
                fault = "corrupt"
            elif r_stall < self.stall_rate:
                fault = "stall"
            if fault is not None and self.key_prefix and not key.startswith(
                self.key_prefix
            ):
                fault = None  # out of scope; draws advanced all the same
            if fault is not None:
                self.injected[fault] += 1
            return fault


@dataclass
class StreamSession:
    """Per-connection stream-upload state (see ``OpCode.STREAM_PUT``).

    ``staged`` holds keys written by the currently-open (uncommitted)
    stream window; STREAM_END empties it, and a connection that dies with
    keys still staged gets them rolled back (deleted) by the server.
    """

    id: int
    open: bool = False
    staged: list[str] = field(default_factory=list)


class ChunkServer(AdmissionServer):
    """TCP front-end for one provider backend.

    Everything between "a decoded request frame arrived" and "these are
    the response frames" is :meth:`_dispatch_multi` -- envelope
    unwrapping, backend serialization, error-to-status translation, stream
    sessions; :meth:`_serve_connection` is the socket loop around it.
    Admission (``max_workers``, ``accept_queue``, the one
    ``RESOURCE_EXHAUSTED`` frame with a retry-after hint sent to a shed
    connection) is :class:`~repro.net.admission.AdmissionServer`'s.
    """

    metric_prefix = "net_server"

    def __init__(
        self,
        backend: CloudProvider,
        host: str = "127.0.0.1",
        port: int = 0,
        wire_faults: WireFaults | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        max_workers: int = 32,
        accept_queue: int = 64,
        shed_retry_after: float = 0.1,
    ) -> None:
        super().__init__(
            f"chunk-server-{backend.name}",
            host, port, max_workers, accept_queue, shed_retry_after,
        )
        self.backend = backend
        self.wire_faults = wire_faults
        self.metrics = metrics if metrics is not None else get_metrics()
        self.tracer = tracer if tracer is not None else get_tracer()
        # Serializes backend access: connection handlers run concurrently
        # but the wrapped backends make no thread-safety promises.
        self._backend_lock = threading.Lock()
        # key -> id of the *latest* stream session that staged it (guarded
        # by the backend lock).  Rollback only deletes keys still owned by
        # the dying session, so a client retry that re-staged the same keys
        # over a new connection cannot lose data to the old connection's
        # late rollback.
        self._stream_owners: dict[str, int] = {}
        self._session_ids = itertools.count(1)
        self.requests_served = 0
        # Per-frame metric handles and op labels, resolved once then held.
        self._held: dict = {}
        self._labels: dict[int, str] = {}

    @staticmethod
    def _fault_key(frame: Frame) -> str:
        """The innermost request key, for prefix-scoped fault injection.

        A batch frame (MULTI_PUT / MULTI_GET / STREAM_GET) has no key of
        its own; it is scoped by its first item's key -- one batch only
        ever carries one distributor's (so one namespace's) shards.
        """
        try:
            inner = frame
            while inner.code in (OpCode.DEADLINE, OpCode.TRACED):
                if inner.code == OpCode.DEADLINE:
                    _, inner = decode_deadline_request(inner.payload)
                else:
                    _, inner = decode_traced_request(inner.payload)
            if inner.code in (
                OpCode.MULTI_PUT, OpCode.MULTI_GET, OpCode.STREAM_GET
            ):
                return first_batch_key(inner.payload)
            return inner.key
        except Exception:  # noqa: BLE001 - malformed envelope, no scoping
            return frame.key

    def _dispatch_multi(
        self, frame: Frame, session: StreamSession
    ) -> list[tuple[Status, str, bytes]]:
        """Route one request frame to its response frame *list*.

        Every op answers exactly one frame except STREAM_GET, whose
        response is a count header followed by one frame per key.
        """
        if frame.code == OpCode.STREAM_GET:
            return self._dispatch_stream_get(frame)
        if frame.code in STREAM_OPS:
            return [self._dispatch_stream(frame, session)]
        return [self._dispatch(frame)]

    def _dispatch(self, frame: Frame) -> tuple[Status, str, bytes]:
        """Run one request against the backend; never raises."""
        if frame.code == OpCode.DEADLINE:
            return self._dispatch_deadline(frame)
        if frame.code == OpCode.TRACED:
            return self._dispatch_traced(frame)
        if frame.code in STREAM_OPS:
            # Only reachable via an envelope (bare stream frames route
            # through _dispatch_multi): a multi-frame stream response
            # cannot nest inside a single envelope response.
            message = (
                f"stream op {OpCode(frame.code).name} cannot ride inside "
                "a TRACED/DEADLINE envelope"
            )
            return Status.BAD_REQUEST, frame.key, message.encode("utf-8")
        op_label = self._label(frame.code)
        t0 = time.perf_counter()
        try:
            # The span is a shared no-op unless this request arrived inside
            # a TRACED envelope (which opened the server-side trace).
            with self.tracer.span("server.backend", op=op_label):
                with self._backend_lock:
                    # Re-check after any wait for the backend lock: the
                    # budget may have drained while this request queued.
                    check_deadline(f"server {op_label}")
                    result = self._handle(frame)
        except Exception as exc:  # noqa: BLE001 - must answer, not crash
            result = status_for_error(exc), frame.key, str(exc).encode("utf-8")
        if result[0] == Status.DEADLINE_EXCEEDED:
            self.metrics.counter("net_server_deadline_exceeded_total", op=op_label).inc()
        self._served(frame.code, result[0], t0)
        return result

    def _label(self, code: int) -> str:
        """Op *code*'s metric label, looked up once a code."""
        label = self._labels.get(code)
        if label is None:
            label = self._labels[code] = (
                OpCode(code).name
                if code in OpCode._value2member_map_
                else f"{code:#x}"
            )
        return label

    def _served(self, code: int, status: int, t0: float | None = None) -> None:
        """Count one request frame of op *code* answered *status*, and time
        it from *t0* when given: each handle is resolved once, then held."""
        counter = self._held.get((code, status))
        if counter is None:
            counter = self._held[code, status] = self.metrics.counter(
                "net_server_requests_total",
                op=self._label(code),
                status=Status(status).name,
            )
        counter.inc()
        if t0 is not None:
            seconds = self._held.get(code)
            if seconds is None:
                seconds = self._held[code] = self.metrics.histogram(
                    "net_server_request_seconds", op=self._label(code)
                )
            seconds.observe(time.perf_counter() - t0)

    def _dispatch_deadline(self, frame: Frame) -> tuple[Status, str, bytes]:
        """Unwrap a DEADLINE envelope and serve the inner request under it.

        The wire carries only the remaining budget (milliseconds); it is
        re-anchored against this process's monotonic clock here.  The
        response is the inner response frame directly -- a deadline has
        nothing to report back -- so error semantics and the TRACED
        nesting both work unchanged underneath.
        """
        try:
            budget_ms, inner = decode_deadline_request(frame.payload)
        except Exception as exc:  # noqa: BLE001 - must answer, not crash
            return status_for_error(exc), frame.key, str(exc).encode("utf-8")
        if budget_ms <= 0:
            self.metrics.counter(
                "net_server_deadline_exceeded_total", op="DEADLINE"
            ).inc()
            return (
                Status.DEADLINE_EXCEEDED,
                inner.key,
                b"deadline expired before the server started",
            )
        with deadline_scope(Deadline.after(budget_ms / 1000.0)):
            return self._dispatch(inner)

    def _dispatch_traced(self, frame: Frame) -> tuple[Status, str, bytes]:
        """Unwrap a TRACED envelope: trace the inner request, ship spans back.

        The envelope answers OK whenever it was decodable; the inner
        response frame (nested in the payload) carries the operation's
        real status, so error semantics match the untraced path exactly.
        """
        try:
            context, inner = decode_traced_request(frame.payload)
        except Exception as exc:  # noqa: BLE001 - must answer, not crash
            return status_for_error(exc), frame.key, str(exc).encode("utf-8")
        with self.tracer.serve_remote(
            context, f"server.{self._label(inner.code)}", backend=self.backend.name
        ):
            status, key, payload = self._dispatch(inner)
        records = self.tracer.drain_remote(context.partition(":")[0])
        return Status.OK, "", encode_traced_response(
            json.dumps(records).encode("utf-8"),
            encode_frame(status, key=key, payload=payload),
        )

    def _dispatch_stream(
        self, frame: Frame, session: StreamSession
    ) -> tuple[Status, str, bytes]:
        """Serve one STREAM_PUT/STREAM_SEG/STREAM_END frame; never raises.

        Accounting is deliberately lighter than :meth:`_dispatch`'s: a
        stream window produces one frame per shard, so per-frame latency
        histograms would dominate the served work.  Segments get a
        request counter; the open/commit frames bound the session anyway.
        """
        try:
            with self._backend_lock:
                result = self._handle_stream(frame, session)
        except Exception as exc:  # noqa: BLE001 - must answer, not crash
            result = status_for_error(exc), frame.key, str(exc).encode("utf-8")
        self._served(frame.code, result[0])
        return result

    def _handle_stream(
        self, frame: Frame, session: StreamSession
    ) -> tuple[Status, str, bytes]:
        op = frame.code
        if op == OpCode.STREAM_PUT:
            if session.open:
                raise ProtocolError("stream session already open")
            session.open = True
            return Status.OK, "", b""
        if not session.open:
            raise ProtocolError(
                f"{OpCode(op).name} without an open stream session "
                "(send STREAM_PUT first)"
            )
        if op == OpCode.STREAM_SEG:
            echo = self._put(frame.key, frame.payload)
            session.staged.append(frame.key)
            self._stream_owners[frame.key] = session.id
            return Status.OK, frame.key, echo
        # STREAM_END: commit -- staged keys stop being rollback candidates.
        count = len(session.staged)
        for key in session.staged:
            if self._stream_owners.get(key) == session.id:
                del self._stream_owners[key]
        session.staged.clear()
        session.open = False
        return Status.OK, "", encode_stream_count(count)

    def _dispatch_stream_get(
        self, frame: Frame
    ) -> list[tuple[Status, str, bytes]]:
        """Answer STREAM_GET: a count header frame, then one frame per key.

        The objects come from one ``backend.get_many`` call, as for
        MULTI_GET: each slot's error is its own frame's status, and a
        backend that raises instead fails every slot.  They are never
        joined into an aggregate payload, so the response list holds
        exactly the window the client asked for and nothing bigger.
        """
        t0 = time.perf_counter()
        try:
            keys = decode_keys(frame.payload)
        except Exception as exc:  # noqa: BLE001 - must answer, not crash
            return [(status_for_error(exc), frame.key, str(exc).encode("utf-8"))]
        with self.tracer.span("server.backend", op="STREAM_GET"):
            with self._backend_lock:
                try:
                    outcomes = self.backend.get_many(keys)
                except Exception as exc:  # noqa: BLE001 - per-item verdicts
                    outcomes = [exc] * len(keys)
        responses: list[tuple[Status, str, bytes]] = [
            (Status.OK, "", encode_stream_count(len(keys)))
        ]
        responses += [
            (status_for_error(outcome), key, str(outcome).encode("utf-8"))
            if isinstance(outcome, Exception)
            else (Status.OK, key, outcome)
            for key, outcome in zip(keys, outcomes)
        ]
        self._served(OpCode.STREAM_GET, Status.OK, t0)
        return responses

    def _rollback_stream(self, session: StreamSession) -> None:
        """Delete segments staged by a session that died before STREAM_END.

        This is what makes a mid-stream sender crash leave no partial
        window behind.  Only keys still owned by this session are touched:
        a retry may have re-staged (and even committed) the same keys over
        a new connection, and that data must survive this cleanup.
        """
        if not session.staged:
            session.open = False
            return
        with self._backend_lock:
            keys = [
                key
                for key in session.staged
                if self._stream_owners.get(key) == session.id
            ]
            for key in keys:
                del self._stream_owners[key]
            for key in keys:
                try:
                    self.backend.delete(key)
                except Exception:  # noqa: BLE001 - best-effort cleanup
                    log.debug(
                        "stream rollback: could not delete %r",
                        key,
                        exc_info=True,
                    )
        session.staged.clear()
        session.open = False
        if keys:
            self.metrics.counter("net_server_stream_rollbacks_total").inc()
            log.warning(
                "chunk server %r rolled back %d uncommitted stream segment(s)",
                self.backend.name, len(keys),
            )

    def _put(self, key: str, data: bytes) -> bytes:
        """Store one received payload; returns the checksum echo.

        The payload is hashed once, as received: the backend records that
        digest and the client compares it with the digest of what it sent,
        so the echo vouches for the bytes the backend was handed.  The
        echo is the digest in hex, converted here, at the wire's edge.
        """
        checksum = blob_checksum(data)
        self.backend.put(key, data, checksum=checksum)
        return encode_digest(checksum)

    def _handle(self, frame: Frame) -> tuple[Status, str, bytes]:
        op = frame.code
        if op == OpCode.PING:
            return Status.OK, "", frame.payload  # echo
        if op == OpCode.PUT:
            return Status.OK, frame.key, self._put(frame.key, frame.payload)
        if op == OpCode.GET:
            return Status.OK, frame.key, self.backend.get(frame.key)
        if op == OpCode.DELETE:
            self.backend.delete(frame.key)
            return Status.OK, frame.key, b""
        if op == OpCode.HEAD:
            return Status.OK, frame.key, encode_stat(self.backend.head(frame.key))
        if op == OpCode.KEYS:
            return Status.OK, "", encode_keys(self.backend.keys())
        if op == OpCode.MULTI_PUT:
            # One frame, many objects.  Item failures become per-item
            # statuses -- the batch always answers, so the client can tell
            # "shard 3 failed" apart from "the whole provider is dark".
            results: list[tuple[int, bytes]] = []
            for key, data in decode_multi_put(frame.payload):
                # A long batch must not outlive its caller: bail between
                # items once the propagated budget is gone (items already
                # stored stay stored -- same ambiguity as a dropped reply).
                check_deadline("MULTI_PUT item")
                try:
                    results.append((_OK, self._put(key, data)))
                except Exception as exc:  # noqa: BLE001 - per-item verdicts
                    results.append(_item_error(exc))
            return Status.OK, "", encode_batch_results(results)
        if op == OpCode.MULTI_GET:
            # One backend call for the batch; each slot's error is its
            # status.  A backend that raises instead fails every slot.
            keys = decode_keys(frame.payload)
            try:
                outcomes = self.backend.get_many(keys)
            except Exception as exc:  # noqa: BLE001 - per-item verdicts
                outcomes = [exc] * len(keys)
            return Status.OK, "", encode_batch_results([
                _item_error(outcome) if isinstance(outcome, Exception)
                else (_OK, outcome)
                for outcome in outcomes
            ])
        raise ProtocolError(f"unknown op code {op:#x}")

    def _shed_reply(self) -> bytes:
        hint = encode_retry_hint(
            self.shed_retry_after,
            f"server {self.backend.name!r} overloaded: accept queue full",
        )
        return encode_frame(Status.RESOURCE_EXHAUSTED, payload=hint.encode())

    def _serve_connection(self, conn: socket.socket) -> None:
        session = StreamSession(id=next(self._session_ids))
        rfile = None
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # Buffered reader: a frame otherwise costs two recv() syscalls
            # (header, body); buffering coalesces them, which is what keeps
            # one-frame-per-shard streaming cheap.
            rfile = conn.makefile("rb")
            bytes_in = self.metrics.counter(
                "net_server_wire_bytes_total", direction="in"
            )
            bytes_out = self.metrics.counter(
                "net_server_wire_bytes_total", direction="out"
            )
            # STREAM_SEG acks held back for coalescing: a stream window is
            # one tiny frame per shard, and a send syscall per ack would
            # dominate the served work.  Acks are appended here and flushed
            # -- in FIFO order, before any other response -- once the
            # socket has no more input ready (a sender blocked on its ack
            # window stops sending, so the idle check can never deadlock)
            # or the backlog hits the client's ack window.
            held_acks: list[bytes | memoryview] = []
            held_count = 0
            while self._running:
                try:
                    frame = read_frame(rfile)
                except ProtocolError as exc:
                    # Can't trust the stream position any more: answer if
                    # possible, then hang up.
                    try:
                        if held_acks:
                            sendmsg_all(conn, held_acks)
                            held_acks = []
                        send_frame(conn, Status.BAD_REQUEST, payload=str(exc).encode())
                    except OSError:
                        pass
                    return
                if frame is None:
                    return  # clean EOF
                bytes_in.inc(
                    HEADER.size + len(frame.key.encode()) + len(frame.payload)
                )
                responses = self._dispatch_multi(frame, session)
                bytes_out.inc(
                    sum(
                        HEADER.size + len(key.encode()) + len(payload)
                        for _, key, payload in responses
                    )
                )
                fault = (
                    self.wire_faults.draw(self._fault_key(frame))
                    if self.wire_faults is not None
                    else None
                )
                if fault == "drop":
                    # The backend already executed the request; the client
                    # never hears about it (ambiguous-outcome failure).
                    return
                if fault == "stall":
                    time.sleep(self.wire_faults.stall_s)
                if (
                    frame.code == OpCode.STREAM_SEG
                    and fault is None
                    and len(responses) == 1
                ):
                    status, key, payload = responses[0]
                    held_acks.extend(
                        frame_segments(status, key, payload)
                    )
                    held_count += 1
                    self.requests_served += 1
                    if held_count < 64 and select.select(
                        [conn], [], [], 0
                    )[0]:
                        continue  # more input pending: keep coalescing
                    sendmsg_all(conn, held_acks)
                    held_acks = []
                    held_count = 0
                    continue
                if held_acks:
                    sendmsg_all(conn, held_acks)
                    held_acks = []
                    held_count = 0
                if fault == "corrupt":
                    status, key, payload = responses[0]
                    raw = bytearray(encode_frame(status, key=key, payload=payload))
                    raw[10] ^= 0xFF  # flip one CRC byte: detectable damage
                    conn.sendall(bytes(raw))
                    responses = responses[1:]
                if len(responses) == 1:
                    status, key, payload = responses[0]
                    send_frame(conn, status, key=key, payload=payload)
                else:
                    # Multi-frame answers (STREAM_GET) ship as one
                    # scatter-gather send instead of a syscall per frame.
                    segments: list[bytes | memoryview] = []
                    for status, key, payload in responses:
                        segments.extend(
                            frame_segments(status, key, payload)
                        )
                    sendmsg_all(conn, segments)
                self.requests_served += 1
        except ProtocolError as exc:
            # Response-path framing failure (e.g. an aggregate MULTI_GET or
            # traced payload over MAX_PAYLOAD).  encode_frame raises before
            # any bytes hit the wire, so a small error frame is still in
            # sync -- answer it, then hang up, instead of letting the
            # exception kill a pooled worker.
            try:
                send_frame(
                    conn, Status.INTERNAL, payload=str(exc).encode("utf-8")
                )
            except OSError:
                pass
        except OSError:
            pass  # peer vanished / we are shutting down
        finally:
            self._rollback_stream(session)
            if rfile is not None:
                try:
                    rfile.close()
                except OSError:
                    pass
