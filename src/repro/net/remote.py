"""``RemoteProvider``: the full ``CloudProvider`` contract over a socket.

The distributor never learns it is talking across a network: a
``RemoteProvider`` keyed into the registry behaves exactly like the
in-process backends -- same methods, same exception types -- but every
operation becomes a framed request to a :class:`~repro.net.server.ChunkServer`.

Failure handling mirrors a production object-store client:

* per-operation socket timeouts (a hung server cannot wedge the distributor);
* bounded exponential-backoff retries on *transport* failures (refused
  connection, reset, timeout) -- retried operations are idempotent at the
  chunk layer because ``put`` overwrites and ``get``/``head``/``keys`` read;
* wire error statuses translated back into the :mod:`repro.core.errors`
  hierarchy, so RAID degraded reads and repair treat a dead server exactly
  like a dead simulated provider.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.core.errors import (
    BlobCorruptedError,
    DeadlineExceeded,
    ProviderError,
    ProviderUnavailableError,
    ResourceExhaustedError,
)
from repro.net.pool import ConnectionPool, StaleConnectionError, classify_stale
from repro.net.protocol import (
    HEADER,
    MAX_BUDGET_MS,
    Frame,
    OpCode,
    ProtocolError,
    Status,
    decode_batch_results,
    decode_keys,
    decode_stat,
    decode_stream_count,
    decode_traced_response,
    deadline_prefix,
    encode_keys,
    encode_multi_put,
    error_for_status,
    frame_segments,
    read_frame,
    recv_frame,
    sendmsg_all,
    traced_prefix,
)
from repro.net.resilience import current_retry_budget
from repro.util.deadline import Deadline, current_deadline
from repro.obs.events import EventLog, get_events
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.trace import Tracer, get_tracer
from repro.providers.base import BlobStat, CloudProvider, blob_checksum

#: Soft cap on one MULTI_PUT/MULTI_GET frame's payload.  Oversized batches
#: are split into several frames *pipelined* on one connection (all requests
#: written before the responses are read), so splitting costs no extra
#: round-trips.  Well under protocol.MAX_PAYLOAD so per-item framing
#: overhead can never push a frame over the hard limit.
BATCH_BYTES = 32 * 1024 * 1024

#: Cap on items per batch frame, bounding server-side decode allocations.
BATCH_ITEMS = 1024

#: Max DELETE frames pipelined in one window of ``delete_many``.  A
#: window's requests are all written before any answer is read, and here
#: both directions are many small frames, so "never both large" (see
#: ``_exchange``) is restated as a number: 64 frames of header + shard key
#: are about 2 KiB bare and under 6 KiB inside both envelopes (DEADLINE
#: wrapping TRACED with its context), below the 16 KiB a send buffer
#: starts at, so the client always finishes writing and turns to reading
#: however slowly the server drains; the 64 answers (a bare header each,
#: a few hundred bytes each with shipped span records) fit the receive
#: side the same way.  256 and 1,024 measured within noise of 64.
DELETE_WINDOW = 64

#: Max unacknowledged STREAM_SEG frames in flight during a stream session.
#: Acks are tiny (~100 bytes), so this bounds the server's ack backlog to a
#: few kilobytes -- far below any socket buffer -- while still letting the
#: sender run a full window ahead of the receiver.
STREAM_ACK_WINDOW = 64

#: STREAM_SEG frames coalesced into one sendmsg() call.  Segments are tiny
#: (a shard of one PL-sized chunk), so a syscall per frame would dominate
#: the wire phase; batching keeps the send path at ~one syscall per ack
#: window.  Must not exceed STREAM_ACK_WINDOW or the ack drain between
#: batches could not keep the in-flight count bounded.
STREAM_SEND_BATCH = STREAM_ACK_WINDOW


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transport-level failures.

    Attempt *i* (0-based) sleeps ``min(max_delay, base_delay * 2**i)``
    before retrying; after *attempts* total tries the operation fails with
    :class:`ProviderUnavailableError`.
    """

    attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")

    def delay(self, attempt: int) -> float:
        return min(self.max_delay, self.base_delay * (2**attempt))


class RemoteProvider(CloudProvider):
    """Socket-backed provider client with pooling, timeouts and retries."""

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        *,
        op_timeout: float = 10.0,
        connect_timeout: float = 2.0,
        retry: RetryPolicy | None = None,
        pool_size: int = 4,
        failfast_window: float = 0.0,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        events: EventLog | None = None,
    ) -> None:
        super().__init__(name)
        if op_timeout <= 0:
            raise ValueError(f"op_timeout must be positive, got {op_timeout}")
        if failfast_window < 0:
            raise ValueError(
                f"failfast_window must be >= 0, got {failfast_window}"
            )
        self.host = host
        self.port = port
        self.op_timeout = op_timeout
        self.retry = retry or RetryPolicy()
        self.failfast_window = failfast_window
        self.metrics = metrics if metrics is not None else get_metrics()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.events = events if events is not None else get_events()
        self._down_until = 0.0
        self.pool = ConnectionPool(
            host, port, size=pool_size, connect_timeout=connect_timeout,
            metrics=self.metrics, events=self.events,
        )

    # -- transport ---------------------------------------------------------

    def _check_deadline(self, what: str) -> Deadline | None:
        """Ambient deadline, checked (and counted) before starting I/O."""
        deadline = current_deadline()
        if deadline is not None and deadline.expired:
            self.metrics.counter(
                "net_client_deadline_exceeded_total", provider=self.name
            ).inc()
            deadline.check(what)  # raises DeadlineExceeded
        return deadline

    def _op_timeout(self, deadline: Deadline | None) -> float:
        """Socket timeout for one exchange: op_timeout capped by the budget."""
        if deadline is None:
            return self.op_timeout
        return deadline.timeout(cap=self.op_timeout)

    def _exchange(self, requests: list[tuple]) -> list[Frame]:
        """Pipeline a window of frames on one pooled connection.

        Every request is written before any response is read, so N frames
        cost one round-trip of latency instead of N (a single-frame op is
        the window of one).  Safe for the batch ops because their
        requests and responses are never both large (MULTI_PUT answers
        small status lists, MULTI_GET asks with small key lists), so the
        two directions cannot deadlock on full socket buffers; a window of
        DELETE frames is small both ways because :data:`DELETE_WINDOW`
        caps its frame count.  The answers of a window of several frames
        are read through one buffered reader, not two ``recv()`` calls
        per frame.

        A request is ``(op, key, *payload_parts)``, the arguments of
        :func:`~repro.net.protocol.frame_segments`.  Each may ride inside
        up to two envelopes, outermost first: DEADLINE (remaining budget)
        wrapping TRACED (trace context) wrapping the operation.  An
        envelope is one more frame over its prefix and the inner frame's
        segments, so the whole window goes out as one scatter-gather list
        of small headers and views of the callers' payloads, never joined
        again here.  A server that does not know an envelope answers
        BAD_REQUEST, which comes back like any other error status.
        """
        deadline = self._check_deadline(f"net.{requests[0][0].name}")
        context = self.tracer.wire_context()
        with self.pool.lease(op=requests[0][0].name) as leased:
            sock = leased.sock
            rfile = None
            try:
                sock.settimeout(self._op_timeout(deadline))
                if deadline is not None:
                    budget = deadline_prefix(max(1, min(
                        MAX_BUDGET_MS, int(deadline.remaining() * 1000)
                    )))
                segments: list[bytes | memoryview] = []
                for request in requests:
                    frame = frame_segments(*request)
                    if context is not None:
                        frame = frame_segments(
                            OpCode.TRACED, "", traced_prefix(context), *frame
                        )
                    if deadline is not None:
                        frame = frame_segments(
                            OpCode.DEADLINE, "", budget, *frame
                        )
                    segments.extend(frame)
                sendmsg_all(sock, segments)
                if len(requests) > 1:
                    rfile = sock.makefile("rb")
                frames: list[Frame] = []
                for _ in requests:
                    frame = recv_frame(sock) if rfile is None else read_frame(rfile)
                    if frame is None:
                        raise ProtocolError(
                            "server closed connection before responding"
                        )
                    if context is not None and frame.code == Status.OK:
                        # The envelope decoded; the inner frame carries the
                        # operation's status, the records the server's spans.
                        records, frame = decode_traced_response(frame.payload)
                        if records:
                            self.tracer.attach_remote(records)
                    frames.append(frame)
                return frames
            except (OSError, ProtocolError) as exc:
                raise classify_stale(exc, leased.fresh) from exc
            finally:
                if rfile is not None:
                    rfile.close()

    def _with_retries(self, exchange):
        """Run *exchange* under the retry budget and circuit breaker.

        Application-level error statuses (NOT_FOUND, CORRUPTED, ...) are
        definitive answers from a live server and are never retried; only
        connection failures, timeouts and malformed frames are.

        A :class:`StaleConnectionError` -- a *reused* pooled socket died
        while parked, typically because the server restarted -- is not a
        failure verdict at all: the remaining idle sockets are discarded
        and the exchange redials immediately, without consuming a retry
        attempt, sleeping, or (when the free redials are themselves
        exhausted, which needs a genuinely flapping server) opening the
        circuit any earlier than a plain transport failure would.

        With ``failfast_window > 0`` the client acts as a circuit breaker:
        after the retry budget is exhausted, further operations fail
        immediately for that many seconds instead of re-dialing a server
        known to be down -- a RAID degraded read over hundreds of chunks
        then pays the retry cost once, not once per chunk.

        Two cross-cutting limits bound the loop further when ambient scopes
        are active: an ambient :class:`~repro.net.resilience.RetryBudget`
        (shared by every hop of one logical request -- once it is spent,
        *no* hop retries any more, stopping retry storms at the source),
        and the ambient deadline (no sleep ever extends past it).  A
        ``RESOURCE_EXHAUSTED`` answer -- the server shed us at admission --
        is retried like a transport failure but honours the server's
        retry-after hint with jitter instead of our own backoff curve.
        """
        if self.failfast_window > 0 and time.monotonic() < self._down_until:
            raise ProviderUnavailableError(
                f"provider {self.name!r} at {self.host}:{self.port} "
                f"failing fast (circuit open)"
            )
        last_exc: Exception | None = None
        # One free redial per idle socket the pool could have handed us,
        # plus the one that failed: after discard_idle every subsequent
        # checkout dials fresh, so this bound is never hit by a healthy
        # restarted server -- only by a genuinely flapping one.
        stale_budget = self.pool.size + 1
        attempt = 0
        retry_after: float | None = None
        while True:
            retry_after = None
            try:
                result = exchange()
            except StaleConnectionError as exc:
                self.pool.discard_idle()
                self.metrics.counter(
                    "net_client_stale_connections_total", provider=self.name
                ).inc()
                if stale_budget > 0:
                    stale_budget -= 1
                    continue  # immediate redial; no budget consumed
                last_exc = exc
                attempt += 1
            except (OSError, ProtocolError) as exc:
                last_exc = exc
                attempt += 1
            else:
                shed = self._find_shed(result)
                if shed is None:
                    self._down_until = 0.0
                    return result
                # The server refused us at admission and closed the socket;
                # drop parked siblings (they are dead too) and back off for
                # roughly the hinted interval before trying again.
                self.pool.discard_idle()
                self.metrics.counter(
                    "net_client_shed_total", provider=self.name
                ).inc()
                last_exc = shed
                retry_after = shed.retry_after
                attempt += 1
            if attempt >= self.retry.attempts:
                break
            budget = current_retry_budget()
            if budget is not None and not budget.try_spend():
                self.metrics.counter(
                    "net_client_retry_budget_exhausted_total",
                    provider=self.name,
                ).inc()
                break
            self.metrics.counter(
                "net_client_retries_total", provider=self.name
            ).inc()
            if retry_after is not None:
                # Jitter the hint upward so a crowd of shed clients does
                # not return in one synchronized thundering herd.
                delay = retry_after * random.uniform(1.0, 1.5)
            else:
                delay = self.retry.delay(attempt - 1)
            deadline = current_deadline()
            if deadline is not None and deadline.remaining() <= delay:
                self.metrics.counter(
                    "net_client_deadline_exceeded_total", provider=self.name
                ).inc()
                raise DeadlineExceeded(
                    f"deadline expires before the next retry of provider "
                    f"{self.name!r} (backoff {delay:.3f}s)"
                ) from last_exc
            time.sleep(delay)
            # The server may have restarted; pre-restart sockets would
            # fail again and burn the remaining attempts.
            self.pool.discard_idle()
        if self.failfast_window > 0:
            self._down_until = time.monotonic() + self.failfast_window
            self.metrics.counter(
                "net_client_circuit_open_total", provider=self.name
            ).inc()
            self.events.emit(
                "circuit_open",
                level="warning",
                provider=self.name,
                window_s=self.failfast_window,
                error=str(last_exc),
            )
        if isinstance(last_exc, ResourceExhaustedError):
            raise last_exc  # keep the typed shed verdict (and its hint)
        raise ProviderUnavailableError(
            f"provider {self.name!r} at {self.host}:{self.port} unreachable "
            f"after {self.retry.attempts} attempt(s): {last_exc}"
        ) from last_exc

    @staticmethod
    def _frame_error(frame: Frame) -> ProviderError:
        """The exception an error-status response frame stands for."""
        return error_for_status(
            frame.code, frame.payload.decode("utf-8", "replace")
        )

    @staticmethod
    def _find_shed(result) -> ResourceExhaustedError | None:
        """The shed verdict, if any frame of *result* was RESOURCE_EXHAUSTED.

        Stream exchanges return per-item tuples on success, so anything
        without a status code is simply not a shed verdict.
        """
        frames = result if isinstance(result, list) else [result]
        for frame in frames:
            if getattr(frame, "code", None) == Status.RESOURCE_EXHAUSTED:
                error = RemoteProvider._frame_error(frame)
                assert isinstance(error, ResourceExhaustedError)
                return error
        return None

    def _account(
        self, op: OpCode, frames: int, sent: int, received: int, t0: float
    ) -> None:
        """One window of *frames* *op* frames exchanged: the request count
        moves by *frames*, the wire bytes by the window's totals, each
        counter once, and the window is one latency sample.

        One sample, not one per frame: pipelined frames share a
        round-trip, and N identical samples would skew the histogram.
        """
        self.metrics.counter(
            "net_client_requests_total", op=op.name, provider=self.name
        ).inc(frames)
        self.metrics.counter(
            "net_client_wire_bytes_total", direction="out"
        ).inc(sent)
        self.metrics.counter(
            "net_client_wire_bytes_total", direction="in"
        ).inc(received)
        self.metrics.histogram(
            "net_client_request_seconds", op=op.name
        ).observe(time.perf_counter() - t0)

    def _roundtrip(self, requests: list[tuple]) -> list[Frame]:
        """Exchange a window of frames of one op with transport retries,
        traced and accounted; returns the response frames, whatever their
        statuses.

        Retrying replays the whole window -- idempotent at this layer
        because PUT overwrites whole objects, GET reads, and a DELETE
        replayed after it took effect answers NOT_FOUND for an object
        that is gone either way.
        """
        t0 = time.perf_counter()
        op = requests[0][0]
        # The span is active while _exchange reads wire_context(), so
        # server-side spans shipped back parent under this net span.
        with self.tracer.span(
            f"net.{op.name}", provider=self.name, frames=len(requests)
        ):
            frames = self._with_retries(lambda: self._exchange(requests))
        sent = received = 0
        expired = False
        for (_, key, *parts), frame in zip(requests, frames):
            sent += HEADER.size + len(key.encode()) + sum(map(len, parts))
            received += HEADER.size + len(frame.key.encode()) + len(frame.payload)
            expired = expired or frame.code == Status.DEADLINE_EXCEEDED
        self._account(op, len(requests), sent, received, t0)
        if expired:
            self.metrics.counter(
                "net_client_deadline_exceeded_total", provider=self.name
            ).inc()
        return frames

    def _request(self, requests: list[tuple], decode=None):
        """:meth:`_roundtrip` that raises on an error status.

        Returns the response frames, or ``decode(frames)`` when given: a
        :class:`ProtocolError` from it -- a CRC-correct answer whose
        payload is junk -- is raised as a :class:`ProviderError`, so a
        degraded read goes around this provider as around any other
        failure.
        """
        first_op = requests[0][0]
        frames = self._roundtrip(requests)
        for frame in frames:
            if frame.code != Status.OK:
                raise self._frame_error(frame)
        if decode is None:
            return frames
        try:
            return decode(frames)
        except ProtocolError as exc:
            raise ProviderError(
                f"provider {self.name!r} answered a malformed "
                f"{first_op.name} payload: {exc}"
            ) from exc

    def ping(self) -> float:
        """Round-trip one empty frame; returns the wall-clock seconds."""
        started = time.perf_counter()
        self._request([(OpCode.PING, "", b"ping")])
        return time.perf_counter() - started

    def reset_circuit(self) -> None:
        """Forget a fail-fast verdict (e.g. the server is known restarted)."""
        self._down_until = 0.0

    def close(self) -> None:
        """Release every pooled connection."""
        self.pool.close()

    def __enter__(self) -> "RemoteProvider":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- CloudProvider interface -------------------------------------------

    def put(self, key: str, data: bytes, checksum: str | None = None) -> None:
        (frame,) = self._request([(OpCode.PUT, key, bytes(data))])
        (error,) = self._put_outcomes(
            [(key, data)], None if checksum is None else [checksum],
            [(frame.code, frame.payload)],
        )
        if error is not None:
            raise error

    def get(self, key: str) -> bytes:
        return self._request([(OpCode.GET, key, b"")])[0].payload

    def put_many(
        self,
        items: list[tuple[str, bytes]],
        checksums: list[str] | None = None,
    ) -> list[ProviderError | None]:
        """Store many objects in one MULTI_PUT round-trip per batch frame.

        Transport failure raises (the whole window is in doubt); per-item
        backend failures come back as exceptions in the result list, so a
        partially failed batch still tells the caller exactly which shards
        need failover.  A batch frame's payload leaves as one buffer.
        """
        if not items:
            return []
        batches = self._split_batches(items, lambda item: len(item[1]))
        results = self._request(
            [(OpCode.MULTI_PUT, "", encode_multi_put(batch)) for batch in batches],
            lambda frames: self._batch_results(batches, frames),
        )
        return self._put_outcomes(items, checksums, results)

    def _put_outcomes(
        self,
        items: list[tuple[str, bytes]],
        checksums: list[str] | None,
        results: list[tuple[int, bytes]],
    ) -> list[ProviderError | None]:
        """Per-item outcomes of a put from its ``(status, echo)`` answers:
        the server's error, ``None``, or a :class:`BlobCorruptedError` for
        an echo -- the digest the server's backend recorded -- that is not
        the item's digest (*checksums*, when the caller holds them).

        A mismatch means the transport CRC passed but the server stored
        something else: end-to-end write verification failed.  A batch
        that all answered OK is checked whole first, its echoes joined
        against its digests joined, item lengths alike.
        """
        if checksums is None:
            checksums = [blob_checksum(data) for _, data in items]
        statuses, echoes = zip(*results)
        if not any(statuses) and (  # Status.OK is 0
            list(map(len, echoes)) == list(map(len, checksums))
            and b"".join(echoes) == "".join(checksums).encode()
        ):
            return [None] * len(items)
        return [
            error_for_status(status, echo.decode("utf-8", "replace"))
            if status != Status.OK
            else None
            if echo.decode("utf-8", "replace") == checksum
            else BlobCorruptedError(
                f"checksum echo mismatch from provider {self.name!r} "
                f"for key {key!r}"
            )
            for (key, _), checksum, status, echo in zip(
                items, checksums, statuses, echoes, strict=True
            )
        ]

    def get_many(self, keys: list[str]) -> list["bytes | ProviderError"]:
        """Fetch many objects in one MULTI_GET round-trip per batch frame."""
        if not keys:
            return []
        batches = self._split_batches(keys, len)
        results = self._request(
            [(OpCode.MULTI_GET, "", encode_keys(batch)) for batch in batches],
            lambda frames: self._batch_results(batches, frames),
        )
        return self._get_outcomes(results)

    @staticmethod
    def _get_outcomes(
        results: list[tuple[int, bytes]]
    ) -> list["bytes | ProviderError"]:
        """Per-item outcomes of a batched get from its ``(status, body)``
        answers: the object's bytes, or the server's error."""
        return [
            body
            if status == Status.OK
            else error_for_status(status, body.decode("utf-8", "replace"))
            for status, body in results
        ]

    @staticmethod
    def _batch_results(
        batches: list[list], frames: list[Frame]
    ) -> list[tuple[int, bytes]]:
        """Per-item ``(status, body)`` answers of a window of batch frames,
        one answer per item asked or :class:`ProtocolError`."""
        results: list[tuple[int, bytes]] = []
        for batch, frame in zip(batches, frames):
            answered = decode_batch_results(frame.payload)
            if len(answered) != len(batch):
                raise ProtocolError(
                    f"batch frame answered {len(answered)} results for "
                    f"{len(batch)} items"
                )
            results.extend(answered)
        return results

    def _exchange_stream_put(self, items: list[tuple[str, bytes]]):
        """One stream-upload session (open, segments, commit) on a lease.

        Segments are pipelined behind the open frame with a sliding window
        of at most :data:`STREAM_ACK_WINDOW` unacknowledged frames, so a
        whole window costs ~1 round-trip of latency while the ack backlog
        stays bounded.  Returns per-item ``(status, body)`` pairs, or the
        error frame of a refused session: the shed frame when the server
        refused us at admission (``_with_retries`` turns that into hinted
        backoff), else the first non-OK open or commit answer, with every
        ack drained so the connection stays in sync.  A segment ack must
        echo the key of the segment at its position, or the session is a
        :class:`ProtocolError`.
        """
        deadline = self._check_deadline("net.STREAM_PUT")
        with self.pool.lease(op="STREAM_PUT") as leased:
            sock = leased.sock
            try:
                sock.settimeout(self._op_timeout(deadline))
                rfile = sock.makefile("rb")
                try:
                    sent = 0
                    acked = 0
                    refused: Frame | None = None
                    results: list[tuple[int, bytes]] = []

                    def read_ack() -> None:
                        nonlocal acked, refused
                        frame = read_frame(rfile)
                        if frame is None:
                            raise ProtocolError(
                                "server closed connection mid-stream"
                            )
                        index = acked  # 0 = open ack, 1..N = segments, N+1 = end
                        acked += 1
                        if frame.code == Status.RESOURCE_EXHAUSTED:
                            refused = frame
                        elif 1 <= index <= len(items):
                            asked = items[index - 1][0]
                            if frame.key != asked:
                                raise ProtocolError(
                                    f"STREAM_SEG ack {index} is for key "
                                    f"{frame.key!r}, not {asked!r}"
                                )
                            results.append((int(frame.code), frame.payload))
                        elif frame.code != Status.OK and refused is None:
                            refused = frame

                    sendmsg_all(sock, frame_segments(OpCode.STREAM_PUT))
                    sent += 1
                    batch: list[bytes | memoryview] = []
                    batched = 0
                    for key, data in items:
                        if refused is not None:
                            break
                        batch.extend(
                            frame_segments(OpCode.STREAM_SEG, key, data)
                        )
                        batched += 1
                        if batched >= STREAM_SEND_BATCH:
                            sendmsg_all(sock, batch)
                            sent += batched
                            batch.clear()
                            batched = 0
                            while sent - acked > STREAM_ACK_WINDOW:
                                read_ack()
                    if refused is None:
                        batch.extend(frame_segments(OpCode.STREAM_END))
                        sendmsg_all(sock, batch)
                        sent += batched + 1
                    # Drain every outstanding ack so the connection is back
                    # in sync (a shed server closed it already; stop there).
                    while acked < sent and (
                        refused is None
                        or refused.code != Status.RESOURCE_EXHAUSTED
                    ):
                        read_ack()
                    if refused is not None:
                        return refused
                    if len(results) != len(items):
                        raise ProtocolError(
                            f"stream session answered {len(results)} segment "
                            f"acks for {len(items)} segments"
                        )
                    return results
                finally:
                    rfile.close()
            except (OSError, ProtocolError) as exc:
                raise classify_stale(exc, leased.fresh) from exc

    def _exchange_stream_get(self, keys: list[str]):
        """One STREAM_GET exchange: count header, then one frame per key.

        Returns the per-key frames, or the header frame when it is not OK
        (the shed frame on admission refusal, or the server's error).
        Each frame must echo the key asked at its position, or the
        exchange is a :class:`ProtocolError`: a server answering out of
        order would otherwise hand one key's bytes back as another's.
        """
        deadline = self._check_deadline("net.STREAM_GET")
        with self.pool.lease(op="STREAM_GET") as leased:
            sock = leased.sock
            try:
                sock.settimeout(self._op_timeout(deadline))
                sendmsg_all(
                    sock,
                    frame_segments(OpCode.STREAM_GET, "", encode_keys(keys)),
                )
                rfile = sock.makefile("rb")
                try:
                    header = read_frame(rfile)
                    if header is None:
                        raise ProtocolError(
                            "server closed connection before responding"
                        )
                    if header.code != Status.OK:
                        return header
                    count = decode_stream_count(header.payload)
                    if count != len(keys):
                        raise ProtocolError(
                            f"STREAM_GET answered {count} frames for "
                            f"{len(keys)} keys"
                        )
                    frames: list[Frame] = []
                    for key in keys:
                        frame = read_frame(rfile)
                        if frame is None:
                            raise ProtocolError(
                                "server closed connection mid-stream"
                            )
                        if frame.key != key:
                            raise ProtocolError(
                                f"STREAM_GET answered key {frame.key!r} "
                                f"where {key!r} was asked"
                            )
                        frames.append(frame)
                    return frames
                finally:
                    rfile.close()
            except (OSError, ProtocolError) as exc:
                raise classify_stale(exc, leased.fresh) from exc

    def put_stream(
        self,
        items: list[tuple[str, bytes]],
        checksums: list[str] | None = None,
    ) -> list[ProviderError | None]:
        """Store many objects over one stream session (frame per shard).

        Same contract as :meth:`put_many` -- per-item outcomes, checksum
        echoes verified -- but neither side ever materializes the window
        into one aggregate buffer.  A refused session raises its error.
        """
        if not items:
            return []
        t0 = time.perf_counter()
        with self.tracer.span(
            "net.STREAM_PUT", provider=self.name, frames=len(items)
        ):
            result = self._with_retries(
                lambda: self._exchange_stream_put(items)
            )
        if isinstance(result, Frame):
            raise self._frame_error(result)
        sent = 2 * HEADER.size + sum(
            HEADER.size + len(key.encode()) + len(data) for key, data in items
        )
        received = 2 * HEADER.size + sum(
            HEADER.size + len(key.encode()) + len(body)
            for (key, _), (_, body) in zip(items, result)
        )
        self._account(OpCode.STREAM_PUT, 1, sent, received, t0)
        return self._put_outcomes(items, checksums, result)

    def get_stream(self, keys: list[str]) -> list["bytes | ProviderError"]:
        """Fetch many objects as one frame per key (no aggregate payload).

        Same contract as :meth:`get_many`; a refused request raises.
        """
        if not keys:
            return []
        t0 = time.perf_counter()
        with self.tracer.span(
            "net.STREAM_GET", provider=self.name, frames=len(keys)
        ):
            frames = self._with_retries(
                lambda: self._exchange_stream_get(keys)
            )
        if isinstance(frames, Frame):
            raise self._frame_error(frames)
        sent = HEADER.size + 4 + sum(len(key.encode()) + 2 for key in keys)
        received = HEADER.size + 4 + sum(
            HEADER.size + len(frame.key.encode()) + len(frame.payload)
            for frame in frames
        )
        self._account(OpCode.STREAM_GET, 1, sent, received, t0)
        return self._get_outcomes(
            [(frame.code, frame.payload) for frame in frames]
        )

    @staticmethod
    def _split_batches(items: list, weigh) -> list[list]:
        """Split *items* into frame-sized batches (bytes and count caps)."""
        batches: list[list] = []
        current: list = []
        current_bytes = 0
        for item in items:
            weight = weigh(item)
            if current and (
                current_bytes + weight > BATCH_BYTES
                or len(current) >= BATCH_ITEMS
            ):
                batches.append(current)
                current = []
                current_bytes = 0
            current.append(item)
            current_bytes += weight
        if current:
            batches.append(current)
        return batches

    def delete(self, key: str) -> None:
        self._request([(OpCode.DELETE, key, b"")])

    def delete_many(self, keys: list[str]) -> list[ProviderError | None]:
        """Remove many objects: plain DELETE frames, pipelined
        :data:`DELETE_WINDOW` at a time, one round-trip per window.

        Each key's outcome is its own frame's status.  A window the
        transport could not deliver after its retries answers every key
        of it, and of the windows behind it, with that error: the
        provider is down, and asking again per window would only pay the
        retries again.
        """
        outcomes: list[ProviderError | None] = []
        for start in range(0, len(keys), DELETE_WINDOW):
            window = keys[start : start + DELETE_WINDOW]
            try:
                frames = self._roundtrip(
                    [(OpCode.DELETE, key, b"") for key in window]
                )
            except ProviderError as exc:
                outcomes.extend([exc] * (len(keys) - start))
                break
            outcomes.extend(
                None if frame.code == Status.OK else self._frame_error(frame)
                for frame in frames
            )
        return outcomes

    def keys(self) -> list[str]:
        return self._request(
            [(OpCode.KEYS, "", b"")],
            lambda frames: decode_keys(frames[0].payload),
        )

    def head(self, key: str) -> BlobStat:
        return self._request(
            [(OpCode.HEAD, key, b"")],
            lambda frames: decode_stat(key, frames[0].payload),
        )
