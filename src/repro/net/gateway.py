"""Gateway server: the fleet's tenant-facing API over TCP.

Where :class:`~repro.net.server.ChunkServer` speaks the chunk-level binary
protocol providers need, the gateway speaks a request/response protocol at
tenant granularity: newline-delimited JSON objects, one request per line,
file payloads base64-encoded.  The server is a thin shim -- every request
maps 1:1 onto a :class:`~repro.fleet.gateway.FleetGateway` method, so all
authentication, quota and routing behaviour is identical whether the
gateway is reached in-process or over the wire.

Errors travel as ``{"ok": false, "error": "<ExceptionName>", "message":
...}`` and are re-raised client-side as the matching
:mod:`repro.core.errors` type when one exists.
"""

from __future__ import annotations

import base64
import json
import logging
import socket

from repro.core import errors as core_errors
from repro.core.errors import (
    DeadlineExceeded,
    ReproError,
    RequestTooLargeError,
    ResourceExhaustedError,
)
from repro.fleet.gateway import FleetGateway
from repro.net.admission import AdmissionServer
from repro.util.deadline import Deadline, current_deadline, deadline_scope

log = logging.getLogger(__name__)

_MAX_LINE = 256 << 20  # refuse absurd frames rather than swallowing RAM


class GatewayProtocolError(ReproError):
    """Malformed gateway request/response."""


class GatewayTimeoutError(ReproError):
    """A gateway exchange timed out; the connection was recycled."""


def _encode(obj: dict) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


def _read_line(sock_file, max_line: int = _MAX_LINE) -> dict | None:
    # Read one byte past the cap: a line of exactly max_line bytes is
    # legal, anything longer is a typed refusal rather than a silent
    # truncation (which would desync the JSON stream).
    line = sock_file.readline(max_line + 1)
    if not line:
        return None
    if len(line) > max_line:
        raise RequestTooLargeError(
            f"gateway request line exceeds {max_line} bytes"
        )
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise GatewayProtocolError(f"bad gateway frame: {exc}") from exc


class GatewayServer(AdmissionServer):
    """Serves a :class:`FleetGateway` over newline-delimited JSON/TCP.

    Admission control is :class:`~repro.net.admission.AdmissionServer`'s,
    as for :class:`~repro.net.server.ChunkServer`: once the workers and
    the accept queue are full, a new connection gets one
    ``ResourceExhaustedError`` payload (with a ``retry_after`` hint) and
    is closed instead of being accepted-and-stalled.
    """

    metric_prefix = "gateway"

    def __init__(
        self,
        gateway: FleetGateway,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 16,
        accept_queue: int = 32,
        shed_retry_after: float = 0.1,
        max_line: int = _MAX_LINE,
    ) -> None:
        super().__init__(
            "gateway", host, port, max_workers, accept_queue, shed_retry_after
        )
        if max_line < 1:
            raise ValueError(f"max_line must be >= 1, got {max_line}")
        self.gateway = gateway
        self.max_line = max_line

    @property
    def metrics(self):
        return self.gateway.metrics

    def _shed_reply(self) -> bytes:
        return _encode(
            {
                "ok": False,
                "error": "ResourceExhaustedError",
                "message": "gateway overloaded: accept queue full",
                "retry_after": self.shed_retry_after,
            }
        )

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn.makefile("rb") as reader:
            while True:
                try:
                    request = _read_line(reader, self.max_line)
                except (GatewayProtocolError, RequestTooLargeError) as exc:
                    # The stream position cannot be trusted past a bad or
                    # oversized line: answer with the typed error, then
                    # hang up.
                    try:
                        conn.sendall(_encode(_error_payload(exc)))
                    except OSError:
                        pass
                    return
                if request is None:
                    return
                response = self._respond(request)
                try:
                    conn.sendall(_encode(response))
                except OSError:
                    return

    def _respond(self, request: dict) -> dict:
        """Run one request under its propagated deadline; never raises."""
        try:
            deadline = None
            budget_ms = request.pop("deadline_ms", None)
            if budget_ms is not None:
                # Validate before converting: a malformed budget must come
                # back as a typed error payload, not an exception that
                # escapes into (and kills) a pooled worker thread.
                if isinstance(budget_ms, bool) or not isinstance(
                    budget_ms, (int, float)
                ):
                    raise GatewayProtocolError(
                        f"deadline_ms must be a number, "
                        f"got {type(budget_ms).__name__}"
                    )
                deadline = Deadline.after(max(int(budget_ms), 0) / 1000.0)
            if deadline is not None:
                deadline.check("gateway request")
            with deadline_scope(deadline):
                return self._handle(request)
        except ReproError as exc:
            if isinstance(exc, DeadlineExceeded):
                self.metrics.counter("gateway_deadline_exceeded_total").inc()
            return _error_payload(exc)
        except (ValueError, KeyError, TypeError) as exc:
            return _error_payload(exc)
        except Exception:  # noqa: BLE001 -- keep the server alive
            log.exception("gateway request failed")
            return {
                "ok": False,
                "error": "InternalError",
                "message": "internal gateway error",
            }

    def _handle(self, request: dict) -> dict:
        op = request.get("op")
        gw = self.gateway
        if op == "ping":
            return {"ok": True, "shards": gw.shard_ids}
        if op == "upload":
            receipt = gw.upload_file(
                request["tenant"],
                request["password"],
                request["filename"],
                base64.b64decode(request["data"]),
                int(request.get("level", 2)),
                # As sent: the engine refuses what is no fraction.
                misleading_fraction=request.get("misleading", 0.0),
            )
            return {
                "ok": True,
                "chunks": receipt.chunk_count,
                "bytes": receipt.file_size,
            }
        if op == "get":
            data = gw.get_file(
                request["tenant"], request["password"], request["filename"]
            )
            return {"ok": True, "data": base64.b64encode(data).decode("ascii")}
        if op == "update":
            gw.update_chunk(
                request["tenant"],
                request["password"],
                request["filename"],
                int(request["serial"]),
                base64.b64decode(request["data"]),
            )
            return {"ok": True}
        if op == "remove":
            gw.remove_file(
                request["tenant"], request["password"], request["filename"]
            )
            return {"ok": True}
        if op == "list":
            names = gw.list_files(request["tenant"], request["password"])
            return {"ok": True, "files": names}
        if op == "usage":
            return {"ok": True, "usage": gw.tenant_usage(request["tenant"])}
        if op == "status":
            return {"ok": True, "status": gw.status()}
        raise GatewayProtocolError(f"unknown gateway op {op!r}")


def _error_payload(exc: Exception) -> dict:
    payload = {"ok": False, "error": type(exc).__name__, "message": str(exc)}
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        payload["retry_after"] = retry_after
    return payload


class GatewayClient:
    """Blocking client for :class:`GatewayServer` (one connection).

    Every exchange runs under a per-request socket timeout: the configured
    ``request_timeout`` capped by the ambient deadline's remaining budget
    (which is also propagated to the server as ``deadline_ms``).  After a
    timeout the response may still arrive later, which would desync the
    JSON stream -- so the connection is dropped and redialed lazily on the
    next call (reconnect-on-timeout) instead of being reused.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        request_timeout: float | None = None,
    ) -> None:
        self._host = host
        self._port = port
        self._connect_timeout = timeout
        self._request_timeout = (
            request_timeout if request_timeout is not None else timeout
        )
        self._sock: socket.socket | None = socket.create_connection(
            (host, port), timeout=timeout
        )
        self._reader = self._sock.makefile("rb")

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            self._reader.close()
        finally:
            sock, self._sock = self._sock, None
            sock.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _drop_connection(self) -> None:
        """Discard a desynced/dead connection; the next call redials."""
        if self._sock is None:
            return
        try:
            self._reader.close()
        except OSError:
            pass
        sock, self._sock = self._sock, None
        try:
            sock.close()
        except OSError:
            pass

    def _ensure_connected(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection(
                (self._host, self._port), timeout=self._connect_timeout
            )
            self._reader = self._sock.makefile("rb")
        return self._sock

    def _call(self, request: dict) -> dict:
        deadline = current_deadline()
        timeout = self._request_timeout
        if deadline is not None:
            deadline.check("gateway call")
            timeout = deadline.timeout(cap=timeout)
            request = dict(request)
            request["deadline_ms"] = max(
                1, int(deadline.remaining() * 1000)
            )
        sock = self._ensure_connected()
        try:
            sock.settimeout(timeout)
            sock.sendall(_encode(request))
            response = _read_line(self._reader)
        except socket.timeout as exc:
            self._drop_connection()
            if deadline is not None and deadline.expired:
                raise DeadlineExceeded(
                    f"gateway call exceeded its deadline ({timeout:.3f}s "
                    f"budget)"
                ) from exc
            raise GatewayTimeoutError(
                f"gateway did not answer within {timeout:.3f}s"
            ) from exc
        except OSError as exc:
            self._drop_connection()
            raise GatewayProtocolError(
                f"gateway connection failed: {exc}"
            ) from exc
        except (GatewayProtocolError, RequestTooLargeError):
            # A malformed or oversized response line leaves the stream
            # position untrustworthy; reusing it would feed the next call
            # the tail of this one.
            self._drop_connection()
            raise
        if response is None:
            self._drop_connection()
            raise GatewayProtocolError("gateway closed the connection")
        if not response.get("ok"):
            error = _rebuild_error(response)
            if isinstance(error, ResourceExhaustedError):
                # The server shut the connection right after shedding us.
                self._drop_connection()
            raise error
        return response

    def ping(self) -> list[str]:
        return self._call({"op": "ping"})["shards"]

    def upload_file(
        self,
        tenant: str,
        password: str,
        filename: str,
        data: bytes,
        level: int,
        misleading_fraction: float = 0.0,
    ) -> dict:
        return self._call(
            {
                "op": "upload",
                "tenant": tenant,
                "password": password,
                "filename": filename,
                "data": base64.b64encode(data).decode("ascii"),
                "level": int(level),
                "misleading": misleading_fraction,
            }
        )

    def get_file(self, tenant: str, password: str, filename: str) -> bytes:
        response = self._call(
            {
                "op": "get",
                "tenant": tenant,
                "password": password,
                "filename": filename,
            }
        )
        return base64.b64decode(response["data"])

    def update_chunk(
        self,
        tenant: str,
        password: str,
        filename: str,
        serial: int,
        data: bytes,
    ) -> None:
        self._call(
            {
                "op": "update",
                "tenant": tenant,
                "password": password,
                "filename": filename,
                "serial": serial,
                "data": base64.b64encode(data).decode("ascii"),
            }
        )

    def remove_file(self, tenant: str, password: str, filename: str) -> None:
        self._call(
            {
                "op": "remove",
                "tenant": tenant,
                "password": password,
                "filename": filename,
            }
        )

    def list_files(self, tenant: str, password: str) -> list[str]:
        return self._call(
            {"op": "list", "tenant": tenant, "password": password}
        )["files"]

    def tenant_usage(self, tenant: str) -> dict:
        return self._call({"op": "usage", "tenant": tenant})["usage"]

    def status(self) -> dict:
        return self._call({"op": "status"})["status"]


def _rebuild_error(response: dict) -> Exception:
    """Map a wire error back onto the library's exception hierarchy."""
    name = response.get("error", "ReproError")
    message = response.get("message", "gateway error")
    if name == "ResourceExhaustedError":
        return ResourceExhaustedError(
            message, retry_after=response.get("retry_after")
        )
    if name == "ShardUnavailable":
        return core_errors.ShardUnavailable(
            message, retry_after=response.get("retry_after")
        )
    exc_type = getattr(core_errors, name, None)
    if isinstance(exc_type, type) and issubclass(exc_type, Exception):
        return exc_type(message)
    if name in ("ValueError", "KeyError", "TypeError"):
        return ValueError(message)
    return ReproError(f"{name}: {message}")
