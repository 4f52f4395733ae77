"""A dependency-free asyncio HTTP/1.1 front end over the gateway.

Hand-rolled on ``asyncio.start_server`` (the container bakes in no
HTTP framework, and the protocol surface is tiny):

====== ============== ================================================
method path           body / behavior
====== ============== ================================================
GET    /metrics       Prometheus text exposition (gateway + backend)
GET    /stats         JSON health snapshot
POST   /v1/search     ``SearchRequest.to_dict()`` JSON; headers
                      ``X-Api-Key``, optional ``X-Priority``
POST   /v1/ingest     ``{"segments": SegmentArray.to_dict()}``;
                      optional ``Idempotency-Key`` header
POST   /v1/delete     ``{"traj_id": int}``; optional
                      ``Idempotency-Key`` header
====== ============== ================================================

Status mapping keeps refusals machine-readable on the wire: 401
unauthenticated, 429 rate/quota (with ``Retry-After``), 503
overloaded / writes-disabled (with ``Retry-After``), 504 deadline
exceeded, 400 invalid, 500 internal (the backend raised), 206
partial.  The JSON body is always the full
:meth:`~repro.gateway.admission.GatewayResponse.to_dict`, so a client
never has to parse prose to learn why it was refused.
"""

from __future__ import annotations

import asyncio
import json

from ..core.types import SegmentArray
from ..service import SearchRequest
from .admission import GatewayResponse
from .app import Gateway

__all__ = ["GatewayHTTPServer", "STATUS_CODES"]

#: gateway status -> HTTP status code.
STATUS_CODES = {
    "ok": 200,
    "partial": 206,
    "invalid": 400,
    "unauthenticated": 401,
    "rate_limited": 429,
    "quota_exceeded": 429,
    "overloaded": 503,
    "writes_disabled": 503,
    "deadline_exceeded": 504,
    "internal": 500,
}

_REASONS = {200: "OK", 206: "Partial Content", 400: "Bad Request",
            401: "Unauthorized", 404: "Not Found",
            405: "Method Not Allowed", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable",
            504: "Gateway Timeout"}

#: request bodies above this are refused outright (slow-loris cap).
MAX_BODY_BYTES = 8 * 1024 * 1024


class _UnreadableFraming(Exception):
    """Where the next request starts is unknown: answer 400, hang up."""


class GatewayHTTPServer:
    """Serve one :class:`~repro.gateway.Gateway` over HTTP/1.1."""

    def __init__(self, gateway: Gateway, *, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.gateway = gateway
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "GatewayHTTPServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.stop()
        return False

    # -- connection handling ------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _UnreadableFraming as exc:
                    await self._respond(writer, 400, {"error": str(exc)},
                                        {})
                    break
                if request is None:
                    break
                method, path, headers, body = request
                status, payload, extra = await self._route(
                    method, path, headers, body)
                await self._respond(writer, status, payload, extra)
                if headers.get("connection", "").lower() == "close":
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - teardown race
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        try:
            request_line = await reader.readline()
        except (ConnectionError, ValueError):
            return None
        if not request_line.strip():
            return None
        try:
            method, path, _version = \
                request_line.decode("latin-1").split(None, 2)
        except ValueError:
            return None
        headers: dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                # Over the stream limit: the line's tail is unread.
                raise _UnreadableFraming("header line too long") from None
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            raise _UnreadableFraming(f"Content-Length must be an integer "
                                     f"in 0..{MAX_BODY_BYTES}")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _route(self, method: str, path: str,
                     headers: dict[str, str], body: bytes):
        if method == "GET" and path == "/metrics":
            return 200, self.gateway.metrics_text(), {
                "content-type": "text/plain; version=0.0.4"}
        if method == "GET" and path == "/stats":
            return 200, self.gateway.stats(), {}
        if method != "POST":
            return ((405, {"error": f"{method} not allowed"}, {})
                    if path in ("/v1/search", "/v1/ingest",
                                "/v1/delete")
                    else (404, {"error": f"no route for {path}"}, {}))
        api_key = headers.get("x-api-key", "")
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": f"bad JSON body: {exc}"}, {}
        if not isinstance(payload, dict):
            return 400, {"error": f"bad JSON body: expected an object, "
                                  f"got {type(payload).__name__}"}, {}
        try:
            if path == "/v1/search":
                response = await self._search(api_key, headers,
                                              payload)
            elif path == "/v1/ingest":
                response = await self.gateway.ingest(
                    api_key,
                    SegmentArray.from_dict(payload["segments"]),
                    idempotency_key=headers.get("idempotency-key"),
                    request_id=str(payload.get("request_id", "")))
            elif path == "/v1/delete":
                response = await self.gateway.delete(
                    api_key, payload["traj_id"],
                    idempotency_key=headers.get("idempotency-key"),
                    request_id=str(payload.get("request_id", "")))
            else:
                return 404, {"error": f"no route for {path}"}, {}
        except (KeyError, TypeError, ValueError) as exc:
            return 400, {"error": f"bad request payload: "
                                  f"{type(exc).__name__}: {exc}"}, {}
        return self._encode(response)

    async def _search(self, api_key: str, headers: dict[str, str],
                      payload: dict) -> GatewayResponse:
        request = SearchRequest.from_dict(payload)
        return await self.gateway.search(
            api_key, request, priority=headers.get("x-priority"))

    @staticmethod
    def _encode(response: GatewayResponse):
        status = STATUS_CODES.get(response.status, 500)
        extra = {}
        if response.retry_after_s is not None:
            # Ceil to a whole second, the header's resolution; never 0
            # so a naive client cannot hot-loop.
            extra["retry-after"] = str(
                max(1, int(-(-response.retry_after_s // 1))))
        return status, response.to_dict(), extra

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter, status: int,
                       payload, extra: dict[str, str]) -> None:
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = extra.pop("content-type", "text/plain")
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = extra.pop("content-type",
                                     "application/json")
        reason = _REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(body)}"]
        head += [f"{k.title()}: {v}" for k, v in extra.items()]
        writer.write(("\r\n".join(head) + "\r\n\r\n")
                     .encode("latin-1") + body)
        await writer.drain()
