"""A stdlib-only HTTP/1.1 front over :class:`~repro.service.core.QueryService`.

No web framework: requests are parsed off an :func:`asyncio.start_server`
stream, dispatched through :meth:`QueryService.handle` (the same structured
seam the tests exercise in-process), and answered as JSON with
``Connection: close``.  The route table is deliberately tiny:

=========  ==============  ==========================================
method     path            body / query string
=========  ==============  ==========================================
``GET``    ``/healthz``    —
``GET``    ``/stats``      —
``GET``    ``/metrics``    — (Prometheus text exposition, ``text/plain``)
``GET``    ``/slow``       — (the slow-query log, with trace ids)
``GET``    ``/tenants``    —
``POST``   ``/tenants``    ``{name, backend?, relations, engine?}``
``POST``   ``/query``      ``{tenant, query, timeout?, page_size?}``
``POST``   ``/explain``    ``{tenant, query, analyze?}``
``GET``    ``/page``       ``?tenant=..&stream_id=..&offset=..&page_size=..``
=========  ==============  ==========================================

Service error codes map onto HTTP statuses (429 for admission rejection,
504 for a blown deadline, …) so a plain HTTP client sees conventional
backpressure semantics without parsing the error document.  Every response
is JSON except ``/metrics``, which serves the raw Prometheus text format
scrapers expect.
"""

from __future__ import annotations

import asyncio
import json
from urllib.parse import parse_qsl, urlsplit

from repro.service.core import QueryService

#: service error code → HTTP status.
STATUS_BY_CODE = {
    "bad-request": 400,
    "invalid-query": 400,
    "unknown-tenant": 404,
    "unknown-stream": 404,
    "duplicate-tenant": 409,
    "admission-rejected": 429,
    "execution-failed": 500,
    "internal": 500,
    "service-unavailable": 503,
    "query-aborted": 503,
    "deadline-exceeded": 504,
}

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable",
            504: "Gateway Timeout"}

MAX_BODY_BYTES = 8 * 1024 * 1024


class HttpFrontend:
    """Serve a :class:`QueryService` over a loopback (or given) TCP port."""

    def __init__(self, service: QueryService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> "HttpFrontend":
        self._server = await asyncio.start_server(self._handle_client,
                                                  self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self, drain: bool = True, grace: float | None = None) -> None:
        """Stop accepting connections, then drain the service."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.shutdown(drain=drain, grace=grace)

    # ------------------------------------------------------------ internals
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            status, payload, content_type = await self._serve_one(reader)
        except Exception as exc:  # defense: a broken request never kills the loop
            status, payload, content_type = 400, json.dumps(
                {"ok": False, "error": {
                    "code": "bad-request",
                    "message": f"malformed request: {exc}"}}).encode(), \
                "application/json"
        reason = _REASONS.get(status, "OK")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n")
        try:
            writer.write(head.encode() + payload)
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _serve_one(
            self, reader: asyncio.StreamReader) -> tuple[int, bytes, str]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            return _json_reply(400, _error("bad-request", "empty request"))
        parts = request_line.split()
        if len(parts) != 3:
            return _json_reply(400, _error(
                "bad-request", f"malformed request line: {request_line!r}"))
        method, target, _version = parts
        headers = {}
        while True:
            line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > MAX_BODY_BYTES:
            return _json_reply(413, _error("bad-request",
                                           "request body too large"))
        body = await reader.readexactly(length) if length else b""

        request = self._route(method.upper(), target, body)
        if request is None:
            return _json_reply(405, _error(
                "bad-request", f"unsupported route {method} {target}"))
        if isinstance(request, tuple):  # pre-dispatch failure (bad JSON, …)
            return _json_reply(*request)
        response = await self.service.handle(request)
        if response.get("ok"):
            result = response.get("result")
            # Raw-text ops (the Prometheus scrape) bypass the JSON envelope:
            # scrapers expect the bare exposition format, not a JSON wrapper.
            if (isinstance(result, dict) and "content_type" in result
                    and "text" in result):
                return 200, result["text"].encode(), result["content_type"]
            return _json_reply(200, response)
        code = response.get("error", {}).get("code", "internal")
        return _json_reply(STATUS_BY_CODE.get(code, 500), response)

    def _route(self, method: str, target: str, body: bytes):
        """Translate (method, path, body) into a ``handle()`` request doc."""
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = dict(parse_qsl(url.query))
        if method == "GET" and path == "/healthz":
            return {"op": "healthz"}
        if method == "GET" and path == "/stats":
            return {"op": "stats"}
        if method == "GET" and path == "/metrics":
            return {"op": "metrics"}
        if method == "GET" and path == "/slow":
            return {"op": "slow"}
        if method == "GET" and path == "/tenants":
            return {"op": "tenants"}
        if method == "GET" and path == "/page":
            doc: dict = {"op": "page", **query}
            if "page_size" in doc:
                doc["page_size"] = int(doc["page_size"])
            return doc
        if method == "POST":
            try:
                payload = json.loads(body.decode() or "{}")
            except (ValueError, UnicodeDecodeError) as exc:
                return 400, _error("bad-request", f"invalid JSON body: {exc}")
            if not isinstance(payload, dict):
                return 400, _error("bad-request", "the body must be a JSON object")
            if path == "/tenants":
                return {"op": "create_tenant", **payload}
            if path == "/query":
                return {"op": "query", **payload}
            if path == "/explain":
                return {"op": "explain", **payload}
        return None


def _json_reply(status: int, document: dict) -> tuple[int, bytes, str]:
    return status, json.dumps(document).encode(), "application/json"


def _error(code: str, message: str) -> dict:
    return {"ok": False, "error": {"code": code, "message": message}}


async def serve(service: QueryService, host: str = "127.0.0.1",
                port: int = 0) -> HttpFrontend:
    """Start a frontend and return it (``frontend.port`` is the bound port)."""
    return await HttpFrontend(service, host, port).start()
