"""A hand-rolled asyncio HTTP/1.1 server with decorator routing.

The twin service must stay inside the repo's dependency budget
(``numpy`` + ``networkx``), so instead of FastAPI this is ~200 lines
on :func:`asyncio.start_server`: request parsing, ``{param}`` path
routing, JSON bodies, and chunked NDJSON streaming — exactly the
subset the twin's REST surface needs, and nothing else.

Handlers are ``async def handler(request) -> Response``.  Routes are
declared FastAPI-style::

    app = App("twin")

    @app.get("/sessions/{sid}/digest")
    async def digest(request):
        return Response({"digest": ...})

A :class:`Response` whose ``stream`` is an async iterator is sent with
``Transfer-Encoding: chunked``, one chunk per yielded item — that is
how ``/telemetry/stream`` pushes NDJSON snapshots for as long as the
client stays connected.
"""

from __future__ import annotations

import asyncio
import json
import re
import sys
import traceback
from typing import (Any, AsyncIterator, Awaitable, Callable, Dict, List,
                    Optional, Tuple)
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = ["App", "HttpError", "Request", "Response", "start_http_server"]

#: refuse request bodies larger than this (the twin's payloads are
#: small JSON documents; anything bigger is a client bug).
MAX_BODY_BYTES = 8 * 1024 * 1024
#: refuse requests with more header lines than this (431).
MAX_HEADER_LINES = 100
_LINE_LIMIT = 64 * 1024

_STATUS_TEXT = {
    200: "OK", 201: "Created", 204: "No Content",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    409: "Conflict", 413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


class HttpError(Exception):
    """A client-visible error; the server renders it as JSON."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class Request:
    """One parsed HTTP request."""

    def __init__(self, method: str, path: str, query: Dict[str, str],
                 headers: Dict[str, str], body: bytes):
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body
        #: ``{name}`` captures from the matched route pattern.
        self.params: Dict[str, str] = {}

    def json(self) -> Any:
        """Parse the body as JSON; empty bodies parse as ``{}``."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not JSON: {exc}")


class Response:
    """JSON by default; pass ``stream`` for chunked NDJSON."""

    def __init__(self, payload: Any = None, status: int = 200,
                 content_type: Optional[str] = None,
                 stream: Optional[AsyncIterator[Any]] = None,
                 body: Optional[bytes] = None):
        self.status = status
        self.stream = stream
        if stream is not None:
            self.content_type = content_type or "application/x-ndjson"
            self.body = b""
        elif body is not None:
            self.content_type = content_type or "text/plain; charset=utf-8"
            self.body = body
        else:
            self.content_type = content_type or "application/json"
            text = json.dumps(payload if payload is not None else {},
                              sort_keys=True)
            self.body = (text + "\n").encode("utf-8")


Handler = Callable[[Request], Awaitable[Response]]
_PARAM_RE = re.compile(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}")


def _compile(pattern: str) -> "re.Pattern[str]":
    parts: List[str] = []
    pos = 0
    for match in _PARAM_RE.finditer(pattern):
        parts.append(re.escape(pattern[pos:match.start()]))
        parts.append(f"(?P<{match.group(1)}>[^/]+)")
        pos = match.end()
    parts.append(re.escape(pattern[pos:]))
    return re.compile("^" + "".join(parts) + "$")


class App:
    """Route table plus the per-connection protocol loop."""

    def __init__(self, name: str = "app"):
        self.name = name
        self._routes: List[Tuple[str, "re.Pattern[str]", Handler]] = []

    # -- route declaration ----------------------------------------------
    def route(self, method: str, pattern: str):
        compiled = _compile(pattern)

        def decorate(handler: Handler) -> Handler:
            self._routes.append((method.upper(), compiled, handler))
            return handler
        return decorate

    def get(self, pattern: str):
        return self.route("GET", pattern)

    def post(self, pattern: str):
        return self.route("POST", pattern)

    def delete(self, pattern: str):
        return self.route("DELETE", pattern)

    # -- dispatch --------------------------------------------------------
    async def dispatch(self, request: Request) -> Response:
        allowed: List[str] = []
        for method, compiled, handler in self._routes:
            match = compiled.match(request.path)
            if match is None:
                continue
            if method != request.method:
                allowed.append(method)
                continue
            request.params = {k: unquote(v)
                              for k, v in match.groupdict().items()}
            try:
                return await handler(request)
            except HttpError as exc:
                return Response({"error": exc.message}, status=exc.status)
            except Exception:  # noqa: BLE001 — keep the server alive
                traceback.print_exc(file=sys.stderr)
                return Response({"error": "internal server error"},
                                status=500)
        if allowed:
            return Response(
                {"error": f"method {request.method} not allowed "
                          f"(try {sorted(set(allowed))})"}, status=405)
        return Response({"error": f"no route for {request.path}"},
                        status=404)

    # -- connection handling --------------------------------------------
    async def handle_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except HttpError as exc:
                    await _write_response(
                        writer,
                        Response({"error": exc.message}, status=exc.status),
                        keep_alive=False)
                    await _linger(reader, writer)
                    break
                if request is None:
                    break
                response = await self.dispatch(request)
                keep_alive = (
                    response.stream is None
                    and request.headers.get("connection", "").lower()
                    != "close")
                await _write_response(writer, response, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass
        except asyncio.CancelledError:
            # Loop teardown cancels in-flight connection tasks; ending
            # quietly here is the orderly-shutdown path.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                pass


async def _linger(reader: asyncio.StreamReader,
                  writer: asyncio.StreamWriter) -> None:
    """Half-close after an error response, then discard (boundedly)
    what the client already sent: closing with unread input makes the
    kernel reset the connection, which can destroy the response before
    the client reads it."""
    try:
        if writer.can_write_eof():
            writer.write_eof()
        drained = 0
        while drained <= MAX_BODY_BYTES:
            chunk = await asyncio.wait_for(reader.read(_LINE_LIMIT), 1.0)
            if not chunk:
                break
            drained += len(chunk)
    except (asyncio.TimeoutError, ConnectionError, OSError):
        pass


async def _readline(reader: asyncio.StreamReader, status: int,
                    what: str) -> bytes:
    """One CRLF-terminated line; a line past the stream limit is an
    :class:`HttpError` with *status*, not a dropped connection."""
    try:
        return await reader.readline()
    except ValueError:
        raise HttpError(status, f"{what} exceeds {_LINE_LIMIT} bytes")


async def _read_request(reader: asyncio.StreamReader
                        ) -> Optional[Request]:
    line = await _readline(reader, 400, "request line")
    if not line or line in (b"\r\n", b"\n"):
        return None
    try:
        method, target, _version = line.decode("latin-1").split(None, 2)
    except ValueError:
        raise HttpError(400, "malformed request line")
    headers: Dict[str, str] = {}
    count = 0
    while True:
        raw = await _readline(reader, 431, "header line")
        if raw in (b"\r\n", b"\n", b""):
            break
        if len(raw) > _LINE_LIMIT:
            raise HttpError(431, "header line too long")
        count += 1
        if count > MAX_HEADER_LINES:
            raise HttpError(
                431, f"more than {MAX_HEADER_LINES} header lines")
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    declared = headers.get("content-length", "") or "0"
    if not (declared.isascii() and declared.isdigit()):
        raise HttpError(
            400, f"Content-Length must be a non-negative integer, got "
                 f"{declared[:32]!r}")
    length = int(declared)
    if length > MAX_BODY_BYTES:
        raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return Request(method.upper(), unquote(split.path), query,
                   headers, body)


def _head(status: int, content_type: str, extra: str) -> bytes:
    text = _STATUS_TEXT.get(status, "Unknown")
    return (f"HTTP/1.1 {status} {text}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"{extra}\r\n").encode("latin-1")


async def _write_response(writer: asyncio.StreamWriter,
                          response: Response, keep_alive: bool) -> None:
    if response.stream is None:
        connection = "keep-alive" if keep_alive else "close"
        writer.write(_head(
            response.status, response.content_type,
            f"Content-Length: {len(response.body)}\r\n"
            f"Connection: {connection}\r\n"))
        writer.write(response.body)
        await writer.drain()
        return
    writer.write(_head(
        response.status, response.content_type,
        "Transfer-Encoding: chunked\r\nConnection: close\r\n"))
    await writer.drain()
    try:
        async for item in response.stream:
            if isinstance(item, bytes):
                chunk = item
            elif isinstance(item, str):
                chunk = item.encode("utf-8")
            else:
                chunk = (json.dumps(item, sort_keys=True) + "\n"
                         ).encode("utf-8")
            if not chunk:
                continue
            writer.write(f"{len(chunk):x}\r\n".encode("latin-1")
                         + chunk + b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()
    finally:
        aclose = getattr(response.stream, "aclose", None)
        if aclose is not None:
            try:
                await aclose()
            except Exception:  # noqa: BLE001 — already tearing down
                pass


async def start_http_server(app: App, host: str, port: int
                            ) -> "asyncio.base_events.Server":
    """Bind and return the listening server (``port=0`` picks a free
    port; read it back from ``server.sockets[0].getsockname()``)."""
    return await asyncio.start_server(
        app.handle_connection, host=host, port=port,
        limit=_LINE_LIMIT)
