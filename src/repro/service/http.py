"""A stdlib-only JSON/HTTP surface for the campaign service.

:class:`ServiceEndpoint` serves a small HTTP/1.1 API over
``asyncio.start_server`` — no web framework, no new runtime
dependencies — delegating every operation to an in-process
:class:`~repro.service.service.CampaignService`:

=======  =================================  =================================
Method   Path                               Meaning
=======  =================================  =================================
GET      ``/v1/healthz``                    health: load, counters
POST     ``/v1/campaigns``                  submit (body: CampaignSpec JSON;
                                            ``X-Repro-Deadline`` header sets
                                            ``deadline_s`` when the body
                                            doesn't)
GET      ``/v1/campaigns``                  list all campaigns
GET      ``/v1/campaigns/{id}``             status (incl. SLO + tenant state)
GET      ``/v1/campaigns/{id}/result``      finished campaign's outcome
POST     ``/v1/campaigns/{id}/cancel``      cancel at next attempt boundary
POST     ``/v1/campaigns/{id}/deadline``    extend the processing budget
                                            (body: ``{"extra_s": N}``)
GET      ``/v1/campaigns/{id}/journal``     journal lines
                                            (``?offset=N&follow=0|1``)
POST     ``/v1/tenants/{name}/quota``       grant quota
                                            (body: ``{"extra_steps": N}``)
=======  =================================  =================================

Journal streaming with ``follow=1`` uses chunked transfer encoding and
tails the campaign's journal until it settles; journals grow only at
attempt boundaries, so followers always see whole attempts.

Error mapping is explicit: every
:class:`~repro.service.service.ServiceError` subclass carries its own
``http_status`` (404 for unknown ids, 429/503 for shed submissions —
with a ``Retry-After`` header — 409 otherwise), and a submission whose
spec fails :meth:`~repro.service.service.CampaignSpec.validate` is a
400; nothing is inferred from message text.  The ``http-response``
fault site fires just before a success response is written, so chaos
runs exercise the acted-but-never-acknowledged window idempotent
retries must cover.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.resilience.fault_injection import attempt_scope, inject
from repro.service.service import CampaignService, CampaignSpec, ServiceError

__all__ = ["ServiceEndpoint"]

_MAX_BODY = 1 << 20


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _response(
    status: int,
    payload: Dict[str, Any],
    headers: Optional[Dict[str, str]] = None,
) -> bytes:
    body = (json.dumps(payload) + "\n").encode()
    extra = "".join(
        f"{name}: {value}\r\n" for name, value in (headers or {}).items()
    )
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        "Connection: close\r\n\r\n"
    )
    return head.encode() + body


class ServiceEndpoint:
    """Serve one :class:`CampaignService` over HTTP.

    Args:
        service: The (already started) in-process service.
        host: Bind address (default loopback).
        port: Bind port; ``0`` picks a free one — read :attr:`port`
            after :meth:`start`.
    """

    def __init__(
        self,
        service: CampaignService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        #: Responses written so far: the ambient fault-injection attempt
        #: for the ``http-response`` site, so rate faults re-roll per
        #: response instead of firing forever on one request shape.
        self._response_seq = 0

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    # -- request handling ----------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, target, body, headers = await self._read_request(
                    reader
                )
                await self._dispatch(method, target, body, headers, writer)
            except _HttpError as exc:
                writer.write(
                    _response(exc.status, {"error": exc.message})
                )
            except ServiceError as exc:
                headers = None
                retry_after = getattr(exc, "retry_after", None)
                if retry_after is not None:
                    headers = {
                        "Retry-After": str(max(1, math.ceil(retry_after)))
                    }
                writer.write(
                    _response(
                        getattr(exc, "http_status", 409),
                        {"error": str(exc)},
                        headers=headers,
                    )
                )
            except Exception as exc:  # noqa: BLE001 - must answer the client
                writer.write(
                    _response(500, {"error": f"{type(exc).__name__}: {exc}"})
                )
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> Tuple[
        str, str, Optional[Dict[str, Any]], Dict[str, str]
    ]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {request_line!r}")
        method, target = parts[0].upper(), parts[1]
        content_length = 0
        headers: Dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _HttpError(400, "bad Content-Length") from None
        if content_length > _MAX_BODY:
            raise _HttpError(400, "request body too large")
        body = None
        if content_length:
            raw = await reader.readexactly(content_length)
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise _HttpError(400, f"body is not valid JSON: {exc}")
        return method, target, body, headers

    def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        path: str,
    ) -> None:
        """Write one success response through the ``http-response``
        fault site (a crash there answers 500 via the generic handler;
        a kill dies with the work already committed — the window
        idempotent client retries exist for)."""
        self._response_seq += 1
        with attempt_scope(self._response_seq, allow_kill=True):
            inject("http-response", key=path)
        writer.write(_response(status, payload))

    async def _dispatch(
        self,
        method: str,
        target: str,
        body: Optional[Dict[str, Any]],
        headers: Dict[str, str],
        writer: asyncio.StreamWriter,
    ) -> None:
        url = urlsplit(target)
        segments = [s for s in url.path.split("/") if s]
        query = parse_qs(url.query)
        service = self.service
        path = url.path

        if segments == ["v1", "healthz"] and method == "GET":
            self._send(writer, 200, dict(service.healthz(), ok=True), path)
            return
        if segments == ["v1", "campaigns"]:
            if method == "POST":
                if not isinstance(body, dict) or "model" not in body:
                    raise _HttpError(
                        400, "body must be a CampaignSpec with 'model'"
                    )
                try:
                    spec = CampaignSpec.from_dict(body)
                except TypeError as exc:
                    raise _HttpError(400, f"bad spec: {exc}") from None
                deadline_header = headers.get("x-repro-deadline")
                if deadline_header is not None and spec.deadline_s is None:
                    try:
                        spec.deadline_s = float(deadline_header)
                    except ValueError:
                        raise _HttpError(
                            400,
                            f"bad X-Repro-Deadline {deadline_header!r}",
                        ) from None
                try:
                    campaign_id = await service.submit(spec)
                except ValueError as exc:
                    raise _HttpError(400, f"bad spec: {exc}") from None
                self._send(writer, 200, {"campaign_id": campaign_id}, path)
                return
            if method == "GET":
                self._send(
                    writer,
                    200,
                    {"campaigns": service.list_campaigns()},
                    path,
                )
                return
            raise _HttpError(405, f"{method} not allowed here")
        if len(segments) == 3 and segments[:2] == ["v1", "campaigns"]:
            campaign_id = segments[2]
            if method == "GET":
                self._send(writer, 200, service.status(campaign_id), path)
                return
            raise _HttpError(405, f"{method} not allowed here")
        if len(segments) == 4 and segments[:2] == ["v1", "campaigns"]:
            campaign_id, action = segments[2], segments[3]
            if action == "cancel" and method == "POST":
                self._send(
                    writer, 200, await service.cancel(campaign_id), path
                )
                return
            if action == "deadline" and method == "POST":
                try:
                    extra = float((body or {}).get("extra_s", 0))
                except (TypeError, ValueError):
                    raise _HttpError(400, "extra_s must be a number") from None
                self._send(
                    writer,
                    200,
                    service.extend_deadline(campaign_id, extra),
                    path,
                )
                return
            if action == "result" and method == "GET":
                self._send(writer, 200, service.result(campaign_id), path)
                return
            if action == "frontier" and method == "GET":
                self._send(writer, 200, service.frontier(campaign_id), path)
                return
            if action == "journal" and method == "GET":
                offset = int(query.get("offset", ["0"])[0])
                follow = query.get("follow", ["0"])[0] in ("1", "true")
                await self._stream_journal(
                    writer, campaign_id, offset, follow
                )
                return
            raise _HttpError(404, f"unknown action {action!r}")
        if (
            len(segments) == 4
            and segments[:2] == ["v1", "tenants"]
            and segments[3] == "quota"
            and method == "POST"
        ):
            extra = int((body or {}).get("extra_steps", 0))
            self._send(
                writer, 200, service.grant_quota(segments[2], extra), path
            )
            return
        raise _HttpError(404, f"no route for {method} {url.path}")

    async def _stream_journal(
        self,
        writer: asyncio.StreamWriter,
        campaign_id: str,
        offset: int,
        follow: bool,
    ) -> None:
        service = self.service
        service.journal_path(campaign_id)  # raises 404 for unknown ids
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        async for line in service.stream_journal(
            campaign_id, offset=offset, follow=follow
        ):
            chunk = (line + "\n").encode()
            writer.write(f"{len(chunk):x}\r\n".encode() + chunk + b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
