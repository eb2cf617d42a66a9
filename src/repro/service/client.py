"""Blocking client library for the analysis server.

:class:`ServiceClient` speaks the NDJSON protocol over a TCP or UNIX
socket.  It supports **pipelining**: :meth:`request_many` writes every
request before reading any response, correlates out-of-order responses
by ``id``, and returns them in request order — the shape the
single-flight and admission tests (and the CI service job) rely on.

:func:`offline_response` executes the same canonical request inline,
with no server at all, through the identical worker entry point
(:func:`repro.service.jobs.execute_request`).  Since response bodies
are deterministic, ``offline_response(...).render()`` is byte-identical
to what a server returns for the same request — the acceptance check
wired into ``macs-repro request --offline`` and the CI comparison.
"""

from __future__ import annotations

import os
import socket
import weakref

from ..errors import ExperimentError
from .protocol import (
    Response,
    canonicalize,
    decode_line,
    encode_line,
)


def parse_endpoint(endpoint: str) -> tuple[str, object]:
    """Parse ``unix:/path`` or ``tcp:host:port`` (or ``host:port``)."""
    if endpoint.startswith("unix:"):
        return "unix", endpoint[len("unix:"):]
    text = endpoint[len("tcp:"):] if endpoint.startswith("tcp:") \
        else endpoint
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ExperimentError(
            f"bad endpoint {endpoint!r}; expected unix:/path or "
            "tcp:host:port"
        )
    try:
        return "tcp", (host, int(port))
    except ValueError:
        raise ExperimentError(
            f"bad endpoint port in {endpoint!r}"
        ) from None


#: Connected clients in this process, so the fork hook below can close
#: their sockets in forked children.
_LIVE_CLIENTS: "weakref.WeakSet[ServiceClient]" = weakref.WeakSet()


def _close_client_sockets_in_children() -> None:
    """Forked processes must not hold a copy of a client connection.

    A child keeping the connection's file description open would make
    the client's ``close()`` invisible to the server (no EOF is
    delivered while any copy survives).  This matters in-process: the
    service's own worker pool forks from a process that may also host
    test/benchmark clients.  Closing the *child's* socket object only
    closes the child's descriptor; the parent connection is untouched.
    """
    for client in list(_LIVE_CLIENTS):
        sock = client._sock
        if sock is None:
            continue
        try:
            # close() would defer while the makefile() reader holds an
            # io-ref; detach + close releases the descriptor for real.
            fd = sock.detach()
            if fd >= 0:
                os.close(fd)
        except OSError:
            pass


os.register_at_fork(after_in_child=_close_client_sockets_in_children)


class ServiceClient:
    """A blocking NDJSON client for one server connection."""

    def __init__(self, endpoint: str, timeout: float = 30.0):
        self.endpoint = endpoint
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._rfile = None
        self._next_id = 0

    # -- connection ----------------------------------------------------

    def connect(self) -> "ServiceClient":
        family, address = parse_endpoint(self.endpoint)
        try:
            if family == "unix":
                sock = socket.socket(socket.AF_UNIX,
                                     socket.SOCK_STREAM)
            else:
                sock = socket.socket(socket.AF_INET,
                                     socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(address)
        except OSError as exc:
            raise ExperimentError(
                f"cannot connect to {self.endpoint}: {exc}"
            ) from exc
        self._sock = sock
        self._rfile = sock.makefile("rb")
        _LIVE_CLIENTS.add(self)
        return self

    def close(self) -> None:
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        if self._sock is None:
            self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the wire ------------------------------------------------------

    def _frame(self, kind: str, params: dict | None,
               deadline_s: float | None,
               request_id: str | int | None) -> dict:
        if request_id is None:
            self._next_id += 1
            request_id = f"c{self._next_id}"
        frame: dict = {"id": request_id, "kind": kind}
        if params is not None:
            frame["params"] = params
        if deadline_s is not None:
            frame["deadline_s"] = deadline_s
        return frame

    def _send(self, frame: dict) -> None:
        if self._sock is None:
            self.connect()
        try:
            self._sock.sendall(encode_line(frame))
        except OSError as exc:
            raise ExperimentError(
                f"send to {self.endpoint} failed: {exc}"
            ) from exc

    def _read_response(self) -> Response:
        try:
            line = self._rfile.readline()
        except OSError as exc:
            raise ExperimentError(
                f"read from {self.endpoint} failed: {exc}"
            ) from exc
        if not line:
            raise ExperimentError(
                f"server at {self.endpoint} closed the connection"
            )
        return Response.from_dict(decode_line(line))

    # -- API -----------------------------------------------------------

    def request(self, kind: str, params: dict | None = None, *,
                deadline_s: float | None = None,
                request_id: str | int | None = None) -> Response:
        """Send one request and wait for its response."""
        frame = self._frame(kind, params, deadline_s, request_id)
        self._send(frame)
        while True:
            response = self._read_response()
            if response.id == frame["id"]:
                return response

    def request_many(self, frames: list[tuple]) -> list[Response]:
        """Pipeline many requests on this connection.

        ``frames`` is a list of ``(kind, params)`` tuples.  Every
        request is written before any response is read; responses are
        matched back by ``id`` and returned in request order.
        """
        sent = [self._frame(kind, params, None, None)
                for kind, params in frames]
        for frame in sent:
            self._send(frame)
        by_id: dict[str | int, Response] = {}
        want = {frame["id"] for frame in sent}
        while want:
            response = self._read_response()
            if response.id in want:
                by_id[response.id] = response
                want.discard(response.id)
        return [by_id[frame["id"]] for frame in sent]

    # -- control conveniences ------------------------------------------

    def advise(self, kernel: str, **params) -> Response:
        """The MACS bounds, ``t_p`` and ranked advice for ``kernel``.

        ``t_p`` is the simulated run a ``run`` request with the same
        params returns.  Accepts the same params as ``run``/``bound``
        (``variant``/``options``, ``n``, ``max_cycles``).
        """
        return self.request("advise", {"kernel": kernel, **params})

    def ping(self) -> bool:
        return self.request("ping").ok

    def healthz(self) -> dict:
        return self.request("healthz").body

    def metrics(self) -> dict:
        return self.request("metrics").body

    def drain(self) -> Response:
        return self.request("drain")


def offline_response(kind: str, params: dict | None = None) -> Response:
    """Execute a request inline, serverless, same body bytes.

    Canonicalizes through the same :func:`canonicalize` and computes
    through the same worker entry point as the server, so the returned
    :class:`Response` body (and :meth:`Response.render` text) is
    byte-identical to the server's for the same request.
    """
    from .jobs import execute_request

    request = canonicalize(kind, params)
    payload = execute_request(request.payload)
    if payload["status"] == "ok":
        return Response(
            id="offline", status="ok", kind=request.kind,
            key=request.key, origin="offline",
            body=payload["body"],
        )
    return Response(
        id="offline", status="error", kind=request.kind,
        key=request.key, origin="offline",
        error=dict(payload["error"]),
    )
