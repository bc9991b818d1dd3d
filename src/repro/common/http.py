"""The one JSON-over-HTTP layer under the coordinator and the gateway.

Both surfaces (:mod:`repro.service.rest`, :mod:`repro.gateway.server`)
speak the same dialect: JSON bodies, ``{"error": message}`` on every
failure, and clients raising typed :mod:`repro` exceptions, never raw
``urllib`` or socket ones.  :class:`JsonHandler` is the server half (a
surface subclasses it and keeps only its routes), :class:`JsonClient` the
client half (a client subclasses it and keeps only its protocol methods).
:func:`decode_object` and :func:`number` decode outside bytes and mistyped
fields for both halves and the gateway's TCP ingest; they raise
:class:`BadRequest`, which every surface answers with 400.
"""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler
from typing import Any, Callable, Dict, Mapping, NoReturn, Optional, Tuple, Type

from repro import faults
from repro.common.exceptions import ReproError
from repro.common.retry import RetryPolicy
from repro.obs.logs import get_logger

__all__ = ["BadRequest", "JsonClient", "JsonHandler", "decode_object", "number"]

_LOG = get_logger("http")


class BadRequest(ValueError):
    """Outside input the server cannot decode; always answered with 400."""


def decode_object(raw: bytes) -> Dict[str, Any]:
    """One UTF-8 JSON object; anything else (invalid UTF-8 or JSON, nesting
    too deep for the parser, a non-object value) raises BadRequest."""
    try:
        value = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        raise BadRequest(str(error)) from None
    if not isinstance(value, dict):
        raise BadRequest("request body must be a JSON object")
    return value


def number(
    mapping: Mapping[str, Any], key: str, kind: Callable = float, default: Any = None
) -> Any:
    """``kind(mapping[key])``, or *default* when the field is absent or null.

    A value *kind* cannot convert (``"abc"``, a list, an integer too large
    for a float) raises BadRequest naming the field: a 400, never a 500.
    """
    value = mapping.get(key)
    if value is None:
        return default
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise BadRequest(f"{key!r} must be a number, got {value!r}") from None


class JsonHandler(BaseHTTPRequestHandler):
    """Server half: replies, bounded body reading, dispatch, error mapping.

    A subclass overrides :meth:`get` and :meth:`post`, routing on
    ``self.path``.  An exception a route raises is answered from
    :attr:`errors` (first match wins); BadRequest is a 400 everywhere and
    anything unmatched is logged and answered with 500.
    """

    protocol_version = "HTTP/1.1"

    #: Largest accepted request body, in bytes.
    max_body_bytes = 1024 * 1024

    #: ``(exception type, status)`` pairs for errors a route raises.
    errors: Tuple[Tuple[Type[BaseException], int], ...] = ()

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence per-request stderr chatter; each surface serves
        ``/metrics`` and keeps its own event log."""

    def handle(self) -> None:
        try:
            super().handle()
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client went away mid-reply (SSE consumers routinely do)

    def reply(self, status: int, payload: Dict[str, Any]) -> None:
        self.reply_text(status, json.dumps(payload), "application/json")

    def reply_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def reply_error(self, status: int, message: str) -> None:
        self.reply(status, {"error": message})

    def not_found(self) -> None:
        self.reply_error(404, f"no such resource: {self.path}")

    def get(self) -> None:
        """Serve a GET; subclasses route on ``self.path``."""
        self.not_found()

    def post(self, payload: Dict[str, Any]) -> None:
        """Serve a POST whose body decoded to the JSON object *payload*."""
        self.not_found()

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self.get)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(lambda: self.post(self._read_body()))

    def _dispatch(self, route: Callable[[], None]) -> None:
        try:
            route()
        except (BrokenPipeError, ConnectionResetError):
            raise  # nobody is left to answer; handle() lets the thread go
        except BadRequest as error:
            self.reply_error(400, str(error))
        except Exception as error:
            for kind, status in self.errors:
                if isinstance(error, kind):
                    self.reply_error(status, str(error))
                    return
            _LOG.error("unhandled error serving %s %s", self.command, self.path, exc_info=True)
            self.reply_error(500, f"{type(error).__name__}: {error}")

    def _read_body(self) -> Dict[str, Any]:
        """The request's JSON object body; ``{}`` when it has none.

        A body not read whole would leave bytes on the connection to be
        parsed as the next request, so those rejections also close it.
        """
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            self._reject_body(f"bad Content-Length {declared!r}")
        length = int(declared)
        if length > self.max_body_bytes:
            self._reject_body(f"request body exceeds {self.max_body_bytes} bytes")
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        if len(raw) < length:
            self._reject_body(f"got {len(raw)} of {length} bytes")
        try:
            return decode_object(raw)
        except BadRequest as error:
            raise BadRequest(f"malformed request body: {error}") from None

    def _reject_body(self, reason: str) -> NoReturn:
        self.close_connection = True
        raise BadRequest(f"malformed request body: {reason}")


class JsonClient:
    """Client half: base URL, timeout, retries, fault seam, typed errors.

    ``retry`` is an optional :class:`~repro.common.retry.RetryPolicy`
    applied to idempotent requests on :attr:`unavailable`; ``None`` (the
    default) fails fast.  A subclass declares how failures surface:
    :attr:`unavailable` when the server cannot be reached (refused, DNS,
    timeout, injected fault), :attr:`statuses` for specific error statuses
    and :attr:`rejected` for any other.
    """

    #: Op ``x`` fires the fault site ``<fault_prefix>.x``.
    fault_prefix = "http.client"
    #: How messages name the server.
    peer = "server"
    unavailable: Type[ReproError] = ReproError
    rejected: Type[ReproError] = ReproError
    statuses: Mapping[int, Type[ReproError]] = {}

    def __init__(
        self, base_url: str, timeout: float = 30.0, retry: Optional[RetryPolicy] = None
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        self.retry = retry

    def metrics_text(self) -> str:
        """The server's ``/metrics`` document (Prometheus text)."""
        return self._request("GET", "/metrics", op="metrics")

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        op: str = "request",
        idempotent: bool = True,
    ) -> Any:
        """One request; a JSON reply comes back decoded, any other as text.

        Only *idempotent* requests are retried: a lost reply to anything
        else leaves state the client does not know it holds.
        """
        if self.retry is None or not idempotent:
            return self._send(method, path, payload, op)
        return self.retry.call(
            lambda: self._send(method, path, payload, op),
            retry_on=(self.unavailable,),
            description=f"{method} {path}",
        )

    def _send(self, method: str, path: str, payload: Optional[Dict[str, Any]], op: str) -> Any:
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Accept": "application/json"}
        if data is not None:
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=data, headers=headers, method=method
        )
        try:
            # Fault seam: chaos plans refuse/delay/duplicate calls here,
            # upstream of the real transport.  An injected refusal is a
            # ConnectionError and takes the real failures' path; a
            # duplicate re-sends the (idempotent) request, and its answer
            # must match what a single send produced.
            directive = faults.fire(f"{self.fault_prefix}.{op}", path=path)
            for _ in range(2 if directive == "duplicate" else 1):
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    body = response.read().decode("utf-8")
                    is_json = response.headers.get_content_type() == "application/json"
            return json.loads(body) if is_json else body
        except urllib.error.HTTPError as error:
            # The server answered: surface its message, not urllib internals.
            try:
                detail = json.loads(error.read().decode("utf-8")).get("error")
            except (OSError, ValueError, AttributeError, http.client.HTTPException):
                detail = None
            message = detail or f"{self.peer} returned HTTP {error.code} for {method} {path}"
            raise self.statuses.get(error.code, self.rejected)(message) from None
        except (OSError, http.client.HTTPException) as error:
            reason = getattr(error, "reason", error)
            raise self.unavailable(
                f"cannot reach {self.peer} at {self.base_url}: {reason}"
            ) from None
