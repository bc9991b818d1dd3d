"""The gateway server: newline-JSON ingest, HTTP operations surface, flusher.

Three cooperating pieces around one :class:`~repro.gateway.pool.MonitorPool`:

* a **TCP ingest listener** speaking newline-delimited JSON — one
  connection per stream, ``open`` / ``sample`` / ``sync`` / ``close`` ops;
  a connection that vanishes mid-stream drops its stream and frees the
  pool slot;
* an **HTTP operations surface** on :class:`~repro.common.http.JsonHandler`
  — health/readiness probes, Prometheus ``/metrics``, per-stream queries
  (status, alarms, report) and an SSE alarm-event feed, plus an HTTP
  sample path for clients that prefer POSTs over sockets;
* a **flusher thread** driving cross-stream batched scoring every
  ``flush_interval_seconds`` and reaping idle streams.

Routes::

    GET  /health                      liveness + ingest address + version
    GET  /ready                       200, or 503 while the pool is full
    GET  /metrics                     Prometheus text exposition
    GET  /streams                     open stream ids
    GET  /streams/<id>                stream status
    GET  /streams/<id>/alarms         per-view alarm transitions
    GET  /streams/<id>/report         LiveRunReport mapping (flushes first)
    GET  /streams/<id>/events         SSE feed of alarm transitions
    POST /streams     {"stream_id"}   open a stream
    POST /streams/<id>/samples        feed samples (batched accepted)
    POST /streams/<id>/close          close; returns the final report

Ingest wire format (one JSON object per line, UTF-8)::

    {"op": "open", "stream": "plant-7", "anomaly_start_hour": 10.0}
    {"op": "sample", "controller": [...], "process": [...], "time_hours": 0.0005}
    {"op": "sync"}
    {"op": "close"}

``open`` / ``sync`` / ``close`` are acknowledged with one JSON reply line;
an accepted ``sample`` is not (feeding stays one-way for throughput —
backpressure comes from the bounded per-stream buffer, whose inline flush
runs on the ingest connection's thread and therefore slows exactly the
client that overruns it).  A *rejected* ``sample`` — wrong vector length,
missing field, non-numeric value — gets one error reply and ends the
connection; the bad sample buffers nothing and no other stream is
affected.

Security note: the gateway is **unauthenticated** and meant for loopback
or a trusted LAN only — bind it accordingly (the default
:class:`~repro.common.config.GatewayConfig` listens on ``127.0.0.1``).
"""

from __future__ import annotations

import json
import re
import socketserver
import threading
import time
from http.server import ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro._version import __version__
from repro.common.exceptions import (
    GatewayError,
    SampleRejectedError,
    StreamRejectedError,
    UnknownStreamError,
)
from repro.common.http import BadRequest, JsonHandler, decode_object, number
from repro.gateway.pool import STREAM_ID, MonitorPool
from repro.obs.logs import get_logger

__all__ = ["GatewayServer"]

_LOG = get_logger("gateway")

#: Largest accepted HTTP request body (a batched sample POST).
_MAX_BODY_BYTES = 8 * 1024 * 1024

#: Largest accepted ingest line; one sample is a few KB of JSON.
_MAX_LINE_BYTES = 1024 * 1024

_STREAM = re.compile(rf"^/streams/({STREAM_ID.pattern})$")
_STREAM_SUB = re.compile(
    rf"^/streams/({STREAM_ID.pattern})/(alarms|report|events|samples|close)$"
)


class _OpsHandler(JsonHandler):
    """Routes operations requests onto the server's pool."""

    # Bound by GatewayServer when the handler class is created.
    gateway: "GatewayServer"

    max_body_bytes = _MAX_BODY_BYTES
    errors = ((StreamRejectedError, 409), (UnknownStreamError, 404), (GatewayError, 400))

    def get(self) -> None:
        pool = self.gateway.pool
        if self.path == "/health":
            ingest_host, ingest_port = self.gateway.ingest_address
            self.reply(
                200,
                {
                    "status": "ok",
                    "version": __version__,
                    "streams_active": pool.n_streams,
                    "max_streams": pool.config.max_streams,
                    "ingest_host": ingest_host,
                    "ingest_port": ingest_port,
                },
            )
            return
        if self.path == "/ready":
            if pool.is_full:
                self.reply_error(503, "stream pool is full")
            else:
                self.reply(200, {"ready": True})
            return
        if self.path == "/metrics":
            self.reply_text(
                200, pool.metrics.render(), "text/plain; version=0.0.4"
            )
            return
        if self.path == "/streams":
            self.reply(200, {"streams": pool.stream_ids()})
            return
        match = _STREAM.match(self.path)
        if match:
            self.reply(200, pool.status(match.group(1)).to_mapping())
            return
        match = _STREAM_SUB.match(self.path)
        if match:
            stream_id, resource = match.groups()
            if resource == "alarms":
                self.reply(200, {"alarms": pool.alarms(stream_id)})
            elif resource == "report":
                self.reply(200, {"report": pool.report(stream_id)})
            elif resource == "events":
                self._serve_events(stream_id)
            else:
                self.reply_error(405, f"{resource} requires POST")
            return
        self.not_found()

    def _serve_events(self, stream_id: str) -> None:
        """SSE feed of a stream's alarm transitions.

        Consumers poll through a per-connection cursor, so a slow consumer
        buffers nothing on the server: events live once in the alarm
        managers, and each connection just reads forward at its own pace.
        A keepalive comment goes out every poll so a vanished consumer is
        noticed promptly (the write fails) instead of leaking its thread.
        """
        pool = self.gateway.pool
        pool.status(stream_id)  # 404 before headers when unknown
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        cursor = 0
        interval = self.gateway.pool.config.flush_interval_seconds
        while not self.gateway.closing:
            try:
                events, cursor = pool.alarm_feed(stream_id, cursor)
            except UnknownStreamError:
                self.wfile.write(b"event: end\ndata: {}\n\n")
                self.wfile.flush()
                return
            for event in events:
                payload = json.dumps(event)
                self.wfile.write(f"event: alarm\ndata: {payload}\n\n".encode())
            self.wfile.write(b": keepalive\n\n")
            self.wfile.flush()
            time.sleep(interval)

    def post(self, payload: Dict[str, Any]) -> None:
        pool = self.gateway.pool
        if self.path == "/streams":
            stream_id = str(payload.get("stream_id") or "")
            pool.open_stream(stream_id, number(payload, "anomaly_start_hour"))
            self.reply(200, {"stream_id": stream_id, "open": True})
            return
        match = _STREAM_SUB.match(self.path)
        if match:
            stream_id, resource = match.groups()
            if resource == "samples":
                samples = payload.get("samples")
                if not isinstance(samples, list):
                    raise BadRequest("body needs a 'samples' list")
                # Vet the whole batch before feeding any of it, so a bad
                # entry yields a 400 naming its index with zero samples
                # buffered — never a 500 after a partial accept.
                parsed = []
                for index, sample in enumerate(samples):
                    if not isinstance(sample, dict):
                        raise BadRequest(f"sample {index} must be an object")
                    try:
                        entry = (sample["controller"], sample["process"], sample["time_hours"])
                        pool.validate_sample(*entry)
                    except (SampleRejectedError, KeyError) as error:
                        raise BadRequest(f"sample {index} rejected: {error}") from None
                    parsed.append(entry)
                for controller, process, time_hours in parsed:
                    pool.feed(stream_id, controller, process, time_hours)
                self.reply(200, {"accepted": len(parsed)})
            elif resource == "close":
                self.reply(200, {"report": pool.close_stream(stream_id)})
            else:
                self.reply_error(405, f"{resource} requires GET")
            return
        self.not_found()


class _IngestHandler(socketserver.StreamRequestHandler):
    """One newline-JSON ingest connection == one plant stream.

    The handler runs on its own thread (ThreadingTCPServer); a full
    per-stream buffer flushes inline on this thread, so TCP's own flow
    control pushes back on exactly the client that overruns the gateway.
    """

    # Bound by GatewayServer when the handler class is created.
    gateway: "GatewayServer"

    def handle(self) -> None:
        pool = self.gateway.pool
        stream_id: Optional[str] = None
        try:
            while True:
                # A bounded readline so an endless newline-free line is
                # rejected after ~1 MB instead of buffered whole: readline
                # with a limit returns at most limit bytes, newline or not.
                raw = self.rfile.readline(_MAX_LINE_BYTES + 1)
                if not raw:
                    break
                if len(raw) > _MAX_LINE_BYTES:
                    self._send({"ok": False, "error": "line too long"})
                    return
                line = raw.strip()
                if not line:
                    continue
                try:
                    message = decode_object(line)
                except BadRequest:
                    self._send({"ok": False, "error": "malformed JSON line"})
                    return
                op = message.get("op")
                if op == "open":
                    if stream_id is not None:
                        self._send(
                            {"ok": False, "error": "stream already open here"}
                        )
                        return
                    candidate = str(message.get("stream") or "")
                    try:
                        pool.open_stream(
                            candidate, number(message, "anomaly_start_hour")
                        )
                    except (GatewayError, BadRequest) as error:
                        self._send({"ok": False, "error": str(error)})
                        return
                    stream_id = candidate
                    _LOG.info("stream opened", extra={"stream": stream_id})
                    self._send({"ok": True, "stream": stream_id})
                elif op == "sample":
                    if stream_id is None:
                        self._send({"ok": False, "error": "open a stream first"})
                        return
                    try:
                        pool.feed(
                            stream_id,
                            message["controller"],
                            message["process"],
                            message["time_hours"],
                        )
                    except (SampleRejectedError, KeyError) as error:
                        # Reject this stream's bad sample and end only this
                        # connection; other streams are untouched.
                        self._send(
                            {"ok": False, "error": f"rejected sample: {error}"}
                        )
                        return
                elif op == "sync":
                    if stream_id is None:
                        self._send({"ok": False, "error": "open a stream first"})
                        return
                    scored = pool.flush_stream(stream_id)
                    self._send({"ok": True, "scored": scored})
                elif op == "close":
                    if stream_id is None:
                        self._send({"ok": False, "error": "open a stream first"})
                        return
                    report = pool.close_stream(stream_id)
                    stream_id = None
                    self._send({"ok": True, "report": report})
                    return
                else:
                    self._send({"ok": False, "error": f"unknown op {op!r}"})
                    return
        except (BrokenPipeError, ConnectionResetError, UnknownStreamError):
            pass  # disconnect or reaped underneath us: fall through to drop
        finally:
            if stream_id is not None:
                # The client vanished without closing: free the slot and
                # discard its unscored samples — nothing leaks to the next
                # stream admitted into the pool.
                pool.drop_stream(stream_id)
                _LOG.info(
                    "stream dropped on disconnect",
                    extra={"stream": stream_id},
                )

    def _send(self, payload: Dict[str, Any]) -> None:
        self.wfile.write(json.dumps(payload).encode("utf-8") + b"\n")
        self.wfile.flush()


class _IngestServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class GatewayServer:
    """The assembled gateway: pool + ingest + operations + flusher.

    Usable blocking (:meth:`serve_forever`, the ``--serve`` CLI mode) or in
    the background (:meth:`start` / :meth:`shutdown`, tests and the smoke
    harness).  Binding port ``0`` lets the OS pick free ports — :attr:`url`
    and :attr:`ingest_address` report the actual ones.
    """

    def __init__(self, pool: MonitorPool):
        self.pool = pool
        config = pool.config
        ops_handler = type("BoundOpsHandler", (_OpsHandler,), {"gateway": self})
        ingest_handler = type(
            "BoundIngestHandler", (_IngestHandler,), {"gateway": self}
        )
        self._ops = ThreadingHTTPServer((config.host, config.port), ops_handler)
        self._ops.daemon_threads = True
        self._ingest = _IngestServer(
            (config.host, config.ingest_port), ingest_handler
        )
        self.closing = False
        self._threads: Tuple[threading.Thread, ...] = ()
        self._stop_flusher = threading.Event()

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The (host, port) the operations surface actually bound."""
        return self._ops.server_address[0], self._ops.server_address[1]

    @property
    def ingest_address(self) -> Tuple[str, int]:
        """The (host, port) the ingest listener actually bound."""
        return self._ingest.server_address[0], self._ingest.server_address[1]

    @property
    def url(self) -> str:
        """The operations surface's base URL."""
        host, port = self.address
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------
    def _flusher(self) -> None:
        interval = self.pool.config.flush_interval_seconds
        while not self._stop_flusher.wait(interval):
            # One failed pass must not kill the thread: background scoring
            # and idle reaping for every stream ride on this loop, so
            # survive, count the error, and try again next tick.
            started = time.perf_counter()
            try:
                self.pool.flush()
                reaped = self.pool.reap_idle()
                if reaped:
                    _LOG.info(
                        "reaped idle streams", extra={"streams": reaped}
                    )
            except Exception:
                self.pool.metrics.flusher_errors.increment()
                _LOG.warning("flusher pass failed", exc_info=True)
            finally:
                self.pool.metrics.flush_duration.observe(
                    time.perf_counter() - started
                )

    def start(self) -> "GatewayServer":
        """Serve on daemon threads; returns self for chaining."""
        threads = (
            threading.Thread(target=self._ops.serve_forever, daemon=True),
            threading.Thread(target=self._ingest.serve_forever, daemon=True),
            threading.Thread(target=self._flusher, daemon=True),
        )
        for thread in threads:
            thread.start()
        self._threads = threads
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self.start()
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Stop serving, score what is buffered, release the sockets."""
        self.closing = True
        self._stop_flusher.set()
        self._ops.shutdown()
        self._ops.server_close()
        self._ingest.shutdown()
        self._ingest.server_close()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads = ()
        self.pool.flush()

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
