"""Client for the streaming gateway: TCP feeding + HTTP queries.

:class:`StreamClient` is the public way to talk to a
:class:`~repro.gateway.server.GatewayServer`.  Control-plane calls
(open/alarms/report/status/metrics) go over the HTTP operations surface;
sample feeding rides the newline-JSON TCP ingest listener, one connection
per open stream, discovered automatically from ``GET /health``.

Error mapping mirrors :class:`~repro.service.client.CoordinatorClient`: a
gateway that cannot be reached raises
:class:`~repro.common.exceptions.GatewayUnavailableError` with the
transport failure; a reachable gateway that rejects a request raises
:class:`~repro.common.exceptions.StreamRejectedError` /
:class:`~repro.common.exceptions.UnknownStreamError` carrying the server's
message.  Callers never see raw ``urllib`` or socket exceptions.

Passing a :class:`~repro.common.retry.RetryPolicy` makes the read-only
control-plane queries (all ``GET``) and the ingest **connect** retry
transparently on ``GatewayUnavailableError``.  Data-plane ops riding an
established connection (``sample``/``sync``/``close``) are never blindly
re-sent: a lost reply on a stateful connection is ambiguous, and recovery
there means re-opening the stream, not re-sending one frame.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, List, Optional, Tuple

from repro import faults
from repro.common.exceptions import (
    GatewayError,
    GatewayUnavailableError,
    StreamRejectedError,
    UnknownStreamError,
)
from repro.common.http import JsonClient
from repro.common.retry import RetryPolicy
from repro.gateway.pool import STREAM_ID

__all__ = ["StreamClient"]


class _StreamConnection:
    """One ingest TCP connection feeding one stream."""

    def __init__(self, host: str, port: int, timeout: float):
        self._socket = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._socket.makefile("rb")
        self._writer = self._socket.makefile("wb")

    def send(self, message: Dict[str, Any]) -> None:
        self._writer.write(json.dumps(message).encode("utf-8") + b"\n")
        self._writer.flush()

    def receive(self) -> Dict[str, Any]:
        line = self._reader.readline()
        if not line:
            raise GatewayError("gateway closed the ingest connection")
        return json.loads(line.decode("utf-8"))

    def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one op and check its acknowledgement."""
        self.send(message)
        reply = self.receive()
        if not reply.get("ok"):
            raise GatewayError(str(reply.get("error") or "gateway refused the op"))
        return reply

    def abandon(self) -> None:
        """Sever the connection without a close op (simulates a crash)."""
        try:
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.close()

    def close(self) -> None:
        for resource in (self._reader, self._writer, self._socket):
            try:
                resource.close()
            except OSError:
                pass


class StreamClient(JsonClient):
    """Feeds plant streams into a gateway and queries their verdicts.

    Constructed as ``StreamClient(base_url, timeout=30.0, retry=None)``;
    see :class:`~repro.common.http.JsonClient`.  The retry policy also
    covers the ingest connect.
    """

    fault_prefix = "gateway.client"
    peer = "gateway"
    unavailable = GatewayUnavailableError
    rejected = GatewayError
    statuses = {404: UnknownStreamError, 409: StreamRejectedError, 503: StreamRejectedError}

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
    ):
        super().__init__(base_url, timeout, retry)
        self._connections: Dict[str, _StreamConnection] = {}
        self._ingest_address: Optional[Tuple[str, int]] = None

    def _ingest(self) -> Tuple[str, int]:
        if self._ingest_address is None:
            health = self.health()
            self._ingest_address = (
                str(health["ingest_host"]), int(health["ingest_port"])
            )
        return self._ingest_address

    def _connect(self, stream_id: str) -> _StreamConnection:
        """Dial the ingest listener once; transport failures are typed."""
        host, port = self._ingest()
        try:
            # Fault seam: chaos plans refuse the ingest connect here.
            faults.fire("gateway.client.connect", stream=stream_id)
            return _StreamConnection(host, port, self.timeout)
        except OSError as error:  # includes ConnectionError / InjectedFault
            raise GatewayUnavailableError(
                f"cannot reach gateway ingest at {host}:{port}: {error}"
            ) from None

    # ------------------------------------------------------------------
    # Stream lifecycle (TCP data plane)
    # ------------------------------------------------------------------
    def open_stream(
        self, stream_id: str, anomaly_start_hour: Optional[float] = None
    ) -> None:
        """Open a stream and its ingest connection."""
        stream_id = str(stream_id)
        if stream_id in self._connections:
            raise StreamRejectedError(f"stream {stream_id!r} is already open here")
        if self.retry is None:
            connection = self._connect(stream_id)
        else:
            # Connecting is side-effect free until the open op is acked,
            # so a refused/injected connect is safely retried.
            connection = self.retry.call(
                lambda: self._connect(stream_id),
                retry_on=(GatewayUnavailableError,),
                description=f"connect ingest for stream {stream_id!r}",
            )
        message: Dict[str, Any] = {"op": "open", "stream": stream_id}
        if anomaly_start_hour is not None:
            message["anomaly_start_hour"] = float(anomaly_start_hour)
        try:
            connection.call(message)
        except GatewayError:
            connection.close()
            raise
        self._connections[stream_id] = connection

    def feed(
        self, stream_id: str, controller_values, process_values, time_hours: float
    ) -> None:
        """Send one sample of both views (fire-and-forget)."""
        self._connection(stream_id).send(
            {
                "op": "sample",
                "controller": [float(v) for v in controller_values],
                "process": [float(v) for v in process_values],
                "time_hours": float(time_hours),
            }
        )

    def sync(self, stream_id: str) -> int:
        """Force the stream's buffered samples through scoring; returns
        how many were scored (also drains any prior feed errors)."""
        reply = self._connection(stream_id).call({"op": "sync"})
        return int(reply["scored"])

    def close_stream(self, stream_id: str) -> Dict[str, Any]:
        """Close the stream cleanly; returns its final report mapping."""
        connection = self._connection(stream_id)
        try:
            reply = connection.call({"op": "close"})
        finally:
            connection.close()
            del self._connections[str(stream_id)]
        return dict(reply["report"])

    def abandon_stream(self, stream_id: str) -> None:
        """Drop the connection without closing (simulates a client crash)."""
        connection = self._connections.pop(str(stream_id), None)
        if connection is not None:
            connection.abandon()

    # ------------------------------------------------------------------
    # Queries (HTTP control plane)
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """The gateway's liveness document (includes the ingest address)."""
        return self._request("GET", "/health", op="health")

    def ready(self) -> bool:
        """Whether the pool can admit another stream."""
        try:
            return bool(self._request("GET", "/ready", op="ready").get("ready"))
        except StreamRejectedError:
            return False

    def streams(self) -> List[str]:
        """Ids of every open stream."""
        return list(self._request("GET", "/streams", op="streams")["streams"])

    def status(self, stream_id: str) -> Dict[str, Any]:
        """One stream's status mapping."""
        return self._request("GET", self._stream_path(stream_id), op="status")

    def alarms(self, stream_id: str) -> Dict[str, List[Dict[str, Any]]]:
        """Per-view alarm transitions of one stream."""
        return dict(
            self._request(
                "GET", self._stream_path(stream_id, "/alarms"), op="alarms"
            )["alarms"]
        )

    def report(self, stream_id: str) -> Dict[str, Any]:
        """The stream's :class:`LiveRunReport` mapping."""
        return dict(
            self._request(
                "GET", self._stream_path(stream_id, "/report"), op="report"
            )["report"]
        )

    @staticmethod
    def _stream_path(stream_id: str, resource: str = "") -> str:
        """The query path of a stream; an id no route can carry names no
        stream the gateway could hold."""
        if not STREAM_ID.fullmatch(str(stream_id)):
            raise UnknownStreamError(
                f"no such stream {stream_id!r}: stream ids match "
                f"{STREAM_ID.pattern}"
            )
        return f"/streams/{stream_id}{resource}"

    # ------------------------------------------------------------------
    def _connection(self, stream_id: str) -> _StreamConnection:
        connection = self._connections.get(str(stream_id))
        if connection is None:
            raise UnknownStreamError(
                f"stream {stream_id!r} is not open on this client"
            )
        return connection

    def close(self) -> None:
        """Close every open ingest connection (streams stay open remotely
        until the gateway notices the disconnects and drops them)."""
        for connection in self._connections.values():
            connection.close()
        self._connections.clear()

    def __enter__(self) -> "StreamClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
