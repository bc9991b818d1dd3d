"""REST control surface over a :class:`CampaignCoordinator`.

Routes on the shared :class:`~repro.common.http.JsonHandler` (the stdlib's
threading ``http.server``) — every route is a thin JSON translation of one
coordinator method, so the protocol semantics (leases, idempotent acks,
reduction) live in exactly one place and the in-process and remote paths
cannot drift.

Routes::

    GET  /health                                     liveness + version
    GET  /metrics                                    Prometheus text exposition
    GET  /campaigns                                  submitted campaign ids
    POST /campaigns               {"spec": {...}}    submit (idempotent)
    GET  /campaigns/<id>                             scheduling progress
    GET  /campaigns/<id>/spec                        normalized spec document
    GET  /campaigns/<id>/chunks                      per-chunk states
    GET  /campaigns/<id>/events                      progress log
    GET  /campaigns/<id>/trace                       merged worker span records
    GET  /campaigns/<id>/tables                      reduced tables (409 until
                                                     the campaign completes)
    POST /campaigns/<id>/claim    {"worker_id"}      lease the next chunk
    POST /campaigns/<id>/chunks/<cid>/heartbeat      renew a lease
    POST /campaigns/<id>/chunks/<cid>/ack            complete a chunk

Security note: the service is **unauthenticated** and meant for loopback
or a trusted LAN only — bind it accordingly (the default
:class:`~repro.common.config.ServiceConfig` listens on ``127.0.0.1``).
"""

from __future__ import annotations

import re
import threading
from http.server import ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.api.spec import CampaignSpec
from repro.common.exceptions import (
    CampaignIncompleteError,
    ConfigurationError,
    ServiceError,
)
from repro.common.http import BadRequest, JsonHandler, number
from repro.service.coordinator import CampaignCoordinator

__all__ = ["CoordinatorServer"]

#: Largest accepted request body; a campaign spec is a few KB, so anything
#: beyond this is a client error (or abuse), not a legitimate submission.
_MAX_BODY_BYTES = 4 * 1024 * 1024

_CAMPAIGN = re.compile(r"^/campaigns/([0-9a-f]+)$")
_SUBRESOURCE = re.compile(
    r"^/campaigns/([0-9a-f]+)/(spec|chunks|events|trace|tables)$"
)
_CLAIM = re.compile(r"^/campaigns/([0-9a-f]+)/claim$")
_CHUNK_ACTION = re.compile(
    r"^/campaigns/([0-9a-f]+)/chunks/([A-Za-z0-9_.-]+)/(heartbeat|ack)$"
)


class _Handler(JsonHandler):
    """Routes requests onto the server's coordinator."""

    # Set by CoordinatorServer when the handler class is bound.
    coordinator: CampaignCoordinator

    max_body_bytes = _MAX_BODY_BYTES
    errors = ((CampaignIncompleteError, 409), (ConfigurationError, 400), (ServiceError, 404))

    def get(self) -> None:
        coordinator = self.coordinator
        if self.path == "/health":
            self.reply(200, coordinator.health())
            return
        if self.path == "/metrics":
            self.reply_text(
                200,
                coordinator.metrics_render(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
            return
        if self.path == "/campaigns":
            self.reply(200, {"campaigns": coordinator.campaign_ids()})
            return
        match = _CAMPAIGN.match(self.path)
        if match:
            self.reply(200, coordinator.progress(match.group(1)))
            return
        match = _SUBRESOURCE.match(self.path)
        if match:
            campaign_id, resource = match.groups()
            if resource == "spec":
                self.reply(200, {"spec": coordinator.spec_mapping(campaign_id)})
            elif resource == "chunks":
                self.reply(200, {"chunks": coordinator.chunk_states(campaign_id)})
            elif resource == "events":
                self.reply(200, {"events": coordinator.events(campaign_id)})
            elif resource == "trace":
                self.reply(200, {"spans": coordinator.trace(campaign_id)})
            else:  # tables
                self.reply(200, {"tables": coordinator.tables(campaign_id)})
            return
        self.not_found()

    def post(self, payload: Dict[str, Any]) -> None:
        coordinator = self.coordinator
        if self.path == "/campaigns":
            if "spec" not in payload:
                raise BadRequest("submission body needs a 'spec' mapping")
            spec = CampaignSpec.from_mapping(payload["spec"])
            campaign_id = coordinator.submit(spec)
            progress = coordinator.progress(campaign_id)
            self.reply(
                200,
                {
                    "campaign_id": campaign_id,
                    "n_chunks": progress["n_chunks"],
                    "n_runs": progress["n_runs"],
                },
            )
            return
        match = _CLAIM.match(self.path)
        if match:
            campaign_id = match.group(1)
            worker_id = str(payload.get("worker_id") or "anonymous")
            chunk = coordinator.claim(campaign_id, worker_id)
            self.reply(
                200,
                {
                    "chunk": chunk,
                    "complete": coordinator.progress(campaign_id)["complete"],
                },
            )
            return
        match = _CHUNK_ACTION.match(self.path)
        if match:
            campaign_id, chunk_id, action = match.groups()
            worker_id = str(payload.get("worker_id") or "anonymous")
            if action == "heartbeat":
                alive = coordinator.heartbeat(campaign_id, chunk_id, worker_id)
                self.reply(200, {"alive": alive})
            else:  # ack
                spans = payload.get("spans")
                response = coordinator.ack(
                    campaign_id,
                    chunk_id,
                    worker_id,
                    n_simulated=number(payload, "n_simulated", int, 0),
                    n_cache_hits=number(payload, "n_cache_hits", int, 0),
                    spans=spans if isinstance(spans, list) else None,
                )
                self.reply(200, response)
            return
        self.not_found()


class CoordinatorServer:
    """A threaded HTTP server bound to one coordinator.

    Usable blocking (:meth:`serve_forever`, the ``--serve`` CLI mode) or in
    the background (:meth:`start` / :meth:`shutdown`, tests and the smoke
    harness).  Binding ``port=0`` lets the OS pick a free port —
    :attr:`url` reports the actual one.
    """

    def __init__(
        self,
        coordinator: CampaignCoordinator,
        host: str = "127.0.0.1",
        port: int = 8765,
    ):
        self.coordinator = coordinator
        handler = type("BoundHandler", (_Handler,), {"coordinator": coordinator})
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The (host, port) actually bound."""
        return self._server.server_address[0], self._server.server_address[1]

    @property
    def url(self) -> str:
        """The coordinator's base URL."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "CoordinatorServer":
        """Serve on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self._server.serve_forever()

    def shutdown(self) -> None:
        """Stop serving and release the socket."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "CoordinatorServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
