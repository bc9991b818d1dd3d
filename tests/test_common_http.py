"""Tests for the shared wire layer (:mod:`repro.common.http`).

Both HTTP surfaces (the campaign coordinator and the gateway's operations
surface) and the gateway's newline-JSON TCP ingest decode outside bytes.
The pinned cases below each reproduce a wire defect the shared layer
removed; the hypothesis fuzzers then throw arbitrary bodies,
``Content-Length`` values, JSON field values, paths and ingest lines at
real loopback servers and check the one property every decoder owes:
reject with a typed error, never a 500 and never a silent hang-up.
"""

import http.client
import json
import re
import socket
import time
import urllib.parse
import uuid

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.api.spec import CampaignSpec
from repro.common.config import (
    ExperimentConfig,
    GatewayConfig,
    ParallelConfig,
    SimulationConfig,
)
from repro.common.exceptions import (
    GatewayError,
    GatewayUnavailableError,
    RetryExhaustedError,
    ServiceUnavailableError,
    StreamRejectedError,
    UnknownStreamError,
)
from repro.common.retry import RetryPolicy
from repro.faults import FaultPlan, FaultRule
from repro.gateway.client import StreamClient
from repro.gateway.pool import MonitorPool
from repro.gateway.server import GatewayServer
from repro.live.monitor import LiveMonitor
from repro.service import CampaignCoordinator, CoordinatorClient, CoordinatorServer

ANOMALY_START = 4.0

#: Deterministic fuzzing: the same examples on every run, so the suite
#: stays a reproducible gate while still covering each decoder widely.
FUZZ = settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

#: Any JSON value, nested a little.
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**308, max_value=10**400)
    | st.floats()
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)

SSE_ROUTE = re.compile(r"^/streams/[^/]+/events$")


def unique_id(prefix: str) -> str:
    return f"{prefix}-{uuid.uuid4().hex[:8]}"


def fast_retry() -> RetryPolicy:
    return RetryPolicy(
        max_attempts=3, base_delay_seconds=0.001, max_delay_seconds=0.01, seed=3
    )


# ----------------------------------------------------------------------
# Servers and raw-wire helpers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def gateway(small_evaluation):
    pool = MonitorPool(
        small_evaluation.analyzer,
        GatewayConfig(port=0, ingest_port=0, flush_interval_seconds=0.02),
    )
    with GatewayServer(pool) as server:
        yield server


@pytest.fixture(scope="module")
def coordinator(tmp_path_factory):
    coordinator = CampaignCoordinator(tmp_path_factory.mktemp("wire") / "shared")
    experiment = ExperimentConfig(
        n_calibration_runs=2,
        n_runs_per_scenario=1,
        anomaly_start_hour=2.0,
        simulation=SimulationConfig(duration_hours=5.0, samples_per_hour=20, seed=13),
        parallel=ParallelConfig.serial(),
        seed=13,
    )
    spec = CampaignSpec(name="wire", scenarios=["idv6"]).with_experiment(experiment)
    with CoordinatorServer(coordinator, port=0) as server:
        campaign_id = CoordinatorClient(server.url).submit(spec)
        yield server, campaign_id


@pytest.fixture(params=["coordinator", "gateway"])
def surface(request):
    """(address, a POST route) of each HTTP surface."""
    if request.param == "gateway":
        return request.getfixturevalue("gateway").address, "/streams"
    server, _ = request.getfixturevalue("coordinator")
    return server.address, "/campaigns"


def exchange(address, request: bytes, timeout: float = 5.0, half_close: bool = True):
    """Send raw request bytes; return (status, decoded JSON or text body)."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(request)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        response = http.client.HTTPResponse(sock)
        response.begin()
        body = response.read()
    if response.getheader("Content-Type") == "application/json":
        return response.status, json.loads(body)
    return response.status, body.decode("utf-8")


def http_request(method: str, path: str, body: bytes = b"", length=None) -> bytes:
    declared = len(body) if length is None else length
    head = f"{method} {path} HTTP/1.1\r\nHost: fuzz\r\nContent-Length: {declared}\r\n\r\n"
    return head.encode("latin-1") + body


def post_json(address, path: str, payload) -> tuple:
    return exchange(address, http_request("POST", path, json.dumps(payload).encode()))


def assert_typed(status, body) -> None:
    """The HTTP property: a success, or a 4xx carrying ``{"error": str}``."""
    if status == 200:
        return
    assert 400 <= status < 500, (status, body)
    assert isinstance(body, dict) and isinstance(body.get("error"), str), body


def ingest_lines(address, lines, timeout: float = 5.0):
    """Send raw ingest lines; return every reply line until the server closes."""
    replies = []
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(b"".join(line + b"\n" for line in lines))
        reader = sock.makefile("rb")
        try:
            for raw in reader:
                replies.append(json.loads(raw))
                if replies[-1].get("scored") is not None or not replies[-1]["ok"]:
                    break
        except ConnectionResetError:
            pass  # the server closed with our probe unread
    return replies


# ----------------------------------------------------------------------
# Pinned wire defects
# ----------------------------------------------------------------------
class TestBodyReader:
    @pytest.mark.parametrize("declared", ["-1", "abc", " 12x", "99999999999999"])
    def test_bad_content_length_is_a_prompt_400(self, surface, declared):
        address, path = surface
        started = time.monotonic()
        status, body = exchange(
            address, http_request("POST", path, length=declared), timeout=1.0,
            half_close=False,
        )
        assert status == 400
        assert "malformed request body" in body["error"]
        assert time.monotonic() - started < 1.0

    def test_truncated_body_is_a_400(self, surface):
        address, path = surface
        status, body = exchange(address, http_request("POST", path, b"{}", length=10))
        assert status == 400
        assert "got 2 of 10 bytes" in body["error"]


class TestMistypedFields:
    def test_http_open_with_non_numeric_onset_is_a_400(self, gateway):
        status, body = post_json(
            gateway.address,
            "/streams",
            {"stream_id": unique_id("onset"), "anomaly_start_hour": "abc"},
        )
        assert status == 400
        assert "anomaly_start_hour" in body["error"]
        assert gateway.pool.stream_ids() == []

    def test_tcp_open_with_non_numeric_onset_gets_one_error_line(self, gateway):
        line = json.dumps(
            {"op": "open", "stream": unique_id("onset"), "anomaly_start_hour": "abc"}
        )
        replies = ingest_lines(gateway.ingest_address, [line.encode()])
        assert len(replies) == 1 and replies[0]["ok"] is False
        assert "anomaly_start_hour" in replies[0]["error"]

    def test_ack_with_non_numeric_count_is_a_400(self, coordinator):
        server, campaign_id = coordinator
        chunk_id = server.coordinator.chunk_states(campaign_id)[0]["chunk_id"]
        status, body = post_json(
            server.address,
            f"/campaigns/{campaign_id}/chunks/{chunk_id}/ack",
            {"worker_id": "w", "n_simulated": "abc"},
        )
        assert status == 400
        assert "n_simulated" in body["error"]


class TestStreamIdRule:
    @pytest.mark.parametrize("stream_id", ["plant 7", "plant/7", "plänt-7"])
    def test_ids_no_route_can_carry_are_refused_everywhere(self, gateway, stream_id):
        client = StreamClient(gateway.url, timeout=5.0)
        with pytest.raises(GatewayError, match="must match"):
            client.open_stream(stream_id)
        with pytest.raises(StreamRejectedError, match="must match"):
            client._request("POST", "/streams", {"stream_id": stream_id})
        for query in (client.status, client.alarms, client.report):
            with pytest.raises(UnknownStreamError):
                query(stream_id)
        assert gateway.pool.stream_ids() == []


class TestMetricsText:
    def test_dead_gateway_is_unavailable_and_retried(self):
        with pytest.raises(GatewayUnavailableError, match="cannot reach"):
            StreamClient("http://127.0.0.1:9", timeout=0.5).metrics_text()
        retrying = StreamClient("http://127.0.0.1:9", timeout=0.5, retry=fast_retry())
        with pytest.raises(RetryExhaustedError) as excinfo:
            retrying.metrics_text()
        assert len(excinfo.value.attempts) == 3
        assert isinstance(excinfo.value.last_error, GatewayUnavailableError)

    def test_dead_coordinator_is_unavailable(self):
        with pytest.raises(ServiceUnavailableError, match="cannot reach"):
            CoordinatorClient("http://127.0.0.1:9", timeout=0.5).metrics_text()

    def test_metrics_rides_the_fault_seam_and_retry_policy(self, gateway):
        client = StreamClient(gateway.url, timeout=5.0, retry=fast_retry())
        rule = FaultRule(site="gateway.client.metrics", action="error", times=2)
        faults.install(FaultPlan(rules=(rule,), seed=7))
        try:
            text = client.metrics_text()
            [summary] = faults.current().summary()["rules"]
        finally:
            faults.uninstall()
        assert "# TYPE gateway_streams_active gauge" in text
        assert summary["fired"] == 2


# ----------------------------------------------------------------------
# Fuzzing
# ----------------------------------------------------------------------
HEADER_TEXT = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0xFF), max_size=16
)


class TestHTTPFuzz:
    @FUZZ
    @given(
        body=st.binary(max_size=64) | JSON.map(lambda v: json.dumps(v).encode()),
        declared=st.none() | st.integers(-5, 10**10).map(str) | HEADER_TEXT,
    )
    def test_arbitrary_bodies_and_lengths(self, surface, body, declared):
        address, path = surface
        status, reply = exchange(address, http_request("POST", path, body, declared))
        if status == 200:
            reply_id = reply.get("stream_id")
            if reply_id is not None:  # the bytes happened to open a stream
                post_json(address, f"/streams/{reply_id}/close", {})
        assert_typed(status, reply)

    @FUZZ
    @given(
        method=st.sampled_from(["GET", "POST"]),
        prefix=st.sampled_from(["", "/streams/", "/campaigns/", "/campaigns/0a/"]),
        tail=st.text(max_size=24),
    )
    def test_arbitrary_paths(self, surface, method, prefix, tail):
        address, _ = surface
        path = urllib.parse.quote(prefix + tail, safe="/:@-._~!$&'()*+,;=") or "/"
        if not path.startswith("/"):
            path = "/" + path
        if SSE_ROUTE.match(path):
            return  # the SSE route streams until the client leaves
        body = b"{}" if method == "POST" else b""
        status, reply = exchange(address, http_request(method, path, body))
        assert status < 500
        if status != 200:
            assert_typed(status, reply)

    @FUZZ
    @given(stream_id=JSON, onset=JSON)
    def test_arbitrary_open_fields(self, gateway, stream_id, onset):
        status, reply = post_json(
            gateway.address,
            "/streams",
            {"stream_id": stream_id, "anomaly_start_hour": onset},
        )
        if status == 200:
            post_json(gateway.address, f"/streams/{reply['stream_id']}/close", {})
        assert_typed(status, reply)

    @FUZZ
    @given(
        samples=JSON
        | st.lists(
            st.fixed_dictionaries(
                {}, optional={"controller": JSON, "process": JSON, "time_hours": JSON}
            ),
            max_size=3,
        )
    )
    def test_arbitrary_sample_fields(self, gateway, samples):
        stream_id = unique_id("samples")
        gateway.pool.open_stream(stream_id)
        try:
            status, reply = post_json(
                gateway.address, f"/streams/{stream_id}/samples", {"samples": samples}
            )
            assert_typed(status, reply)
            if status != 200:  # a rejected batch buffers nothing
                stream = gateway.pool.status(stream_id)
                assert stream.n_samples + stream.n_pending == 0
        finally:
            gateway.pool.drop_stream(stream_id)

    @FUZZ
    @given(
        route=st.sampled_from(["submit", "claim", "heartbeat", "ack"]),
        fields=st.fixed_dictionaries(
            {},
            optional={
                "spec": JSON,
                "worker_id": JSON,
                "n_simulated": JSON,
                "n_cache_hits": JSON,
                "spans": JSON,
            },
        ),
    )
    def test_arbitrary_coordinator_fields(self, coordinator, route, fields):
        server, campaign_id = coordinator
        chunk_id = server.coordinator.chunk_states(campaign_id)[0]["chunk_id"]
        path = {
            "submit": "/campaigns",
            "claim": f"/campaigns/{campaign_id}/claim",
            "heartbeat": f"/campaigns/{campaign_id}/chunks/{chunk_id}/heartbeat",
            "ack": f"/campaigns/{campaign_id}/chunks/{chunk_id}/ack",
        }[route]
        status, reply = post_json(server.address, path, fields)
        assert_typed(status, reply)


INGEST_MESSAGE = st.fixed_dictionaries(
    {"op": st.sampled_from(["open", "sample", "sync", "close"]) | JSON},
    optional={
        "stream": JSON,
        "anomaly_start_hour": JSON,
        "controller": JSON,
        "process": JSON,
        "time_hours": JSON,
    },
).map(lambda message: json.dumps(message).encode())


class TestIngestFuzz:
    @FUZZ
    @given(
        opened=st.booleans(),
        line=st.binary(max_size=64)
        | JSON.map(lambda value: json.dumps(value).encode())
        | INGEST_MESSAGE,
    )
    def test_every_rejected_line_gets_one_error_reply(self, gateway, opened, line):
        line = line.replace(b"\n", b" ")
        lines = [line, b'{"op": "sync"}']  # the probe answers an accepted line
        if opened:
            open_line = {"op": "open", "stream": unique_id("ingest")}
            lines.insert(0, json.dumps(open_line).encode())
        replies = ingest_lines(gateway.ingest_address, lines)
        if opened:
            assert replies.pop(0)["ok"] is True
        assert replies, "the connection closed without a reply"
        for reply in replies[:-1]:
            assert reply["ok"] is True
        if not replies[-1]["ok"]:
            assert isinstance(replies[-1]["error"], str)


class TestAfterFuzz:
    def test_gateway_is_unharmed(self, small_evaluation, gateway, idv6_run):
        """Runs after the fuzzers in this module: the flusher survived,
        every stream that failed to open (or whose connection vanished) is
        gone, and a well-formed stream still matches an in-process
        LiveMonitor bitwise."""
        assert gateway.pool.metrics.flusher_errors.value == 0
        deadline = time.monotonic() + 10.0
        while gateway.pool.stream_ids() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert gateway.pool.stream_ids() == []

        stream_id = unique_id("good")
        controller = idv6_run.controller_data
        process = idv6_run.process_data
        reference = LiveMonitor(small_evaluation.analyzer, anomaly_start_hour=ANOMALY_START)
        with StreamClient(gateway.url, timeout=10.0) as client:
            client.open_stream(stream_id, anomaly_start_hour=ANOMALY_START)
            for i in range(controller.n_observations):
                row = (controller.values[i], process.values[i], float(controller.timestamps[i]))
                client.feed(stream_id, *row)
                reference.observe(*row)
            report = client.close_stream(stream_id)
        expected = reference.report().to_mapping()
        assert json.dumps(report, sort_keys=True) == json.dumps(expected, sort_keys=True)
