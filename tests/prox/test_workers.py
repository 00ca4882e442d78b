"""The sharded worker tier: hash ring, forwarding, drain.

Two forked workers behind a WorkerFront + ProxServer: sessions land on
their hash owner, lifecycle and data routes round-trip through the
queue, aggregated observability endpoints answer at the front, and
graceful drain snapshots live sessions before the workers exit.
"""

import http.client
import json

import pytest

from repro.observability import metrics
from repro.prox.server import ProxServer
from repro.prox.workers import HashRing, WorkerFront


def request(server, method, path, body=None):
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=120)
    payload = json.dumps(body) if body is not None else None
    headers = {"Content-Type": "application/json"} if payload else {}
    connection.request(method, path, body=payload, headers=headers)
    response = connection.getresponse()
    raw = response.read()
    headers_out = dict(response.getheaders())
    connection.close()
    try:
        return response.status, json.loads(raw), headers_out
    except json.JSONDecodeError:
        return response.status, raw.decode(), headers_out


class TestHashRing:
    def test_deterministic_and_total(self):
        ring = HashRing(3)
        again = HashRing(3)
        owners = {ring.owner(f"session-{i}") for i in range(200)}
        assert owners == {0, 1, 2}
        for i in range(50):
            assert ring.owner(f"session-{i}") == again.owner(f"session-{i}")

    def test_stability_under_growth(self):
        # Consistent hashing: adding a worker moves only a fraction of
        # the keys (vs. rehash-everything for modulo sharding).
        small, large = HashRing(3), HashRing(4)
        keys = [f"session-{i}" for i in range(400)]
        moved = sum(1 for key in keys if small.owner(key) != large.owner(key))
        assert moved < len(keys) * 0.6

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            HashRing(0)


@pytest.fixture(scope="module")
def sharded_server():
    front = WorkerFront(n_workers=2, max_sessions=8, queue_depth=8)
    front.start()
    server = ProxServer(backend=front)
    server.start()
    yield server
    try:
        server.stop()
    finally:
        front.stop()


class TestShardedServing:
    def test_health_reports_live_workers(self, sharded_server):
        status, data, _ = request(sharded_server, "GET", "/healthz")
        assert status == 200
        assert data["mode"] == "sharded"
        assert [worker["alive"] for worker in data["workers"]] == [True, True]

    def test_full_session_lifecycle_through_the_front(self, sharded_server):
        status, created, _ = request(
            sharded_server, "POST", "/sessions", {"seed": 3}
        )
        assert status == 201
        session_id = created["session_id"]

        status, data, _ = request(
            sharded_server, "POST", f"/sessions/{session_id}/select",
            {"genre": None},
        )
        assert status == 200 and data["selected_size"] > 0

        status, data, _ = request(
            sharded_server, "POST", f"/sessions/{session_id}/summarize",
            {"number_of_steps": 2},
        )
        assert status == 200
        summary_size = data["size"]

        # Evict on the owning worker, restore transparently, re-read.
        status, data, _ = request(
            sharded_server, "POST", f"/sessions/{session_id}/evict"
        )
        assert status == 200
        status, data, _ = request(
            sharded_server, "GET", f"/sessions/{session_id}/summary/expression"
        )
        assert status == 200
        assert f"Provenance Size: {summary_size}" in data["expression"]

        status, listing, _ = request(sharded_server, "GET", "/sessions")
        assert status == 200
        assert session_id in {
            row["session_id"] for row in listing["sessions"]
        }
        assert len(listing["workers"]) == 2

        status, metrics, _ = request(sharded_server, "GET", "/metrics")
        assert status == 200
        assert "prox_sessions_evicted_total" in metrics
        assert "prox_worker_queue_depth" in metrics

        status, data, _ = request(
            sharded_server, "DELETE", f"/sessions/{session_id}"
        )
        assert status == 200
        status, data, _ = request(
            sharded_server, "GET", f"/sessions/{session_id}/stats"
        )
        assert status == 404

    def test_summarize_in_a_worker_never_falls_back_to_naive(
        self, sharded_server
    ):
        """Workers are daemonic processes; scoring must run its fast
        path in-process there rather than fall back to the naive
        reference on steps with many candidates."""

        def fallbacks():
            # Front and workers each render their registry: compare sums.
            status, metrics, _ = request(sharded_server, "GET", "/metrics")
            assert status == 200
            values = [
                float(line.split()[-1])
                for line in metrics.splitlines()
                if line.startswith("prox_scoring_fallbacks_total")
            ]
            assert values, "fallback counter missing from the scrape"
            return sum(values)

        before = fallbacks()
        status, created, _ = request(
            sharded_server, "POST", "/sessions", {"seed": 3}
        )
        session_id = created["session_id"]
        request(
            sharded_server, "POST", f"/sessions/{session_id}/select",
            {"genre": None},
        )
        status, data, _ = request(
            sharded_server, "POST", f"/sessions/{session_id}/summarize",
            {"number_of_steps": 2},
        )
        assert status == 200
        assert data["steps_detail"][0]["n_candidates"] >= 64
        assert "naive" not in data["scoring_paths"], data["scoring_paths"]
        assert fallbacks() == before
        request(sharded_server, "DELETE", f"/sessions/{session_id}")

    def test_unscoped_data_route_is_404_in_sharded_mode(self, sharded_server):
        status, data, _ = request(
            sharded_server, "POST", "/select", {"genre": None}
        )
        assert status == 404
        assert "POST /sessions" in data["error"]

    def test_unknown_session_404_passes_through(self, sharded_server):
        status, data, _ = request(
            sharded_server, "POST", "/sessions/ghost/select", {"genre": None}
        )
        assert status == 404


def test_drain_snapshots_and_workers_exit():
    front = WorkerFront(n_workers=2, max_sessions=4)
    front.start()
    server = ProxServer(backend=front)
    server.start()
    try:
        status, created, _ = request(server, "POST", "/sessions", {"seed": 1})
        assert status == 201
        session_id = created["session_id"]
        status, _, _ = request(
            server, "POST", f"/sessions/{session_id}/select", {"genre": None}
        )
        assert status == 200
        drained = server.drain()
        assert drained["inflight_drained"] is True
        snapshotted = [
            sid
            for worker in drained["sessions"].values()
            for sid in worker.get("snapshotted", [])
        ]
        assert snapshotted == [session_id]
        for process in front._processes:
            assert not process.is_alive()
    finally:
        server.stop()


def _fallbacks(section):
    (line,) = [
        line
        for line in section.splitlines()
        if line.startswith("prox_scoring_fallbacks_total")
    ]
    return float(line.split()[-1])


def test_workers_count_only_their_own_events():
    """Counts the forking process made before the front started stay in
    the front's section of the aggregated scrape; every worker section
    starts from zero."""
    metrics.REGISTRY.get("prox_scoring_fallbacks_total").inc(5)
    front = WorkerFront(n_workers=2, max_sessions=2)
    front.start()
    server = ProxServer(backend=front)
    server.start()
    try:
        status, scrape, _ = request(server, "GET", "/metrics")
        assert status == 200
        front_section, *worker_sections = scrape.split("# worker ")
        assert len(worker_sections) == 2
        assert _fallbacks(front_section) >= 5
        for section in worker_sections:
            assert _fallbacks(section) == 0
            assert 'repro_kernel_backend{backend="python"}' in section
    finally:
        server.stop()
        front.stop()


def test_front_capacity_returns_429():
    front = WorkerFront(n_workers=2, max_sessions=1)
    front.start()
    server = ProxServer(backend=front)
    server.start()
    try:
        status, created, _ = request(server, "POST", "/sessions", {})
        assert status == 201
        status, data, headers = request(server, "POST", "/sessions", {})
        assert status == 429
        assert "Retry-After" in headers
        status, _, _ = request(
            server, "DELETE", f"/sessions/{created['session_id']}"
        )
        assert status == 200
        status, _, _ = request(server, "POST", "/sessions", {})
        assert status == 201
    finally:
        server.stop()
        front.stop()
