"""HTTP API + SSE end-to-end, against an in-process service instance."""

import json
import urllib.request

import pytest

from repro.layout.export_json import layout_from_dict
from repro.runner import GeneratorSpec, LayoutJob
from repro.service import LayoutService, RemoteRunner, ServiceClient, ServiceError
from tests.conftest import build_tiny_netlist


@pytest.fixture
def service(tmp_path):
    instance = LayoutService(
        data_dir=tmp_path / "svc", inline=True, concurrency=2, fsync=False
    )
    instance.bind(port=0)
    instance.start()
    import threading

    threading.Thread(target=instance.serve_forever, daemon=True).start()
    yield instance
    instance.shutdown()


@pytest.fixture
def client(service):
    return ServiceClient(f"http://127.0.0.1:{service.port}", timeout=30.0)


def tiny_job(tag=""):
    return LayoutJob(flow="manual", netlist=build_tiny_netlist(), tag=tag)


class TestEndpoints:
    def test_healthz(self, client):
        assert client.health()["status"] == "ok"

    def test_unknown_resource_404(self, client):
        with pytest.raises(ServiceError, match="404"):
            client._json("/frobnicate")

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError, match="404"):
            client.status("0" * 64)

    def test_bad_json_body_400(self, service):
        request = urllib.request.Request(
            f"http://127.0.0.1:{service.port}/jobs",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_invalid_job_document_400(self, client):
        with pytest.raises(ServiceError, match="400"):
            client.submit_document({"flow": "magic", "generator": {"circuit": "buffer60"}})

    def test_layout_for_unsettled_job_409(self, service, client):
        service.scheduler.stop()  # freeze dispatch so the job stays queued
        response = client.submit_job(tiny_job("frozen"))
        with pytest.raises(ServiceError, match="409"):
            client.layout_document(response["key"])

    def test_submit_and_fetch_layout(self, client):
        response = client.submit_job(tiny_job("fetch"))
        record = client.wait(response["key"], timeout=60)
        assert record["state"] == "done"
        document = client.layout_document(response["key"])
        layout = layout_from_dict(document)
        assert layout.netlist.name == "tiny"
        with client._request(f"/jobs/{response['key']}/layout.svg") as reply:
            svg = reply.read().decode("utf-8")
        assert svg.startswith("<svg")
        assert "<title>" in svg  # labelled with the job's label + hash

    def test_sweep_submission_expands(self, client):
        response = client.submit_document(
            {"flow": "manual", "sweep": {"stage_counts": [1], "seeds": [11, 12]}}
        )
        assert len(response["jobs"]) == 2
        assert {row["disposition"] for row in response["jobs"]} == {"queued"}
        for row in response["jobs"]:
            assert client.wait(row["key"], timeout=120)["state"] == "done"

    def test_jobs_listing(self, client):
        response = client.submit_job(tiny_job("listed"))
        keys = [row["key"] for row in client.jobs()]
        assert response["key"] in keys

    def test_job_routes_accept_the_printed_key_prefix(self, client):
        key = client.submit_job(tiny_job("prefixed"))["key"]
        client.wait(key, timeout=60)
        record = client.status(key[:12])  # what the CLI prints
        assert record["key"] == key
        assert client.layout_document(key[:12])["circuit"] == "tiny"
        with pytest.raises(ServiceError, match="404"):
            client.status(key[:4])  # too short to be safe

    def test_events_close_for_jobs_settled_in_a_previous_epoch(self, tmp_path):
        import threading

        # Epoch 1 solves the job and shuts down (its event bus dies with it).
        first = LayoutService(
            data_dir=tmp_path / "epoch", inline=True, concurrency=1, fsync=False
        )
        first.bind(port=0)
        first.start()
        client = ServiceClient(f"http://127.0.0.1:{first.port}")
        threading.Thread(target=first.serve_forever, daemon=True).start()
        key = client.submit_job(tiny_job("epochal"))["key"]
        client.wait(key, timeout=60)
        first.shutdown()

        # Epoch 2 replays the journal; its bus has no history for the key,
        # so the stream must synthesize the terminal event and close.
        second = LayoutService(
            data_dir=tmp_path / "epoch", inline=True, concurrency=1, fsync=False
        )
        second.bind(port=0)
        second.start()
        client = ServiceClient(f"http://127.0.0.1:{second.port}")
        threading.Thread(target=second.serve_forever, daemon=True).start()
        try:
            events = list(client.iter_events(key, timeout=10))
            assert events, "stream produced nothing"
            assert events[-1]["kind"] == "done"
            assert events[-1]["seq"] == 0  # synthesized from the journal
        finally:
            second.shutdown()

    def test_iter_events_enforces_an_overall_deadline(self, service, client):
        service.scheduler.stop()  # nothing will ever dispatch
        key = client.submit_job(tiny_job("stuck"))["key"]
        import time as time_module

        started = time_module.monotonic()
        with pytest.raises(ServiceError, match="timed out"):
            list(client.iter_events(key, timeout=0.5))
        assert time_module.monotonic() - started < 30.0

    def test_keep_alive_requests_do_not_wait_for_delayed_acks(self, service):
        """Headers and body leave in one write, so a reused connection
        does not stall ~40 ms per response on Nagle plus delayed ACK."""
        import http.client
        import time as time_module

        connection = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
        try:
            started = time_module.perf_counter()
            for _ in range(20):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
            elapsed = time_module.perf_counter() - started
        finally:
            connection.close()
        assert elapsed < 0.3


class TestAcceptance:
    """The ISSUE's end-to-end criterion, minus the daemon-restart leg
    (which lives in test_crash_recovery.py): the same buffer60 manual-flow
    job twice over HTTP — first solves, second is served from the cache —
    with an SSE client observing queued → running → done."""

    def test_buffer60_twice_with_sse(self, client):
        job = LayoutJob(flow="manual", generator=GeneratorSpec("buffer60"))

        first = client.submit_job(job)
        assert first["disposition"] in ("queued", "attached")
        events = [event["kind"] for event in client.iter_events(first["key"])]
        filtered = [kind for kind in events if kind != "progress"]
        assert filtered[0] == "queued"
        assert "running" in filtered
        assert filtered[-1] == "done"

        record = client.wait(first["key"], timeout=120)
        assert record["state"] == "done"
        assert record["summary"]["served"] == "solve"
        hits_before = client.stats()["cache"]["hits"]
        solved_before = client.stats()["solved"]

        second = client.submit_job(job)
        assert second["key"] == first["key"]
        assert second["disposition"] == "cached"
        assert second["state"] == "done"
        stats = client.stats()
        assert stats["cache"]["hits"] == hits_before + 1  # verified via /stats
        assert stats["solved"] == solved_before  # not re-solved
        assert stats["cache"]["lookups"] >= stats["cache"]["hits"]


class TestRemoteRunner:
    def test_experiment_harness_interface(self, service, client):
        runner = RemoteRunner(client, client="tests")
        jobs = [tiny_job("rr1"), tiny_job("rr2")]
        outcomes = runner.run(jobs)
        assert [outcome.ok for outcome in outcomes] == [True, True]
        flow_result = outcomes[0].flow_result()
        assert flow_result.layout.netlist.name == "tiny"
        assert flow_result.metrics is not None

        # Second run round-trips through the service's cache.
        again = runner.run(jobs)
        assert all(outcome.status == "cached" for outcome in again)
        assert runner.cache_stats()["hits"] >= 2

    def test_remote_runner_maps_broken_records_to_failed_outcomes(self, client):
        runner = RemoteRunner(client)
        outcome = runner._outcome(
            tiny_job("map"),
            "deadbeef",
            {"state": "timeout", "error": "too slow", "runtime": 1.5},
        )
        assert outcome.status == "timeout"
        assert not outcome.ok
        assert outcome.error == "too slow"
        assert outcome.runtime == 1.5


class TestCacheIntegrityEndpoint:
    def test_clean_cache_reports_200_clean(self, service, client):
        response = client.submit_job(tiny_job("integ"))
        client.wait(response["key"], timeout=60.0)
        report = client._json("/cache/integrity")
        assert report["clean"] is True
        assert report["repair"] is False  # the endpoint is read-only
        assert report["entries_scanned"] >= 1
        assert report["entries_corrupt"] == 0

    def test_corrupt_entry_reports_503_with_the_key(self, service, client):
        response = client.submit_job(tiny_job("integ-dirty"))
        key = response["key"]
        client.wait(key, timeout=60.0)
        layout = service.scheduler.cache.entry_dir(key) / "layout.json"
        data = bytearray(layout.read_bytes())
        data[10] ^= 0xFF
        layout.write_bytes(bytes(data))
        with pytest.raises(ServiceError, match="503"):
            client._json("/cache/integrity")
        # Read-only: the corrupt entry is still in place, not quarantined.
        assert layout.exists()
        # A subsequent fetch of the layout never serves the corrupt bytes.
        with pytest.raises(ServiceError):
            client.layout_document(key)
