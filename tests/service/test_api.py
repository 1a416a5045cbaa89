"""HTTP round trip: client ↔ daemon on a loopback port."""

from __future__ import annotations

import html
import json
import re
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.errors import ServiceError
from repro.service.app import serve_background
from repro.service.client import ServiceClient
from repro.service.queue import JobQueue, ServiceConfig


@pytest.fixture()
def live(tmp_path):
    queue = JobQueue(ServiceConfig(data_dir=str(tmp_path)))
    server, _thread = serve_background(queue)  # port 0 -> free port
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    try:
        yield client, queue, f"http://{host}:{port}"
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        queue.stop()


def fetch(url: str) -> bytes:
    """GET ``url`` and close the response."""
    with urllib.request.urlopen(url) as resp:
        return resp.read()


def test_full_round_trip(live):
    client, queue, base = live
    assert client.healthy()

    status = client.status()
    assert status["jobs"] == {"queued": 0, "running": 0, "done": 0,
                              "failed": 0}

    payload = client.submit("annotate", {"workload": "matmul_racing",
                                         "verify": False})
    assert payload["disposition"] == "new" and payload["cached"] is False
    finished = client.wait(payload["id"], timeout=120)
    assert finished["state"] == "done"
    assert finished["result"]["name"] == "matmul_racing"
    assert "annotated.src" in finished["artifacts"]

    # artifact bytes over HTTP == bytes on disk
    disk = (queue.artifact_dir(finished["key"]) / "annotated.src").read_bytes()
    assert client.artifact(payload["id"], "annotated.src") == disk

    # resubmit: HTTP 200 (not 202), cached disposition
    again = client.submit("annotate", {"workload": "matmul_racing",
                                       "verify": False})
    assert again["cached"] is True

    jobs = client.jobs()
    assert len(jobs) == 1 and jobs[0]["id"] == payload["id"]

    # live dashboards render
    for path in ("/", "/index.html", f"/jobs/{payload['id']}.html"):
        html = fetch(base + path).decode()
        assert "<html" in html

    # healthz is plain text
    assert fetch(base + "/healthz") == b"ok\n"


def test_dashboard_links_resolve(live):
    """Every same-origin link on the live dashboards answers 200, and no
    page links to a route the daemon does not serve."""
    client, _queue, base = live
    payload = client.submit("annotate", {"workload": "matmul_racing",
                                         "verify": False})
    assert client.wait(payload["id"], timeout=120)["state"] == "done"

    origin = urllib.parse.urlsplit(base).netloc
    checked = set()
    for page in ("/", "/ops.html", f"/jobs/{payload['id']}.html"):
        url = base + page
        text = fetch(url).decode()
        for href in re.findall(r'href="([^"]*)"', text):
            target, _ = urllib.parse.urldefrag(
                urllib.parse.urljoin(url, html.unescape(href))
            )
            if urllib.parse.urlsplit(target).netloc != origin:
                continue
            if target not in checked:
                checked.add(target)
                with urllib.request.urlopen(target) as resp:
                    assert resp.status == 200, target
    assert base + "/ops.html" in checked
    assert any("/artifacts/" in url for url in checked)

    with pytest.raises(urllib.error.HTTPError) as err:
        fetch(base + "/perf.html")
    with err.value:
        assert err.value.code == 404


def test_error_statuses(live):
    client, _queue, base = live

    # bad spec -> 400 with the normalizer's message
    with pytest.raises(ServiceError, match="unknown job kind"):
        client.submit("nonsense", {})
    with pytest.raises(ServiceError, match="unknown workload"):
        client.submit("annotate", {"workload": "no_such"})

    # unknown job / artifact / route -> 404
    with pytest.raises(ServiceError, match="HTTP 404"):
        client.job(12345)
    with pytest.raises(ServiceError, match="HTTP 404"):
        client.artifact(12345, "x.txt")
    with pytest.raises(ServiceError, match="HTTP 404"):
        client._json("/api/nonsense")

    # non-JSON body -> 400
    req = urllib.request.Request(base + "/api/jobs", data=b"not json{",
                                 headers={"Content-Type": "application/json"})
    with pytest.raises(urllib.error.HTTPError) as exc:
        urllib.request.urlopen(req).close()
    with exc.value:
        assert exc.value.code == 400
        assert "not JSON" in json.loads(exc.value.read())["error"]


def test_unreachable_daemon_is_a_service_error(tmp_path):
    client = ServiceClient("http://127.0.0.1:9", timeout=2)
    assert client.healthy() is False
    with pytest.raises(ServiceError, match="cannot reach"):
        client.status()
    with pytest.raises(ServiceError, match="not an http:// URL"):
        ServiceClient("ftp://127.0.0.1:9").status()
