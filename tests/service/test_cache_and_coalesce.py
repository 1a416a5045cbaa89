"""The tentpole cache properties, exercised on an in-process JobQueue.

* a second identical submission is a cache hit that runs **zero**
  simulator cycles and serves artifacts byte-identical to the cold run;
* concurrent duplicate submissions coalesce onto one in-flight run.
"""

from __future__ import annotations

import hashlib
import threading

import repro.service.queue as queue_mod
from repro.service.queue import JobQueue, ServiceConfig

SPEC = {"workload": "matmul_racing", "verify": False}


def _digests(queue, key):
    root = queue.artifact_dir(key)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_second_submission_is_a_zero_work_cache_hit(tmp_path, monkeypatch):
    cold = JobQueue(ServiceConfig(data_dir=str(tmp_path / "cold")))
    cold.start()
    first = cold.submit("annotate", SPEC)
    assert first["disposition"] == "new" and not first["cached"]
    cold.drain(timeout=120)
    done = cold.job_payload(cold.db.job(first["id"]))
    assert done["state"] == "done"
    assert done["artifacts"] == ["annotate.json", "annotated.src",
                                 "report.txt"]
    reference = _digests(cold, done["key"])

    # a cold run in a fresh data dir produces byte-identical artifacts,
    # so what the cache serves IS what a re-run would have computed
    fresh = JobQueue(ServiceConfig(data_dir=str(tmp_path / "fresh")))
    fresh.start()
    redo = fresh.submit("annotate", SPEC)
    assert redo["key"] == done["key"]  # same content hash across daemons
    fresh.drain(timeout=120)
    assert _digests(fresh, redo["key"]) == reference
    fresh.stop()

    # from here on, *any* execution is a test failure
    def explode(spec, artifact_dir, ctx=None):
        raise AssertionError("cache hit must not execute anything")

    monkeypatch.setattr(queue_mod, "execute_job", explode)

    again = cold.submit("annotate", SPEC)
    assert again["cached"] and again["disposition"] == "cached"
    assert again["id"] == first["id"]
    assert again["state"] == "done"
    assert again["result"] == done["result"]
    assert again["artifacts"] == done["artifacts"]
    cold.drain(timeout=10)  # nothing queued: returns immediately
    assert cold.stats.cache_hits == 1 and cold.stats.executed == 1
    # stored artifacts are untouched bytes
    assert _digests(cold, done["key"]) == reference
    cold.stop()


def test_concurrent_duplicates_coalesce_to_one_run(tmp_path, monkeypatch):
    queue = JobQueue(ServiceConfig(data_dir=str(tmp_path)))

    release = threading.Event()
    executions = []

    def gated(spec, artifact_dir, ctx=None):
        executions.append(spec["kind"])
        assert release.wait(30), "test never released the worker"
        return {"ok": True}

    monkeypatch.setattr(queue_mod, "execute_job", gated)
    queue.start()

    first = queue.submit("annotate", SPEC)
    assert first["disposition"] == "new"
    # wait for the worker to be *inside* the job
    for _ in range(500):
        if executions:
            break
        threading.Event().wait(0.01)
    assert executions == ["annotate"]

    results = []
    lock = threading.Lock()

    def dup():
        payload = queue.submit("annotate", SPEC)
        with lock:
            results.append(payload["disposition"])

    threads = [threading.Thread(target=dup) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == ["coalesced"] * 6

    release.set()
    queue.drain(timeout=30)
    assert executions == ["annotate"]  # exactly one run for 7 submissions
    assert queue.db.job(first["id"])["state"] == "done"
    assert queue.stats.coalesced == 6 and queue.stats.executed == 1

    # and now that it is done, an eighth submission is a plain cache hit
    assert queue.submit("annotate", SPEC)["disposition"] == "cached"
    queue.stop()
