"""A daemon killed (SIGKILL) mid-sweep resumes its queue from the sqlite
ledger and finishes with artifacts byte-identical to an uninterrupted run.

This composes the two ledgers: the job ledger (``running`` → requeued on
restart) and the sweep ledger inside the job's artifact directory
(completed (benchmark, variant) runs are never re-executed).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.service.client import ServiceClient
from repro.service.queue import JobQueue, ServiceConfig

SRC = Path(__file__).resolve().parents[2] / "src"
SPEC = {"benchmarks": ["mp3d"], "include_prefetch": False, "verify": False}


def _digests(artifacts_root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(artifacts_root)):
            hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(artifacts_root.rglob("*")) if p.is_file()
    }


def _start_daemon(data_dir: Path, log_path: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    with open(log_path, "ab") as log:  # the daemon keeps its own copy
        return subprocess.Popen(
            [sys.executable, "-m", "repro.service.cli", "serve",
             "--data-dir", str(data_dir), "--port", "0"],
            env=env, stdout=log, stderr=log,
        )


def _client_for(data_dir: Path, proc: subprocess.Popen,
                timeout: float = 30.0) -> ServiceClient:
    """Wait for *this* daemon process's service.json, then for liveness."""
    service_file = data_dir / "service.json"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(f"daemon exited early: rc={proc.returncode}")
        try:
            info = json.loads(service_file.read_text())
            if info["pid"] == proc.pid:
                client = ServiceClient(info["url"], timeout=5)
                if client.healthy():
                    return client
                client.close()
        except (FileNotFoundError, json.JSONDecodeError, KeyError):
            pass
        time.sleep(0.05)
    raise AssertionError("daemon never became healthy")


def test_sigkill_mid_sweep_resumes_byte_identical(tmp_path):
    # ---- reference: the same job, uninterrupted (in-process is fine:
    # the executors are identical code either way)
    ref_dir = tmp_path / "reference"
    ref_queue = JobQueue(ServiceConfig(data_dir=str(ref_dir)))
    ref_queue.start()
    ref_queue.submit("figure6", SPEC)
    ref_queue.drain(timeout=240)
    ref_queue.stop()
    reference = _digests(ref_dir / "artifacts")
    assert any(name.endswith("figure6.txt") for name in reference)

    # ---- victim daemon: submit, wait for the sweep's first completed
    # run to hit its ledger, then SIGKILL the whole process
    victim_dir = tmp_path / "victim"
    log = tmp_path / "daemon.log"
    proc = _start_daemon(victim_dir, log)
    try:
        client = _client_for(victim_dir, proc)
        payload = client.submit("figure6", SPEC)
        client.close()
        assert payload["disposition"] == "new"
        job_id, key = payload["id"], payload["key"]

        ledger = victim_dir / "artifacts" / key / "figure6.sweep.json"
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if ledger.exists() and json.loads(ledger.read_text() or "{}"):
                break
            time.sleep(0.02)
        else:
            raise AssertionError("sweep ledger never got its first entry")
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()

    completed_at_kill = json.loads(ledger.read_text())
    # the kill landed mid-sweep: some runs done, not all three
    assert 1 <= len(completed_at_kill) < 3, completed_at_kill

    # ---- restart on the same data dir: recovery requeues the job and
    # the sweep resumes past the completed runs
    proc = _start_daemon(victim_dir, log)
    try:
        client = _client_for(victim_dir, proc)
        finished = client.wait(job_id, timeout=240)
        assert finished["state"] == "done"
        assert finished["retries"] >= 1  # it really was interrupted
        # the completed-at-kill runs were not re-executed: their ledger
        # entries (cycles) are unchanged in the final ledger
        final_ledger = json.loads(ledger.read_text())
        for run, cycles in completed_at_kill.items():
            assert final_ledger[run] == cycles
        # resubmission after recovery is a cache hit
        assert client.submit("figure6", SPEC)["cached"] is True
        client.close()
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()

    # ---- the acceptance property: byte-identical artifact trees
    resumed = _digests(victim_dir / "artifacts")
    assert resumed == reference
