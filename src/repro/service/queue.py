"""The daemon's work queue: submission, worker threads, crash recovery.

:class:`JobQueue` owns the data directory — the sqlite ledger
(:mod:`repro.service.db`) plus one artifact directory per content hash
(``artifacts/<key>/``) — and drains queued jobs with worker threads.
A submission that queues a job wakes an idle worker, which claims the
oldest queued job, executes it through
:func:`repro.service.jobs.execute_job` (which fans sweeps out through the
process pool), and records the outcome.

Cache semantics live at submission time, in the ledger's UNIQUE key:

* a key already ``done`` is a **cache hit** — no job is created, no
  simulator cycle runs, the response points at the stored artifacts;
* a key already ``queued``/``running`` **coalesces** — concurrent
  duplicate submissions share the single in-flight run;
* a key that previously ``failed`` is **requeued** — failures are not
  cached (they may have been environmental).

Crash recovery composes two ledgers: on startup :meth:`JobQueue.start`
moves jobs a killed daemon left ``running`` back to ``queued``
(:meth:`JobDb.recover`), and when such a job re-executes, the *sweep*
ledger inside its artifact directory resumes the run from its last
completed (benchmark, variant) — so the finished artifact set is
byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError, ServiceError
from repro.obs.logs import bind, get_logger
from repro.obs.telemetry import ServiceTelemetry
from repro.service.db import JobDb
from repro.service.hashing import job_key
from repro.service.jobs import (
    ExecContext,
    execute_job,
    list_artifacts,
    normalize_spec,
)

ARTIFACTS_DIR = "artifacts"


@dataclass
class ServiceConfig:
    """Daemon configuration (one per data dir)."""

    data_dir: str
    workers: int = 1
    pool_jobs: int = 1
    #: default-on verification for served jobs (submissions may opt out)
    verify_default: bool = True
    #: how many interrupted attempts before a job is abandoned
    max_retries: int = 3
    #: service metrics + tracing (``repro-serve --no-telemetry`` turns the
    #: collectors into no-ops; structured logging is independent of this)
    telemetry: bool = True


@dataclass
class QueueStats:
    """In-memory since-start counters, reported by ``/api/status``."""

    submitted: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    requeued: int = 0
    executed: int = 0
    failed: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def bump(self, name: str) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + 1)

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "requeued": self.requeued,
            "executed": self.executed,
            "failed": self.failed,
        }


class JobQueue:
    """Everything the HTTP layer needs: submit, inspect, drain."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.data_dir = Path(config.data_dir)
        self.db = JobDb(self.data_dir)
        self.artifacts_root = self.data_dir / ARTIFACTS_DIR
        self.artifacts_root.mkdir(parents=True, exist_ok=True)
        self.stats = QueueStats()
        self.started_at = time.time()
        self.telemetry = ServiceTelemetry(enabled=config.telemetry)
        self.log = get_logger("repro.service.queue")
        # Idle workers, stop() and drain() all wait on this one condition:
        # a submission that queues work wakes it, and so does every
        # finished job and stop().  No thread polls the ledger.
        self._wake = threading.Condition()
        self._stopping = False
        self._workers: list[threading.Thread] = []
        self._ctx = ExecContext(pool_jobs=config.pool_jobs)
        # submissions whose flow arrow still awaits its job run: job id ->
        # correlation ids (new/coalesced/requeued; cached hits never flow)
        self._flow_lock = threading.Lock()
        self._pending_flows: dict[int, list[int]] = {}

    # ----------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Recover interrupted jobs, then start the worker threads."""
        requeued, abandoned = self.db.recover(self.config.max_retries)
        for row in requeued:
            self.log.warning(
                "job recovered", job=row["id"], kind=row["kind"],
                attempt=row["retries"] + 1,
            )
            self.telemetry.retry()
        for row in abandoned:
            self.log.error(
                "job abandoned", job=row["id"], kind=row["kind"],
                retries=row["retries"],
            )
        self.telemetry.set_queue_gauges(self.db.counts())
        for i in range(max(1, self.config.workers)):
            worker = threading.Thread(
                target=self._worker_loop, name=f"repro-worker-{i}",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the workers; one running a job finishes it first."""
        with self._wake:
            self._stopping = True
            self._wake.notify_all()
        for worker in self._workers:
            worker.join(timeout)
        self._workers.clear()

    def drain(self, timeout: float = 300.0) -> None:
        """Block until no job is queued or running, or raise
        :class:`ServiceError` after ``timeout`` seconds.  In-process
        callers (tests, benchmarks) use it; the daemon never does."""
        deadline = time.monotonic() + timeout
        with self._wake:
            while True:
                counts = self.db.counts()
                if counts["queued"] == 0 and counts["running"] == 0:
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServiceError(
                        f"queue did not drain within {timeout}s"
                    )
                self._wake.wait(remaining)

    # ---------------------------------------------------------------- api
    def submit(self, kind: str, params: dict | None) -> dict:
        """Normalize, hash, and record one submission.

        Never executes anything inline: a fresh key is queued for the
        workers; a known key reuses the existing row (see module doc).
        """
        spec = normalize_spec(
            kind, params, verify_default=self.config.verify_default
        )
        key = job_key(spec)
        correlation = self.telemetry.next_id()
        # The ledger read and the flow's registration share one lock with
        # the end of a run (_execute_row), which drops the flows of the
        # submissions that joined it: a submission that reads the ledger
        # after that finds the job done or failed, never running.
        with self._flow_lock:
            row, disposition = self.db.submit(
                key, kind, json.dumps(spec, sort_keys=True)
            )
            if disposition != "cached":
                self._pending_flows.setdefault(row["id"], []).append(
                    correlation
                )
        self.stats.bump("submitted")
        if disposition == "cached":
            self.stats.bump("cache_hits")
        elif disposition == "coalesced":
            self.stats.bump("coalesced")
        elif disposition == "requeued":
            self.stats.bump("requeued")
        self.telemetry.submission(disposition)
        if disposition == "requeued":
            self.telemetry.retry()
        if disposition in ("new", "requeued"):
            with self._wake:
                self._wake.notify_all()
        self.telemetry.set_queue_gauges(self.db.counts())
        self.log.info(
            "job submitted", correlation=correlation, job=row["id"],
            kind=kind, disposition=disposition, key=row["key"][:12],
        )
        payload = self.job_payload(row)
        payload["disposition"] = disposition
        payload["cached"] = disposition == "cached"
        payload["correlation_id"] = correlation
        return payload

    def job_payload(self, row: dict) -> dict:
        """One job row as the API serves it (spec/result JSON decoded,
        artifact names attached)."""
        payload = dict(row)
        payload["spec"] = json.loads(row["spec"]) if row.get("spec") else None
        payload["result"] = (
            json.loads(row["result"]) if row.get("result") else None
        )
        payload["artifacts"] = (
            list_artifacts(str(self.artifact_dir(row["key"])))
            if row["state"] in ("done", "failed") else []
        )
        return payload

    def artifact_dir(self, key: str) -> Path:
        return self.artifacts_root / key

    def artifact_path(self, job_id: int, name: str) -> Path:
        """Resolve one artifact safely inside the job's directory."""
        row = self.db.job(job_id)
        root = self.artifact_dir(row["key"]).resolve()
        path = (root / name).resolve()
        if root not in path.parents and path != root:
            raise ServiceError(f"artifact name escapes the job directory: "
                               f"{name!r}")
        if not path.is_file():
            raise ServiceError(f"job {job_id} has no artifact {name!r}")
        return path

    def status(self) -> dict:
        from repro.cliutil import package_version

        return {
            "version": package_version(),
            "uptime_s": round(time.time() - self.started_at, 3),
            "workers": len(self._workers),
            "pool_jobs": self.config.pool_jobs,
            "verify_default": self.config.verify_default,
            "telemetry": self.telemetry.enabled,
            "jobs": self.db.counts(),
            "stats": self.stats.as_dict(),
        }

    # ------------------------------------------------------------- worker
    def _worker_loop(self) -> None:
        while True:
            with self._wake:
                # Claim under the condition's lock: a submission committed
                # after an empty claim then finds this worker waiting, so
                # its wake-up cannot be lost.
                row = None
                while row is None:
                    if self._stopping:
                        return
                    row = self.db.claim_next()
                    if row is None:
                        self._wake.wait()
            self._execute_row(row)
            with self._wake:
                self._wake.notify_all()  # drain() re-reads the counts

    def _execute_row(self, row: dict) -> None:
        spec = json.loads(row["spec"])
        artifact_dir = str(self.artifact_dir(row["key"]))
        with self._flow_lock:
            correlations = self._pending_flows.pop(row["id"], [])
        self.telemetry.set_queue_gauges(self.db.counts())
        started = time.monotonic()
        with bind(job=row["id"], kind=row["kind"]):
            self.log.info("job started", attempt=row["retries"] + 1)
            with self.telemetry.tracer.run_job(
                row["id"], row["kind"], row["submitted_at"],
                row["started_at"] or time.time(), correlations,
            ):
                outcome = self._execute_inner(row, spec, artifact_dir)
            # submissions that coalesced onto the job while it ran: their
            # arrows never reach this run, and the ledger row has left
            # 'running', so no later one can join them
            with self._flow_lock:
                self._pending_flows.pop(row["id"], None)
            self.telemetry.job_finished(
                row["kind"], outcome, time.monotonic() - started
            )
        self.telemetry.set_queue_gauges(self.db.counts())

    def _execute_inner(self, row: dict, spec: dict,
                       artifact_dir: str) -> str:
        """Run the executor and record the outcome; returns the outcome
        label (``ok`` / ``failed`` / ``error``) for the metrics."""
        try:
            result = execute_job(spec, artifact_dir, self._ctx)
        except ReproError as exc:
            first = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
            self.db.fail(row["id"], f"{type(exc).__name__}: {first}")
            self.stats.bump("failed")
            # the one place a job failure is logged: id, error and the full
            # traceback as a structured field
            self.log.error("job failed", error=first,
                           error_type=type(exc).__name__, exc_info=True)
            return "failed"
        except Exception as exc:  # programming error: record it loudly,
            # keep the daemon alive for the other jobs
            self.db.fail(row["id"], f"internal error: {exc!r}")
            self.stats.bump("failed")
            self.log.exception("job internal error", error=repr(exc))
            return "error"
        self.db.finish(row["id"], json.dumps(result, sort_keys=True))
        self.stats.bump("executed")
        self.log.info("job done")
        return "ok"


__all__ = ["ARTIFACTS_DIR", "JobQueue", "QueueStats", "ServiceConfig"]
