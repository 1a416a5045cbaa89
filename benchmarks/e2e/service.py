"""The ``service`` workload: a live ``repro-serve`` daemon under an
open-loop mix of reads and writes.

Setup starts the daemon as a subprocess (``--workers 1 --pool-jobs 1``,
port 0, data directory inside the run's work directory) and runs the
:data:`WARM` jobs to completion.  The load then follows a seeded schedule
of due times spread evenly over ``seconds`` (:meth:`Service.schedule`):
cache-hit resubmissions of the warm jobs (reads, :data:`HIT_RATE` per
second) and cold ``annotate`` jobs from ``source`` text (writes,
:data:`COLD_RATE` per second: parse, trace with the daemon's default-on
verification, Cachier, persist).  One thread
sends; one thread polls the ledger for finished writes every
:data:`POLL_S` seconds, so the client never holds more than two
connections.

Latency counts from each request's due time: a read ends when its
response arrives, a write at the ledger's ``finished_at`` (client and
daemon share the host clock).  The per-layer numbers come only from the
daemon's existing telemetry: ledger timestamps, ``/api/trace`` job-phase
spans, ``/api/status`` and ``/proc``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

from benchmarks.e2e.metrics import ROOT, latency_metrics, median, quantile
from repro.cachier.annotator import Cachier, Policy
from repro.errors import ServiceError
from repro.harness import runner
from repro.lang import unparse
from repro.service.client import TERMINAL_STATES, ServiceClient
from repro.workloads.base import get_workload, spec_from_source

#: jobs run during setup; every read resubmits one of them
WARM = tuple(
    ("annotate", {"workload": workload, "policy": policy})
    for workload in ("matmul_racing", "jacobi", "mp3d", "fft")
    for policy in ("performance", "programmer")
) + (
    ("bench", {"workload": "mp3d"}),
    ("profile", {"workload": "mp3d", "variant": "cachier"}),
    ("critpath", {"workload": "mp3d", "variant": "cachier"}),
    ("verify", {"workload": "mp3d", "variant": "cachier"}),
)
HIT_RATE = 50.0
#: Writes per second: about 20% worker utilisation on an unslowed 2-vCPU
#: host.  Reads that overlap a running write wait for the interpreter lock,
#: so their latency is bimodal; at 2.5 writes/s a slowed host pushed the
#: overlapping share near one half and the median read flipped between the
#: two modes from run to run.
COLD_RATE = 1.5
POLL_S = 0.1
#: seconds the load may take to drain after the last request is sent
DRAIN_S = 60.0
#: writes per run recomputed in-process when the oracle does not cover them
SAMPLE = 6
#: programs per seed whose ``annotated.src`` digest ``expected.json`` holds
ORACLE_PROGRAMS = 120

#: One corpus round: source programs whose isolated cold job takes at most
#: about 0.35 s with verification on a 2-vCPU host (matmul_racing at n >= 24
#: takes 1-3.5 s and would saturate the single worker).  Each round draws a
#: fresh data seed, so its programs are distinct from every other round's.
ROUND = (
    ("mp3d", {"nparticles": 64, "ncells": 32, "steps": 2, "num_nodes": 4}),
    ("mp3d", {"nparticles": 128, "ncells": 64, "steps": 2, "num_nodes": 8}),
    ("mp3d", {"nparticles": 128, "ncells": 64, "steps": 3, "num_nodes": 8}),
    ("matmul_racing", {"n": 8, "num_nodes": 4}),
    ("matmul_racing", {"n": 12, "num_nodes": 4}),
    ("matmul_racing", {"n": 8, "num_nodes": 16}),
    ("fft", {"n": 16, "steps": 1, "num_nodes": 4}),
    ("fft", {"n": 16, "steps": 2, "num_nodes": 8}),
    ("fft", {"n": 32, "steps": 1, "num_nodes": 8}),
)
#: jacobi has no data seed; each round takes the next of these sizes (and a
#: larger cache once they run out)
JACOBI = tuple(
    {"n": n, "steps": steps, "num_nodes": nodes}
    for n in (8, 16, 24) for steps in (2, 3) for nodes in (4, 16)
)


def corpus(seed: int, count: int) -> list[tuple[str, str, dict]]:
    """``count`` distinct ``(name, family, make() kwargs)`` cold programs.

    Rounds keep the same mix of sizes at every seed; the seed picks the
    data values and the order within each round."""
    rng = random.Random(f"corpus-{seed}")
    entries: list[tuple[str, str, dict]] = []
    rnd = 0
    while len(entries) < count:
        batch = [
            (f"{family}-{i}-r{rnd}", family, {**kwargs, "seed": seed * 1000 + rnd})
            for i, (family, kwargs) in enumerate(ROUND)
        ]
        jacobi = JACOBI[rnd % len(JACOBI)]
        batch.append((f"jacobi-r{rnd}", "jacobi",
                      {**jacobi, "cache_size": 4096 << (rnd // len(JACOBI))}))
        rng.shuffle(batch)
        entries += batch
        rnd += 1
    return entries[:count]


def source_params(family: str, kwargs: dict) -> dict:
    """The ``annotate`` job parameters that submit one corpus program as
    self-describing source text."""
    spec = get_workload(family, **kwargs)
    return {"source": {
        "text": unparse.unparse_program(spec.program, declarations=True),
        "name": family,
        "num_nodes": spec.config.num_nodes,
        "cache_size": spec.config.cache_size,
        "block_size": spec.config.block_size,
        "assoc": spec.config.assoc,
        "params": {str(node): spec.params_fn(node)
                   for node in range(spec.config.num_nodes)},
    }}


def annotate_text(params: dict) -> str:
    """What a cold job's ``annotated.src`` must hold, computed in-process
    through the library (trace run, Cachier, unparse)."""
    src = params["source"]
    spec = spec_from_source(
        src["text"], name=src["name"], num_nodes=src["num_nodes"],
        cache_size=src["cache_size"], block_size=src["block_size"],
        assoc=src["assoc"], params=src["params"],
    )
    trace = runner.trace_program(spec.program, spec.config, spec.params_fn)
    result = Cachier(spec.program, trace, params_fn=spec.params_fn,
                     cache_size=spec.cachier_cache_size).annotate(
        Policy.PERFORMANCE)
    return unparse.unparse_program(result.program, declarations=True)


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


class Daemon:
    """One ``repro-serve`` subprocess; :meth:`stop` waits for it to end."""

    def __init__(self, data_dir: Path):
        self.data_dir = data_dir
        self.proc: subprocess.Popen | None = None
        self.client: ServiceClient | None = None

    def start(self, timeout: float = 60.0) -> None:
        self.data_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(self.data_dir / "stderr.txt", "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service.cli", "serve",
                 "--data-dir", str(self.data_dir), "--port", "0",
                 "--workers", "1", "--pool-jobs", "1",
                 "--log-file", str(self.data_dir / "serve.jsonl")],
                env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=err,
            )
        info = self.data_dir / "service.json"
        deadline = time.monotonic() + timeout
        while not info.exists():
            if self.proc.poll() is not None:
                raise ServiceError(
                    f"repro-serve exited with {self.proc.returncode}: "
                    + (self.data_dir / "stderr.txt").read_text()[-2000:]
                )
            if time.monotonic() > deadline:
                raise ServiceError("repro-serve did not start")
            time.sleep(0.02)
        self.client = ServiceClient(json.loads(info.read_text())["url"])

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None

    def cpu_s(self) -> float:
        """User + system CPU seconds the daemon has used so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = fields.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise ServiceError("no VmHWM in /proc status")

    def wait(self, job_ids, timeout: float) -> dict[int, dict]:
        rows = {}
        deadline = time.monotonic() + timeout
        for job_id in job_ids:
            while True:
                row = self.client.job(job_id)
                if row["state"] in TERMINAL_STATES:
                    rows[job_id] = row
                    break
                if time.monotonic() > deadline:
                    raise ServiceError(f"job {job_id} still {row['state']}")
                time.sleep(0.02)
        return rows


def _q(values, q: float) -> float:
    return quantile(values, q) if values else 0.0


class Service:
    """Setup, load and checks of the ``service`` workload."""

    name = "service"

    def __init__(self, seed: int, oracle: dict, seconds: float, warm=WARM):
        self.seed = seed
        self.oracle = oracle
        self.seconds = seconds
        self.warm = tuple(warm)
        self.n_hits = round(HIT_RATE * seconds)
        self.n_colds = round(COLD_RATE * seconds)
        self.daemon: Daemon | None = None
        self.warm_results: list = []
        self.entries: list = []
        self.cold_params: list[dict] = []

    def setup(self, workdir: Path) -> None:
        self.daemon = Daemon(workdir / "serve")
        self.daemon.start()
        client = self.daemon.client
        ids = [client.submit(kind, params)["id"] for kind, params in self.warm]
        rows = self.daemon.wait(ids, timeout=120)
        bad = [row for row in rows.values() if row["state"] != "done"]
        if bad:
            raise ServiceError(f"warm job failed: {bad[0].get('error')}")
        self.warm_results = [client.job(i)["result"] for i in ids]
        self.entries = corpus(self.seed, self.n_colds)
        self.cold_params = [source_params(family, kwargs)
                            for _name, family, kwargs in self.entries]

    def teardown(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()

    def schedule(self) -> list[tuple[float, str, int]]:
        """``(due offset, kind, index)`` in due order.  For each kind the
        window is cut into one equal slot per request, each due at a seeded
        uniform offset in its slot, so writes never bunch up by chance.
        Reads pick a warm job at random; writes take the corpus in order."""
        rng = random.Random(f"schedule-{self.seed}")
        hit_slot = self.seconds / self.n_hits
        cold_slot = self.seconds / self.n_colds
        due = [((i + rng.random()) * hit_slot, "hit",
                rng.randrange(len(self.warm))) for i in range(self.n_hits)]
        due += [((i + rng.random()) * cold_slot, "cold", i)
                for i in range(self.n_colds)]
        return sorted(due)

    def measure(self) -> dict:
        """Run the open loop; returns samples, counts and problems."""
        client = self.daemon.client
        lock = threading.Lock()
        pending: dict[int, dict] = {}
        finished: list[dict] = []
        sent_all = threading.Event()
        abort = threading.Event()
        problems: list[str] = []

        def poll() -> None:
            while not abort.is_set():
                with lock:
                    ids = list(pending)
                    if not ids and sent_all.is_set():
                        return
                for job_id in ids:
                    try:
                        row = client.job(job_id)
                    except ServiceError as exc:
                        problems.append(f"poll {job_id}: {exc}")
                        continue
                    if row["state"] in TERMINAL_STATES:
                        with lock:
                            rec = pending.pop(job_id)
                        rec["row"] = row
                        finished.append(rec)
                time.sleep(POLL_S)

        before = client.status()["stats"]
        cpu0 = self.daemon.cpu_s()
        hit_ms: dict[int, list[float]] = {}  # by warm job
        late_ms = []
        attempted = failed = 0
        poller = threading.Thread(target=poll, name="e2e-poller", daemon=True)
        poller.start()
        t0 = time.perf_counter()
        w0 = time.time()
        try:
            for due, kind, idx in self.schedule():
                target = t0 + due
                delay = target - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                late_ms.append((time.perf_counter() - target) * 1e3)
                attempted += 1
                if kind == "hit":
                    wkind, wparams = self.warm[idx]
                    try:
                        payload = client.submit(wkind, wparams)
                        ok = (payload["cached"] and payload["state"] == "done"
                              and payload["result"] == self.warm_results[idx])
                    except ServiceError as exc:
                        ok, payload = False, {"error": str(exc)}
                    hit_ms.setdefault(idx, []).append(
                        (time.perf_counter() - target) * 1e3)
                    if not ok:
                        failed += 1
                        problems.append(f"read {wkind}: not a cache hit: "
                                        f"{str(payload)[:200]}")
                    continue
                send_wall = time.time()
                try:
                    payload = client.submit("annotate", self.cold_params[idx])
                except ServiceError as exc:
                    failed += 1
                    problems.append(f"write {self.entries[idx][0]}: {exc}")
                    continue
                if payload["disposition"] != "new":
                    problems.append(f"write {self.entries[idx][0]}: "
                                    f"{payload['disposition']}, not cold")
                with lock:
                    pending[payload["id"]] = {
                        "idx": idx, "due_wall": w0 + due, "send_wall": send_wall,
                    }
        finally:
            sent_all.set()
            poller.join(timeout=DRAIN_S)
            abort.set()
            poller.join(timeout=10)
        cpu1 = self.daemon.cpu_s()
        after = client.status()["stats"]
        with lock:
            lost = list(pending.values())
        failed += len(lost)
        problems += [f"write {self.entries[rec['idx']][0]}: not finished "
                     f"after {DRAIN_S:.0f} s" for rec in lost]
        return {
            "hit_ms": hit_ms, "late_ms": late_ms, "finished": finished,
            "attempted": attempted, "failed": failed, "problems": problems,
            "cpu_s": cpu1 - cpu0,
            "hits": after["cache_hits"] - before["cache_hits"],
            "submitted": after["submitted"] - before["submitted"],
            "trace": client.trace()["traceEvents"],
            "peak_rss_mb": self.daemon.peak_rss_mb(),
        }

    def check_writes(self, finished: list[dict]) -> tuple[int, list[str]]:
        """Failed writes: jobs not ``done``, and ``annotated.src`` that
        differs from the oracle.  Programs the oracle does not cover (every
        program at a seed without an entry) are checked on a seeded sample
        of :data:`SAMPLE` recomputed in-process."""
        client = self.daemon.client
        known = self.oracle.get(str(self.seed), {}).get("service", {})
        done = [rec for rec in finished if rec["row"]["state"] == "done"]
        problems = [
            f"write {self.entries[rec['idx']][0]}: job failed: "
            f"{rec['row'].get('error')}"
            for rec in finished if rec["row"]["state"] != "done"
        ]
        unknown = [rec for rec in done if self.entries[rec["idx"]][0] not in known]
        rng = random.Random(f"sample-{self.seed}")
        sample = rng.sample(unknown, min(SAMPLE, len(unknown)))
        for rec in [r for r in done if r not in unknown] + sample:
            name = self.entries[rec["idx"]][0]
            got = sha256(client.artifact(rec["row"]["id"], "annotated.src"))
            want = known.get(name) or sha256(
                annotate_text(self.cold_params[rec["idx"]]))
            if got != want:
                problems.append(f"write {name}: annotated.src sha256 "
                                f"{got[:12]} != expected")
        return len(problems), problems

    def metrics(self, load: dict) -> tuple[dict, dict]:
        """(end-to-end metrics, per-layer service metrics).

        The end-to-end metrics take one latency per request class, as the
        batch workloads do per work-list item: the median of a warm job's
        reads, and the mean of a program family's writes (a handful of
        writes of mixed sizes, where a median would jump from one size to
        the next; every round holds the same mix of sizes per family).
        The per-layer metrics are over every request.

        Unlike batch op times, these latencies are not scaled to the
        reference host speed: they include fixed waits (the worker's poll,
        the schedule) and slowed by about half the speed probe's slowdown,
        so scaling by the probe overcorrected them."""
        cold = [rec for rec in load["finished"] if rec["row"]["state"] == "done"]
        by_class: dict[str, list[float]] = {}
        for rec in cold:
            family = self.entries[rec["idx"]][1]
            by_class.setdefault(family, []).append(
                (rec["row"]["finished_at"] - rec["due_wall"]) * 1e3)
        cold_ms = [ms for samples in by_class.values() for ms in samples]
        hit_ms = [ms for samples in load["hit_ms"].values() for ms in samples]
        classes = ([median(c) for c in load["hit_ms"].values()]
                   + [sum(c) / len(c) for c in by_class.values()])
        ids = {rec["row"]["id"] for rec in cold}
        phases: dict[str, list[float]] = {}
        for event in load["trace"]:
            if event.get("cat") == "phase" and event["args"].get("job") in ids:
                phases.setdefault(event["name"], []).append(event["dur"] / 1e3)

        def gap(a: str, b: str) -> list[float]:
            return [(rec["row"][b] - rec["row"][a]) * 1e3 for rec in cold]

        accept = [(rec["row"]["submitted_at"] - rec["send_wall"]) * 1e3
                  for rec in cold]
        layer = {
            "service.accept_ms.p50": _q(accept, 0.5),
            "service.queue_wait_ms.p50": _q(gap("submitted_at", "started_at"), 0.5),
            "service.queue_wait_ms.p90": _q(gap("submitted_at", "started_at"), 0.9),
            "service.exec_ms.p50": _q(gap("started_at", "finished_at"), 0.5),
            "service.exec_ms.p90": _q(gap("started_at", "finished_at"), 0.9),
            "service.phase.simulate_ms.p50": _q(phases.get("simulate", []), 0.5),
            "service.phase.annotate_ms.p50": _q(phases.get("annotate", []), 0.5),
            "service.phase.persist_ms.p50": _q(phases.get("persist", []), 0.5),
            "service.cache_hit_frac": (load["hits"] / load["submitted"]
                                       if load["submitted"] else 0.0),
            "service.daemon_cpu_s": load["cpu_s"],
            "service.hit_ms.p50": _q(hit_ms, 0.5),
            "service.hit_ms.p99": _q(hit_ms, 0.99),
            "service.cold_ms.p50": _q(cold_ms, 0.5),
            "service.cold_ms.p90": _q(cold_ms, 0.9),
            "gen.late_ms.p99": _q(load["late_ms"], 0.99),
        }
        return latency_metrics(classes), layer
