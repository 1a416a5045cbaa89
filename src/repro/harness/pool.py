"""Process-pool sweep executor with a byte-identical determinism contract.

Every sweep the harness runs — the Figure-6 table, ``repro-obs bench``
baselines, ``repro-verify`` coverage — is a set of *independent* simulation
runs: (workload, variant, faults seed) triples that share no state.  This
module fans those runs out across worker processes, WWT-style (the
Wisconsin Wind Tunnel parallelized its simulations across CM-5 nodes), with
three guarantees the rest of the repo builds on:

**Determinism.**  A parallel sweep produces byte-identical artefacts to the
serial one: per-run manifests and Chrome traces are written by whichever
worker executed the run, but the simulation is seeded and pure so the bytes
cannot depend on scheduling; parent-side outputs (tables, ledgers, PASS
lines) are produced through :class:`SweepPool`'s *ordered* completion
callback — results are released to the caller in submission order, never in
completion order.  ``tests/harness/test_parallel_determinism.py`` and the
``sweep-parallel`` CI job diff the two paths byte for byte.

**Graceful worker failure.**  A run that raises a
:class:`~repro.errors.ReproError` (a watchdog kill, a corrupt input) fails
only itself: the worker returns a structured error outcome and the sweep
continues.  A run whose worker process *dies* (segfault, ``os._exit``, OOM
kill) breaks the executor; the pool rebuilds it and re-runs every
unharvested task in an isolated single-worker pool so the crash can be
attributed to exactly one task.  Either way the task is retried once and,
if it fails again, the sweep completes with a structured per-run error
row instead of dying.  A verify violation is not a failure here but the
run's result, which the ``run`` task returns (see :func:`_exec_run`).

**In-process debugging.**  ``jobs=1`` (the default without ``--jobs`` /
``REPRO_JOBS``) executes every task inline in the parent process — same
code path, same callbacks, no subprocesses — so ``pdb`` and monkeypatching
work exactly as before the pool existed.

See ``docs/parallelism.md`` for the full contract.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import PoolError, ReproError

#: environment variable naming a task key whose worker hard-crashes
#: (``os._exit``) — the fault-injection hook the crash tests and CI use.
CRASH_ENV = "REPRO_POOL_CRASH"
#: environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"
#: exit status of a deliberately crashed worker (test hook).
_CRASH_STATUS = 32
#: attempts per task: a failed task is retried once before its error
#: outcome is final
MAX_ATTEMPTS = 2


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit ``jobs`` wins, then ``$REPRO_JOBS``, then 1.

    ``0`` (either source) means "auto": one worker per available CPU.
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV)
        if env is None or not env.strip():
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise PoolError(
                f"{JOBS_ENV} must be an integer (0 = one per CPU), "
                f"got {env!r}"
            ) from None
    if jobs < 0:
        raise PoolError(f"--jobs must be >= 0 (0 = one per CPU), got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


@dataclass(frozen=True)
class RunTask:
    """One independent simulation run, picklable for worker dispatch.

    ``kind`` selects the executor function (see ``_EXECUTORS``), ``key``
    uniquely names the run inside its sweep (``"mp3d/cachier"``), and
    ``payload`` holds the executor's keyword arguments — plain data only.
    """

    kind: str
    key: str
    payload: tuple = ()  # sorted (name, value) pairs; dicts don't hash

    @staticmethod
    def make(kind: str, key: str, **payload) -> "RunTask":
        return RunTask(kind=kind, key=key, payload=tuple(sorted(payload.items())))

    @property
    def kwargs(self) -> dict:
        return dict(self.payload)


@dataclass
class RunOutcome:
    """What became of one task: a value, or a structured error."""

    task: RunTask
    ok: bool
    value: object = None
    #: ``{"kind": exception class, "message": one line, "crash": bool}``
    error: dict | None = None
    attempts: int = 1

    def error_row(self) -> list:
        """Render as one row of the per-run error table."""
        err = self.error or {}
        return [
            self.task.key,
            self.attempts,
            err.get("kind", "?"),
            err.get("message", ""),
        ]


ERROR_HEADERS = ["run", "attempts", "error", "detail"]


def render_errors(outcomes: list[RunOutcome]) -> str:
    from repro.harness.reporting import render_table

    return render_table(
        ERROR_HEADERS,
        [out.error_row() for out in outcomes if not out.ok],
        title="failed runs (sweep completed; exit status will be 2)",
    )


def summarize_failures(outcomes: list[RunOutcome], total: int) -> PoolError:
    """The one-line diagnostic ``run_cli`` prints for a failed sweep."""
    failed = [out for out in outcomes if not out.ok]
    first = failed[0]
    err = first.error or {}
    return PoolError(
        f"{len(failed)} of {total} sweep runs failed "
        f"(first: {first.task.key}: {err.get('message', 'unknown error')} "
        f"after {first.attempts} attempt(s))"
    )


# --------------------------------------------------------------- executors
#
# Worker-side task bodies.  Each takes only picklable keyword arguments and
# returns only picklable values; each rebuilds whatever heavyweight context
# it needs (variant sets are memoised per worker process, below).

def _exec_probe(value=None, fail=False, sleep=0.0):
    """Test-only task: echo ``value``, optionally failing."""
    if sleep:
        import time

        time.sleep(sleep)
    if fail:
        raise PoolError(f"probe task failed deliberately (value={value!r})")
    return value


def _exec_run(spec, obs_dir=None):
    """One run of a named variant (a :class:`~repro.harness.runner.RunSpec`)
    through :func:`~repro.harness.runner.execute`; returns its cycles and,
    when verified, its report as a dict.

    With ``obs_dir`` the run's Chrome trace and JSONL manifest are written
    there (``<workload>-<variant>.trace.json`` / ``.manifest.jsonl``, ``+``
    in variant names mapped to ``_``) by whichever process executes it —
    the bytes are the same either way, because the simulation is seeded
    and pure.  A :class:`~repro.errors.VerifyError` is a *result*, not a
    pool failure: the run is deterministic, so a retry would only repeat
    it.  It comes back as ``cycles: None`` with the failure report.
    """
    from repro.errors import VerifyError
    from repro.harness.runner import execute

    try:
        result, obs = execute(spec)
    except VerifyError as exc:
        return {"cycles": None, "verify": exc.report.as_dict()}
    if obs_dir:
        from repro.obs.export import write_chrome_trace, write_manifest

        os.makedirs(obs_dir, exist_ok=True)
        stem = os.path.join(
            obs_dir, f"{spec.workload}-{spec.variant}".replace("+", "_"))
        write_chrome_trace(obs, stem + ".trace.json")
        write_manifest(obs, stem + ".manifest.jsonl")
    report = result.extra.get("verify_report")
    return {"cycles": result.cycles,
            "verify": report.as_dict() if report is not None else None}


def _exec_bench(workload, out_dir, variants=None, trace_dir=None,
                verify=False):
    """One ``repro-obs bench`` unit: bench a whole workload, write its
    BENCH file, return the headline cycles per variant."""
    from repro.obs.baseline import BENCH_VARIANTS, bench_workload, write_bench

    bench = bench_workload(
        workload, variants=tuple(variants) if variants else BENCH_VARIANTS,
        trace_dir=trace_dir or None, verify=verify,
    )
    return {
        "path": write_bench(bench, out_dir),
        "cycles": {v: rec["cycles"] for v, rec in bench["variants"].items()},
    }


def _exec_mc(config, states, mutate=None):
    """One model-checker frontier partition: expand every state in the
    chunk under the given exploration config (see
    :func:`repro.mc.explore.exec_mc_wave`)."""
    from repro.mc.explore import exec_mc_wave

    return exec_mc_wave(config, states, mutate=mutate)


_EXECUTORS = {
    "probe": _exec_probe,
    "run": _exec_run,
    "bench": _exec_bench,
    "mc": _exec_mc,
}

#: per-process variant-set memo: building a workload's variants (trace +
#: annotate) dominates short runs, and several tasks of one sweep usually
#: land on the same worker.  Bounded; cleared by the pool per sweep in the
#: inline path so serial semantics match the pre-pool harness exactly.
_VARIANT_CACHE: OrderedDict = OrderedDict()
_VARIANT_CACHE_MAX = 3


def cached_variants(workload: str, policy):
    """Per-worker memoised :func:`~repro.harness.variants.build_variants`
    (prefetch variants included, so every variant of a workload and policy
    shares one entry)."""
    from repro.cachier.annotator import Policy
    from repro.harness.variants import build_variants
    from repro.workloads.base import get_workload

    policy = Policy(policy)
    cache_key = (workload, policy.value)
    hit = _VARIANT_CACHE.get(cache_key)
    if hit is not None:
        _VARIANT_CACHE.move_to_end(cache_key)
        return hit
    vs = build_variants(get_workload(workload), policy=policy)
    _VARIANT_CACHE[cache_key] = vs
    while len(_VARIANT_CACHE) > _VARIANT_CACHE_MAX:
        _VARIANT_CACHE.popitem(last=False)
    return vs


def clear_variant_cache() -> None:
    _VARIANT_CACHE.clear()


def _execute_task(task: RunTask) -> RunOutcome:
    """Worker entry point: run one task, never let a ReproError escape."""
    if os.environ.get(CRASH_ENV) == task.key:
        os._exit(_CRASH_STATUS)  # simulated hard crash (tests, CI)
    fn = _EXECUTORS.get(task.kind)
    if fn is None:
        return RunOutcome(
            task, ok=False,
            error={"kind": "PoolError",
                   "message": f"unknown pool task kind {task.kind!r}"},
        )
    try:
        return RunOutcome(task, ok=True, value=fn(**task.kwargs))
    except ReproError as exc:
        text = str(exc)
        first = text.splitlines()[0] if text else type(exc).__name__
        return RunOutcome(
            task, ok=False,
            error={"kind": type(exc).__name__, "message": first},
        )
    # anything else is a programming error: let it propagate (the parent
    # re-raises it and the sweep aborts loudly, same as the serial path)


_CRASH_ERROR = {
    "kind": "WorkerCrash",
    "message": "worker process died (crash or kill); run retried in "
               "isolation and lost again",
    "crash": True,
}


@dataclass
class SweepPool:
    """Fan independent :class:`RunTask`\\ s out across worker processes.

    ``run(tasks, on_result)`` executes every task and returns one
    :class:`RunOutcome` per task, in task order.  ``on_result`` is invoked
    *incrementally but in submission order* — outcome ``i`` is delivered
    only after outcomes ``0..i-1`` — which is what makes parent-side
    streaming output (ledger marks, PASS lines, table rows) deterministic
    under arbitrary completion order.

    ``jobs == 1`` executes inline (no subprocess); a simulated crash via
    :data:`CRASH_ENV` then becomes a structured error row rather than
    killing the parent.  A failed task runs :data:`MAX_ATTEMPTS` times
    before its error outcome is finalized.
    """

    jobs: int | None = None
    _delivered: int = field(default=0, repr=False)

    def __post_init__(self):
        self.jobs = resolve_jobs(self.jobs)

    # ------------------------------------------------------------------ api
    def run(self, tasks: list[RunTask], on_result=None) -> list[RunOutcome]:
        keys = [t.key for t in tasks]
        if len(set(keys)) != len(keys):
            dup = sorted({k for k in keys if keys.count(k) > 1})
            raise PoolError(f"duplicate sweep task key(s): {', '.join(dup)}")
        if not tasks:
            return []
        self._delivered = 0
        if self.jobs == 1:
            return self._run_inline(tasks, on_result)
        return self._run_parallel(tasks, on_result)

    # ------------------------------------------------------------- plumbing
    def _deliver(self, outcomes, on_result) -> None:
        """Release the contiguous finished prefix, in submission order."""
        while (self._delivered < len(outcomes)
               and outcomes[self._delivered] is not None):
            if on_result is not None:
                on_result(outcomes[self._delivered])
            self._delivered += 1

    # --------------------------------------------------------------- inline
    def _run_inline(self, tasks, on_result) -> list[RunOutcome]:
        clear_variant_cache()  # serial sweeps build fresh, like pre-pool
        try:
            outcomes: list[RunOutcome | None] = [None] * len(tasks)
            crash_key = os.environ.get(CRASH_ENV)
            for i, task in enumerate(tasks):
                attempts = 0
                while True:
                    attempts += 1
                    if task.key == crash_key:
                        out = RunOutcome(
                            task, ok=False, error=dict(_CRASH_ERROR)
                        )
                    else:
                        out = _execute_task(task)
                    if out.ok or attempts >= MAX_ATTEMPTS:
                        out.attempts = attempts
                        outcomes[i] = out
                        break
                self._deliver(outcomes, on_result)
            return outcomes  # type: ignore[return-value]
        finally:
            clear_variant_cache()

    # ------------------------------------------------------------- parallel
    def _run_parallel(self, tasks, on_result) -> list[RunOutcome]:
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        n = len(tasks)
        outcomes: list[RunOutcome | None] = [None] * n
        attempts = [0] * n
        executor = ProcessPoolExecutor(max_workers=min(self.jobs, n))
        futures: dict = {}
        suspects: list[int] = []
        broken = False
        try:
            for i, task in enumerate(tasks):
                attempts[i] = 1
                futures[executor.submit(_execute_task, task)] = i
            while futures and not broken:
                done, _ = wait(list(futures), return_when=FIRST_COMPLETED)
                for future in done:
                    i = futures.pop(future)
                    exc = future.exception()
                    if isinstance(exc, BrokenProcessPool):
                        # A worker died.  Whatever was still in flight is
                        # unattributable here; re-run it all in isolation.
                        broken = True
                        suspects.append(i)
                        break
                    if exc is not None:
                        raise exc  # programming error from a worker
                    out = future.result()
                    if out.ok or attempts[i] >= MAX_ATTEMPTS:
                        out.attempts = attempts[i]
                        outcomes[i] = out
                    else:
                        attempts[i] += 1
                        futures[executor.submit(_execute_task, tasks[i])] = i
                self._deliver(outcomes, on_result)
            if broken:
                # Harvest whatever completed before the break, then take
                # the rest (including any not-yet-retried failures) to the
                # isolated path.
                for future, i in futures.items():
                    out = None
                    if future.done() and not isinstance(
                        future.exception(), BrokenProcessPool
                    ):
                        exc = future.exception()
                        if exc is not None:
                            raise exc
                        out = future.result()
                    if out is not None and (
                        out.ok or attempts[i] >= MAX_ATTEMPTS
                    ):
                        out.attempts = attempts[i]
                        outcomes[i] = out
                    else:
                        suspects.append(i)
                futures.clear()
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        if broken:
            self._run_isolated(tasks, sorted(suspects), outcomes, attempts,
                               on_result)
        self._deliver(outcomes, on_result)
        return outcomes  # type: ignore[return-value]

    def _run_isolated(self, tasks, indices, outcomes, attempts, on_result):
        """Crash-recovery path: one task at a time, each in its own fresh
        single-worker pool, so a repeat crash is attributable to exactly
        the task that was running.  Slower than the main pool — it only
        runs after a worker has already died."""
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        for i in indices:
            while outcomes[i] is None:
                executor = ProcessPoolExecutor(max_workers=1)
                try:
                    out = executor.submit(_execute_task, tasks[i]).result()
                except BrokenProcessPool:
                    out = None
                finally:
                    executor.shutdown(wait=False, cancel_futures=True)
                if out is None:  # crashed again, alone: it is the culprit
                    if attempts[i] >= MAX_ATTEMPTS:
                        outcomes[i] = RunOutcome(
                            tasks[i], ok=False, error=dict(_CRASH_ERROR),
                            attempts=attempts[i],
                        )
                    else:
                        attempts[i] += 1
                elif out.ok or attempts[i] >= MAX_ATTEMPTS:
                    out.attempts = attempts[i]
                    outcomes[i] = out
                else:
                    attempts[i] += 1
            self._deliver(outcomes, on_result)


__all__ = [
    "CRASH_ENV",
    "ERROR_HEADERS",
    "JOBS_ENV",
    "RunOutcome",
    "RunTask",
    "SweepPool",
    "cached_variants",
    "clear_variant_cache",
    "render_errors",
    "resolve_jobs",
    "summarize_failures",
]
