"""Run programs on the simulated machine: trace mode and timing mode.

This reproduces the paper's experimental flow (Figure 1):

1. ``trace_program`` — execute the *unannotated* program with per-barrier
   cache flushing and a :class:`TraceCollector` attached (what WWT did), and
   return the trace.
2. ``Cachier(...).annotate(...)`` — produce the annotated program.
3. ``run_program`` — execute any program variant in timing mode (no
   flushing) and report cycles, miss counts and traffic.

Both entry points take an optional :class:`~repro.obs.session.Observer`;
when given, the machine publishes onto the observer's bus and the run's
metrics / epoch timeline / Chrome trace events are attached to the
:class:`RunResult` (``result.obs``).  Observation never changes the
simulated cycles or statistics.

Robustness hooks (all optional, all off by default):

* ``faults_seed`` — attach a seeded :class:`~repro.faults.FaultInjector`;
  timing changes, architectural results do not (barrier-deferred stall).
* ``verify`` — attach a :class:`~repro.verify.InvariantChecker` to the
  run's bus; the resulting :class:`~repro.verify.VerifyReport` lands in
  ``result.extra["verify_report"]`` and violations raise
  :class:`~repro.errors.VerifyError`.
* ``checkpoint_dir`` / ``resume`` — persist a barrier-aligned snapshot
  (machine state + shared-store values) after every barrier and, on
  ``resume=True``, fast-forward a fresh run from the last complete one.

Sweeps (figure6, bench, verify) do not call :func:`run_program` in a loop
any more: they submit :func:`run_workload_variant` units through the
process pool (:mod:`repro.harness.pool`), which executes them across
workers — or inline at ``--jobs 1`` — with byte-identical results.
"""

from __future__ import annotations

from typing import Callable

from repro.cachier.annotator import Cachier, CachierResult, Policy
from repro.errors import VerifyError
from repro.faults import make_injector
from repro.lang.ast import Program
from repro.lang.interp import Interpreter, SharedStore
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine, RunResult
from repro.obs.events import EventBus
from repro.obs.session import Observer
from repro.trace.collector import TraceCollector
from repro.trace.records import Trace

ParamsFn = Callable[[int], dict]


def _checkpointer(checkpoint_dir, name, flavor):
    from repro.harness.checkpoint import Checkpointer

    return Checkpointer(checkpoint_dir, f"{name}.{flavor}")


def _run_machine(
    machine: Machine,
    store: SharedStore,
    kernel_factory,
    *,
    observer: Observer | None,
    verify: bool,
    strict_verify: bool,
    verify_label: str,
    checkpoint_dir,
    checkpoint_name: str,
    flavor: str,
    resume: bool,
) -> RunResult:
    """Shared tail of trace/timing runs: wire checker + checkpointing,
    execute, finalize the checker, attach reports."""
    checker = None
    if verify:
        from repro.verify import InvariantChecker

        checker = InvariantChecker(
            machine.protocol, strict_cico=strict_verify, label=verify_label,
        )
        checker.subscribe(machine.bus)

    checkpoint_cb = None
    resume_snap = None
    on_resume = None
    if checkpoint_dir is not None:
        ckpt = _checkpointer(checkpoint_dir, checkpoint_name, flavor)
        if resume:
            resume_snap = ckpt.load()
            if resume_snap is not None:
                values = resume_snap.get("store") or {}

                def on_resume(values=values, snap=resume_snap):
                    store.restore_values(values)
                    if checker is not None:
                        checker.resume(snap)
                    if observer is not None:
                        observer.resume()

        def checkpoint_cb(snap, ckpt=ckpt, store=store):
            snap["store"] = store.snapshot_values()
            ckpt.save(snap)

    try:
        result = machine.run(
            kernel_factory,
            checkpoint=checkpoint_cb,
            resume_from=resume_snap,
            on_resume=on_resume,
        )
    except VerifyError as exc:
        if checker is not None:
            exc.report = checker.failure_report(exc)
        raise
    finally:
        if checker is not None:
            checker.detach()  # the bus may be a caller's, shared across runs
    if checker is not None:
        result.extra["verify_report"] = checker.finalize(result)
    if machine.faults is not None:
        result.extra["fault_stats"] = machine.faults.stats.as_dict()
    return result


def trace_program(
    program: Program,
    config: MachineConfig,
    params_fn: ParamsFn | None = None,
    observer: Observer | None = None,
    *,
    faults_seed: int | None = None,
    verify: bool = False,
    strict_verify: bool = False,
) -> Trace:
    """Collect the per-epoch miss trace of an unannotated program.

    Per-epoch miss sets are invariant under fault injection (the stall is
    barrier-deferred), so a fault-injected trace equals the fault-free one
    — a property the determinism tests pin down.
    """
    store = SharedStore(program, block_size=config.block_size)
    collector = TraceCollector(
        labels=store.labels,
        block_size=config.block_size,
        num_nodes=config.num_nodes,
    )
    bus = observer.bus if observer is not None else EventBus()
    tokens = collector.subscribe(bus)
    machine = Machine(
        config, bus=bus, flush_at_barrier=True,
        faults=make_injector(faults_seed),
    )
    if observer is not None:
        observer.bind_run(
            program, store.labels, block_size=config.block_size,
            params_fn=params_fn, num_nodes=config.num_nodes,
            protocol=machine.protocol,
        )
    interp = Interpreter(program, store, params_fn=params_fn)
    try:
        result = _run_machine(
            machine, store, interp.kernel, observer=observer,
            verify=verify, strict_verify=strict_verify,
            verify_label=f"{program.name}/trace",
            checkpoint_dir=None, checkpoint_name=program.name,
            flavor="trace", resume=False,
        )
    finally:
        for token in tokens:
            bus.unsubscribe(token)
    if observer is not None:
        observer.finalize(result)
    return collector.finish()


def run_program(
    program: Program,
    config: MachineConfig,
    params_fn: ParamsFn | None = None,
    observer: Observer | None = None,
    *,
    faults_seed: int | None = None,
    verify: bool = False,
    strict_verify: bool = False,
    verify_label: str = "",
    checkpoint_dir: str | None = None,
    checkpoint_name: str | None = None,
    resume: bool = False,
) -> tuple[RunResult, SharedStore]:
    """Timing run (no trace-mode flushing)."""
    store = SharedStore(program, block_size=config.block_size)
    bus = observer.bus if observer is not None else None
    if bus is None and verify:
        bus = EventBus()
    machine = Machine(
        config, flush_at_barrier=False, bus=bus,
        faults=make_injector(faults_seed),
    )
    if observer is not None:
        observer.bind_run(
            program, store.labels, block_size=config.block_size,
            params_fn=params_fn, num_nodes=config.num_nodes,
            protocol=machine.protocol,
        )
    interp = Interpreter(program, store, params_fn=params_fn)
    result = _run_machine(
        machine, store, interp.kernel, observer=observer,
        verify=verify, strict_verify=strict_verify,
        verify_label=verify_label or program.name,
        checkpoint_dir=checkpoint_dir,
        checkpoint_name=checkpoint_name or program.name, flavor="run",
        resume=resume,
    )
    if observer is not None:
        observer.finalize(result)
    return result, store


def run_workload_variant(
    workload: str,
    variant: str,
    policy: str = "performance",
    include_prefetch: bool = True,
    obs_dir: str | None = None,
    faults_seed: int | None = None,
    verify: bool = False,
) -> RunResult:
    """Build (memoised per process) and execute one named workload variant.

    This is the unit of work the sweep pool fans out: everything is named
    by plain picklable values, the variant set comes from the per-process
    memo (:func:`repro.harness.pool.cached_variants`), and with ``obs_dir``
    the run's Chrome trace + JSONL manifest are written to their final
    per-run paths by whichever process executes it — the bytes are the
    same either way, because the simulation is seeded and pure.
    """
    from repro.harness.pool import cached_variants

    observer = None
    if obs_dir:
        from repro.obs.export import exporting_observer

        observer = exporting_observer(workload, variant, obs_dir)
    variants = cached_variants(workload, policy, include_prefetch)
    return variants.run(
        variant, observer, faults_seed=faults_seed, verify=verify
    )


def annotate_workload(
    program: Program,
    config: MachineConfig,
    params_fn: ParamsFn | None = None,
    policy: Policy = Policy.PERFORMANCE,
    prefetch: bool = False,
    trace: Trace | None = None,
    capacity_fraction: float = 0.8,
) -> CachierResult:
    """Convenience wrapper: trace (unless given) then annotate."""
    if trace is None:
        trace = trace_program(program, config, params_fn)
    cachier = Cachier(
        program,
        trace,
        params_fn=params_fn,
        cache_size=config.cache_size,
        capacity_fraction=capacity_fraction,
    )
    return cachier.annotate(policy, prefetch=prefetch)
