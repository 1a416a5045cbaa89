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

A run of a *named* workload variant is a :class:`RunSpec`, and
:func:`execute` is the one place such a spec becomes a program and an
observer.  The CLIs, the sweep pool's ``run`` and ``bench`` tasks and the
service's observed jobs all go through it; the pool executes runs across
workers — or inline at ``--jobs 1`` — with byte-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cachier.annotator import Cachier, CachierResult, Policy
from repro.errors import VerifyError, WorkloadError
from repro.faults import make_injector
from repro.lang.ast import Program
from repro.lang.interp import Interpreter, SharedStore
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine, RunResult
from repro.obs.events import EventBus
from repro.obs.session import Observation, Observer
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
        if checker is not None:
            result.extra["verify_report"] = checker.finalize(result)
    except VerifyError as exc:
        if checker is not None:
            exc.report = checker.failure_report(exc)
        raise
    finally:
        if checker is not None:
            checker.detach()  # the bus may be a caller's, shared across runs
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


@dataclass(frozen=True)
class RunSpec:
    """One timing run of a named workload variant and what watches it.

    Plain picklable data, so a sweep task can carry it to a worker.
    ``observe`` attaches an :class:`Observer` for the metrics and the
    epoch timeline alone; ``profile``, ``critpath`` and ``chrome`` each
    attach one too (see :class:`Observer` for what each reports).
    """

    workload: str
    variant: str = "plain"
    policy: str = "performance"
    observe: bool = False
    profile: bool = False
    critpath: bool = False
    chrome: bool = False
    include_hits: bool = False
    verify: bool = False
    strict: bool = False
    faults: int | None = None

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.variant}"


def execute(spec: RunSpec) -> tuple[RunResult, Observation | None]:
    """Run ``spec``: the run's result and, when an observer flag is set,
    its :class:`Observation` (``None`` otherwise).

    The plain variant is the workload's own program; every other variant
    comes from the per-process memo
    (:func:`repro.harness.pool.cached_variants`), so a worker or the
    daemon traces and annotates a workload once for all its runs.  A
    violation raises :class:`~repro.errors.VerifyError` with the failure
    report on ``exc.report``.
    """
    from repro.harness.pool import cached_variants
    from repro.harness.variants import PLAIN, planned_variants
    from repro.workloads.base import get_workload

    wspec = get_workload(spec.workload)
    available = planned_variants(wspec)
    if spec.variant not in available:
        raise WorkloadError(
            f"workload {spec.workload!r} has no {spec.variant!r} variant "
            f"(available: {sorted(available)})"
        )
    program = wspec.program if spec.variant == PLAIN else cached_variants(
        spec.workload, spec.policy).programs[spec.variant]
    observer = None
    if spec.observe or spec.profile or spec.critpath or spec.chrome:
        observer = Observer(
            chrome=spec.chrome, include_hits=spec.include_hits,
            profile=spec.profile, critpath=spec.critpath,
            meta={"name": spec.label, "workload": spec.workload,
                  "variant": spec.variant},
        )
    result, _ = run_program(
        program, wspec.config, wspec.params_fn, observer,
        faults_seed=spec.faults, verify=spec.verify,
        strict_verify=spec.strict, verify_label=spec.label,
    )
    return result, observer.observation if observer is not None else None


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
