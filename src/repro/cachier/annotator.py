"""The Cachier tool: (program, trace) -> annotated program + reports.

Usage::

    cachier = Cachier(program, trace, params_fn=workload.params_for)
    result = cachier.annotate(Policy.PERFORMANCE, prefetch=True)
    print(unparse_program(result.program))
    print(result.report.render())

``program`` must be the numbered, *unannotated* program the trace was
collected from: trace pcs are resolved against its statements.  The returned
program is an annotated clone; the input is never mutated (Section 3.4: "the
annotated target program is the same as the unannotated target program,
except for the CICO annotations inserted by Cachier").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.cachier.drfs import detect_all
from repro.cachier.epochs import EpochTable
from repro.cachier.mapping import ParamEnv
from repro.cachier.placement import Plan, Planner, merge_static_epochs
from repro.cachier.presentation import PresentationStats, Presenter
from repro.cachier.reports import SharingReport
from repro.errors import CachierError
from repro.lang.ast import Program
from repro.lang.transform import clone_program
from repro.mem.labels import LabelTable
from repro.trace.records import Trace


class Policy(enum.Enum):
    PROGRAMMER = "programmer"
    PERFORMANCE = "performance"


@dataclass
class CachierResult:
    program: Program  # annotated clone
    report: SharingReport
    stats: PresentationStats
    plan: Plan
    policy: Policy


class Cachier:
    def __init__(
        self,
        program: Program,
        trace: Trace,
        params_fn: Callable[[int], dict] | None = None,
        cache_size: int = 256 * 1024,
        capacity_fraction: float = 0.8,
        max_hoist_levels: int = 1,
    ):
        if program.max_pc < 0:
            raise CachierError("program must be numbered (use number_program)")
        if trace.num_nodes <= 0:
            raise CachierError("trace does not record the node count")
        self.program = program
        self.trace = trace
        self.labels: LabelTable = trace.label_table()
        if not self.labels.names():
            raise CachierError(
                "trace carries no labelled regions; label all important "
                "shared data structures (Section 4.3)"
            )
        self.env = ParamEnv(params_fn or (lambda n: {}), trace.num_nodes)
        self.cache_size = cache_size
        self.capacity_fraction = capacity_fraction
        self.max_hoist_levels = max_hoist_levels
        # Phase 1 (shared by both policies): trace processing + DRFS.
        self.table = EpochTable(trace)
        self.drfs = detect_all(self.table)
        self.report = SharingReport.build(self.drfs, self.labels)

    def _last_ref(self, key: tuple[int, int], array: str) -> int | None:
        """Last statement in the static epoch region referencing ``array``
        (static information: trace records only first misses, so the last
        *use* of a block is invisible to it — Section 4.3's reason for
        combining static analysis with the trace)."""
        from repro.cachier.presentation import find_array_ref
        from repro.lang.cfg import build_cfg

        regions = getattr(self, "_regions", None)
        if regions is None:
            regions = self._regions = build_cfg(self.program).epoch_regions()
            self._region_ref_cache = {}
        cache_key = (key, array)
        if cache_key in self._region_ref_cache:
            return self._region_ref_cache[cache_key]
        last = None
        from repro.lang.loops import StmtIndex

        index = getattr(self, "_stmt_index", None)
        if index is None:
            index = self._stmt_index = StmtIndex(self.program)
        for pc in sorted(regions.get(key, ()), reverse=True):
            if pc in index and find_array_ref(index.locate(pc).stmt, array):
                last = pc
                break
        self._region_ref_cache[cache_key] = last
        return last

    def _pinned_site(self, pc: int, array: str) -> bool:
        """True when ``array``'s index expressions at statement ``pc`` use
        locals other than loop induction variables (indirect indexing), so a
        near annotation there can never hoist out of its loop."""
        from repro.cachier.presentation import find_array_ref
        from repro.lang.loops import StmtIndex, expr_locals

        index = getattr(self, "_stmt_index", None)
        if index is None:
            index = self._stmt_index = StmtIndex(self.program)
        if pc not in index:
            return False
        loc = index.locate(pc)
        indices = find_array_ref(loc.stmt, array)
        if indices is None:
            return False
        loop_vars = {loop.var for loop in loc.loops}
        return any(expr_locals(e) - loop_vars for e in indices)

    # ---------------------------------------------------------------- annotate
    def annotate(
        self,
        policy: Policy = Policy.PERFORMANCE,
        prefetch: bool = False,
        history: int = 1,
    ) -> CachierResult:
        """Produce an annotated clone.

        ``history`` is the epoch-history depth of the Section 4.1 equations
        (the paper uses a single epoch; deeper history is the DESIGN.md
        ablation)."""
        statics = merge_static_epochs(
            self.trace, self.table, self.drfs, policy.value, history=history
        )
        planner = Planner(
            labels=self.labels,
            env=self.env,
            entry=self.program.entry,
            cache_size=self.cache_size,
            capacity_fraction=self.capacity_fraction,
            policy=policy.value,
            block_size=self.trace.block_size,
            pinned_site=self._pinned_site,
            last_ref=self._last_ref,
        )
        plan = planner.plan(statics, prefetch=prefetch)
        clone = clone_program(self.program)
        presenter = Presenter(
            program=clone,
            labels=self.labels,
            env=self.env,
            budget=int(self.cache_size * self.capacity_fraction),
            prefetch=prefetch,
            max_hoist_levels=self.max_hoist_levels,
        )
        stats = presenter.apply(plan)
        from repro.lang.simplify import simplify_annotations

        simplify_annotations(clone)
        return CachierResult(
            program=clone,
            report=self.report,
            stats=stats,
            plan=plan,
            policy=policy,
        )

    def apply_plan(
        self, program: Program, plan, prefetch: bool = False
    ) -> Program:
        """Apply an existing plan to *another* build of the same program.

        Used by the input-sensitivity experiment (Section 4.5): annotations
        derived from one input data set are applied to the program built for
        a different data set.  The two programs must share the same
        statement structure (identical pcs) and shared-array layout."""
        clone = clone_program(program)
        presenter = Presenter(
            program=clone,
            labels=self.labels,
            env=self.env,
            budget=int(self.cache_size * self.capacity_fraction),
            prefetch=prefetch,
            max_hoist_levels=self.max_hoist_levels,
        )
        presenter.apply(plan)
        return clone
