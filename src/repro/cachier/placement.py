"""Annotation placement planning (paper Section 4.2).

Placement rules, as the paper states them:

* **Raced / falsely-shared locations** (both policies): check-out and
  check-in *as close to the reference as possible* — the block will not stay
  in the cache long, so holding it is pointless and harmful.
* **Programmer CICO, plain locations**: check-outs as close to the start of
  the epoch and check-ins as close to its end as the *cache size* permits;
  when the footprint exceeds capacity, annotations are pushed inward to the
  loops containing the references (the Jacobi column case of Section 2.1).
* **Performance CICO**: the only check-outs kept are the exclusive ones that
  pre-empt a read-then-write upgrade, placed at the *read*; check-ins go at
  the end of the epoch (raced ones stay at the reference).

Dynamic epochs are first merged by *static epoch* — the (opening barrier pc,
closing barrier pc) pair — so annotations are not duplicated when an epoch
re-executes (Section 4.3).

The planner emits two kinds of operations:

* :class:`BoundaryOp` — a symbolized target anchored at an epoch boundary,
* :class:`NearOp` — an annotation attached to the referencing statement
  (its concrete target is derived from the statement's own index
  expressions during presentation, where loop hoisting also happens).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cachier.drfs import DrfsInfo
from repro.cachier.epochs import EpochTable
from repro.cachier.equations import AnnotationSets, performance_cico, programmer_cico
from repro.cachier.mapping import ParamEnv, symbolize
from repro.errors import CachierError
from repro.lang.ast import AnnotKind, AnnotTarget
from repro.mem.labels import LabelTable
from repro.trace.records import Trace


# ---------------------------------------------------------------- static epochs
@dataclass
class StaticEpoch:
    key: tuple[int, int]  # (opening barrier pc, closing barrier pc)
    dynamic: list[int] = field(default_factory=list)
    per_node: dict[int, AnnotationSets] = field(default_factory=dict)
    races: set[int] = field(default_factory=set)
    false_shared: set[int] = field(default_factory=set)
    read_pc: dict[int, int] = field(default_factory=dict)
    write_pc: dict[int, int] = field(default_factory=dict)
    sw_union: set[int] = field(default_factory=set)  # written by anyone
    s_union: set[int] = field(default_factory=set)  # touched by anyone

    @property
    def drfs_addrs(self) -> set[int]:
        return self.races | self.false_shared

    def pc_for(self, addr: int) -> int:
        pc = self.read_pc.get(addr)
        if pc is None:
            pc = self.write_pc.get(addr, -1)
        return pc

    def last_pc_for(self, addr: int) -> int:
        """Best-known *latest* reference site (for check-in placement)."""
        return max(self.read_pc.get(addr, -1), self.write_pc.get(addr, -1))


def merge_static_epochs(
    trace: Trace,
    table: EpochTable,
    drfs: dict[int, DrfsInfo],
    policy: str,
    history: int = 1,
) -> dict[tuple[int, int], StaticEpoch]:
    """Compute per-dynamic-epoch annotation sets and merge by static epoch.

    An annotation inserted into the source executes on *every* dynamic
    instance of its static epoch, so for re-executed epochs (>= 2 dynamic
    instances) the merged sets take the union of the **steady-state**
    instances — every instance after the first.  Cold-start-only effects
    (e.g. the first iteration's compulsory write faults) would otherwise pin
    a useless annotation into every later iteration.  PCs and DRFS
    classifications still merge over all instances.
    """
    fn = programmer_cico if policy == "programmer" else performance_cico
    statics: dict[tuple[int, int], StaticEpoch] = {}
    instances: dict[tuple[int, int], list[int]] = {}
    closing = trace.closing_pcs()
    for epoch in range(table.num_epochs):
        key = trace.static_epoch_key(epoch, closing)
        instances.setdefault(key, []).append(epoch)
    for key, dynamic in instances.items():
        static = statics.setdefault(key, StaticEpoch(key=key))
        static.dynamic.extend(dynamic)
        merge_from = dynamic if len(dynamic) == 1 else dynamic[1:]
        for epoch in dynamic:
            info = drfs[epoch]
            static.races |= info.races
            static.false_shared |= info.false_shared
            for node in table.nodes_in(epoch):
                acc = table.get(epoch, node)
                static.sw_union |= acc.sw
                static.s_union |= acc.s
                for addr, pc in acc.read_pc.items():
                    static.read_pc.setdefault(addr, pc)
                for addr, pc in acc.write_pc.items():
                    static.write_pc.setdefault(addr, pc)
        for epoch in merge_from:
            for node in table.nodes_in(epoch):
                sets = fn(table, drfs, epoch, node, history=history)
                merged = static.per_node.setdefault(node, AnnotationSets())
                merged.co_x |= sets.co_x
                merged.co_s |= sets.co_s
                merged.ci |= sets.ci
    return statics


# -------------------------------------------------------------------- plan ops
@dataclass(frozen=True)
class Anchor:
    """Where a boundary annotation goes."""

    kind: str  # 'func_start' | 'func_end' | 'after_pc' | 'before_pc'
    where: int | str  # pc, or function name


@dataclass(frozen=True)
class BoundaryOp:
    annot: AnnotKind
    target: AnnotTarget
    anchor: Anchor
    guard_node: int | None = None  # wrap in `if me == guard_node`
    guard_not_node: int | None = None  # wrap in `if me != guard_not_node`


@dataclass(frozen=True)
class NearOp:
    annot: AnnotKind
    array: str
    pc: int  # referencing statement
    position: str  # 'before' | 'after' | 'pipeline'
    drfs: bool = False  # raced/false-shared: no hoisting, add a comment
    comment: str | None = None


@dataclass
class Plan:
    boundary: list[BoundaryOp] = field(default_factory=list)
    near: list[NearOp] = field(default_factory=list)
    prefetch: list[NearOp] = field(default_factory=list)  # position='pipeline'
    warnings: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------- planner
class Planner:
    def __init__(
        self,
        labels: LabelTable,
        env: ParamEnv,
        entry: str,
        cache_size: int,
        capacity_fraction: float = 0.8,
        policy: str = "programmer",
        block_size: int = 32,
        pinned_site=None,
        last_ref=None,
    ):
        if policy not in ("programmer", "performance"):
            raise CachierError(f"unknown policy {policy!r}")
        self.labels = labels
        self.env = env
        self.entry = entry
        self.budget = int(cache_size * capacity_fraction)
        self.policy = policy
        self.block_size = block_size
        #: callable (pc, array) -> bool: True when the reference site's index
        #: expressions use locals other than loop induction variables, so a
        #: near annotation there could never hoist out of its write loop.
        self.pinned_site = pinned_site or (lambda pc, array: False)
        #: callable (epoch_key, array) -> pc | None: the *last* statement in
        #: the static epoch region referencing the array.  This is static
        #: information the trace cannot provide (hits are invisible to it),
        #: used to push check-ins past every later reference (Section 4.3).
        self.last_ref = last_ref or (lambda key, array: None)

    def _element_sets(
        self, label, per_node: dict[int, set[int]]
    ) -> dict[int, set[int]]:
        """Per node, the flat indices of the elements its blocks hold.

        Trace sets are block-granular; an annotation target must name the
        *elements* each block holds (clipped to the labelled span).  Each
        block adds one ``range`` to its node's set."""
        origin, size = label.region.base, label.elem_size
        count = label.num_elements
        reach = self.block_size - origin + size - 1
        out: dict[int, set[int]] = {}
        for node, bases in per_node.items():
            flats: set[int] = set()
            for base in bases:
                lo = (base - origin) // size if base > origin else 0
                flats.update(range(lo, min((base + reach) // size, count)))
            out[node] = flats
        return out

    # ------------------------------------------------------------------ plan
    def plan(
        self,
        statics: dict[tuple[int, int], StaticEpoch],
        prefetch: bool = False,
    ) -> Plan:
        plan = Plan()
        for key in sorted(statics):
            self._plan_epoch(plan, statics[key])
            if prefetch:
                self._plan_prefetch(plan, statics[key])
        self._dedupe(plan)
        return plan

    def _plan_prefetch(self, plan: Plan, epoch: StaticEpoch) -> None:
        """Pipelined prefetch sites: every missing block's reference site
        gets a next-iteration prefetch (exclusive if anyone writes the
        block).  Presentation discards sites whose addresses are not
        statically analyzable — pointer-chasing programs keep few of these
        (the paper's Barnes observation)."""
        sites: dict[tuple[str, int, AnnotKind], None] = {}
        for addr in epoch.s_union:
            label = self.labels.find(addr)
            if label is None:
                continue
            pc = epoch.pc_for(addr)
            if pc < 0:
                continue
            kind = (
                AnnotKind.PREFETCH_X
                if addr in epoch.sw_union
                else AnnotKind.PREFETCH_S
            )
            sites.setdefault((label.name, pc, kind), None)
        for array, pc, kind in sites:
            plan.prefetch.append(
                NearOp(annot=kind, array=array, pc=pc, position="pipeline")
            )

    def _plan_epoch(self, plan: Plan, epoch: StaticEpoch) -> None:
        open_anchor = (
            Anchor("func_start", self.entry)
            if epoch.key[0] < 0
            else Anchor("after_pc", epoch.key[0])
        )
        close_anchor = (
            Anchor("func_end", self.entry)
            if epoch.key[1] < 0
            else Anchor("before_pc", epoch.key[1])
        )
        drfs_addrs = epoch.drfs_addrs
        num_nodes = self.env.num_nodes

        # ---- DRFS addresses: near-reference, flagged -----------------------
        for kind, select in (
            (AnnotKind.CHECK_OUT_X, lambda s: s.co_x),
            (AnnotKind.CHECK_OUT_S, lambda s: s.co_s),
            (AnnotKind.CHECK_IN, lambda s: s.ci),
        ):
            addrs = set()
            for sets in epoch.per_node.values():
                addrs |= select(sets) & drfs_addrs
            position = "after" if kind is AnnotKind.CHECK_IN else "before"
            for addr in addrs:
                label = self.labels.find(addr)
                if label is None:
                    plan.warnings.append(f"unlabelled address {addr:#x} skipped")
                    continue
                pc = epoch.pc_for(addr)
                if pc < 0:
                    plan.warnings.append(f"no pc for address {addr:#x}")
                    continue
                comment = None
                if kind is not AnnotKind.CHECK_IN:
                    comment = (
                        "Data Race on" if addr in epoch.races else "False Sharing on"
                    )
                plan.near.append(
                    NearOp(
                        annot=kind,
                        array=label.name,
                        pc=pc,
                        position=position,
                        drfs=True,
                        comment=comment,
                    )
                )

        # ---- plain addresses: per array, joint co/ci mode decision ---------
        per_array: dict[str, dict[str, dict[int, set[int]]]] = {}
        find = self.labels.find
        for node, sets in epoch.per_node.items():
            for kind_name, addrs in (
                ("co_x", sets.co_x - drfs_addrs),
                ("co_s", sets.co_s - drfs_addrs),
                ("ci", sets.ci - drfs_addrs),
            ):
                by_array: dict[str, set[int]] = {}
                for addr in addrs:
                    label = find(addr)
                    if label is None:
                        plan.warnings.append(f"unlabelled address {addr:#x} skipped")
                        continue
                    group = by_array.get(label.name)
                    if group is None:
                        by_array[label.name] = {addr}
                    else:
                        group.add(addr)
                for array, group in by_array.items():
                    per_array.setdefault(array, {}).setdefault(
                        kind_name, {}
                    )[node] = group

        for array in sorted(per_array):
            groups = per_array[array]
            label = self.labels.get(array)
            boundary_ok = True
            symbolized: dict[str, object] = {}
            participants: set[int] = set()
            for kind_name, per_node in groups.items():
                participants |= set(per_node)
                if self.policy == "performance" and kind_name == "co_x":
                    continue  # performance co_x is always near the read
                sym = symbolize(label, self._element_sets(label, per_node),
                                self.env)
                symbolized[kind_name] = sym
                if sym is None or sym.max_bytes > self.budget:
                    boundary_ok = False
            guard: int | None = None
            guard_not: int | None = None
            if len(participants) == 1:
                guard = next(iter(participants))
            elif len(participants) == num_nodes - 1:
                # Everyone except one node (typically the producer, whose
                # copies are hits and invisible to the trace): guard the
                # annotation with `me != missing`.
                guard_not = next(
                    iter(set(range(num_nodes)) - participants)
                )
            elif boundary_ok and len(participants) != num_nodes:
                boundary_ok = False  # scattered participation: go near

            if boundary_ok:
                for kind_name, sym in symbolized.items():
                    if kind_name == "ci":
                        plan.boundary.append(
                            BoundaryOp(AnnotKind.CHECK_IN, sym.target,
                                       close_anchor, guard, guard_not)
                        )
                    else:
                        annot = (
                            AnnotKind.CHECK_OUT_X
                            if kind_name == "co_x"
                            else AnnotKind.CHECK_OUT_S
                        )
                        plan.boundary.append(
                            BoundaryOp(annot, sym.target, open_anchor, guard,
                                       guard_not)
                        )
                if self.policy == "performance" and "co_x" in groups:
                    self._near_co_x(plan, epoch, array, groups["co_x"])
                continue

            # ---- near-reference fallback for every kind of this array ------
            if "co_x" in groups:
                self._near_co_x(plan, epoch, array, groups["co_x"])
            if "co_s" in groups:
                self._near_group(
                    plan, epoch, array, groups["co_s"], AnnotKind.CHECK_OUT_S,
                    "before", use_last=False,
                )
            if "ci" in groups:
                # A check-in whose reference sites are *pinned* (indirect
                # indices: the annotation could never hoist out of the loop
                # that rewrites the block) would churn — flush after every
                # element and re-miss on the next.  If the set symbolizes,
                # place it at the epoch boundary instead; unlike a
                # check-out, a check-in holds nothing, so the capacity
                # budget does not apply (already-evicted blocks make it a
                # cheap no-op).
                sym = symbolized.get("ci")
                pcs_pinned = sym is not None and all(
                    self.pinned_site(epoch.last_pc_for(addr), array)
                    for addrs in groups["ci"].values()
                    for addr in addrs
                ) and (guard is not None or guard_not is not None
                       or len(participants) == num_nodes)
                if pcs_pinned:
                    plan.boundary.append(
                        BoundaryOp(AnnotKind.CHECK_IN, sym.target,
                                   close_anchor, guard, guard_not)
                    )
                else:
                    self._near_group(
                        plan, epoch, array, groups["ci"], AnnotKind.CHECK_IN,
                        "after", use_last=True,
                    )

    def _near_co_x(
        self,
        plan: Plan,
        epoch: StaticEpoch,
        array: str,
        per_node: dict[int, set[int]],
    ) -> None:
        # check_out_X anchors at the statement that *writes* the block: in
        # the common read-modify-write statement the exclusive copy is in
        # hand before the statement's own reads, which is what kills the
        # upgrade fault.  First-read pcs are unreliable anchors — a block's
        # first reader is often a *neighbouring* iteration's stencil load
        # whose index expressions point one element off.
        self._near_group(
            plan, epoch, array, per_node, AnnotKind.CHECK_OUT_X, "before",
            use_last=False, prefer_write=True,
        )

    def _near_group(
        self,
        plan: Plan,
        epoch: StaticEpoch,
        array: str,
        per_node: dict[int, set[int]],
        kind: AnnotKind,
        position: str,
        use_last: bool,
        prefer_write: bool = False,
    ) -> None:
        pcs: set[int] = set()
        for addrs in per_node.values():
            for addr in addrs:
                if use_last:
                    pc = epoch.last_pc_for(addr)
                elif prefer_write:
                    pc = epoch.write_pc.get(addr, epoch.pc_for(addr))
                else:
                    pc = epoch.pc_for(addr)
                if pc >= 0:
                    pcs.add(pc)
                else:
                    plan.warnings.append(f"no pc for address {addr:#x}")
        if use_last and len(pcs) == 1:
            # Static supplement (Section 4.3): the trace only records first
            # misses, so a block re-used by a *later* statement looks
            # single-use.  When every address anchors at one site, and the
            # AST shows a later reference to the same array inside this
            # epoch, push the check-in past it.  (With multiple sites the
            # targets must stay with their own statements for coverage.)
            static_last = self.last_ref(epoch.key, array)
            if static_last is not None and static_last > next(iter(pcs)):
                pcs = {static_last}
        for pc in sorted(pcs):
            plan.near.append(
                NearOp(annot=kind, array=array, pc=pc, position=position)
            )

    @staticmethod
    def _dedupe(plan: Plan) -> None:
        # DRFS ops win over plain ops for the same (kind, array, site): a
        # partially-raced address set keeps the conservative placement.
        seen: set = set()
        near: list[NearOp] = []
        for op in sorted(plan.near, key=lambda op: (not op.drfs, op.pc)):
            key = (op.annot, op.array, op.pc, op.position)
            if key not in seen:
                seen.add(key)
                near.append(op)
        plan.near = near
        seen.clear()
        boundary: list[BoundaryOp] = []
        for op in plan.boundary:
            if op not in seen:
                seen.add(op)
                boundary.append(op)
        plan.boundary = boundary
