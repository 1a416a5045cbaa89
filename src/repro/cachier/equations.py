"""The Section 4.1 annotation equations.

Programmer CICO (expose all communication)::

    co_x[i] = notDRFS{ SW_i - SW_{i-1} } + DRFS{ SW_i }
    co_s[i] = notFS  { SR_i - SR_{i-1} } + FS  { SR_i }
    ci[i]   = notDRFS{ S_i  - S_{i+1}  } + DRFS{ S_i }

Performance CICO (only annotations that pay under Dir1SW, which already
performs implicit check-outs at misses)::

    co_x[i] = notDRFS{ WF_i - SW_{i-1} } + DRFS{ WF_i }
    co_s[i] = {}
    ci[i]   = notDRFS{ SW_i - SW_{i+1} }
            + notDRFS{ SR_i  ∩ SW_{i+1}(any processor) }
            + DRFS{ S_i }

All sets are per (epoch *i*, processor *p*); the DRFS/FS classification is
per epoch *i* across processors.  ``SW_{i+1}(any)`` is the union over all
processors — "will be written by some processor in the next epoch".

Rationale (from the paper): a raced or falsely-shared block will not stay in
a cache long, so check it out and straight back in; an unraced block should
only be checked out if the processor did not already have it from the
previous epoch, and only checked in if the processor will not use it in the
next (modelling the cache across epoch boundaries with one epoch of
history — a block idle for longer is likely replaced anyway).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cachier.drfs import DrfsInfo
from repro.cachier.epochs import EpochTable


@dataclass
class AnnotationSets:
    """Annotation address sets for one (epoch, node)."""

    co_x: set[int] = field(default_factory=set)
    co_s: set[int] = field(default_factory=set)
    ci: set[int] = field(default_factory=set)

    def total(self) -> int:
        return len(self.co_x) + len(self.co_s) + len(self.ci)


def _prev_sw(table: EpochTable, epoch: int, node: int, history: int) -> set[int]:
    """SW over the previous ``history`` epochs (paper: history == 1)."""
    out: set[int] = set()
    for h in range(1, history + 1):
        out |= table.get(epoch - h, node).sw
    return out


def _prev_sr(table: EpochTable, epoch: int, node: int, history: int) -> set[int]:
    out: set[int] = set()
    for h in range(1, history + 1):
        out |= table.get(epoch - h, node).sr
    return out


def _next_s(table: EpochTable, epoch: int, node: int, history: int) -> set[int]:
    out: set[int] = set()
    for h in range(1, history + 1):
        out |= table.get(epoch + h, node).s
    return out


def programmer_cico(
    table: EpochTable,
    drfs: dict[int, DrfsInfo],
    epoch: int,
    node: int,
    history: int = 1,
) -> AnnotationSets:
    cur = table.get(epoch, node)
    info = drfs[epoch]
    prev_sw = _prev_sw(table, epoch, node, history)
    prev_sr = _prev_sr(table, epoch, node, history)
    return AnnotationSets(
        co_x=info.not_drfs(cur.sw - prev_sw) | info.drfs(cur.sw),
        co_s=info.not_fs(cur.sr - prev_sr) | info.fs(cur.sr),
        ci=info.not_drfs(cur.s - _next_s(table, epoch, node, history))
        | info.drfs(cur.s),
    )


def performance_cico(
    table: EpochTable,
    drfs: dict[int, DrfsInfo],
    epoch: int,
    node: int,
    history: int = 1,
) -> AnnotationSets:
    cur = table.get(epoch, node)
    nxt = table.get(epoch + 1, node)
    info = drfs[epoch]
    # Two refinements over the literal Section 4.1 text, both within its
    # stated rationale ("a processor should check-in a location only if it
    # is not going to use it again"):
    #
    # * "written by some processor in the next epoch" means some *other*
    #   processor — the check-in spares the writer an invalidation of our
    #   copy, so a location we will write ourselves does not qualify;
    # * a written location is only worth checking in if another processor
    #   touches it later in the trace (flushing effectively-private data
    #   just makes its owner re-fetch it) and this processor does not use
    #   it in the very next epoch.
    sw_next_other = table.sw_any(epoch + 1) - nxt.sw
    prev_held = _prev_sw(table, epoch, node, history)
    ci = (
        info.not_drfs(
            table.touched_later_by_other(epoch, node, cur.sw - nxt.s)
        )
        | info.not_drfs(cur.sr & sw_next_other)
        | info.drfs(cur.s)
    )
    return AnnotationSets(
        co_x=info.not_drfs(cur.wf - prev_held) | info.drfs(cur.wf),
        co_s=set(),
        ci=ci,
    )
