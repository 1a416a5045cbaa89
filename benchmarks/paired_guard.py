"""The verdict both overhead guards give: paired batches, compare.py's rule.

An overhead guard times the same operation in two modes (``off``, the
baseline, and ``on``, the mode whose cost is budgeted).  A minimum or a
median of each mode taken minutes apart measures the host as much as the
mode, so the guards time both modes within one run, in pairs of batches
(:func:`paired_times`), and judge the pairs, as
``benchmarks/e2e/compare.py`` judges a change against its parent: the
``on`` mode is **over budget** only when

* it reads slower than its ``off`` partner in at least 9 of every 10
  pairs, and
* the median pair exceeds the budget, ``off * (1 + threshold) + floor``.

A cost that is noise fails the first test; a real cost under the budget
fails the second.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable


def paired_times(ops: dict[bool, Callable[[], object]], pairs: int,
                 per_pair: int, settle: float = 0.0
                 ) -> tuple[list[float], list[float]]:
    """Time ``pairs`` pairs of batches of ``per_pair`` calls of
    ``ops[False]`` (off) and ``ops[True]`` (on); return the mean process
    CPU seconds per call of each pair's off and on batch.

    The two batches of a pair interleave call by call, and the mode that
    leads alternates pair by pair, so host interference lands on both
    modes of a pair alike.  A call that leaves work running after it
    returns (a server thread finishing a request it has answered) would
    charge that work to the next call, of the other mode: ``settle``
    seconds of sleep after each call, inside its timing, let the work
    finish on its own mode's clock (a sleep costs no CPU time itself).
    """
    off: list[float] = []
    on: list[float] = []
    clock = time.process_time
    sleep = time.sleep
    for i in range(pairs):
        order = (False, True) if i % 2 == 0 else (True, False)
        spent = {False: 0.0, True: 0.0}
        for _ in range(per_pair):
            for mode in order:
                start = clock()
                ops[mode]()
                if settle:
                    sleep(settle)
                spent[mode] += clock() - start
        off.append(spent[False] / per_pair)
        on.append(spent[True] / per_pair)
    return off, on


def paired_verdict(off: list[float], on: list[float], threshold: float,
                   floor: float = 0.0) -> dict:
    """Judge ``on[i]`` against ``off[i]``, measured back to back."""
    if not off or len(off) != len(on):
        raise ValueError(f"need equal, non-empty pairs: {len(off)} off, "
                         f"{len(on)} on")
    pairs = len(off)
    slower = sum(b > a for a, b in zip(off, on))
    excess = statistics.median(
        b - (a * (1.0 + threshold) + floor) for a, b in zip(off, on))
    over = slower * 10 >= 9 * pairs and excess > 0
    return {
        "pairs": pairs,
        "on_slower": slower,
        "median_overhead_frac": round(
            statistics.median(b / a - 1.0 for a, b in zip(off, on)), 4),
        "median_excess_s": round(excess, 6),
        "ok": not over,
    }
