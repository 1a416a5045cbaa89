"""Integer interval-set algebra.

Cachier constantly manipulates *sets of addresses* (the SW/SR/S sets of
Section 4.1) and *sets of array indices* (when coalescing per-element
annotations into slice annotations like ``A[lo:hi]``).  Representing these as
sorted, disjoint, half-open intervals keeps the set algebra O(n) in the number
of runs rather than the number of elements.

The module also provides :func:`as_progression`, which recognises strided
index sets (``1, 3, 5, ...``) so the presenter can emit ``A[1:N:2]`` — the
Section 4.3 loop-collapse example depends on this.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class _Run:
    lo: int
    hi: int  # exclusive


class IntervalSet:
    """An immutable set of integers stored as disjoint half-open runs."""

    __slots__ = ("_runs",)

    def __init__(self, runs: Iterable[tuple[int, int]] = ()):
        norm: list[tuple[int, int]] = []
        for lo, hi in sorted((int(lo), int(hi)) for lo, hi in runs):
            if hi <= lo:
                continue
            if norm and lo <= norm[-1][1]:
                prev_lo, prev_hi = norm[-1]
                norm[-1] = (prev_lo, max(prev_hi, hi))
            else:
                norm.append((lo, hi))
        self._runs: tuple[tuple[int, int], ...] = tuple(norm)

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "IntervalSet":
        """Build from arbitrary (possibly duplicated, unsorted) integers."""
        seq = sorted(set(int(i) for i in indices))
        runs: list[tuple[int, int]] = []
        for i in seq:
            if runs and i == runs[-1][1]:
                runs[-1] = (runs[-1][0], i + 1)
            else:
                runs.append((i, i + 1))
        return cls(runs)

    @classmethod
    def single(cls, value: int) -> "IntervalSet":
        return cls([(value, value + 1)])

    @classmethod
    def span(cls, lo: int, hi: int) -> "IntervalSet":
        """Half-open span ``[lo, hi)``."""
        return cls([(lo, hi)])

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls()

    # -- inspection --------------------------------------------------------
    @property
    def runs(self) -> tuple[tuple[int, int], ...]:
        return self._runs

    def __bool__(self) -> bool:
        return bool(self._runs)

    def __len__(self) -> int:
        return sum(hi - lo for lo, hi in self._runs)

    def __iter__(self) -> Iterator[int]:
        for lo, hi in self._runs:
            yield from range(lo, hi)

    def __contains__(self, value: int) -> bool:
        # Binary search over runs.
        runs = self._runs
        lo_i, hi_i = 0, len(runs)
        while lo_i < hi_i:
            mid = (lo_i + hi_i) // 2
            rlo, rhi = runs[mid]
            if value < rlo:
                hi_i = mid
            elif value >= rhi:
                lo_i = mid + 1
            else:
                return True
        return False

    def min(self) -> int:
        if not self._runs:
            raise ValueError("empty IntervalSet has no min")
        return self._runs[0][0]

    def max(self) -> int:
        if not self._runs:
            raise ValueError("empty IntervalSet has no max")
        return self._runs[-1][1] - 1

    def is_contiguous(self) -> bool:
        return len(self._runs) == 1

    # -- algebra -----------------------------------------------------------
    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet([*self._runs, *other._runs])

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        out: list[tuple[int, int]] = []
        a, b = self._runs, other._runs
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet(out)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        out: list[tuple[int, int]] = []
        b = other._runs
        j = 0
        for lo, hi in self._runs:
            cur = lo
            while j < len(b) and b[j][1] <= cur:
                j += 1
            k = j
            while k < len(b) and b[k][0] < hi:
                blo, bhi = b[k]
                if blo > cur:
                    out.append((cur, blo))
                cur = max(cur, bhi)
                if bhi >= hi:
                    break
                k += 1
            if cur < hi:
                out.append((cur, hi))
        return IntervalSet(out)

    # Operator sugar.
    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._runs == other._runs

    def __hash__(self) -> int:
        return hash(self._runs)

    def __repr__(self) -> str:
        inner = ", ".join(f"[{lo},{hi})" for lo, hi in self._runs)
        return f"IntervalSet({inner})"


def as_progression(indices: Iterable[int]) -> tuple[int, int, int] | None:
    """Recognise an arithmetic progression.

    Returns ``(start, stop_exclusive, step)`` with ``step >= 1`` if the
    de-duplicated, sorted ``indices`` form one (a singleton counts, with
    ``step == 1``); otherwise ``None``.
    """
    seq = sorted(set(int(i) for i in indices))
    if not seq:
        return None
    return sorted_progression(seq)


def sorted_progression(seq: list[int]) -> tuple[int, int, int] | None:
    """:func:`as_progression` of a non-empty, sorted list of distinct
    integers, which it reads in place."""
    first, last = seq[0], seq[-1]
    if len(seq) == 1:
        return first, first + 1, 1
    step = seq[1] - first
    # n distinct sorted values spanning step * (n - 1): with step 1 they
    # are contiguous, a larger step needs every value checked
    if last - first != step * (len(seq) - 1):
        return None
    if step > 1 and seq != list(range(first, last + 1, step)):
        return None
    return first, last + 1, step
