"""Golden test: the worked Figure 4 example of Section 4.1 (experiment E3).

The paper gives, for a processor p and variables a, b, c, d:

* Programmer CICO, epoch i:     co_s(c), co_s(a)  and  ci(c), ci(d)
* Performance CICO, epoch i:    ci(c) only
* Programmer CICO, epoch i-1 (first epoch): co_x(a), co_x(b), co_s(d), ci(a)
* Performance CICO, epoch i-1:  ci(a) only — "the check-in for a is
  necessary as there is a potential data race on that variable".

A consistent access pattern behind those outputs (reconstructed from the
equations; Figure 4 itself is a diagram):

* epoch i-1: p writes a and b, reads d; q also writes a  (race on a);
* epoch i:   p reads a, c, d and writes b;
* epoch i+1: p reads a and writes b; q writes c.

Each variable lives in its own cache block (no false sharing).
"""

from __future__ import annotations

import pytest

from repro.cachier.drfs import detect_all
from repro.cachier.epochs import EpochTable
from repro.cachier.equations import performance_cico, programmer_cico
from repro.trace.records import MissKind, MissRecord, Trace

BLOCK = 32
# One block per variable.
A, B_, C, D = 0, 32, 64, 96
P, Q = 0, 1  # processors

EPOCH_IM1, EPOCH_I, EPOCH_IP1 = 0, 1, 2


@pytest.fixture()
def table_and_drfs():
    recs = [
        # epoch i-1: p writes a, b; reads d.  q writes a (race).
        MissRecord(MissKind.WRITE_MISS, A, 1, P, EPOCH_IM1),
        MissRecord(MissKind.WRITE_MISS, B_, 2, P, EPOCH_IM1),
        MissRecord(MissKind.READ_MISS, D, 3, P, EPOCH_IM1),
        MissRecord(MissKind.WRITE_MISS, A, 4, Q, EPOCH_IM1),
        # epoch i: p reads a, c, d; writes b.
        MissRecord(MissKind.READ_MISS, A, 5, P, EPOCH_I),
        MissRecord(MissKind.READ_MISS, C, 6, P, EPOCH_I),
        MissRecord(MissKind.READ_MISS, D, 7, P, EPOCH_I),
        MissRecord(MissKind.WRITE_MISS, B_, 8, P, EPOCH_I),
        # epoch i+1: p reads a, writes b; q writes c.
        MissRecord(MissKind.READ_MISS, A, 9, P, EPOCH_IP1),
        MissRecord(MissKind.WRITE_MISS, B_, 10, P, EPOCH_IP1),
        MissRecord(MissKind.WRITE_MISS, C, 11, Q, EPOCH_IP1),
    ]
    trace = Trace(misses=recs, block_size=BLOCK)
    table = EpochTable(trace)
    return table, detect_all(table)


class TestPaperExample:
    def test_race_on_a_in_epoch_im1(self, table_and_drfs):
        _, drfs = table_and_drfs
        assert drfs[EPOCH_IM1].races == {A}
        assert drfs[EPOCH_I].races == set()

    def test_programmer_epoch_i(self, table_and_drfs):
        table, drfs = table_and_drfs
        sets = programmer_cico(table, drfs, EPOCH_I, P)
        assert sets.co_s == {C, A}  # co_s(c), co_s(a)
        assert sets.co_x == set()  # b was written in i-1 too
        assert sets.ci == {C, D}  # ci(c), ci(d)

    def test_performance_epoch_i(self, table_and_drfs):
        table, drfs = table_and_drfs
        sets = performance_cico(table, drfs, EPOCH_I, P)
        assert sets.co_x == set()
        assert sets.co_s == set()
        assert sets.ci == {C}  # ci(c) only

    def test_programmer_epoch_im1(self, table_and_drfs):
        table, drfs = table_and_drfs
        sets = programmer_cico(table, drfs, EPOCH_IM1, P)
        assert sets.co_x == {A, B_}  # co_x(a), co_x(b)
        assert sets.co_s == {D}  # co_s(d)
        assert sets.ci == {A}  # ci(a): raced

    def test_performance_epoch_im1(self, table_and_drfs):
        table, drfs = table_and_drfs
        sets = performance_cico(table, drfs, EPOCH_IM1, P)
        assert sets.co_x == set()  # no write faults
        assert sets.ci == {A}  # DRFS{S}: the race on a

    def test_q_perspective_epoch_im1(self, table_and_drfs):
        """q also raced on a: its Programmer sets check a out and back in."""
        table, drfs = table_and_drfs
        sets = programmer_cico(table, drfs, EPOCH_IM1, Q)
        assert sets.co_x == {A}
        assert sets.ci == {A}


class TestEquationProperties:
    def test_write_fault_produces_perf_co_x(self):
        """A read-then-write (fault) is exactly what Performance co_x keeps."""
        recs = [
            MissRecord(MissKind.READ_MISS, A, 1, P, 0),
            MissRecord(MissKind.WRITE_FAULT, A, 2, P, 0),
        ]
        table = EpochTable(Trace(misses=recs, block_size=BLOCK))
        drfs = detect_all(table)
        perf = performance_cico(table, drfs, 0, P)
        assert perf.co_x == {A}

    def test_checked_out_previous_epoch_suppresses_co(self):
        recs = [
            MissRecord(MissKind.WRITE_MISS, A, 1, P, 0),
            MissRecord(MissKind.READ_MISS, A, 2, P, 1),
            MissRecord(MissKind.WRITE_FAULT, A, 3, P, 1),
        ]
        table = EpochTable(Trace(misses=recs, block_size=BLOCK))
        drfs = detect_all(table)
        # Programmer: a was in SW_0, so epoch 1 needs no co_x.
        assert programmer_cico(table, drfs, 1, P).co_x == set()
        # Performance: same suppression for the fault-driven co_x.
        assert performance_cico(table, drfs, 1, P).co_x == set()

    def test_perf_ci_for_read_written_next_by_other(self):
        recs = [
            MissRecord(MissKind.READ_MISS, A, 1, P, 0),
            MissRecord(MissKind.WRITE_MISS, A, 2, Q, 1),
        ]
        table = EpochTable(Trace(misses=recs, block_size=BLOCK))
        drfs = detect_all(table)
        perf = performance_cico(table, drfs, 0, P)
        assert perf.ci == {A}

    def test_perf_ci_not_for_block_p_writes_again(self):
        recs = [
            MissRecord(MissKind.WRITE_MISS, A, 1, P, 0),
            MissRecord(MissKind.WRITE_MISS, A, 2, P, 1),
        ]
        table = EpochTable(Trace(misses=recs, block_size=BLOCK))
        drfs = detect_all(table)
        assert performance_cico(table, drfs, 0, P).ci == set()

    def test_last_epoch_checks_everything_in(self):
        """S_{i+1} is empty past the end, so Programmer ci = S_i."""
        recs = [
            MissRecord(MissKind.WRITE_MISS, A, 1, P, 0),
            MissRecord(MissKind.READ_MISS, C, 2, P, 0),
        ]
        table = EpochTable(Trace(misses=recs, block_size=BLOCK))
        drfs = detect_all(table)
        assert programmer_cico(table, drfs, 0, P).ci == {A, C}
