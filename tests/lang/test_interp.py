"""End-to-end interpreter tests: IR programs running on the machine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InterpError
from repro.lang.ast import AnnotKind
from repro.lang.builder import ProgramBuilder
from repro.lang.interp import Interpreter, SharedStore
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine


def run(program, nodes=2, params_fn=None, flush=False, **cfg_kw):
    cfg = MachineConfig(
        num_nodes=nodes, cache_size=4096, block_size=32, assoc=2, **cfg_kw
    )
    store = SharedStore(program, block_size=cfg.block_size)
    interp = Interpreter(program, store, params_fn=params_fn)
    machine = Machine(cfg, flush_at_barrier=flush)
    result = machine.run(interp.kernel)
    return result, store


class TestFunctional:
    def test_single_node_fill(self):
        b = ProgramBuilder("fill")
        A = b.shared("A", (8,))
        with b.function("main"):
            with b.if_(b.param("me").eq(0)):
                with b.for_("i", 0, 7) as i:
                    b.set(A[i], i * i)
        _, store = run(b.build())
        assert list(store.array("A")) == [i * i for i in range(8)]

    def test_spmd_partition(self):
        b = ProgramBuilder("partition")
        A = b.shared("A", (8,))
        lo, hi = b.param("lo"), b.param("hi")
        with b.function("main"):
            with b.for_("i", lo, hi) as i:
                b.set(A[i], b.param("me") + 1)
        _, store = run(
            b.build(),
            nodes=2,
            params_fn=lambda n: {"lo": n * 4, "hi": n * 4 + 3},
        )
        assert list(store.array("A")) == [1, 1, 1, 1, 2, 2, 2, 2]

    def test_private_arrays_do_not_touch_shared_memory(self):
        b = ProgramBuilder("private")
        A = b.shared("A", (8,))
        P = b.private("scratch", (8,))
        with b.function("main"):
            with b.for_("i", 0, 7) as i:
                b.set(P[i], i)
            with b.if_(b.param("me").eq(0)):
                with b.for_("i", 0, 7) as i:
                    b.set(A[i], P[i] * 10)
        result, store = run(b.build())
        assert list(store.array("A")) == [i * 10 for i in range(8)]
        # Only node 0's 8 stores to A reached the memory system.
        assert store.array("A").shape == (8,)
        assert result.stats.accesses == 8

    def test_functions_and_args(self):
        b = ProgramBuilder("funcs")
        A = b.shared("A", (4,))
        with b.function("write_one", params=("slot", "value")):
            b.set(A[b.var("slot")], b.var("value"))
        with b.function("main"):
            with b.if_(b.param("me").eq(0)):
                b.call("write_one", 2, 42)
        _, store = run(b.build())
        assert store.array("A")[2] == 42

    def test_while_loop(self):
        b = ProgramBuilder("whiles")
        A = b.shared("A", (1,))
        with b.function("main"):
            with b.if_(b.param("me").eq(0)):
                b.let("n", 0)
                with b.while_(b.var("n") < 5):
                    b.let("n", b.var("n") + 1)
                b.set(A[0], b.var("n"))
        _, store = run(b.build())
        assert store.array("A")[0] == 5

    def test_column_major_layout_adjacency(self):
        """F-order arrays place column elements in the same cache blocks."""
        b = ProgramBuilder("colmajor")
        U = b.shared("U", (8, 8), order="F")
        with b.function("main"):
            with b.if_(b.param("me").eq(0)):
                with b.for_("i", 0, 7) as i:
                    b.set(U[i, 0], 1)  # one column = 2 blocks of 4 doubles
        result, _ = run(b.build())
        assert result.stats.write_misses == 2
        assert result.stats.hits == 6

    def test_reduction_reads_other_nodes_data(self):
        b = ProgramBuilder("reduce")
        A = b.shared("A", (2,))
        S = b.shared("S", (1,))
        me = b.param("me")
        with b.function("main"):
            b.set(A[me], me + 5)
            b.barrier()
            with b.if_(me.eq(0)):
                b.set(S[0], A[0] + A[1])
        _, store = run(b.build())
        assert store.array("S")[0] == 11

    def test_unbound_param_raises(self):
        b = ProgramBuilder("bad")
        A = b.shared("A", (4,))
        with b.function("main"):
            b.set(A[b.param("missing")], 1)
        with pytest.raises(InterpError):
            run(b.build())

    def test_out_of_bounds_raises(self):
        b = ProgramBuilder("oob")
        A = b.shared("A", (4,))
        with b.function("main"):
            b.set(A[9], 1)
        with pytest.raises(Exception):
            run(b.build())


class TestTiming:
    def test_annotation_events_reach_protocol(self):
        b = ProgramBuilder("annot")
        A = b.shared("A", (4,))
        with b.function("main"):
            with b.if_(b.param("me").eq(0)):
                b.check_out_x(b.target(A, b.range(0, 3)))
                with b.for_("i", 0, 3) as i:
                    b.set(A[i], 1)
                b.check_in(b.target(A, b.range(0, 3)))
        result, _ = run(b.build())
        assert result.stats.checkouts == 1  # 4 doubles = 1 block
        assert result.stats.checkins == 1
        assert result.stats.write_misses == 1  # the check_out did the fetch
        assert result.stats.hits == 4

    def test_checkout_x_eliminates_write_fault(self):
        def build(with_annot):
            b = ProgramBuilder("rw")
            A = b.shared("A", (4,))
            with b.function("main"):
                with b.if_(b.param("me").eq(0)):
                    if with_annot:
                        b.check_out_x(A[0])
                    b.let("t", A[0])
                    b.set(A[0], b.var("t") + 1)
            return b.build()

        plain, _ = run(build(False))
        annotated, _ = run(build(True))
        assert plain.stats.write_faults == 1
        assert annotated.stats.write_faults == 0
        assert annotated.cycles < plain.cycles

    def test_prefetch_overlaps_compute(self):
        def build(with_prefetch):
            b = ProgramBuilder("pf")
            A = b.shared("A", (4,))
            with b.function("main"):
                with b.if_(b.param("me").eq(0)):
                    if with_prefetch:
                        b.prefetch_s(A[0])
                    # Lots of private compute to overlap with the fetch.
                    b.let("x", 0)
                    with b.for_("i", 1, 300) as i:
                        b.let("x", b.var("x") + i)
                    b.let("t", A[0])
            return b.build()

        plain, _ = run(build(False))
        prefetched, _ = run(build(True))
        assert prefetched.cycles < plain.cycles

    def test_locks_serialise_critical_section(self):
        b = ProgramBuilder("locky")
        A = b.shared("A", (1,))
        with b.function("main"):
            b.lock(A[0])
            b.set(A[0], A[0] + 1)
            b.unlock(A[0])
        result, store = run(b.build(), nodes=4)
        assert store.array("A")[0] == 4  # no lost updates

    def test_race_without_lock_can_lose_updates(self):
        # Both nodes read 0 (interleaved by virtual time), both write 1.
        b = ProgramBuilder("racy")
        A = b.shared("A", (1,))
        with b.function("main"):
            b.let("t", A[0])
            b.set(A[0], b.var("t") + 1)
        _, store = run(b.build(), nodes=2)
        assert store.array("A")[0] < 2


class TestTraceIntegration:
    def test_traced_run_produces_labelled_trace(self):
        from repro.trace.collector import TraceCollector

        b = ProgramBuilder("traced")
        A = b.shared("A", (8,))
        me = b.param("me")
        with b.function("main"):
            b.set(A[me], 1)
            b.barrier()
            b.set(A[me + 2], 2)

        program = b.build()
        cfg = MachineConfig(num_nodes=2, cache_size=4096, block_size=32, assoc=2)
        store = SharedStore(program, block_size=32)
        collector = TraceCollector(labels=store.labels, block_size=32, num_nodes=2)
        interp = Interpreter(program, store)
        machine = Machine(cfg, flush_at_barrier=True)
        collector.subscribe(machine.bus)
        machine.run(interp.kernel)
        trace = collector.finish()

        assert trace.num_epochs() == 2
        table = trace.label_table()
        refs = {str(table.resolve(rec.addr)) for rec in trace.misses_in(0)}
        assert refs == {"A[0]", "A[1]"}
