"""Tests for the static CICO cost report."""

from __future__ import annotations

import pytest

from repro.cico.report import estimate_costs
from repro.errors import ReproError
from repro.harness.runner import run_program
from repro.lang.ast import AnnotKind
from repro.lang.builder import ProgramBuilder
from repro.machine.config import MachineConfig


def simple_annotated(n=16):
    b = ProgramBuilder("annotated")
    A = b.shared("A", (n,))
    me = b.param("me")
    lo, hi = b.param("Lo"), b.param("Hi")
    with b.function("main"):
        b.check_out_x(b.target(A, b.range(lo, hi)))
        with b.for_("i", lo, hi) as i:
            b.set(A[i], i)
        b.check_in(b.target(A, b.range(lo, hi)))
    return b.build()


def params(node):
    return {"Lo": node * 8, "Hi": node * 8 + 7}


class TestBasicCensus:
    def test_counts_blocks_per_node(self):
        report = estimate_costs(simple_annotated(), params, num_nodes=2)
        # Each node's slice is 8 doubles = 2 blocks, checked out and in once.
        assert report.checkouts() == 4
        assert report.checkins() == 4
        assert report.all_exact()

    def test_per_node_breakdown(self):
        report = estimate_costs(simple_annotated(), params, num_nodes=2)
        for node in (0, 1):
            sites = report.per_node[node]
            assert [s.kind for s in sites] == [
                AnnotKind.CHECK_OUT_X, AnnotKind.CHECK_IN
            ]
            assert all(s.block_ops == 2 for s in sites)

    def test_render(self):
        report = estimate_costs(simple_annotated(), params, num_nodes=2)
        text = report.render()
        assert "check_out_X" in text
        assert "total check-outs: 4" in text

    def test_attributed_cycles_positive(self):
        report = estimate_costs(simple_annotated(), params, num_nodes=2)
        assert report.attributed_cycles() > 0

    def test_bad_node_count(self):
        with pytest.raises(ReproError):
            estimate_costs(simple_annotated(), params, 0)


class TestLoopsAndGuards:
    def test_loop_multiplies_executions(self):
        b = ProgramBuilder("loopy")
        A = b.shared("A", (8,))
        with b.function("main"):
            with b.for_("t", 1, 3):
                b.check_in(b.target(A, b.range(0, 7)))
        report = estimate_costs(b.build(), lambda n: {}, 1)
        site = report.per_node[0][0]
        assert site.executions == 3
        assert site.blocks_per_execution == 2
        assert report.checkins() == 6

    def test_me_guard_excludes_other_nodes(self):
        b = ProgramBuilder("guarded")
        A = b.shared("A", (8,))
        me = b.param("me")
        with b.function("main"):
            with b.if_(me.eq(0)):
                b.check_in(b.target(A, b.range(0, 7)))
        report = estimate_costs(b.build(), lambda n: {}, 2)
        assert len(report.per_node[0]) == 1
        assert len(report.per_node[1]) == 0

    def test_annotation_on_single_element(self):
        b = ProgramBuilder("elem")
        A = b.shared("A", (8,))
        with b.function("main"):
            b.let("i", 2)
            b.check_out_x(A[b.var("i")])
        report = estimate_costs(b.build(), lambda n: {}, 1)
        site = report.per_node[0][0]
        # ``i`` is a plain local (not a loop var): not statically evaluable.
        assert not site.exact
        assert site.blocks_per_execution == 1

    def test_prefetch_counted_separately(self):
        b = ProgramBuilder("pf")
        A = b.shared("A", (8,))
        with b.function("main"):
            b.prefetch_s(b.target(A, b.range(0, 7)))
        report = estimate_costs(b.build(), lambda n: {}, 1)
        assert report.prefetches() == 2
        assert report.checkouts() == 0


class TestMatchesSimulation:
    @pytest.mark.parametrize("variant", ["cico_fits", "cico_column"])
    def test_jacobi_static_equals_simulated(self, variant):
        from repro.workloads.jacobi import make

        w = make(variant=variant)
        report = estimate_costs(
            w.program, w.params_fn, w.config.num_nodes,
            block_size=w.config.block_size,
        )
        result, _ = run_program(w.program, w.config, w.params_fn)
        assert report.checkouts() == result.stats.checkouts
        assert report.checkins() == result.stats.checkins
        assert report.all_exact()

    def test_restructured_matmul_static_counts(self):
        from repro.cico.cost_model import matmul_restructured_c_checkouts
        from repro.workloads.matmul_restructured import make

        w = make(n=8, num_nodes=4)
        report = estimate_costs(
            w.program, w.params_fn, w.config.num_nodes,
            block_size=w.config.block_size,
        )
        assert report.checkouts() == matmul_restructured_c_checkouts(8, 2)


class TestStaticSectionFiveCounts:
    def test_annotated_racing_matmul_static_n_cubed(self):
        """The static census on Cachier's annotated racing multiply lands
        exactly on Section 5's N^3 check-out count — pencil-and-paper
        arithmetic, mechanized."""
        from repro.cachier.annotator import Cachier, Policy
        from repro.harness.runner import trace_program
        from repro.workloads.matmul_racing import make

        spec = make()  # N = 8
        trace = trace_program(spec.program, spec.config, spec.params_fn)
        cachier = Cachier(spec.program, trace, params_fn=spec.params_fn,
                          cache_size=spec.cachier_cache_size)
        annotated = cachier.annotate(Policy.PERFORMANCE).program
        report = estimate_costs(
            annotated, spec.params_fn, spec.config.num_nodes,
            block_size=spec.config.block_size,
        )
        assert report.checkouts() == 8 ** 3


class TestTargetRank:
    """A target whose index count differs from its array's rank is an
    inexact fallback, as an unknown array is: the interpreter refuses to
    run it."""

    @pytest.mark.parametrize("target", ["A[me, 1]", "A[0:3, 1, 2]",
                                        "B[1]", "B[0:3]"])
    def test_counts_as_inexact_fallback(self, target):
        from repro.lang.parse import parse_program

        program = parse_program(
            "array A[8] elem=8 order=C\narray B[4, 4] elem=8 order=C\n"
            f"check_in {target}\n"
        )
        report = estimate_costs(program, lambda n: {}, 1)
        (site,) = report.per_node[0]
        assert not site.exact
        assert site.blocks_per_execution == 1


class TestCliErrors:
    """Program errors in ``cachier-annotate --source`` exit 2 with the
    one-line diagnostic, never a traceback."""

    @pytest.mark.parametrize("line, message", [
        ("check_in A[me, 1]", "A: expected 1 indices, got 2"),
        ("x = sqrt(0 - 1)", "math domain error"),
        ("x = exp(1000)", "math range error"),
    ])
    def test_source_error_is_one_line(self, tmp_path, capsys, line, message):
        from repro.cachier.cli import main

        source = tmp_path / "bad.cico"
        source.write_text(f"array A[8] elem=8 order=C\n\nA[me] = 1\n{line}\n")
        assert main(["--source", str(source), "--nodes", "2",
                     "--cost-report"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cachier-annotate: error: ")
        assert err.endswith(f"{message}\n") and err.count("\n") == 1
