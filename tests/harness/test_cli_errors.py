"""Every console script fails loud and clean on tool-level errors.

A :class:`ReproError` must become a nonzero exit (status 2) with a one-line
``<prog>: error: ...`` diagnostic on stderr — never a Python traceback.
Programming errors are not swallowed: they still traceback.
"""

from __future__ import annotations

import pytest

from repro.cliutil import EXIT_ERROR, run_cli
from repro.errors import TraceError


def test_run_cli_formats_repro_error_one_line(capsys):
    def boom(argv):
        raise TraceError("first line of the diagnostic\nsecond line")

    assert run_cli(boom, [], prog="tool") == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == "tool: error: first line of the diagnostic\n"
    assert captured.out == ""


def test_run_cli_passes_through_success():
    assert run_cli(lambda argv: 0, []) == 0
    assert run_cli(lambda argv: 3, []) == 3


def test_run_cli_does_not_hide_bugs():
    def bug(argv):
        raise ValueError("a programming error")

    with pytest.raises(ValueError):
        run_cli(bug, [])


def test_annotate_cli_missing_trace_file(tmp_path, capsys):
    from repro.cachier.cli import main

    rc = main(["--trace", str(tmp_path / "nope.trace")])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("cachier-annotate: error: ")
    assert err.count("\n") == 1


def test_annotate_cli_salvages_truncated_trace(tmp_path, capsys):
    from repro.cachier.cli import main

    path = tmp_path / "full.trace"
    rc = main(["--workload", "mp3d", "--save-trace", str(path)])
    assert rc == 0
    capsys.readouterr()

    text = path.read_text(encoding="ascii")
    cut = tmp_path / "cut.trace"
    cut.write_text(text[: int(len(text) * 0.8)], encoding="ascii")
    rc = main(["--workload", "mp3d", "--trace", str(cut)])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"// WARNING: {cut}:" in out
    assert "damaged" in out
    assert "// annotations:" in out  # annotation still completed


@pytest.mark.parametrize("block_size", [0, 24])
def test_annotate_cli_rejects_bad_trace_block_size(tmp_path, capsys, block_size):
    from repro.cachier.cli import main

    path = tmp_path / "full.trace"
    assert main(["--workload", "matmul_racing", "--save-trace", str(path)]) == 0
    capsys.readouterr()
    text = path.read_text(encoding="ascii")
    assert "\nmeta block_size 32\n" in text
    bad = tmp_path / "bad.trace"
    bad.write_text(text.replace("\nmeta block_size 32\n",
                                f"\nmeta block_size {block_size}\n"),
                   encoding="ascii")
    rc = main(["--workload", "matmul_racing", "--trace", str(bad)])
    assert rc == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == (
        f"cachier-annotate: error: {bad}: line 2: block_size must be a "
        f"positive power of two, got {block_size} — nothing salvageable\n"
    )
    assert captured.out == ""


def test_verify_cli_unknown_workload(capsys):
    from repro.verify.cli import main

    rc = main(["--workload", "no-such-workload"])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("repro-verify: error: unknown workload")
    assert err.count("\n") == 1


def test_verify_cli_passes_clean_workload(tmp_path, capsys):
    import json

    from repro.verify.cli import main

    report = tmp_path / "report.json"
    rc = main([
        "--workload", "mp3d", "--variant", "plain",
        "--report-out", str(report),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS  mp3d/plain" in out
    payload = json.loads(report.read_text(encoding="ascii"))
    assert payload["runs"][0]["ok"] is True


def test_obs_cli_unknown_workload(capsys):
    from repro.obs.cli import main

    rc = main(["run", "--workload", "no-such-workload"])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("repro-obs: error: unknown workload")


def test_figure6_cli_resume_requires_checkpoint_dir(capsys):
    from repro.harness.figure6 import main

    with pytest.raises(SystemExit) as excinfo:
        main(["--resume"])
    assert excinfo.value.code == 2
    assert "--resume requires --checkpoint-dir" in capsys.readouterr().err


# ------------------------------------------------ pool failure modes exit 2
#
# Every sweep-level failure of the parallel executor must leave through the
# same door: the table (plus a structured error table) on stdout, then a
# one-line ``<prog>: error:`` diagnostic on stderr and exit status 2.

def test_figure6_cli_worker_crash_exits_2_with_error_table(
    capsys, monkeypatch
):
    from repro.harness.figure6 import main
    from repro.harness.pool import CRASH_ENV

    monkeypatch.setenv(CRASH_ENV, "mp3d/hand")
    rc = main(["--benchmark", "mp3d", "--no-prefetch", "--jobs", "1"])
    assert rc == EXIT_ERROR
    captured = capsys.readouterr()
    assert "failed runs" in captured.out  # the structured error table
    assert "WorkerCrash" in captured.out
    assert captured.err.startswith("cachier-figure6: error: ")
    assert "mp3d/hand" in captured.err
    assert captured.err.count("\n") == 1


def test_figure6_cli_retry_exhausted_exits_2(capsys, monkeypatch):
    from repro.errors import WatchdogError
    from repro.harness import runner
    from repro.harness.figure6 import main

    original = runner.execute
    calls = []

    def watchdogged(spec):
        if spec.variant == "cachier":
            calls.append(spec.variant)
            raise WatchdogError("node 2 stuck at pc 7", node=2, pc=7)
        return original(spec)

    monkeypatch.setattr(runner, "execute", watchdogged)
    rc = main(["--benchmark", "mp3d", "--no-prefetch", "--jobs", "1"])
    assert rc == EXIT_ERROR
    assert calls == ["cachier", "cachier"]  # retried once, then reported
    captured = capsys.readouterr()
    assert "WatchdogError" in captured.out
    assert "node 2 stuck" in captured.out
    assert captured.err.startswith("cachier-figure6: error: ")
    assert captured.err.count("\n") == 1


def test_figure6_cli_verify_violation_is_reported_not_retried(
    capsys, monkeypatch
):
    from repro.errors import VerifyError
    from repro.harness import runner
    from repro.harness.figure6 import main
    from repro.verify import VerifyReport

    original = runner.execute
    calls = []

    def violating(spec):
        if spec.variant == "cachier":
            calls.append(spec.variant)
            exc = VerifyError("swmr", "two writers", node=1, block=8)
            exc.report = VerifyReport(label=spec.label, ok=False,
                                      error=str(exc))
            raise exc
        return original(spec)

    monkeypatch.setattr(runner, "execute", violating)
    rc = main(["--benchmark", "mp3d", "--no-prefetch", "--verify"])
    assert rc == EXIT_ERROR
    assert calls == ["cachier"]  # deterministic, so never retried
    captured = capsys.readouterr()
    assert "VerifyError" in captured.out
    assert "[swmr] two writers" in captured.out
    assert captured.err.startswith("cachier-figure6: error: ")
    assert "mp3d/cachier" in captured.err
    assert captured.err.count("\n") == 1


def test_figure6_cli_ledger_conflict_exits_2(tmp_path, capsys, monkeypatch):
    from repro.harness.checkpoint import SweepState
    from repro.harness.figure6 import main
    from repro.harness.pool import CRASH_ENV

    monkeypatch.delenv(CRASH_ENV, raising=False)
    SweepState(str(tmp_path)).mark("tomcatv/cachier", 999)
    rc = main([
        "--benchmark", "mp3d", "--no-prefetch",
        "--checkpoint-dir", str(tmp_path), "--resume",
    ])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("cachier-figure6: error: sweep ledger conflict")
    assert err.count("\n") == 1


def test_figure6_cli_bad_jobs_env_exits_2(capsys, monkeypatch):
    from repro.harness.figure6 import main
    from repro.harness.pool import JOBS_ENV

    monkeypatch.setenv(JOBS_ENV, "a-lot")
    rc = main(["--benchmark", "mp3d", "--no-prefetch"])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("cachier-figure6: error: ")
    assert "REPRO_JOBS" in err


# ------------------------------------------- verify exit-code contract
#
# ``repro-verify`` distinguishes "the protocol is broken" from "the tool
# could not tell": a run that completed but failed an invariant exits 1
# (a result), while usage errors and worker crashes stay on exit 2.

def test_verify_cli_invariant_failure_exits_1_serial(capsys):
    from repro.verify.cli import main

    # strict mode promotes mp3d/cachier's CICO warnings to a VerifyError:
    # a real invariant failure driven through the real pipeline
    rc = main(["--workload", "mp3d", "--variant", "cachier", "--strict"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "FAIL  mp3d/cachier" in captured.out
    assert "cico-discipline" in captured.out  # the full diagnostic printed
    assert captured.err == ""  # a result, not a tool error


def test_verify_cli_invariant_failure_exits_1_pooled(capsys):
    from repro.verify.cli import main

    rc = main([
        "--workload", "mp3d", "--variant", "plain", "--variant", "cachier",
        "--strict", "--jobs", "2",
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert "PASS  mp3d/plain" in captured.out  # the sweep completed
    assert "FAIL  mp3d/cachier" in captured.out
    assert "cico-discipline" in captured.out  # the full diagnostic printed
    assert captured.err == ""


def test_verify_cli_serial_failure_still_writes_report(tmp_path, capsys):
    import json

    from repro.verify.cli import main

    report = tmp_path / "report.json"
    rc = main([
        "--workload", "mp3d", "--variant", "cachier", "--strict",
        "--report-out", str(report),
    ])
    assert rc == 1
    capsys.readouterr()
    payload = json.loads(report.read_text(encoding="ascii"))
    assert payload["runs"][0]["ok"] is False


def test_verify_cli_parallel_crash_exits_2(capsys, monkeypatch):
    from repro.harness.pool import CRASH_ENV
    from repro.verify.cli import main

    monkeypatch.setenv(CRASH_ENV, "mp3d/cachier")
    rc = main(["--workload", "mp3d", "--jobs", "2"])
    assert rc == EXIT_ERROR
    captured = capsys.readouterr()
    assert "PASS  mp3d/plain" in captured.out  # the sweep completed
    assert "FAIL  mp3d/cachier" in captured.out
    assert "WorkerCrash" in captured.out
    assert captured.err.startswith("repro-verify: error: ")
    assert captured.err.count("\n") == 1
