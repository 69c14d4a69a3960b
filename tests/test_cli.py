"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main

pytestmark = pytest.mark.tier1


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_overheads_command():
    code, output = run_cli([
        "overheads", "--np", "8", "--jobs", "3", "--policy", "all_by_all",
        "--load", "cpu",
    ])
    assert code == 0
    for which in "mbse":
        assert f"Δ{which}" in output
    assert "terminated" in output


def test_sweep_command_small():
    code, output = run_cli(["sweep", "--jobs", "2", "--counts", "4,8"])
    assert code == 0
    assert "Figure 10" in output
    assert "Figure 13" in output
    assert "one_by_one" in output


def test_trade_command():
    code, output = run_cli([
        "trade", "--seconds", "5", "--seed", "1", "--od-ms", "700",
    ])
    assert code == 0
    assert "trading session" in output
    assert "deadline_misses" in output
    assert "equity" in output


def test_figures_command():
    code, output = run_cli(["figures"])
    assert code == 0
    assert "Figure 3" in output
    assert "Figure 8" in output
    assert "Table I" in output
    assert "sigsetjmp/siglongjmp" in output
    # Figure 8's one-by-one row: three threads on every core
    assert "3" * 57 in output


def test_admit_command():
    code, output = run_cli(["admit", "--cpus", "2", "--tasks", "6"])
    assert code == 0
    assert "admission decisions" in output
    assert "final per-CPU state" in output


def test_trace_command(tmp_path):
    import json

    from repro.obs import validate_chrome_trace

    trace_path = tmp_path / "trace.json"
    jsonl_path = tmp_path / "trace.jsonl"
    code, output = run_cli([
        "trace", "--np", "4", "--jobs", "2",
        "--out", str(trace_path), "--jsonl", str(jsonl_path),
    ])
    assert code == 0
    assert "trace events" in output
    assert "perfetto" in output
    document = json.loads(trace_path.read_text())
    assert validate_chrome_trace(document) > 0
    lines = jsonl_path.read_text().splitlines()
    assert lines and all(json.loads(line) for line in lines)


def test_trace_command_trade_workload(tmp_path):
    import json

    from repro.obs import validate_chrome_trace

    trace_path = tmp_path / "trade.json"
    code, _output = run_cli([
        "trace", "--workload", "trade", "--jobs", "3",
        "--out", str(trace_path),
    ])
    assert code == 0
    assert validate_chrome_trace(json.loads(trace_path.read_text())) > 0


def test_metrics_command():
    code, output = run_cli(["metrics", "--np", "4", "--jobs", "2"])
    assert code == 0
    assert "rtseed.response_time[tau1]" in output
    assert "kernel.dispatches" in output


def test_metrics_command_json():
    import json

    code, output = run_cli([
        "metrics", "--np", "4", "--jobs", "2", "--json",
    ])
    assert code == 0
    snapshot = json.loads(output)
    assert snapshot["counters"]["rtseed.jobs[tau1]"] == 2
    assert "p99" in snapshot["histograms"]["rtseed.response_time[tau1]"]


def test_module_entry_point():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "repro", "figures"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "Figure 3" in result.stdout


def test_metrics_command_format_flag():
    import json

    code, as_json = run_cli([
        "metrics", "--np", "4", "--jobs", "2", "--format", "json",
    ])
    assert code == 0
    snapshot = json.loads(as_json)
    assert snapshot["counters"]["rtseed.jobs[tau1]"] == 2
    # stable key ordering: sorted at every level
    assert as_json == json.dumps(snapshot, indent=2,
                                 sort_keys=True) + "\n"

    code, legacy = run_cli([
        "metrics", "--np", "4", "--jobs", "2", "--json",
    ])
    assert code == 0
    assert legacy == as_json  # --json stays as the shorthand

    code, table = run_cli([
        "metrics", "--np", "4", "--jobs", "2", "--format", "table",
    ])
    assert code == 0
    assert "kernel.dispatches" in table


def test_report_command(tmp_path):
    import json

    code, output = run_cli(["report", "--np", "4", "--jobs", "2"])
    assert code == 0
    report = json.loads(output)
    assert report["schema"] == "rtseed-run-report/1"
    assert report["engine"]["counters"]["events_processed"] > 0
    assert report["metrics"]["counters"]["rtseed.jobs[tau1]"] == 2
    assert "report.run" in report["wallclock"]

    out_path = tmp_path / "report.json"
    code, output = run_cli([
        "report", "--np", "4", "--jobs", "2", "--no-wallclock",
        "--out", str(out_path),
    ])
    assert code == 0
    assert "wrote run report" in output
    written = json.loads(out_path.read_text())
    assert "wallclock" not in written
    assert written["queues"]["cpu0"]["peak_depth"] >= 1


def test_report_command_is_deterministic_without_wallclock():
    code_a, first = run_cli([
        "report", "--np", "4", "--jobs", "2", "--no-wallclock",
    ])
    code_b, second = run_cli([
        "report", "--np", "4", "--jobs", "2", "--no-wallclock",
    ])
    assert code_a == code_b == 0
    assert first == second


def test_trace_command_flight_dump(tmp_path):
    import json

    dump = tmp_path / "flight.jsonl"
    code, output = run_cli([
        "trace", "--np", "4", "--jobs", "2",
        "--out", str(tmp_path / "trace.json"),
        "--flight-dump", str(dump),
    ])
    assert code == 0
    assert "wrote flight dump" in output
    lines = dump.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == "rtseed-flightrec/1"
    assert header["reason"] == "on_demand"
    kernel = json.loads(lines[1])
    assert kernel["threads_alive"] == 0  # run completed
    assert len(lines) - 2 == min(header["recorded"], header["capacity"])


def test_faults_command_flight_dir(tmp_path):
    code, output = run_cli([
        "faults", "--scenario", "overload_degrade", "--seconds", "12",
        "--flight-dir", str(tmp_path),
    ])
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    # degraded-mode entry is a failure edge: the recorder auto-dumped
    assert any(name.startswith("flightrec-degrade_enter") for name in names)


def test_farm_status_empty_dir(tmp_path):
    """Regression: a missing or checkpoint-free location is a normal
    answer ("no checkpoints", exit 0), not a traceback."""
    code, output = run_cli([
        "farm", "status", "--checkpoint-dir", str(tmp_path),
    ])
    assert code == 0
    assert "no checkpoints" in output

    missing = tmp_path / "does-not-exist"
    code, output = run_cli([
        "farm", "status", "--checkpoint-dir", str(missing),
    ])
    assert code == 0
    assert "no checkpoints" in output


def test_farm_status_lists_checkpoints(tmp_path):
    checkpoint = tmp_path / "scale.jsonl"
    code, _ = run_cli([
        "scale", "--cores", "2", "--threads-per-core", "2",
        "--tasks", "8", "--workers", "1",
        "--checkpoint", str(checkpoint),
        "--out", str(tmp_path / "report.json"),
    ])
    assert code == 0

    code, output = run_cli([
        "farm", "status", "--checkpoint-dir", str(tmp_path),
    ])
    assert code == 0
    assert "scale" in output
    assert "2 item(s) completed" in output

    # pointing at the file directly works too
    code, output = run_cli(["farm", "status",
                            "--checkpoint", str(checkpoint)])
    assert code == 0
    assert "2 item(s) completed" in output


def test_scale_command_workers_invariant(tmp_path):
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    code, output = run_cli([
        "scale", "--cores", "2", "--threads-per-core", "2",
        "--tasks", "8", "--workers", "1", "--out", str(serial),
    ])
    assert code == 0
    assert "jobs/minute" in output
    code, _ = run_cli([
        "scale", "--cores", "2", "--threads-per-core", "2",
        "--tasks", "8", "--workers", "2", "--out", str(parallel),
    ])
    assert code == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_scale_command_rejects_oversized_topology():
    code, output = run_cli(["scale", "--cores", "99"])
    assert code == 2
    assert "subset" in output


def test_scale_command_rejects_too_many_tasks_per_core():
    # 99 tasks over 2 cores puts 50 on core 0: one past the RTQ band
    code, output = run_cli([
        "scale", "--cores", "2", "--threads-per-core", "2",
        "--tasks", "99",
    ])
    assert code == 2
    assert "at most 49 tasks per core" in output
    assert "farm:" not in output  # rejected before anything is farmed


def test_scale_command_accepts_full_rtq_band(tmp_path):
    code, output = run_cli([
        "scale", "--cores", "1", "--threads-per-core", "2",
        "--tasks", "49", "--out", str(tmp_path / "report.json"),
    ])
    assert code == 0
    assert "1/1 item(s)" in output


def test_scale_summary_leads_with_failed_shards(monkeypatch, tmp_path):
    """The planted >49-tasks failure, farmed through the library (the
    CLI itself rejects it up front): the summary leads with the shard
    counts and the error-class histogram."""
    from repro.scale import failure_summary, farm_scale

    document, _ = farm_scale(n_cores=2, threads_per_core=2,
                             n_tasks=2 * 50)
    assert failure_summary(document) == [
        "0/2 shard(s) completed, 2 errored, 0 quarantined",
        "error classes: PriorityBandError x2",
    ]

    monkeypatch.setattr("repro.scale.check_task_count",
                        lambda n_tasks, n_cores: None)
    code, output = run_cli([
        "scale", "--cores", "2", "--threads-per-core", "2",
        "--tasks", "100", "--out", str(tmp_path / "report.json"),
    ])
    assert code == 1
    lines = [line for line in output.splitlines()
             if line.startswith("scale:")]
    assert lines[0] == ("scale: 0/2 shard(s) completed, 2 errored, "
                        "0 quarantined")
    assert lines[1] == "scale: error classes: PriorityBandError x2"


def test_scale_summary_silent_when_every_shard_completes():
    from repro.scale import failure_summary, farm_scale

    document, _ = farm_scale(n_cores=2, threads_per_core=2, n_tasks=8)
    assert failure_summary(document) == []


@pytest.mark.parametrize("argv, message", [
    (["check", "--runs", "-3"], "check: --runs must be >= 0, got -3"),
    (["check", "--workers", "0"], "check: --workers must be >= 1"),
    (["check", "--fault-rate", "1.7"],
     "check: --fault-rate must be within [0, 1], got 1.7"),
    (["check", "--fault-rate", "-0.1"], "--fault-rate must be within"),
    (["check", "--fault-rate", "nan"], "--fault-rate must be within"),
    (["faults", "--seconds", "0"], "faults: --seconds must be > 0"),
    (["faults", "--seconds", "0", "--workers", "2"],
     "faults: --seconds must be > 0"),
    (["faults", "--workers", "0"], "faults: --workers must be >= 1"),
    (["farm", "--runs", "-1"], "farm: --runs must be >= 0"),
    (["farm", "--workers", "0"], "farm: --workers must be >= 1"),
    (["farm", "--fault-rate", "2"], "farm: --fault-rate must be within"),
    (["farm", "--what", "faults", "--seconds", "-1"],
     "farm: --seconds must be > 0"),
])
def test_batch_commands_reject_bad_arguments_before_running(argv,
                                                            message):
    """Bad batch arguments exit 2 with one clear message, before any
    scenario runs or anything is farmed out."""
    code, output = run_cli(argv)
    assert code == 2
    assert message in output
    assert output.count("\n") == 1
    assert "farm:" not in output.replace("farm: --", "")


def test_batch_argument_checks_only_what_the_batch_uses(tmp_path):
    """``--seconds`` only sizes fault campaigns and ``--runs`` only
    check batches; a zero run count is a valid (empty) batch."""
    code, output = run_cli(["check", "--runs", "0"])
    assert code == 0
    assert "0 runs from seed 0" in output
    code, _output = run_cli(["farm", "--runs", "0", "--seconds", "0",
                             "--workers", "1",
                             "--out", str(tmp_path / "farm.json")])
    assert code == 0
