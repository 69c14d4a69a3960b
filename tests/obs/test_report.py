"""Tests for the unified run report."""

import json

import pytest

from repro.core.middleware import RTSeed
from repro.obs import (
    RUN_REPORT_SCHEMA,
    RunReport,
    SchedulerMetrics,
    WallClockProfile,
)

pytestmark = pytest.mark.tier1


def small_run(with_metrics=True):
    from repro.bench.overheads import OPTIONAL_DEADLINE, make_eval_task

    middleware = RTSeed(seed=0)
    middleware.add_task(
        make_eval_task(3),
        n_jobs=2,
        cpu=0,
        policy="one_by_one",
        optional_deadline=OPTIONAL_DEADLINE,
    )
    metrics = SchedulerMetrics.attach(middleware.kernel) \
        if with_metrics else None
    middleware.run()
    return middleware.kernel, metrics


def test_collect_engine_and_queue_sections():
    kernel, metrics = small_run()
    report = RunReport.collect(kernel, metrics=metrics)
    sections = report.to_dict()
    assert sections["schema"] == RUN_REPORT_SCHEMA
    engine = sections["engine"]
    assert set(engine) == {"now", "counters"}
    counters = engine["counters"]
    assert counters["events_processed"] > 0
    assert counters["events_scheduled"] >= counters["events_processed"]
    assert counters["pending"] == 0  # drained run
    assert counters["peak_heap_size"] >= 1
    # per-priority accounting adds up
    for level in counters["by_priority"].values():
        assert level["processed"] == (level["scheduled"]
                                      - level["cancelled"]
                                      - level["pending"])
    queues = sections["queues"]
    assert "cpu0" in queues
    assert queues["cpu0"]["peak_depth"] >= 1
    assert queues["cpu0"]["depth"] == 0
    assert sections["metrics"]["counters"]


def test_queue_section_lists_only_used_run_queues():
    """Idle CPUs (most of the 228 on the Xeon Phi) are left out; every
    CPU whose queue ever held a thread is listed."""
    kernel, _metrics = small_run(with_metrics=False)
    queues = RunReport.collect(kernel).to_dict()["queues"]
    used = {f"cpu{cpu}" for cpu, runqueue in enumerate(kernel.runqueues)
            if runqueue.counters()["peak_depth"] > 0}
    assert set(queues) == used
    assert 0 < len(queues) < len(kernel.runqueues)
    assert all(queue["peak_depth"] > 0 for queue in queues.values())


def test_optional_sections_absent_when_not_wired():
    kernel, _metrics = small_run(with_metrics=False)
    sections = RunReport.collect(kernel).to_dict()
    assert "metrics" not in sections
    assert "faults" not in sections
    assert "wallclock" not in sections


def test_wallclock_section_is_opt_out():
    kernel, _metrics = small_run(with_metrics=False)
    profile = WallClockProfile()
    with profile.section("phase"):
        pass
    with_clock = RunReport.collect(kernel, profile=profile).to_dict()
    without = RunReport.collect(kernel, profile=profile,
                                include_wallclock=False).to_dict()
    assert "wallclock" in with_clock
    assert "wallclock" not in without


def test_fault_sections_from_collaborators():
    class FakeInjector:
        counts = {"signal_drop": 3}

    class FakeWatchdog:
        fired = [1, 2]

    class FakeDegrade:
        degraded = False
        episodes = [1]
        shed_jobs = 4

    kernel, _metrics = small_run(with_metrics=False)
    sections = RunReport.collect(
        kernel, injector=FakeInjector(), watchdog=FakeWatchdog(),
        degrade=FakeDegrade(),
    ).to_dict()
    faults = sections["faults"]
    assert faults["injected"] == {"signal_drop": 3}
    assert faults["watchdog_fires"] == 2
    assert faults["degraded"] == {"active": False, "episodes": 1,
                                  "shed_jobs": 4}


def test_to_json_is_deterministic_and_parseable():
    kernel, metrics = small_run()
    rendered = RunReport.collect(kernel, metrics=metrics).to_json()
    assert rendered.endswith("\n")
    parsed = json.loads(rendered)
    assert parsed["schema"] == RUN_REPORT_SCHEMA
    # stable key order: re-serializing sorted must reproduce the bytes
    assert rendered == json.dumps(parsed, sort_keys=True, indent=2) + "\n"

    kernel2, metrics2 = small_run()
    assert RunReport.collect(kernel2, metrics=metrics2).to_json() \
        == rendered


def test_reports_match_across_backends(monkeypatch):
    """The production structures and the checked model
    (``tests/engine/model.py``) report identical telemetry."""
    from repro.bench.overheads import OPTIONAL_DEADLINE, make_eval_task
    from tests.engine.model import swap_in_model

    def run():
        middleware = RTSeed(seed=0)
        middleware.add_task(
            make_eval_task(3),
            n_jobs=2,
            cpu=0,
            policy="one_by_one",
            optional_deadline=OPTIONAL_DEADLINE,
        )
        middleware.run()
        return RunReport.collect(middleware.kernel).to_dict()

    with monkeypatch.context() as patch:
        swap_in_model(patch)
        model = run()
    assert model == run()


def test_repr_names_sections():
    kernel, _metrics = small_run(with_metrics=False)
    report = RunReport.collect(kernel)
    assert "engine" in repr(report)


def test_merge_sums_counts_and_maxes_peaks():
    shard_a = {
        "schema": RUN_REPORT_SCHEMA,
        "engine": {
            "now": 100,
            "counters": {
                "events_processed": 10,
                "peak_heap_size": 7,
                "by_priority": {"99": {"scheduled": 4}},
            },
        },
        "queues": {
            "cpu0": {"cpu": 0, "depth": 1, "peak_depth": 3,
                     "level_peaks": {"99": 2}},
        },
        "faults": {"injected": {"net_timeout": 2},
                   "watchdog_fires": 1,
                   "degraded": {"active": False, "episodes": 1,
                                "shed_jobs": 4}},
        "metrics": {"dropme": 1},
        "wallclock": {"dropme": 1},
    }
    shard_b = {
        "schema": RUN_REPORT_SCHEMA,
        "engine": {
            "now": 50,
            "counters": {
                "events_processed": 5,
                "peak_heap_size": 9,
                "by_priority": {"99": {"scheduled": 1}},
            },
        },
        "queues": {
            "cpu0": {"cpu": 0, "depth": 0, "peak_depth": 8,
                     "level_peaks": {"99": 5, "98": 1}},
        },
        "faults": {"injected": {"net_timeout": 3, "feed_gap": 1},
                   "watchdog_fires": 0,
                   "degraded": {"active": True, "episodes": 2,
                                "shed_jobs": 1}},
    }
    merged = RunReport.merge([shard_a, shard_b]).to_dict()
    assert merged["shards"] == 2
    engine = merged["engine"]
    assert engine["now"] == 150  # total simulated time across shards
    assert engine["counters"]["events_processed"] == 15
    assert engine["counters"]["peak_heap_size"] == 9  # max, not sum
    assert engine["counters"]["by_priority"]["99"]["scheduled"] == 5
    queue = merged["queues"]["cpu0"]
    assert queue["cpu"] == 0  # identity, not summed
    assert queue["depth"] == 1
    assert queue["peak_depth"] == 8
    assert queue["level_peaks"] == {"99": 5, "98": 1}
    faults = merged["faults"]
    assert faults["injected"] == {"net_timeout": 5, "feed_gap": 1}
    assert faults["watchdog_fires"] == 1
    assert faults["degraded"] == {"active": True, "episodes": 3,
                                  "shed_jobs": 5}
    # per-shard-only sections never survive the merge
    assert "metrics" not in merged
    assert "wallclock" not in merged


def test_merge_mixed_backends_and_instances():
    """Instances merge with dicts, including reports written while two
    engine backends existed (their ``engine`` section names one)."""
    kernel, _ = small_run(with_metrics=False)
    report = RunReport.collect(kernel)
    other = json.loads(json.dumps(report.to_dict()))
    other["engine"]["backend"] = "fast"
    merged = RunReport.merge([report, other]).to_dict()
    assert set(merged["engine"]) == {"now", "counters"}
    assert merged["engine"]["counters"]["events_processed"] == 2 * (
        report.sections["engine"]["counters"]["events_processed"]
    )


def test_merge_is_deterministic_json():
    kernel, _ = small_run(with_metrics=False)
    report = RunReport.collect(kernel).to_dict()
    first = RunReport.merge([report, report]).to_json()
    second = RunReport.merge([report, report]).to_json()
    assert first == second
    json.loads(first)  # valid JSON document
