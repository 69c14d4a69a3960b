"""Slow tier: the paper's full 57-core x 4-HT topology at >= 1,000
tasks.

This is the acceptance run for ROADMAP item 2 scaled down only in job
horizon, not in topology or task count: every hardware thread of the
Xeon Phi is populated, every per-core shard passes the kernel trace /
protocol / final-state oracles (run inside ``_scale_item``), and the
merged telemetry stays sane.  Run with ``-m slow``.
"""

import pytest

from repro.check.oracles import (
    check_final_state,
    check_kernel_trace,
    check_protocol,
)
from repro.check.runner import run_middleware
from repro.check.scenario import derive_run_seed, generate_core_scenario
from repro.scale import farm_scale, render_scale_report

pytestmark = pytest.mark.slow

FULL = dict(n_cores=57, threads_per_core=4, n_tasks=1026, seed=0)


@pytest.fixture(scope="module")
def campaign():
    """One full-topology campaign (module-scoped: the run feeds
    several assertions)."""
    document, result = farm_scale(workers=2, **FULL)
    assert result.ok, "farm not ok"
    return document, result.stats


def test_full_topology_clean(campaign):
    document, _ = campaign
    assert document["completed_shards"] == 57
    assert document["totals"]["tasks"] == FULL["n_tasks"]
    assert document["totals"]["violations"] == 0
    assert document["total_crashes"] == 0
    assert document["errors"] == []
    assert document["quarantined"] == []
    assert document["totals"]["jobs_done"] >= 1000


def test_merged_telemetry_sane(campaign):
    document, _ = campaign
    report = document["run_report"]
    assert report["shards"] == 57
    counters = report["engine"]["counters"]
    assert all(
        value >= 0 for value in counters.values()
        if isinstance(value, (int, float))
    )
    assert counters["events_processed"] == document["totals"]["events"]
    assert counters["events_scheduled"] >= counters["events_processed"]
    assert counters["peak_heap_size"] >= 1
    # every one of the 4 hardware threads saw a runqueue; peaks are
    # high-water marks so they must be >= the final depths
    for queue in report["queues"].values():
        assert queue["peak_depth"] >= queue["depth"] >= 0


def test_wall_clock_stats_stay_out_of_document(campaign):
    document, stats = campaign
    assert "wall_seconds" in stats
    assert stats["wall_seconds"] > 0
    assert "wall_seconds" not in render_scale_report(document)


def test_sampled_shard_oracle_conformance(campaign):
    """Re-run a sampled window of cores outside the farm and judge the
    traces directly — the stress campaign's per-shard oracle verdicts
    must reproduce."""
    document, _ = campaign
    shards = document["shards"]
    for shard in (shards[0], shards[28], shards[56]):
        seed = derive_run_seed(FULL["seed"], shard["index"])
        assert seed == shard["seed"]
        scenario = generate_core_scenario(
            seed, threads_per_core=FULL["threads_per_core"],
            n_tasks=shard["n_tasks"])
        events, kernel, crash = run_middleware(scenario)
        assert crash is None
        violations = []
        violations.extend(check_kernel_trace(events, scenario.n_cpus))
        violations.extend(check_protocol(events, scenario))
        violations.extend(check_final_state(kernel))
        assert violations == []
        done = sum(1 for topic, _t, _d in events
                   if topic == "rtseed.job_done")
        assert done == shard["jobs_done"]
