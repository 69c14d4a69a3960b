"""The committed BENCH_engine.json trajectory stays parseable and
append-only, and tools/bench_report.py reads it correctly."""

import importlib.util
import json
import pathlib

import pytest

pytestmark = pytest.mark.tier1

REPO_ROOT = pathlib.Path(__file__).parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_engine.json"

#: History length at the time this test was written.  Append-only means
#: the list can only grow; shrinking or rewriting history fails here.
MIN_HISTORY_ENTRIES = 8

REQUIRED_ENTRY_KEYS = {"pr", "engine", "seed", "n_jobs", "runs",
                       "fig10_mandatory"}
VALID_ENGINES = {"default", "reference", "fast"}


def load_bench():
    with open(BENCH_PATH) as handle:
        return json.load(handle)


def load_bench_report_module():
    spec = importlib.util.spec_from_file_location(
        "bench_report", REPO_ROOT / "tools" / "bench_report.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_history_parses_against_schema():
    bench = load_bench()
    assert bench["description"]
    assert bench["methodology"]["metric"]
    history = bench["history"]
    assert isinstance(history, list)
    for entry in history:
        missing = REQUIRED_ENTRY_KEYS - set(entry)
        assert not missing, f"entry {entry.get('pr')} missing {missing}"
        assert entry["engine"] in VALID_ENGINES
        fig10 = entry["fig10_mandatory"]
        assert fig10["events"] > 0
        assert fig10["events_per_sec_median"] > 0


def test_history_is_append_only():
    history = load_bench()["history"]
    assert len(history) >= MIN_HISTORY_ENTRIES, (
        f"history shrank to {len(history)} entries — BENCH_engine.json "
        f"is append-only; never rewrite or drop recorded entries"
    )
    # the backfilled pre-seam entries must still open the list
    assert history[0]["pr"] == "pre-engine-refactor"
    assert history[1]["pr"] == "engine-refactor"


def test_every_engine_has_a_recent_pair():
    history = load_bench()["history"]
    engines = {entry["engine"] for entry in history}
    assert {"reference", "fast"} <= engines


#: farm_history length when the farm bench landed; append-only too.
MIN_FARM_HISTORY_ENTRIES = 1

REQUIRED_FARM_ENTRY_KEYS = {"pr", "seed", "workload", "farm"}


def test_farm_history_parses_against_schema():
    farm_history = load_bench()["farm_history"]
    assert isinstance(farm_history, list)
    assert len(farm_history) >= MIN_FARM_HISTORY_ENTRIES, (
        "farm_history shrank — BENCH_engine.json is append-only"
    )
    for entry in farm_history:
        missing = REQUIRED_FARM_ENTRY_KEYS - set(entry)
        assert not missing, f"entry {entry.get('pr')} missing {missing}"
        assert entry["workload"] == "farm_check"
        farm = entry["farm"]
        assert farm["runs"] > 0
        # cpus is mandatory context: a speedup number is meaningless
        # without the core count it was measured on
        assert farm["cpus"] >= 1
        assert set(farm["scenarios_per_sec"]) == set(farm["speedup"])
        assert {"1", "2", "4"} <= set(farm["scenarios_per_sec"])
        for rate in farm["scenarios_per_sec"].values():
            assert rate > 0
        assert farm["speedup"]["1"] == pytest.approx(1.0)


#: scale_history length when the scale bench landed; append-only too.
MIN_SCALE_HISTORY_ENTRIES = 1

REQUIRED_SCALE_ENTRY_KEYS = {"pr", "seed", "workload", "scale"}


def test_scale_history_parses_against_schema():
    scale_history = load_bench()["scale_history"]
    assert isinstance(scale_history, list)
    assert len(scale_history) >= MIN_SCALE_HISTORY_ENTRIES, (
        "scale_history shrank — BENCH_engine.json is append-only"
    )
    for entry in scale_history:
        missing = REQUIRED_SCALE_ENTRY_KEYS - set(entry)
        assert not missing, f"entry {entry.get('pr')} missing {missing}"
        assert entry["workload"] == "scale_campaign"
        scale = entry["scale"]
        assert scale["topology"]["n_cores"] >= 1
        assert scale["topology"]["threads_per_core"] >= 1
        assert scale["tasks"] >= 1
        assert scale["cpus"] >= 1
        if "backends" in scale:
            # recorded while two engine backends existed: one
            # jobs/minute measurement per backend, and the simulated
            # outcomes must agree across them
            assert set(scale["backends"]) == {"reference", "fast"}
            runs = list(scale["backends"].values())
            assert len({(run["jobs_done"], run["events"])
                        for run in runs}) == 1
        else:
            runs = [scale]
        for run in runs:
            assert run["jobs_per_minute"] > 0
            assert run["events_per_sec"] > 0


def test_bench_report_renders_without_regression(capsys):
    bench_report = load_bench_report_module()
    regressions = bench_report.render_trajectory(load_bench())
    output = capsys.readouterr().out
    assert "fig10_mandatory" in output
    assert regressions == [], (
        "committed trajectory contains a >10% per-job regression: "
        + "; ".join(
            f"{entry['engine']} {previous['pr']}->{entry['pr']} "
            f"({slowdown:.1%})"
            for entry, previous, slowdown in regressions
        )
    )


def _entry(pr, events, rate, n_jobs=10, **recorded):
    fig10 = {"events": events, "events_per_sec_median": rate}
    fig10.update(recorded)
    return {"pr": pr, "engine": "fast", "n_jobs": n_jobs,
            "fig10_mandatory": fig10}


def test_bench_report_flags_synthetic_regression():
    bench_report = load_bench_report_module()
    # same events per job; ev/s drops 15% -> 17.6% slower per job
    entries = [
        _entry("a", 1000, 100.0),
        _entry("b", 1000, 85.0),
        _entry("c", 1000, 84.0),
    ]
    regressions = bench_report.find_regressions(entries)
    assert len(regressions) == 1
    entry, previous, slowdown = regressions[0]
    assert (previous["pr"], entry["pr"]) == ("a", "b")
    assert slowdown == pytest.approx(100.0 / 85.0 - 1.0)


def test_gate_is_wall_per_job_not_events_per_sec():
    """More events/sec but 20% more wall per simulated job is a
    regression; fewer events/sec at less wall per job is not."""
    bench_report = load_bench_report_module()
    # 10 ms/job derived from events/sec, then 12 ms/job recorded
    # alongside a *higher* ev/s (the change simulates more events)
    slower = [_entry("old", 10_000, 100_000.0),
              _entry("new", 30_000, 250_000.0, wall_ms_per_job=12.0)]
    assert bench_report.wall_ms_per_job(slower[0]) == pytest.approx(10.0)
    regressions = bench_report.find_regressions(slower)
    assert [(previous["pr"], entry["pr"])
            for entry, previous, _slowdown in regressions] == \
        [("old", "new")]
    assert regressions[0][2] == pytest.approx(0.2)
    # a third of the events at 60% of the rate: faster per job
    faster = [_entry("old", 30_000, 300_000.0),
              _entry("new", 10_000, 180_000.0, wall_ms_per_job=5.6)]
    assert bench_report.find_regressions(faster) == []


def test_sparkline_maps_extremes():
    bench_report = load_bench_report_module()
    assert bench_report.sparkline([]) == ""
    assert bench_report.sparkline([5.0, 5.0]) == "██"
    line = bench_report.sparkline([1.0, 2.0, 3.0])
    assert line[0] == "▁"
    assert line[-1] == "█"


def test_default_entries_after_fast_join_the_fast_lineage():
    """Since the backends were merged, new entries are tagged
    ``default`` and gated against the newest ``fast`` entry; the
    ``default`` entries from before the backends existed keep their
    own lineage."""
    bench_report = load_bench_report_module()
    history = [
        dict(_entry("pre", 1000, 100.0), engine="default"),
        dict(_entry("seam", 1000, 100.0), engine="reference"),
        _entry("seam", 1000, 200.0),
        dict(_entry("merged", 1000, 150.0), engine="default"),
    ]
    lineages = bench_report.trajectory_by_engine(history)
    assert [entry["pr"] for entry in lineages["default"]] == ["pre"]
    assert [entry["pr"] for entry in lineages["fast"]] == \
        ["seam", "merged"]
    # 200 -> 150 ev/s at the same events per job: 33% slower per job
    regressions = bench_report.find_regressions(lineages["fast"])
    assert [(previous["pr"], entry["pr"])
            for entry, previous, _slowdown in regressions] == \
        [("seam", "merged")]
