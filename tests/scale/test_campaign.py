"""Scale-campaign layer: sharding, merge determinism, checkpoints.

Campaigns must honour the farm's worker-count-invariance contract at
the document level: the rendered report is a pure function of
``(topology, base_seed, n_tasks, ...)`` regardless of worker count or
checkpoint/resume history.  Topologies here are tiny (a few cores) so
the tier-1 suite stays fast; the full 57x4 envelope lives in the
``slow``-tier stress test.
"""

import pytest

from repro.farm import CheckpointMismatchError
from repro.scale import (
    SCALE_SCHEMA,
    campaign_items,
    farm_scale,
    merge_scale_results,
    render_scale_report,
    shard_task_counts,
)

pytestmark = pytest.mark.tier1


# ---------------------------------------------------------------------------
# sharding
# ---------------------------------------------------------------------------


def test_shard_task_counts_even_split():
    assert shard_task_counts(12, 4) == [3, 3, 3, 3]


def test_shard_task_counts_front_loads_remainder():
    assert shard_task_counts(10, 4) == [3, 3, 2, 2]
    assert shard_task_counts(2000, 57)[:5] == [36, 36, 36, 36, 36]
    assert sum(shard_task_counts(2000, 57)) == 2000


def test_shard_task_counts_fewer_tasks_than_cores():
    counts = shard_task_counts(3, 57)
    assert counts[:3] == [1, 1, 1]
    assert sum(counts) == 3
    assert all(count == 0 for count in counts[3:])


def test_shard_task_counts_rejects_invalid():
    with pytest.raises(ValueError):
        shard_task_counts(0, 4)
    with pytest.raises(ValueError):
        shard_task_counts(10, 0)


def test_campaign_items_skip_empty_cores():
    items = campaign_items(57, 4, 3, base_seed=5)
    assert len(items) == 3
    assert [item["index"] for item in items] == [0, 1, 2]
    assert all(item["base_seed"] == 5 for item in items)
    assert all(item["n_tasks"] == 1 for item in items)


# ---------------------------------------------------------------------------
# campaign runs (tiny topology)
# ---------------------------------------------------------------------------

SMALL = dict(n_cores=2, threads_per_core=2, n_tasks=8, seed=3)


def test_campaign_document_shape_and_totals():
    document, result = farm_scale(workers=1, **SMALL)
    assert result.ok
    assert document["schema"] == SCALE_SCHEMA
    assert document["completed_shards"] == 2
    assert document["totals"]["tasks"] == 8
    assert document["totals"]["violations"] == 0
    assert document["total_crashes"] == 0
    assert document["errors"] == []
    assert document["quarantined"] == []
    # totals are exactly the sum of the per-shard summaries
    for key in ("jobs", "jobs_done", "events"):
        assert document["totals"][key] == sum(
            shard[key] for shard in document["shards"])
    assert document["totals"]["jobs_done"] > 0
    # merged telemetry is present and self-consistent
    report = document["run_report"]
    assert report["shards"] == 2
    assert report["engine"]["counters"]["events_processed"] == \
        document["totals"]["events"]


def test_campaign_worker_count_invariant():
    serial, _ = farm_scale(workers=1, **SMALL)
    parallel, _ = farm_scale(workers=2, **SMALL)
    assert render_scale_report(serial) == render_scale_report(parallel)


def test_campaign_engine_backends_agree_on_simulation(monkeypatch):
    """The campaign document is the same on the production structures
    and on the checked model (``tests/engine/model.py``; one worker
    runs in-process, so the swap reaches every shard)."""
    from tests.engine.model import swap_in_model

    fast, _ = farm_scale(workers=1, **SMALL)
    with monkeypatch.context() as patch:
        swap_in_model(patch)
        reference, _ = farm_scale(workers=1, **SMALL)
    assert render_scale_report(reference) == render_scale_report(fast)


def test_campaign_checkpoint_resume_byte_identical(tmp_path):
    checkpoint = tmp_path / "scale.jsonl"
    fresh, _ = farm_scale(workers=1, **SMALL)
    first, _ = farm_scale(workers=1, checkpoint_path=str(checkpoint),
                          **SMALL)
    assert checkpoint.exists()
    # resume with every shard already completed: no work re-runs, the
    # document is still byte-identical
    resumed, result = farm_scale(workers=1,
                                 checkpoint_path=str(checkpoint),
                                 **SMALL)
    assert result.ok
    assert render_scale_report(resumed) == render_scale_report(first) \
        == render_scale_report(fresh)


def test_campaign_checkpoint_fingerprint_mismatch(tmp_path):
    checkpoint = tmp_path / "scale.jsonl"
    farm_scale(workers=1, checkpoint_path=str(checkpoint), **SMALL)
    other = dict(SMALL, seed=SMALL["seed"] + 1)
    with pytest.raises(CheckpointMismatchError):
        farm_scale(workers=1, checkpoint_path=str(checkpoint), **other)


def test_merge_reports_farm_errors_with_seeds():
    document, result = farm_scale(workers=1, **SMALL)
    # forge a farm_error payload for core 1 and re-merge
    index = document["shards"][1]["index"]
    result.results[index] = {"farm_error": "worker exploded"}
    params = {key: document[key] for key in (
        "base_seed", "n_cores", "threads_per_core", "n_cpus",
        "requested_tasks", "utilization", "horizon_periods")}
    merged = merge_scale_results(result, params)
    assert merged["completed_shards"] == 1
    assert len(merged["errors"]) == 1
    error = merged["errors"][0]
    assert error["index"] == index
    assert error["error"] == "worker exploded"
    assert error["seed"] == document["shards"][1]["seed"]
