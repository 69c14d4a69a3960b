"""Tests for the Task API and TaskContext mailbox."""

import pytest

from repro.core.task import Task, TaskContext, WorkloadTask
from repro.model.task_model import ParallelExtendedImpreciseTask
from repro.simkernel.syscalls import Compute
from repro.simkernel.time_units import MSEC, SEC

pytestmark = pytest.mark.tier1


def test_task_validation():
    with pytest.raises(ValueError):
        Task("bad", period=0)
    with pytest.raises(ValueError):
        Task("bad", period=100, n_parallel=0)


def test_default_parts_are_empty_generators():
    task = Task("noop", period=100)
    ctx = TaskContext(task, 0, 0.0, 50.0, 100.0)
    assert list(task.exec_mandatory(ctx)) == []
    assert list(task.exec_optional(ctx, 0)) == []
    assert list(task.exec_windup(ctx)) == []


def test_context_mailbox_publish_collect():
    task = Task("t", period=100)
    ctx = TaskContext(task, 0, 0.0, 50.0, 100.0)
    ctx.publish(0, "partial")
    ctx.publish(1, 42)
    ctx.publish(0, "refined")  # later publish overwrites
    assert ctx.collect() == {0: "refined", 1: 42}


def test_context_collect_returns_copy():
    task = Task("t", period=100)
    ctx = TaskContext(task, 0, 0.0, 50.0, 100.0)
    ctx.publish(0, 1)
    snapshot = ctx.collect()
    snapshot[0] = 999
    assert ctx.collect() == {0: 1}


def test_workload_task_validation():
    with pytest.raises(ValueError):
        WorkloadTask("bad", 0, 1, 1, 10)
    with pytest.raises(ValueError):
        WorkloadTask("bad", 1, -1, 1, 10)
    with pytest.raises(ValueError):
        WorkloadTask("bad", 1, 1, 0, 10)


@pytest.mark.parametrize("chunk", [-5 * MSEC, 0.0, 0, float("nan"),
                                   float("inf"), -float("inf")])
def test_workload_task_rejects_bad_chunk_at_construction(chunk):
    """A negative chunk used to fail only mid-run (``negative work``)
    and a NaN chunk ran silently, publishing no progress at all."""
    with pytest.raises(ValueError, match="chunk"):
        WorkloadTask("bad", 250 * MSEC, 1 * SEC, 250 * MSEC, 1 * SEC,
                     chunk=chunk)


@pytest.mark.parametrize("part", ["mandatory", "optional", "windup"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_workload_task_rejects_non_finite_parts(part, value):
    lengths = {"mandatory": 250 * MSEC, "optional": 1 * SEC,
               "windup": 250 * MSEC}
    lengths[part] = value
    with pytest.raises(ValueError, match=part):
        WorkloadTask("bad", period=1 * SEC, **lengths)


def test_workload_task_mandatory_emits_single_compute():
    task = WorkloadTask("w", 250 * MSEC, 1 * SEC, 250 * MSEC, 1 * SEC)
    ctx = TaskContext(task, 0, 0.0, 750 * MSEC, 1 * SEC)
    requests = list(task.exec_mandatory(ctx))
    assert len(requests) == 1
    assert isinstance(requests[0], Compute)
    assert requests[0].work == pytest.approx(250 * MSEC)


def test_workload_task_optional_chunks_sum_to_length():
    task = WorkloadTask("w", 10.0, 100.0, 10.0, 1000.0, chunk=30.0)
    ctx = TaskContext(task, 0, 0.0, 900.0, 1000.0)
    requests = list(task.exec_optional(ctx, 0))
    assert sum(r.work for r in requests) == pytest.approx(100.0)
    # chunking: 30+30+30+10
    assert [r.work for r in requests] == [30.0, 30.0, 30.0, 10.0]


def test_workload_task_optional_publishes_progress():
    task = WorkloadTask("w", 10.0, 90.0, 10.0, 1000.0, chunk=30.0)
    ctx = TaskContext(task, 0, 0.0, 900.0, 1000.0)
    gen = task.exec_optional(ctx, 2)
    next(gen)        # runs to the first chunk's yield
    gen.send(None)   # chunk 1 accounted, publishes 30
    gen.send(None)   # chunk 2 accounted, publishes 60
    assert ctx.collect()[2] == pytest.approx(60.0)


def test_workload_task_to_model():
    task = WorkloadTask("w", 250 * MSEC, 1 * SEC, 250 * MSEC, 1 * SEC,
                        n_parallel=8)
    model = task.to_model()
    assert isinstance(model, ParallelExtendedImpreciseTask)
    assert model.mandatory == pytest.approx(250 * MSEC)
    assert model.windup == pytest.approx(250 * MSEC)
    assert model.n_parallel == 8
    assert model.utilization == pytest.approx(0.5)
