"""A timer-terminated optional part runs as one ``Compute``.

``WorkloadTask`` used to issue every optional part as ``chunk``-sized
``Compute`` requests, publishing its progress after each.  Under a
strategy that can terminate at any instant (sigsetjmp, try-catch) the
chunk boundaries are invisible, so the part now runs as a single
``Compute`` and, when unwound, publishes the progress the chunked loop
would have published.  :class:`ChunkedWorkloadTask` keeps the old loop
as the executable reference; every test here runs both and demands the
same simulated outcome from fewer kernel events.
"""

import itertools
import math

import pytest

from repro.core import RTSeed, WorkloadTask
from repro.core.resilience import OverrunWatchdog
from repro.core.task import TaskContext
from repro.core.termination import (
    PeriodicCheckTermination,
    SigjmpTermination,
    TryCatchTermination,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.hardware.loads import BackgroundLoad
from repro.simkernel import Topology
from repro.simkernel.cpu import uniform_share
from repro.simkernel.syscalls import Compute
from repro.simkernel.time_units import MSEC, SEC

pytestmark = pytest.mark.tier1


class ChunkedWorkloadTask(WorkloadTask):
    """The previous ``WorkloadTask.exec_optional``: one ``Compute`` per
    chunk whatever the termination strategy, progress published after
    each."""

    def exec_optional(self, ctx, part_index):
        remaining = self.optional
        progress = 0.0
        chunk = self.chunk
        tag = f"optional[{part_index}]"
        while remaining > 0:
            step = chunk if chunk < remaining else remaining
            yield Compute(step, tag=tag)
            remaining -= step
            progress += step
            ctx.publish(part_index, progress)


STRATEGIES = {"sigjmp": SigjmpTermination(),
              "trycatch": TryCatchTermination()}
POLICIES = ("one_by_one", "two_by_two", "all_by_all")
LOADS = (BackgroundLoad.NONE, BackgroundLoad.CPU_MEMORY)
COSTS = ("zero", "xeonphi")
CHUNKS = (None, 10 * MSEC, 17 * MSEC)


def observed_run(task_cls, strategy, policy="one_by_one",
                 load=BackgroundLoad.NONE, cost="xeonphi", chunk=None,
                 n_parallel=8, n_jobs=3, faults=None, watchdog=None):
    """One middleware run; returns (outcome dict, events processed)."""
    middleware = RTSeed(load=load, cost_model=cost, seed=5,
                        watchdog=watchdog)
    if faults is not None:
        FaultInjector(faults).attach(middleware.kernel)
    task = task_cls("tau1", 190 * MSEC, 1 * SEC, 190 * MSEC, 1 * SEC,
                    n_parallel=n_parallel, chunk=chunk)
    middleware.add_task(task, n_jobs=n_jobs, policy=policy,
                        optional_deadline=750 * MSEC, strategy=strategy)
    events = []
    middleware.probes.subscribe(
        lambda topic, time, data: events.append(
            (topic, time, sorted(data.items()))),
        topics=["rtseed.*", "kernel.*"],
    )
    result = middleware.run()
    task_result = result.tasks["tau1"]
    outcome = {
        "events": events,
        "results": task_result.job_results(),
        "fates": task_result.fates,
        "deltas": {which: task_result.deltas_us(which)
                   for which in "mbse"},
        "now": middleware.kernel.engine.now,
    }
    return outcome, middleware.kernel.engine.events_processed


def _close(left, right):
    """Structural equality, floats to within rounding."""
    if isinstance(left, float) and isinstance(right, float):
        return math.isclose(left, right, rel_tol=1e-12, abs_tol=1e-6)
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        return len(left) == len(right) and all(
            _close(a, b) for a, b in zip(left, right))
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(
            _close(left[key], right[key]) for key in left)
    return left == right


def assert_equivalent(strategy, **kwargs):
    reference, reference_events = observed_run(
        ChunkedWorkloadTask, strategy, **kwargs)
    single, single_events = observed_run(WorkloadTask, strategy, **kwargs)
    assert single_events < reference_events
    # what a part published and how it ended never depends on rounding
    assert single["results"] == reference["results"]
    assert single["fates"] == reference["fates"]
    if isinstance(strategy, SigjmpTermination):
        # every part is cut at the optional deadline: nothing about the
        # schedule depends on where the part's work was split
        assert single == reference
    else:
        # a try-catch part whose timer never arrives runs to completion;
        # sharing a core under SMT, its end time is the sum of 100
        # chunk finish times in one model and one finish time in the
        # other, which may round apart by a few ulps
        assert _close(single, reference)
    return reference, single


@pytest.mark.parametrize(
    "strategy,policy,load,cost,chunk",
    list(itertools.product(STRATEGIES, POLICIES, LOADS, COSTS, CHUNKS)),
)
def test_single_compute_matches_chunked_reference(strategy, policy, load,
                                                  cost, chunk):
    assert_equivalent(STRATEGIES[strategy], policy=policy, load=load,
                      cost=cost, chunk=chunk)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_equivalent_under_delayed_signals(strategy):
    plan = FaultPlan([FaultSpec("signal_delay", probability=0.5,
                                delay=3 * MSEC)], seed=11)
    reference, _single = assert_equivalent(
        STRATEGIES[strategy], load=BackgroundLoad.CPU_MEMORY, faults=plan)
    assert reference["fates"]["terminated"] > 0


def test_equivalent_under_watchdog_forced_unwind():
    """try-catch leaves SIGALRM masked, so from job 2 on only the
    watchdog's forced unwind stops a part — mid-``Compute``."""
    watchdogs = []

    def run(task_cls):
        watchdog = OverrunWatchdog(grace=5 * MSEC)
        watchdogs.append(watchdog)
        return observed_run(task_cls, TryCatchTermination(),
                            watchdog=watchdog)

    reference, reference_events = run(ChunkedWorkloadTask)
    single, single_events = run(WorkloadTask)
    assert watchdogs[0].fired and watchdogs[0].fired == watchdogs[1].fired
    assert single_events < reference_events
    assert single == reference
    # forced parts still publish the chunks they finished
    forced_job = watchdogs[0].fired[0][0]
    assert single["results"][forced_job]


def test_chunk_ending_at_delivery_is_not_published():
    """Zero cost, 100 ms mandatory, 10 ms chunks, OD 850 ms: the 75th
    chunk ends exactly when SIGALRM arrives, and the unwind wins the
    tie — 74 chunks (740 ms) are published, not 750 ms."""
    results = {}
    for task_cls in (ChunkedWorkloadTask, WorkloadTask):
        middleware = RTSeed(
            topology=Topology(2, 1, share_fn=uniform_share,
                              background_weight=0.0),
            cost_model="zero")
        task = task_cls("tau1", 100 * MSEC, 2 * SEC, 100 * MSEC, 1 * SEC,
                        n_parallel=2, chunk=10 * MSEC)
        middleware.add_task(task, n_jobs=2, optional_cpus=[0, 1],
                            optional_deadline=850 * MSEC)
        result = middleware.run()
        results[task_cls] = result.tasks["tau1"].job_results()
    assert results[WorkloadTask] == results[ChunkedWorkloadTask]
    assert results[WorkloadTask] == [{0: 740 * MSEC, 1: 740 * MSEC}] * 2


def test_chunk_progress_replays_the_chunked_sums():
    task = WorkloadTask("t", 1.0, 1000.0 / 3.0, 1.0, 1000.0, chunk=0.7)
    progress = 0.0
    remaining = task.optional
    sums = []
    while remaining > 0:
        step = min(task.chunk, remaining)
        remaining -= step
        progress += step
        sums.append(progress)
    assert task.chunk_progress() == sums[-1]
    assert task.chunk_progress(0.0) == 0.0
    assert task.chunk_progress(task.chunk) == 0.0  # ends at, not before
    assert task.chunk_progress(sums[41] + 1e-9) == sums[41]
    assert task.chunk_progress(task.optional) == sums[-2]


def _context(any_time):
    task = WorkloadTask("t", 10 * MSEC, 100 * MSEC, 10 * MSEC, 1 * SEC,
                        chunk=17 * MSEC)
    ctx = TaskContext(task, 0, 0.0, 500 * MSEC, 1 * SEC,
                      any_time_termination=any_time)
    return task, ctx


def test_periodic_check_still_gets_one_compute_per_chunk():
    task, ctx = _context(PeriodicCheckTermination.any_time_termination)
    steps = [request.work for request in task.exec_optional(ctx, 0)]
    assert steps == [17 * MSEC] * 5 + [15 * MSEC]
    assert ctx.collect() == {0: 100 * MSEC}


def test_any_time_strategy_gets_one_compute():
    task, ctx = _context(SigjmpTermination.any_time_termination)
    steps = [request.work for request in task.exec_optional(ctx, 0)]
    assert steps == [100 * MSEC]
    assert ctx.collect() == {0: 100 * MSEC}


def test_periodic_check_overshoot_unchanged():
    """Table I's periodic-check row: termination waits for the next
    17 ms chunk boundary, so each job's parts overshoot the optional
    deadline — by the same amounts, and with the same published
    progress, as the chunked reference."""
    runs = {}
    for task_cls in (ChunkedWorkloadTask, WorkloadTask):
        middleware = RTSeed(cost_model="zero")
        task = task_cls("tau1", 200 * MSEC, 2 * SEC, 200 * MSEC, 1 * SEC,
                        n_parallel=2, chunk=17 * MSEC)
        middleware.add_task(task, n_jobs=3,
                            strategy=PeriodicCheckTermination())
        probes = middleware.run().tasks["tau1"].probes
        runs[task_cls] = (
            [[end - probe.od_abs for end in probe.optional_end]
             for probe in probes],
            [probe.results for probe in probes],
            middleware.kernel.engine.events_processed,
        )
    assert runs[WorkloadTask] == runs[ChunkedWorkloadTask]
    overshoots, results, _events = runs[WorkloadTask]
    assert overshoots == [[12 * MSEC] * 2, [7 * MSEC] * 2, [2 * MSEC] * 2]
    assert results[0] == {0: 35 * 17 * MSEC, 1: 35 * 17 * MSEC}
