"""Engine throughput benchmark (BENCH_engine.json).

Measures the hot paths the ``repro.engine`` refactor targets and emits a
JSON blob suitable for committing as ``BENCH_engine.json``:

* ``fig10_mandatory`` — the Section V-A workload behind
  ``bench_fig10_mandatory.py``: one task, parallel optional parts, run
  through the middleware on the simulated kernel.  Reported as kernel
  events/sec (``Engine.events_processed`` over wall time); trajectory
  entries also record wall milliseconds per simulated job.
* ``ablation_schedulability`` — the acceptance-ratio ablation from
  ``bench_ablation_schedulability.py`` (analysis-only): task sets/sec.
* ``sched_simulator`` — the theory-level ``ScheduleSimulator`` on a
  partitioned RMWP task set over its hyperperiod: jobs/sec (each job is
  several dispatch decisions, so this tracks ready-queue cost directly).
* ``obs_overhead`` — the fig10 workload three ways: unobserved (idle
  probe bus — the ``bus.active`` guard must cost ~nothing), with a
  tracer + metrics + Chrome exporter subscribed, and the idle-bus
  regression vs. the unobserved baseline in percent.
* ``flightrec_overhead`` — the fig10 workload with a *passive* flight
  recorder attached to an otherwise idle bus: the recorder must not
  flip ``bus.active``, so this configuration must match the unobserved
  rate (the always-on acceptance criterion).
* ``--farm-append`` — scenario-farm throughput (``repro.farm``): the
  same ``farm_check`` batch at 1/2/4 workers, recorded as
  scenarios/sec + speedup in the ``farm_history`` list with the host
  ``cpus`` count (speedup is meaningless without it).
* ``--snapshot-append`` — checkpoint/restore cost (``repro.snapshot``,
  ``snapshot_history`` list): the same ``farm_check`` batch with and
  without a ``--checkpoint`` file (the no-checkpoint path must stay
  within noise of the pre-checkpoint farm — that code path pays only a
  ``None`` test per item), plus the one-off cost and byte size of
  capturing + writing an ``rtseed-snapshot/1`` of a trade run.

Usage::

    # one-off report to stdout
    PYTHONPATH=src python benchmarks/bench_engine_perf.py

    # record a per-PR trajectory point (median-of-5 fig10 wall time
    # per simulated job, plus events/sec) in BENCH_engine.json --
    # appends to the ``history`` list, never overwrites or rewrites
    # earlier entries
    PYTHONPATH=src python benchmarks/bench_engine_perf.py \
        --append BENCH_engine.json --pr my-pr-id

``BENCH_engine.json`` is an append-only trajectory: one entry per PR
(entries from when two engine backends existed carry one entry per
backend), each a median-of-5 (``--runs``) fig10 measurement with the
workload seed recorded, so successive PRs can chart wall time per
simulated job (``tools/bench_report.py`` gates on it) and events/sec
over the repo's history without re-running old trees.
"""

import argparse
import json
import sys
import time

from repro.core.middleware import RTSeed
from repro.hardware.loads import BackgroundLoad
from repro.model import TaskSet, TaskSetGenerator
from repro.sched import GRMWP, PRMWP, RMWP, RateMonotonic, ScheduleSimulator

FIG10_N_PARALLEL = 57
FIG10_N_JOBS = 60

ABLATION_UTILIZATIONS = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
ABLATION_TRIALS = 40
ABLATION_N_TASKS = 6
ABLATION_N_CPUS = 4

SIM_N_TASKS = 10
SIM_N_CPUS = 2
SIM_UTILIZATION = 0.65
SIM_REPEATS = 60


FIG10_SEED = 0


def bench_fig10(observers=None, n_jobs=FIG10_N_JOBS):
    """The bench_fig10_mandatory workload; returns (events, seconds).

    :param observers: optional callable receiving the kernel before the
        run (used by :func:`bench_obs_overhead` to subscribe probes).
    """
    from repro.bench.overheads import (
        OPTIONAL_DEADLINE,
        make_eval_task,
    )

    start = time.perf_counter()
    middleware = RTSeed(load=BackgroundLoad.NONE, seed=FIG10_SEED)
    task = make_eval_task(FIG10_N_PARALLEL)
    middleware.add_task(
        task,
        n_jobs=n_jobs,
        cpu=0,
        policy="one_by_one",
        optional_deadline=OPTIONAL_DEADLINE,
    )
    if observers is not None:
        observers(middleware.kernel)
    middleware.run()
    elapsed = time.perf_counter() - start
    return middleware.kernel.engine.events_processed, elapsed


def bench_obs_overhead():
    """Probe-bus cost on fig10: unobserved vs. fully observed.

    Returns a dict with events/sec for both configurations and the
    idle-bus overhead in percent (the acceptance criterion: an
    unobserved run must stay within a couple of percent of the
    pre-observability baseline, since every probe site now pays one
    ``bus.active`` test).
    """
    from repro.obs import ChromeTraceExporter, SchedulerMetrics
    from repro.simkernel.trace import Tracer

    # interleave to be fair to CPU-frequency drift: idle, observed, idle
    idle_a = bench_fig10()
    subscribed = {}

    def attach(kernel):
        subscribed["tracer"] = Tracer.attach(kernel, max_records=200_000)
        subscribed["metrics"] = SchedulerMetrics.attach(kernel)
        subscribed["exporter"] = ChromeTraceExporter.attach(kernel)

    observed = bench_fig10(observers=attach)
    idle_b = bench_fig10()

    idle_events = idle_a[0] + idle_b[0]
    idle_secs = idle_a[1] + idle_b[1]
    idle_rate = idle_events / idle_secs
    observed_rate = observed[0] / observed[1]
    return {
        "idle_events_per_sec": round(idle_rate, 1),
        "observed_events_per_sec": round(observed_rate, 1),
        "observed_slowdown_pct": round(
            (idle_rate / observed_rate - 1.0) * 100.0, 1
        ),
        "trace_events": len(subscribed["exporter"].events),
        "probe_events": subscribed["tracer"]._bus.published,
    }


def bench_flightrec_overhead():
    """Flight-recorder cost on fig10 with an otherwise idle bus.

    The recorder subscribes passively, so ``bus.active`` stays false
    and the probe sites keep skipping payload construction — this
    configuration must run at the unobserved rate (within noise).
    """
    from repro.obs import FlightRecorder

    recorders = {}

    def attach(kernel):
        recorders["flight"] = FlightRecorder.attach(kernel, seed=0)

    # interleave: idle, recorder, idle (fair to CPU-frequency drift)
    idle_a = bench_fig10()
    recorded = bench_fig10(observers=attach)
    idle_b = bench_fig10()

    idle_rate = (idle_a[0] + idle_b[0]) / (idle_a[1] + idle_b[1])
    recorded_rate = recorded[0] / recorded[1]
    return {
        "idle_events_per_sec": round(idle_rate, 1),
        "flightrec_events_per_sec": round(recorded_rate, 1),
        "flightrec_slowdown_pct": round(
            (idle_rate / recorded_rate - 1.0) * 100.0, 1
        ),
        "bus_activated": recorders["flight"]._bus.active,
        "events_recorded": recorders["flight"].recorded,
    }


def bench_ablation():
    """The schedulability-ablation loop; returns (task sets, seconds)."""
    algorithms = (
        lambda ts: RateMonotonic(exact=False).is_schedulable(ts.tasks),
        lambda ts: RateMonotonic(exact=True).is_schedulable(ts.tasks),
        lambda ts: RMWP.is_schedulable(ts.tasks),
        lambda ts: PRMWP(heuristic="first_fit").is_schedulable(
            TaskSet(ts.tasks, n_processors=ABLATION_N_CPUS)
        ),
        lambda ts: PRMWP(heuristic="worst_fit").is_schedulable(
            TaskSet(ts.tasks, n_processors=ABLATION_N_CPUS)
        ),
        lambda ts: GRMWP.is_schedulable(
            TaskSet(ts.tasks, n_processors=ABLATION_N_CPUS)
        ),
    )
    start = time.perf_counter()
    n_sets = 0
    for utilization in ABLATION_UTILIZATIONS:
        for trial in range(ABLATION_TRIALS):
            generator = TaskSetGenerator(
                seed=trial * 7919 + int(utilization * 1000)
            )
            taskset = generator.extended_task_set(
                ABLATION_N_TASKS, utilization
            )
            n_sets += 1
            for accept in algorithms:
                accept(taskset)
    return n_sets, time.perf_counter() - start


def bench_simulator():
    """Theory simulator over hyperperiods; returns (jobs, seconds)."""
    generator = TaskSetGenerator(
        seed=42, harmonic_periods=[8.0, 16.0, 24.0, 48.0, 96.0]
    )
    taskset = generator.extended_task_set(SIM_N_TASKS, SIM_UTILIZATION)
    taskset = TaskSet(taskset.tasks, n_processors=SIM_N_CPUS)
    assignment = {
        task.name: index % SIM_N_CPUS
        for index, task in enumerate(
            sorted(taskset.tasks, key=lambda t: (t.period, t.name))
        )
    }
    total_jobs = 0
    start = time.perf_counter()
    for _ in range(SIM_REPEATS):
        simulator = ScheduleSimulator(
            taskset, policy="rmwp", assignment=assignment
        )
        result = simulator.run(until=taskset.hyperperiod)
        total_jobs += len(result.jobs)
    return total_jobs, time.perf_counter() - start


def _median(values):
    values = sorted(values)
    middle = len(values) // 2
    if len(values) % 2:
        return values[middle]
    return (values[middle - 1] + values[middle]) / 2.0


def fig10_trajectory_entry(pr, runs=5, n_jobs=FIG10_N_JOBS):
    """Median-of-``runs`` fig10 measurement shaped for the
    ``BENCH_engine.json`` ``history`` list.

    The gated figure is ``wall_ms_per_job`` — median wall time (build
    plus run) per simulated job, the fixed output; events/sec is kept
    as a secondary field.  Entries are tagged ``engine: "default"``;
    ``tools/bench_report.py`` files them after the newest ``fast``
    entry, the same code under its former backend name."""
    samples = [bench_fig10(n_jobs=n_jobs) for _ in range(runs)]
    events = samples[0][0]
    rates = [ev / secs for ev, secs in samples]
    return {
        "pr": pr,
        "engine": "default",
        "seed": FIG10_SEED,
        "n_jobs": n_jobs,
        "runs": runs,
        "fig10_mandatory": {
            "events": events,
            "wall_ms_per_job": round(
                _median(secs for _ev, secs in samples) / n_jobs * 1000.0,
                3),
            "events_per_sec_median": round(_median(rates), 1),
            "events_per_sec_best": round(max(rates), 1),
        },
    }


FARM_RUNS = 24
FARM_WORKER_COUNTS = (1, 2, 4)
FARM_SAMPLES = 3


def bench_farm(runs=FARM_RUNS, worker_counts=FARM_WORKER_COUNTS,
               samples=FARM_SAMPLES):
    """Scenario-farm throughput: one check batch at each worker count.

    Runs the same ``farm_check`` batch (shrink off, fault-free) at
    every count in ``worker_counts`` and reports the median
    scenarios/sec plus the speedup over the single-worker rate.  On a
    single-core container the multi-worker speedup is bounded by ~1.0x
    (process overhead makes it slightly worse); ``cpus`` is recorded so
    trajectory readers can interpret the numbers.
    """
    import os

    from repro.farm import farm_check

    per_workers = {}
    for workers in worker_counts:
        rates = []
        for _ in range(samples):
            start = time.perf_counter()
            document, result = farm_check(runs, seed=0, shrink=False,
                                          workers=workers)
            elapsed = time.perf_counter() - start
            assert result.ok and document["completed_runs"] == runs
            rates.append(runs / elapsed)
        rates.sort()
        per_workers[workers] = rates[len(rates) // 2]
    base = per_workers[worker_counts[0]]
    return {
        "runs": runs,
        "samples": samples,
        "cpus": os.cpu_count(),
        "scenarios_per_sec": {
            str(workers): round(rate, 1)
            for workers, rate in per_workers.items()
        },
        "speedup": {
            str(workers): round(rate / base, 2)
            for workers, rate in per_workers.items()
        },
    }


def farm_trajectory_entry(pr, runs=FARM_RUNS,
                          worker_counts=FARM_WORKER_COUNTS,
                          samples=FARM_SAMPLES):
    """Farm-throughput measurement shaped for the ``BENCH_engine.json``
    ``farm_history`` list."""
    return {
        "pr": pr,
        "seed": 0,
        "workload": "farm_check",
        "farm": bench_farm(runs=runs, worker_counts=worker_counts,
                           samples=samples),
    }


SNAPSHOT_FARM_RUNS = 24
SNAPSHOT_SAMPLES = 3
SNAPSHOT_BARRIER = 400


def bench_snapshot_overhead(runs=SNAPSHOT_FARM_RUNS,
                            samples=SNAPSHOT_SAMPLES):
    """Checkpoint/restore cost: inline farm overhead + capture cost.

    Two numbers matter.  The *inline* cost — a ``farm_check`` batch
    with a per-item checkpoint file (flush + fsync per item) vs the
    same batch without one; the no-checkpoint rate must stay within
    noise of the pre-checkpoint farm, since that path only pays a
    ``None`` test per item.  And the *one-off* cost — capturing an
    ``rtseed-snapshot/1`` of a mid-flight trade run and writing it to
    disk, reported in milliseconds and bytes (restore cost is prefix
    re-execution by design, see docs/SNAPSHOTS.md, so it is not a
    separate measurement).
    """
    import os
    import tempfile

    from repro.farm import farm_check
    from repro.snapshot import build_program, snapshot, write_snapshot

    def farm_rate(checkpoint_path):
        rates = []
        for _ in range(samples):
            if checkpoint_path and os.path.exists(checkpoint_path):
                os.remove(checkpoint_path)
            start = time.perf_counter()
            document, result = farm_check(
                runs, seed=0, shrink=False, workers=1,
                checkpoint_path=checkpoint_path,
            )
            elapsed = time.perf_counter() - start
            assert result.ok and document["completed_runs"] == runs
            rates.append(runs / elapsed)
        rates.sort()
        return rates[len(rates) // 2]

    with tempfile.TemporaryDirectory() as tmp_dir:
        plain = farm_rate(None)
        checkpointed = farm_rate(os.path.join(tmp_dir, "farm.ckpt"))

        spec = {"kind": "trade", "seconds": 8, "seed": 3}
        run = build_program(spec).start()
        start = time.perf_counter()
        document = snapshot(run, at_events=SNAPSHOT_BARRIER)
        capture_secs = time.perf_counter() - start
        path = os.path.join(tmp_dir, "snap.json")
        start = time.perf_counter()
        write_snapshot(path, document)
        write_secs = time.perf_counter() - start
        file_bytes = os.path.getsize(path)

    return {
        "farm_runs": runs,
        "samples": samples,
        "no_checkpoint_scenarios_per_sec": round(plain, 1),
        "checkpoint_scenarios_per_sec": round(checkpointed, 1),
        "checkpoint_overhead_pct": round(
            (plain / checkpointed - 1.0) * 100.0, 1
        ),
        "capture": {
            "barrier_events": SNAPSHOT_BARRIER,
            "capture_ms": round(capture_secs * 1000.0, 2),
            "write_ms": round(write_secs * 1000.0, 2),
            "file_bytes": file_bytes,
        },
    }


def snapshot_trajectory_entry(pr, runs=SNAPSHOT_FARM_RUNS,
                              samples=SNAPSHOT_SAMPLES):
    """Snapshot-overhead measurement shaped for the
    ``BENCH_engine.json`` ``snapshot_history`` list."""
    return {
        "pr": pr,
        "seed": 0,
        "workload": "farm_check+trade_snapshot",
        "snapshot": bench_snapshot_overhead(runs=runs, samples=samples),
    }


SCALE_CORES = 12
SCALE_THREADS_PER_CORE = 4
SCALE_TASKS = 360
SCALE_WORKERS = 2


def bench_scale(n_cores=SCALE_CORES,
                threads_per_core=SCALE_THREADS_PER_CORE,
                n_tasks=SCALE_TASKS, workers=SCALE_WORKERS):
    """Scale-campaign throughput.

    Runs one full-topology campaign (``repro.scale.farm_scale``) and
    reports simulated **jobs per wall-clock minute** — the ROADMAP
    "heavy traffic" number — plus the kernel event rate.  ``cpus`` is
    recorded because the farm's scaling depends on it.  (Entries from
    when two engine backends existed carry one such measurement per
    backend under ``backends``.)
    """
    import os

    from repro.scale import farm_scale

    start = time.perf_counter()
    document, result = farm_scale(
        n_cores=n_cores, threads_per_core=threads_per_core,
        n_tasks=n_tasks, workers=workers,
    )
    elapsed = time.perf_counter() - start
    totals = document["totals"]
    assert result.ok and not totals["violations"], "campaign not clean"
    return {
        "topology": {"n_cores": n_cores,
                     "threads_per_core": threads_per_core},
        "tasks": n_tasks,
        "workers": workers,
        "cpus": os.cpu_count(),
        "jobs_done": totals["jobs_done"],
        "events": totals["events"],
        "wall_seconds": round(elapsed, 3),
        "jobs_per_minute": round(totals["jobs_done"] / elapsed * 60.0, 1),
        "events_per_sec": round(totals["events"] / elapsed, 1),
    }


def scale_trajectory_entry(pr, n_cores=SCALE_CORES,
                           threads_per_core=SCALE_THREADS_PER_CORE,
                           n_tasks=SCALE_TASKS, workers=SCALE_WORKERS):
    """Scale-campaign measurement shaped for the ``BENCH_engine.json``
    ``scale_history`` list."""
    return {
        "pr": pr,
        "seed": 0,
        "workload": "scale_campaign",
        "scale": bench_scale(n_cores=n_cores,
                             threads_per_core=threads_per_core,
                             n_tasks=n_tasks, workers=workers),
    }


def append_trajectory(path, entry, key="history"):
    """Append ``entry`` to the ``key`` list in ``path``.

    Strictly append-only: earlier entries are never rewritten, so the
    committed file is a per-PR throughput trajectory (``history`` for
    fig10 events/sec, ``farm_history`` for farm scenarios/sec)."""
    with open(path) as handle:
        data = json.load(handle)
    data.setdefault(key, []).append(entry)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")
    return data


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="run")
    parser.add_argument("--append", default=None, metavar="JSON",
                        help="append a fig10 trajectory entry to this "
                             "BENCH_engine.json instead of printing the "
                             "full report")
    parser.add_argument("--farm-append", default=None, metavar="JSON",
                        help="append a scenario-farm throughput entry "
                             "(scenarios/sec at 1/2/4 workers) to this "
                             "BENCH_engine.json's farm_history list")
    parser.add_argument("--snapshot-append", default=None,
                        metavar="JSON",
                        help="append a checkpoint/restore overhead "
                             "entry (farm checkpoint cost + snapshot "
                             "capture cost) to this BENCH_engine.json's "
                             "snapshot_history list")
    parser.add_argument("--scale-append", default=None, metavar="JSON",
                        help="append a scale-campaign throughput entry "
                             "(jobs/minute) to this BENCH_engine.json's "
                             "scale_history list")
    parser.add_argument("--pr", default="unlabeled",
                        help="PR identifier recorded in the trajectory "
                             "entry (with --append)")
    parser.add_argument("--runs", type=int, default=5,
                        help="samples for the median (with --append)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: fewer fig10 jobs and a "
                             "single sample (CI bench-smoke)")
    args = parser.parse_args(argv)

    n_jobs = 6 if args.quick else FIG10_N_JOBS
    runs = 1 if args.quick else args.runs

    if args.append:
        entry = fig10_trajectory_entry(args.pr, runs=runs, n_jobs=n_jobs)
        append_trajectory(args.append, entry)
        json.dump(entry, sys.stdout, indent=2)
        print()
        return

    if args.farm_append:
        entry = farm_trajectory_entry(
            args.pr,
            runs=8 if args.quick else FARM_RUNS,
            samples=1 if args.quick else FARM_SAMPLES,
        )
        append_trajectory(args.farm_append, entry, key="farm_history")
        json.dump(entry, sys.stdout, indent=2)
        print()
        return

    if args.snapshot_append:
        entry = snapshot_trajectory_entry(
            args.pr,
            runs=8 if args.quick else SNAPSHOT_FARM_RUNS,
            samples=1 if args.quick else SNAPSHOT_SAMPLES,
        )
        append_trajectory(args.snapshot_append, entry,
                          key="snapshot_history")
        json.dump(entry, sys.stdout, indent=2)
        print()
        return

    if args.scale_append:
        entry = scale_trajectory_entry(
            args.pr,
            n_cores=4 if args.quick else SCALE_CORES,
            n_tasks=24 if args.quick else SCALE_TASKS,
        )
        append_trajectory(args.scale_append, entry, key="scale_history")
        json.dump(entry, sys.stdout, indent=2)
        print()
        return

    fig10_events, fig10_secs = bench_fig10(n_jobs=n_jobs)
    ablation_sets, ablation_secs = bench_ablation()
    sim_jobs, sim_secs = bench_simulator()
    obs_overhead = bench_obs_overhead()
    flightrec_overhead = bench_flightrec_overhead()

    report = {
        "label": args.label,
        "fig10_mandatory": {
            "events": fig10_events,
            "seconds": round(fig10_secs, 4),
            "events_per_sec": round(fig10_events / fig10_secs, 1),
        },
        "ablation_schedulability": {
            "task_sets": ablation_sets,
            "seconds": round(ablation_secs, 4),
            "task_sets_per_sec": round(ablation_sets / ablation_secs, 1),
        },
        "sched_simulator": {
            "jobs": sim_jobs,
            "seconds": round(sim_secs, 4),
            "jobs_per_sec": round(sim_jobs / sim_secs, 1),
        },
        "obs_overhead": obs_overhead,
        "flightrec_overhead": flightrec_overhead,
    }
    json.dump(report, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
