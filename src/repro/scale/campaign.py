"""Full-topology scale campaigns over the scenario farm.

The paper's evaluation platform is a 57-core x 4-HT Xeon Phi; the
repo's workloads historically exercised a fraction of it.  A *scale
campaign* fills the whole machine: partitioned RMWP makes cores
independent once each per-core partition is schedulable, so a
full-topology run is one farm item per core —
:func:`repro.check.scenario.generate_core_scenario` draws core
``k``'s RMWP-schedulable task group from ``derive_run_seed(base_seed,
k)``, the middleware executes it, and the trace oracles judge it.
Thousands of tasks therefore shard perfectly: the campaign document is
a pure function of ``(topology, base_seed, n_tasks, ...)`` and is
byte-identical at any ``--workers`` count, with checkpoint/resume
riding the standard ``rtseed-farm-checkpoint/1`` layer.

Per-shard telemetry merges through :meth:`repro.obs.report.RunReport
.merge` (counters summed, high-water marks maxed); wall-clock
throughput — the "millions of simulated jobs per minute" number — is
computed by callers from :attr:`FarmResult.stats` and never enters the
document.
"""

import json
from collections import Counter

from repro.engine.classes import RTQ_RANGE
from repro.farm.core import DEFAULT_HEARTBEAT, DEFAULT_RETRIES, farm_map

#: Scale-campaign report document schema tag.
SCALE_SCHEMA = "rtseed-scale/1"

#: Farmed-sweep report document schema tag (see
#: :mod:`repro.bench.sweeps`).
SCALE_SWEEP_SCHEMA = "rtseed-scale-sweep/1"

#: Violations/crashes kept verbatim in the document (counts are total).
MAX_RECORDED_FAILURES = 10

#: Tasks one core can host: every task on a core takes its own level of
#: the RTQ band by RM rank (Fig. 5), so a larger shard fails with
#: :class:`~repro.engine.classes.PriorityBandError`.
MAX_TASKS_PER_CORE = RTQ_RANGE[1] - RTQ_RANGE[0] + 1


def shard_task_counts(n_tasks, n_cores):
    """Tasks per core: front-loaded remainder, cores may be empty.

    The split is a pure function of ``(n_tasks, n_cores)`` so the
    shard list — and with it the campaign document — never depends on
    execution order.
    """
    if n_cores < 1:
        raise ValueError(f"n_cores must be >= 1, got {n_cores}")
    if n_tasks < 1:
        raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
    base, extra = divmod(n_tasks, n_cores)
    return [base + (1 if core < extra else 0) for core in range(n_cores)]


def check_task_count(n_tasks, n_cores):
    """Reject a campaign whose busiest shard exceeds
    :data:`MAX_TASKS_PER_CORE` — before anything is farmed out to fail
    in every shard.  Raises :class:`ValueError` naming the limit."""
    busiest = max(shard_task_counts(n_tasks, n_cores))
    if busiest > MAX_TASKS_PER_CORE:
        raise ValueError(
            f"{n_tasks} task(s) over {n_cores} core(s) puts {busiest} "
            f"on one core, but the RTQ band {RTQ_RANGE} holds at most "
            f"{MAX_TASKS_PER_CORE} tasks per core (at most "
            f"{MAX_TASKS_PER_CORE * n_cores} tasks on {n_cores} "
            f"core(s))"
        )


def campaign_items(n_cores, threads_per_core, n_tasks, base_seed=0,
                   utilization=0.5, horizon_periods=2):
    """The farm item list: one item per core that received tasks."""
    counts = shard_task_counts(n_tasks, n_cores)
    items = []
    for core, count in enumerate(counts):
        if count == 0:
            continue
        items.append({
            "base_seed": base_seed,
            "index": core,
            "threads_per_core": threads_per_core,
            "n_tasks": count,
            "utilization": utilization,
            "horizon_periods": horizon_periods,
        })
    return items


def _scale_item(item):
    """Farm task: one core's scenario, executed and judged
    (module-level so the task pickles under ``spawn``)."""
    from repro.check.oracles import (
        check_final_state,
        check_kernel_trace,
        check_protocol,
    )
    from repro.check.runner import MAX_KERNEL_EVENTS, run_middleware
    from repro.check.scenario import derive_run_seed, generate_core_scenario
    from repro.obs.report import RunReport

    seed = derive_run_seed(item["base_seed"], item["index"])
    scenario = generate_core_scenario(
        seed,
        threads_per_core=item["threads_per_core"],
        n_tasks=item["n_tasks"],
        utilization=item["utilization"],
        horizon_periods=item["horizon_periods"],
    )
    events, kernel, crash = run_middleware(scenario)
    violations = []
    if crash is None:
        violations.extend(check_kernel_trace(events, scenario.n_cpus))
        violations.extend(check_protocol(events, scenario))
        violations.extend(check_final_state(kernel))
    jobs_done = 0
    jobs_aborted = 0
    for topic, _time, _data in events:
        if topic == "rtseed.job_done":
            jobs_done += 1
        elif topic == "rtseed.job_abort":
            jobs_aborted += 1
    if kernel.engine.events_processed >= MAX_KERNEL_EVENTS:
        crash = crash or (
            f"event budget exhausted at {MAX_KERNEL_EVENTS} events"
        )
    return {
        "index": item["index"],
        "seed": seed,
        "n_tasks": len(scenario.tasks),
        "jobs": sum(task.n_jobs for task in scenario.tasks),
        "jobs_done": jobs_done,
        "jobs_aborted": jobs_aborted,
        "events": kernel.engine.events_processed,
        "sim_ns": kernel.engine.now,
        "crash": crash,
        "n_violations": len(violations),
        "violations": violations[:MAX_RECORDED_FAILURES],
        "run_report": RunReport.collect(kernel).to_dict(),
    }


def merge_scale_results(farm_result, params):
    """Index-ordered merge of per-core payloads into the campaign doc.

    Only worker-count-invariant data enters the document: shard
    summaries in core order, totals summed over them, the merged
    :class:`~repro.obs.report.RunReport`, and quarantine records with
    the seeds the lost cores would have run.  Wall-clock throughput
    stays on :attr:`FarmResult.stats`.
    """
    from repro.check.scenario import derive_run_seed
    from repro.obs.report import RunReport

    shards = []
    errors = []
    violations = []
    crashes = []
    reports = []
    totals = {"tasks": 0, "jobs": 0, "jobs_done": 0, "jobs_aborted": 0,
              "events": 0, "sim_ns": 0, "violations": 0}
    for index, payload in farm_result.ordered_items():
        if "farm_error" in payload:
            errors.append({
                "index": index,
                "seed": derive_run_seed(params["base_seed"], index),
                "error": payload["farm_error"],
            })
            continue
        shards.append({
            "index": index,
            "seed": payload["seed"],
            "n_tasks": payload["n_tasks"],
            "jobs": payload["jobs"],
            "jobs_done": payload["jobs_done"],
            "events": payload["events"],
            "n_violations": payload["n_violations"],
        })
        totals["tasks"] += payload["n_tasks"]
        totals["jobs"] += payload["jobs"]
        totals["jobs_done"] += payload["jobs_done"]
        totals["jobs_aborted"] += payload["jobs_aborted"]
        totals["events"] += payload["events"]
        totals["sim_ns"] += payload["sim_ns"]
        totals["violations"] += payload["n_violations"]
        for violation in payload["violations"]:
            if len(violations) < MAX_RECORDED_FAILURES:
                violations.append({"core": index, **violation})
        if payload["crash"] is not None:
            crashes.append({"core": index, "crash": payload["crash"]})
        reports.append(payload["run_report"])
    document = {
        "schema": SCALE_SCHEMA,
        "what": "campaign",
        **params,
        "completed_shards": len(shards),
        "totals": totals,
        "shards": shards,
        "violations": violations,
        "crashes": crashes[:MAX_RECORDED_FAILURES],
        "total_crashes": len(crashes),
        "errors": errors,
        "run_report": (RunReport.merge(reports).to_dict()
                       if reports else None),
        "quarantined": [
            {
                "reason": entry["reason"],
                "indices": list(entry["indices"]),
                "seeds": [derive_run_seed(params["base_seed"], index)
                          for index in entry["indices"]],
            }
            for entry in farm_result.quarantined
        ],
    }
    return document


def failure_summary(document):
    """Failure-first summary lines of a campaign document: completed /
    errored / quarantined shard counts, then a histogram of error
    classes (the exception name heading each ``farm_error``).  Empty
    when every shard completed."""
    errored = len(document["errors"])
    quarantined = sum(len(entry["indices"])
                      for entry in document["quarantined"])
    if not (errored or quarantined):
        return []
    completed = document["completed_shards"]
    shards = completed + errored + quarantined
    lines = [f"{completed}/{shards} shard(s) completed, {errored} "
             f"errored, {quarantined} quarantined"]
    classes = Counter(entry["error"].partition(":")[0]
                      for entry in document["errors"])
    if classes:
        lines.append("error classes: " + ", ".join(
            f"{name} x{count}" for name, count in sorted(classes.items())))
    return lines


def farm_scale(n_cores=57, threads_per_core=4, n_tasks=2000, seed=0,
               utilization=0.5, horizon_periods=2,
               workers=1, heartbeat=DEFAULT_HEARTBEAT,
               max_retries=DEFAULT_RETRIES, flight_dir=None,
               on_event=None, context=None, checkpoint_path=None,
               handle_signals=False):
    """Run a full-topology campaign across ``workers`` processes.

    Returns ``(document, farm_result)`` — the deterministic campaign
    dict (render with :func:`render_scale_report`) and the raw
    :class:`~repro.farm.core.FarmResult` whose ``stats`` carry the
    wall-clock side (jobs/minute throughput, worker counts).

    ``checkpoint_path`` enables crash/interrupt resume with the
    standard batch-fingerprint refusal rules; ``handle_signals``
    latches SIGTERM/SIGINT into a graceful drain
    (:class:`~repro.farm.core.FarmInterrupted`).
    """
    params = {
        "base_seed": seed,
        "n_cores": n_cores,
        "threads_per_core": threads_per_core,
        "n_cpus": n_cores * threads_per_core,
        "requested_tasks": n_tasks,
        "utilization": utilization,
        "horizon_periods": horizon_periods,
    }
    items = campaign_items(
        n_cores, threads_per_core, n_tasks, base_seed=seed,
        utilization=utilization, horizon_periods=horizon_periods,
    )
    checkpoint_meta = {"what": "scale", **params}
    farm_result = farm_map(
        _scale_item, items, n_workers=workers, heartbeat=heartbeat,
        max_retries=max_retries, context=context, flight_dir=flight_dir,
        flight_seed=seed, on_event=on_event,
        checkpoint_path=checkpoint_path,
        checkpoint_meta=checkpoint_meta,
        handle_signals=handle_signals,
    )
    return merge_scale_results(farm_result, params), farm_result


def _sweep_item(item):
    """Farm task: one sweep point (module-level, picklable)."""
    from repro.bench.sweeps import run_sweep_item

    return run_sweep_item(item)


def merge_sweep_results(farm_result, items, params):
    """Index-ordered merge of sweep-point payloads."""
    points = []
    errors = []
    for index, payload in farm_result.ordered_items():
        if "farm_error" in payload:
            errors.append({
                "index": index,
                "item": items[index],
                "error": payload["farm_error"],
            })
            continue
        points.append({"item": items[index], "result": payload})
    document = {
        "schema": SCALE_SWEEP_SCHEMA,
        "what": "sweep",
        **params,
        "requested_points": len(items),
        "completed_points": len(points),
        "points": points,
        "errors": errors,
        "quarantined": [
            {
                "reason": entry["reason"],
                "indices": list(entry["indices"]),
                "items": [items[index] for index in entry["indices"]],
            }
            for entry in farm_result.quarantined
        ],
    }
    return document


def farm_scale_sweep(items=None, quick=False, seed=0, workers=1,
                     heartbeat=DEFAULT_HEARTBEAT,
                     max_retries=DEFAULT_RETRIES, flight_dir=None,
                     on_event=None, context=None, checkpoint_path=None,
                     handle_signals=False):
    """Farm the fig-series sweep grid and the three ablations.

    ``items`` defaults to :func:`repro.bench.sweeps.sweep_items` (the
    full figure grid plus every ablation point; ``quick`` shrinks it to
    a smoke-sized subset).  Every point is an independent pure
    function of its item dict, so the merged document is byte-identical
    at any worker count and checkpoints compose the usual way.
    """
    from repro.bench.sweeps import sweep_items

    if items is None:
        items = sweep_items(quick=quick, seed=seed)
    params = {"base_seed": seed, "quick": bool(quick)}
    checkpoint_meta = {"what": "scale-sweep", **params,
                       "points": len(items)}
    farm_result = farm_map(
        _sweep_item, items, n_workers=workers, heartbeat=heartbeat,
        max_retries=max_retries, context=context, flight_dir=flight_dir,
        flight_seed=seed, on_event=on_event,
        checkpoint_path=checkpoint_path,
        checkpoint_meta=checkpoint_meta,
        handle_signals=handle_signals,
    )
    return merge_sweep_results(farm_result, items, params), farm_result


def render_scale_report(document):
    """Serialize a scale document deterministically (byte-stable)."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"
