"""The four benchmark workloads.

Each workload has two ways to produce its output document:

* ``run`` calls the program's own public batch entry point
  (``farm_scale``, ``farm_check``, ``farm_scale_sweep``,
  ``farm_campaign``) in-process (one worker, no multiprocessing) and
  renders the report — this is what the end-to-end metrics time;
* ``traced`` makes the same layer calls the farm task makes, in the same
  order, through the same ``farm_map`` and merge functions, with a span
  around each call.  Its outcome digest must equal ``run``'s, so the
  per-layer numbers describe the same program.

Item construction happens in ``items`` (counted in ``setup_s``).  Every
pass is a closed loop: the next pass starts when the previous returns.
"""

import hashlib
import json

#: ``scale``: the paper's 57-core x 4-HT Xeon Phi at ~35 tasks per core.
SCALE_CORES = 57
SCALE_THREADS = 4
SCALE_TASKS = 57 * 35

#: ``check``: clean conformance scenarios per pass.
CHECK_RUNS = 2000

#: ``fig_sweep``: jobs per grid point (the paper runs 100), so that two
#: passes fit a run; the run phase still takes ~80% of the traced wall.
FIG_JOBS = 2

#: ``faults``: simulated seconds per canned scenario.
FAULT_SECONDS = 30


def import_modules(workload):
    """Import the program modules ``workload``'s entry point and farm
    task load (part of its set-up)."""
    import importlib

    for module in workload.modules:
        importlib.import_module(module)


def _strip_telemetry(node):
    """Drop what describes *how* the simulator ran, not what it
    simulated: per-run telemetry reports, engine backend names and DES
    event counts (an engine change may legitimately alter those; a
    changed outcome may not)."""
    if isinstance(node, dict):
        return {
            key: _strip_telemetry(value) for key, value in node.items()
            if key not in ("run_report", "engine")
            and not (key == "events" and isinstance(value, int))
        }
    if isinstance(node, list):
        return [_strip_telemetry(value) for value in node]
    return node


def outcome_digest(document):
    """sha256 over the canonical simulated outcome of a document."""
    canonical = json.dumps(_strip_telemetry(document), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _middleware_run(scenario, tracer):
    """Build and run one check/scale scenario (``run_middleware``'s
    calls), returning ``(events, kernel, crash)``."""
    from repro.check.runner import MAX_KERNEL_EVENTS, build_middleware
    from repro.simkernel.errors import SimKernelError

    with tracer.span("core.build"):
        middleware, events = build_middleware(scenario)
    crash = None
    with tracer.bus.observe(middleware.probes), tracer.span("core.run"):
        try:
            middleware.run(max_events=MAX_KERNEL_EVENTS)
        except SimKernelError as error:
            crash = f"{type(error).__name__}: {error}"
    tracer.engine(middleware.kernel)
    tracer.add("obs.recorded", len(events))
    return events, middleware.kernel, crash


def _oracles(tracer, events, scenario, kernel):
    from repro.check.oracles import (
        check_final_state,
        check_kernel_trace,
        check_protocol,
    )

    violations = []
    with tracer.span("check.oracles.kernel_trace"):
        violations.extend(check_kernel_trace(events, scenario.n_cpus))
    with tracer.span("check.oracles.protocol"):
        violations.extend(check_protocol(events, scenario))
    with tracer.span("check.oracles.final_state"):
        violations.extend(check_final_state(kernel))
    return violations


class Workload:
    """One named workload; subclasses fill in the program calls."""

    name = ""
    #: program modules the entry point and the farm task import (the
    #: task imports most of them lazily, on its first item)
    modules = ()
    #: item-time percentile reported as ``item_ms_tail``, and the passes
    #: a run always makes so that >= 10 samples lie beyond it.
    tail_percentile = 90
    min_passes = 1
    #: the probe bus must stay idle (nothing published) on this workload
    idle_bus = False
    #: every published topic must fall in a named family (none in
    #: ``obs.published.other``)
    named_families_only = False

    def __init__(self, seed):
        self.seed = seed

    def items(self):
        raise NotImplementedError

    def run(self, items, on_event):
        """Untraced pass; returns ``(document, rendered_report)``."""
        raise NotImplementedError

    def traced(self, items, tracer, on_event):
        """The same pass, layer by layer, with spans and counts recorded
        into ``tracer``; returns ``(document, rendered_report)``."""
        raise NotImplementedError

    def jobs(self, document):
        """Simulated jobs completed in the document."""
        raise NotImplementedError

    def failed(self, document):
        """Number of items that errored, crashed, were quarantined, or
        failed an oracle or the differential."""
        raise NotImplementedError

    def profile_pass(self):
        """An untraced pass for the cProfile attribution, on a cheaper
        input where the full one is slow (only shares are reported)."""
        self.run(self.items(), None)


def _quarantined(document):
    return {index for entry in document["quarantined"]
            for index in entry["indices"]}


class Scale(Workload):
    """Full-topology campaign: few large shards, active bus, oracles."""

    name = "scale"
    modules = ("repro.scale", "repro.check.oracles", "repro.check.runner",
               "repro.check.scenario", "repro.obs.report")
    named_families_only = True
    tail_percentile = 90
    min_passes = 2  # 2 x 57 shards = 114 samples, 11 beyond p90

    def __init__(self, seed, n_cores=SCALE_CORES, n_tasks=SCALE_TASKS):
        super().__init__(seed)
        self.n_cores = n_cores
        self.n_tasks = n_tasks

    def _params(self):
        return {
            "base_seed": self.seed, "n_cores": self.n_cores,
            "threads_per_core": SCALE_THREADS,
            "n_cpus": self.n_cores * SCALE_THREADS,
            "requested_tasks": self.n_tasks, "utilization": 0.5,
            "horizon_periods": 2, "engine": "default",
        }

    def items(self):
        from repro.scale import campaign_items

        return campaign_items(self.n_cores, SCALE_THREADS, self.n_tasks,
                              base_seed=self.seed)

    def run(self, items, on_event):
        from repro.scale import farm_scale, render_scale_report

        document, _ = farm_scale(
            n_cores=self.n_cores, threads_per_core=SCALE_THREADS,
            n_tasks=self.n_tasks, seed=self.seed, on_event=on_event)
        return document, render_scale_report(document)

    def traced(self, items, tracer, on_event):
        from repro.farm.core import farm_map
        from repro.scale import merge_scale_results, render_scale_report

        result = farm_map(lambda item: self._item(item, tracer), items,
                          on_event=on_event)
        with tracer.span("scale.merge"):
            document = merge_scale_results(result, self._params())
            rendered = render_scale_report(document)
        return document, rendered

    def _item(self, item, tracer):
        """``repro.scale.campaign._scale_item``, layer by layer."""
        from repro.check.runner import MAX_KERNEL_EVENTS
        from repro.check.scenario import (
            derive_run_seed,
            generate_core_scenario,
        )
        from repro.obs.report import RunReport
        from repro.scale import MAX_RECORDED_FAILURES

        seed = derive_run_seed(item["base_seed"], item["index"])
        with tracer.span("scenario.gen"):
            scenario = generate_core_scenario(
                seed, threads_per_core=item["threads_per_core"],
                n_tasks=item["n_tasks"],
                utilization=item["utilization"],
                horizon_periods=item["horizon_periods"])
        events, kernel, crash = _middleware_run(scenario, tracer)
        violations = []
        if crash is None:
            violations = _oracles(tracer, events, scenario, kernel)
        jobs_done = sum(1 for topic, _t, _d in events
                        if topic == "rtseed.job_done")
        jobs_aborted = sum(1 for topic, _t, _d in events
                           if topic == "rtseed.job_abort")
        if kernel.engine.events_processed >= MAX_KERNEL_EVENTS:
            crash = crash or (
                f"event budget exhausted at {MAX_KERNEL_EVENTS} events")
        with tracer.span("obs.report.collect"):
            run_report = RunReport.collect(kernel).to_dict()
        return {
            "index": item["index"], "seed": seed,
            "n_tasks": len(scenario.tasks),
            "jobs": sum(task.n_jobs for task in scenario.tasks),
            "jobs_done": jobs_done, "jobs_aborted": jobs_aborted,
            "events": kernel.engine.events_processed,
            "sim_ns": kernel.engine.now, "crash": crash,
            "n_violations": len(violations),
            "violations": violations[:MAX_RECORDED_FAILURES],
            "run_report": run_report,
        }

    def jobs(self, document):
        return document["totals"]["jobs_done"]

    def failed(self, document):
        return (len(document["errors"]) + document["total_crashes"]
                + sum(1 for shard in document["shards"]
                      if shard["n_violations"])
                + len(_quarantined(document)))

    def profile_pass(self):
        cores = 6
        subset = Scale(self.seed, n_cores=cores,
                       n_tasks=cores * SCALE_TASKS // SCALE_CORES)
        subset.run(subset.items(), None)


class Check(Workload):
    """Clean conformance batch: many tiny 2-4 CPU scenarios, middleware
    plus oracles plus theory simulator plus trace differential."""

    name = "check"
    modules = ("repro.farm.jobs", "repro.check.runner")
    named_families_only = True
    tail_percentile = 99.75
    min_passes = 2  # 2 x 2000 scenarios = 4000 samples, 10 beyond p99.75

    def __init__(self, seed, n_runs=CHECK_RUNS):
        super().__init__(seed)
        self.n_runs = n_runs

    def items(self):
        return [{"base_seed": self.seed, "index": index,
                 "fault_rate": 0.0, "shrink": False}
                for index in range(self.n_runs)]

    def run(self, items, on_event):
        from repro.farm.jobs import farm_check, render_check_report

        document, _ = farm_check(len(items), seed=self.seed,
                                 fault_rate=0.0, shrink=False,
                                 on_event=on_event)
        return document, render_check_report(document)

    def traced(self, items, tracer, on_event):
        from repro.farm.core import farm_map
        from repro.farm.jobs import (
            merge_check_results,
            render_check_report,
        )

        result = farm_map(lambda item: self._item(item, tracer), items,
                          on_event=on_event)
        with tracer.span("farm.merge"):
            document = merge_check_results(result, "check", self.seed,
                                           len(items), 0.0, False, 5)
            rendered = render_check_report(document)
        return document, rendered

    def _item(self, item, tracer):
        """``repro.check.runner.run_fuzz_index``, layer by layer."""
        from repro.check.differential import (
            compare_traces,
            normalize_middleware,
            normalize_simulator,
        )
        from repro.check.runner import (
            CheckReport,
            _index_payload,
            run_simulator,
        )
        from repro.check.scenario import derive_run_seed, generate_scenario

        seed = derive_run_seed(item["base_seed"], item["index"])
        with tracer.span("scenario.gen"):
            scenario = generate_scenario(seed,
                                         fault_rate=item["fault_rate"])
        try:
            events, kernel, crash = _middleware_run(scenario, tracer)
            report = CheckReport(scenario)
            report.crash = crash
            report.violations.extend(
                _oracles(tracer, events, scenario, kernel))
            if not scenario.has_faults and crash is None:
                with tracer.span("sched.simulator"):
                    sim_events, sim_result = run_simulator(scenario)
                # the simulator publishes only sim.* topics, and
                # run_simulator's own subscriber records every one
                for topic, _time, _data in sim_events:
                    tracer.bus.add(topic)
                tracer.add("obs.recorded", len(sim_events))
                tracer.add("sched.simulator_events",
                           sim_result.events_processed)
                with tracer.span("check.differential.normalize"):
                    sim_trace = normalize_simulator(sim_events, scenario)
                    mw_trace = normalize_middleware(events, scenario)
                with tracer.span("check.differential.compare"):
                    report.divergences.extend(
                        compare_traces(sim_trace, mw_trace, scenario))
                report.differential_ran = True
            if not report.ok:
                flight = getattr(kernel.probes, "flight", None)
                if flight is not None:
                    report.flight = flight.snapshot("check_failure")
        except Exception as error:  # mirrors run_fuzz_index
            report = CheckReport(scenario)
            report.crash = f"checker error {type(error).__name__}: {error}"
        return _index_payload(item["index"], seed, report, scenario,
                              shrink=item["shrink"])

    def jobs(self, document):
        from repro.check.scenario import derive_run_seed, generate_scenario

        lost = ({entry["index"] for entry in document["errors"]}
                | _quarantined(document))
        return sum(
            task.n_jobs
            for index in range(document["requested_runs"])
            if index not in lost
            for task in generate_scenario(
                derive_run_seed(self.seed, index), fault_rate=0.0).tasks)

    def failed(self, document):
        return (len(document["errors"]) + document["total_failures"]
                + len(_quarantined(document)))

    def profile_pass(self):
        subset = Check(self.seed, n_runs=300)
        subset.run(subset.items(), None)


class FigSweep(Workload):
    """Figures 10-13 grid: idle bus, xeonphi cost model with noise and
    background loads, chunked optional parts."""

    name = "fig_sweep"
    modules = ("repro.scale", "repro.bench.sweeps")
    idle_bus = True
    tail_percentile = 90
    min_passes = 2  # 2 x 72 points = 144 samples, 14 beyond p90

    def items(self):
        from repro.bench.sweeps import figure_items

        return figure_items(n_jobs=FIG_JOBS, seed=self.seed)

    def _params(self):
        return {"base_seed": self.seed, "quick": False}

    def run(self, items, on_event):
        from repro.scale import farm_scale_sweep, render_scale_report

        document, _ = farm_scale_sweep(items=items, seed=self.seed,
                                       on_event=on_event)
        return document, render_scale_report(document)

    def traced(self, items, tracer, on_event):
        from repro.farm.core import farm_map
        from repro.scale import merge_sweep_results, render_scale_report

        result = farm_map(lambda item: self._item(item, tracer), items,
                          on_event=on_event)
        with tracer.span("scale.merge"):
            document = merge_sweep_results(result, items, self._params())
            rendered = render_scale_report(document)
        return document, rendered

    def _item(self, item, tracer):
        """``repro.bench.sweeps._figure_point``, layer by layer."""
        from repro.bench.overheads import (
            OPTIONAL_DEADLINE,
            OverheadSample,
            make_eval_task,
        )
        from repro.core.middleware import RTSeed
        from repro.hardware.loads import BackgroundLoad

        load = BackgroundLoad[item["load"].upper()]
        with tracer.span("core.build"):
            middleware = RTSeed(load=load, seed=item["seed"])
            task = make_eval_task(item["np"])
            middleware.add_task(task, n_jobs=item["jobs"], cpu=0,
                                policy=item["policy"],
                                optional_deadline=OPTIONAL_DEADLINE)
        with tracer.bus.observe(middleware.probes), \
                tracer.span("core.run"):
            result = middleware.run()
        tracer.engine(middleware.kernel)
        sample = OverheadSample(item["policy"], load, item["np"],
                                result.tasks[task.name])
        overheads = {}
        for which in "mbse":
            mean = sample.mean(which)
            overheads[which] = {
                "mean_us": None if mean is None else round(mean, 3),
                "std_us": round(sample.std(which), 3),
                "max_us": (None if sample.max(which) is None
                           else round(sample.max(which), 3)),
            }
        return {"overheads_us": overheads, "fates": dict(sample.fates)}

    def jobs(self, document):
        return sum(point["item"]["jobs"] for point in document["points"])

    def failed(self, document):
        return len(document["errors"]) + len(_quarantined(document))

    def profile_pass(self):
        # every 10th point: one per np value, policies and loads rotating
        self.run(self.items()[::10], None)


class Faults(Workload):
    """The 8 canned resilience scenarios through ``farm_campaign``:
    trading, fault injectors, retry/watchdog/degraded mode."""

    name = "faults"
    modules = ("repro.farm.jobs", "repro.faults.campaign")
    tail_percentile = 90
    min_passes = 13  # 13 x 8 scenarios = 104 samples, 10 beyond p90

    def items(self):
        from repro.faults.campaign import SCENARIOS

        return sorted(SCENARIOS)

    def run(self, items, on_event):
        from repro.faults.campaign import render_report
        from repro.farm.jobs import farm_campaign

        document, _ = farm_campaign(items, n_seconds=FAULT_SECONDS,
                                    seed=self.seed, on_event=on_event)
        return document, render_report(document)

    def traced(self, items, tracer, on_event):
        from repro.faults.campaign import assemble_campaign, render_report
        from repro.farm.core import farm_map

        result = farm_map(lambda name: self._item(name, tracer), items,
                          on_event=on_event)
        with tracer.span("faults.merge"):
            incomplete = []
            done_names = []
            done_results = []
            for index, name in enumerate(items):
                payload = result.results.get(index)
                if payload is None or "farm_error" in payload:
                    incomplete.append({"scenario": name, "reason": (
                        "quarantined" if payload is None
                        else payload["farm_error"])})
                else:
                    done_names.append(name)
                    done_results.append(payload)
            document = assemble_campaign(done_names, FAULT_SECONDS,
                                         self.seed, done_results)
            if incomplete:
                document["incomplete"] = incomplete
            rendered = render_report(document)
        return document, rendered

    def _item(self, name, tracer):
        """``repro.faults.campaign.run_scenario``, split at its
        prepare/finish seam."""
        from repro.faults.campaign import prepare_scenario
        from repro.obs.profile import WallClockProfile

        profile = WallClockProfile()
        with tracer.span("core.build"):
            run = prepare_scenario(name, n_seconds=FAULT_SECONDS,
                                   seed=self.seed, profile=profile)
        with tracer.bus.observe(run.kernel.probes), \
                tracer.span("core.run"):
            result = run.finish()
        tracer.engine(run.kernel)
        sections = profile.report()
        tracer.add("faults.setup",
                   sections[f"faults.{name}.setup"]["seconds"])
        tracer.add("faults.run", sections[f"faults.{name}.run"]["seconds"])
        tracer.add("obs.recorded", sum(run.events.values()))
        tracer.add("faults.injected", sum(result["injected"].values()))
        tracer.add("resilience.watchdog_fires",
                   result.get("watchdog_fires", 0))
        tracer.add("resilience.degrade_episodes",
                   result.get("degraded", {}).get("episodes", 0))
        return result

    def jobs(self, document):
        return sum(scenario["jobs"]
                   for scenario in document["scenarios"].values())

    def failed(self, document):
        return len(document.get("incomplete", ()))


WORKLOADS = {cls.name: cls for cls in (Scale, Check, FigSweep, Faults)}
