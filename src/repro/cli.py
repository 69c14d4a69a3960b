"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``overheads``
    Run one Section V overhead configuration and print Δm/Δb/Δs/Δe.

``sweep``
    Run the full figure sweep (policies x loads x np) and print the
    four figure tables.  Slow at paper fidelity; tune ``--jobs``.

``trade``
    Run the real-time trading system and print the session report.

``figures``
    Regenerate the cheap figures/tables (Figure 3, Figure 8, Table I).

``admit``
    Demonstrate admission control on a random workload.

``trace``
    Run a workload with the Chrome-trace exporter attached and write a
    Perfetto-loadable JSON trace (and optionally a JSONL event stream).

``metrics``
    Run a workload with the metrics collector attached and print the
    simulated-time metrics snapshot (counters + latency quantiles).

``report``
    Run a workload with every telemetry source attached (scheduler
    metrics, engine/queue counters, wall-clock profile) and emit one
    unified JSON run report (``rtseed-run-report/1``), consumable by
    ``tools/bench_report.py``.

``faults``
    Run seeded fault-injection scenarios against the trading system and
    emit a deterministic JSON resilience report.

``check``
    Differential conformance fuzzing: random scenarios run on both the
    theory simulator and the middleware simkernel, compared in
    lockstep and checked against trace oracles; failures are shrunk to
    replayable JSON repro artifacts (see docs/CHECKING.md).

``farm``
    Run a check batch or fault campaign through
    the parallel scenario farm with a live per-worker status line; the
    merged report is byte-identical at any ``--workers`` count (see
    docs/FARM.md).  ``farm status`` inspects farm checkpoints on disk
    instead of running anything.

``scale``
    Full-topology scale campaigns (docs/FARM.md "Full-topology
    sweeps"): fill a 57-core x 4-HT Xeon Phi (or any subset) with
    thousands of RMWP-schedulable tasks, one farm shard per core, or
    farm the fig-series sweep grid and the three ablations
    (``--what sweep``).  Worker-count-invariant merged reports,
    checkpoint/``--resume``, and a jobs/minute throughput line.

``snapshot``
    Deterministic checkpoint/restore: run a program to completion, dump
    an ``rtseed-snapshot/1`` at an event barrier, inspect a snapshot,
    or resume one to the end — the resumed payload is byte-identical
    to the uninterrupted run (see docs/SNAPSHOTS.md).
"""

import argparse
import sys


def _add_overheads_parser(subparsers):
    parser = subparsers.add_parser(
        "overheads", help="run one overhead configuration (Section V)"
    )
    parser.add_argument("--np", dest="n_parallel", type=int, default=57,
                        help="number of parallel optional parts")
    parser.add_argument("--policy", default="one_by_one",
                        choices=["one_by_one", "two_by_two", "all_by_all"])
    parser.add_argument("--load", default="none",
                        choices=["none", "cpu", "cpu_memory"])
    parser.add_argument("--jobs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)


def _add_sweep_parser(subparsers):
    parser = subparsers.add_parser(
        "sweep", help="full Figures 10-13 sweep"
    )
    parser.add_argument("--jobs", type=int, default=5)
    parser.add_argument("--counts", default=None,
                        help="comma-separated np values")


def _add_trade_parser(subparsers):
    parser = subparsers.add_parser(
        "trade", help="run the real-time trading system"
    )
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--policy", default="one_by_one",
                        choices=["one_by_one", "two_by_two", "all_by_all"])
    parser.add_argument("--load", default="none",
                        choices=["none", "cpu", "cpu_memory"])
    parser.add_argument("--od-ms", type=float, default=None,
                        help="relative optional deadline in ms")


def _add_figures_parser(subparsers):
    subparsers.add_parser(
        "figures", help="regenerate Figure 3 / Figure 8 / Table I"
    )


def _add_admit_parser(subparsers):
    parser = subparsers.add_parser(
        "admit", help="admission-control demonstration"
    )
    parser.add_argument("--cpus", type=int, default=2)
    parser.add_argument("--tasks", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)


def _add_workload_arguments(parser):
    """Shared workload selection for the observability commands."""
    parser.add_argument("--workload", default="overheads",
                        choices=["overheads", "trade"],
                        help="what to run under observation")
    parser.add_argument("--np", dest="n_parallel", type=int, default=8,
                        help="parallel optional parts (overheads "
                             "workload)")
    parser.add_argument("--jobs", type=int, default=5,
                        help="jobs (overheads) / seconds (trade)")
    parser.add_argument("--policy", default="one_by_one",
                        choices=["one_by_one", "two_by_two", "all_by_all"])
    parser.add_argument("--load", default="none",
                        choices=["none", "cpu", "cpu_memory"])
    parser.add_argument("--seed", type=int, default=0)


def _add_trace_parser(subparsers):
    parser = subparsers.add_parser(
        "trace", help="export a Perfetto/Chrome trace of a workload"
    )
    _add_workload_arguments(parser)
    parser.add_argument("--out", default="trace.json",
                        help="Chrome trace-event JSON output path")
    parser.add_argument("--jsonl", default=None,
                        help="also stream every probe event to this "
                             "JSONL file")
    parser.add_argument("--flight-dump", default=None, metavar="PATH",
                        help="also dump the flight-recorder ring (last "
                             "512 probe events + kernel state) to this "
                             "JSONL file after the run")


def _add_metrics_parser(subparsers):
    parser = subparsers.add_parser(
        "metrics", help="collect simulated-time metrics for a workload"
    )
    _add_workload_arguments(parser)
    parser.add_argument("--format", default=None,
                        choices=["json", "table"],
                        help="output format (default: table)")
    parser.add_argument("--json", action="store_true",
                        help="shorthand for --format json")


def _add_report_parser(subparsers):
    parser = subparsers.add_parser(
        "report", help="emit a unified JSON run report for a workload"
    )
    _add_workload_arguments(parser)
    parser.add_argument("--out", default=None,
                        help="write the report here instead of stdout")
    parser.add_argument("--no-wallclock", action="store_true",
                        help="omit the wall-clock profile section "
                             "(byte-deterministic report)")


def _add_faults_parser(subparsers):
    parser = subparsers.add_parser(
        "faults", help="run a fault-injection resilience campaign"
    )
    parser.add_argument("--scenario", default="all",
                        help="scenario name, comma-separated names, or "
                             "'all' (see --list)")
    parser.add_argument("--seconds", type=int, default=30,
                        help="trading duration per scenario")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="write the JSON report here instead of "
                             "stdout")
    parser.add_argument("--list", action="store_true",
                        help="list the canned scenarios and exit")
    parser.add_argument("--flight-dir", default=None, metavar="DIR",
                        help="dump flight-recorder artifacts into this "
                             "directory at every failure edge "
                             "(invariant violation, degraded-mode "
                             "entry, watchdog fire)")
    parser.add_argument("--workers", type=int, default=1,
                        help="run the campaign through the scenario "
                             "farm with this many worker processes; "
                             "the report bytes are identical at any "
                             "worker count (docs/FARM.md)")
    parser.add_argument("--checkpoint", default=None, metavar="FILE",
                        help="checkpoint completed scenarios here and "
                             "resume from it on the next run; also "
                             "enables graceful SIGTERM/SIGINT drain "
                             "(docs/SNAPSHOTS.md)")
    parser.add_argument("--resume", default=None, metavar="FILE",
                        help="resume a serial campaign from this "
                             "campaign snapshot (--workers 1; farmed "
                             "campaigns auto-resume via --checkpoint)")


def _add_check_parser(subparsers):
    parser = subparsers.add_parser(
        "check", help="differential conformance fuzzing"
    )
    parser.add_argument("--runs", type=int, default=100,
                        help="number of generated scenarios")
    parser.add_argument("--seed", type=int, default=0,
                        help="batch seed; run k's scenario seed is "
                             "derived independently as "
                             "derive_run_seed(seed, k)")
    parser.add_argument("--fault-rate", type=float, default=0.0,
                        help="fraction of scenarios carrying a fault "
                             "plan (default 0; oracle checks only, no "
                             "differential)")
    parser.add_argument("--shrink", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="delta-debug failing scenarios (default on)")
    parser.add_argument("--max-failures", type=int, default=5,
                        help="stop after this many failing scenarios")
    parser.add_argument("--artifacts", default=None, metavar="DIR",
                        help="write one repro JSON per failure here")
    parser.add_argument("--replay", default=None, metavar="FILE",
                        help="re-run a saved repro artifact and exit")
    parser.add_argument("--from-snapshot", default=None, metavar="FILE",
                        help="with --replay: restore this divergence "
                             "snapshot (written next to the artifact "
                             "by --artifacts) and re-execute only the "
                             "tail (docs/SNAPSHOTS.md)")
    parser.add_argument("--checkpoint", default=None, metavar="FILE",
                        help="farm path only: checkpoint completed "
                             "runs here and resume from it on the "
                             "next run; also enables graceful "
                             "SIGTERM/SIGINT drain")
    parser.add_argument("--workers", type=int, default=None,
                        help="run the batch through the scenario farm "
                             "with this many worker processes; the "
                             "merged report is byte-identical at any "
                             "worker count (docs/FARM.md)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the farm's merged JSON report "
                             "here (implies the farm path; see "
                             "--workers)")


def _add_farm_parser(subparsers):
    parser = subparsers.add_parser(
        "farm", help="parallel scenario farm with live worker status"
    )
    parser.add_argument("action", nargs="?", default="run",
                        choices=["run", "status"],
                        help="run (default): execute a batch; status: "
                             "inspect farm checkpoints on disk "
                             "(--checkpoint FILE or --checkpoint-dir "
                             "DIR) without running anything")
    parser.add_argument("--what", default="check",
                        choices=["check", "faults"],
                        help="which batch to farm out")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--runs", type=int, default=50,
                        help="scenarios per batch (check)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fault-rate", type=float, default=0.0,
                        help="check fault rate (default 0)")
    parser.add_argument("--scenario", default="all",
                        help="campaign scenarios (faults): name, "
                             "comma-separated names, or 'all'")
    parser.add_argument("--seconds", type=int, default=12,
                        help="trading duration per campaign scenario")
    parser.add_argument("--heartbeat", type=float, default=None,
                        help="seconds of worker silence before the "
                             "parent declares a hang")
    parser.add_argument("--flight-dir", default=None, metavar="DIR",
                        help="dump the farm flight ring here on "
                             "quarantine")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the merged JSON report here "
                             "instead of stdout")
    parser.add_argument("--checkpoint", default=None, metavar="FILE",
                        help="checkpoint completed items here and "
                             "resume from it on the next run; also "
                             "enables graceful SIGTERM/SIGINT drain "
                             "(docs/SNAPSHOTS.md)")
    parser.add_argument("--checkpoint-dir", default=".", metavar="DIR",
                        help="farm status: directory to scan for farm "
                             "checkpoints (default: current directory)")


def _add_scale_parser(subparsers):
    parser = subparsers.add_parser(
        "scale",
        help="full-topology scale campaigns on the scenario farm",
    )
    parser.add_argument("--what", default="campaign",
                        choices=["campaign", "sweep"],
                        help="campaign: fill the topology with "
                             "RMWP-schedulable tasks (one shard per "
                             "core); sweep: farm the fig-series grid "
                             "and the three ablations")
    parser.add_argument("--cores", type=int, default=57,
                        help="cores of the (subset) Xeon Phi topology")
    parser.add_argument("--threads-per-core", type=int, default=4,
                        help="hardware threads per core (1..4)")
    parser.add_argument("--tasks", type=int, default=2000,
                        help="total tasks across the topology "
                             "(campaign)")
    parser.add_argument("--utilization", type=float, default=0.5,
                        help="per-core task-set utilization (campaign)")
    parser.add_argument("--horizon-periods", type=int, default=2,
                        help="horizon as a multiple of each core's "
                             "longest period (campaign)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed; core k's scenario seed is "
                             "derive_run_seed(seed, k)")
    parser.add_argument("--workers", type=int, default=1,
                        help="farm worker processes; the merged report "
                             "is byte-identical at any count")
    parser.add_argument("--quick", action="store_true",
                        help="sweep: smoke-sized point grid")
    parser.add_argument("--heartbeat", type=float, default=None,
                        help="seconds of worker silence before the "
                             "parent declares a hang")
    parser.add_argument("--flight-dir", default=None, metavar="DIR",
                        help="dump the farm flight ring here on "
                             "quarantine")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the merged JSON report here "
                             "instead of stdout")
    parser.add_argument("--checkpoint", default=None, metavar="FILE",
                        help="checkpoint completed shards here; also "
                             "enables graceful SIGTERM/SIGINT drain "
                             "(exit code 3)")
    parser.add_argument("--resume", default=None, metavar="FILE",
                        help="resume an interrupted campaign from this "
                             "checkpoint file (same machinery as "
                             "--checkpoint, spelled for intent; "
                             "completed shards are skipped)")


def _add_snapshot_parser(subparsers):
    parser = subparsers.add_parser(
        "snapshot",
        help="deterministic checkpoint/restore of a seeded run",
    )
    parser.add_argument("action",
                        choices=["run", "dump", "inspect", "resume"],
                        help="run: program to completion (payload "
                             "JSON); dump: snapshot at --at-events; "
                             "inspect: summarize a snapshot; resume: "
                             "restore + finish (payload JSON, "
                             "byte-identical to run)")
    parser.add_argument("--program", default="trade",
                        choices=["overheads", "trade", "faults",
                                 "check"],
                        help="which program to run/dump")
    parser.add_argument("--np", dest="n_parallel", type=int, default=8,
                        help="parallel optional parts (overheads)")
    parser.add_argument("--jobs", type=int, default=5,
                        help="jobs (overheads)")
    parser.add_argument("--seconds", type=int, default=6,
                        help="trading duration (trade / faults)")
    parser.add_argument("--policy", default="one_by_one",
                        choices=["one_by_one", "two_by_two",
                                 "all_by_all"])
    parser.add_argument("--load", default="none",
                        choices=["none", "cpu", "cpu_memory"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scenario", default="cpu_stall",
                        help="faults program: campaign scenario name")
    parser.add_argument("--artifact", default=None, metavar="FILE",
                        help="check program: repro artifact supplying "
                             "the scenario")
    parser.add_argument("--at-events", type=int, default=None,
                        help="dump: engine event barrier to snapshot "
                             "at (required for dump)")
    parser.add_argument("--snapshot", default=None, metavar="FILE",
                        help="snapshot path (dump writes it; "
                             "inspect/resume read it)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the payload JSON here instead of "
                             "stdout (run/resume)")


def _load_from_name(name):
    from repro.hardware.loads import BackgroundLoad

    return {
        "none": BackgroundLoad.NONE,
        "cpu": BackgroundLoad.CPU,
        "cpu_memory": BackgroundLoad.CPU_MEMORY,
    }[name]


def cmd_overheads(args, out):
    from repro.bench.overheads import run_overhead_experiment
    from repro.bench.reporting import format_table

    sample = run_overhead_experiment(
        args.n_parallel,
        policy=args.policy,
        load=_load_from_name(args.load),
        n_jobs=args.jobs,
        seed=args.seed,
    )
    rows = [
        [f"Δ{which}", f"{sample.mean(which):.1f}",
         f"{sample.std(which):.1f}", f"{sample.max(which):.1f}"]
        for which in "mbse"
    ]
    print(
        format_table(
            ["overhead", "mean [us]", "std", "max [us]"],
            rows,
            title=(
                f"np={args.n_parallel} policy={args.policy} "
                f"load={args.load} jobs={args.jobs}"
            ),
        ),
        file=out,
    )
    print(f"part fates: {sample.fates}", file=out)
    return 0


def cmd_sweep(args, out):
    from repro.bench.overheads import (
        PARALLEL_COUNTS,
        figure_series,
        overhead_sweep,
    )
    from repro.bench.reporting import format_series
    from repro.hardware.loads import BackgroundLoad

    counts = PARALLEL_COUNTS
    if args.counts:
        counts = tuple(int(c) for c in args.counts.split(","))
    samples = overhead_sweep(counts=counts, n_jobs=args.jobs)
    titles = {
        "m": "Figure 10: beginning the mandatory part [us]",
        "s": "Figure 11: switching mandatory -> optional [us]",
        "b": "Figure 12: beginning the optional parts [us]",
        "e": "Figure 13: ending the optional parts [us]",
    }
    for which in "msbe":
        print(f"\n=== {titles[which]} ===", file=out)
        for load in BackgroundLoad:
            series = figure_series(samples, which, load)
            print(format_series(f"({load.label})", series, unit="us"),
                  file=out)
    return 0


def cmd_trade(args, out):
    from repro.bench.reporting import format_table
    from repro.simkernel.time_units import MSEC
    from repro.trading.system import RealTimeTradingSystem

    system = RealTimeTradingSystem(
        n_seconds=args.seconds,
        seed=args.seed,
        policy=args.policy,
        load=_load_from_name(args.load),
        optional_deadline=(
            None if args.od_ms is None else args.od_ms * MSEC
        ),
    )
    report = system.run()
    summary = report.summary()
    rows = [[key, value if not isinstance(value, float) else f"{value:.2f}"]
            for key, value in summary.items()]
    print(format_table(["metric", "value"], rows,
                       title=f"trading session ({args.seconds}s)"),
          file=out)
    return 0


def cmd_figures(args, out):
    from repro.bench.reporting import format_table
    from repro.bench.traces import fig3_remaining_time_traces
    from repro.core.policies import POLICIES
    from repro.core.termination import termination_table
    from repro.hardware.xeonphi import xeon_phi_topology

    traces = fig3_remaining_time_traces()
    print("=== Figure 3: remaining execution time ===", file=out)
    for name, points in traces.items():
        rendered = " -> ".join(f"({t:.0f},{r:.0f})" for t, r in points)
        print(f"{name:10s}: {rendered}", file=out)

    print("\n=== Figure 8: 171 parts per core (C0..C56) ===", file=out)
    topology = xeon_phi_topology()
    for name, policy in POLICIES.items():
        counts = policy.occupancy(topology, 171)
        row = "".join(str(counts.get(core, 0)) for core in range(57))
        print(f"{name:12s} {row}", file=out)

    print("\n=== Table I: termination strategies ===", file=out)
    rows = [
        [name, "X" if any_time else "", "X" if mask else ""]
        for name, any_time, mask in termination_table()
    ]
    print(format_table(
        ["implementation", "any-time termination",
         "signal-mask restoration"],
        rows,
    ), file=out)
    return 0


def cmd_admit(args, out):
    from repro.bench.reporting import format_table
    from repro.core.admission import AdmissionController
    from repro.model import TaskSetGenerator

    controller = AdmissionController(n_cpus=args.cpus)
    generator = TaskSetGenerator(seed=args.seed)
    taskset = generator.extended_task_set(args.tasks,
                                          0.55 * args.cpus)
    rows = []
    for model in taskset:
        cpu, decision = controller.admit_anywhere(model,
                                                  heuristic="worst_fit")
        rows.append([
            model.name,
            f"{model.utilization:.3f}",
            "-" if cpu is None else cpu,
            decision.reason if not decision else "admitted",
        ])
    utilization_rows = [
        [cpu, f"{controller.utilization(cpu):.3f}",
         len(controller.admitted(cpu))]
        for cpu in range(args.cpus)
    ]
    print(format_table(["task", "U", "cpu", "outcome"], rows,
                       title="admission decisions (worst-fit)"),
          file=out)
    print(format_table(["cpu", "U", "tasks"], utilization_rows,
                       title="\nfinal per-CPU state"), file=out)
    return 0


def _build_workload(args):
    """Build the workload under observation; return ``(kernel, run)``.

    ``run()`` executes the workload to completion; observers must be
    subscribed to ``kernel.probes`` before calling it.
    """
    if args.workload == "trade":
        from repro.trading.system import RealTimeTradingSystem

        system = RealTimeTradingSystem(
            n_seconds=args.jobs,
            seed=args.seed,
            policy=args.policy,
            load=_load_from_name(args.load),
        )
        return system.middleware.kernel, system.run

    from repro.bench.overheads import OPTIONAL_DEADLINE, make_eval_task
    from repro.core.middleware import RTSeed

    middleware = RTSeed(load=_load_from_name(args.load), seed=args.seed)
    middleware.add_task(
        make_eval_task(args.n_parallel),
        n_jobs=args.jobs,
        cpu=0,
        policy=args.policy,
        optional_deadline=OPTIONAL_DEADLINE,
    )
    return middleware.kernel, middleware.run


def cmd_trace(args, out):
    from repro.obs import ChromeTraceExporter, FlightRecorder, JsonlExporter

    kernel, run = _build_workload(args)
    exporter = ChromeTraceExporter.attach(kernel)
    recorder = None
    if args.flight_dump:
        recorder = FlightRecorder.attach(kernel, seed=args.seed)
    jsonl_stream = None
    jsonl = None
    if args.jsonl:
        jsonl_stream = open(args.jsonl, "w")
        jsonl = JsonlExporter.attach(kernel, jsonl_stream)
    try:
        run()
    finally:
        if jsonl_stream is not None:
            jsonl_stream.close()
    exporter.write(args.out)
    print(f"wrote {len(exporter.events)} trace events to {args.out}",
          file=out)
    if jsonl is not None:
        print(f"wrote {jsonl.lines} probe events to {args.jsonl}",
              file=out)
    if recorder is not None:
        recorder.dump(args.flight_dump, "on_demand")
        print(f"wrote flight dump ({len(recorder)} events, "
              f"{recorder.dropped} dropped) to {args.flight_dump}",
              file=out)
    print("open in https://ui.perfetto.dev or chrome://tracing",
          file=out)
    return 0


def cmd_metrics(args, out):
    import json as json_module

    from repro.obs import SchedulerMetrics

    output_format = args.format or ("json" if args.json else "table")
    kernel, run = _build_workload(args)
    metrics = SchedulerMetrics.attach(kernel)
    run()
    if output_format == "json":
        print(json_module.dumps(metrics.registry.snapshot(), indent=2,
                                sort_keys=True), file=out)
    else:
        print(metrics.format(), file=out)
    return 0


def cmd_report(args, out):
    from repro.obs import (
        FlightRecorder,
        RunReport,
        SchedulerMetrics,
        WallClockProfile,
    )

    profile = WallClockProfile()
    with profile.section("report.build"):
        kernel, run = _build_workload(args)
        metrics = SchedulerMetrics.attach(kernel)
        FlightRecorder.attach(kernel, seed=args.seed)
    with profile.section("report.run"):
        run()
    report = RunReport.collect(
        kernel, metrics=metrics, profile=profile,
        include_wallclock=not args.no_wallclock,
    )
    rendered = report.to_json()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered)
        print(f"wrote run report ({len(report.sections) - 1} "
              f"sections) to {args.out}", file=out)
    else:
        out.write(rendered)
    return 0


class _FarmProgress:
    """Render ``farm.*`` lifecycle events as a per-worker status line.

    On a TTY the line is rewritten in place (``\\r``); otherwise only
    the milestone events print (start, shard completions, losses,
    retries, quarantines), keeping CI logs readable.
    """

    def __init__(self, out):
        self.out = out
        self.tty = getattr(out, "isatty", lambda: False)()
        self.sizes = []
        self.done = {}

    def _status(self):
        workers = " ".join(
            f"w{shard}:{self.done.get(shard, 0)}/{size}"
            for shard, size in enumerate(self.sizes)
        )
        total = sum(self.done.values())
        return f"farm: {workers} ({total}/{sum(self.sizes)} items)"

    def _line(self, text):
        if self.tty:
            self.out.write("\r\x1b[K")
        print(text, file=self.out)

    def __call__(self, topic, data):
        if topic == "farm.start":
            self.sizes = list(data["shard_sizes"])
            self.done = {}
            self._line(f"farm: {data['items']} item(s) across "
                       f"{data['workers']} worker(s), shard sizes "
                       f"{self.sizes}")
        elif topic == "farm.item_done":
            shard = data["shard"]
            self.done[shard] = self.done.get(shard, 0) + 1
            if self.tty:
                self.out.write("\r\x1b[K" + self._status())
                self.out.flush()
        elif topic == "farm.shard_done":
            self._line(f"farm: shard {data['shard']} done "
                       f"({self.done.get(data['shard'], 0)} item(s))")
        elif topic == "farm.worker_lost":
            self._line(f"farm: worker lost on shard {data['shard']} "
                       f"({data['reason']}, attempt {data['attempt']}, "
                       f"{data['pending']} item(s) pending)")
        elif topic == "farm.retry":
            self._line(f"farm: retrying shard {data['shard']} on a "
                       f"fresh process (attempt {data['attempt']}, "
                       f"{data['items']} item(s))")
        elif topic == "farm.quarantine":
            self._line(f"farm: QUARANTINED shard {data['shard']} "
                       f"({data['reason']}); unfinished indices "
                       f"{data['indices']}")
        elif topic == "farm.done":
            self._line(self._status())


def _farm_status(result, out):
    stats = result.stats
    print(
        f"farm: {stats['completed']}/{stats['items']} item(s), "
        f"{stats['workers']} worker(s) ({stats['start_method']}), "
        f"{stats['retries']} retr{'y' if stats['retries'] == 1 else 'ies'}, "
        f"{stats['quarantined_shards']} quarantined, "
        f"{stats['wall_seconds']}s",
        file=out,
    )


class _StopFlag:
    """SIGINT/SIGTERM latch for the serial campaign's graceful drain;
    previous handlers restored by :meth:`restore`."""

    def __init__(self):
        import signal

        self.signum = None
        self._previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            self._previous[signum] = signal.signal(signum, self._set)

    def _set(self, signum, _frame):
        self.signum = signum

    def __call__(self):
        return self.signum

    def restore(self):
        import signal

        for signum, handler in self._previous.items():
            signal.signal(signum, handler)


def _reject_bad_batch_arguments(args, out, checks):
    """Boundary validation for the batch commands: print one message
    for the first bad argument among ``checks`` (names of
    ``runs``/``workers``/``fault_rate``/``seconds``) and return true,
    so the caller exits 2 before a bad value is farmed out to fail in
    every shard."""
    rules = {
        "runs": ("--runs", lambda value: value >= 0, "must be >= 0"),
        "workers": ("--workers", lambda value: value >= 1,
                    "must be >= 1"),
        "fault_rate": ("--fault-rate",
                       lambda value: 0.0 <= value <= 1.0,
                       "must be within [0, 1]"),
        "seconds": ("--seconds", lambda value: value > 0,
                    "must be > 0"),
    }
    for name in checks:
        value = getattr(args, name)
        flag, valid, requirement = rules[name]
        if value is not None and not valid(value):
            print(f"{args.command}: {flag} {requirement}, got {value}",
                  file=out)
            return True
    return False


def cmd_faults(args, out):
    from repro.faults.campaign import (
        SCENARIOS,
        CampaignInterrupted,
        render_report,
        run_campaign,
    )

    if args.list:
        for name in sorted(SCENARIOS):
            print(f"{name:18s} {SCENARIOS[name]['description']}",
                  file=out)
        return 0
    if _reject_bad_batch_arguments(args, out, ("seconds", "workers")):
        return 2
    if args.scenario == "all":
        names = None
    else:
        names = [name.strip() for name in args.scenario.split(",")]
        unknown = [name for name in names if name not in SCENARIOS]
        if unknown:
            print(f"unknown scenario(s): {', '.join(unknown)} "
                  f"(try --list)", file=out)
            return 2
    if args.resume and args.workers > 1:
        print("--resume is for serial campaigns; farmed campaigns "
              "auto-resume from --checkpoint", file=out)
        return 2
    quarantined = False
    if args.workers > 1:
        from repro.farm import FarmInterrupted, farm_campaign

        try:
            report, farm_result = farm_campaign(
                scenarios=names, n_seconds=args.seconds, seed=args.seed,
                workers=args.workers, flight_dir=args.flight_dir,
                on_event=_FarmProgress(out),
                checkpoint_path=args.checkpoint,
                handle_signals=bool(args.checkpoint),
            )
        except FarmInterrupted as interrupt:
            print(f"faults: {interrupt}", file=out)
            return 3
        quarantined = bool(farm_result.quarantined
                           or report.get("incomplete"))
    else:
        resume_document = None
        if args.resume:
            from repro.snapshot import load_snapshot

            resume_document = load_snapshot(args.resume)
        stop = _StopFlag() if args.checkpoint else None
        try:
            report = run_campaign(
                scenarios=names, n_seconds=args.seconds,
                seed=args.seed, flight_dir=args.flight_dir,
                checkpoint_path=args.checkpoint,
                resume_from=resume_document, should_stop=stop,
            )
        except CampaignInterrupted as interrupt:
            print(f"faults: {interrupt}", file=out)
            return 3
        finally:
            if stop is not None:
                stop.restore()
    rendered = render_report(report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered)
        scenario_count = len(report["scenarios"])
        print(f"wrote {scenario_count} scenario report(s) to "
              f"{args.out}", file=out)
    else:
        out.write(rendered)
    return 2 if quarantined else 0


def cmd_check(args, out):
    from repro.check import fuzz, load_artifact, replay_artifact
    from repro.check.shrink import save_artifact

    if args.replay:
        artifact = load_artifact(args.replay)
        if args.from_snapshot:
            from repro.check.timetravel import replay_from_snapshot
            from repro.snapshot import load_snapshot

            document = load_snapshot(args.from_snapshot)
            barrier = document["barrier"]["events_processed"]
            report, _payload = replay_from_snapshot(document)
            print(f"replay {args.replay} from snapshot "
                  f"{args.from_snapshot} (restored at {barrier} "
                  f"events): {report.summary()}", file=out)
        else:
            report = replay_artifact(artifact)
            print(f"replay {args.replay}: {report.summary()}",
                  file=out)
        expected = set(artifact["failure_kinds"])
        got = set(report.failure_kinds())
        if expected and not (expected & got):
            print(f"DID NOT REPRODUCE (expected {sorted(expected)}, "
                  f"got {sorted(got)})", file=out)
            return 1
        return 0

    if _reject_bad_batch_arguments(args, out,
                                   ("runs", "workers", "fault_rate")):
        return 2
    quarantined = False
    if args.workers is not None or args.out or args.checkpoint:
        from repro.farm import FarmInterrupted, farm_check, \
            render_check_report

        try:
            document, farm_result = farm_check(
                args.runs,
                seed=args.seed,
                fault_rate=args.fault_rate,
                shrink=args.shrink,
                max_failures=args.max_failures,
                workers=args.workers or 1,
                checkpoint_path=args.checkpoint,
                handle_signals=bool(args.checkpoint),
            )
        except FarmInterrupted as interrupt:
            print(f"check: {interrupt}", file=out)
            return 3
        quarantined = bool(farm_result.quarantined)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(render_check_report(document))
            print(f"wrote farm report to {args.out}", file=out)
        result = {
            "runs": document["completed_runs"],
            "differential_runs": document["differential_runs"],
            "failures": document["failures"],
        }
    else:
        def progress(seed, payload):
            if not payload["ok"]:
                print(f"seed {seed}: FAIL — {payload['summary']}",
                      file=out)

        result = fuzz(
            args.runs,
            seed=args.seed,
            fault_rate=args.fault_rate,
            shrink=args.shrink,
            max_failures=args.max_failures,
            on_progress=progress,
        )
    failures = result["failures"]
    if args.artifacts and failures:
        import os

        from repro.check.timetravel import divergence_snapshot
        from repro.snapshot import write_snapshot

        os.makedirs(args.artifacts, exist_ok=True)
        for artifact in failures:
            path = os.path.join(args.artifacts,
                                f"repro-seed{artifact['seed']}.json")
            save_artifact(path, artifact)
            print(f"wrote {path}", file=out)
            snapshot_path = os.path.join(
                args.artifacts,
                f"repro-seed{artifact['seed']}-snapshot.json",
            )
            document, info = divergence_snapshot(artifact)
            write_snapshot(snapshot_path, document)
            print(f"wrote {snapshot_path} (barrier {info['barrier']}/"
                  f"{info['total_events']} events, "
                  f"{info['barrier_source']})", file=out)
    print(
        f"{result['runs']} runs from seed {args.seed}: "
        f"{result['differential_runs']} differential, "
        f"{len(failures)} failure(s)",
        file=out,
    )
    if quarantined:
        return 2
    return 1 if failures else 0


def _cmd_farm_status(args, out):
    """``repro farm status``: inspect checkpoints without running.

    A missing or checkpoint-free location reports "no checkpoints" and
    exits 0 — status is a question, not an assertion.
    """
    from repro.farm import inspect_checkpoint, inspect_checkpoint_dir

    if args.checkpoint:
        summaries = [s for s in [inspect_checkpoint(args.checkpoint)]
                     if s is not None]
        where = args.checkpoint
    else:
        summaries = inspect_checkpoint_dir(args.checkpoint_dir)
        where = args.checkpoint_dir
    if not summaries:
        print(f"no checkpoints in {where}", file=out)
        return 0
    for summary in summaries:
        meta = summary["meta"] or {}
        what = meta.get("what", "?")
        detail = " ".join(
            f"{key}={meta[key]}" for key in sorted(meta)
            if key != "what"
        )
        torn = " (torn tail)" if summary["torn_tail"] else ""
        print(f"{summary['path']}: {what} "
              f"{summary['completed']} item(s) completed{torn}"
              + (f" [{detail}]" if detail else ""), file=out)
    return 0


def cmd_farm(args, out):
    from repro.farm import (
        DEFAULT_HEARTBEAT,
        FarmInterrupted,
        farm_campaign,
        farm_check,
        render_check_report,
    )

    if args.action == "status":
        return _cmd_farm_status(args, out)
    checks = ("workers", "seconds") if args.what == "faults" \
        else ("workers", "runs", "fault_rate")
    if _reject_bad_batch_arguments(args, out, checks):
        return 2

    progress = _FarmProgress(out)
    heartbeat = (DEFAULT_HEARTBEAT if args.heartbeat is None
                 else args.heartbeat)
    handle_signals = bool(args.checkpoint)
    try:
        if args.what == "faults":
            from repro.faults.campaign import SCENARIOS, render_report

            names = None
            if args.scenario != "all":
                names = [name.strip()
                         for name in args.scenario.split(",")]
                unknown = [name for name in names
                           if name not in SCENARIOS]
                if unknown:
                    print(f"unknown scenario(s): {', '.join(unknown)}",
                          file=out)
                    return 2
            document, farm_result = farm_campaign(
                scenarios=names, n_seconds=args.seconds,
                seed=args.seed, workers=args.workers,
                heartbeat=heartbeat, flight_dir=args.flight_dir,
                on_event=progress, checkpoint_path=args.checkpoint,
                handle_signals=handle_signals,
            )
            rendered = render_report(document)
            failed = bool(document.get("incomplete"))
        else:
            document, farm_result = farm_check(
                args.runs, seed=args.seed, fault_rate=args.fault_rate,
                workers=args.workers, heartbeat=heartbeat,
                flight_dir=args.flight_dir, on_event=progress,
                checkpoint_path=args.checkpoint,
                handle_signals=handle_signals,
            )
            rendered = render_check_report(document)
            failed = bool(document["total_failures"]
                          or document["errors"])
    except FarmInterrupted as interrupt:
        print(f"farm: {interrupt}", file=out)
        return 3
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered)
        print(f"wrote merged report to {args.out}", file=out)
    _farm_status(farm_result, out)
    if farm_result.quarantined:
        return 2
    return 1 if failed else 0


def cmd_scale(args, out):
    from repro.farm import DEFAULT_HEARTBEAT, FarmInterrupted
    from repro.hardware.xeonphi import XEON_PHI_3120A
    from repro.scale import check_task_count, failure_summary, \
        farm_scale, farm_scale_sweep, render_scale_report

    try:
        spec = XEON_PHI_3120A.subset(args.cores, args.threads_per_core)
        if args.what == "campaign":
            check_task_count(args.tasks, spec.n_cores)
    except ValueError as error:
        print(f"scale: {error}", file=out)
        return 2
    checkpoint = args.resume or args.checkpoint
    progress = _FarmProgress(out)
    heartbeat = (DEFAULT_HEARTBEAT if args.heartbeat is None
                 else args.heartbeat)
    try:
        if args.what == "sweep":
            document, farm_result = farm_scale_sweep(
                quick=args.quick, seed=args.seed,
                workers=args.workers, heartbeat=heartbeat,
                flight_dir=args.flight_dir, on_event=progress,
                checkpoint_path=checkpoint,
                handle_signals=bool(checkpoint),
            )
            failed = bool(document["errors"])
        else:
            document, farm_result = farm_scale(
                n_cores=spec.n_cores,
                threads_per_core=spec.threads_per_core,
                n_tasks=args.tasks,
                seed=args.seed,
                utilization=args.utilization,
                horizon_periods=args.horizon_periods,
                workers=args.workers,
                heartbeat=heartbeat,
                flight_dir=args.flight_dir,
                on_event=progress,
                checkpoint_path=checkpoint,
                handle_signals=bool(checkpoint),
            )
            failed = bool(document["totals"]["violations"]
                          or document["total_crashes"]
                          or document["errors"])
    except FarmInterrupted as interrupt:
        print(f"scale: {interrupt}", file=out)
        return 3
    rendered = render_scale_report(document)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered)
        print(f"wrote merged report to {args.out}", file=out)
    else:
        out.write(rendered)
    _farm_status(farm_result, out)
    if args.what == "campaign":
        for line in failure_summary(document):
            print(f"scale: {line}", file=out)
        totals = document["totals"]
        wall = farm_result.stats.get("wall_seconds") or 0
        throughput = (f"{totals['jobs_done'] / wall * 60.0:,.0f} "
                      f"jobs/minute" if wall else "n/a")
        print(
            f"scale: {spec.n_cores}c x {spec.threads_per_core}t, "
            f"{totals['tasks']} task(s), {totals['jobs_done']} job(s) "
            f"in {totals['events']} kernel events — {throughput}",
            file=out,
        )
    if farm_result.quarantined:
        return 2
    return 1 if failed else 0


def _snapshot_spec(args, out):
    """Program spec from ``repro snapshot`` arguments (or ``None`` +
    error message on stderr-equivalent ``out``)."""
    if args.program == "overheads":
        return {"kind": "overheads", "np": args.n_parallel,
                "jobs": args.jobs, "policy": args.policy,
                "load": args.load.upper(), "seed": args.seed}
    if args.program == "trade":
        return {"kind": "trade", "seconds": args.seconds,
                "policy": args.policy, "load": args.load.upper(),
                "seed": args.seed}
    if args.program == "faults":
        from repro.faults.campaign import SCENARIOS

        if args.scenario not in SCENARIOS:
            print(f"unknown scenario {args.scenario!r}; valid: "
                  f"{sorted(SCENARIOS)}", file=out)
            return None
        return {"kind": "faults", "scenario": args.scenario,
                "seconds": args.seconds, "seed": args.seed}
    if args.artifact is None:
        print("--program check needs --artifact FILE (a repro "
              "artifact supplying the scenario)", file=out)
        return None
    from repro.check.shrink import load_artifact
    from repro.check.timetravel import artifact_check_spec

    return artifact_check_spec(load_artifact(args.artifact))


def cmd_snapshot(args, out):
    import json as json_module

    from repro.snapshot import (
        SnapshotError,
        build_program,
        inspect_snapshot,
        load_snapshot,
        resume_to_end,
        write_snapshot,
    )
    from repro.snapshot import snapshot as take_snapshot

    def emit_payload(payload):
        rendered = json_module.dumps(payload, indent=2,
                                     sort_keys=True) + "\n"
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(rendered)
            print(f"wrote payload to {args.out}", file=out)
        else:
            out.write(rendered)

    try:
        if args.action == "inspect":
            if not args.snapshot:
                print("inspect needs --snapshot FILE", file=out)
                return 2
            summary = inspect_snapshot(load_snapshot(args.snapshot))
            out.write(json_module.dumps(summary, indent=2,
                                        sort_keys=True) + "\n")
            return 0
        if args.action == "resume":
            if not args.snapshot:
                print("resume needs --snapshot FILE", file=out)
                return 2
            document = load_snapshot(args.snapshot)
            payload = resume_to_end(document)
            emit_payload(payload)
            return 0

        spec = _snapshot_spec(args, out)
        if spec is None:
            return 2
        run = build_program(spec).start()
        if args.action == "dump":
            if args.at_events is None or not args.snapshot:
                print("dump needs --at-events N and --snapshot FILE",
                      file=out)
                return 2
            document = take_snapshot(run, at_events=args.at_events)
            write_snapshot(args.snapshot, document)
            print(f"wrote snapshot of {spec['kind']} at "
                  f"{args.at_events} events to {args.snapshot}",
                  file=out)
            return 0
        emit_payload(run.finish())
        return 0
    except SnapshotError as error:
        print(f"snapshot: {error}", file=out)
        return 2


_COMMANDS = {
    "overheads": cmd_overheads,
    "sweep": cmd_sweep,
    "trade": cmd_trade,
    "figures": cmd_figures,
    "admit": cmd_admit,
    "trace": cmd_trace,
    "metrics": cmd_metrics,
    "report": cmd_report,
    "faults": cmd_faults,
    "check": cmd_check,
    "farm": cmd_farm,
    "scale": cmd_scale,
    "snapshot": cmd_snapshot,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RT-Seed reproduction: middleware for semi-fixed-"
                    "priority scheduling (MIDDLEWARE 2014)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_overheads_parser(subparsers)
    _add_sweep_parser(subparsers)
    _add_trade_parser(subparsers)
    _add_figures_parser(subparsers)
    _add_admit_parser(subparsers)
    _add_trace_parser(subparsers)
    _add_metrics_parser(subparsers)
    _add_report_parser(subparsers)
    _add_faults_parser(subparsers)
    _add_check_parser(subparsers)
    _add_farm_parser(subparsers)
    _add_scale_parser(subparsers)
    _add_snapshot_parser(subparsers)
    return parser


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out)


if __name__ == "__main__":
    sys.exit(main())
