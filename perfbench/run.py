"""RT-Seed end-to-end and per-layer benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload scale --seed 1 --seconds 30 --trace 0

``--trace 0`` times the program's own batch entry points and reports the
end-to-end metrics; ``--trace 1`` runs the layer-by-layer pipeline and
reports the per-layer metrics.  ``--workload all`` runs every workload in
both modes, each in a fresh process.  ``--record-digests`` stores the
outcome digest of the given seed in ``perfbench/digests.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every output was correct: every pass reproduced the same
outcome digest, it matched the digest recorded for the seed (if any), and
no item failed (attaching the passive bus counter raises inside the item
if it would activate a bus, which fails that item).
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import workloads
from layers import (
    PROFILE_PACKAGES,
    TOPIC_FAMILIES,
    ItemTimer,
    Tracer,
    profile_shares,
)

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")

#: Fresh-process set-up measurements per run (median reported).
SETUP_SAMPLES = 5

#: ``(name, unit, better)`` of every end-to-end metric (``--trace 0``).
END_TO_END = (
    ("sim_jobs_per_min", "jobs/min", "higher"),
    ("item_ms_p50", "ms", "lower"),
    ("item_ms_tail", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Span names: busy time per pass (``<span>_ms``) and share of the
#: traced wall (``<span>_share``).  ``farm.overhead`` is the farm's own
#: time (pass wall minus item times); the others time one layer call.
SPANS = (
    "scenario.gen", "core.build", "core.run",
    "check.oracles.kernel_trace", "check.oracles.protocol",
    "check.oracles.final_state", "sched.simulator",
    "check.differential.normalize", "check.differential.compare",
    "obs.report.collect", "scale.merge", "farm.merge", "faults.merge",
    "farm.overhead",
)


def _per_layer_spec():
    spec = []
    for span in SPANS:
        spec.append((f"{span}_ms", "ms", "lower"))
        spec.append((f"{span}_share", "share", "lower"))
    spec += [
        ("trace.wall_ms", "ms", "lower"),
        ("trace.unspanned_ms", "ms", "lower"),
        ("trace.unspanned_share", "share", "lower"),
        ("trace_overhead_pct", "%", "lower"),
        ("fail_ratio", "ratio", "lower"),
        ("sim.jobs", "count", "higher"),
        ("core.run_us_per_event", "us/event", "lower"),
        ("engine.events", "count", "lower"),
        ("engine.events_per_job", "events/job", "lower"),
        ("engine.scheduled", "count", "lower"),
        ("engine.cancelled", "count", "lower"),
        ("engine.compactions", "count", "lower"),
        ("engine.peak_heap", "count", "lower"),
        ("obs.published", "count", "lower"),
        ("obs.recorded", "count", "lower"),
        ("obs.record_ratio", "ratio", "higher"),
    ]
    spec += [(f"obs.published.{family}", "count", "lower")
             for family in TOPIC_FAMILIES]
    spec += [
        ("sched.simulator_events", "count", "lower"),
        ("faults.setup_ms", "ms", "lower"),
        ("faults.run_ms", "ms", "lower"),
        ("faults.injected", "count", "higher"),
        ("resilience.watchdog_fires", "count", "lower"),
        ("resilience.degrade_episodes", "count", "lower"),
    ]
    spec += [(f"self_share.{package}", "share", "lower")
             for package in PROFILE_PACKAGES + ("other",)]
    return tuple(spec)


#: ``(name, unit, better)`` of every per-layer metric (``--trace 1``).
PER_LAYER = _per_layer_spec()


def load_digests():
    with open(DIGESTS) as handle:
        return json.load(handle)


def percentile(values, q):
    """Nearest-rank ``q``-th percentile and the samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _probe_setup(workload, seed):
    output = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
         str(seed)],
        check=True, capture_output=True, text=True, timeout=120,
    ).stdout
    return float(output.split()[-1])


class Outcome:
    """Tally of every pass a run made: items attempted/failed and the
    digests seen."""

    def __init__(self, workload, expected):
        self.workload = workload
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.digests = set()
        self.problems = []

    def judge(self, document, n_items):
        digest = workloads.outcome_digest(document)
        self.attempted += n_items
        bad = self.workload.failed(document)
        if self.digests and digest not in self.digests:
            self.problems.append(f"digest {digest} differs from "
                                 f"{sorted(self.digests)}")
            bad = n_items
        elif self.expected is not None and digest != self.expected:
            self.problems.append(f"digest {digest} != recorded "
                                 f"{self.expected}")
            bad = n_items
        self.digests.add(digest)
        self.failed += min(n_items, bad)
        return digest

    @property
    def correct(self):
        return not self.problems and self.failed == 0


def _passes(deadline, min_passes, one_pass):
    """Closed loop: run ``one_pass()`` back to back until another pass
    would end after ``deadline`` (but at least ``min_passes`` times)."""
    results = []
    walls = []
    while (len(results) < min_passes
           or time.perf_counter() + statistics.median(walls) <= deadline):
        began = time.perf_counter()
        results.append(one_pass())
        walls.append(time.perf_counter() - began)
    return results


def measure(workload, seconds, outcome):
    """``--trace 0``: the end-to-end metrics.  The set-up samples count
    against ``seconds``."""
    deadline = time.perf_counter() + seconds
    setup = statistics.median(
        _probe_setup(workload.name, workload.seed)
        for _ in range(SETUP_SAMPLES))
    items = workload.items()

    def one_pass():
        timer = ItemTimer()
        began = time.perf_counter()
        document, _rendered = workload.run(items, timer)
        wall = time.perf_counter() - began
        outcome.judge(document, len(items))
        return document, wall, timer.durations

    passes = _passes(deadline, workload.min_passes, one_pass)
    jobs = workload.jobs(passes[0][0])
    durations = [d * 1e3 for _doc, _wall, ds in passes for d in ds]
    tail, beyond = percentile(durations, workload.tail_percentile)
    if beyond < 10:
        outcome.problems.append(
            f"only {beyond} item samples beyond "
            f"p{workload.tail_percentile}")
    return {
        # every pass simulates the same jobs (the digests agree), so
        # this is their total over the total host time of all passes
        "sim_jobs_per_min": jobs * len(passes) * 60.0 / sum(
            wall for _doc, wall, _ds in passes),
        "item_ms_p50": statistics.median(durations),
        "item_ms_tail": tail,
        "setup_s": setup,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(workload, seconds, outcome):
    """``--trace 1``: the per-layer metrics.  The untraced pass (for
    ``trace_overhead_pct``) and the cProfile pass run first; traced
    passes fill the rest of ``seconds``."""
    deadline = time.perf_counter() + seconds
    items = workload.items()

    timer = ItemTimer()
    began = time.perf_counter()
    untraced_document, _rendered = workload.run(items, timer)
    untraced_wall = time.perf_counter() - began
    outcome.judge(untraced_document, len(items))
    shares = profile_shares(workload.profile_pass)

    def one_pass():
        tracer = Tracer()
        timer = ItemTimer()
        began = time.perf_counter()
        document, _rendered = workload.traced(items, tracer, timer)
        wall = time.perf_counter() - began
        outcome.judge(document, len(items))
        unknown = set(tracer.busy) - set(SPANS)
        if unknown:
            raise KeyError(f"spans missing from SPANS: {sorted(unknown)}")
        return document, wall, timer.durations, tracer

    passes = sorted(_passes(deadline, 1, one_pass), key=lambda p: p[1])
    document, wall, durations, tracer = passes[(len(passes) - 1) // 2]

    busy = dict(tracer.busy)
    busy["farm.overhead"] = (wall - sum(durations)
                             - sum(busy.get(name, 0.0) for name in
                                   ("scale.merge", "farm.merge",
                                    "faults.merge")))
    counts = tracer.counts
    jobs = workload.jobs(document)
    events = counts.get("engine.events", 0)
    published = tracer.bus.published
    recorded = counts.get("obs.recorded", 0)
    spanned = sum(busy.get(span, 0.0) for span in SPANS)
    metrics = {}
    for span in SPANS:
        metrics[f"{span}_ms"] = busy.get(span, 0.0) * 1e3
        metrics[f"{span}_share"] = busy.get(span, 0.0) / wall
    metrics.update({
        "trace.wall_ms": wall * 1e3,
        "trace.unspanned_ms": (wall - spanned) * 1e3,
        "trace.unspanned_share": (wall - spanned) / wall,
        "trace_overhead_pct": (wall / untraced_wall - 1.0) * 100.0,
        "fail_ratio": outcome.failed / outcome.attempted,
        "sim.jobs": jobs,
        "core.run_us_per_event":
            busy.get("core.run", 0.0) * 1e6 / events if events else 0.0,
        "engine.events_per_job": events / jobs if jobs else 0.0,
        "obs.published": published,
        "obs.recorded": recorded,
        "obs.record_ratio": recorded / published if published else 0.0,
        "faults.setup_ms": counts.get("faults.setup", 0.0) * 1e3,
        "faults.run_ms": counts.get("faults.run", 0.0) * 1e3,
    })
    for name in ("engine.events", "engine.scheduled", "engine.cancelled",
                 "engine.compactions", "engine.peak_heap",
                 "sched.simulator_events", "faults.injected",
                 "resilience.watchdog_fires",
                 "resilience.degrade_episodes"):
        metrics[name] = counts.get(name, 0)
    families = tracer.bus.counts
    for family, count in families.items():
        metrics[f"obs.published.{family}"] = count
    if sum(families.values()) != published:
        outcome.problems.append(
            f"family counts {families} do not sum to "
            f"obs.published={published}: the counter missed events")
    if workload.named_families_only and families["other"]:
        outcome.problems.append(
            f"{families['other']} published events outside the named "
            f"families: {', '.join(tracer.bus.stray_topics)}")
    if workload.idle_bus and published != 0:
        outcome.problems.append(
            f"{workload.name} must not publish, published={published}")
    for package, share in shares.items():
        metrics[f"self_share.{package}"] = share
    return metrics


def run_workload(name, seed, seconds, trace_mode):
    """One workload, one mode; returns ``(result, problems)``."""
    workload = workloads.WORKLOADS[name](seed)
    workloads.import_modules(workload)
    expected = load_digests().get(name, {}).get(str(seed))
    outcome = Outcome(workload, expected)
    if trace_mode:
        values = trace(workload, seconds, outcome)
        spec = PER_LAYER
    else:
        values = measure(workload, seconds, outcome)
        spec = END_TO_END
    metrics = {metric: {"value": values[metric], "unit": unit}
               for metric, unit, _better in spec}
    result = {"correct": outcome.correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    return result, outcome.problems


def _print_table(title, result):
    print(f"== {title}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:36s} {entry['value']:>16.6g} {entry['unit']}")


def _run_all(args):
    """Every workload, both modes, each in a fresh process (so
    ``peak_rss_mb`` and ``setup_s`` are per workload)."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for name in workloads.WORKLOADS:
        for mode in (0, 1):
            completed = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(mode)],
                capture_output=True, text=True, timeout=600)
            lines = completed.stdout.strip().splitlines() or [""]
            print("\n".join(lines[:-1]))
            sys.stderr.write(completed.stderr)
            try:
                result = json.loads(lines[-1])
            except ValueError:
                combined["correct"] = False
                continue
            combined["correct"] &= (result["correct"]
                                    and completed.returncode == 0)
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined, sort_keys=True))
    return 0 if combined["correct"] else 1


def _record_digest(name, seed):
    workload = workloads.WORKLOADS[name](seed)
    document, _rendered = workload.run(workload.items(), None)
    digests = load_digests()
    digests.setdefault(name, {})[str(seed)] = \
        workloads.outcome_digest(document)
    with open(DIGESTS, "w") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"{name} seed {seed}: {digests[name][str(seed)]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this seed's outcome digest")
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro is "
              "missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.workload == "all":
        return _run_all(args)
    if args.record_digests:
        _record_digest(args.workload, args.seed)
        return 0
    result, problems = run_workload(args.workload, args.seed,
                                    args.seconds, args.trace)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    _print_table(f"{args.workload} seed={args.seed} trace={args.trace}",
                 result)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
