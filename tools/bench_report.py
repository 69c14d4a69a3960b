"""Render the engine trajectory and watch for regressions.

Reads the committed ``BENCH_engine.json`` history (append-only, one
entry per PR — see ``benchmarks/bench_engine_perf.py``) and prints a
per-lineage table with a sparkline of the ``fig10_mandatory`` wall
time per simulated job.  Any entry more than 10% slower per job than
its predecessor in the same lineage is flagged and fails the run.

Lineages follow the ``engine`` tag.  While two engine backends existed
each PR recorded a ``reference`` and a ``fast`` entry; the backends
were then merged into one engine built from the ``fast`` structures,
and new entries are tagged ``default``.  A ``default`` entry recorded
after the first ``fast`` one therefore continues the ``fast`` lineage
and is gated against the newest ``fast`` entry; the ``default``
entries from before the backends existed keep their own lineage.

The gate is on wall time for a fixed output (one simulated fig10 job),
not on events/sec: a change that simulates the same jobs with fewer
kernel events can lower events/sec while making every run faster, and
one that adds events can raise it while making runs slower.  Entries
recorded before the per-job field existed derive it as
``events / events_per_sec_median / n_jobs``; events/sec stays on
display as a secondary column.

Optionally cross-checks a ``repro report`` document (``--report``):
the run report's engine counters are summarized next to the
trajectory, tying "what the engine did" to "how fast it went".

Usage::

    PYTHONPATH=src python tools/bench_report.py [--bench BENCH_engine.json]
        [--report report.json] [--tolerance 0.10]
"""

import argparse
import json
import sys

#: Largest allowed slowdown per simulated job versus the predecessor
#: entry (the same 10% ``engine_bench_smoke.REGRESSION_TOLERANCE``
#: allows against the parent commit).
REGRESSION_TOLERANCE = 0.10

_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def sparkline(values):
    """Map ``values`` onto block glyphs (min→``▁``, max→``█``)."""
    if not values:
        return ""
    low, high = min(values), max(values)
    if high == low:
        return _SPARK_GLYPHS[-1] * len(values)
    span = high - low
    glyphs = []
    for value in values:
        index = int((value - low) / span * (len(_SPARK_GLYPHS) - 1))
        glyphs.append(_SPARK_GLYPHS[index])
    return "".join(glyphs)


def trajectory_by_engine(history):
    """Group history entries per lineage, preserving append order (a
    ``default`` entry after the first ``fast`` one joins ``fast``)."""
    by_engine = {}
    for entry in history:
        engine = entry.get("engine", "default")
        if engine == "default" and "fast" in by_engine:
            engine = "fast"
        by_engine.setdefault(engine, []).append(entry)
    return by_engine


def wall_ms_per_job(entry):
    """Median wall milliseconds per simulated fig10 job of ``entry``
    (recorded, or derived from events/sec for older entries)."""
    fig10 = entry["fig10_mandatory"]
    if "wall_ms_per_job" in fig10:
        return fig10["wall_ms_per_job"]
    return (fig10["events"] / fig10["events_per_sec_median"]
            / entry["n_jobs"] * 1000.0)


def find_regressions(entries, tolerance=REGRESSION_TOLERANCE):
    """Entries more than ``tolerance`` slower per job than their
    predecessor, as ``(entry, previous, slowdown)`` tuples."""
    regressions = []
    for previous, entry in zip(entries, entries[1:]):
        slowdown = wall_ms_per_job(entry) / wall_ms_per_job(previous) - 1.0
        if slowdown > tolerance:
            regressions.append((entry, previous, slowdown))
    return regressions


def render_trajectory(bench, tolerance=REGRESSION_TOLERANCE, out=None):
    """Print the trajectory; return the list of regressions found."""
    out = out if out is not None else sys.stdout
    history = bench.get("history", [])
    all_regressions = []
    for engine, entries in sorted(trajectory_by_engine(history).items()):
        walls = [wall_ms_per_job(entry) for entry in entries]
        regressions = find_regressions(entries, tolerance)
        flagged = {id(entry) for entry, _previous, _drop in regressions}
        print(f"\n{engine} — fig10_mandatory wall ms per job "
              f"{sparkline(walls)}", file=out)
        print(f"  {'pr':24s} {'ms/job':>8s} {'delta':>8s} "
              f"{'ev/s median':>12s}", file=out)
        previous_wall = None
        for entry, wall in zip(entries, walls):
            if previous_wall is None:
                delta = "-"
            else:
                delta = f"{(wall / previous_wall - 1.0) * 100:+.1f}%"
            marker = "  << REGRESSION" if id(entry) in flagged else ""
            rate = entry["fig10_mandatory"]["events_per_sec_median"]
            print(f"  {entry['pr']:24s} {wall:>8.2f} {delta:>8s} "
                  f"{rate:>12,.1f}{marker}", file=out)
            previous_wall = wall
        all_regressions.extend(regressions)
    return all_regressions


def render_run_report(report, out=None):
    """Summarize a ``rtseed-run-report/1`` document's engine section."""
    out = out if out is not None else sys.stdout
    engine = report.get("engine", {})
    counters = engine.get("counters", {})
    print(f"\nrun report: now={engine.get('now', '?')}", file=out)
    for key in ("events_processed", "events_scheduled",
                "events_cancelled", "peak_heap_size", "compactions",
                "compacted_swept"):
        if key in counters:
            print(f"  {key:20s} {counters[key]:>12,}", file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", default="BENCH_engine.json")
    parser.add_argument("--report", default=None,
                        help="also summarize a `repro report` JSON")
    parser.add_argument("--tolerance", type=float,
                        default=REGRESSION_TOLERANCE,
                        help="flag per-job slowdowns larger than this "
                             "fraction (default 0.10)")
    args = parser.parse_args(argv)

    with open(args.bench) as handle:
        bench = json.load(handle)
    regressions = render_trajectory(bench, tolerance=args.tolerance)
    if args.report:
        with open(args.report) as handle:
            render_run_report(json.load(handle))
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.tolerance:.0%}:")
        for entry, previous, slowdown in regressions:
            print(f"  {entry['engine']}: {previous['pr']} -> "
                  f"{entry['pr']} {slowdown:.1%} slower per job")
        return 1
    print("\ntrajectory OK: no entry more than "
          f"{args.tolerance:.0%} slower per job than its predecessor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
