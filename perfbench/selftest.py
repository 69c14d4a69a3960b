"""Self-tests of the benchmark itself (not of the program).

Run from the repository root::

    python3 perfbench/selftest.py
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from layers import (  # noqa: E402
    BusAccountingError,
    FamilyCounter,
    ItemTimer,
    Tracer,
)
from repro.obs.bus import ProbeBus  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        spec = _spec()
        names = []
        for section in ("end_to_end", "per_layer"):
            for metric in spec[section]:
                self.assertRegex(metric["name"], NAME)
                self.assertRegex(metric["unit"], UNIT)
                self.assertIn(metric["better"], ("higher", "lower"))
                names.append(metric["name"])
        self.assertEqual(len(names), len(set(names)))

    def test_spec_matches_what_the_benchmark_emits(self):
        spec = _spec()
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))


class FailureAccounting(unittest.TestCase):
    def test_errored_items_count_in_fail_ratio(self):
        # more than 49 tasks on one core exhausts the RT priority band:
        # every shard fails with PriorityBandError
        workload = workloads.Scale(0, n_cores=2, n_tasks=2 * 50)
        items = workload.items()
        document, _rendered = workload.run(items, None)
        outcome = run.Outcome(workload, expected=None)
        outcome.judge(document, len(items))
        self.assertEqual((outcome.attempted, outcome.failed), (2, 2))
        self.assertFalse(outcome.correct)
        self.assertIn("PriorityBandError", document["errors"][0]["error"])

    def test_digest_mismatch_fails_every_item(self):
        workload = workloads.Check(0, n_runs=3)
        items = workload.items()
        document, _rendered = workload.run(items, None)
        outcome = run.Outcome(workload, expected="0" * 64)
        outcome.judge(document, len(items))
        self.assertEqual(outcome.failed, 3)
        self.assertFalse(outcome.correct)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        value, beyond = run.percentile(list(range(114)), 90)
        self.assertEqual((value, beyond), (102, 11))
        _value, beyond = run.percentile(list(range(4000)), 99.75)
        self.assertEqual(beyond, 10)


class BusAccounting(unittest.TestCase):
    def test_passive_counter_leaves_an_idle_bus_idle(self):
        bus = ProbeBus()
        counter = FamilyCounter()
        with counter.observe(bus):
            self.assertFalse(bus.active)
            bus.publish("kernel.switch")
        self.assertEqual(counter.published, 1)
        self.assertEqual(bus.published, 1)

    def test_flipping_bus_active_raises(self):
        class ActivatingBus(ProbeBus):
            __slots__ = ()

            def subscribe(self, fn, topics=None, passive=False):
                return super().subscribe(fn, topics)

        with self.assertRaises(BusAccountingError):
            with FamilyCounter().observe(ActivatingBus()):
                pass

    def test_topics_outside_the_named_families_are_named(self):
        bus = ProbeBus()
        bus.subscribe(lambda *_event: None)
        counter = FamilyCounter()
        with counter.observe(bus):
            bus.publish("kernel.switch")
            bus.publish("sim.release")
            bus.publish("degrade.enter")
        counter.add("sim.job_done", 2)
        self.assertEqual(counter.published, 5)
        self.assertEqual(counter.counts["sched"], 3)
        self.assertEqual(counter.counts["other"], 1)
        self.assertEqual(counter.stray_topics, ["degrade.enter"])


class Digests(unittest.TestCase):
    def test_digest_stable_across_two_runs(self):
        workload = workloads.Check(3, n_runs=4)
        items = workload.items()
        first = workloads.outcome_digest(workload.run(items, None)[0])
        second = workloads.outcome_digest(workload.run(items, None)[0])
        self.assertEqual(first, second)

    def test_traced_pipeline_reproduces_untraced_digest(self):
        cases = [
            (workloads.Scale(5, n_cores=2, n_tasks=70), None),
            (workloads.Check(5, n_runs=6), None),
            (workloads.FigSweep(5), slice(0, 72, 24)),
            (workloads.Faults(5), slice(0, 8, 3)),
        ]
        for workload, subset in cases:
            with self.subTest(workload=workload.name):
                items = workload.items()
                if subset is not None:
                    items = items[subset]
                untraced, _ = workload.run(items, None)
                tracer = Tracer()
                timer = ItemTimer()
                traced, _ = workload.traced(items, tracer, timer)
                self.assertEqual(workloads.outcome_digest(traced),
                                 workloads.outcome_digest(untraced))
                self.assertEqual(len(timer.durations), len(items))
                self.assertLessEqual(set(tracer.busy), set(run.SPANS))
                self.assertEqual(sum(tracer.bus.counts.values()),
                                 tracer.bus.published)
                if workload.named_families_only:
                    self.assertEqual(tracer.bus.stray_topics, [])
                if workload.idle_bus:
                    self.assertEqual(tracer.bus.published, 0)
                else:
                    self.assertGreater(tracer.bus.published, 0)

    def test_telemetry_is_outside_the_digest(self):
        document = {"totals": {"events": 5, "jobs": 3},
                    "run_report": {"x": 1}, "engine": "fast",
                    "events": {"fault.cpu_stall": 2}}
        changed = {"totals": {"events": 9, "jobs": 3},
                   "run_report": {"x": 2}, "engine": "reference",
                   "events": {"fault.cpu_stall": 2}}
        self.assertEqual(workloads.outcome_digest(document),
                         workloads.outcome_digest(changed))
        changed["events"]["fault.cpu_stall"] = 3
        self.assertNotEqual(workloads.outcome_digest(document),
                            workloads.outcome_digest(changed))


if __name__ == "__main__":
    unittest.main()
