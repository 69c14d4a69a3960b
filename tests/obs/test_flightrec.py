"""Tests for the flight recorder: passive cost, ring, dumps, wiring."""

import json

import pytest

from repro.core.middleware import RTSeed
from repro.obs.bus import PROBE_SITES, ProbeBus
from repro.obs.flightrec import (
    AUTO_DUMP_TOPICS,
    DEFAULT_CAPACITY,
    FLIGHTREC_SCHEMA,
    FlightRecorder,
    is_flight_topic,
    kernel_state_summary,
)

pytestmark = pytest.mark.tier1


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now


def make_recorder(capacity=4, **kwargs):
    """Recorder on a bare bus (no kernel)."""
    bus = ProbeBus(clock=FakeClock())
    recorder = FlightRecorder(capacity=capacity, **kwargs)
    bus.subscribe(recorder._on_event, passive=True)
    bus.flight = recorder
    recorder._bus = bus
    return bus, recorder


def test_passive_subscription_keeps_bus_inactive():
    bus, recorder = make_recorder()
    assert not bus.active  # probe sites will skip payload construction
    # direct publishes still fan out (guarding is the call site's job)
    bus.publish("kernel.dispatch", thread="t")
    assert recorder.recorded == 1
    assert not bus.active


def test_recorder_rides_along_once_bus_activates():
    bus, recorder = make_recorder()
    seen = []
    fn = bus.subscribe(lambda topic, time, data: seen.append(topic))
    assert bus.active
    bus.publish("kernel.dispatch", thread="t")
    assert recorder.recorded == 1
    bus.unsubscribe(fn)
    assert not bus.active  # only the passive recorder remains


def test_ring_caps_and_counts_dropped():
    bus, recorder = make_recorder(capacity=3)
    bus.subscribe(lambda topic, time, data: None)
    for index in range(5):
        bus.publish("kernel.dispatch", index=index)
    assert len(recorder) == 3
    assert recorder.recorded == 5
    assert recorder.dropped == 2
    assert [e["data"]["index"] for e in recorder.events()] == [2, 3, 4]


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_snapshot_header_fields():
    bus, recorder = make_recorder(capacity=2, seed=7)
    bus.subscribe(lambda topic, time, data: None)
    bus.publish("kernel.dispatch", thread="t")
    snapshot = recorder.snapshot("unit_test")
    header = snapshot["header"]
    assert header["schema"] == FLIGHTREC_SCHEMA
    assert header["reason"] == "unit_test"
    assert header["seed"] == 7
    assert header["capacity"] == 2
    assert header["recorded"] == 1
    assert header["dropped"] == 0
    assert snapshot["kernel"] is None  # no kernel wired
    assert snapshot["events"][0]["topic"] == "kernel.dispatch"


def test_dump_writes_jsonl(tmp_path):
    bus, recorder = make_recorder(capacity=4, seed=1)
    bus.subscribe(lambda topic, time, data: None)
    bus.publish("kernel.dispatch", thread="a")
    bus.publish("kernel.block", thread="a")
    path = tmp_path / "dump.jsonl"
    recorder.dump(str(path), "unit_test")
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == FLIGHTREC_SCHEMA
    assert json.loads(lines[1]) is None  # kernel summary slot
    events = [json.loads(line) for line in lines[2:]]
    assert [e["topic"] for e in events] == ["kernel.dispatch",
                                            "kernel.block"]
    assert recorder.dumps == [str(path)]


def test_dump_publishes_marker_but_not_into_itself(tmp_path):
    bus, recorder = make_recorder(capacity=8)
    topics = []
    bus.subscribe(lambda topic, time, data: topics.append(topic))
    bus.publish("kernel.dispatch")
    path = tmp_path / "dump.jsonl"
    recorder.dump(str(path), "unit_test")
    assert topics == ["kernel.dispatch", "flightrec.dump"]
    events = [json.loads(line)
              for line in path.read_text().splitlines()[2:]]
    assert all(e["topic"] != "flightrec.dump" for e in events)
    # the live marker IS recorded for the *next* dump
    assert recorder.events()[-1]["topic"] == "flightrec.dump"


def test_auto_dump_on_degrade_topics(tmp_path):
    bus, recorder = make_recorder(capacity=8, seed=3,
                                  dump_dir=str(tmp_path))
    bus.subscribe(lambda topic, time, data: None)
    bus.publish("kernel.dispatch")
    for topic in sorted(AUTO_DUMP_TOPICS):
        bus.publish(topic)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "flightrec-degrade_enter-seed3.jsonl",
        "flightrec-degrade_watchdog_fire-seed3.jsonl",
    ]


def test_repeat_dumps_get_sequence_suffix(tmp_path):
    bus, recorder = make_recorder(capacity=8, seed=0,
                                  dump_dir=str(tmp_path))
    bus.subscribe(lambda topic, time, data: None)
    recorder.dump_to_dir("edge")
    recorder.dump_to_dir("edge")
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["flightrec-edge-seed0-2.jsonl",
                     "flightrec-edge-seed0.jsonl"]


def test_distinct_recorders_same_reason_seed_do_not_collide(tmp_path):
    # regression: the dump sequence used to live on the instance, so a
    # second recorder (same reason, same seed, same directory — e.g.
    # two campaign scenarios sharing a --flight-dir) recomputed
    # sequence 1 and overwrote the first recorder's file
    bus1, rec1 = make_recorder(capacity=8, seed=9,
                               dump_dir=str(tmp_path))
    bus2, rec2 = make_recorder(capacity=8, seed=9,
                               dump_dir=str(tmp_path))
    bus1.publish("kernel.dispatch", which="first")
    bus2.publish("kernel.dispatch", which="second")
    path1 = rec1.dump_to_dir("edge")
    path2 = rec2.dump_to_dir("edge")
    assert path1 != path2
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["flightrec-edge-seed9-2.jsonl",
                     "flightrec-edge-seed9.jsonl"]
    # both rings survived — neither dump clobbered the other
    first = json.loads(open(path1).read().splitlines()[2])
    second = json.loads(open(path2).read().splitlines()[2])
    assert first["data"] == {"which": "first"}
    assert second["data"] == {"which": "second"}
    # a fresh directory still starts at sequence 1: the counter is
    # per-directory, so seeded re-runs keep identical file sets
    fresh = tmp_path / "fresh"
    bus3, rec3 = make_recorder(capacity=8, seed=9,
                               dump_dir=str(fresh))
    bus3.publish("kernel.dispatch")
    path3 = rec3.dump_to_dir("edge")
    assert path3.endswith("flightrec-edge-seed9.jsonl")


def test_record_failure_dump_matches_returned_snapshot(tmp_path):
    bus, recorder = make_recorder(capacity=8, seed=0,
                                  dump_dir=str(tmp_path))
    bus.subscribe(lambda topic, time, data: None)
    bus.publish("kernel.dispatch")
    snapshot = recorder.record_failure("edge")
    lines = (tmp_path / "flightrec-edge-seed0.jsonl") \
        .read_text().splitlines()
    assert json.loads(lines[0]) == json.loads(
        json.dumps(snapshot["header"]))
    dumped_events = [json.loads(line) for line in lines[2:]]
    assert dumped_events == snapshot["events"]


def test_flightrec_dump_is_a_declared_probe_site():
    assert "flightrec.dump" in PROBE_SITES


def test_attach_wires_kernel_and_detach_unwires():
    middleware = RTSeed()
    kernel = middleware.kernel
    recorder = FlightRecorder.attach(kernel, seed=5)
    assert kernel.probes.flight is recorder
    assert not kernel.probes.active  # passive: bus stays idle
    assert recorder.capacity == DEFAULT_CAPACITY
    recorder.detach()
    assert kernel.probes.flight is None


def test_kernel_state_summary_on_live_run():
    from repro.bench.overheads import OPTIONAL_DEADLINE, make_eval_task

    middleware = RTSeed(seed=0)
    middleware.add_task(
        make_eval_task(2),
        n_jobs=1,
        cpu=0,
        policy="one_by_one",
        optional_deadline=OPTIONAL_DEADLINE,
    )
    recorder = FlightRecorder.attach(middleware.kernel, seed=0)
    summaries = []
    middleware.probes.subscribe(
        lambda topic, time, data: summaries.append(
            kernel_state_summary(middleware.kernel)
        ),
        topics=["rtseed.release"],
    )
    middleware.run()
    assert summaries, "expected at least one job release"
    mid_run = summaries[0]
    assert mid_run["cpus"][0]["cpu"] == 0
    assert any(cpu["running"] is not None for cpu in mid_run["cpus"])
    assert mid_run["threads_alive"] >= 1
    assert mid_run["degraded"] is None
    assert mid_run["engine"]["pending"] >= 0
    # the passively-attached recorder saw the activated bus's events
    assert recorder.recorded > 0
    final = kernel_state_summary(middleware.kernel)
    assert final["pending_timers"] == []
    assert final["threads_alive"] == 0


def test_seeded_runs_snapshot_identically():
    from repro.bench.overheads import OPTIONAL_DEADLINE, make_eval_task

    def one_run():
        middleware = RTSeed(seed=0)
        middleware.add_task(
            make_eval_task(3),
            n_jobs=2,
            cpu=0,
            policy="one_by_one",
            optional_deadline=OPTIONAL_DEADLINE,
        )
        recorder = FlightRecorder.attach(middleware.kernel, seed=0)
        middleware.probes.subscribe(lambda topic, time, data: None)
        middleware.run()
        return recorder.snapshot("end_of_run")

    assert one_run() == one_run()


def _fig10_middleware():
    from repro.bench.overheads import OPTIONAL_DEADLINE, make_eval_task

    middleware = RTSeed(seed=0)
    middleware.add_task(make_eval_task(2), n_jobs=1, cpu=0,
                        policy="one_by_one",
                        optional_deadline=OPTIONAL_DEADLINE)
    return middleware


def test_ring_holds_only_flight_topics():
    """A catch-all observer publishes every family, but the ring keeps
    the kernel lifecycle, never the engine pops or queue operations."""
    middleware = _fig10_middleware()
    recorder = FlightRecorder.attach(middleware.kernel, capacity=10_000)
    middleware.probes.subscribe(lambda topic, time, data: None)
    middleware.run()
    topics = {event["topic"] for event in recorder.events()}
    assert all(is_flight_topic(topic) for topic in topics)
    assert any(topic.startswith("kernel.") for topic in topics)
    assert not is_flight_topic("engine.event_pop")
    assert not is_flight_topic("rq.enqueue")


def test_dump_dir_makes_the_recorder_an_active_observer(tmp_path):
    middleware = _fig10_middleware()
    bus = middleware.probes
    recorder = FlightRecorder.attach(middleware.kernel,
                                     dump_dir=str(tmp_path))
    assert bus.active and bus.want_kernel and bus.want_rtseed
    assert not (bus.want_engine or bus.want_rq)
    middleware.run()
    assert recorder.recorded > 0  # no other observer was attached
    recorder.detach()
    assert not bus.active
