"""The production engine publishes the same engine.* probe stream as
the checked model engine (:mod:`tests.engine.model`).

The production drain path hoists the ``probes.want_engine`` test out
of the loop; these tests pin that when a bus IS active, the hoisted
path still emits ``engine.event_pop`` and ``engine.compact`` exactly
like the model — topic for topic, payload for payload.
"""

import pytest

from repro.engine.events import Engine
from repro.obs.bus import ProbeBus
from tests.engine import model
from tests.engine.model import swap_in_model

pytestmark = pytest.mark.tier1


class EngineClock:
    """Adapter so the bus stamps events with the engine's clock."""

    def __init__(self, engine):
        self._engine = engine

    @property
    def now(self):
        return self._engine.now


def observed(engine_cls, drive):
    """Run ``drive(engine)`` with a subscriber attached; return the
    canonical probe stream."""
    engine = engine_cls()
    bus = ProbeBus(clock=EngineClock(engine))
    engine.probes = bus
    stream = []
    bus.subscribe(
        lambda topic, time, data: stream.append(
            (topic, time, tuple(sorted(data.items())))
        ),
        topics=["engine.*"],
    )
    drive(engine)
    return stream


def drive_pops(engine):
    """Interleaved schedules and cancels, drained with run()."""
    events = []
    for index in range(50):
        events.append(engine.schedule_at(
            float(index), lambda: None, priority=index % 3,
        ))
    for event in events[::2]:
        engine.cancel(event)
    engine.run()


def drive_step_pops(engine):
    """Same workload drained with step() (the unhoisted path)."""
    for index in range(20):
        engine.schedule_at(float(index), lambda: None,
                           priority=index % 2)
    while engine.step():
        pass


def drive_compaction(engine):
    """Enough cancels to trip the lazy-cancellation compactor."""
    events = [engine.schedule_at(float(index), lambda: None)
              for index in range(200)]
    for event in events[:150]:
        engine.cancel(event)
    engine.run()


@pytest.mark.parametrize(
    "drive", [drive_pops, drive_step_pops, drive_compaction],
    ids=["run", "step", "compact"],
)
def test_probe_streams_byte_identical(drive):
    reference = observed(model.Engine, drive)
    fast = observed(Engine, drive)
    assert reference, "expected a non-empty probe stream"
    assert reference == fast


def test_compaction_publishes_on_both_backends():
    reference = observed(model.Engine, drive_compaction)
    compacts = [entry for entry in reference
                if entry[0] == "engine.compact"]
    assert compacts, "workload must trip the compactor"
    assert observed(Engine, drive_compaction) == reference


def test_full_middleware_engine_stream_matches(monkeypatch):
    from repro.bench.overheads import OPTIONAL_DEADLINE, make_eval_task
    from repro.core.middleware import RTSeed

    def run():
        middleware = RTSeed(seed=0)
        middleware.add_task(
            make_eval_task(4),
            n_jobs=2,
            cpu=0,
            policy="one_by_one",
            optional_deadline=OPTIONAL_DEADLINE,
        )
        stream = []
        middleware.probes.subscribe(
            lambda topic, time, data: stream.append(
                (topic, time, tuple(sorted(data.items())))
            ),
            topics=["engine.*"],
        )
        middleware.run()
        return stream

    with monkeypatch.context() as patch:
        swap_in_model(patch)
        reference = run()
    assert any(topic == "engine.event_pop"
               for topic, _time, _data in reference)
    assert run() == reference
