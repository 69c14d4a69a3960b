"""API parity of the production execution core and the test-only model.

The production :class:`~repro.engine.events.Engine` and
:class:`~repro.engine.readyqueue.IndexedLevelQueue` and their checked
models in :mod:`tests.engine.model` must expose the same public
surface with the same results, so the model can stand in for them
(``test_model_equivalence.py``).  The parametrization ids keep the
names of the two engine backends these structures come from: ``fast``
is the production structure (the former fast backend, now the only
engine), ``reference`` the model (the former checked reference
backend).
"""

import pytest

from repro.engine import events, readyqueue
from repro.engine.readyqueue import ReadyQueueError
from tests.engine import model

pytestmark = pytest.mark.tier1

ENGINES = {"reference": model.Engine, "fast": events.Engine}
LEVEL_QUEUES = {"reference": model.IndexedLevelQueue,
                "fast": readyqueue.IndexedLevelQueue}


@pytest.mark.parametrize("name", ["reference", "fast"])
def test_engine_api_parity(name):
    engine = ENGINES[name](start_time=1.0)
    assert engine.now == 1.0
    assert engine.events_processed == 0
    assert engine.pending_count == 0
    assert engine.peek_time() is None
    assert engine.step() is False

    fired = []
    handle = engine.schedule_at(2.0, lambda: fired.append("a"))
    engine.schedule_after(0.5, lambda: fired.append("b"))
    assert engine.pending_count == 2
    assert engine.heap_size == 2
    assert engine.peek_time() == 1.5
    with pytest.raises(ValueError):
        engine.schedule_at(0.5, lambda: None)
    with pytest.raises(ValueError):
        engine.schedule_after(-0.1, lambda: None)

    engine.cancel(handle)
    engine.cancel(handle)  # double-cancel is a no-op
    assert engine.pending_count == 1
    assert engine.run() == 1
    assert fired == ["b"]
    assert engine.now == 1.5
    assert engine.events_processed == 1


@pytest.mark.parametrize("name", ["reference", "fast"])
def test_engine_run_until_and_max_events(name):
    engine = ENGINES[name]()
    fired = []
    for time in (1.0, 2.0, 3.0, 4.0):
        engine.schedule_at(time, lambda t=time: fired.append(t))
    assert engine.run(max_events=1) == 1
    assert engine.run(until=3.0) == 2
    assert engine.now == 3.0
    assert engine.run(until=10.0) == 1
    assert engine.now == 10.0  # clock advances to the horizon
    assert fired == [1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("name", ["reference", "fast"])
def test_fifo_queue_api_parity(name):
    queue = LEVEL_QUEUES[name](1, 10, cpu_id=3)
    assert queue.cpu_id == 3
    assert not queue
    assert queue.peek() is None
    assert queue.highest_priority() is None
    with pytest.raises(ReadyQueueError):
        queue.pop()
    for outside in (0, 11):  # the O(1) level-range check
        with pytest.raises(ReadyQueueError, match="outside level range"):
            queue.enqueue("x", outside)
        with pytest.raises(ReadyQueueError):
            queue.dequeue("x", outside)
    assert not queue

    queue.enqueue("a", 5)
    queue.enqueue("b", 5)
    queue.enqueue("c", 7)
    queue.enqueue("head", 5, at_head=True)
    assert len(queue) == 4
    assert queue.highest_priority() == 7
    assert queue.peek() == ("c", 7)
    assert queue.items_at(5) == ["head", "a", "b"]
    assert list(queue) == ["c", "head", "a", "b"]

    queue.dequeue("a", 5)
    with pytest.raises(ReadyQueueError):
        queue.dequeue("a", 5)
    assert queue.pop() == ("c", 7)
    assert queue.pop() == ("head", 5)
    assert queue.pop() == ("b", 5)
    assert not queue


@pytest.mark.parametrize("name", ["reference", "fast"])
def test_fifo_queue_levels_built_on_first_use(name):
    """A level exists only once something was enqueued at it: an unused
    level reads as empty, rejects a dequeue, and leaves no trace in the
    depth telemetry."""
    queue = LEVEL_QUEUES[name](1, 99, cpu_id=0)
    assert queue.items_at(42) == []
    with pytest.raises(ReadyQueueError):
        queue.dequeue("ghost", 42)
    assert queue.counters()["level_peaks"] == {}

    queue.enqueue("a", 42)
    queue.enqueue("b", 7)
    queue.enqueue("c", 42)
    assert queue.pop() == ("a", 42)
    assert queue.items_at(42) == ["c"]
    # ascending level order whatever order the levels were built in
    assert list(queue.counters()["level_peaks"].items()) == \
        [("7", 1), ("42", 2)]
