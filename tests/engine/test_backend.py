"""The engine-backend seam: registry, env-var default, API parity.

The seam's contract is that every consumer can take any
:data:`repro.engine.backend.BACKENDS` entry and get the same public
surface — same factory methods, same engine/queue methods, same
exception types on misuse of the checked paths that both backends keep.
"""

import pytest

from repro.engine.backend import (
    BACKENDS,
    ENGINE_ENV_VAR,
    EngineBackend,
    FastBackend,
    ReferenceBackend,
    default_backend_name,
    get_backend,
)
from repro.engine.events import Engine
from repro.engine.fastevents import FastEngine
from repro.engine.fastqueue import FastLevelQueue
from repro.engine.readyqueue import (
    HeapReadyQueue,
    IndexedLevelQueue,
    ReadyQueueError,
)

pytestmark = pytest.mark.tier1


def test_registry_has_both_backends():
    assert sorted(BACKENDS) == ["fast", "reference"]
    assert isinstance(BACKENDS["reference"], ReferenceBackend)
    assert isinstance(BACKENDS["fast"], FastBackend)


def test_get_backend_by_name_returns_singletons():
    assert get_backend("reference") is BACKENDS["reference"]
    assert get_backend("fast") is BACKENDS["fast"]


def test_get_backend_passes_instances_through():
    class Custom(EngineBackend):
        name = "custom"

    custom = Custom()
    assert get_backend(custom) is custom


def test_get_backend_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown engine backend"):
        get_backend("turbo")
    with pytest.raises(ValueError, match="unknown engine backend"):
        get_backend(42)


def test_default_backend_honours_env_var(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
    assert default_backend_name() == "reference"
    assert get_backend() is BACKENDS["reference"]
    monkeypatch.setenv(ENGINE_ENV_VAR, "fast")
    assert default_backend_name() == "fast"
    assert get_backend() is BACKENDS["fast"]


def test_backend_factories_build_the_right_classes():
    reference = get_backend("reference")
    fast = get_backend("fast")
    assert type(reference.make_engine()) is Engine
    assert type(fast.make_engine()) is FastEngine
    assert type(reference.make_fifo_queue(1, 10)) is IndexedLevelQueue
    assert type(fast.make_fifo_queue(1, 10)) is FastLevelQueue
    # the keyed heap is shared: its entries are already plain tuples
    for backend in (reference, fast):
        assert type(backend.make_heap_queue(lambda item: item)) \
            is HeapReadyQueue


def test_noise_modes():
    assert get_backend("reference").noise_mode == "scalar"
    assert get_backend("fast").noise_mode == "batched"


@pytest.mark.parametrize("name", ["reference", "fast"])
def test_engine_api_parity(name):
    engine = get_backend(name).make_engine(start_time=1.0)
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
    engine = get_backend(name).make_engine()
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
    queue = get_backend(name).make_fifo_queue(1, 10, cpu_id=3)
    assert queue.cpu_id == 3
    assert not queue
    assert queue.peek() is None
    assert queue.highest_priority() is None
    with pytest.raises(ReadyQueueError):
        queue.pop()

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
    queue = get_backend(name).make_fifo_queue(1, 99, cpu_id=0)
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
