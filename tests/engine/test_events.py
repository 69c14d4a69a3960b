"""Tests for the shared event engine's counter and compaction behavior.

Behavioral engine tests (ordering, cancellation semantics, run loop)
live in ``tests/simkernel/test_engine.py`` where the engine historically
lived; these cover the scalability guarantees the shared engine adds:
O(1) pending counts and bounded heap growth under heavy cancellation.
"""

import random

from repro.engine.events import _PENDING, Engine

import pytest

pytestmark = pytest.mark.tier1


def _live_scan(engine):
    """Ground truth for pending_count: O(n) scan of the heap."""
    return sum(1 for record in engine._heap if record[4] == _PENDING)


def test_pending_count_is_live_counter():
    engine = Engine()
    events = [engine.schedule_at(float(i), lambda: None) for i in range(50)]
    assert engine.pending_count == 50 == _live_scan(engine)
    for event in events[::2]:
        engine.cancel(event)
    assert engine.pending_count == 25 == _live_scan(engine)
    while engine.step():
        pass
    assert engine.pending_count == 0 == _live_scan(engine)


def test_pending_count_tracks_random_workload():
    rng = random.Random(7)
    engine = Engine()
    live = []
    for _ in range(2000):
        action = rng.random()
        if action < 0.5 or not live:
            live.append(
                engine.schedule_at(engine.now + rng.random(), lambda: None)
            )
        elif action < 0.8:
            engine.cancel(live.pop(rng.randrange(len(live))))
        else:
            if engine.step():
                live = [e for e in live if e[4] == _PENDING]
        assert engine.pending_count == _live_scan(engine)


def test_cancel_twice_and_cancel_after_execute_do_not_corrupt_counts():
    engine = Engine()
    first = engine.schedule_at(1.0, lambda: None)
    second = engine.schedule_at(2.0, lambda: None)
    engine.cancel(first)
    engine.cancel(first)
    assert engine.pending_count == 1
    assert engine.step()
    engine.cancel(second)  # already executed: no-op
    assert engine.pending_count == 0
    assert engine.heap_size == 0


def test_compaction_bounds_heap_size():
    """Cancelling most of the queue must shrink the physical heap, not
    leave a graveyard of dead entries."""
    engine = Engine()
    fired = []
    events = [
        engine.schedule_at(float(i), lambda i=i: fired.append(i))
        for i in range(1000)
    ]
    for event in events[:900]:
        engine.cancel(event)
    assert engine.pending_count == 100
    # compaction fired: dead entries can be at most half the heap
    assert engine.heap_size <= 2 * engine.pending_count
    # the survivors still fire, in order
    while engine.step():
        pass
    assert fired == list(range(900, 1000))


def test_compaction_does_not_fire_for_small_heaps():
    """Tiny heaps drain lazily — rebuilds would cost more than they
    save.  The dead entries are swept as they reach the top instead."""
    engine = Engine()
    events = [engine.schedule_at(float(i), lambda: None) for i in range(20)]
    for event in events:
        engine.cancel(event)
    assert engine.heap_size == 20  # below the compaction floor
    assert engine.pending_count == 0
    assert engine.peek_time() is None  # sweeping the top clears them
    assert engine.heap_size == 0


def test_peek_time_skips_cancelled_top():
    engine = Engine()
    soon = engine.schedule_at(1.0, lambda: None)
    engine.schedule_at(2.0, lambda: None)
    engine.cancel(soon)
    assert engine.peek_time() == 2.0
    assert engine.pending_count == 1
