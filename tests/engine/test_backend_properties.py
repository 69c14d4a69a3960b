"""Property-based equivalence of the production structures and the
test-only model (:mod:`tests.engine.model`).

Whatever operation sequence the kernel throws at them, the production
structures must be *observationally identical* to the checked model —

* ready queues: same pops, same lengths, same iteration order under
  arbitrary enqueue / at-head enqueue / dequeue / pop interleavings;
* event engines: same callback order, clock and counters under
  arbitrary schedule / cancel / step / run interleavings, including
  callbacks that schedule further events and cancel storms that cross
  the lazy-compaction threshold;
* cost-model noise: the batched (vectorized-chunk) stream yields
  bit-identical floats to scalar draws from the same seed, and per-CPU
  stall multipliers compose *after* the draw, never perturbing the
  stream (the RNG-order contract of :mod:`repro.hardware.noise`).

Production structures are the ``fast`` side of each comparison (they
are the former fast backend), the model the ``reference`` side.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.events import Engine
from repro.engine.readyqueue import IndexedLevelQueue
from repro.hardware.noise import BatchedLognormalStream
from tests.engine import model

pytestmark = pytest.mark.tier1

MIN_PRIO, MAX_PRIO = 1, 8

# (kind, prio, at_head): 0=enqueue, 1=dequeue-some-live, 2=pop
queue_ops = st.lists(
    st.tuples(st.integers(0, 2), st.integers(MIN_PRIO, MAX_PRIO),
              st.booleans()),
    min_size=1, max_size=80,
)


@settings(max_examples=120, deadline=None)
@given(ops=queue_ops)
def test_fifo_queues_observationally_identical(ops):
    reference = model.IndexedLevelQueue(MIN_PRIO, MAX_PRIO)
    fast = IndexedLevelQueue(MIN_PRIO, MAX_PRIO)
    counter = 0
    for kind, prio, at_head in ops:
        if kind == 0:
            counter += 1
            item = f"i{counter}"
            reference.enqueue(item, prio, at_head=at_head)
            fast.enqueue(item, prio, at_head=at_head)
        elif kind == 1:
            live = list(reference)
            if not live:
                continue
            victim = live[prio % len(live)]
            level = next(
                p for p in range(MIN_PRIO, MAX_PRIO + 1)
                if victim in reference.items_at(p)
            )
            reference.dequeue(victim, level)
            fast.dequeue(victim, level)
        else:
            if not reference:
                assert not fast
                continue
            assert reference.pop() == fast.pop()
        assert len(reference) == len(fast)
        assert reference.highest_priority() == fast.highest_priority()
        assert reference.peek() == fast.peek()
    assert list(reference) == list(fast)
    for prio in range(MIN_PRIO, MAX_PRIO + 1):
        assert reference.items_at(prio) == fast.items_at(prio)


# (kind, a, b): 0=schedule(delay=a, prio=b-2, respawn if b odd),
# 1=cancel handle a, 2=step, 3=run(until=now+a)
engine_ops = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 6), st.integers(0, 4)),
    min_size=1, max_size=60,
)


def _drive(engine, ops):
    """Apply ``ops`` to ``engine`` deterministically; return the
    observation log."""
    log = []
    handles = []
    counter = [0]

    def make_callback(tag, respawn):
        def callback():
            log.append(("fire", tag, engine.now,
                        engine.events_processed))
            if respawn:
                # a callback that schedules more work mid-drain
                handles.append(engine.schedule_at(
                    engine.now + tag % 3,
                    make_callback(tag + 1000, False),
                    priority=tag % 2,
                ))
        return callback

    for kind, a, b in ops:
        if kind == 0:
            counter[0] += 1
            handles.append(engine.schedule_at(
                engine.now + a, make_callback(counter[0], b % 2 == 1),
                priority=b - 2,
            ))
        elif kind == 1:
            if handles:
                engine.cancel(handles[a % len(handles)])
        elif kind == 2:
            log.append(("step", engine.step(), engine.now))
        else:
            log.append(("run", engine.run(until=engine.now + a),
                        engine.now))
    log.append(("drain", engine.run(), engine.now,
                engine.events_processed, engine.pending_count))
    return log


@settings(max_examples=100, deadline=None)
@given(ops=engine_ops)
def test_engines_observationally_identical(ops):
    reference = _drive(model.Engine(), ops)
    fast = _drive(Engine(), ops)
    assert reference == fast


@pytest.mark.parametrize("cancel_stride", [2, 3])
def test_compaction_equivalence_under_cancel_storm(cancel_stride):
    """Enough cancels to cross the lazy-compaction threshold (64) in
    both engines; survivors must drain identically, and the production
    engine's in-place rebuild must not lose or resurrect records."""
    logs = {}
    for name, engine_cls in (("reference", model.Engine),
                             ("fast", Engine)):
        engine = engine_cls()
        fired = []
        handles = [
            engine.schedule_at(float(i % 17), lambda i=i: fired.append(i),
                               priority=i % 3)
            for i in range(300)
        ]
        for i in range(0, 300, cancel_stride):
            engine.cancel(handles[i])
            engine.cancel(handles[i])  # double-cancel must stay no-op
        executed = engine.run()
        logs[name] = (fired, executed, engine.now,
                      engine.events_processed, engine.pending_count)
    assert logs["reference"] == logs["fast"]


sigma_values = st.sampled_from([0.01, 0.05, 0.3, 1.0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**20), sigma=sigma_values,
       n=st.integers(1, 200), chunk=st.integers(1, 64))
def test_batched_noise_stream_matches_scalar_draws(seed, sigma, n, chunk):
    """The RNG-order contract: ``rng.lognormal(0, s, chunk)`` consumed
    one element at a time is bit-identical to scalar draws from an
    identically seeded generator — for any chunk size, including chunks
    that straddle the total draw count."""
    stream = BatchedLognormalStream(
        np.random.default_rng(seed), sigma, chunk=chunk
    )
    scalar = model.ScalarLognormalStream(np.random.default_rng(seed),
                                         sigma)
    for _ in range(n):
        assert stream.next() == scalar.next()


class _Stall:
    """Duck-typed stall provider: fixed multiplier on CPU 0."""

    def __init__(self, factor):
        self.factor = factor

    def multiplier(self, cpu):
        return self.factor if cpu == 0 else 1.0


def _price_sequence(scalar, stall=None, seed=7, n=120):
    """Draw ``n`` priced syscall costs alternating between CPUs 0/1
    (``scalar``: through the model's scalar draws)."""
    from repro.hardware.overheads import XeonPhiCostModel
    from repro.simkernel.cpu import Topology, uniform_share

    class _Thread:
        def __init__(self, cpu):
            self.cpu = cpu

    topology = Topology(2, 1, share_fn=uniform_share,
                        background_weight=0.0)
    costs = XeonPhiCostModel(topology, seed=seed)
    if scalar:
        costs._noise_stream = model.ScalarLognormalStream(
            costs._rng, costs.noise_sigma)
    costs.stall = stall
    return [
        costs.syscall(None, _Thread(i % 2), None) for i in range(n)
    ]


@settings(max_examples=25, deadline=None)
@given(factor=st.floats(1.0, 8.0, allow_nan=False))
def test_stall_multipliers_compose_after_the_draw(factor):
    """Installing a stall provider must not perturb the seeded noise
    stream: stalled costs are exactly ``unstalled * multiplier`` on the
    stalled CPU and exactly unchanged elsewhere — with batched and
    with scalar draws, identically across them."""
    baseline = _price_sequence(scalar=True)
    assert _price_sequence(scalar=False) == baseline

    stall = _Stall(factor)
    for scalar in (True, False):
        stalled = _price_sequence(scalar, stall=stall)
        for i, (plain, priced) in enumerate(zip(baseline, stalled)):
            if i % 2 == 0:  # CPU 0: inside the stall window
                assert priced == plain * factor
            else:  # CPU 1: untouched
                assert priced == plain
