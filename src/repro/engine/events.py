"""Discrete-event core: simulated clock plus a cancellable event queue.

Home of the engine shared by *both* simulators — the kernel-level DES
(:mod:`repro.simkernel`) and the theory-level schedule simulator
(:mod:`repro.sched.simulator`).  The engine is deliberately tiny and
generic — everything scheduling-related lives in
:mod:`repro.engine.classes` and the two drivers.

Events are ordered by ``(time, priority, sequence)``; the sequence
number makes simultaneous events deterministic (FIFO among equals),
which the reproduction relies on: e.g. all 228 optional-deadline timers
firing at the same instant must be processed in a stable order for
results to be repeatable.

Cancellation is *lazy*: a cancelled entry stays in the heap and is
skipped when it reaches the top.  Two pieces of bookkeeping keep that
cheap at scale:

* a live pending counter, so :attr:`Engine.pending_count` is O(1)
  instead of an O(n) heap scan;
* periodic compaction — once cancelled entries outnumber live ones the
  heap is rebuilt without them (O(n) amortized against the cancels that
  caused it), so workloads that cancel most of what they schedule (SMT
  rate-sharing recomputes every completion event on every occupancy
  change) cannot leak heap memory.
"""

import heapq

#: Compaction trigger: never compact below this many cancelled entries
#: (tiny heaps are cheaper to drain lazily than to rebuild).
_COMPACT_MIN_CANCELLED = 64


class Event:
    """A scheduled callback.

    Events are created through :meth:`Engine.schedule_at` /
    :meth:`Engine.schedule_after` and can be cancelled with
    :meth:`Engine.cancel`.  Cancellation is lazy: the heap entry stays in
    place and is skipped when popped (or swept by compaction).
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled",
                 "_in_heap")

    def __init__(self, time, priority, seq, callback):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self._in_heap = True

    def __lt__(self, other):
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time} prio={self.priority} seq={self.seq} {state}>"


class Engine:
    """Simulated clock and event loop.

    :param start_time: initial value of the simulated clock, nanoseconds.
    """

    def __init__(self, start_time=0.0):
        self.now = float(start_time)
        #: (time, priority, seq, event) tuples: heap sifts compare at C
        #: speed, and the unique seq means the Event itself is never
        #: compared.
        self._heap = []
        self._seq = 0
        self._events_processed = 0
        self._pending = 0
        self._cancelled = 0
        # telemetry (see :meth:`counters`): per-priority schedule and
        # cancel tallies, the high-water heap length, and compaction
        # totals.  Per-priority *processed* counts are derived at
        # report time, so the hot path pays two dict increments and one
        # length compare — nothing per-pop.
        self._scheduled_by_priority = {}
        self._cancelled_by_priority = {}
        self._peak_heap = 0
        self._compactions = 0
        self._swept_total = 0
        #: optional :class:`repro.obs.bus.ProbeBus` (duck-typed — the
        #: engine stays import-free).  Sites guard on
        #: ``probes.want_engine`` so an unobserved engine pays one
        #: attribute test per event.
        self.probes = None

    @property
    def events_processed(self):
        """Number of events executed so far (for diagnostics and tests)."""
        return self._events_processed

    @property
    def pending_count(self):
        """Number of non-cancelled events still queued.  O(1)."""
        return self._pending

    @property
    def heap_size(self):
        """Physical heap length including not-yet-swept cancelled entries
        (diagnostics; bounded at < 2x :attr:`pending_count` + the
        compaction floor by the lazy-cancellation compactor)."""
        return len(self._heap)

    def counters(self):
        """JSON-ready telemetry counters (see ``docs/OBSERVABILITY.md``).

        Per-priority ``processed`` and ``pending`` tallies are derived
        here with one O(heap) scan — ``processed = scheduled -
        cancelled - pending`` per level — so the event hot path never
        pays for per-type accounting beyond the schedule/cancel dict
        increments.  ``events_scheduled`` is the monotone sequence
        counter; ``peak_heap_size`` is exact (the heap only grows at
        ``schedule_at``).
        """
        pending_by_priority = {}
        for entry in self._heap:
            event = entry[3]
            if not event.cancelled:
                priority = event.priority
                pending_by_priority[priority] = \
                    pending_by_priority.get(priority, 0) + 1
        by_priority = {}
        for priority, scheduled in sorted(
                self._scheduled_by_priority.items()):
            cancelled = self._cancelled_by_priority.get(priority, 0)
            pending = pending_by_priority.get(priority, 0)
            by_priority[str(priority)] = {
                "scheduled": scheduled,
                "cancelled": cancelled,
                "pending": pending,
                "processed": scheduled - cancelled - pending,
            }
        return {
            "events_processed": self._events_processed,
            "events_scheduled": self._seq,
            "events_cancelled": sum(
                self._cancelled_by_priority.values()
            ),
            "pending": self._pending,
            "heap_size": len(self._heap),
            "peak_heap_size": self._peak_heap,
            "compactions": self._compactions,
            "compacted_swept": self._swept_total,
            "by_priority": by_priority,
        }

    def schedule_at(self, time, callback, priority=0):
        """Schedule ``callback()`` at absolute simulated ``time``.

        ``time`` must not be in the past.  ``priority`` breaks ties among
        events at the same instant (lower runs first); the kernel uses it
        to e.g. process timer expiries before thread wake-ups scheduled at
        the same timestamp.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at {time} before now ({self.now})"
            )
        self._seq += 1
        event = Event(float(time), priority, self._seq, callback)
        heapq.heappush(self._heap,
                       (event.time, priority, self._seq, event))
        self._pending += 1
        by_priority = self._scheduled_by_priority
        try:
            by_priority[priority] += 1
        except KeyError:
            by_priority[priority] = 1
        heap_len = len(self._heap)
        if heap_len > self._peak_heap:
            self._peak_heap = heap_len
        return event

    def schedule_after(self, delay, callback, priority=0):
        """Schedule ``callback()`` after a relative ``delay`` >= 0."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, callback, priority=priority)

    def cancel(self, event):
        """Cancel a pending event.  Cancelling twice is a no-op."""
        if event.cancelled:
            return
        event.cancelled = True
        if not event._in_heap:
            # already executed (or swept): nothing queued to account for
            return
        self._pending -= 1
        self._cancelled += 1
        by_priority = self._cancelled_by_priority
        try:
            by_priority[event.priority] += 1
        except KeyError:
            by_priority[event.priority] = 1
        self._maybe_compact()

    def _maybe_compact(self):
        """Rebuild the heap once cancelled entries exceed half of it."""
        if self._cancelled < _COMPACT_MIN_CANCELLED:
            return
        if self._cancelled * 2 <= len(self._heap):
            return
        swept = self._cancelled
        survivors = []
        for entry in self._heap:
            if entry[3].cancelled:
                entry[3]._in_heap = False
            else:
                survivors.append(entry)
        self._heap = survivors
        heapq.heapify(self._heap)
        self._cancelled = 0
        self._compactions += 1
        self._swept_total += swept
        probes = self.probes
        if probes is not None and probes.want_engine:
            probes.publish("engine.compact", swept=swept,
                           survivors=len(survivors))

    def _pop_cancelled_top(self):
        """Drop cancelled entries sitting at the top of the heap."""
        while self._heap and self._heap[0][3].cancelled:
            _, _, _, event = heapq.heappop(self._heap)
            event._in_heap = False
            self._cancelled -= 1

    def peek_time(self):
        """Return the time of the next pending event, or ``None``."""
        self._pop_cancelled_top()
        if not self._heap:
            return None
        return self._heap[0][0]

    def step(self):
        """Execute the next pending event.  Return ``False`` if none left."""
        while self._heap:
            _, _, _, event = heapq.heappop(self._heap)
            event._in_heap = False
            if event.cancelled:
                self._cancelled -= 1
                continue
            if event.time < self.now:
                raise RuntimeError(
                    f"event time {event.time} behind clock {self.now}"
                )
            self._pending -= 1
            self.now = event.time
            self._events_processed += 1
            probes = self.probes
            if probes is not None and probes.want_engine:
                probes.publish("engine.event_pop", priority=event.priority,
                               seq=event.seq)
            event.callback()
            return True
        return False

    def run(self, until=None, max_events=None):
        """Drain the event queue.

        :param until: stop once the clock would pass this time (the clock
            is advanced to ``until`` if the queue outlives it).
        :param max_events: safety valve against runaway simulations.
        :returns: number of events executed by this call.
        """
        executed = 0
        while True:
            if max_events is not None and executed >= max_events:
                return executed
            next_time = self.peek_time()
            if next_time is None:
                if until is not None and until > self.now:
                    self.now = float(until)
                return executed
            if until is not None and next_time > until:
                self.now = float(until)
                return executed
            self.step()
            executed += 1
