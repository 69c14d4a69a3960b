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

Representation (chosen for CPython speed on the hot path):

* an event is a plain 5-list record ``[time, prio, seq, callback,
  state]`` pushed directly onto the heap — list comparison stops at the
  unique ``seq``, so the callback is never compared;
* ``state`` is an int flag: ``0`` pending, ``1`` cancelled but still in
  the heap, ``2`` executed or swept;
* :meth:`Engine.run` is a single inlined loop — one heap-top inspection
  per event — and samples ``probes.want_engine`` once at entry
  (subscribe to the bus *before* running; the kernel's own ``kernel.*``
  sites guard per call).

Cancellation is *lazy*: a cancelled record stays in the heap and is
skipped when it reaches the top.  Two pieces of bookkeeping keep that
cheap at scale:

* a live pending counter, so :attr:`Engine.pending_count` is O(1)
  instead of an O(n) heap scan;
* periodic compaction — once cancelled records outnumber live ones the
  heap is rebuilt without them (O(n) amortized against the cancels that
  caused it), so workloads that cancel most of what they schedule (SMT
  rate-sharing recomputes every completion event on every occupancy
  change) cannot leak heap memory.
"""

import heapq

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Compaction trigger: never compact below this many cancelled entries
#: (tiny heaps are cheaper to drain lazily than to rebuild).
_COMPACT_MIN_CANCELLED = 64

#: Record state flags.
_PENDING = 0
_CANCELLED = 1
_DONE = 2


class Engine:
    """Simulated clock and event loop.

    The handle returned by :meth:`schedule_at` / :meth:`schedule_after`
    is the raw record (a list), opaque to callers — the kernel and the
    simulator only ever store it and pass it back to :meth:`cancel`.

    :param start_time: initial value of the simulated clock, nanoseconds.
    """

    def __init__(self, start_time=0.0):
        self.now = float(start_time)
        self._heap = []
        self._seq = 0
        self._events_processed = 0
        self._pending = 0
        self._cancelled = 0
        # telemetry (see :meth:`counters`): per-priority schedule and
        # cancel tallies, the high-water heap length, and compaction
        # totals.  Per-priority *processed* counts are derived at
        # report time, so the schedule/cancel paths pay two dict
        # increments and one length compare — the drain loop nothing.
        self._scheduled_by_priority = {}
        self._cancelled_by_priority = {}
        self._peak_heap = 0
        self._compactions = 0
        self._swept_total = 0
        #: optional :class:`repro.obs.bus.ProbeBus` (duck-typed — the
        #: engine stays import-free).  :meth:`step` tests
        #: ``probes.want_engine`` per event, :meth:`run` once at entry.
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
        """Physical heap length including not-yet-swept cancelled records
        (diagnostics; bounded at < 2x :attr:`pending_count` + the
        compaction floor by the lazy-cancellation compactor)."""
        return len(self._heap)

    def queue_records(self):
        """Every heap entry as ``(time, priority, seq, callback, state)``
        in heap order, lazily-cancelled ones included (snapshot
        capture)."""
        return [tuple(record) for record in self._heap]

    def counters(self):
        """JSON-ready telemetry counters (see ``docs/OBSERVABILITY.md``).

        Per-priority ``processed`` and ``pending`` tallies are derived
        here with one O(heap) scan — ``processed = scheduled -
        cancelled - pending`` per level.  ``events_scheduled`` is the
        monotone sequence counter; ``peak_heap_size`` is exact (the
        heap only grows at ``schedule_at``).
        """
        pending_by_priority = {}
        for record in self._heap:
            if record[4] == _PENDING:
                priority = record[1]
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
        self._seq = seq = self._seq + 1
        if type(time) is not float:
            time = float(time)
        record = [time, priority, seq, callback, _PENDING]
        _heappush(self._heap, record)
        self._pending += 1
        by_priority = self._scheduled_by_priority
        try:
            by_priority[priority] += 1
        except KeyError:
            by_priority[priority] = 1
        heap_len = len(self._heap)
        if heap_len > self._peak_heap:
            self._peak_heap = heap_len
        return record

    def schedule_after(self, delay, callback, priority=0):
        """Schedule ``callback()`` after a relative ``delay`` >= 0."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, callback,
                                priority=priority)

    def cancel(self, record):
        """Cancel a pending record.  Cancelling twice, or cancelling a
        record that already ran, is a no-op."""
        if record[4] != _PENDING:
            return
        record[4] = _CANCELLED
        self._pending -= 1
        self._cancelled += 1
        by_priority = self._cancelled_by_priority
        try:
            by_priority[record[1]] += 1
        except KeyError:
            by_priority[record[1]] = 1
        if self._cancelled >= _COMPACT_MIN_CANCELLED and \
                self._cancelled * 2 > len(self._heap):
            self._compact()

    def _compact(self):
        """Rebuild the heap without cancelled records.  The rebuild is
        *in place* (``heap[:] = survivors``) so the ``run`` loop's local
        heap binding stays valid when a callback's cancel triggers
        compaction mid-drain."""
        swept = self._cancelled
        heap = self._heap
        survivors = []
        for record in heap:
            if record[4] == _CANCELLED:
                record[4] = _DONE
            else:
                survivors.append(record)
        heap[:] = survivors
        heapq.heapify(heap)
        self._cancelled = 0
        self._compactions += 1
        self._swept_total += swept
        probes = self.probes
        if probes is not None and probes.want_engine:
            probes.publish("engine.compact", swept=swept,
                           survivors=len(survivors))

    def _pop_cancelled_top(self):
        """Drop cancelled records sitting at the top of the heap."""
        heap = self._heap
        while heap and heap[0][4] == _CANCELLED:
            _heappop(heap)[4] = _DONE
            self._cancelled -= 1

    def peek_time(self):
        """Return the time of the next pending event, or ``None``."""
        self._pop_cancelled_top()
        heap = self._heap
        if not heap:
            return None
        return heap[0][0]

    def step(self):
        """Execute the next pending event.  Return ``False`` if none left."""
        heap = self._heap
        while heap:
            record = _heappop(heap)
            if record[4] == _CANCELLED:
                record[4] = _DONE
                self._cancelled -= 1
                continue
            record[4] = _DONE
            self._pending -= 1
            self.now = record[0]
            self._events_processed += 1
            probes = self.probes
            if probes is not None and probes.want_engine:
                probes.publish("engine.event_pop", priority=record[1],
                               seq=record[2])
            record[3]()
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
        heap = self._heap
        heappop = _heappop
        probes = self.probes
        emit = probes.publish \
            if probes is not None and probes.want_engine else None
        if until is None and max_events is None and emit is None:
            # run-to-completion with an idle bus: the tightest loop
            while heap:
                record = heap[0]
                if record[4] == _CANCELLED:
                    heappop(heap)[4] = _DONE
                    self._cancelled -= 1
                    continue
                heappop(heap)[4] = _DONE
                self._pending -= 1
                self.now = record[0]
                self._events_processed += 1
                executed += 1
                record[3]()
            return executed
        while True:
            if max_events is not None and executed >= max_events:
                return executed
            if not heap:
                break
            record = heap[0]
            if record[4] == _CANCELLED:
                heappop(heap)[4] = _DONE
                self._cancelled -= 1
                continue
            time = record[0]
            if until is not None and time > until:
                self.now = float(until)
                return executed
            heappop(heap)[4] = _DONE
            self._pending -= 1
            self.now = time
            self._events_processed += 1
            executed += 1
            if emit is not None:
                emit("engine.event_pop", priority=record[1],
                     seq=record[2])
            record[3]()
        if until is not None and until > self.now:
            self.now = float(until)
        return executed
