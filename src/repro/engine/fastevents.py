"""Fast discrete-event engine: slotted record core.

The reference engine (:mod:`repro.engine.events`) allocates one
:class:`~repro.engine.events.Event` object per schedule and re-inspects
the heap top twice per event (``peek_time`` then ``step``).  That is the
right shape for a checking backend — every invariant is asserted, every
record is a real object with a repr — but it is pure overhead on the hot
path, where ``fig10_mandatory`` schedules ~270k events per run.

:class:`FastEngine` keeps the reference engine's *semantics* (ordering
by ``(time, priority, seq)``, FIFO among equals via the monotone seq,
lazy cancellation with the same half-dead compaction rule) while
replacing its *representation*:

* an event is a plain 5-list record ``[time, prio, seq, callback,
  state]`` pushed directly onto the heap — list comparison stops at the
  unique ``seq``, so the callback is never compared and no ``__lt__``
  dispatch or tuple-wrapping happens;
* ``state`` is an int flag (``0`` pending, ``1`` cancelled-in-heap,
  ``2`` executed/swept) replacing the ``cancelled``/``_in_heap``
  attribute pair;
* :meth:`FastEngine.run` is a single inlined loop — one heap-top
  inspection per event, locals bound outside the loop — and the probe
  emit decision is hoisted out of the loop into a pre-bound stub
  sampled once at entry (subscribe to the bus *before* running; the
  kernel's own ``kernel.*`` sites are unaffected, they guard per call).

Because seq assignment, event ordering and the clock arithmetic are
identical to the reference engine, a seeded run produces byte-identical
``kernel.*``/``rtseed.*`` probe streams on either backend — enforced by
``repro check --engine-diff``.

The fast backend skips the reference engine's defensive checks (past
timestamp on ``step``); :mod:`repro.engine.events` remains the checking
implementation and the oracle.
"""

import heapq

from repro.engine.events import _COMPACT_MIN_CANCELLED

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Record state flags.
_PENDING = 0
_CANCELLED = 1
_DONE = 2


class FastEngine:
    """Drop-in replacement for :class:`repro.engine.events.Engine`.

    Same public surface: ``now``, ``probes``, ``events_processed``,
    ``pending_count``, ``heap_size``, ``schedule_at`` /
    ``schedule_after`` / ``cancel`` / ``peek_time`` / ``step`` /
    ``run``.  The handle returned by the schedule methods is the raw
    record (a list), opaque to callers — the kernel and simulator only
    ever store it and pass it back to :meth:`cancel`.
    """

    def __init__(self, start_time=0.0):
        self.now = float(start_time)
        self._heap = []
        self._seq = 0
        self._events_processed = 0
        self._pending = 0
        self._cancelled = 0
        # telemetry tallies, identical shape to the reference engine's
        # (see Engine.counters); kept to two dict increments and one
        # length compare on the schedule/cancel paths — the drain loop
        # itself is untouched.
        self._scheduled_by_priority = {}
        self._cancelled_by_priority = {}
        self._peak_heap = 0
        self._compactions = 0
        self._swept_total = 0
        #: optional probe bus (duck-typed), same contract as the
        #: reference engine — but :meth:`run` samples
        #: ``probes.want_engine`` once at entry instead of per event.
        self.probes = None

    @property
    def events_processed(self):
        return self._events_processed

    @property
    def pending_count(self):
        return self._pending

    @property
    def heap_size(self):
        return len(self._heap)

    def counters(self):
        """Telemetry counters, same shape as ``Engine.counters`` (the
        per-priority pending scan reads record state flags instead of
        ``Event`` attributes)."""
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
        """Schedule ``callback()`` at absolute ``time`` (see reference)."""
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
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, callback,
                                priority=priority)

    def cancel(self, record):
        """Cancel a pending record.  Cancelling twice (or cancelling an
        executed record) is a no-op, as in the reference engine."""
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
        """Rebuild the heap without cancelled records (same rule and
        probe payload as the reference compactor).  The rebuild is
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
        heap = self._heap
        while heap and heap[0][4] == _CANCELLED:
            heapq.heappop(heap)[4] = _DONE
            self._cancelled -= 1

    def peek_time(self):
        """Time of the next pending record, or ``None``."""
        self._pop_cancelled_top()
        heap = self._heap
        if not heap:
            return None
        return heap[0][0]

    def step(self):
        """Execute the next pending record; ``False`` when drained."""
        heap = self._heap
        while heap:
            record = heapq.heappop(heap)
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
        """Drain the queue — the inlined hot loop.

        Semantically identical to the reference ``run`` (same stop
        conditions, same return value) but with one heap inspection per
        event and the probe decision hoisted: ``probes.want_engine`` is
        sampled once at entry and rebound after every callback batch
        boundary is *not* needed because subscription happens before
        running (documented bus contract).
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
