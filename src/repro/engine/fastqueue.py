"""Fast indexed-level ready queue: deque-per-level + inline int bitmap.

The reference :class:`~repro.engine.readyqueue.IndexedLevelQueue` models
Figure 5 literally — an intrusive circular list per priority level (one
``_Node`` allocation per enqueue) behind a :class:`PriorityBitmap`
object.  :class:`FastLevelQueue` keeps the same discipline and public
surface but swaps the representation for what is fastest in CPython:

* one :class:`collections.deque` (C-implemented, O(1) at both ends) per
  level — no node allocation, no Python-level pointer surgery;
* the bitmap inlined as a plain int attribute (``bits.bit_length()-1``
  is find-highest), saving a method dispatch per operation;
* levels built on first enqueue, as in the reference queue.

FIFO order within a level, ``at_head`` re-insertion for preempted
threads, and the ``rq.enqueue`` / ``rq.dequeue`` / ``rq.pop`` probe
payloads are identical to the reference queue, so dispatch order — and
therefore every downstream ``kernel.*`` event — is byte-identical
between backends.

What the fast queue deliberately drops are the *defensive* checks:
duplicate enqueue and out-of-range priorities are not detected (the
kernel never produces either — ``repro check --engine-diff`` runs the
same scenarios through the reference queue, which does check).
``dequeue`` of an absent item still raises
:class:`~repro.engine.readyqueue.ReadyQueueError` (it surfaces real
kernel bugs and costs nothing on the success path).
"""

from collections import deque

from repro.engine.readyqueue import ReadyQueueError


class FastLevelQueue:
    """Drop-in replacement for
    :class:`~repro.engine.readyqueue.IndexedLevelQueue` (same public
    surface: ``enqueue`` / ``dequeue`` / ``peek`` / ``pop`` /
    ``highest_priority`` / ``items_at`` / len / bool / iteration /
    ``probes``)."""

    def __init__(self, min_prio, max_prio, cpu_id=0):
        self.cpu_id = cpu_id
        self.min_prio = min_prio
        self.max_prio = max_prio
        #: prio -> deque, for levels that were ever used
        self._levels = {}
        self._bits = 0
        self._count = 0
        # depth high-water marks, same telemetry as the reference
        # queue's (see IndexedLevelQueue.counters).
        self._peak_depth = 0
        self._level_peaks = {}
        #: optional probe bus (duck-typed), as in the reference queue.
        self.probes = None

    def __len__(self):
        return self._count

    def __bool__(self):
        return self._count > 0

    def __iter__(self):
        """Items highest level first, FIFO within a level."""
        bits = self._bits
        levels = self._levels
        for prio in range(self.max_prio, self.min_prio - 1, -1):
            if bits >> prio & 1:
                yield from levels[prio]

    def enqueue(self, item, prio, at_head=False):
        level = self._levels.get(prio)
        if level is None:
            level = self._levels[prio] = deque()
            self._level_peaks[prio] = 0
        if at_head:
            level.appendleft(item)
        else:
            level.append(item)
        self._bits |= 1 << prio
        self._count += 1
        if self._count > self._peak_depth:
            self._peak_depth = self._count
        level_len = len(level)
        if level_len > self._level_peaks[prio]:
            self._level_peaks[prio] = level_len
        probes = self.probes
        if probes is not None and probes.want_rq:
            probes.publish("rq.enqueue", cpu=self.cpu_id, prio=prio,
                           depth=self._count)

    def dequeue(self, item, prio):
        try:
            level = self._levels[prio]
            level.remove(item)
        except (KeyError, ValueError):
            raise ReadyQueueError(f"{item!r} not enqueued") from None
        if not level:
            self._bits &= ~(1 << prio)
        self._count -= 1
        probes = self.probes
        if probes is not None and probes.want_rq:
            probes.publish("rq.dequeue", cpu=self.cpu_id, prio=prio,
                           depth=self._count)

    def peek(self):
        """``(item, prio)`` of the most urgent ready item, or ``None``."""
        bits = self._bits
        if not bits:
            return None
        prio = bits.bit_length() - 1
        return self._levels[prio][0], prio

    def pop(self):
        """Remove and return ``(item, prio)`` of the most urgent item."""
        bits = self._bits
        if not bits:
            raise ReadyQueueError(
                f"run queue of CPU {self.cpu_id} empty"
            )
        prio = bits.bit_length() - 1
        level = self._levels[prio]
        item = level.popleft()
        if not level:
            self._bits = bits & ~(1 << prio)
        self._count -= 1
        probes = self.probes
        if probes is not None and probes.want_rq:
            probes.publish("rq.pop", cpu=self.cpu_id, prio=prio,
                           depth=self._count)
        return item, prio

    def highest_priority(self):
        """Priority of the most urgent ready item, or ``None``."""
        bits = self._bits
        if not bits:
            return None
        return bits.bit_length() - 1

    def items_at(self, prio):
        """Snapshot (list) of items queued at ``prio``, head first."""
        return list(self._levels.get(prio, ()))

    def counters(self):
        """JSON-ready depth telemetry, identical shape to
        ``IndexedLevelQueue.counters``."""
        return {
            "cpu": self.cpu_id,
            "depth": self._count,
            "peak_depth": self._peak_depth,
            "level_peaks": {
                str(prio): self._level_peaks[prio]
                for prio in sorted(self._level_peaks)
            },
        }

    #: Historical alias used by kernel diagnostics (FifoRunQueue had it).
    threads_at = items_at
