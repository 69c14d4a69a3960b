"""Test-only reference model of the kernel-trace oracle.

This is the straightforward O(n)-per-event replay the production
:class:`repro.check.oracles.KernelTraceOracle` started from: it scans
every CPU and priority level to locate a thread, keeps empty levels
around, and dispatches handlers by building method names from the
topic.  The verdict-equality tests require the production oracle to
report exactly the same violation list on every stream, well-formed or
not.
"""

from collections import deque

from repro.check.oracles import _violation


class ReferenceKernelTraceOracle:
    """Replays ``kernel.*`` events against a model run-queue.

    The model keeps, per CPU, a priority -> FIFO deque map plus the
    running thread, mirroring exactly what the kernel's scheduling
    class is *supposed* to do; every ``dispatch`` is checked against
    the model's own pick.
    """

    def __init__(self, n_cpus, max_violations=16):
        self.n_cpus = n_cpus
        self.max_violations = max_violations
        self.violations = []
        self._ready = [dict() for _ in range(n_cpus)]  # prio -> deque
        self._running = [None] * n_cpus
        self._prio = {}  # tid -> last known priority
        self._names = {}  # tid -> thread name
        self._group_time = None
        self._group_cpus = set()

    # -- model helpers -------------------------------------------------

    def _fail(self, oracle, time, detail):
        if len(self.violations) < self.max_violations:
            self.violations.append(_violation(oracle, time, detail))

    def _queue(self, cpu, prio):
        return self._ready[cpu].setdefault(prio, deque())

    def _locate(self, tid):
        """(cpu, prio) of a queued tid, or None."""
        for cpu in range(self.n_cpus):
            for prio, queue in self._ready[cpu].items():
                if tid in queue:
                    return cpu, prio
        return None

    def _remove_everywhere(self, tid):
        for cpu in range(self.n_cpus):
            if self._running[cpu] == tid:
                self._running[cpu] = None
            for queue in self._ready[cpu].values():
                if tid in queue:
                    queue.remove(tid)

    def _top_prio(self, cpu):
        live = [p for p, q in self._ready[cpu].items() if q]
        return max(live) if live else None

    def _name(self, tid):
        return self._names.get(tid, f"tid{tid}")

    # -- event replay --------------------------------------------------

    def on_event(self, topic, time, data):
        if not topic.startswith("kernel."):
            return
        kind = topic[len("kernel."):]
        handler = getattr(self, "_on_" + kind, None)
        if handler is None:
            return
        if self._group_time is not None and time != self._group_time:
            self._settle()
        self._group_time = time
        tid = data.get("tid")
        if tid is not None and "thread" in data:
            self._names[tid] = data["thread"]
        handler(time, data)
        cpu = data.get("cpu")
        if cpu is not None:
            self._group_cpus.add(cpu)

    def _settle(self):
        """End of one simulated instant: steady-state invariants."""
        time = self._group_time
        for cpu in self._group_cpus:
            top = self._top_prio(cpu)
            if top is None:
                continue
            running = self._running[cpu]
            if running is None:
                self._fail(
                    "work_conservation", time,
                    f"cpu{cpu} idle with prio {top} ready "
                    f"({self._name(self._ready[cpu][top][0])})",
                )
            elif self._prio.get(running, 0) < top:
                self._fail(
                    "priority_conformance", time,
                    f"cpu{cpu} runs {self._name(running)} at prio "
                    f"{self._prio.get(running)} while prio {top} ready",
                )
        self._group_cpus = set()

    def finish(self):
        """Flush the last instant; returns the violation list."""
        if self._group_time is not None:
            self._settle()
        return self.violations

    # -- handlers (one per kernel.* topic the model cares about) -------

    def _on_spawn(self, time, data):
        self._prio[data["tid"]] = data["prio"]

    def _on_ready(self, time, data):
        tid, cpu, prio = data["tid"], data["cpu"], data["prio"]
        where = self._locate(tid)
        if where is not None:
            self._fail("fifo_order", time,
                       f"{self._name(tid)} made ready twice")
            self._remove_everywhere(tid)
        if self._running[cpu] == tid:
            self._running[cpu] = None
        self._prio[tid] = prio
        self._queue(cpu, prio).append(tid)

    def _on_preempt(self, time, data):
        tid, cpu, prio = data["tid"], data["cpu"], data["prio"]
        if self._running[cpu] != tid:
            self._fail("fifo_order", time,
                       f"preempt of {self._name(tid)} not running on "
                       f"cpu{cpu}")
            self._remove_everywhere(tid)
        else:
            self._running[cpu] = None
        self._prio[tid] = prio
        self._queue(cpu, prio).appendleft(tid)

    def _on_yield(self, time, data):
        tid, cpu, prio = data["tid"], data["cpu"], data["prio"]
        if self._running[cpu] == tid:
            self._running[cpu] = None
        self._prio[tid] = prio
        self._queue(cpu, prio).append(tid)

    def _on_dispatch(self, time, data):
        tid, cpu, prio = data["tid"], data["cpu"], data["prio"]
        if self._running[cpu] is not None:
            self._fail(
                "fifo_order", time,
                f"dispatch on busy cpu{cpu} "
                f"({self._name(self._running[cpu])} still running)",
            )
        top = self._top_prio(cpu)
        if top is None:
            self._fail("fifo_order", time,
                       f"dispatch of {self._name(tid)} from empty "
                       f"cpu{cpu} queue")
        else:
            expected = self._ready[cpu][top][0]
            if expected != tid or top != prio:
                self._fail(
                    "fifo_order", time,
                    f"cpu{cpu} dispatched {self._name(tid)} (prio "
                    f"{prio}) but head of queue is "
                    f"{self._name(expected)} (prio {top})",
                )
        where = self._locate(tid)
        if where is not None:
            self._ready[where[0]][where[1]].remove(tid)
        self._running[cpu] = tid
        self._prio[tid] = prio

    def _on_block(self, time, data):
        tid, cpu = data["tid"], data["cpu"]
        if self._running[cpu] == tid:
            self._running[cpu] = None
        else:
            self._remove_everywhere(tid)

    def _on_thread_exit(self, time, data):
        self._remove_everywhere(data["tid"])

    def _on_migrate(self, time, data):
        # the follow-up kernel.ready re-adds the thread on the new CPU
        self._remove_everywhere(data["tid"])

    def _on_setscheduler(self, time, data):
        self._prio[data["tid"]] = data["prio"]

    def _on_prio_boost(self, time, data):
        tid, prio = data["tid"], data["prio"]
        where = self._locate(tid)
        if where is not None:
            # requeue discipline: out at the old level, tail of the new
            self._ready[where[0]][where[1]].remove(tid)
            self._queue(where[0], prio).append(tid)
        self._prio[tid] = prio

    def _on_prio_restore(self, time, data):
        self._prio[data["tid"]] = data["prio"]


def reference_check_kernel_trace(events, n_cpus):
    """:func:`repro.check.oracles.check_kernel_trace` over the model."""
    oracle = ReferenceKernelTraceOracle(n_cpus)
    for topic, time, data in events:
        oracle.on_event(topic, time, data)
    return oracle.finish()
