"""Trace-level invariant oracles, checkable on any single run.

These replay the ``kernel.*`` / ``rtseed.*`` probe streams of one
middleware run against an independent model of what a POSIX SCHED_FIFO
scheduler must do.  They need no reference implementation, so — unlike
the differential — they stay valid under fault injection, non-zero cost
models, or any other perturbation.

Oracle catalogue (see docs/CHECKING.md):

* **priority conformance** — after the events of each instant settle, no
  CPU runs a thread while a higher-priority thread sits ready on the
  same CPU;
* **work conservation** — no CPU idles while its run queue is non-empty;
* **FIFO tie-break** — every dispatch pops the *head* of the highest
  non-empty priority level (``ready`` enqueues at the tail, ``preempt``
  re-enqueues at the head, ``yield`` at the tail, priority-inheritance
  boosts re-enqueue at the new level's tail);
* **no lost wakeups** — every job whose optional parts were signalled
  sees all of them end before its wind-up begins (a lost wakeup either
  deadlocks the run or breaks this ordering);
* **signal-mask discipline** — after the run, every thread that
  installed an unwind handler still *blocks* ``SIGALRM``: the hardened
  sigsetjmp strategy opens the delivery window only while an optional
  body runs, so an unblocked mask at exit means the window was left
  open and a stale timer signal could unwind protocol code;
* **termination** — every spawned thread reached TERMINATED (a
  :class:`~repro.simkernel.errors.DeadlockError` from the kernel is
  reported as a liveness violation by the runner).
"""

from collections import deque

from repro.simkernel.signals import SIGALRM
from repro.simkernel.thread import ThreadState


class OracleViolation(Exception):
    """Raised internally; the checker reports violations as data."""


def _violation(oracle, time, detail):
    return {"oracle": oracle, "time": time, "detail": detail}


class KernelTraceOracle:
    """Replays ``kernel.*`` events against a model run-queue.

    The model keeps, per CPU, a priority -> FIFO deque map plus the
    running thread, mirroring exactly what the kernel's scheduling
    class is *supposed* to do; every ``dispatch`` is checked against
    the model's own pick.

    Every event costs O(1) model work: a tid -> queued-locations index
    replaces scanning each CPU's levels, empty priority levels are
    deleted so the top priority is ``max(levels)``, and handlers are
    looked up in a topic-keyed table.  Malformed streams (a tid queued
    twice, running on two CPUs) keep their multiset semantics: the
    index holds every queued occurrence, and a thread queued at several
    places is located at the lowest CPU, then the level that CPU used
    first.
    """

    def __init__(self, n_cpus, max_violations=16):
        self.n_cpus = n_cpus
        self.max_violations = max_violations
        self.violations = []
        self._ready = [dict() for _ in range(n_cpus)]  # prio -> deque
        #: per CPU, prio -> order of the level's first use (never
        #: deleted): the tie-break among a tid's queued locations
        self._rank = [dict() for _ in range(n_cpus)]
        self._where = {}  # tid -> [(cpu, prio), ...] queued occurrences
        self._running = [None] * n_cpus
        self._running_on = {}  # tid -> set of CPUs it runs on
        self._prio = {}  # tid -> last known priority
        self._names = {}  # tid -> thread name
        self._group_time = None
        self._group_cpus = set()
        self._handlers = {
            "kernel.spawn": self._on_spawn,
            "kernel.ready": self._on_ready,
            "kernel.preempt": self._on_preempt,
            "kernel.yield": self._on_yield,
            "kernel.dispatch": self._on_dispatch,
            "kernel.block": self._on_block,
            "kernel.thread_exit": self._on_thread_exit,
            "kernel.migrate": self._on_migrate,
            "kernel.setscheduler": self._on_setscheduler,
            "kernel.prio_boost": self._on_prio_boost,
            "kernel.prio_restore": self._on_prio_restore,
        }

    # -- model helpers -------------------------------------------------

    def _fail(self, oracle, time, detail):
        if len(self.violations) < self.max_violations:
            self.violations.append(_violation(oracle, time, detail))

    def _enqueue(self, tid, cpu, prio, head=False):
        levels = self._ready[cpu]
        queue = levels.get(prio)
        if queue is None:
            queue = levels[prio] = deque()
            self._rank[cpu].setdefault(prio, len(self._rank[cpu]))
        if head:
            queue.appendleft(tid)
        else:
            queue.append(tid)
        self._where.setdefault(tid, []).append((cpu, prio))

    def _unqueue(self, tid, where):
        """Remove ``tid``'s first occurrence at ``where`` = (cpu, prio)."""
        cpu, prio = where
        queue = self._ready[cpu][prio]
        queue.remove(tid)
        if not queue:
            del self._ready[cpu][prio]
        locations = self._where[tid]
        locations.remove(where)
        if not locations:
            del self._where[tid]

    def _locate(self, tid):
        """(cpu, prio) of a queued tid, or None."""
        locations = self._where.get(tid)
        if not locations:
            return None
        if len(locations) == 1:
            return locations[0]
        rank = self._rank
        return min(locations,
                   key=lambda where: (where[0], rank[where[0]][where[1]]))

    def _set_running(self, cpu, tid):
        old = self._running[cpu]
        if old is not None:
            cpus = self._running_on[old]
            cpus.discard(cpu)
            if not cpus:
                del self._running_on[old]
        self._running[cpu] = tid
        if tid is not None:
            self._running_on.setdefault(tid, set()).add(cpu)

    def _remove_everywhere(self, tid):
        """Stop ``tid`` running anywhere and drop one queued occurrence
        per (cpu, prio) level holding it."""
        for cpu in list(self._running_on.get(tid, ())):
            self._set_running(cpu, None)
        for where in set(self._where.get(tid, ())):
            self._unqueue(tid, where)

    def _top_prio(self, cpu):
        levels = self._ready[cpu]
        return max(levels) if levels else None

    def _name(self, tid):
        return self._names.get(tid, f"tid{tid}")

    # -- event replay --------------------------------------------------

    def on_event(self, topic, time, data):
        handler = self._handlers.get(topic)
        if handler is None:
            return
        if time != self._group_time:
            if self._group_time is not None:
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
        if tid in self._where:
            self._fail("fifo_order", time,
                       f"{self._name(tid)} made ready twice")
            self._remove_everywhere(tid)
        if self._running[cpu] == tid:
            self._set_running(cpu, None)
        self._prio[tid] = prio
        self._enqueue(tid, cpu, prio)

    def _on_preempt(self, time, data):
        tid, cpu, prio = data["tid"], data["cpu"], data["prio"]
        if self._running[cpu] != tid:
            self._fail("fifo_order", time,
                       f"preempt of {self._name(tid)} not running on "
                       f"cpu{cpu}")
            self._remove_everywhere(tid)
        else:
            self._set_running(cpu, None)
        self._prio[tid] = prio
        self._enqueue(tid, cpu, prio, head=True)

    def _on_yield(self, time, data):
        tid, cpu, prio = data["tid"], data["cpu"], data["prio"]
        if self._running[cpu] == tid:
            self._set_running(cpu, None)
        self._prio[tid] = prio
        self._enqueue(tid, cpu, prio)

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
            self._unqueue(tid, where)
        self._set_running(cpu, tid)
        self._prio[tid] = prio

    def _on_block(self, time, data):
        tid, cpu = data["tid"], data["cpu"]
        if self._running[cpu] == tid:
            self._set_running(cpu, None)
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
            self._unqueue(tid, where)
            self._enqueue(tid, where[0], prio)
        self._prio[tid] = prio

    def _on_prio_restore(self, time, data):
        self._prio[data["tid"]] = data["prio"]


def check_kernel_trace(events, n_cpus):
    """Run :class:`KernelTraceOracle` over recorded probe events."""
    oracle = KernelTraceOracle(n_cpus)
    for topic, time, data in events:
        oracle.on_event(topic, time, data)
    return oracle.finish()


def check_protocol(events, scenario):
    """No-lost-wakeup / protocol-completeness oracle over ``rtseed.*``.

    For every job: ``signals_done`` implies all ``n_parallel`` optional
    parts end before the wind-up begins, and every registered job
    reaches ``job_done`` (or ``job_abort``).
    """
    violations = []
    specs = {task.name: task for task in scenario.tasks}
    jobs = {}
    for topic, time, data in events:
        if not topic.startswith("rtseed."):
            continue
        kind = topic[len("rtseed."):]
        key = (data["task"], data["job"])
        state = jobs.setdefault(
            key, {"signalled": False, "ended": 0, "windup": None,
                  "done": False},
        )
        if kind == "signals_done":
            state["signalled"] = True
        elif kind == "optional_end":
            state["ended"] += 1
        elif kind == "windup_begin":
            state["windup"] = time
            spec = specs[data["task"]]
            if state["signalled"] and state["ended"] < spec.n_parallel:
                violations.append(_violation(
                    "lost_wakeup", time,
                    f"{key[0]}#{key[1]}: wind-up began with only "
                    f"{state['ended']}/{spec.n_parallel} optional "
                    f"parts ended",
                ))
        elif kind in ("job_done", "job_abort"):
            state["done"] = True

    for task in scenario.tasks:
        for job in range(task.n_jobs):
            state = jobs.get((task.name, job))
            if state is None or not state["done"]:
                violations.append(_violation(
                    "protocol_completeness", None,
                    f"{task.name}#{job} never reached job_done",
                ))
    return violations


def check_final_state(kernel, restores_mask=True):
    """Post-run state oracle: every thread terminated, masks disciplined.

    The hardened :class:`~repro.core.termination.SigjmpTermination`
    keeps ``SIGALRM`` *blocked* everywhere outside the optional-part
    window (stale timer deliveries must never unwind protocol code), so
    any thread that installed an unwind handler must finish with the
    window closed — ``SIGALRM`` still in its mask.  An open window at
    exit means the strategy forgot to re-block after a part, exactly
    the regression that reintroduces the stale-signal thread kill.
    """
    from repro.simkernel.signals import UnwindDisposition

    violations = []
    for thread in kernel.threads:
        if thread.state is not ThreadState.TERMINATED:
            violations.append(_violation(
                "liveness", kernel.now,
                f"{thread.name} ended {thread.state.value}, blocked on "
                f"{thread.blocked_on!r}",
            ))
        has_unwind_handler = any(
            isinstance(disposition, UnwindDisposition)
            for disposition in thread.signal_handlers.values()
        )
        if (restores_mask and has_unwind_handler
                and SIGALRM not in thread.signal_mask):
            violations.append(_violation(
                "signal_mask", kernel.now,
                f"{thread.name} finished with the SIGALRM termination "
                f"window open (mask not restored)",
            ))
    return violations
