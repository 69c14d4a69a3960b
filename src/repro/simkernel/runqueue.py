"""SCHED_FIFO priority range of the per-CPU run queues.

Figure 5 of the paper shows the kernel-space structure RT-Seed relies on:
per-CPU FIFO thread queues with 99 priority levels, larger priority
values denoting higher priority, plus a bitmap for O(1) lookup of the
highest non-empty level (the same trick Linux's rt scheduling class
uses).  The structure itself is
:class:`repro.engine.readyqueue.IndexedLevelQueue`; the kernel never
builds it directly — dispatch goes through the
:class:`~repro.engine.classes.Fifo99Class` scheduling class, whose
``make_queue`` produces one per CPU over the range defined here.
"""

#: Number of real-time priority levels (1..99), as in Linux SCHED_FIFO.
NR_RT_PRIORITIES = 99

#: Lowest valid SCHED_FIFO priority.
MIN_RT_PRIO = 1

#: Highest valid SCHED_FIFO priority.
MAX_RT_PRIO = 99


__all__ = [
    "NR_RT_PRIORITIES",
    "MIN_RT_PRIO",
    "MAX_RT_PRIO",
]
