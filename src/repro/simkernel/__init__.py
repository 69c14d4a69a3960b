"""Simulated Linux kernel substrate for the RT-Seed reproduction.

The paper's middleware runs in user space on Linux, relying on the
``SCHED_FIFO`` scheduling class, POSIX threads, POSIX timers, and signal
delivery.  This package reproduces that substrate as a deterministic
discrete-event simulation:

* :mod:`repro.engine.events` — event queue and simulated clock (shared
  with the theory-level simulator).
* :mod:`repro.simkernel.cpu` — cores / hardware threads with SMT
  rate-sharing (the Xeon Phi's 4-way in-order SMT is modelled by
  :class:`~repro.simkernel.cpu.Topology`).
* :mod:`repro.simkernel.runqueue` — the 99-level SCHED_FIFO range of
  the per-CPU run queues (the paper's Figure 5: a FIFO list per level
  plus a priority bitmap, :class:`repro.engine.readyqueue.IndexedLevelQueue`).
* :mod:`repro.simkernel.thread` — kernel threads wrapping Python
  generator coroutines that ``yield`` syscall requests.
* :mod:`repro.simkernel.syscalls` — the syscall request vocabulary
  (``Compute``, ``ClockNanosleep``, ``CondWait``, ``TimerSettime``, ...).
* :mod:`repro.simkernel.sync` — mutexes and condition variables with
  POSIX (Mesa) semantics.
* :mod:`repro.simkernel.timers` — one-shot ``CLOCK_REALTIME`` timers.
* :mod:`repro.simkernel.signals` — signal numbers, dispositions, and the
  ``sigsetjmp``/``siglongjmp`` unwinding analog used for terminating
  parallel optional parts.
* :mod:`repro.simkernel.kernel` — the kernel proper: dispatch,
  preemption, syscall processing, background-load occupancy.
* :mod:`repro.simkernel.costmodel` — hook for injecting per-event
  micro-costs (context switches, signal sends, timer handlers); the
  default charges zero so logic tests are exact.
"""

from repro.simkernel.costmodel import CostModel, ZeroCostModel
from repro.simkernel.cpu import Core, HardwareThread, Topology
from repro.engine.events import Engine
from repro.simkernel.errors import (
    DeadlockError,
    InjectedFaultError,
    InvariantViolationError,
    JobAbortError,
    SimKernelError,
    SimulationError,
    SignalUnwind,
)
from repro.simkernel.kernel import Kernel
from repro.simkernel.signals import (
    SIG_DFL,
    SIG_IGN,
    SIGALRM,
    SIGTERM,
    SIGUSR1,
    UnwindDisposition,
)
from repro.simkernel.sync import CondVar, Mutex
from repro.simkernel.syscalls import (
    ClockNanosleep,
    Compute,
    CondBroadcast,
    CondSignal,
    CondWait,
    Exit,
    GetCpu,
    GetTime,
    MutexLock,
    MutexUnlock,
    SchedSetAffinity,
    SchedSetScheduler,
    SchedYield,
    SetSignalMask,
    Sigaction,
    TimerSettime,
)
from repro.simkernel.thread import KernelThread, SchedPolicy, ThreadState
from repro.simkernel.timers import KTimer
from repro.simkernel.trace import Tracer, TraceRecord
from repro.simkernel.time_units import (
    MSEC,
    NSEC_PER_MSEC,
    NSEC_PER_SEC,
    NSEC_PER_USEC,
    SEC,
    USEC,
    from_seconds,
    to_seconds,
)

__all__ = [
    "CostModel",
    "ZeroCostModel",
    "Core",
    "HardwareThread",
    "Topology",
    "Engine",
    "DeadlockError",
    "InjectedFaultError",
    "InvariantViolationError",
    "JobAbortError",
    "SimKernelError",
    "SimulationError",
    "SignalUnwind",
    "Kernel",
    "SIG_DFL",
    "SIG_IGN",
    "SIGALRM",
    "SIGTERM",
    "SIGUSR1",
    "UnwindDisposition",
    "CondVar",
    "Mutex",
    "ClockNanosleep",
    "Compute",
    "CondBroadcast",
    "CondSignal",
    "CondWait",
    "Exit",
    "GetCpu",
    "GetTime",
    "MutexLock",
    "MutexUnlock",
    "SchedSetAffinity",
    "SchedSetScheduler",
    "SchedYield",
    "SetSignalMask",
    "Sigaction",
    "TimerSettime",
    "KernelThread",
    "SchedPolicy",
    "ThreadState",
    "KTimer",
    "Tracer",
    "TraceRecord",
    "MSEC",
    "NSEC_PER_MSEC",
    "NSEC_PER_SEC",
    "NSEC_PER_USEC",
    "SEC",
    "USEC",
    "from_seconds",
    "to_seconds",
]
