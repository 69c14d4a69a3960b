"""Exception types for the simulated kernel.

Hierarchy
---------

``SimKernelError`` is the common base of everything the simulated
kernel (and the layers built on it) raises deliberately.  Below it the
tree splits into three branches that callers must be able to tell
apart:

* **user/protocol bugs** — :class:`SimulationError` and its subclasses
  (:class:`DeadlockError`, :class:`SchedulingError`,
  :class:`SyscallError`): the simulation detected broken middleware or
  application code.  These should *propagate* — hiding them hides bugs.
* **injected faults** — :class:`InjectedFaultError`: a failure that the
  fault-injection subsystem (:mod:`repro.faults`) manufactured on
  purpose (broker disconnect, forced outage).  Hardened layers catch
  *this* branch specifically and degrade gracefully; a bare
  ``except Exception`` can no longer confuse a manufactured outage with
  a genuine bug.
* **controlled aborts** — :class:`JobAbortError`: a hardened layer
  decided to give up on the current *job* (not the process) because its
  deadline budget ran out; the middleware protocol catches it, records
  the abort, and continues with the next job.

:class:`InvariantViolationError` sits under :class:`SimulationError`:
an invariant check failing after a fault means the *kernel model* (not
the injected fault) is broken.
"""

from repro.engine.readyqueue import ReadyQueueError


class SimKernelError(Exception):
    """Common base for every deliberate error in the simulated stack."""


class SimulationError(SimKernelError):
    """Base class for user/protocol bugs the simulation detects.

    Kept as the historical name; everything that indicates *broken
    code under test* (as opposed to an injected fault or a controlled
    abort) derives from here.
    """


class DeadlockError(SimulationError):
    """The event queue drained while threads were still blocked.

    Carries a human-readable diagnosis of which threads are stuck and on
    what, so middleware bugs (lost wake-ups, forgotten timers) surface with
    an actionable message instead of a silent hang.
    """

    def __init__(self, message, blocked_threads=()):
        super().__init__(message)
        self.blocked_threads = tuple(blocked_threads)


class SchedulingError(SimulationError, ReadyQueueError):
    """An invalid scheduling request (bad priority, unknown CPU, ...).

    Subclasses :class:`~repro.engine.readyqueue.ReadyQueueError` so
    callers catching the engine-level error also catch kernel-level
    scheduling violations."""


class SyscallError(SimulationError):
    """A syscall request was malformed or issued in an invalid state."""


class InvariantViolationError(SimulationError):
    """A kernel/run-queue state invariant does not hold.

    Raised by :func:`repro.faults.invariants.check_kernel_invariants`:
    after an injected fault the scheduler state must still be
    self-consistent — a violation means the *simulation model* broke,
    not the workload.  Carries the individual findings.
    """

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class InjectedFaultError(SimKernelError):
    """Base for failures manufactured by the fault-injection subsystem.

    Hardened middleware/trading code catches this branch (or a specific
    subclass such as
    :class:`repro.trading.broker.BrokerDisconnectedError`) to degrade
    gracefully; it deliberately does *not* subclass
    :class:`SimulationError`, so diagnostics that let protocol bugs
    propagate still do.
    """


class JobAbortError(SimKernelError):
    """A hardened layer aborted the current job within its budget.

    Raised by e.g. the retry-with-deadline-budget fetch wrapper when no
    further retry fits in the slack before the optional deadline.  The
    middleware protocol treats it as a *controlled* per-job failure:
    the job's optional parts are discarded, the abort is published as
    ``rtseed.job_abort``, and the process moves on to the next job.

    :param reason: human-readable cause (carried into probe payloads).
    """

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


class SignalUnwind(BaseException):
    """Thrown into a thread's coroutine to model ``siglongjmp`` unwinding.

    The paper terminates overrunning parallel optional parts by having the
    ``SIGALRM`` handler call ``siglongjmp`` back to the ``sigsetjmp`` point
    (Figure 7).  In the coroutine world the kernel models this by throwing
    ``SignalUnwind`` into the generator at the interruption point; it
    propagates out of the optional-part body exactly as the longjmp unwinds
    the C stack.  It subclasses :class:`BaseException` so ordinary
    ``except Exception`` blocks inside user code cannot swallow it by
    accident — only the strategy code that models the ``sigsetjmp`` site
    catches it.

    :param signum: signal number whose handler initiated the unwind.
    :param restore_mask: whether the unwind restores the saved signal mask
        (``siglongjmp`` from a ``sigsetjmp(..., savemask=1)`` does; a C++
        ``try``/``catch`` termination does *not* — Table I of the paper).
    :param forced: True when the unwind was injected by the overrun
        watchdog (:class:`repro.core.resilience.OverrunWatchdog`) rather
        than by an armed timer's signal delivery.
    :param abandoned: CPU work (ns) of the interrupted ``Compute`` that
        the unwind discarded — what was left of it at delivery.  A part
        issued as one ``Compute`` derives its progress from this.
    """

    def __init__(self, signum, restore_mask=True, forced=False,
                 abandoned=0.0):
        super().__init__(f"signal {signum} unwind")
        self.signum = signum
        self.restore_mask = restore_mask
        self.forced = forced
        self.abandoned = abandoned
