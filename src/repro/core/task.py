"""The user-facing ``Task`` API (Section IV-C).

The paper implements a parallel-extended imprecise task as ``class Task``
with three primary member functions; this module is the Python analog:

* :meth:`Task.exec_mandatory` — the mandatory part,
* :meth:`Task.exec_optional` — one parallel optional part,
* :meth:`Task.exec_windup` — the wind-up part.

Each is a *generator* receiving a :class:`TaskContext` and yielding
simulated-kernel requests (usually ``ctx.compute(...)``).  Optional
parts must be written so that termination at any yield point is safe:
no resource reservation, no lock acquisition — pure CPU-bound
refinement, exactly the restriction Section IV-D imposes on
``sigsetjmp``/``siglongjmp`` termination.

Results flow through :meth:`TaskContext.publish` /
:meth:`TaskContext.collect`: an optional part publishes whatever it has
refined so far after each chunk; the wind-up part collects whatever the
parts managed to publish before completion or termination.  That is the
imprecise-computation contract — a terminated part contributes its
latest (lower-QoS) published value.
"""

import math

from repro.simkernel.errors import SignalUnwind
from repro.simkernel.syscalls import Compute, GetCpu, GetTime


class TaskContext:
    """Per-job execution context handed to the part generators.

    Wraps the syscall vocabulary for user code and carries the
    publish/collect mailbox connecting optional parts to the wind-up
    part.

    :param any_time_termination: the Table I property of the process's
        termination strategy — true when an optional part can be cut at
        any instant (sigsetjmp, try-catch), so the points at which a
        part yields are unobservable to the strategy.
    """

    def __init__(self, task, job_index, release, optional_deadline,
                 deadline, any_time_termination=False):
        self.task = task
        self.job_index = job_index
        self.release = release
        self.optional_deadline = optional_deadline
        self.deadline = deadline
        self.any_time_termination = any_time_termination
        self._mailbox = {}
        #: free-form per-job scratch space: the mandatory part stashes
        #: inputs (e.g. the fetched market tick) here for the optional
        #: and wind-up parts.
        self.scratch = {}

    # -- syscall helpers (for readability in user code) ---------------------

    @staticmethod
    def compute(duration, tag=None):
        """CPU-bound work of ``duration`` nanoseconds."""
        return Compute(duration, tag=tag)

    @staticmethod
    def now():
        """Request the current simulated time."""
        return GetTime()

    @staticmethod
    def cpu():
        """Request the CPU id the caller runs on."""
        return GetCpu()

    # -- imprecise-computation mailbox ---------------------------------------

    def publish(self, part_index, value):
        """Record a part's latest (possibly partial) result.

        Safe at any point: assignment is atomic in the simulation, and a
        part terminated right after publishing simply leaves its latest
        value for the wind-up part.
        """
        self._mailbox[part_index] = value

    def collect(self):
        """All published results, keyed by part index (wind-up part)."""
        return dict(self._mailbox)


class Task:
    """A parallel-extended imprecise task (user subclass point).

    :param name: task name.
    :param period: period ``T`` in nanoseconds; ``D = T``.
    :param n_parallel: number of parallel optional parts ``np``.

    Subclasses override the three ``exec_*`` generators.  The default
    implementations do nothing (zero-length parts).
    """

    def __init__(self, name, period, n_parallel=1):
        if period <= 0:
            raise ValueError(f"{name}: period must be positive")
        if n_parallel < 1:
            raise ValueError(f"{name}: need at least one optional part")
        self.name = name
        self.period = float(period)
        self.deadline = float(period)
        self.n_parallel = n_parallel

    def exec_mandatory(self, ctx):
        """The mandatory part (generator).  Default: no work."""
        return
        yield  # pragma: no cover - makes this a generator

    def exec_optional(self, ctx, part_index):
        """One parallel optional part (generator).  Default: no work.

        Must be safe to terminate at any yield point: CPU-bound chunks
        only, publish partial results via ``ctx.publish``.
        """
        return
        yield  # pragma: no cover - makes this a generator

    def exec_windup(self, ctx):
        """The wind-up part (generator).  Default: no work."""
        return
        yield  # pragma: no cover - makes this a generator

    def __repr__(self):
        return (
            f"<{type(self).__name__} {self.name!r} T={self.period:.0f} "
            f"np={self.n_parallel}>"
        )


def check_chunk(name, chunk):
    """Reject a progress granularity that is not a positive finite
    duration (``None`` means "use the default").  Shared by the
    workload tasks, so ``0``, negatives and NaN fail at construction
    instead of mid-run."""
    if chunk is not None and not (math.isfinite(chunk) and chunk > 0):
        raise ValueError(f"{name}: chunk must be a positive finite "
                         f"duration, got {chunk}")


class WorkloadTask(Task):
    """A synthetic task with fixed part lengths — the evaluation workload.

    Section V-A: ``m = 250 ms``, ``o = 1 s`` (every optional part always
    overruns), ``w = 250 ms``, ``T = 1 s``.

    ``chunk`` sets two things only: the granularity at which a part
    publishes its progress (whole chunks finished), and the check points
    of a periodic-check strategy, which sees the part as one ``Compute``
    per chunk.  A strategy that can terminate at any instant (sigsetjmp,
    try-catch; ``ctx.any_time_termination``) cannot observe chunk
    boundaries, so the part runs as a single ``Compute`` and, if
    unwound, publishes the progress of the chunks it had finished
    before delivery — exactly what the chunked loop would have left in
    the mailbox.

    :param mandatory: mandatory WCET (ns).
    :param optional: per-part optional execution time (ns).
    :param windup: wind-up WCET (ns).
    :param chunk: progress granularity (ns); defaults to
        ``optional / 100`` (at least 1 ns).
    """

    def __init__(self, name, mandatory, optional, windup, period,
                 n_parallel=1, chunk=None):
        super().__init__(name, period, n_parallel=n_parallel)
        for label, value in (("mandatory", mandatory),
                             ("optional", optional), ("windup", windup)):
            if not math.isfinite(value):
                raise ValueError(f"{name}: {label} must be finite, "
                                 f"got {value}")
        if mandatory <= 0 or windup <= 0:
            raise ValueError(f"{name}: mandatory/wind-up must be positive")
        if optional < 0:
            raise ValueError(f"{name}: optional must be >= 0")
        check_chunk(name, chunk)
        self.mandatory = float(mandatory)
        self.optional = float(optional)
        self.windup = float(windup)
        self.chunk = float(chunk) if chunk else max(optional / 100.0, 1.0)

    def exec_mandatory(self, ctx):
        yield ctx.compute(self.mandatory, tag="mandatory")

    def exec_optional(self, ctx, part_index):
        tag = f"optional[{part_index}]"
        if not ctx.any_time_termination:
            # periodic check: every chunk boundary is a check point
            remaining = self.optional
            progress = 0.0
            chunk = self.chunk
            publish = ctx.publish
            while remaining > 0:
                step = chunk if chunk < remaining else remaining
                yield Compute(step, tag=tag)
                remaining -= step
                progress += step
                publish(part_index, progress)
            return
        if self.optional <= 0:
            return
        try:
            yield Compute(self.optional, tag=tag)
        except SignalUnwind as unwind:
            progress = self.chunk_progress(self.optional - unwind.abandoned)
            if progress > 0:
                ctx.publish(part_index, progress)
            raise
        ctx.publish(part_index, self.chunk_progress())

    def chunk_progress(self, done=None):
        """Progress the chunked loop publishes once ``done`` ns of the
        part have run: the sum of the whole chunks that ended strictly
        before ``done`` (a chunk ending exactly at delivery never got to
        publish), or of every chunk when ``done`` is ``None``.  The sum
        is accumulated chunk by chunk, as the loop does, so it is the
        same float.
        """
        remaining = self.optional
        progress = 0.0
        chunk = self.chunk
        while remaining > 0:
            step = chunk if chunk < remaining else remaining
            if done is not None and not progress + step < done:
                break
            remaining -= step
            progress += step
        return progress

    def exec_windup(self, ctx):
        yield ctx.compute(self.windup, tag="windup")

    def to_model(self):
        """The analytic model of this task (for OD/schedulability)."""
        from repro.model.task_model import ParallelExtendedImpreciseTask

        return ParallelExtendedImpreciseTask(
            self.name,
            self.mandatory,
            [self.optional] * self.n_parallel,
            self.windup,
            self.period,
        )
