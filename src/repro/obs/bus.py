"""The probe bus: cross-layer observability fan-out.

Every instrumented layer (the DES engine, the ready queues, the
simulated kernel, the RT-Seed middleware, the trading application)
publishes *probe events* to one :class:`ProbeBus`.  Subscribers —
tracers, metrics registries, trace exporters — attach to the bus, so
any number of them coexist on one run (the single-callback
``kernel.on_event`` hook could hold only one observer).

Design constraints, in order:

1. **Observation pays only for what someone reads.**  Every topic
   belongs to a *family* (the part before the first dot: ``kernel``,
   ``rq``, ``engine``, ``rtseed`` ...), and the bus keeps one demand
   flag per family, ``want_<family>``, true iff some *non-passive*
   subscriber's filter matches a :data:`PROBE_SITES` topic of that
   family.  Probe sites guard on their family's flag — one attribute
   read — so an unobserved run, or a run whose observers ignore a
   family, never builds those payloads.  Passive subscribers create no
   demand: they ride along on the topics the active ones ask for.
2. **Simulated-time stamping.**  The bus stamps every event with
   ``clock.now`` at publish, so probe sites never thread timestamps
   through and data-structure layers (ready queues) that have no clock
   of their own still emit correctly stamped events.
3. **Deterministic fan-out.**  Subscribers are called in subscription
   order through a per-topic route cache (topic -> tuple of
   subscribers, rebuilt on every subscribe / unsubscribe); payloads are
   plain dicts of JSON-serializable values (names, tids, numbers —
   never live objects), which is what makes exported traces of a
   deterministic run byte-reproducible.  Each payload is a fresh
   keyword dict shared by every subscriber of that event, and no
   subscriber in the tree mutates one, so recorders keep the dict as
   is instead of copying it.

Topic names are dotted, ``<layer>.<event>`` (``kernel.dispatch``,
``rtseed.job_done``); subscriptions filter by exact topic or by a
``"layer.*"`` prefix pattern.  :data:`PROBE_SITES` documents every
topic published by the instrumented tree.
"""

#: Every probe topic published by the instrumented layers, with the
#: publishing module and payload fields (beyond the implicit timestamp).
#: Kept as data so the docs table and the tests cannot drift from the
#: code without failing.
PROBE_SITES = {
    # -- repro.engine.events -------------------------------------------
    "engine.event_pop": (
        "engine/events.py", "one DES event executed; fields: priority, seq"),
    "engine.compact": (
        "engine/events.py",
        "lazy-cancel heap compaction; fields: swept, survivors"),
    # -- repro.engine.readyqueue ---------------------------------------
    "rq.enqueue": (
        "engine/readyqueue.py",
        "item became ready; fields: cpu, prio (level queues), depth"),
    "rq.dequeue": (
        "engine/readyqueue.py",
        "item removed without dispatch; fields: cpu, prio, depth"),
    "rq.pop": (
        "engine/readyqueue.py",
        "most-urgent item popped for dispatch; fields: cpu, prio, depth"),
    # -- repro.simkernel.kernel (all carry thread, tid, cpu, prio) -----
    "kernel.spawn": ("simkernel/kernel.py", "thread registered"),
    "kernel.ready": ("simkernel/kernel.py", "thread became READY"),
    "kernel.dispatch": ("simkernel/kernel.py", "thread switched in"),
    "kernel.preempt": ("simkernel/kernel.py", "thread switched out, READY"),
    "kernel.block": ("simkernel/kernel.py", "thread blocked"),
    "kernel.yield": ("simkernel/kernel.py", "sched_yield: requeued at tail"),
    "kernel.thread_exit": ("simkernel/kernel.py", "thread terminated"),
    "kernel.sleep_expire": ("simkernel/kernel.py", "clock_nanosleep expiry"),
    "kernel.cond_signal": ("simkernel/kernel.py", "pthread_cond_signal"),
    "kernel.cond_broadcast": ("simkernel/kernel.py", "pthread_cond_broadcast"),
    "kernel.signal_post": (
        "simkernel/kernel.py", "signal posted; fields: signum"),
    "kernel.signal_blocked": (
        "simkernel/kernel.py", "signal queued against the mask"),
    "kernel.signal_deliver": (
        "simkernel/kernel.py",
        "unwind delivery; fields: signum, latency (post -> deliver ns)"),
    "kernel.timer_arm": (
        "simkernel/kernel.py", "one-shot timer armed; fields: timer, at"),
    "kernel.timer_disarm": (
        "simkernel/kernel.py", "timer stopped; fields: timer"),
    "kernel.timer_expire": (
        "simkernel/kernel.py",
        "timer fired; fields: timer, signum, expirations"),
    "kernel.setscheduler": (
        "simkernel/kernel.py",
        "sched_setscheduler; fields: old_prio, policy"),
    "kernel.migrate": (
        "simkernel/kernel.py",
        "affinity moved a thread; fields: from_cpu, to_cpu"),
    "kernel.prio_boost": (
        "simkernel/kernel.py",
        "priority inheritance raised a mutex owner; fields: old_prio, "
        "waiter"),
    "kernel.prio_restore": (
        "simkernel/kernel.py",
        "mutex release dropped an inherited boost; fields: old_prio"),
    # -- repro.sched.simulator (theory-level job lifecycle) ------------
    "sim.release": (
        "sched/simulator.py", "job released; fields: task, job, release"),
    "sim.mandatory_begin": (
        "sched/simulator.py", "mandatory part first scheduled"),
    "sim.mandatory_end": ("sched/simulator.py", "mandatory part done"),
    "sim.optional_begin": (
        "sched/simulator.py",
        "optional part first scheduled; fields: task, job, part"),
    "sim.optional_end": (
        "sched/simulator.py", "optional part ended; fields: part, fate"),
    "sim.discard": (
        "sched/simulator.py",
        "optional parts discarded (mandatory ran past OD); fields: "
        "n_parts"),
    "sim.windup_begin": (
        "sched/simulator.py", "wind-up part first scheduled"),
    "sim.windup_end": ("sched/simulator.py", "wind-up part done"),
    "sim.job_done": (
        "sched/simulator.py", "job complete; fields: task, job, met"),
    # -- repro.core.process / termination (Fig. 9 measurement points) --
    "rtseed.release": (
        "core/process.py", "job released; fields: task, job, release"),
    "rtseed.mandatory_begin": (
        "core/process.py", "mandatory part begins (the Δm point)"),
    "rtseed.mandatory_end": ("core/process.py", "mandatory part done"),
    "rtseed.signals_done": (
        "core/process.py",
        "all optional wake-ups sent; fields: delta_b (ns)"),
    "rtseed.optional_begin": (
        "core/process.py", "optional part begins; fields: task, part, job"),
    "rtseed.optional_end": (
        "core/process.py",
        "optional part ended; fields: fate, duration (ns)"),
    "rtseed.discard": (
        "core/process.py",
        "optional parts discarded (mandatory ran past OD)"),
    "rtseed.windup_begin": (
        "core/process.py", "wind-up begins (the Δe point)"),
    "rtseed.windup_end": ("core/process.py", "wind-up done"),
    "rtseed.job_done": (
        "core/process.py",
        "job complete; fields: response, tardiness, met, qos, "
        "delta_m/b/s/e (ns or None)"),
    "rtseed.job_abort": (
        "core/process.py",
        "mandatory part gave up within budget; fields: task, job, "
        "reason"),
    "termination.completed": (
        "core/termination.py",
        "optional body finished before OD; fields: strategy, duration"),
    "termination.terminated": (
        "core/termination.py",
        "optional body cut at/after OD; fields: strategy, overrun "
        "(ns past OD — the termination latency)"),
    # -- repro.trading.system ------------------------------------------
    "trading.decision": (
        "trading/system.py",
        "wind-up decision; fields: job, kind, confidence"),
    "trading.order": (
        "trading/system.py",
        "order submitted; fields: job, side, units, release "
        "(tick-to-order latency = timestamp - release)"),
    "trading.fetch_retry": (
        "trading/system.py",
        "fetch timed out, retrying within budget; fields: job, "
        "attempt, backoff"),
    "trading.broker_error": (
        "trading/system.py",
        "order lost to a broker fault; fields: job, side, reason"),
    # -- repro.core.resilience / process (degradation machinery) -------
    "degrade.enter": (
        "core/resilience.py",
        "degraded mode entered; fields: task, consecutive_misses"),
    "degrade.exit": (
        "core/resilience.py",
        "degraded mode cleared; fields: recovery_latency (ns)"),
    "degrade.shed": (
        "core/process.py",
        "optional parts shed while degraded; fields: task, job, "
        "n_parts"),
    "degrade.watchdog_fire": (
        "core/resilience.py",
        "overrun watchdog force-discarded a part; fields: task, job, "
        "part, overrun (ns)"),
    # -- repro.faults.injectors (every injected fault) -----------------
    "fault.signal_drop": (
        "faults/injectors.py",
        "posted signal silently lost; fields: thread, tid, signum"),
    "fault.signal_delay": (
        "faults/injectors.py",
        "posted signal deferred; fields: thread, tid, signum, delay"),
    "fault.timer_drift": (
        "faults/injectors.py",
        "timer expiry skewed late; fields: timer, skew, at"),
    "fault.spurious_wakeup": (
        "faults/injectors.py",
        "condvar waiter woken with no signal; fields: thread, tid, "
        "cond"),
    "fault.cpu_stall": (
        "faults/injectors.py",
        "micro-cost stall window began; fields: cpus, factor, until"),
    "fault.core_throttle": (
        "faults/injectors.py",
        "core throughput scaled down; fields: core, factor, until"),
    "fault.core_restore": (
        "faults/injectors.py",
        "throttled core restored; fields: core"),
    "fault.net_timeout": (
        "faults/injectors.py",
        "fetch attempt timed out; fields: job, attempt, timeout"),
    "fault.feed_gap": (
        "faults/injectors.py",
        "feed tick never arrived; fields: index"),
    "fault.feed_stale": (
        "faults/injectors.py",
        "feed tick carried a frozen quote; fields: index"),
    "fault.broker_reject": (
        "faults/injectors.py",
        "order rejected by fault; fields: side, units"),
    "fault.broker_disconnect": (
        "faults/injectors.py",
        "broker link dropped mid-submit; fields: side, units"),
    # -- repro.obs.flightrec -------------------------------------------
    "flightrec.dump": (
        "obs/flightrec.py",
        "flight-recorder ring dumped; fields: reason, recorded, "
        "dropped, path (None when the dump stayed in memory)"),
}


#: Topic families with a demand flag (``ProbeBus.want_<family>``): the
#: families of every documented probe site.
FAMILIES = tuple(sorted({topic.partition(".")[0]
                         for topic in PROBE_SITES}))


def _make_matcher(topics):
    """Compile a topic filter into a fast ``matcher(topic) -> bool``.

    ``topics`` is an iterable of exact names and/or ``"prefix.*"``
    patterns; ``None`` matches everything.
    """
    if topics is None:
        return None
    exact = set()
    prefixes = []
    for topic in topics:
        if topic.endswith(".*"):
            prefixes.append(topic[:-1])  # keep the dot: "kernel."
        elif topic == "*":
            return None
        else:
            exact.add(topic)
    prefix_tuple = tuple(prefixes)

    if not prefix_tuple:
        return exact.__contains__

    def matcher(topic):
        return topic in exact or topic.startswith(prefix_tuple)

    return matcher


def _demanded_families(matcher):
    """Families with at least one documented probe site the compiled
    filter ``matcher`` matches (``None`` matches everything)."""
    return {topic.partition(".")[0] for topic in PROBE_SITES
            if matcher is None or matcher(topic)}


class ProbeBus:
    """Fan-out of probe events to any number of subscribers.

    :param clock: object exposing ``.now`` (the DES engine); every
        published event is stamped with ``clock.now``.  ``None`` stamps
        ``0.0`` (useful for unit tests of pure data structures).
    """

    __slots__ = ("active", "_clock", "_subs", "_routes", "published",
                 "flight") + tuple("want_" + family for family in FAMILIES)

    def __init__(self, clock=None):
        self._clock = clock
        #: ``(fn, matcher, families)`` per subscriber in subscription
        #: order; ``families`` is ``None`` for a passive subscriber.
        self._subs = []
        #: topic -> tuple of matching subscribers (the route cache).
        self._routes = {}
        #: events fanned out so far (diagnostics).
        self.published = 0
        #: the attached :class:`~repro.obs.flightrec.FlightRecorder`,
        #: if any — failure edges (invariant checks, check divergences)
        #: discover the recorder through the bus they already hold.
        self.flight = None
        self._refresh()

    @property
    def clock(self):
        return self._clock

    @clock.setter
    def clock(self, clock):
        self._clock = clock

    def __len__(self):
        return len(self._subs)

    def _refresh(self):
        """Drop the route cache and recompute the demand flags.

        Probe sites read ``active`` and ``want_<family>`` as plain
        *attributes* (not properties — keep the idle path to one
        LOAD_ATTR) before building any payload.
        """
        self._routes = {}
        demanded = set()
        active = False
        for _fn, _matcher, families in self._subs:
            if families is not None:
                active = True
                demanded |= families
        #: True iff at least one *non-passive* subscriber is attached.
        self.active = active
        for family in FAMILIES:
            setattr(self, "want_" + family, family in demanded)

    def _route(self, topic):
        route = tuple(fn for fn, matcher, _families in self._subs
                      if matcher is None or matcher(topic))
        self._routes[topic] = route
        return route

    def subscribe(self, fn, topics=None, passive=False):
        """Attach ``fn(topic, time, data)``; returns ``fn`` for chaining.

        :param topics: iterable of exact topic names and/or ``"layer.*"``
            prefix patterns; ``None`` subscribes to everything.
        :param passive: a passive subscriber creates no demand: it
            flips neither :attr:`active` nor any ``want_<family>``
            flag, so probe sites keep skipping payload construction
            until a real observer asks for the family — it receives
            exactly the matching events the active observers cause to
            be published (plus any published directly).  This is the
            flight recorder's always-on, zero-steady-state-cost mode.
        """
        if any(sub_fn is fn for sub_fn, _, _ in self._subs):
            raise ValueError(f"{fn!r} already subscribed")
        matcher = _make_matcher(topics)
        self._subs.append((fn, matcher,
                           None if passive else _demanded_families(matcher)))
        self._refresh()
        return fn

    def unsubscribe(self, fn):
        """Detach a subscriber; unknown subscribers are a no-op."""
        self._subs = [entry for entry in self._subs if entry[0] is not fn]
        self._refresh()

    def publish(self, topic, **data):
        """Stamp and fan out one probe event to every subscriber whose
        filter matches ``topic``, passive ones included.

        No-op without subscribers — but call sites should still guard on
        their family's ``want_<family>`` flag so the keyword payload is
        never even built.
        """
        if not self._subs:
            return
        route = self._routes.get(topic)
        if route is None:
            route = self._route(topic)
        time = self._clock.now if self._clock is not None else 0.0
        self.published += 1
        for fn in route:
            fn(topic, time, data)

    def __repr__(self):
        return (
            f"<ProbeBus subscribers={len(self._subs)} "
            f"published={self.published}>"
        )
