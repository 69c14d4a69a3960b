"""Turn a :class:`~repro.faults.plan.FaultPlan` into live hooks.

One :class:`FaultInjector` owns every probabilistic decision of a run.
It hooks three layers:

* **simkernel** — installed as ``kernel.faults`` (the kernel's
  duck-typed hook object): dropped/delayed signal posts, skewed timer
  expiries, spurious condvar wakeups.
* **hardware** — installed as the cost model's ``stall`` provider
  (per-CPU micro-cost multipliers) and as engine events that throttle /
  restore core throughput windows.
* **trading** — :class:`NetworkFaultProxy` / :class:`FeedFaultProxy` /
  :class:`BrokerFaultProxy` wrap the respective objects with the same
  interface, manufacturing timeouts, gaps, stale quotes, rejects and
  disconnects.

Every injected fault is published on the probe bus as a ``fault.*``
event and counted in :attr:`FaultInjector.counts`; after each one the
kernel invariant checker
(:func:`repro.faults.invariants.check_kernel_invariants`) runs, so a
fault that corrupts scheduler bookkeeping kills the run immediately
instead of producing quietly-wrong results.

Determinism: kernel-side decisions draw from per-spec stateful streams
(DES event order is itself deterministic); per-item decisions (feed
ticks, fetch attempts) draw from streams derived from the item's index,
so they are stable under repeated queries and query-order changes.
``hash()`` is never used — it is randomized across interpreter runs.
"""

from functools import partial
from random import Random

from repro.faults.invariants import check_kernel_invariants
from repro.faults.plan import FaultPlan
from repro.simkernel.time_units import MSEC
from repro.trading.broker import BrokerDisconnectedError
from repro.trading.feed import Tick

_MIX = 1_000_003  # a prime stride; avoids hash() (randomized for str)
_MASK = (1 << 63) - 1


def _derive(*parts):
    """Mix integers into one deterministic 63-bit seed."""
    seed = 0
    for part in parts:
        seed = (seed * _MIX + int(part) + 1) & _MASK
    return seed


class FaultInjector:
    """Executes a :class:`FaultPlan` against a simulated stack.

    :param plan: the :class:`~repro.faults.plan.FaultPlan` to run.

    Usage: construct, wrap the trading objects you hand to the system
    (:meth:`wrap_network` / :meth:`wrap_feed` / :meth:`wrap_broker`),
    then :meth:`attach` the built kernel before running.  With an empty
    plan every step is a no-op: ``kernel.faults`` stays ``None``, the
    cost model keeps ``stall=None``, and the wrappers return the
    original objects — a no-fault run is bit-identical to one that
    never imported this module.
    """

    def __init__(self, plan):
        if not isinstance(plan, FaultPlan):
            plan = FaultPlan.from_dict(plan)
        self.plan = plan
        self.kernel = None
        #: injected-fault count per site (only sites the plan arms).
        self.counts = {site: 0 for site in plan.sites}
        self._streams = {
            index: Random(_derive(plan.seed, index))
            for index, _spec in enumerate(plan.specs)
        }
        self._by_site = {site: plan.for_site(site) for site in plan.sites}
        self._throttled = {}  # core_id -> original speed

    # -- shared helpers -------------------------------------------------

    @property
    def now(self):
        return self.kernel.engine.now if self.kernel is not None else 0.0

    def _specs(self, site):
        return self._by_site.get(site, ())

    def _chance(self, index, spec):
        """One stateful draw for spec ``index`` (DES-ordered sites)."""
        if spec.probability >= 1.0:
            return True
        return self._streams[index].random() < spec.probability

    @staticmethod
    def _item_chance(plan_seed, index, spec, *item):
        """Per-item draw, stable under query order (feed/fetch sites)."""
        if spec.probability >= 1.0:
            return True
        rng = Random(_derive(plan_seed, index, *item))
        return rng.random() < spec.probability

    def _record(self, site, **payload):
        """Count, publish, and invariant-check one injected fault."""
        self.counts[site] = self.counts.get(site, 0) + 1
        if self.kernel is not None:
            bus = self.kernel.probes
            if bus.want_fault:
                bus.publish("fault." + site, **payload)
            check_kernel_invariants(self.kernel)

    # -- wiring ---------------------------------------------------------

    def attach(self, kernel, cost_model=None):
        """Wire the kernel-side and hardware-side hooks.

        Only hooks the plan actually arms are installed, so attaching
        an empty plan changes nothing.
        """
        self.kernel = kernel
        kernel_sites = ("signal_drop", "signal_delay", "timer_drift",
                        "spurious_wakeup")
        if any(self._specs(site) for site in kernel_sites):
            kernel.faults = self
        if self._specs("cpu_stall"):
            if cost_model is None:
                cost_model = kernel.cost_model
            cost_model.stall = self
            for _index, spec in self._specs("cpu_stall"):
                kernel.engine.schedule_at(
                    max(spec.start, kernel.engine.now),
                    partial(self._stall_begin, spec),
                )
        for _index, spec in self._specs("core_throttle"):
            kernel.engine.schedule_at(
                max(spec.start, kernel.engine.now),
                partial(self._throttle_begin, spec),
            )
        return self

    def wrap_network(self, network):
        """Proxy ``network`` if the plan arms fetch faults."""
        if not self._specs("net_timeout"):
            return network
        return NetworkFaultProxy(network, self)

    def wrap_feed(self, feed):
        """Proxy ``feed`` if the plan arms feed faults."""
        if not (self._specs("feed_gap") or self._specs("feed_stale")):
            return feed
        return FeedFaultProxy(feed, self)

    def wrap_broker(self, broker):
        """Proxy ``broker`` if the plan arms broker faults."""
        if not (self._specs("broker_reject")
                or self._specs("broker_disconnect")):
            return broker
        return BrokerFaultProxy(broker, self)

    # -- simkernel hooks (duck-typed kernel.faults interface) -----------

    def allow_signal_post(self, thread, signum):
        """Decide the fate of a posted signal: deliver, drop, or delay.

        Returning False swallows the post; a delayed signal re-enters
        through :meth:`~repro.simkernel.kernel.Kernel.post_signal_direct`
        so it is never intercepted twice.
        """
        now = self.now
        for index, spec in self._specs("signal_drop"):
            if spec.active_at(now) and self._chance(index, spec):
                self._record("signal_drop", tid=thread.tid,
                             thread=thread.name, signum=signum)
                return False
        for index, spec in self._specs("signal_delay"):
            if spec.active_at(now) and self._chance(index, spec):
                delay = float(spec.params.get("delay", 2 * MSEC))
                self.kernel.engine.schedule_at(
                    now + delay,
                    partial(self._delayed_post, thread, signum),
                )
                self._record("signal_delay", tid=thread.tid,
                             thread=thread.name, signum=signum,
                             delay=delay)
                return False
        return True

    def _delayed_post(self, thread, signum):
        if thread.alive:
            self.kernel.post_signal_direct(thread, signum)

    def adjust_timer_expiry(self, timer, expires):
        """Skew a timer's programmed expiry (late fire / drift)."""
        now = self.now
        for index, spec in self._specs("timer_drift"):
            if spec.active_at(now) and self._chance(index, spec):
                skew = float(spec.params.get("skew", 1 * MSEC))
                expires += skew
                self._record("timer_drift", timer=timer.name, skew=skew,
                             at=expires)
        return expires

    def on_cond_block(self, cond, thread):
        """Maybe schedule a spurious wakeup for a fresh condvar waiter."""
        now = self.now
        for index, spec in self._specs("spurious_wakeup"):
            if spec.active_at(now) and self._chance(index, spec):
                delay = float(spec.params.get("delay", 0.5 * MSEC))
                self.kernel.engine.schedule_at(
                    now + delay,
                    partial(self._spurious_fire, cond, thread),
                )
                return

    def _spurious_fire(self, cond, thread):
        if self.kernel.spurious_wakeup(cond, thread):
            self._record("spurious_wakeup", tid=thread.tid,
                         thread=thread.name, cond=cond.name)

    # -- hardware hooks -------------------------------------------------

    def multiplier(self, cpu):
        """Cost-model stall provider: product of active windows."""
        now = self.now
        factor = 1.0
        for _index, spec in self._specs("cpu_stall"):
            if not spec.active_at(now):
                continue
            cpus = spec.params.get("cpus")
            if cpus is None or cpu in cpus:
                factor *= float(spec.params.get("factor", 2.0))
        return factor

    def _stall_begin(self, spec):
        self._record(
            "cpu_stall",
            cpus=spec.params.get("cpus"),
            factor=float(spec.params.get("factor", 2.0)),
            until=spec.end,
        )

    def _throttle_begin(self, spec):
        factor = float(spec.params.get("factor", 0.5))
        cores = spec.params.get("cores", [0])
        for core_id in cores:
            core = self.kernel.topology.cores[core_id]
            self._throttled.setdefault(core_id, core.speed)
            self.kernel.set_core_speed(core_id,
                                       self._throttled[core_id] * factor)
            self._record("core_throttle", core=core_id, factor=factor,
                         until=spec.end)
        if spec.end is not None:
            self.kernel.engine.schedule_at(
                spec.end, partial(self._throttle_end, spec)
            )

    def _throttle_end(self, spec):
        for core_id in spec.params.get("cores", [0]):
            original = self._throttled.pop(core_id, None)
            if original is None:
                continue
            self.kernel.set_core_speed(core_id, original)
            self._record("core_restore", core=core_id)

    # -- trading hooks (used by the proxies below) ----------------------

    def fetch_fault(self, job_index, attempt):
        """Timeout budget (ns) if this fetch attempt times out, else
        ``None``."""
        now = self.now
        for index, spec in self._specs("net_timeout"):
            if spec.active_at(now) and self._item_chance(
                    self.plan.seed, index, spec, job_index, attempt):
                timeout = float(spec.params.get("timeout", 150 * MSEC))
                self._record("net_timeout", job=job_index,
                             attempt=attempt, timeout=timeout)
                return timeout
        return None

    def feed_fault(self, tick_index, tick_time):
        """``"gap"``, ``"stale"``, or ``None`` for one feed tick.

        Decided per tick *index* (window checked against the tick's own
        timestamp) so repeated queries agree.
        """
        for site in ("feed_gap", "feed_stale"):
            for index, spec in self._specs(site):
                if spec.active_at(tick_time) and self._item_chance(
                        self.plan.seed, index, spec, tick_index):
                    return site.split("_", 1)[1]
        return None

    def broker_fault(self, side, units):
        """``"disconnect"``, ``"reject"``, or ``None`` for one submit."""
        now = self.now
        for index, spec in self._specs("broker_disconnect"):
            if spec.active_at(now) and self._chance(index, spec):
                self._record("broker_disconnect", side=side.name.lower(),
                             units=units)
                return "disconnect"
        for index, spec in self._specs("broker_reject"):
            if spec.active_at(now) and self._chance(index, spec):
                self._record("broker_reject", side=side.name.lower(),
                             units=units)
                return "reject"
        return None

    def record_feed_fault(self, kind, tick_index):
        """Publish a feed fault the first time its tick is touched."""
        self._record("feed_" + kind, index=tick_index)


class NetworkFaultProxy:
    """Wraps a :class:`~repro.trading.network.NetworkModel`, injecting
    fetch timeouts; everything else delegates."""

    def __init__(self, inner, injector):
        self._inner = inner
        self._injector = injector

    def fetch_outcome(self, job_index, attempt=0):
        timeout = self._injector.fetch_fault(job_index, attempt)
        if timeout is not None:
            return timeout, True
        return self._inner.fetch_outcome(job_index, attempt)

    def fetch_latency(self, job_index, attempt=0):
        return self._inner.fetch_latency(job_index, attempt)

    def worst_case(self, quantile_sigma=3.0):
        return self._inner.worst_case(quantile_sigma)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class FeedFaultProxy:
    """Wraps a market feed, injecting gaps (last quote reused) and
    stale ticks (frozen price, fresh timestamp)."""

    def __init__(self, inner, injector):
        self._inner = inner
        self._injector = injector
        self._decisions = {}

    def _decision(self, index):
        if index not in self._decisions:
            kind = self._injector.feed_fault(
                index, index * self._inner.interval
            )
            self._decisions[index] = kind
            if kind is not None:
                self._injector.record_feed_fault(kind, index)
        return self._decisions[index]

    def _effective(self, index):
        """Walk gaps back to the last tick that actually arrived."""
        while index > 0 and self._decision(index) == "gap":
            index -= 1
        return index

    def mid(self, index):
        kind = self._decision(index)
        if kind == "gap":
            return self._inner.mid(self._effective(index))
        if kind == "stale" and index > 0:
            return self._inner.mid(index - 1)
        return self._inner.mid(index)

    def tick(self, index):
        kind = self._decision(index)
        if kind == "gap":
            return self._inner.tick(self._effective(index))
        if kind == "stale" and index > 0:
            fresh = self._inner.tick(index)
            half = self._inner.spread / 2.0
            stale_mid = self._inner.mid(index - 1)
            return Tick(fresh.time, stale_mid - half, stale_mid + half)
        return self._inner.tick(index)

    def history(self, index, length):
        return self._inner.history(self._effective(index), length)

    def index_at(self, time):
        return self._inner.index_at(time)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class BrokerFaultProxy:
    """Wraps a :class:`~repro.trading.broker.SimBroker`, injecting
    rejects and disconnects at submit time."""

    def __init__(self, inner, injector):
        self._inner = inner
        self._injector = injector

    def submit(self, time, side, units, tick):
        kind = self._injector.broker_fault(side, units)
        if kind == "disconnect":
            raise BrokerDisconnectedError(
                "broker link down (injected fault)"
            )
        if kind == "reject":
            self._inner.rejected += 1
            return None
        return self._inner.submit(time, side, units, tick)

    def __getattr__(self, name):
        return getattr(self._inner, name)
