"""Measurement helpers that observe the program from outside.

Nothing here patches program code: spans time calls the benchmark makes
into a layer's public functions, the family counter rides the probe bus
as a *passive* subscriber, and the cProfile attribution buckets
self-time by the ``repro.<package>`` a function lives in.
"""

import cProfile
import pstats
import time
from collections import defaultdict
from contextlib import contextmanager

#: Probe-topic families reported one by one (``sim.*`` is published by
#: the theory simulator in ``repro.sched`` and reported as ``sched``);
#: anything else (``degrade``, ``trading``, ``flightrec`` ...) lands in
#: ``other``.
NAMED_FAMILIES = ("kernel", "rq", "engine", "rtseed", "termination",
                  "sched", "fault")
TOPIC_FAMILIES = NAMED_FAMILIES + ("other",)
_FAMILY_OF_PREFIX = {"sim": "sched"}


def _family(topic):
    prefix = topic.partition(".")[0]
    family = _FAMILY_OF_PREFIX.get(prefix, prefix)
    return family if family in NAMED_FAMILIES else "other"


#: Packages the cProfile pass attributes self time to; the rest of the
#: process (other ``repro`` packages, the standard library, numpy,
#: builtins not called from these packages) is ``other``.
PROFILE_PACKAGES = ("engine", "simkernel", "core", "hardware", "obs",
                    "check", "sched", "model", "trading", "faults")


class BusAccountingError(AssertionError):
    """Attaching the passive counter changed what the bus publishes."""


class FamilyCounter:
    """Passive probe-bus subscriber counting published events by topic
    family, across every bus it observes."""

    def __init__(self):
        self._topics = defaultdict(int)
        #: events published on the observed buses while observed
        self.published = 0

    def __call__(self, topic, _time, _data):
        self._topics[topic] += 1

    def add(self, topic, count=1):
        """Count ``count`` events of ``topic`` published on a bus that
        was not observed, but whose events were all recorded."""
        self._topics[topic] += count
        self.published += count

    @property
    def counts(self):
        """Published events per topic family."""
        counts = dict.fromkeys(TOPIC_FAMILIES, 0)
        for topic, count in self._topics.items():
            counts[_family(topic)] += count
        return counts

    @property
    def stray_topics(self):
        """Published topics outside every named family."""
        return sorted(topic for topic in self._topics
                      if _family(topic) == "other")

    @contextmanager
    def observe(self, bus):
        """Count ``bus`` passively for the duration of the block.  The
        bus must stay exactly as active (or idle) as it was, or probe
        sites would start building payloads they otherwise skip."""
        was_active = bus.active
        bus.subscribe(self, passive=True)
        if bus.active != was_active:
            raise BusAccountingError(
                f"passive subscriber flipped bus.active "
                f"{was_active} -> {bus.active}")
        start = bus.published
        try:
            yield
        finally:
            self.published += bus.published - start
            bus.unsubscribe(self)


class Tracer:
    """Per-pass layer accounting: span busy time plus layer counts."""

    def __init__(self):
        self.busy = {}
        self.counts = {}
        self.bus = FamilyCounter()

    @contextmanager
    def span(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.busy[name] = (self.busy.get(name, 0.0)
                               + time.perf_counter() - start)

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name, value):
        self.counts[name] = max(self.counts.get(name, 0), value)

    def engine(self, kernel):
        """Fold one finished kernel's engine counters into the pass."""
        counters = kernel.engine.counters()
        self.add("engine.events", counters["events_processed"])
        self.add("engine.scheduled", counters["events_scheduled"])
        self.add("engine.cancelled", counters["events_cancelled"])
        self.add("engine.compactions", counters["compactions"])
        self.peak("engine.peak_heap", counters["peak_heap_size"])


class ItemTimer:
    """``farm_map`` ``on_event`` hook timing every farm item."""

    def __init__(self):
        self.durations = []
        self._started = {}

    def __call__(self, topic, data):
        if topic == "farm.item_start":
            self._started[data["index"]] = time.perf_counter()
        elif topic == "farm.item_done":
            self.durations.append(
                time.perf_counter() - self._started.pop(data["index"]))


def _bucket(filename):
    marker = "/repro/"
    at = filename.replace("\\", "/").rfind(marker)
    if at < 0:
        return None
    package = filename[at + len(marker):].split("/", 1)[0]
    return package if package in PROFILE_PACKAGES else None


def profile_shares(fn):
    """Run ``fn()`` under cProfile; return self-time shares per package.

    A function outside the listed packages (a builtin such as
    ``heapq.heappush``, or a standard-library helper) has its self time
    split among its callers in proportion to the time each caller
    spent in it, so a package's share includes the C calls it makes.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    shares = dict.fromkeys(PROFILE_PACKAGES + ("other",), 0.0)
    total = 0.0
    for (filename, _line, _name), (_cc, _nc, tottime, _ct,
                                   callers) in stats.items():
        total += tottime
        bucket = _bucket(filename)
        if bucket is not None:
            shares[bucket] += tottime
            continue
        for (caller_file, _l, _n), caller_stats in callers.items():
            caller_bucket = _bucket(caller_file) or "other"
            shares[caller_bucket] += caller_stats[2]
        shares["other"] += tottime - sum(
            caller_stats[2] for caller_stats in callers.values())
    return {name: value / total for name, value in shares.items()} \
        if total > 0 else shares
