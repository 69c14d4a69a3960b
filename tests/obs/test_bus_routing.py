"""Property tests for the probe bus's route cache and demand flags.

Random subscribe / unsubscribe / publish sequences — active and passive
subscribers, filters drawn from the documented probe topics — are
replayed on a :class:`ProbeBus` and on a model of the original bus,
which walked every subscriber's matcher on every publish.  The routed
bus must deliver exactly what the model delivers, in subscription
order, and keep each ``want_<family>`` flag equal to "some non-passive
filter matches a documented topic of that family".
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.bus import FAMILIES, PROBE_SITES, ProbeBus, _make_matcher

pytestmark = pytest.mark.tier1

TOPICS = sorted(PROBE_SITES)
PATTERNS = TOPICS + [family + ".*" for family in FAMILIES] + [
    "*", "nosuch.*", "kernel.nosuch", "farm.item_done",
]

filters = st.one_of(
    st.none(),
    st.lists(st.sampled_from(PATTERNS), min_size=1, max_size=3),
)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("subscribe"), filters, st.booleans()),
        st.tuples(st.just("unsubscribe"), st.integers(0, 7)),
        st.tuples(st.just("publish"), st.sampled_from(
            TOPICS + ["farm.item_done", "nosuch.topic"])),
    ),
    min_size=1, max_size=40,
)


def _family(topic):
    return topic.partition(".")[0]


class MatcherLoopModel:
    """The original bus: a matcher call per subscriber per publish."""

    def __init__(self):
        self.subs = []  # (name, matcher, passive)

    def subscribe(self, name, topics, passive):
        self.subs.append((name, _make_matcher(topics), passive))

    def unsubscribe(self, name):
        self.subs = [sub for sub in self.subs if sub[0] != name]

    def deliver(self, topic):
        return [name for name, matcher, _passive in self.subs
                if matcher is None or matcher(topic)]

    def demanded(self, family):
        return any(
            not passive and (matcher is None or matcher(topic))
            for _name, matcher, passive in self.subs
            for topic in TOPICS if _family(topic) == family
        )


def _check_flags(bus, model):
    assert bus.active == any(not passive
                             for _name, _m, passive in model.subs)
    for family in FAMILIES:
        assert getattr(bus, "want_" + family) == model.demanded(family), \
            family


@settings(max_examples=200, deadline=None)
@given(ops=ops)
def test_routed_fanout_matches_matcher_loop(ops):
    bus = ProbeBus()
    model = MatcherLoopModel()
    delivered = []
    callbacks = {}
    counter = 0
    for op in ops:
        if op[0] == "subscribe":
            _kind, topics, passive = op
            counter += 1
            name = f"s{counter}"
            callbacks[name] = bus.subscribe(
                lambda topic, _time, _data, name=name:
                    delivered.append((topic, name)),
                topics=topics, passive=passive,
            )
            model.subscribe(name, topics, passive)
        elif op[0] == "unsubscribe":
            names = [sub[0] for sub in model.subs]
            if not names:
                continue
            name = names[op[1] % len(names)]
            bus.unsubscribe(callbacks.pop(name))
            model.unsubscribe(name)
        else:
            topic = op[1]
            delivered.clear()
            bus.publish(topic, value=1)
            assert delivered == [(topic, name)
                                 for name in model.deliver(topic)]
        _check_flags(bus, model)


@settings(max_examples=100, deadline=None)
@given(topics=st.lists(filters, min_size=1, max_size=4))
def test_passive_subscribers_create_no_demand(topics):
    bus = ProbeBus()
    for index, subscription in enumerate(topics):
        bus.subscribe(lambda *_event, index=index: None,
                      topics=subscription, passive=True)
    assert not bus.active
    assert not any(getattr(bus, "want_" + family) for family in FAMILIES)
    # a direct publish still reaches every matching passive subscriber
    seen = []
    bus.subscribe(lambda topic, _time, _data: seen.append(topic),
                  topics=["kernel.ready"], passive=True)
    bus.publish("kernel.ready")
    assert seen == ["kernel.ready"]


def test_route_cache_follows_mid_run_subscription_changes():
    bus = ProbeBus()
    seen = []
    first = bus.subscribe(lambda t, _time, _d: seen.append(("a", t)),
                          topics=["kernel.*"])
    bus.publish("kernel.ready")  # caches the kernel.ready route
    bus.subscribe(lambda t, _time, _d: seen.append(("b", t)),
                  topics=["kernel.ready"], passive=True)
    bus.publish("kernel.ready")
    bus.unsubscribe(first)
    bus.publish("kernel.ready")
    assert seen == [("a", "kernel.ready"), ("a", "kernel.ready"),
                    ("b", "kernel.ready"), ("b", "kernel.ready")]
    assert not bus.want_kernel  # only the passive subscriber is left


def test_sites_skip_undemanded_families():
    """A runner-style subscriber to kernel.*/rtseed.* leaves the engine,
    ready-queue and termination sites silent — even for a passive
    catch-all riding along."""
    from repro.core.middleware import RTSeed
    from repro.core.task import WorkloadTask
    from repro.simkernel.time_units import MSEC

    middleware = RTSeed(cost_model="zero")
    middleware.add_task(
        WorkloadTask("tau1", 20 * MSEC, 40 * MSEC, 10 * MSEC, 200 * MSEC,
                     n_parallel=2),
        n_jobs=2, optional_deadline=150 * MSEC)
    families = set()
    middleware.probes.subscribe(lambda *_event: None,
                                topics=["kernel.*", "rtseed.*"])
    middleware.probes.subscribe(
        lambda topic, _time, _data: families.add(_family(topic)),
        passive=True)
    middleware.run()
    assert families == {"kernel", "rtseed"}
