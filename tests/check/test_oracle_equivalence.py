"""Verdict equality: the O(1) kernel-trace oracle vs the O(n) model.

:mod:`tests.check.reference_oracle` keeps the original replay, which
scanned every CPU and priority level per event.  The production
:class:`~repro.check.oracles.KernelTraceOracle` must report exactly the
same violation list — same oracles, times, details, order — on
arbitrary ``kernel.*`` streams (malformed ones included) and on the
clean and faulted fuzz corpora.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.check.oracles import KernelTraceOracle, check_kernel_trace
from repro.check.runner import run_middleware
from repro.check.scenario import generate_scenario
from tests.check.reference_oracle import (
    ReferenceKernelTraceOracle,
    reference_check_kernel_trace,
)

pytestmark = pytest.mark.tier1

N_CPUS = 2

KINDS = ("spawn", "ready", "preempt", "yield", "dispatch", "block",
         "thread_exit", "migrate", "setscheduler", "prio_boost",
         "prio_restore", "timer_arm")

# (kind, tid, cpu, prio, advance-the-clock)
raw_events = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(1, 4),
              st.integers(0, N_CPUS - 1), st.sampled_from((10, 20, 30)),
              st.booleans()),
    max_size=80,
)


def _stream(raw):
    events = []
    time = 0.0
    for kind, tid, cpu, prio, advance in raw:
        time += 1.0 if advance else 0.0
        events.append((f"kernel.{kind}", time,
                       {"thread": f"t{tid}", "tid": tid, "cpu": cpu,
                        "prio": prio}))
    return events


def _replay(oracle, events):
    for topic, time, data in events:
        oracle.on_event(topic, time, data)
    return oracle.finish()


def _assert_same_verdicts(events, n_cpus):
    assert check_kernel_trace(events, n_cpus) == \
        reference_check_kernel_trace(events, n_cpus)
    uncapped = _replay(KernelTraceOracle(n_cpus, max_violations=10**6),
                       events)
    assert uncapped == _replay(
        ReferenceKernelTraceOracle(n_cpus, max_violations=10**6), events)
    return uncapped


# the malformed shapes the model must agree on, one example each
READY_TWICE = [("ready", 1, 0, 10, False), ("ready", 1, 1, 20, True)]
PREEMPT_NOT_RUNNING = [("ready", 1, 0, 10, False),
                       ("preempt", 1, 1, 10, True),
                       ("dispatch", 1, 1, 10, True)]
YIELD_DUPLICATE = [("ready", 1, 0, 10, False), ("ready", 2, 0, 10, False),
                   ("yield", 1, 0, 10, False), ("dispatch", 1, 0, 10, True),
                   ("block", 1, 0, 10, True), ("dispatch", 2, 0, 10, True),
                   ("thread_exit", 1, 0, 10, True)]
WRONG_HEAD = [("ready", 1, 0, 10, False), ("ready", 2, 0, 10, False),
              ("dispatch", 2, 0, 10, True)]
BOOST_QUEUED = [("ready", 1, 0, 10, False), ("ready", 2, 0, 20, False),
                ("prio_boost", 1, 0, 30, False),
                ("dispatch", 2, 0, 20, True)]
YIELD_ACROSS_LEVELS = [("ready", 1, 0, 10, False),
                       ("yield", 1, 0, 30, False),
                       ("ready", 2, 0, 20, False),
                       ("yield", 1, 0, 20, False),
                       ("dispatch", 1, 0, 30, True),
                       ("prio_boost", 1, 0, 10, True),
                       ("dispatch", 1, 1, 10, True),
                       ("migrate", 1, 1, 10, True)]

# a tid queued twice in one level: exit drops only one occurrence
YIELD_SAME_LEVEL = [("ready", 1, 0, 10, False), ("yield", 1, 0, 10, False),
                    ("thread_exit", 1, 0, 10, True)]
# a tid queued at two levels is located at the level its CPU used
# first (30, since emptied and re-created), not the one queued first
LOCATE_FIRST_USED_LEVEL = [("ready", 1, 0, 30, False),
                           ("dispatch", 1, 0, 30, True),
                           ("ready", 2, 0, 10, True),
                           ("yield", 2, 0, 30, True),
                           ("dispatch", 2, 0, 30, True),
                           ("block", 2, 0, 30, True)]


@pytest.mark.parametrize("raw", [
    READY_TWICE, PREEMPT_NOT_RUNNING, YIELD_DUPLICATE, WRONG_HEAD,
    BOOST_QUEUED, YIELD_ACROSS_LEVELS, YIELD_SAME_LEVEL,
    LOCATE_FIRST_USED_LEVEL,
], ids=["ready_twice", "preempt_not_running", "yield_duplicate",
        "wrong_head", "boost_queued", "yield_across_levels",
        "yield_same_level", "locate_first_used_level"])
def test_malformed_shapes_agree(raw):
    violations = _assert_same_verdicts(_stream(raw), N_CPUS)
    assert violations, "each planted shape should trip an oracle"


@settings(max_examples=400, deadline=None)
@given(raw=raw_events)
@example(raw=READY_TWICE + YIELD_DUPLICATE + BOOST_QUEUED)
def test_random_streams_agree(raw):
    _assert_same_verdicts(_stream(raw), N_CPUS)


@pytest.mark.parametrize("fault_rate", [0.0, 0.5])
def test_fuzz_corpus_agrees(fault_rate):
    for seed in range(12):
        scenario = generate_scenario(seed, fault_rate=fault_rate)
        events, _kernel, _crash = run_middleware(scenario)
        _assert_same_verdicts(events, scenario.n_cpus)
