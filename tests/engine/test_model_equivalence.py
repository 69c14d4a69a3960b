"""Full-stack equivalence of the production execution core and the
test-only model (``tests/engine/model.py``).

Each test runs the same seeded middleware scenario twice — on the
production engine, FIFO level queue and batched noise stream, then with
the model swapped in (:func:`~tests.engine.model.swap_in_model`) — on
the noisy Xeon Phi cost model, so the noise stream and the stall
multiplier are exercised too, and fault plans are allowed.  The
recorded ``kernel.*``/``rtseed.*`` probe streams must be byte-identical
(canonical JSON), along with the final clock, the event counters and
any crash.
"""

import json

import pytest

from repro.check.runner import run_middleware
from repro.check.scenario import generate_scenario
from tests.engine.model import swap_in_model

pytestmark = pytest.mark.tier1

#: Hardware fault sites: ``cpu_stall`` composes the stall multiplier
#: with the noise draw, ``core_throttle`` reprices in-flight work
#: through ``Kernel.set_core_speed``.
HARDWARE_SITES = ("cpu_stall", "core_throttle")


def observe(scenario):
    """One run of ``scenario``: its canonical probe stream plus the
    end state the model must reproduce."""
    events, kernel, crash = run_middleware(
        scenario, cost_model="xeonphi", noise_seed=scenario.seed)
    counters = kernel.engine.counters()
    return {
        "stream": json.dumps(events, sort_keys=True),
        "now": kernel.engine.now,
        "events_processed": counters["events_processed"],
        "events_scheduled": counters["events_scheduled"],
        "events_cancelled": counters["events_cancelled"],
        "crash": crash,
    }


def production_and_model(scenario, monkeypatch):
    production = observe(scenario)
    with monkeypatch.context() as patch:
        swap_in_model(patch)
        model = observe(scenario)
    return production, model


def assert_equivalent(production, model):
    assert production["stream"].count("kernel.") > 0
    for key in ("now", "events_processed", "events_scheduled",
                "events_cancelled", "crash"):
        assert production[key] == model[key], key
    assert production["stream"] == model["stream"]


def test_fault_free_scenarios_are_equivalent(monkeypatch):
    for seed in range(3):
        production, model = production_and_model(
            generate_scenario(seed), monkeypatch)
        assert_equivalent(production, model)


@pytest.mark.parametrize("site", HARDWARE_SITES)
def test_hardware_faulted_scenarios_are_equivalent(site, monkeypatch):
    checked = 0
    for seed in range(20):
        scenario = generate_scenario(seed, fault_rate=1.0,
                                     fault_sites=(site,))
        if not scenario.has_faults:
            continue
        production, model = production_and_model(scenario, monkeypatch)
        assert_equivalent(production, model)
        checked += 1
        if checked == 2:
            break
    assert checked == 2, f"no {site} plan drawn in 20 seeds"


def test_planted_fast_path_skew_is_detected(monkeypatch):
    """A relative skew of 1e-4 planted in the production noise stream
    only must break the equivalence."""
    from repro.hardware.noise import BatchedLognormalStream

    scenario = generate_scenario(0)
    original = BatchedLognormalStream.next
    with monkeypatch.context() as patch:
        patch.setattr(BatchedLognormalStream, "next",
                      lambda self: original(self) * 1.0001)
        production = observe(scenario)
    with monkeypatch.context() as patch:
        swap_in_model(patch)
        model = observe(scenario)
    assert production["stream"] != model["stream"]


def test_model_is_really_swapped_in(monkeypatch):
    """Guard against a swap that silently stops applying (a renamed
    module attribute would leave both runs on production code)."""
    from repro.core.middleware import RTSeed
    from tests.engine import model

    with monkeypatch.context() as patch:
        swap_in_model(patch)
        kernel = RTSeed(seed=0).kernel
        assert isinstance(kernel.engine, model.Engine)
        assert isinstance(kernel.runqueues[0], model.IndexedLevelQueue)
        assert isinstance(kernel.cost_model._noise_stream,
                          model.ScalarLognormalStream)
    kernel = RTSeed(seed=0).kernel
    assert not isinstance(kernel.engine, model.Engine)
