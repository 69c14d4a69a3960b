"""The load-bearing snapshot guarantee, in-process.

Run-to-barrier → snapshot → restore → run-to-end must produce the
exact payload (probe-stream hash, metrics, report) of the
uninterrupted run, including under an active fault plan — on the
production execution core (``fast``) and on the test-only model
(``reference``, ``tests/engine/model.py``).  Plus every
refusal path: tampered state, a snapshot from a retired engine
backend, wrong seed, barrier past the end of the run.
"""

import copy

import pytest

from repro.snapshot import (
    SnapshotError,
    SnapshotMismatchError,
    build_program,
    load_snapshot,
    render_snapshot,
    restore,
    resume_to_end,
    snapshot,
    validate_snapshot,
    write_snapshot,
)
from tests.engine import model
from tests.engine.model import ENGINES, use_engine

pytestmark = pytest.mark.tier1


def _uninterrupted(spec):
    return build_program(dict(spec)).start().finish()


def _snapshot_at(spec, barrier):
    run = build_program(dict(spec)).start()
    return snapshot(run, at_events=barrier)


@pytest.mark.parametrize("engine", ENGINES)
def test_trade_resume_payload_identical(engine, monkeypatch):
    use_engine(engine, monkeypatch)
    spec = {"kind": "trade", "seconds": 4, "seed": 3}
    expected = _uninterrupted(spec)
    document = _snapshot_at(spec, 300)
    on_model = isinstance(restore(document).kernel.engine, model.Engine)
    assert on_model == (engine == "reference")
    assert "backend" not in document
    assert "engine" not in document["program"]
    assert resume_to_end(document) == expected


@pytest.mark.parametrize("engine", ENGINES)
def test_faults_resume_identical_under_active_fault_plan(engine,
                                                         monkeypatch):
    use_engine(engine, monkeypatch)
    # cpu_stall keeps its injector live mid-run: the snapshot lands
    # with armed fault state and the resume must replay it exactly
    spec = {"kind": "faults", "scenario": "cpu_stall", "seconds": 5,
            "seed": 0}
    expected = _uninterrupted(spec)
    document = _snapshot_at(spec, 250)
    payload = resume_to_end(document)
    assert payload == expected
    assert payload["scenario"]["injected"]  # faults actually fired


@pytest.mark.parametrize("engine", ENGINES)
def test_overheads_resume_payload_identical(engine, monkeypatch):
    use_engine(engine, monkeypatch)
    spec = {"kind": "overheads", "np": 4, "jobs": 3, "seed": 1}
    expected = _uninterrupted(spec)
    assert resume_to_end(_snapshot_at(spec, 120)) == expected


def test_snapshot_round_trips_through_disk(tmp_path):
    spec = {"kind": "trade", "seconds": 4, "seed": 3}
    document = _snapshot_at(spec, 300)
    path = str(tmp_path / "snap.json")
    write_snapshot(path, document)
    loaded = load_snapshot(path)
    assert loaded == document
    assert render_snapshot(loaded) == render_snapshot(document)
    assert resume_to_end(loaded) == _uninterrupted(spec)


def test_restore_positions_engine_exactly_at_barrier():
    spec = {"kind": "trade", "seconds": 4, "seed": 3}
    document = _snapshot_at(spec, 300)
    run = restore(document)
    assert run.kernel.engine.events_processed == 300
    assert run.kernel.engine.now == document["barrier"]["now"]


def test_tampered_state_refused():
    spec = {"kind": "trade", "seconds": 4, "seed": 3}
    document = _snapshot_at(spec, 300)
    tampered = copy.deepcopy(document)
    tampered["state"]["engine"]["now"] += 1.0
    with pytest.raises(SnapshotError, match="digest mismatch"):
        validate_snapshot(tampered)


def test_wrong_seed_refused_at_attestation():
    spec = {"kind": "trade", "seconds": 4, "seed": 3}
    document = _snapshot_at(spec, 300)
    forged = copy.deepcopy(document)
    forged["program"]["seed"] = 4  # a different computation entirely
    with pytest.raises(SnapshotMismatchError):
        restore(forged)


def test_wrong_backend_refused_before_any_work(monkeypatch):
    """A snapshot taken while two engine backends existed names one —
    in its header (``backend``) and its program spec (``engine``).
    It is refused with a message naming that backend, before the
    program is even rebuilt."""
    import repro.snapshot.resume as resume_module

    spec = {"kind": "trade", "seconds": 4, "seed": 3}
    document = _snapshot_at(spec, 300)
    in_header = copy.deepcopy(document)
    in_header["backend"] = "reference"
    in_program = copy.deepcopy(document)
    in_program["program"]["engine"] = "fast"
    monkeypatch.setattr(resume_module, "build_program", None)
    for forged, name in ((in_header, "reference"), (in_program, "fast")):
        with pytest.raises(SnapshotMismatchError,
                           match=f"retired '{name}' engine backend"):
            restore(forged)


def test_barrier_past_end_of_run_refused():
    spec = {"kind": "trade", "seconds": 4, "seed": 3}
    run = build_program(dict(spec)).start()
    with pytest.raises(SnapshotError, match="drained"):
        snapshot(run, at_events=10_000_000)


def test_unknown_schema_and_program_kind_refused():
    spec = {"kind": "trade", "seconds": 4, "seed": 3}
    document = _snapshot_at(spec, 300)
    wrong_schema = copy.deepcopy(document)
    wrong_schema["schema"] = "bogus/9"
    with pytest.raises(SnapshotError, match="schema"):
        validate_snapshot(wrong_schema)
    with pytest.raises(SnapshotError, match="unknown program kind"):
        build_program({"kind": "nope"})
