"""``repro snapshot`` CLI surface and the resumable-campaign flags."""

import io
import json

import pytest

from repro.cli import main

pytestmark = pytest.mark.tier1


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_snapshot_run_emits_deterministic_payload():
    code1, text1 = _run(["snapshot", "run", "--program", "trade",
                         "--seconds", "4", "--seed", "3"])
    code2, text2 = _run(["snapshot", "run", "--program", "trade",
                         "--seconds", "4", "--seed", "3"])
    assert code1 == code2 == 0
    assert text1 == text2
    payload = json.loads(text1)
    assert payload["program"]["kind"] == "trade"
    assert payload["probe_stream_sha256"]


def test_snapshot_dump_inspect_resume_flow(tmp_path):
    snap = str(tmp_path / "snap.json")
    program = ["--program", "trade", "--seconds", "4", "--seed", "3"]
    code, text = _run(["snapshot", "dump", *program,
                       "--at-events", "300", "--snapshot", snap])
    assert code == 0
    assert "wrote snapshot of trade at 300 events" in text

    code, text = _run(["snapshot", "inspect", "--snapshot", snap])
    assert code == 0
    summary = json.loads(text)
    assert summary["schema"] == "rtseed-snapshot/1"
    assert summary["barrier"]["events_processed"] == 300
    assert summary["engine"]["events_processed"] == 300

    out_path = str(tmp_path / "resumed.json")
    code, _text = _run(["snapshot", "resume", "--snapshot", snap,
                        "--out", out_path])
    assert code == 0
    resumed = json.loads(open(out_path).read())

    code, full_text = _run(["snapshot", "run", *program])
    assert code == 0
    assert resumed == json.loads(full_text)


def test_snapshot_errors_are_exit_code_2(tmp_path):
    code, text = _run(["snapshot", "dump", "--program", "trade",
                       "--snapshot", str(tmp_path / "s.json")])
    assert code == 2
    assert "--at-events" in text

    code, text = _run(["snapshot", "inspect"])
    assert code == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, text = _run(["snapshot", "resume", "--snapshot", str(bad)])
    assert code == 2
    assert "snapshot" in text

    code, text = _run(["snapshot", "run", "--program", "faults",
                       "--scenario", "not_a_scenario"])
    assert code == 2
    assert "unknown scenario" in text

    code, text = _run(["snapshot", "run", "--program", "check"])
    assert code == 2
    assert "--artifact" in text


def test_faults_resume_rejected_with_workers(tmp_path):
    code, text = _run(["faults", "--workers", "2",
                       "--resume", str(tmp_path / "x.json")])
    assert code == 2
    assert "serial" in text


def test_faults_serial_checkpoint_resume_identical(tmp_path):
    full = str(tmp_path / "full.json")
    code, _ = _run(["faults", "--scenario", "cpu_stall,net_timeouts",
                    "--seconds", "4", "--out", full])
    assert code == 0

    # run with a checkpoint, then pretend the process died after the
    # first scenario by re-deriving the checkpoint from scratch
    from repro.faults.campaign import (
        _campaign_checkpoint_document,
        run_scenario,
    )
    from repro.snapshot import write_snapshot

    names = ["cpu_stall", "net_timeouts"]
    partial = {"cpu_stall": run_scenario("cpu_stall", n_seconds=4,
                                         seed=0)}
    checkpoint = str(tmp_path / "campaign.ckpt")
    write_snapshot(checkpoint,
                   _campaign_checkpoint_document(names, 4, 0, partial))

    resumed = str(tmp_path / "resumed.json")
    code, _ = _run(["faults", "--scenario", "cpu_stall,net_timeouts",
                    "--seconds", "4", "--resume", checkpoint,
                    "--out", resumed])
    assert code == 0
    assert open(full).read() == open(resumed).read()


def test_campaign_checkpoint_program_mismatch_refused(tmp_path):
    from repro.faults.campaign import (
        _campaign_checkpoint_document,
        load_campaign_checkpoint,
    )
    from repro.snapshot import SnapshotMismatchError

    document = _campaign_checkpoint_document(["cpu_stall"], 4, 0, {})
    with pytest.raises(SnapshotMismatchError, match="refusing"):
        load_campaign_checkpoint(document, ["cpu_stall"], 4, seed=1)
    with pytest.raises(SnapshotMismatchError, match="refusing"):
        load_campaign_checkpoint(document, ["net_timeouts"], 4, seed=0)
