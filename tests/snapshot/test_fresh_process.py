"""The guarantee that matters operationally: restore in a FRESH
process.

The in-process round-trip (``test_roundtrip``) could in principle lean
on leftover interpreter state; these tests dump a snapshot in one
``python -m repro.cli`` process and resume it in another, then require
the resumed payload to be byte-identical (``cmp`` semantics: exact
file equality) to an uninterrupted run — on the production execution
core (``fast``) and on the test-only model (``reference``,
``tests/engine/model.py``) — also for a fault-plan scenario.  This is
the same flow the CI ``snapshot-smoke``
job drives.
"""

import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.tier1

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
REPO_SRC = os.path.join(REPO_ROOT, "src")

#: ``python -c`` entry point running the CLI with the model swapped in.
_CLI_ON_MODEL = (
    "import sys, types\n"
    "from tests.engine.model import swap_in_model\n"
    "swap_in_model(types.SimpleNamespace(setattr=setattr))\n"
    "from repro.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def _cli(args, cwd, engine="fast"):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = REPO_SRC
    entry = ["-m", "repro.cli"]
    if engine == "reference":
        environment["PYTHONPATH"] += os.pathsep + REPO_ROOT
        entry = ["-c", _CLI_ON_MODEL]
    return subprocess.run(
        [sys.executable, *entry, *args],
        cwd=cwd, env=environment, capture_output=True, text=True,
        timeout=300,
    )


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_fresh_process_resume_is_byte_identical(tmp_path, engine):
    base = ["snapshot"]
    program = ["--program", "trade", "--seconds", "4", "--seed", "3"]
    run = _cli(base + ["run", *program, "--out", "full.json"],
               cwd=str(tmp_path), engine=engine)
    assert run.returncode == 0, run.stdout + run.stderr
    dump = _cli(base + ["dump", *program, "--at-events", "300",
                        "--snapshot", "snap.json"], cwd=str(tmp_path),
                engine=engine)
    assert dump.returncode == 0, dump.stdout + dump.stderr
    resume = _cli(base + ["resume", "--snapshot", "snap.json",
                          "--out", "resumed.json"], cwd=str(tmp_path),
                  engine=engine)
    assert resume.returncode == 0, resume.stdout + resume.stderr
    full = (tmp_path / "full.json").read_bytes()
    resumed = (tmp_path / "resumed.json").read_bytes()
    assert full == resumed  # cmp-level equality


def test_fresh_process_resume_with_fault_plan(tmp_path):
    base = ["snapshot"]
    program = ["--program", "faults", "--scenario", "cpu_stall",
               "--seconds", "5"]
    run = _cli(base + ["run", *program, "--out", "full.json"],
               cwd=str(tmp_path))
    assert run.returncode == 0, run.stdout + run.stderr
    dump = _cli(base + ["dump", *program, "--at-events", "250",
                        "--snapshot", "snap.json"], cwd=str(tmp_path))
    assert dump.returncode == 0, dump.stdout + dump.stderr
    resume = _cli(base + ["resume", "--snapshot", "snap.json",
                          "--out", "resumed.json"], cwd=str(tmp_path))
    assert resume.returncode == 0, resume.stdout + resume.stderr
    assert (tmp_path / "full.json").read_bytes() \
        == (tmp_path / "resumed.json").read_bytes()


def test_fresh_process_refuses_other_backend(tmp_path):
    """A snapshot naming a retired engine backend (as every snapshot
    taken while two existed does) is refused with exit code 2 and a
    message naming the backend."""
    import json

    dump = _cli(["snapshot", "dump", "--program", "trade",
                 "--seconds", "4", "--at-events", "200",
                 "--snapshot", "snap.json"], cwd=str(tmp_path))
    assert dump.returncode == 0, dump.stdout + dump.stderr
    path = tmp_path / "snap.json"
    document = json.loads(path.read_text())
    document["backend"] = "fast"
    document["program"]["engine"] = "fast"
    path.write_text(json.dumps(document))
    resume = _cli(["snapshot", "resume", "--snapshot", "snap.json"],
                  cwd=str(tmp_path))
    assert resume.returncode == 2
    assert "retired 'fast' engine backend" in resume.stdout
