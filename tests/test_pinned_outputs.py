"""The ``--format json`` stdout of six fixed commands, pinned by hash.

Each command runs in-process through ``cli.main``, from the repository
root; the test compares the first 16 hex digits of the SHA-256 of its
stdout, and parses that stdout as strict JSON, without ``NaN`` or
``Infinity``.  A change that moves one of these hashes on purpose updates
it here and says in CHANGES.md why the output moved.  The ``simulate``
command also runs as a process, so its record goes through the real
stdout and a pipe.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from noumenal.cli import main

from conftest import refuse_constant

PINNED = {
    "verify --atoms 2x2x2 --trials 20 --seed 3": "51126d3a6bc9f255",
    "verify --atoms 2x2 --trials 5 --self-test-bug": "5786d9c827d6342d",
    "verify --atoms 2x2x2 --trials 100 --seed 0": "07a6ee201ce916b4",
    "simulate --file perfbench/inputs/simulate-7q-seed0.json": "9f888fdbdcebed3c",
    "demo bell-incompleteness": "2a5d098cb0597639",
    "demo no-signalling --atoms 2x2x2x2x2 --trials 1": "6a500569976d1a5f",
}
ROOT = Path(__file__).resolve().parents[1]
SIMULATE = "simulate --file perfbench/inputs/simulate-7q-seed0.json"


def _process(command: str, fmt: str) -> dict:
    """``subprocess`` arguments that run ``command`` as ``python -m noumenal.cli``, from the repository root."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {
        "args": [sys.executable, "-m", "noumenal.cli", *command.split(), "--format", fmt],
        "cwd": ROOT,
        "env": {**os.environ, "PYTHONPATH": path},
    }


@pytest.mark.parametrize("command", PINNED)
def test_json_stdout_hash_is_pinned(monkeypatch, command):
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main([*command.split(), "--format", "json"])
    json.loads(out.getvalue(), parse_constant=refuse_constant)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == PINNED[command]


def test_simulate_stdout_through_a_pipe_matches_the_in_process_output(monkeypatch):
    piped = subprocess.run(**_process(SIMULATE, "json"), capture_output=True, check=True, timeout=120)
    assert hashlib.sha256(piped.stdout).hexdigest()[:16] == PINNED[SIMULATE]
    piped = subprocess.run(**_process(SIMULATE, "text"), capture_output=True, check=True, timeout=120)
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main([*SIMULATE.split(), "--format", "text"])
    assert piped.stdout.decode() == out.getvalue()


def test_a_closed_stdout_pipe_exits_141_without_a_traceback():
    # The record is 26.5 MB, far more than a pipe holds, so the writer is still writing when the pipe closes.
    proc = subprocess.Popen(**_process(SIMULATE, "json"), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert b"Traceback" not in stderr
