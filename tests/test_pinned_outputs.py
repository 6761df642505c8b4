"""The ``--format json`` stdout of six fixed commands, pinned by hash.

Each command runs in-process through ``cli.main``, from the repository
root; the test compares the first 16 hex digits of the SHA-256 of its
stdout, and parses that stdout as strict JSON, without ``NaN`` or
``Infinity``.  A change that moves one of these hashes on purpose updates
it here and says in CHANGES.md why the output moved.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from noumenal.cli import main

from conftest import refuse_constant

PINNED = {
    "verify --atoms 2x2x2 --trials 20 --seed 3": "282f50c6563c0b57",
    "verify --atoms 2x2 --trials 5 --self-test-bug": "5786d9c827d6342d",
    "verify --atoms 2x2x2 --trials 100 --seed 0": "05b07a8cd472ae88",
    "simulate --file perfbench/inputs/simulate-7q-seed0.json": "9f888fdbdcebed3c",
    "demo bell-incompleteness": "2a5d098cb0597639",
    "demo no-signalling --atoms 2x2x2x2x2 --trials 1": "6a500569976d1a5f",
}


@pytest.mark.parametrize("command", PINNED)
def test_json_stdout_hash_is_pinned(monkeypatch, command):
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main([*command.split(), "--format", "json"])
    json.loads(out.getvalue(), parse_constant=refuse_constant)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == PINNED[command]
