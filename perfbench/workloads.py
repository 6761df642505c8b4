"""Workload definitions: which CLI invocation each workload runs.

A workload turns the benchmark's ``--seed`` into one ``noumenal`` argv.
The program sees only that argv (and, for ``simulate``, the circuit file the
seed generates); every invocation within a run repeats the same argv, so the
output must be byte-identical across them.

``SIZES["smoke"]`` holds the smallest inputs of each workload, used by the
self-test; ``SIZES["full"]`` is what ``run.py`` measures by default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import gen_circuit
from check import LAW_IDS

SIZES = {
    "full": {
        "verify-d8": {"atoms": "2x2x2", "trials": 100},
        "nosignal-d32": {"atoms": "2x2x2x2x2", "trials": 1},
        "simulate-7q": {"qubits": 7},
    },
    "smoke": {
        "verify-d8": {"atoms": "2x2x2", "trials": 1},
        "nosignal-d32": {"atoms": "2x2", "trials": 1},
        "simulate-7q": {"qubits": 3},
    },
}

NAMES = tuple(SIZES["full"])


@dataclass(frozen=True)
class Prepared:
    """One workload instance: the argv, its operation count (a verify
    operation is one law-trial) and the inputs the output check needs."""

    argv: list[str]
    ops: int
    params: dict
    circuit: dict | None = None


def prepare(name: str, seed: int, size: str, workdir: Path) -> Prepared:
    """Build the inputs of ``name`` for ``seed``; writes the circuit file of
    ``simulate`` workloads under ``workdir``."""
    params = dict(SIZES[size][name])
    if name == "verify-d8":
        argv = ["verify", "--atoms", params["atoms"], "--trials", str(params["trials"]),
                "--seed", str(seed), "--format", "json"]
        return Prepared(argv, len(LAW_IDS) * params["trials"], params)
    if name == "nosignal-d32":
        argv = ["demo", "no-signalling", "--atoms", params["atoms"],
                "--trials", str(params["trials"]), "--seed", str(seed), "--format", "json"]
        return Prepared(argv, params["trials"], params)
    if name == "simulate-7q":
        circuit = gen_circuit.make_circuit(seed, params["qubits"])
        path = workdir / f"simulate-{params['qubits']}q-seed{seed}.json"
        _write_atomically(path, gen_circuit.dumps(circuit))
        params["gates"] = len(circuit["gates"])
        params["track"] = circuit["track"]
        argv = ["simulate", "--file", str(path), "--format", "json"]
        return Prepared(argv, len(circuit["gates"]) + 1, params, circuit)
    raise ValueError(f"unknown workload {name!r}")


def _write_atomically(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
