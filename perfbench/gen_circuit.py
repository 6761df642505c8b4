"""Generate the ``simulate-7q`` circuit file from a seed.

The circuit has a fixed shape so that its cost does not depend on the seed:
an explicit Haar-random one-qubit matrix on a control qubit, a ``CNOT`` from
that control to the tracked qubit, then ``H`` on the tracked qubit.  The
seed picks the two qubits and the matrix.  Only the tracked qubit is
emitted, so every step serializes a ``d = 2`` grid of ``D x D`` operators
with ``D = 2**qubits``.

Usage::

    python3 perfbench/gen_circuit.py --seed 0 --qubits 7 --out perfbench/inputs/simulate-7q-seed0.json
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np


def make_circuit(seed: int, qubits: int) -> dict:
    rng = np.random.default_rng(seed)
    control, tracked = (int(q) for q in rng.choice(qubits, size=2, replace=False))
    ginibre = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(ginibre)
    unitary = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return {
        "atoms": [{"id": i, "dim": 2, "label": f"q{i}"} for i in range(qubits)],
        "initial_state": "pure:|" + "0" * qubits + ">",
        "gates": [
            {"matrix": [[[float(z.real), float(z.imag)] for z in row] for row in unitary],
             "targets": [control]},
            {"name": "CNOT", "targets": [control, tracked]},
            {"name": "H", "targets": [tracked]},
        ],
        "track": [[tracked]],
    }


def dumps(circuit: dict) -> str:
    return json.dumps(circuit, indent=1) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--qubits", type=int, default=7)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.write_text(dumps(make_circuit(args.seed, args.qubits)))


if __name__ == "__main__":
    main()
