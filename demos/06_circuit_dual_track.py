"""Dual-track circuit simulation.

A circuit file declares atoms, an initial state, gates, and which systems
to track.  After every gate, each tracked system gets both descriptions,
the evolution-matrix grid and the density operator, plus a cross-check
residual between the grid's image under the epimorphism and the directly
reduced evolved state.  The same record is available from the command
line: ``noumenal simulate --file circuit.json``.
"""

import json

import numpy as np

from noumenal import circuit_from_json, simulate_circuit

payload = {
    "atoms": [
        {"id": 0, "dim": 2, "label": "control"},
        {"id": 1, "dim": 2, "label": "target"},
    ],
    "initial_state": "pure:|00>",
    "gates": [
        {"name": "H", "targets": [0]},
        {"name": "CNOT", "targets": [0, 1]},
        {"name": "Z", "targets": [1]},
    ],
    "track": [[0], [0, 1]],
}

record = simulate_circuit(circuit_from_json(payload))

for step in record["steps"]:
    gate = step["gate"] or "(initial)"
    print(f"after step {step['step']} [{gate}]:")
    for entry in step["tracked"]:
        marginal = np.array(entry["phenomenal"], dtype=float)[..., 0]
        diag = np.diagonal(marginal).round(4).tolist()
        print(f"  system {entry['system']}: populations {diag}, "
              f"cross-check {entry['cross_check_residual']:.1e}")

print(f"\nmax cross-check residual: {record['max_cross_check_residual']:.2e}")
print("record keys:", sorted(record))
print("full record as JSON:", len(json.dumps(record, default=np.ndarray.tolist)), "bytes")
assert record["passed"]
