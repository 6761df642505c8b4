import itertools

import numpy as np
import pytest

from noumenal import (
    GATES,
    ParseError,
    SystemLattice,
    ValidationError,
    circuit_from_json,
    matrix_from_json,
    matrix_to_json,
    max_abs,
    simulate_circuit,
)
from noumenal.circuits import GateApplication, _listed_order_permutation, gate_unitary

from conftest import digit_tuples


def two_qubit_payload(**overrides):
    payload = {
        "atoms": [{"id": 0, "dim": 2, "label": "A"}, {"id": 1, "dim": 2, "label": "B"}],
        "initial_state": "pure:|00>",
        "gates": [],
        "track": [[0]],
    }
    payload.update(overrides)
    return payload


def test_empty_circuit_emits_initial_reduction():
    circuit = circuit_from_json(two_qubit_payload())
    record = simulate_circuit(circuit)
    assert record["passed"]
    assert len(record["steps"]) == 1
    tracked = record["steps"][0]["tracked"][0]
    assert tracked["system"] == [0]
    marginal = matrix_from_json(tracked["phenomenal"])
    assert max_abs(marginal - np.diag([1.0, 0.0])) < 1e-12
    # the grid is the identity-evolution grid of atom 0
    entry00 = matrix_from_json(tracked["evolution"]["entries"][0][0])
    assert max_abs(entry00 - np.diag([1.0, 1.0, 0.0, 0.0])) < 1e-12


def test_bell_circuit_marginal_is_maximally_mixed():
    payload = two_qubit_payload(
        gates=[{"name": "H", "targets": [0]}, {"name": "CNOT", "targets": [0, 1]}]
    )
    record = simulate_circuit(circuit_from_json(payload))
    assert record["passed"]
    final = record["steps"][-1]["tracked"][0]
    marginal = matrix_from_json(final["phenomenal"])
    assert max_abs(marginal - np.eye(2) / 2) < 1e-12


def test_random_circuit_cross_check(rng):
    gates = []
    for _ in range(3):
        from noumenal import haar_random_unitary

        target = int(rng.integers(0, 3))
        gates.append(
            {"matrix": matrix_to_json(haar_random_unitary(2, rng)), "targets": [target]}
        )
    payload = {
        "atoms": [{"id": i, "dim": 2} for i in range(3)],
        "gates": gates,
        "track": [[0], [0, 2]],
    }
    record = simulate_circuit(circuit_from_json(payload))
    assert record["passed"]
    assert record["max_cross_check_residual"] <= 1e-9
    assert len(record["steps"]) == 4


def test_cnot_respects_listed_target_order(lat22):
    # control listed second: |x y> -> |x XOR y, y>
    gate = GateApplication((1, 0), GATES["CNOT"], "CNOT")
    unitary = gate_unitary(gate, lat22)
    expected = np.zeros((4, 4))
    for x in (0, 1):
        for y in (0, 1):
            expected[2 * (x ^ y) + y, 2 * x + y] = 1.0
    assert max_abs(unitary.matrix - expected) < 1e-12


def test_listed_order_permutation_matches_digit_oracle():
    lattice = SystemLattice.from_dims([2, 3, 2, 3])
    cases = [t for r in range(1, 5) for t in itertools.permutations(range(4), r)]
    assert len(cases) == 64
    for targets in cases:
        system = lattice.system(targets)
        listed = list(itertools.product(*(range(lattice.dims[t]) for t in targets)))
        expected = []
        for digits in digit_tuples(system):  # canonical order: ascending atom ids
            by_atom = dict(zip(system.atom_ids, digits))
            expected.append(listed.index(tuple(by_atom[t] for t in targets)))
        assert _listed_order_permutation(system, targets).tolist() == expected, targets


def test_named_gate_needs_qubit_targets():
    payload = {
        "atoms": [{"id": 0, "dim": 3}],
        "gates": [{"name": "X", "targets": [0]}],
    }
    with pytest.raises(ValidationError):
        circuit_from_json(payload)


def test_duplicate_targets_rejected(lat22):
    gate = GateApplication((0, 0), GATES["CNOT"], "CNOT")
    with pytest.raises(ValidationError):
        gate_unitary(gate, lat22)


def test_explicit_matrix_gate_must_be_unitary():
    payload = two_qubit_payload(
        gates=[{"matrix": matrix_to_json(np.ones((2, 2))), "targets": [0]}]
    )
    with pytest.raises(ValidationError):
        simulate_circuit(circuit_from_json(payload))


def test_mixed_initial_state_supported(rng):
    from noumenal import random_density_matrix

    rho = random_density_matrix(4, rng)
    payload = two_qubit_payload(initial_state=matrix_to_json(rho), track=[[0], [1]])
    record = simulate_circuit(circuit_from_json(payload))
    assert record["passed"]


def test_parse_errors():
    with pytest.raises(ParseError):
        circuit_from_json({"gates": []})  # no atoms
    with pytest.raises(ParseError):
        circuit_from_json(two_qubit_payload(initial_state="pure:|0>"))  # wrong length
    with pytest.raises(ParseError):
        circuit_from_json(two_qubit_payload(gates=[{"name": "NOPE", "targets": [0]}]))
    with pytest.raises(ParseError):
        circuit_from_json(two_qubit_payload(gates=[{"name": "CNOT", "targets": [0]}]))
    with pytest.raises(ParseError):
        circuit_from_json(two_qubit_payload(gates=[{"targets": [0]}]))


def test_default_track_is_global_system():
    payload = two_qubit_payload()
    del payload["track"]
    circuit = circuit_from_json(payload)
    assert [list(s.atom_ids) for s in circuit.track] == [[0, 1]]
