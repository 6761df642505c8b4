import itertools
import json

import numpy as np
import pytest

from noumenal import (
    GATES,
    ParseError,
    SystemLattice,
    UnitaryOperator,
    ValidationError,
    circuit_from_json,
    embed_operator,
    from_global_unitary,
    haar_random_unitary,
    matrix_from_json,
    matrix_to_json,
    max_abs,
    simulate_circuit,
)
from noumenal import circuits, linalg
from noumenal.circuits import GateApplication, _listed_order_permutation, gate_unitary
from noumenal.cli import main
from noumenal.linalg import TOL_EQ

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


def test_empty_track_is_refused_before_the_first_step():
    # Tracking nothing would check nothing and still pass.
    with pytest.raises(ValidationError, match="'track' is empty"):
        simulate_circuit(circuit_from_json(two_qubit_payload(gates=[{"name": "H", "targets": [0]}], track=[])))


def test_empty_track_entry_is_refused_before_the_first_step():
    # The empty system's 1x1 grid checks only tr ρ₀ = 1, so tracking it would pass unchecked.
    with pytest.raises(ValidationError, match="'track' has an empty entry"):
        simulate_circuit(circuit_from_json(two_qubit_payload(gates=[{"name": "H", "targets": [0]}], track=[[0], []])))


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
    with pytest.raises(ParseError, match="string initial states must look like"):
        circuit_from_json(two_qubit_payload(initial_state="|00>"))
    with pytest.raises(ParseError, match="digit 2 out of range"):  # a ValidationError inside, read as a parse error
        circuit_from_json(two_qubit_payload(initial_state="pure:|02>"))
    with pytest.raises(ParseError, match="gate target -1 is not an atom id"):
        circuit_from_json(two_qubit_payload(gates=[{"name": "X", "targets": [-1]}]))
    with pytest.raises(ParseError, match="must be a JSON object"):
        circuit_from_json([1, 2])


def test_default_track_is_global_system():
    payload = two_qubit_payload()
    del payload["track"]
    circuit = circuit_from_json(payload)
    assert [list(s.atom_ids) for s in circuit.track] == [[0, 1]]


def haar_gate(rng, lattice, targets):
    dim = int(np.prod([lattice.dims[t] for t in targets]))
    return {"matrix": matrix_to_json(haar_random_unitary(dim, rng)), "targets": [int(t) for t in targets]}


def entries_of(tracked) -> np.ndarray:
    return tracked["evolution"]["entries"].view(np.complex128)[..., 0]


def test_gates_are_checked_once_each_before_the_first_step(monkeypatch, rng, tmp_path, capsys):
    lattice = SystemLattice.from_dims([2, 3, 2])
    payload = {
        "atoms": [{"id": i, "dim": d} for i, d in enumerate(lattice.dims)],
        "gates": [haar_gate(rng, lattice, t) for t in ([1], [2, 0], [0, 1, 2], [0])],
        "track": [[0], [1, 2], [0, 1, 2]],
    }
    # A non-unitary last gate exits 2 before any step is written.
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps({**payload, "gates": [*payload["gates"], {"matrix": [[[1, 0]] * 2] * 2, "targets": [0]}]},
                               default=np.ndarray.tolist))
    assert main(["simulate", "--file", str(path), "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    # A valid circuit checks each gate once, and never embeds one into a D x D
    # matrix (embed_operator builds U ⊗ I through tensor_operators).
    circuit = circuit_from_json(payload)
    calls = {"is_unitary": 0, "embed_operator": 0, "tensor_operators": 0}

    def spy(name, original):
        def counted(*args):
            calls[name] += 1
            return original(*args)
        return counted

    originals = {name: getattr(linalg, name) for name in calls}
    for module in (linalg, circuits):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, originals[name]))
    assert simulate_circuit(circuit)["passed"]
    assert calls == {"is_unitary": len(circuit.gates), "embed_operator": 0, "tensor_operators": 0}


def test_tracked_grids_follow_the_global_grid_over_a_long_circuit():
    """Local updates accumulate rounding; after each of 240 Haar gates on
    2x3x2, every tracked grid stays within TOL_EQ of the grid rebuilt from a
    W accumulated densely, the old path, kept here as the oracle."""
    rng = np.random.default_rng(5)
    lattice = SystemLattice.from_dims([2, 3, 2])
    gates = [haar_gate(rng, lattice, rng.permutation(3)[: rng.integers(1, 3)]) for _ in range(240)]
    payload = {
        "atoms": [{"id": i, "dim": d} for i, d in enumerate(lattice.dims)],
        "gates": gates,
        "track": [[1], [0, 2], [0, 1, 2]],
    }
    circuit = circuit_from_json(payload)
    record = simulate_circuit(circuit)
    assert record["passed"]
    w = np.eye(lattice.global_dim, dtype=complex)
    cases = set()
    for gate, step in zip([None, *circuit.gates], record["steps"]):
        if gate is not None:
            unitary = gate_unitary(gate, circuit.lattice)
            w = embed_operator(unitary.matrix, unitary.system) @ w
        for system, tracked in zip(circuit.track, step["tracked"]):
            if gate is not None:
                cases.add(unitary.system.is_disjoint_from(system) + 2 * unitary.system.is_subsystem_of(system))
            expected = from_global_unitary(UnitaryOperator(w, circuit.lattice.global_system), system).entries
            assert max_abs(entries_of(tracked) - expected) <= TOL_EQ
            assert tracked["cross_check_residual"] <= TOL_EQ
    assert cases == {0, 1, 2}  # straddling, disjoint and contained gates all ran


def test_a_disjoint_gate_emits_the_previous_grid_bitwise(rng):
    lattice = SystemLattice.from_dims([2, 2, 2])
    payload = {
        "atoms": [{"id": i, "dim": 2} for i in range(3)],
        "gates": [haar_gate(rng, lattice, [0, 1]), haar_gate(rng, lattice, [2]), haar_gate(rng, lattice, [2, 0])],
        "track": [[0]],
    }
    steps = simulate_circuit(circuit_from_json(payload))["steps"]
    grids = [entries_of(step["tracked"][0]) for step in steps]
    assert grids[2].tobytes() == grids[1].tobytes()
    assert grids[3].tobytes() != grids[2].tobytes() != grids[0].tobytes()


def test_a_gate_points_the_grids_it_touches_at_that_steps_w(monkeypatch, rng):
    """After a gate, each tracked grid it touches holds the ``W`` of that step
    itself, with no copy; a grid the gate missed keeps the one it had."""
    lattice = SystemLattice.from_dims([2, 3, 2])
    payload = {
        "atoms": [{"id": i, "dim": d} for i, d in enumerate(lattice.dims)],
        "gates": [haar_gate(rng, lattice, [0, 1]), haar_gate(rng, lattice, [2, 1])],
        "track": [[0], [1], [2], [0, 2]],
    }
    circuit = circuit_from_json(payload)
    built, phi_inputs = [], []
    build, phi = circuits.from_global_unitary, circuits.phi
    monkeypatch.setattr(circuits, "from_global_unitary", lambda w, system: built.append(w) or build(w, system))
    monkeypatch.setattr(circuits, "phi", lambda anchor, grid: phi_inputs.append(grid) or phi(anchor, grid))
    assert simulate_circuit(circuit)["passed"]
    w = np.eye(lattice.global_dim, dtype=complex)
    for gate in circuit.gates:
        unitary = gate_unitary(gate, lattice)
        w = embed_operator(unitary.matrix, unitary.system) @ w
    # Four grids are built at step 0, then three after each gate (each misses one tracked system).
    first_w, last_w = built[4].matrix, built[-1].matrix
    assert max_abs(last_w - w) <= TOL_EQ
    first_step, last_step = phi_inputs[4:8], phi_inputs[8:]
    assert [np.shares_memory(grid.w, last_w) for grid in last_step] == [False, True, True, True]
    assert last_step[0] is first_step[0] and first_step[0].w is first_w
