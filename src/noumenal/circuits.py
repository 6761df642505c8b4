"""Circuit files and dual-track simulation.

A circuit file (JSON) declares the lattice atoms, an initial global state,
a gate list, and which systems to track.  Simulation applies each gate to
the global operation ``W`` and the state ``W ρ W†`` on its target axes only.
A tracked grid stays as it is under a disjoint gate and otherwise becomes
``[W]^A`` on the new ``W``, which it holds without a copy.  Each step emits,
per tracked system, the grid, the density operator, and the residual
between the grid's image and ``W ρ W†``.

Schema::

    {
      "atoms": [{"id": 0, "dim": 2, "label": "A"}, ...],
      "initial_state": "pure:|00>"            # or an explicit density matrix
      "gates": [{"name": "H", "targets": [0]},
                {"matrix": [[[re,im],...],...], "targets": [0, 1]}],
      "track": [[0], [0, 1]]                  # optional; default: global system
    }

Named gates: I, X, Y, Z, H, S, T (one qubit), CNOT, SWAP, CZ (two qubits,
control first).  A gate's matrix is read in the listed target order and
re-indexed into the canonical ascending atom order internally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .lattice import AtomSpec, System, SystemLattice
from .linalg import (
    GATES,
    TOL_EQ,
    DensityOperator,
    UnitaryOperator,
    act_on_rows,
    matrix_from_json,
    matrix_to_json,
    max_abs,
    partial_trace,
)
from .evolution import EvolutionMatrix, from_global_unitary
from .phenomenal import basis_state_vector, phi, pure_density

@dataclass
class GateApplication:
    """One gate: an optional name, its matrix in listed-target order."""

    targets: tuple[int, ...]
    matrix: np.ndarray
    name: str | None = None


@dataclass
class Circuit:
    lattice: SystemLattice
    anchor: DensityOperator
    gates: list[GateApplication]
    track: list[System]


def _listed_order_permutation(system: System, targets: tuple[int, ...]) -> np.ndarray:
    """Map canonical (ascending-atom) indices to listed-target-order indices."""
    listed = np.arange(system.dim).reshape([system.lattice.dims[t] for t in targets])
    return listed.transpose([targets.index(atom_id) for atom_id in system.atom_ids]).reshape(-1)


def gate_unitary(gate: GateApplication, lattice: SystemLattice) -> UnitaryOperator:
    """The gate as a unitary on its target system, canonical basis."""
    system = lattice.system(gate.targets)
    matrix = np.asarray(gate.matrix, dtype=np.complex128)
    if matrix.shape != (system.dim, system.dim):
        raise ValidationError(
            f"gate matrix is {matrix.shape} but targets {gate.targets} span dimension {system.dim}"
        )
    perm = _listed_order_permutation(system, gate.targets)
    return UnitaryOperator(matrix[np.ix_(perm, perm)], system)


# ---------------------------------------------------------------------------
# Parsing.
# ---------------------------------------------------------------------------

def _parse_atoms(payload) -> SystemLattice:
    if not isinstance(payload, list) or not payload:
        raise ParseError("'atoms' must be a non-empty list")
    atoms = []
    for entry in payload:
        if not isinstance(entry, dict) or not all(type(entry.get(key)) is int for key in ("id", "dim")):
            raise ParseError(f"atom entry must be an object with integer 'id' and 'dim', got {entry!r}")
        label = entry.get("label")  # null reads as absent, as simulate writes an unlabelled atom
        if label is not None and not isinstance(label, str):
            raise ParseError(f"atom 'label' must be a string, got {label!r}")
        atoms.append(AtomSpec(entry["id"], entry["dim"], label))
    return SystemLattice(sorted(atoms, key=lambda a: a.atom_id))


def _parse_ids(payload, what: str) -> list[int]:
    """A JSON list of atom ids.  Each must be an exact ``int``: a string is
    not read digit by digit, nor a float or a bool truncated to an id."""
    if not isinstance(payload, list) or not all(type(i) is int for i in payload):
        raise ParseError(f"{what} must be a list of integer atom ids, got {payload!r}")
    return payload


def _parse_initial_state(payload, lattice: SystemLattice) -> DensityOperator:
    system = lattice.global_system
    if payload is None:
        payload = "pure:" + "0" * lattice.n_atoms
    if isinstance(payload, str):
        if not payload.startswith("pure:"):
            raise ParseError(f"string initial states must look like 'pure:|01>', got {payload!r}")
        digits_text = payload[len("pure:"):].strip().lstrip("|").rstrip(">⟩")
        if len(digits_text) != lattice.n_atoms or not (digits_text.isascii() and digits_text.isdigit()):
            raise ParseError(
                f"need one digit per atom ({lattice.n_atoms}), got {digits_text!r}"
            )
        digits = tuple(int(c) for c in digits_text)
        try:
            return pure_density(system, basis_state_vector(system, digits))
        except ValidationError as exc:
            raise ParseError(str(exc)) from exc
    anchor = DensityOperator(matrix_from_json(payload), system)
    anchor.validate_psd()
    return anchor


def _parse_gates(payload, lattice: SystemLattice) -> list[GateApplication]:
    if payload is None:
        return []
    if not isinstance(payload, list):
        raise ParseError(f"'gates' must be a list, got {payload!r}")
    gates = []
    for entry in payload:
        if not isinstance(entry, dict) or "targets" not in entry:
            raise ParseError(f"gate entry must be an object with 'targets', got {entry!r}")
        targets = tuple(_parse_ids(entry["targets"], "gate 'targets'"))
        if "name" in entry:
            name = str(entry["name"])
            if name not in GATES:
                raise ParseError(f"unknown gate {name!r}; known: {sorted(GATES)}")
            arity = len(GATES[name]).bit_length() - 1  # a 2^k x 2^k matrix takes k qubits
            if len(targets) != arity:
                raise ParseError(f"gate {name} takes {arity} target(s), got {targets}")
            for t in targets:
                if not 0 <= t < lattice.n_atoms:
                    raise ParseError(f"gate target {t} is not an atom id")
                if lattice.dims[t] != 2:
                    raise ValidationError(f"named gate {name} needs qubit targets; atom {t} has dim {lattice.dims[t]}")
            gates.append(GateApplication(targets, GATES[name], name))
        elif "matrix" in entry:
            gates.append(GateApplication(targets, matrix_from_json(entry["matrix"])))
        else:
            raise ParseError(f"gate entry needs 'name' or 'matrix': {entry!r}")
    return gates


def _parse_track(payload, lattice: SystemLattice) -> list[System]:
    if payload is None:
        return [lattice.global_system]
    if not isinstance(payload, list):
        raise ParseError(f"'track' must be a list of atom-id lists, got {payload!r}")
    return [lattice.system(_parse_ids(ids, "each 'track' entry")) for ids in payload]


def circuit_from_json(payload: dict) -> Circuit:
    if not isinstance(payload, dict):
        raise ParseError("circuit file must be a JSON object")
    if "atoms" not in payload:
        raise ParseError("circuit file is missing 'atoms'")
    lattice = _parse_atoms(payload["atoms"])
    anchor = _parse_initial_state(payload.get("initial_state"), lattice)
    gates = _parse_gates(payload.get("gates"), lattice)
    track = _parse_track(payload.get("track"), lattice)
    return Circuit(lattice, anchor, gates, track)


def load_circuit(path: str | Path) -> Circuit:
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"cannot read circuit file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"circuit file {path} is not valid JSON: {exc}") from exc
    return circuit_from_json(payload)


# ---------------------------------------------------------------------------
# Simulation.
# ---------------------------------------------------------------------------

def _conjugate_state(u: UnitaryOperator, rho: np.ndarray) -> np.ndarray:
    """``(u ⊗ I) ρ (u ⊗ I)†``: ``u`` on the rows, then ``conj(u)`` on the columns."""
    return act_on_rows(u.matrix.conj(), act_on_rows(u.matrix, rho, u.system).T, u.system).T


def _next_grid(grid: EvolutionMatrix, u: UnitaryOperator, w: UnitaryOperator) -> EvolutionMatrix:
    """``grid`` after gate ``u``: itself if ``u`` is disjoint from it (no action at a distance), else ``[w]^A``."""
    return grid if u.system.is_disjoint_from(grid.system) else from_global_unitary(w, grid.system)


def simulate_circuit(circuit: Circuit, tol: float = TOL_EQ) -> dict:
    """Run the circuit, emitting both state descriptions after every gate."""
    lattice = circuit.lattice
    s = lattice.global_system
    gates = [(gate, gate_unitary(gate, lattice)) for gate in circuit.gates]
    if not circuit.track:  # a run that tracks nothing checks nothing, and must not pass
        raise ValidationError("'track' is empty: no system would be checked")
    if any(system.is_empty for system in circuit.track):  # its 1x1 grid checks only tr ρ₀ = 1
        raise ValidationError("'track' has an empty entry: it would check only tr ρ₀ = 1")
    w = UnitaryOperator._trusted(np.eye(lattice.global_dim, dtype=np.complex128), s)
    rho = circuit.anchor.matrix
    grids = [from_global_unitary(w, system) for system in circuit.track]
    steps = []
    worst = 0.0
    for t, (gate, u) in enumerate([(None, None), *gates]):  # step 0 is the initial state
        if u is not None:
            w = UnitaryOperator._trusted(act_on_rows(u.matrix, w.matrix, u.system), s)
            rho = _conjugate_state(u, rho)
            grids = [_next_grid(grid, u, w) for grid in grids]
        tracked = []
        for grid in grids:
            phenomenal = phi(circuit.anchor, grid)
            direct = partial_trace(rho, s, grid.system.complement())
            residual = max_abs(phenomenal.matrix - direct)
            worst = max(worst, residual)
            tracked.append(
                {
                    "system": list(grid.system.atom_ids),
                    "evolution": grid.to_json(),
                    "phenomenal": matrix_to_json(phenomenal.matrix),
                    "cross_check_residual": residual,
                    "cross_check_ok": residual <= tol,
                }
            )
        steps.append(
            {
                "step": t,
                "gate": None if gate is None else gate.name or "matrix",
                "targets": None if gate is None else list(gate.targets),
                "tracked": tracked,
            }
        )

    return {
        "atoms": [{"id": a.atom_id, "dim": a.dim, "label": a.label} for a in lattice.atoms],
        "initial_state": matrix_to_json(circuit.anchor.matrix),
        "steps": steps,
        "max_cross_check_residual": worst,
        "tolerance": tol,
        "passed": worst <= tol,
    }
