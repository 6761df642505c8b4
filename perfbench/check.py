"""Output checks that fail closed and do not trust the program's verdict.

Each check returns a list of problems; an empty list means the output is
correct.  Residuals must be finite numbers in ``[0, TOL]``: a NaN, an
infinity or the ``-1.0`` sentinel is a failure even when the program printed
``pass``.  The simulate check also recomputes the last tracked density
matrix with an independent numpy state-vector simulation of the circuit
file.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

#: The CLI's default equality tolerance; restated so the check does not read
#: it from the program under test.
TOL = 1e-9

#: Largest entry difference allowed between the program's last tracked
#: density matrix and the state-vector reference.
REFERENCE_TOL = 1e-9

LAW_IDS = (
    "grid_conjugate_pairing", "grid_operator_products", "grid_trace_completeness",
    "remote_unitary_invariance", "action_via_global", "action_composition",
    "action_identity", "partial_trace_via_global", "partial_trace_surjectivity",
    "partial_trace_composition", "product_via_global", "product_trace_left_recovery",
    "product_trace_right_recovery", "unique_decomposition", "trace_product_reconstruction",
    "local_operations_factorize", "no_action_at_a_distance", "no_signalling",
    "epimorphism_via_partial_trace", "epimorphism_equivariance",
    "epimorphism_trace_commutation", "pure_anchor_stays_pure", "pure_surjectivity",
    "mixed_surjectivity", "extended_reconstruction", "extended_trace_commutation",
    "basis_change_direct_construction", "basis_change_identity",
    "basis_change_composition", "basis_change_round_trip",
)

_SQ2 = 1 / math.sqrt(2)
#: The named gates ``gen_circuit.py`` uses.
_NAMED_GATES = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]]),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
}

_RESIDUAL_RE = re.compile(r'"cross_check_residual": ([^,\n]+)')
_PHENOMENAL_KEY = '"phenomenal": '


def residual_problem(label: str, value, tol: float = TOL) -> str | None:
    """Why ``value`` is not an acceptable residual, or None when it is."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return f"{label}: residual {value!r} is not a number"
    if not math.isfinite(value):
        return f"{label}: residual {value!r} is not finite"
    if not 0 <= value <= tol:
        return f"{label}: residual {value!r} outside [0, {tol}]"
    return None


def check_verify(text: str, trials: int) -> list[str]:
    try:
        laws = json.loads(text)["laws"]
        ids = [law["law_id"] for law in laws]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"verify output is malformed: {exc!r}"]
    problems = []
    if sorted(ids) != sorted(LAW_IDS):
        problems.append(f"law ids differ from the 30 registered laws: {sorted(ids)}")
    for law in laws:
        law_id = law.get("law_id")
        if law.get("status") != "pass":
            problems.append(f"{law_id}: status {law.get('status')!r}")
        if law.get("trials") != trials:
            problems.append(f"{law_id}: ran {law.get('trials')!r} trials, expected {trials}")
        problem = residual_problem(str(law_id), law.get("max_residual"))
        if problem:
            problems.append(problem)
    return problems


def check_demo(text: str, trials: int) -> list[str]:
    try:
        payload = json.loads(text)
        findings = payload["findings"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"demo output is malformed: {exc!r}"]
    if not isinstance(findings, dict):
        return [f"demo findings are not an object: {findings!r}"]
    problems = []
    if payload.get("passed") is not True:
        problems.append(f"demo verdict {payload.get('passed')!r}")
    if findings.get("trials") != trials:
        problems.append(f"demo ran {findings.get('trials')!r} trials, expected {trials}")
    for key in ("noumenal_max_residual", "phenomenal_max_residual"):
        problem = residual_problem(key, findings.get(key))
        if problem:
            problems.append(problem)
    return problems


def check_simulate(text: str, circuit: dict) -> list[str]:
    """Check a ``simulate --format json`` output without parsing all of it.

    The output of a large circuit is hundreds of megabytes, so the residuals
    are read with a pattern and only the last ``"phenomenal"`` value (the last
    step's last tracked system) is decoded.
    """
    problems = []
    tokens = _RESIDUAL_RE.findall(text)
    expected = (len(circuit["gates"]) + 1) * len(circuit["track"])
    if len(tokens) != expected:
        problems.append(f"found {len(tokens)} cross-check residuals, expected {expected}")
    for index, token in enumerate(tokens):
        try:
            value = float(token)
        except ValueError:
            value = token
        problem = residual_problem(f"cross_check_residual[{index}]", value)
        if problem:
            problems.append(problem)
    start = text.rfind(_PHENOMENAL_KEY)
    if start < 0:
        return problems + ["no phenomenal state in the output"]
    try:
        pairs, _ = json.JSONDecoder().raw_decode(text, start + len(_PHENOMENAL_KEY))
        arr = np.asarray(pairs, dtype=float)
        emitted = arr[..., 0] + 1j * arr[..., 1]
        reference = reference_density(circuit, circuit["track"][-1])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return problems + [f"cannot compare the last tracked state: {exc!r}"]
    if emitted.shape != reference.shape:
        return problems + [f"last tracked state has shape {emitted.shape}, expected {reference.shape}"]
    gap = float(np.max(np.abs(emitted - reference)))
    if not gap <= REFERENCE_TOL:
        problems.append(f"last tracked state differs from the state-vector reference by {gap!r}")
    return problems


def reference_density(circuit: dict, tracked: list[int]) -> np.ndarray:
    """Density matrix of ``tracked`` after all gates, by state-vector simulation.

    Axis ``k`` of the state tensor is atom ``k``; a gate matrix is read in its
    listed target order.  Only ``pure:|digits>`` initial states are handled.
    """
    atoms = sorted(circuit["atoms"], key=lambda atom: atom["id"])
    if [atom["id"] for atom in atoms] != list(range(len(atoms))):
        raise ValueError("atom ids must be 0..n-1")
    dims = [int(atom["dim"]) for atom in atoms]
    digits_text = circuit["initial_state"].removeprefix("pure:").strip("|>")
    psi = np.zeros(dims, dtype=np.complex128)
    psi[tuple(int(c) for c in digits_text)] = 1.0
    for gate in circuit["gates"]:
        targets = list(gate["targets"])
        if "name" in gate:
            matrix = np.asarray(_NAMED_GATES[gate["name"]], dtype=np.complex128)
        else:
            pairs = np.asarray(gate["matrix"], dtype=float)
            matrix = pairs[..., 0] + 1j * pairs[..., 1]
        k = len(targets)
        tdims = [dims[t] for t in targets]
        tensor = matrix.reshape(tdims + tdims)
        psi = np.tensordot(tensor, psi, axes=(list(range(k, 2 * k)), targets))
        psi = np.moveaxis(psi, list(range(k)), targets)
    kept = sorted(tracked)
    rest = [axis for axis in range(len(dims)) if axis not in kept]
    vec = np.transpose(psi, kept + rest).reshape(int(np.prod([dims[a] for a in kept])), -1)
    return vec @ vec.conj().T
