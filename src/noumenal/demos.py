"""Named, reproducible demonstrations.

``bell_incompleteness_demo`` builds the odd-parity Bell state on two qubits
and exhibits two facts at once: the global pure state determines everything
observable, yet distinct noumenal states map to the same phenomenal state,
so the phenomenal description cannot be the complete local one.

``no_signalling_demo`` measures, over random trials, how far a remote
operation can move a local state: to numerical precision, not at all, at
either description level.
"""

from __future__ import annotations

import numpy as np

from .errors import ScenarioPreconditionFailed
from .evolution import (
    OperatorMatrix,
    change_of_basis,
    from_global_unitary,
    noumenal_action,
    noumenal_distance,
    noumenal_partial_trace,
)
from .lattice import SystemLattice
from .linalg import (
    GATES,
    TOL_EQ,
    DensityOperator,
    UnitaryOperator,
    embed_operator,
    haar_unitary,
    matrix_to_json,
    max_abs,
    product_of_operations,
    random_density_matrix,
    tensor_operators,
)
from .laws import no_action_residual, no_signalling_residual, require_law_suite_dim
from .phenomenal import basis_state_vector, default_anchor, phi_matrix
from .reports import ScenarioResult

#: Required gap for "these states are distinct" verdicts in scripted demos.
MARGIN_DISTINCT = 0.1

#: Tolerance for the demo's exact matrix identities (plain products of
#: 1/sqrt(2) entries; far tighter than the generic law tolerance).
TOL_DEMO_EXACT = 1e-12


def _bell_circuit(lattice: SystemLattice) -> UnitaryOperator:
    """Global operation sending |00> to the odd-parity Bell state.

    Hadamard on atom 0, controlled-not from atom 0 onto atom 1, then a bit
    flip on atom 1.
    """
    s = lattice.global_system
    hadamard = embed_operator(GATES["H"], lattice.atom(0))
    cnot = embed_operator(GATES["CNOT"], lattice.system((0, 1)))
    flip = embed_operator(GATES["X"], lattice.atom(1))
    return UnitaryOperator(flip @ cnot @ hadamard, s)


def bell_incompleteness_demo(
    lattice: SystemLattice,
    local_basis: np.ndarray | None = None,
    swap: bool = False,
) -> ScenarioResult:
    """Show that the epimorphism collapses distinct noumenal states.

    Verdicts, each checked numerically:

    a. the joint state maps onto the Bell projector;
    b. both one-qubit marginals map onto the maximally mixed state, before
       and after a local bit flip;
    c. the bit flip nevertheless changes the local noumenal state (gap at
       least ``MARGIN_DISTINCT``);
    d. flipping both qubits changes the joint noumenal state while leaving
       its phenomenal state untouched;
    e. flipping one qubit moves the joint phenomenal state onto the
       even-parity Bell projector, a different observable state.

    ``local_basis`` re-expresses every grid in another per-qubit basis
    first; the verdicts are basis-covariant.  ``swap`` exchanges the roles
    of the two qubits.
    """
    if lattice.n_atoms != 2 or lattice.dims != (2, 2):
        raise ScenarioPreconditionFailed(
            f"this demonstration needs exactly two qubit atoms, got dims {lattice.dims}"
        )
    a_sys = lattice.atom(1 if swap else 0)
    b_sys = a_sys.complement()
    s = lattice.global_system

    w = _bell_circuit(lattice)
    anchor = default_anchor(lattice)

    odd_vec = (basis_state_vector(s, (0, 1)) + basis_state_vector(s, (1, 0))) / np.sqrt(2)
    even_vec = (basis_state_vector(s, (0, 0)) + basis_state_vector(s, (1, 1))) / np.sqrt(2)
    odd_proj = np.outer(odd_vec, odd_vec.conj())
    even_proj = np.outer(even_vec, even_vec.conj())

    joint = from_global_unitary(w, s)
    local = noumenal_partial_trace(joint, b_sys)

    x_local = UnitaryOperator(GATES["X"], a_sys)
    id_remote = UnitaryOperator(GATES["I"], b_sys)
    x_remote = UnitaryOperator(GATES["X"], b_sys)
    flip_one = product_of_operations(x_local, id_remote)
    flip_both = product_of_operations(x_local, x_remote)

    local_flipped = noumenal_action(x_local, local)
    joint_flip_one = noumenal_action(flip_one, joint)
    joint_flip_both = noumenal_action(flip_both, joint)

    if local_basis is not None:
        basis_a = np.asarray(local_basis, dtype=np.complex128)
        basis_s = tensor_operators(basis_a, lattice.atom(0), basis_a, lattice.atom(1))
        eye2, eye4 = np.eye(2), np.eye(4)
        tag = "rotated"

        def rotate_local(n: OperatorMatrix) -> OperatorMatrix:
            return change_of_basis(n, eye2, basis_a, tag)

        def rotate_joint(n: OperatorMatrix) -> OperatorMatrix:
            return change_of_basis(n, eye4, basis_s, tag)

        joint, joint_flip_one, joint_flip_both = map(
            rotate_joint, (joint, joint_flip_one, joint_flip_both)
        )
        local, local_flipped = map(rotate_local, (local, local_flipped))
        odd_proj = basis_s.conj().T @ odd_proj @ basis_s
        even_proj = basis_s.conj().T @ even_proj @ basis_s

    def observe(n: OperatorMatrix) -> np.ndarray:
        return phi_matrix(n.entries, anchor.matrix)

    phen_joint = observe(joint)
    phen_local = observe(local)
    phen_local_flipped = observe(local_flipped)
    phen_flip_one = observe(joint_flip_one)
    phen_flip_both = observe(joint_flip_both)

    half_identity = np.eye(2, dtype=np.complex128) / 2

    residual_a = max_abs(phen_joint - odd_proj)
    residual_b = max(
        max_abs(phen_local - half_identity), max_abs(phen_local_flipped - half_identity)
    )
    margin_c = noumenal_distance(local, local_flipped)
    margin_d = noumenal_distance(joint, joint_flip_both)
    residual_d = max_abs(phen_flip_both - phen_joint)
    residual_e = max_abs(phen_flip_one - even_proj)
    margin_e = max_abs(phen_flip_one - phen_joint)

    verdicts = {
        "a_joint_maps_to_bell_state": residual_a <= TOL_DEMO_EXACT,
        "b_marginals_maximally_mixed": residual_b <= TOL_DEMO_EXACT,
        "c_local_flip_changes_noumenal_state": margin_c >= MARGIN_DISTINCT,
        "d_double_flip_hides_from_epimorphism": margin_d >= MARGIN_DISTINCT and residual_d <= TOL_DEMO_EXACT,
        "e_single_flip_observably_different": residual_e <= TOL_DEMO_EXACT and margin_e >= MARGIN_DISTINCT,
    }
    passed = all(verdicts.values())

    findings = {
        "system_a": list(a_sys.atom_ids),
        "system_b": list(b_sys.atom_ids),
        "rotated_basis": None if local_basis is None else matrix_to_json(local_basis),
        "verdicts": verdicts,
        "residuals": {
            "a": residual_a,
            "b": residual_b,
            "d_phenomenal": residual_d,
            "e_target": residual_e,
        },
        "margins": {"c": margin_c, "d": margin_d, "e_phenomenal": margin_e},
        "required_margin": MARGIN_DISTINCT,
        "phenomenal_joint": matrix_to_json(phen_joint),
        "phenomenal_a": matrix_to_json(phen_local),
        "phenomenal_a_after_flip": matrix_to_json(phen_local_flipped),
        "phenomenal_joint_after_single_flip": matrix_to_json(phen_flip_one),
        "noumenal_a": local.to_json(),
        "noumenal_a_after_flip": local_flipped.to_json(),
        "noumenal_joint": joint.to_json(),
        "noumenal_joint_after_double_flip": joint_flip_both.to_json(),
    }
    summary = [
        f"joint phenomenal state reaches the Bell projector (residual {residual_a:.2e})",
        f"marginal of A is I/2 before and after the flip (residual {residual_b:.2e})",
        f"yet the flip moves A's noumenal state by {margin_c:.3f}",
        f"double flip: noumenal gap {margin_d:.3f}, phenomenal gap {residual_d:.2e}",
        f"single flip lands on the other Bell projector (residual {residual_e:.2e})",
        "the noumenal-to-phenomenal map is therefore not injective",
    ]
    return ScenarioResult("bell-incompleteness", findings, summary, passed)


def no_signalling_demo(
    lattice: SystemLattice,
    trials: int,
    seed: int,
    a_atoms=None,
    tol: float = TOL_EQ,
) -> ScenarioResult:
    """Randomized check that remote operations have no local effect.

    Splits the lattice into ``a_atoms`` and the rest, then over random
    joint evolutions, local operations and states measures the residuals of
    the noumenal and phenomenal no-influence laws.
    """
    require_law_suite_dim(lattice, "demo")
    a_sys = lattice.atom(0) if a_atoms is None else lattice.system(a_atoms)
    if a_sys.is_empty or a_sys.is_global:
        raise ScenarioPreconditionFailed("the bipartition needs a non-trivial system")
    b_sys = a_sys.complement()
    s = lattice.global_system

    rng = np.random.default_rng(seed)
    noumenal_worst = 0.0
    phenomenal_worst = 0.0
    for _ in range(trials):
        joint = from_global_unitary(haar_unitary(s, rng), s)
        u = haar_unitary(a_sys, rng)
        v = haar_unitary(b_sys, rng)
        noumenal_worst = max(noumenal_worst, no_action_residual(joint, u, v, b_sys))
        rho = DensityOperator(random_density_matrix(s.dim, rng), s)
        phenomenal_worst = max(phenomenal_worst, no_signalling_residual(rho, u, v, b_sys))

    findings = {
        "system_a": list(a_sys.atom_ids),
        "system_b": list(b_sys.atom_ids),
        "trials": trials,
        "seed": seed,
        "tolerance": tol,
        "noumenal_max_residual": noumenal_worst if trials else None,
        "phenomenal_max_residual": phenomenal_worst if trials else None,
    }
    summary = [f"bipartition A={list(a_sys.atom_ids)} vs B={list(b_sys.atom_ids)}, {trials} trials"]
    if not trials:  # nothing was checked: skipped, like the laws of `verify --trials 0`
        return ScenarioResult("no-signalling", findings, [*summary, "0 trials checked nothing: skipped"], None)
    summary += [f"noumenal no-influence residual: {noumenal_worst:.2e}", f"phenomenal no-influence residual: {phenomenal_worst:.2e}"]
    return ScenarioResult("no-signalling", findings, summary, noumenal_worst <= tol and phenomenal_worst <= tol)
