import numpy as np
import pytest

from noumenal import (
    GATES,
    BasisMismatch,
    DensityOperator,
    DimensionMismatch,
    System,
    SystemMismatch,
    UnitaryOperator,
    ValidationError,
    basis_state_vector,
    change_of_basis,
    default_anchor,
    from_global_unitary,
    haar_random_unitary,
    haar_unitary,
    homomorphism_residual,
    identity_evolution,
    max_abs,
    noumenal_partial_trace,
    partial_trace,
    phenomenal_action,
    phenomenal_partial_trace,
    phi,
    product_of_operations,
    pure_density,
    random_density_matrix,
    random_pure_state,
    surjectivity_witness,
    trace_commutation_residual,
    unitary_mapping,
)
from noumenal.linalg import index_map
from noumenal.phenomenal import phi_matrix

TOL = 1e-9


def test_basis_state_vector_follows_index_map(lat232):
    """|digits> sits where index_map puts the product of its one-atom basis states."""
    for system in (lat232.global_system, System(lat232, 0b110)):
        atoms = [lat232.atom(i) for i in system.atom_ids]
        for digits in np.ndindex(*system.atom_dims):
            prefix, index = lat232.empty_system, 0
            for atom, digit in zip(atoms, digits):
                index = index_map(prefix, atom)[index, digit]
                prefix = prefix.union(atom)
            assert np.array_equal(basis_state_vector(system, digits), np.eye(system.dim)[index])
    with pytest.raises(DimensionMismatch, match="need 3 digits"):
        basis_state_vector(lat232.global_system, (0, 1))
    with pytest.raises(ValidationError, match="digit 3 out of range for atom of dim 3"):
        basis_state_vector(lat232.global_system, (0, 3, 0))


def bell_vector(lattice, parity):
    s = lattice.global_system
    if parity == "odd":
        vec = basis_state_vector(s, (0, 1)) + basis_state_vector(s, (1, 0))
    else:
        vec = basis_state_vector(s, (0, 0)) + basis_state_vector(s, (1, 1))
    return vec / np.sqrt(2)


# ---------------------------------------------------------------------------
# Phenomenal action.
# ---------------------------------------------------------------------------

def test_identity_action(lat22, rng):
    rho = DensityOperator(random_density_matrix(2, rng), lat22.atom(0))
    out = phenomenal_action(UnitaryOperator(np.eye(2), lat22.atom(0)), rho)
    assert max_abs(out.matrix - rho.matrix) < 1e-12


def test_bit_flip_action(lat22):
    a = lat22.atom(0)
    rho = pure_density(a, np.array([1.0, 0.0]))
    out = phenomenal_action(UnitaryOperator(GATES["X"], a), rho)
    assert max_abs(out.matrix - np.diag([0.0, 1.0])) < 1e-12


def test_flip_sends_odd_bell_to_even(lat22):
    s = lat22.global_system
    rho = pure_density(s, bell_vector(lat22, "odd"))
    flip = product_of_operations(
        UnitaryOperator(GATES["X"], lat22.atom(0)), UnitaryOperator(GATES["I"], lat22.atom(1))
    )
    out = phenomenal_action(flip, rho)
    expected = pure_density(s, bell_vector(lat22, "even"))
    assert max_abs(out.matrix - expected.matrix) < 1e-12


def test_action_system_mismatch(lat22, rng):
    rho = DensityOperator(random_density_matrix(2, rng), lat22.atom(0))
    with pytest.raises(SystemMismatch):
        phenomenal_action(haar_unitary(lat22.atom(1), rng), rho)


# ---------------------------------------------------------------------------
# The epimorphism.
# ---------------------------------------------------------------------------

def test_phi_of_identity_grid_is_reduction(lat23, rng):
    rho = DensityOperator(random_density_matrix(6, rng), lat23.global_system)
    a = lat23.atom(0)
    out = phi(rho, identity_evolution(a))
    assert max_abs(out.matrix - partial_trace(rho.matrix, lat23.global_system, a.complement())) < 1e-12


def test_phi_of_bell_marginal_is_maximally_mixed(lat22):
    anchor = default_anchor(lat22)
    w = surjectivity_witness(anchor, bell_vector(lat22, "odd"))
    local = noumenal_partial_trace(from_global_unitary(w, lat22.global_system), lat22.atom(1))
    out = phi(anchor, local)
    assert max_abs(out.matrix - np.eye(2) / 2) < 1e-12


def test_phi_matches_reduction_oracle(lat222, rng):
    s = lat222.global_system
    a = lat222.system((0, 2))
    for _ in range(10):
        w = haar_unitary(s, rng)
        rho = DensityOperator(random_density_matrix(8, rng), s)
        via_grid = phi(rho, from_global_unitary(w, a))
        evolved = w.matrix @ rho.matrix @ w.matrix.conj().T
        direct = partial_trace(evolved, s, a.complement())
        assert max_abs(via_grid.matrix - direct) < TOL


def test_phi_matrix_matches_trace_loop(lat232, rng):
    s = lat232.global_system
    rho = random_density_matrix(s.dim, rng)
    for mask in range(8):
        entries = from_global_unitary(haar_unitary(s, rng), System(lat232, mask)).entries
        d = entries.shape[0]
        expected = np.array([[np.trace(entries[i, j] @ rho) for j in range(d)] for i in range(d)])
        assert max_abs(phi_matrix(entries, rho) - expected) < 1e-12, mask


def test_phi_requires_canonical_basis(lat22, rng):
    rho = default_anchor(lat22)
    n = from_global_unitary(haar_unitary(lat22.global_system, rng), lat22.atom(0))
    rotated = change_of_basis(n, np.eye(2), haar_random_unitary(2, rng), "other")
    with pytest.raises(BasisMismatch):
        phi(rho, rotated)


def test_phi_requires_global_reference(lat22, rng):
    rho = DensityOperator(random_density_matrix(2, rng), lat22.atom(0))
    n = identity_evolution(lat22.atom(0))
    with pytest.raises(SystemMismatch):
        phi(rho, n)


# ---------------------------------------------------------------------------
# Homomorphism checks.
# ---------------------------------------------------------------------------

def test_identity_operation_residual_is_zero(lat22, rng):
    rho = DensityOperator(random_density_matrix(4, rng), lat22.global_system)
    n = from_global_unitary(haar_unitary(lat22.global_system, rng), lat22.atom(0))
    identity = UnitaryOperator(np.eye(2), lat22.atom(0))
    assert homomorphism_residual(rho, identity, n) == 0.0


def test_random_homomorphism_residual(lat22, rng):
    s = lat22.global_system
    for _ in range(10):
        rho = DensityOperator(random_density_matrix(4, rng), s)
        n = from_global_unitary(haar_unitary(s, rng), lat22.atom(0))
        u = haar_unitary(lat22.atom(0), rng)
        assert homomorphism_residual(rho, u, n) <= TOL


def test_trace_commutation_residual(lat222, rng):
    s = lat222.global_system
    for _ in range(10):
        rho = DensityOperator(random_density_matrix(8, rng), s)
        joint = from_global_unitary(haar_unitary(s, rng), lat222.system((0, 1)))
        assert trace_commutation_residual(rho, joint, lat222.atom(1)) <= TOL


# ---------------------------------------------------------------------------
# No-signalling at the phenomenal level.
# ---------------------------------------------------------------------------

def test_no_signalling_property(lat222, rng):
    a = lat222.system((0, 2))
    b = a.complement()
    s = lat222.global_system
    for _ in range(10):
        rho = DensityOperator(random_density_matrix(8, rng), s)
        u, v = haar_unitary(a, rng), haar_unitary(b, rng)
        evolved = phenomenal_action(product_of_operations(u, v), rho)
        lhs = phenomenal_partial_trace(evolved, b)
        rhs = phenomenal_action(u, phenomenal_partial_trace(rho, b))
        assert max_abs(lhs.matrix - rhs.matrix) <= TOL


# ---------------------------------------------------------------------------
# Surjectivity witness.
# ---------------------------------------------------------------------------

def test_unitary_mapping_is_deterministic_and_correct(rng):
    target = random_pure_state(6, rng)
    source = np.zeros(6, dtype=complex)
    source[0] = 1.0
    w1 = unitary_mapping(source, target)
    w2 = unitary_mapping(source, target)
    assert np.array_equal(w1, w2)
    assert max_abs(w1.conj().T @ w1 - np.eye(6)) < 1e-10
    assert max_abs(w1 @ source - target) < 1e-12


def test_witness_reaches_random_pure_marginals(lat23, rng):
    anchor = default_anchor(lat23)
    a = lat23.atom(1)
    for _ in range(10):
        target_vec = random_pure_state(6, rng)
        target_marginal = partial_trace(
            np.outer(target_vec, target_vec.conj()), lat23.global_system, a.complement()
        )
        w = surjectivity_witness(anchor, target_vec)
        reached = phi(anchor, from_global_unitary(w, a))
        assert max_abs(reached.matrix - target_marginal) <= TOL


def test_witness_requires_pure_reference(lat22, rng):
    mixed = DensityOperator(np.eye(4) / 4, lat22.global_system)
    with pytest.raises(ValidationError):
        surjectivity_witness(mixed, random_pure_state(4, rng))
