import json
import tracemalloc

import numpy as np
import pytest

from noumenal import (
    GATES,
    BasisMismatch,
    CompatibilityViolation,
    DimensionMismatch,
    EvolutionMatrix,
    NotGlobalOperator,
    NotOrthonormal,
    NotSubsystem,
    OperatorMatrix,
    ParseError,
    System,
    SystemLattice,
    SystemMismatch,
    UnitaryOperator,
    change_of_basis,
    consistency_check,
    embed_operator,
    from_global_unitary,
    haar_random_unitary,
    haar_unitary,
    identity_evolution,
    max_abs,
    noumenal_action,
    noumenal_distance,
    noumenal_equal,
    noumenal_partial_trace,
    noumenal_product,
)
from noumenal.evolution import pairing_residual, product_residual, trace_residual
from noumenal.linalg import index_map

from conftest import (
    conjugation_oracle,
    embed_oracle,
    evolution_oracle,
    product_oracle,
    product_residual_oracle,
)

TOL = 1e-9


def global_haar(lattice, rng):
    return haar_unitary(lattice.global_system, rng)


# ---------------------------------------------------------------------------
# Construction.
# ---------------------------------------------------------------------------

def test_identity_evolution_entries(lat22):
    a = lat22.atom(0)
    n = identity_evolution(a)
    for i in range(2):
        for j in range(2):
            flip = np.zeros((2, 2), dtype=complex)
            flip[j, i] = 1.0
            assert max_abs(n.entry(i, j) - embed_operator(flip, a)) < 1e-12


def test_hadamard_entry(lat22):
    # global W = H on atom 0: entry (0,0) of the atom-0 grid is |+><+| ⊗ I
    a = lat22.atom(0)
    w = UnitaryOperator(embed_operator(GATES["H"], a), lat22.global_system)
    n = from_global_unitary(w, a)
    plus = 0.5 * (np.eye(2) + GATES["X"])
    assert max_abs(n.entry(0, 0) - np.kron(plus, np.eye(2))) < 1e-12


def test_matches_conjugation_oracle(lat232, rng):
    # Every system, from the empty one to the global one; (0, 2) first.
    w = global_haar(lat232, rng)
    for a in [lat232.system((0, 2))] + [System(lat232, mask) for mask in range(8)]:
        n = from_global_unitary(w, a)
        assert max_abs(n.entries - evolution_oracle(w.matrix, a)) < 1e-12, a


def test_operation_on_complement_changes_nothing(lat222, rng):
    a = lat222.system((0, 2))
    w = global_haar(lat222, rng)
    v = haar_random_unitary(a.complement().dim, rng)
    moved = UnitaryOperator(embed_operator(v, a.complement()) @ w.matrix, lat222.global_system)
    assert noumenal_equal(from_global_unitary(w, a), from_global_unitary(moved, a))


def test_requires_global_operation(lat22, rng):
    u = UnitaryOperator(haar_random_unitary(2, rng), lat22.atom(0))
    with pytest.raises(NotGlobalOperator):
        from_global_unitary(u, lat22.atom(0))


def test_grid_invariants_hold(lat23, rng):
    w = global_haar(lat23, rng)
    report = consistency_check(from_global_unitary(w, lat23.atom(1)))
    assert report.ok
    assert max(report.residuals().values()) < 1e-12


# ---------------------------------------------------------------------------
# Action.
# ---------------------------------------------------------------------------

def test_action_identity(lat22, rng):
    a = lat22.atom(0)
    n = from_global_unitary(global_haar(lat22, rng), a)
    identity = UnitaryOperator(np.eye(2), a)
    assert noumenal_equal(noumenal_action(identity, n), n)


def test_action_composition(lat22, rng):
    a = lat22.atom(0)
    n = from_global_unitary(global_haar(lat22, rng), a)
    u = haar_unitary(a, rng)
    v = haar_unitary(a, rng)
    assert noumenal_equal(noumenal_action(v.compose(u), n), noumenal_action(v, noumenal_action(u, n)))


def test_action_flips_indices_on_single_atom_lattice(lat2):
    # One-atom lattice: the tracked system is global, and a bit flip
    # permutes the grid indices: entry (i, j) -> |1-j><1-i|.
    a = lat2.global_system
    x = UnitaryOperator(GATES["X"], a)
    acted = noumenal_action(x, identity_evolution(a))
    direct = from_global_unitary(x, a)
    assert noumenal_equal(acted, direct)
    for i in range(2):
        for j in range(2):
            flip = np.zeros((2, 2), dtype=complex)
            flip[1 - j, 1 - i] = 1.0
            assert max_abs(acted.entry(i, j) - flip) < 1e-12


def test_action_matches_global_composition(lat222, rng):
    a = lat222.system((1, 2))
    w = global_haar(lat222, rng)
    u = haar_unitary(a, rng)
    lifted = UnitaryOperator(embed_operator(u.matrix, a) @ w.matrix, lat222.global_system)
    assert (
        noumenal_distance(noumenal_action(u, from_global_unitary(w, a)), from_global_unitary(lifted, a))
        < TOL
    )


@pytest.mark.parametrize("atoms", [(0, 2), (0, 1, 2)])  # d < D and d = D
def test_action_and_basis_change_match_conjugation_oracle(lat222, rng, atoms):
    a = lat222.system(atoms)
    n = from_global_unitary(global_haar(lat222, rng), a)
    u = haar_unitary(a, rng)
    acted = noumenal_action(u, n)
    assert max_abs(acted.entries - conjugation_oracle(u.matrix, n.entries)) < 1e-12
    b2 = haar_random_unitary(a.dim, rng)
    b3 = haar_random_unitary(a.dim, rng)
    rotated = change_of_basis(n, np.eye(a.dim), b2, "b2")
    assert max_abs(rotated.entries - conjugation_oracle(b2.conj().T, n.entries)) < 1e-12
    again = change_of_basis(rotated, b2, b3, "b3")
    assert max_abs(again.entries - conjugation_oracle(b3.conj().T @ b2, rotated.entries)) < 1e-12


def test_action_system_mismatch(lat22, rng):
    n = from_global_unitary(global_haar(lat22, rng), lat22.atom(0))
    u = haar_unitary(lat22.atom(1), rng)
    with pytest.raises(SystemMismatch):
        noumenal_action(u, n)


# ---------------------------------------------------------------------------
# Partial trace.
# ---------------------------------------------------------------------------

def test_trace_matches_direct_construction(lat22, rng):
    a, b = lat22.atom(0), lat22.atom(1)
    for _ in range(20):
        w = global_haar(lat22, rng)
        joint = from_global_unitary(w, lat22.global_system)
        assert noumenal_distance(noumenal_partial_trace(joint, b), from_global_unitary(w, a)) < TOL


def test_trace_composition(lat222, rng):
    w = global_haar(lat222, rng)
    joint = from_global_unitary(w, lat222.global_system)
    b, c = lat222.atom(1), lat222.atom(2)
    stepwise = noumenal_partial_trace(noumenal_partial_trace(joint, c), b)
    assert noumenal_distance(stepwise, noumenal_partial_trace(joint, b.union(c))) < TOL


def test_trace_of_identity_evolution(lat22):
    ab = lat22.global_system
    assert noumenal_equal(
        noumenal_partial_trace(identity_evolution(ab), lat22.atom(1)),
        identity_evolution(lat22.atom(0)),
    )


def test_trace_is_the_sum_from_zero_bitwise(lat222, rng):
    """Each entry is ``0.0 + term_0 + term_1 + ...``, so a sum of ``-0.0`` terms reads ``+0.0``."""
    w = UnitaryOperator(np.stack([global_haar(lat222, rng).matrix for _ in range(3)]), lat222.global_system)
    entries = from_global_unitary(w, lat222.global_system).entries.copy()
    entries.real[..., ::3, :] = -0.0
    entries.imag[..., ::2] = -0.0
    joint = OperatorMatrix(lat222.global_system, entries)
    for traced in (lat222.empty_system, lat222.atom(1), lat222.system((0, 2)), lat222.global_system):
        keep = joint.system.difference(traced)
        perm = index_map(keep, traced)
        expected = np.zeros((3, keep.dim, keep.dim, 8, 8), dtype=np.complex128)
        for k in range(traced.dim):
            expected += entries[..., perm[:, k, None], perm[:, k], :, :]
        assert noumenal_partial_trace(joint, traced).entries.tobytes() == expected.tobytes(), traced


def test_trace_everything_gives_empty_grid(lat22, rng):
    w = global_haar(lat22, rng)
    joint = from_global_unitary(w, lat22.global_system)
    empty = noumenal_partial_trace(joint, lat22.global_system)
    assert empty.system.is_empty
    assert empty.entries.shape == (1, 1, 4, 4)
    assert max_abs(empty.entry(0, 0) - np.eye(4)) < 1e-12
    with pytest.raises(NotSubsystem):
        noumenal_partial_trace(from_global_unitary(w, lat22.atom(0)), lat22.atom(1))


# ---------------------------------------------------------------------------
# Product.
# ---------------------------------------------------------------------------

def test_product_of_restrictions_is_joint_state(lat222, rng):
    a, b = lat222.system((0, 2)), lat222.atom(1)
    w = global_haar(lat222, rng)
    product = noumenal_product(from_global_unitary(w, a), from_global_unitary(w, b))
    assert noumenal_distance(product, from_global_unitary(w, a.union(b))) < TOL


def test_product_matches_entrywise_oracle(lat222, rng):
    # Every ordered disjoint pair, empty systems included, from unrelated
    # evolutions: the kernel must place each operator product whatever the grids.
    pairs = [(a, b) for a in range(8) for b in range(8) if not a & b]
    assert len(pairs) == 27
    for a_mask, b_mask in pairs:
        na = from_global_unitary(global_haar(lat222, rng), System(lat222, a_mask))
        nb = from_global_unitary(global_haar(lat222, rng), System(lat222, b_mask))
        product = noumenal_product(na, nb, check=False)
        assert max_abs(product.entries - product_oracle(na, nb)) < 1e-12, (a_mask, b_mask)


def test_tracing_product_recovers_factors(lat22, rng):
    a, b = lat22.atom(0), lat22.atom(1)
    w = global_haar(lat22, rng)
    na, nb = from_global_unitary(w, a), from_global_unitary(w, b)
    product = noumenal_product(na, nb)
    assert noumenal_distance(noumenal_partial_trace(product, b), na) < TOL
    assert noumenal_distance(noumenal_partial_trace(product, a), nb) < TOL


def test_product_identity_case(lat22):
    a, b = lat22.atom(0), lat22.atom(1)
    assert noumenal_equal(
        noumenal_product(identity_evolution(a), identity_evolution(b)),
        identity_evolution(lat22.global_system),
    )


def test_empty_factor_is_product_identity(lat22, rng):
    a = lat22.atom(0)
    w = global_haar(lat22, rng)
    na = from_global_unitary(w, a)
    empty = from_global_unitary(w, lat22.empty_system)
    assert noumenal_distance(noumenal_product(empty, na), na) < TOL


def test_independent_states_fail_the_gate(lat22, rng):
    # Grids built from unrelated evolutions are generically incompatible;
    # record the observed rejection rate over 20 paired draws.
    a, b = lat22.atom(0), lat22.atom(1)
    rejected = 0
    for _ in range(20):
        na = from_global_unitary(global_haar(lat22, rng), a)
        nb = from_global_unitary(global_haar(lat22, rng), b)
        try:
            noumenal_product(na, nb)
        except CompatibilityViolation:
            rejected += 1
    assert rejected >= 19, f"only {rejected}/20 incompatible pairs were rejected"


# ---------------------------------------------------------------------------
# Consistency gate.
# ---------------------------------------------------------------------------

def test_consistency_rejects_scaled_entry(lat22, rng):
    n = from_global_unitary(global_haar(lat22, rng), lat22.atom(0))
    entries = n.entries.copy()
    entries[0, 0] *= 2.0
    report = consistency_check(OperatorMatrix(lat22.atom(0), entries))
    assert not report.ok
    assert report.trace_residual > 1e-3


def test_product_law_checks_its_closure_half(lat22):
    # e(0,0) = I and every other entry zero: Hermitian pairs, identity trace, and
    # e(i,j) = e(0,j) e(i,0) all hold; only e(1,0) e(0,1) = e(0,0) fails.
    a = lat22.atom(0)
    entries = np.zeros((a.dim, a.dim, lat22.global_dim, lat22.global_dim), dtype=np.complex128)
    entries[0, 0] = np.eye(lat22.global_dim)
    grid = OperatorMatrix(a, entries)
    assert (pairing_residual(grid), trace_residual(grid), product_residual(grid)) == (0.0, 0.0, 1.0)
    with pytest.raises(CompatibilityViolation):
        EvolutionMatrix(a, entries)


def test_evolution_matrix_constructor_validates(lat22, rng):
    n = from_global_unitary(global_haar(lat22, rng), lat22.atom(0))
    entries = n.entries.copy()
    EvolutionMatrix(lat22.atom(0), entries)  # genuine grid passes
    entries = entries.copy()
    entries[0, 0, 0, 1] += 1e-3
    with pytest.raises(CompatibilityViolation):
        EvolutionMatrix(lat22.atom(0), entries)


KERNELS = {
    "action": lambda n, other, rng: noumenal_action(haar_unitary(n.system, rng), n),
    "change_of_basis": lambda n, other, rng: change_of_basis(
        n, np.eye(n.grid_dim), haar_random_unitary(n.grid_dim, rng), "rotated"
    ),
    "partial_trace": lambda n, other, rng: noumenal_partial_trace(n, n.system.lattice.system([])),
    "product": lambda n, other, rng: noumenal_product(n, other, check=False),
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_only_gated_or_factored_grids_are_evolution_matrices(lat22, rng, kernel):
    # The type claims only what was checked: a dense-kernel result is raw even from a gated input.
    a, b = lat22.atom(0), lat22.atom(1)
    w = global_haar(lat22, rng)
    w_grid, other = from_global_unitary(w, a), from_global_unitary(w, b)
    perturbed = w_grid.entries.copy()
    perturbed[0, 0, 0, 1] += 1e-3  # the self-test bug's perturbation
    gated = EvolutionMatrix(a, w_grid.entries)
    loaded = EvolutionMatrix.from_json(lat22, w_grid.to_json())
    assert type(gated) is type(loaded) is EvolutionMatrix and gated.w is loaded.w is None
    raw_inputs = [OperatorMatrix(a, w_grid.entries), OperatorMatrix(a, perturbed), gated, loaded]
    results = [KERNELS[kernel](n, other, rng) for n in raw_inputs]
    for result in results:
        assert type(result) is OperatorMatrix and result.w is None
    assert not consistency_check(results[1]).ok  # typed EvolutionMatrix, this would be a false positive
    from_w_grid = KERNELS[kernel](w_grid, other, rng)
    if kernel == "product":  # a product is always raw
        assert type(from_w_grid) is OperatorMatrix and from_w_grid.w is None
    else:  # the only kernel results typed EvolutionMatrix, and they pass the laws
        assert type(from_w_grid) is EvolutionMatrix and from_w_grid.w is not None
        assert consistency_check(from_w_grid).ok


def test_operator_matrix_shape_check(lat22):
    with pytest.raises(DimensionMismatch):
        OperatorMatrix(lat22.atom(0), np.zeros((2, 2, 3, 3)))


def test_consistency_exact_for_large_grids(rng):
    # global system of a 16-dim lattice: the 2 d^2 generator products keep
    # the check exact and cheap at this size too
    from noumenal import SystemLattice

    lattice = SystemLattice.from_dims([2, 2, 2, 2])
    s = lattice.global_system
    n = from_global_unitary(haar_unitary(s, rng), s)
    assert n.grid_dim == 16
    assert consistency_check(n).ok
    entries = n.entries.copy()
    entries[0, 0, 0, 1] += 1e-3
    assert not consistency_check(OperatorMatrix(s, entries)).ok
    first = consistency_check(n)
    second = consistency_check(n)
    assert first.residuals() == second.residuals()


@pytest.mark.parametrize("atoms", [(1,), (0, 2), (0, 1, 2)])  # d = 2, 4, 8
def test_product_residual_matches_d4_oracle(lat222, rng, atoms):
    # The generators are d^4 quadruples too, so their residual never exceeds
    # the oracle's; the law follows from them, so both vanish together and a
    # perturbation shows in both at a like size (the factor 4 is slack).
    a = lat222.system(atoms)
    for trial in range(8):
        entries = from_global_unitary(global_haar(lat222, rng), a).entries.copy()
        if trial:
            spot = tuple(int(rng.integers(0, size)) for size in entries.shape)
            entries[spot] += 1e-3 * np.exp(2j * np.pi * rng.random())
        generators = consistency_check(OperatorMatrix(a, entries)).product_residual
        oracle = product_residual_oracle(entries)
        if trial:
            assert TOL < oracle / 4 <= generators <= oracle * (1 + 1e-9)
        else:
            assert max(generators, oracle) < 1e-12


# ---------------------------------------------------------------------------
# Change of basis.
# ---------------------------------------------------------------------------

def test_basis_change_to_same_basis_is_identity(lat22, rng):
    a = lat22.atom(0)
    n = from_global_unitary(global_haar(lat22, rng), a)
    eye = np.eye(2)
    assert noumenal_equal(change_of_basis(n, eye, eye, "canonical"), n)


def test_basis_changes_compose(lat22, rng):
    a = lat22.atom(0)
    n = from_global_unitary(global_haar(lat22, rng), a)
    eye = np.eye(2)
    b2 = haar_random_unitary(2, rng)
    b3 = haar_random_unitary(2, rng)
    chained = change_of_basis(change_of_basis(n, eye, b2, "b2"), b2, b3, "b3")
    assert noumenal_distance(chained, change_of_basis(n, eye, b3, "b3")) < TOL


def test_basis_change_matches_direct_construction(lat22, rng):
    a = lat22.atom(0)
    w = global_haar(lat22, rng)
    n = from_global_unitary(w, a)
    basis = haar_random_unitary(2, rng)
    transformed = change_of_basis(n, np.eye(2), basis, "new")
    for k in range(2):
        for l in range(2):
            flip = np.outer(basis[:, l], basis[:, k].conj())
            direct = w.matrix.conj().T @ embed_operator(flip, a) @ w.matrix
            assert max_abs(transformed.entry(k, l) - direct) < TOL


def test_basis_round_trip(lat22, rng):
    a = lat22.atom(0)
    n = from_global_unitary(global_haar(lat22, rng), a)
    eye = np.eye(2)
    b2 = haar_random_unitary(2, rng)
    back = change_of_basis(change_of_basis(n, eye, b2, "b2"), b2, eye, "canonical")
    assert noumenal_equal(back, n)


def test_basis_change_rejects_non_orthonormal(lat22, rng):
    n = from_global_unitary(global_haar(lat22, rng), lat22.atom(0))
    with pytest.raises(NotOrthonormal):
        change_of_basis(n, np.eye(2), np.ones((2, 2)), "target")
    with pytest.raises(DimensionMismatch, match="target basis is"):
        change_of_basis(n, np.eye(2), np.eye(4), "target")


def test_basis_change_checks_declared_source_basis(lat22, rng):
    n = from_global_unitary(global_haar(lat22, rng), lat22.atom(0))
    wrong_source = haar_random_unitary(2, rng)
    with pytest.raises(BasisMismatch):
        change_of_basis(n, wrong_source, np.eye(2), "canonical")


def test_non_canonical_grids_do_not_mix(lat22, rng):
    a = lat22.atom(0)
    n = from_global_unitary(global_haar(lat22, rng), a)
    rotated = change_of_basis(n, np.eye(2), haar_random_unitary(2, rng), "other")
    with pytest.raises(BasisMismatch):
        noumenal_distance(n, rotated)
    u = haar_unitary(a, rng)
    with pytest.raises(BasisMismatch):
        noumenal_action(u, rotated)
    with pytest.raises(BasisMismatch):
        noumenal_partial_trace(rotated, lat22.empty_system)
    with pytest.raises(BasisMismatch):
        noumenal_product(rotated, identity_evolution(lat22.atom(1)))


# ---------------------------------------------------------------------------
# W-grids: grids that hold the global operation ``W``.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("batched", [False, True])
def test_factored_kernels_match_the_oracles(lat232, batched):
    """A grid built from ``W``, acted on, re-expressed or traced stays a W-grid
    and matches the brute-force oracles, one batch member at a time."""
    a, s = lat232.system((0, 2)), lat232.global_system
    rng = [np.random.default_rng([5, k]) for k in range(3)] if batched else np.random.default_rng(5)
    w, u, basis = haar_unitary(s, rng), haar_unitary(a, rng), haar_random_unitary(a.dim, rng)
    n = from_global_unitary(w, a)
    results = {
        "action": noumenal_action(u, n),
        "basis": change_of_basis(n, np.eye(a.dim), basis, "b"),
        "trace": noumenal_partial_trace(from_global_unitary(w, s), lat232.atom(1)),
        "action then trace": noumenal_partial_trace(noumenal_action(u, n), lat232.atom(2)),
    }
    for name, result in results.items():
        assert result.w is not None, name
        assert result.entries.shape == (*np.shape(w.matrix)[:-2], result.grid_dim, result.grid_dim, 12, 12), name
    ws, us, bases = (m.reshape(-1, *m.shape[-2:]) for m in (w.matrix, u.matrix, basis))
    for k, (wk, uk, bk) in enumerate(zip(ws, us, bases)):
        def member(grid):
            return grid.entries[k] if batched else grid.entries

        assert max_abs(member(n) - evolution_oracle(wk, a)) < 1e-12
        assert max_abs(member(results["action"]) - conjugation_oracle(uk, evolution_oracle(wk, a))) < 1e-12
        assert max_abs(member(results["basis"]) - conjugation_oracle(bk.conj().T, evolution_oracle(wk, a))) < 1e-12
        assert max_abs(member(results["trace"]) - evolution_oracle(wk, a)) < 1e-12
        lifted = embed_oracle(uk, a, s) @ wk
        assert max_abs(member(results["action then trace"]) - evolution_oracle(lifted, lat232.atom(0))) < 1e-12


def test_factored_entries_are_formed_once_and_read_only(lat232, rng):
    w = global_haar(lat232, rng)
    n = from_global_unitary(w, lat232.atom(1))
    assert n.w is w.matrix and not n.w.flags.writeable
    entries = n.entries
    assert n.entries is entries and not entries.flags.writeable
    with pytest.raises(ValueError):
        entries[0, 0, 0, 0] = 1.0
    raw = OperatorMatrix(n.system, entries)
    assert raw.w is None and raw.entries is entries


def test_w_grids_of_every_atom_copy_nothing():
    """On 8 qubits (D = 256) the grids of all 8 atoms hold one ``W``: together
    they allocate less than one D x D array (1 MiB), not a copy of rows each."""
    lattice = SystemLattice.from_dims([2] * 8)
    w = global_haar(lattice, np.random.default_rng(0))
    tracemalloc.start()
    try:
        grids = [from_global_unitary(w, lattice.atom(k)) for k in range(8)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 256 * 16
    assert all(grid.w is w.matrix for grid in grids)


# ---------------------------------------------------------------------------
# Equality and serialization.
# ---------------------------------------------------------------------------

def test_equality_is_reflexive_and_system_checked(lat22, rng):
    n = from_global_unitary(global_haar(lat22, rng), lat22.atom(0))
    assert noumenal_equal(n, n)
    other = from_global_unitary(global_haar(lat22, rng), lat22.atom(1))
    with pytest.raises(SystemMismatch):
        noumenal_equal(n, other)
    pair = OperatorMatrix(n.system, np.stack([n.entries, n.entries]))
    with pytest.raises(DimensionMismatch, match="batches of shapes"):
        noumenal_distance(n, pair)


def test_grid_json_round_trip(lat23, rng):
    n = from_global_unitary(global_haar(lat23, rng), lat23.atom(1))
    payload = json.loads(json.dumps(n.to_json(), default=np.ndarray.tolist))
    again = EvolutionMatrix.from_json(lat23, payload)
    assert again.system == n.system
    assert again.basis_tag == n.basis_tag
    assert np.array_equal(again.entries, n.entries)


@pytest.mark.parametrize(
    "entries",
    [
        [[[[[1.0, 0.0]]]], [[[[0.0, 0.0]]], [[[1.0, 0.0]]]]],  # ragged
        np.zeros((2, 2, 6, 6, 3)),  # last axis is not [re, im]
        np.zeros((2, 6, 6, 2)),  # one axis short
        "entries",
        np.full((2, 2, 6, 6, 2), "0.5").tolist(),  # numbers written as strings
        np.full((2, 2, 6, 6, 2), False).tolist(),
        [[[[[10**400, 0]]]]],  # too large for a float
    ],
    ids=["ragged", "last-axis", "rank", "string", "numeric-strings", "bools", "huge-int"],
)
def test_grid_json_rejects_malformed_entries(lat23, rng, entries):
    payload = from_global_unitary(global_haar(lat23, rng), lat23.atom(1)).to_json()
    payload["entries"] = entries
    with pytest.raises(ParseError):
        EvolutionMatrix.from_json(lat23, json.loads(json.dumps(payload, default=np.ndarray.tolist)))
