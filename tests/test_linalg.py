import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noumenal import linalg
from noumenal import (
    GATES,
    DensityOperator,
    DimensionMismatch,
    DisjointnessViolation,
    IndexOutOfRange,
    LatticeMismatch,
    NotSubsystem,
    ParseError,
    System,
    SystemLattice,
    SystemMismatch,
    UnitaryOperator,
    ValidationError,
    embed_operator,
    haar_random_unitary,
    index_map,
    matrix_from_json,
    matrix_to_json,
    max_abs,
    merge_indices,
    partial_trace,
    phenomenal_partial_trace,
    product_of_operations,
    random_density_matrix,
    tensor_operators,
)
from conftest import (
    embed_oracle,
    index_map_oracle,
    kron_index,
    layout_oracle,
    partial_trace_oracle,
)

TOL = 1e-12


# ---------------------------------------------------------------------------
# Index merging.
# ---------------------------------------------------------------------------

def test_merge_contiguous_qubits(lat22):
    a, b = lat22.atom(0), lat22.atom(1)
    for i in range(2):
        for k in range(2):
            assert merge_indices(a, b, i, k) == 2 * i + k


def test_merge_swapped_argument_order(lat22):
    # A's atom comes second in the global order: expected 2k + i,
    # cross-checked against the kron placement oracle.
    a, b = lat22.atom(1), lat22.atom(0)
    for i in range(2):
        for k in range(2):
            assert merge_indices(a, b, i, k) == 2 * k + i
            assert merge_indices(a, b, i, k) == kron_index(a, b, i, k)


def test_merge_non_contiguous_three_qubits(lat222):
    a = lat222.system((0, 2))
    b = lat222.system((1,))
    # digits (i0, i2) = (1, 1) is A-index 3; global digits (1, 0, 1) = 5
    assert merge_indices(a, b, 3, 0) == 5
    assert merge_indices(a, b, 3, 0) == kron_index(a, b, 3, 0)


@pytest.mark.parametrize("a_ids,b_ids", [((0,), (1, 2)), ((0, 2), (1,)), ((1,), (0,)), ((), (0, 1, 2))])
def test_index_map_matches_oracle_and_is_bijective(lat232, a_ids, b_ids):
    a, b = lat232.system(a_ids), lat232.system(b_ids)
    table = index_map(a, b)
    for i in range(a.dim):
        for k in range(b.dim):
            assert table[i, k] == kron_index(a, b, i, k)
    assert sorted(table.reshape(-1).tolist()) == list(range(a.union(b).dim))


def test_merge_argument_swap_symmetry(lat232):
    a, b = lat232.system((0, 2)), lat232.system((1,))
    for i in range(a.dim):
        for k in range(b.dim):
            assert merge_indices(a, b, i, k) == merge_indices(b, a, k, i)


def test_merge_errors(lat22):
    a, b = lat22.atom(0), lat22.atom(1)
    with pytest.raises(IndexOutOfRange):
        merge_indices(a, b, 2, 0)
    with pytest.raises(IndexOutOfRange):
        merge_indices(a, b, 0, -1)
    with pytest.raises(DisjointnessViolation):
        index_map(a, a)


# ---------------------------------------------------------------------------
# The lattice's memo tables: layouts and index maps.
# ---------------------------------------------------------------------------

def _disjoint_pairs(lattice):
    full = (1 << lattice.n_atoms) - 1
    for a in range(full + 1):
        for b in range(full + 1):
            if a & b == 0:
                yield System(lattice, a), System(lattice, b)


def test_index_map_matches_oracle_on_every_disjoint_pair(lat232):
    pairs = list(_disjoint_pairs(lat232))
    assert len(pairs) == 27
    for a, b in pairs:
        table = index_map(a, b)
        assert table.dtype == np.intp
        assert np.array_equal(table, index_map_oracle(a, b))


@st.composite
def lattice_and_disjoint_pair(draw):
    dims = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    lattice = SystemLattice.from_dims(dims)
    full = (1 << len(dims)) - 1
    a = draw(st.integers(0, full))
    b = draw(st.integers(0, full)) & ~a
    return lattice, System(lattice, a), System(lattice, b)


@settings(max_examples=60, deadline=None)
@given(drawn=lattice_and_disjoint_pair())
def test_index_map_and_layout_match_oracles_on_drawn_lattices(drawn):
    lattice, a, b = drawn
    assert np.array_equal(index_map(a, b), index_map_oracle(a, b))
    assert np.array_equal(index_map(b, a), index_map_oracle(b, a))
    for system in (a, b, a.union(b), a.complement()):
        assert (system.atom_ids, system.atom_dims, system.dim) == layout_oracle(lattice, system.mask)


def test_layout_matches_oracle_for_every_mask(lat232):
    for mask in range(1 << lat232.n_atoms):
        system = System(lat232, mask)
        assert (system.atom_ids, system.atom_dims, system.dim) == layout_oracle(lat232, mask)
    assert lat232.dims == (2, 3, 2)


def test_index_map_is_shared_and_read_only(lat232):
    a, b = lat232.system((0, 2)), lat232.system((1,))
    table = index_map(a, b)
    assert index_map(lat232.system((2, 0)), lat232.system((1,))) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    with pytest.raises(ValueError):
        table.reshape(-1)[0] = 1
    assert np.array_equal(table, index_map_oracle(a, b))


def test_overlap_is_rejected_on_every_call(lat232):
    a, ab = lat232.system((0,)), lat232.system((0, 1))
    for _ in range(2):
        with pytest.raises(DisjointnessViolation):
            index_map(a, ab)
    # Even an entry sitting in the table for an overlapping pair is never
    # returned: the overlap check runs before the lookup.
    lat232.index_maps[(a.mask, ab.mask)] = np.zeros((2, 6), dtype=np.intp)
    with pytest.raises(DisjointnessViolation):
        index_map(a, ab)


def test_lattices_with_equal_dims_share_no_entries():
    first, second = SystemLattice.from_dims([2, 3, 2]), SystemLattice.from_dims([2, 3, 2])
    a1, b1 = first.atom(0), first.system((1, 2))
    a2, b2 = second.atom(0), second.system((1, 2))
    m1, m2 = index_map(a1, b1), index_map(a2, b2)
    assert np.array_equal(m1, m2) and m1 is not m2
    assert first.index_maps is not second.index_maps
    assert not {id(v) for v in first.index_maps.values()} & {id(v) for v in second.index_maps.values()}
    with pytest.raises(LatticeMismatch):
        index_map(a1, b2)


# ---------------------------------------------------------------------------
# Operator embedding.
# ---------------------------------------------------------------------------

def test_embed_first_atom_is_plain_kron(lat22):
    x = GATES["X"]
    assert max_abs(embed_operator(x, lat22.atom(0)) - np.kron(x, np.eye(2))) < TOL


def test_embed_second_atom(lat22):
    x = GATES["X"]
    assert max_abs(embed_operator(x, lat22.atom(1)) - np.kron(np.eye(2), x)) < TOL


def test_embed_z_on_first_of_three(lat222):
    embedded = embed_operator(GATES["Z"], lat222.atom(0))
    assert max_abs(embedded - np.diag([1, 1, 1, 1, -1, -1, -1, -1])) < TOL


def test_embed_matches_oracle_non_contiguous(lat232, rng):
    a = lat232.system((0, 2))
    op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    expected = embed_oracle(op, a, lat232.global_system)
    assert max_abs(embed_operator(op, a) - expected) < TOL


def test_embed_is_an_algebra_homomorphism(lat232, rng):
    a = lat232.system((1, 2))
    d = a.dim
    op1 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    op2 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert max_abs(embed_operator(op1 @ op2, a) - embed_operator(op1, a) @ embed_operator(op2, a)) < 1e-9
    assert max_abs(embed_operator(np.eye(d), a) - np.eye(lat232.global_dim)) < TOL
    assert max_abs(embed_operator(op1.conj().T, a) - embed_operator(op1, a).conj().T) < TOL


def test_embedded_disjoint_supports_commute(lat222, rng):
    a, b = lat222.system((0, 2)), lat222.system((1,))
    op_a = haar_random_unitary(a.dim, rng)
    op_b = haar_random_unitary(b.dim, rng)
    ea, eb = embed_operator(op_a, a), embed_operator(op_b, b)
    assert max_abs(ea @ eb - eb @ ea) < 1e-9


def test_embed_errors(lat22):
    with pytest.raises(DimensionMismatch):
        embed_operator(np.eye(3), lat22.atom(0))


def test_tensor_operators_interleaves(lat222, rng):
    a, b = lat222.system((0, 2)), lat222.system((1,))
    op_a = haar_random_unitary(4, rng)
    op_b = haar_random_unitary(2, rng)
    combined = tensor_operators(op_a, a, op_b, b)
    expected = embed_operator(op_a, a) @ embed_operator(op_b, b)
    assert max_abs(combined - expected) < 1e-9


def test_product_of_operations_on_subunion(lat222, rng):
    a, b = lat222.atom(0), lat222.atom(2)
    u = UnitaryOperator(haar_random_unitary(2, rng), a)
    v = UnitaryOperator(haar_random_unitary(2, rng), b)
    joint = product_of_operations(u, v)
    assert joint.system == lat222.system((0, 2))
    assert max_abs(
        embed_operator(joint.matrix, joint.system)
        - embed_operator(u.matrix, a) @ embed_operator(v.matrix, b)
    ) < 1e-9


# ---------------------------------------------------------------------------
# Partial traces.
# ---------------------------------------------------------------------------

def test_trace_of_product_state(lat23, rng):
    a, b = lat23.atom(0), lat23.atom(1)
    rho_a = random_density_matrix(2, rng)
    rho_b = random_density_matrix(3, rng)
    joint = DensityOperator(tensor_operators(rho_a, a, rho_b, b), lat23.global_system)
    reduced = phenomenal_partial_trace(joint, b)
    assert reduced.system == a
    assert max_abs(reduced.matrix - rho_a) < 1e-12


def test_trace_of_bell_state(lat22):
    vec = np.zeros(4, dtype=complex)
    vec[1] = vec[2] = 1 / np.sqrt(2)
    rho = DensityOperator(np.outer(vec, vec.conj()), lat22.global_system)
    reduced = phenomenal_partial_trace(rho, lat22.atom(1))
    assert max_abs(reduced.matrix - np.eye(2) / 2) < 1e-12


def test_trace_matches_double_sum_oracle(lat22, rng):
    rho = random_density_matrix(4, rng)
    expected = partial_trace_oracle(rho, lat22.global_system, lat22.atom(1))
    got = partial_trace(rho, lat22.global_system, lat22.atom(1))
    assert max_abs(got - expected) < 1e-12


def test_trace_matches_oracle_non_contiguous(lat232, rng):
    traced = lat232.system((0, 2))
    rho = random_density_matrix(12, rng)
    expected = partial_trace_oracle(rho, lat232.global_system, traced)
    got = partial_trace(rho, lat232.global_system, traced)
    assert max_abs(got - expected) < 1e-12


def test_trace_composes(lat232, rng):
    s = lat232.global_system
    rho = random_density_matrix(12, rng)
    stepwise = partial_trace(partial_trace(rho, s, lat232.atom(2)), s.difference(lat232.atom(2)), lat232.atom(1))
    joint = partial_trace(rho, s, lat232.system((1, 2)))
    assert max_abs(stepwise - joint) < 1e-12


def test_trace_requires_subsystem(lat22, rng):
    rho = DensityOperator(random_density_matrix(2, rng), lat22.atom(0))
    with pytest.raises(NotSubsystem):
        phenomenal_partial_trace(rho, lat22.atom(1))


# ---------------------------------------------------------------------------
# Random unitaries and validated operators.
# ---------------------------------------------------------------------------

def test_haar_dim_one_is_phase(rng):
    u = haar_random_unitary(1, rng)
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12
    with pytest.raises(ValidationError, match="dimension must be >= 1"):
        haar_random_unitary(0, rng)


def test_haar_is_unitary(rng):
    u = haar_random_unitary(4, rng)
    assert max_abs(u.conj().T @ u - np.eye(4)) < 1e-10


def test_haar_deterministic_under_seed():
    u1 = haar_random_unitary(4, np.random.default_rng(123))
    u2 = haar_random_unitary(4, np.random.default_rng(123))
    assert np.array_equal(u1, u2)


def test_unitary_operator_validation(lat22, rng):
    with pytest.raises(ValidationError):
        UnitaryOperator(np.ones((2, 2)), lat22.atom(0))
    with pytest.raises(DimensionMismatch):
        UnitaryOperator(np.eye(3), lat22.atom(0))
    with pytest.raises(DimensionMismatch, match="expected a matrix"):
        UnitaryOperator(np.ones(2), lat22.atom(0))
    u = UnitaryOperator(haar_random_unitary(2, rng), lat22.atom(0))
    assert not u.matrix.flags.writeable
    with pytest.raises(SystemMismatch):
        u @ UnitaryOperator(np.eye(2), lat22.atom(1))


def test_density_operator_validation(lat22):
    with pytest.raises(ValidationError):
        DensityOperator(np.array([[0.5, 0.5j], [0.5j, 0.5]]), lat22.atom(0))  # not Hermitian
    with pytest.raises(ValidationError):
        DensityOperator(np.eye(2), lat22.atom(0))  # trace 2
    rho = DensityOperator(np.eye(2) / 2, lat22.atom(0))
    rho.validate_psd()
    bad = DensityOperator(np.diag([1.5, -0.5]), lat22.atom(0))
    with pytest.raises(ValidationError):
        bad.validate_psd()


@pytest.mark.parametrize("kind", [UnitaryOperator, DensityOperator])
def test_operators_keep_one_frozen_copy_and_readers_copy_nothing(lat22, kind):
    caller = np.eye(4, dtype=np.complex128) / (1 if kind is UnitaryOperator else 4)
    op = kind(caller, lat22.global_system)
    assert caller.flags.writeable and not op.matrix.flags.writeable
    assert not np.shares_memory(caller, op.matrix)
    assert np.array_equal(caller, op.matrix)
    # Kernels that only read an operand take a complex C-contiguous one as is.
    assert linalg.as_complex_matrix(caller, 4) is caller
    assert linalg.as_complex_matrix(caller.T).flags.c_contiguous
    assert linalg.as_complex_matrix([[1, 0], [0, 1]]).dtype == np.complex128


def test_non_finite_entries_fail_closed(lat22):
    assert max_abs(np.array([0.5, np.nan])) == np.inf
    assert max_abs(np.array([0.5, -np.inf])) == np.inf
    with pytest.raises(ValidationError, match="non-finite"):
        DensityOperator(np.array([[np.nan, 0.0], [0.0, 1.0]]), lat22.atom(0))


def test_density_purity(lat22):
    pure = DensityOperator(np.diag([1.0, 0.0]), lat22.atom(0))
    mixed = DensityOperator(np.eye(2) / 2, lat22.atom(0))
    assert pure.is_pure()
    assert not mixed.is_pure()


# ---------------------------------------------------------------------------
# JSON form.
# ---------------------------------------------------------------------------

complex_entries = st.complex_numbers(
    min_magnitude=0, max_magnitude=1e6, allow_nan=False, allow_infinity=False
)


@settings(max_examples=50)
@given(
    st.integers(1, 4).flatmap(
        lambda r: st.integers(1, 4).flatmap(
            lambda c: st.lists(
                st.lists(complex_entries, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )
)
def test_matrix_json_round_trip(rows):
    matrix = np.array(rows, dtype=np.complex128)
    again = matrix_from_json(matrix_to_json(matrix))
    assert np.array_equal(matrix, again)


def test_matrix_to_json_is_a_view_of_the_stacked_parts():
    matrix = np.random.default_rng(5).standard_normal((3, 4, 2)) @ np.array([1, 1j])
    matrix[0, 1] = complex(-0.0, 0.0)
    matrix[2, 3] = complex(0.0, -0.0)
    assert np.shares_memory(matrix_to_json(matrix), matrix)
    for value in (matrix, matrix.T, matrix[:, ::2], matrix[0], matrix[:, 1], matrix[1, 2], np.eye(2), [[1, 2j]]):
        stacked = np.stack((np.real(value), np.imag(value)), axis=-1)
        out = matrix_to_json(value)
        assert out.dtype == np.float64 and out.shape == (*np.shape(value), 2)
        assert out.tobytes() == stacked.tobytes()


def test_matrix_json_rejects_garbage():
    with pytest.raises(ParseError):
        matrix_from_json([[1, 2], [3]])
    with pytest.raises(ParseError):
        matrix_from_json([[[1, 2, 3]]])
