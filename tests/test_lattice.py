import pytest
from hypothesis import given, strategies as st

from noumenal import (
    AtomSpec,
    LatticeMismatch,
    SizeBoundExceeded,
    System,
    SystemLattice,
    ValidationError,
)

LAT = SystemLattice.from_dims([2, 2, 3, 2])

masks = st.integers(min_value=0, max_value=(1 << LAT.n_atoms) - 1)
systems = masks.map(lambda m: System(LAT, m))


def test_union_of_atoms(lat222):
    assert lat222.atom(0).union(lat222.atom(1)) == lat222.system((0, 1))


def test_union_with_empty_is_identity(lat222):
    a = lat222.system((0, 2))
    assert a.union(lat222.empty_system) == a


def test_union_with_complement_is_global(lat222):
    a = lat222.system((1,))
    assert a.union(a.complement()) == lat222.global_system


def test_intersection_with_complement_is_empty(lat222):
    a = lat222.system((0, 1))
    assert a.intersection(a.complement()) == lat222.empty_system


def test_intersection_idempotent(lat222):
    a = lat222.system((0, 2))
    assert a.intersection(a) == a


def test_intersection_of_overlapping_sets(lat222):
    assert lat222.system((0, 1)).intersection(lat222.system((1, 2))) == lat222.system((1,))


def test_complement_bounds(lat222):
    assert lat222.empty_system.complement() == lat222.global_system
    assert lat222.global_system.complement() == lat222.empty_system
    assert lat222.system((0,)).complement() == lat222.system((1, 2))


def test_subsystem_relation(lat222):
    a = lat222.system((0, 1))
    assert lat222.empty_system.is_subsystem_of(a)
    assert a.is_subsystem_of(a)
    assert not lat222.system((0, 1)).is_subsystem_of(lat222.system((0,)))


def test_dimensions(lat22, lat23):
    assert lat22.empty_system.dim == 1
    assert lat22.global_system.dim == 4
    assert lat23.system((1,)).dim == 3


@given(a=systems, b=systems, c=systems)
def test_boolean_lattice_laws(a, b, c):
    # associativity
    assert a.union(b.union(c)) == a.union(b).union(c)
    assert a.intersection(b.intersection(c)) == a.intersection(b).intersection(c)
    # commutativity
    assert a.union(b) == b.union(a)
    assert a.intersection(b) == b.intersection(a)
    # absorption
    assert a.intersection(b.union(a)) == a
    assert a.union(b.intersection(a)) == a
    # distributivity
    assert a.intersection(b.union(c)) == a.intersection(b).union(a.intersection(c))
    assert a.union(b.intersection(c)) == a.union(b).intersection(a.union(c))
    # complementation
    assert a.union(a.complement()) == LAT.global_system
    assert a.intersection(a.complement()) == LAT.empty_system


@given(a=systems)
def test_atomic_decomposition_reassembles(a):
    parts = a.atomic_decomposition()
    assert all(len(p.atom_ids) == 1 for p in parts)
    rebuilt = LAT.empty_system
    for part in parts:
        rebuilt = rebuilt.union(part)
    assert rebuilt == a
    # unique: the bit set determines the parts
    assert sorted(p.atom_ids[0] for p in parts) == list(a.atom_ids)


@given(a=systems, b=systems)
def test_dimension_multiplicative_on_disjoint(a, b):
    if a.is_disjoint_from(b):
        assert a.union(b).dim == a.dim * b.dim


def test_lattice_mismatch(lat22, lat23):
    with pytest.raises(LatticeMismatch):
        lat22.atom(0).union(lat23.atom(0))
    with pytest.raises(LatticeMismatch):
        lat22.atom(0).is_subsystem_of(lat23.atom(0))


def test_atom_validation():
    with pytest.raises(ValidationError):
        SystemLattice.from_dims([])
    with pytest.raises(ValidationError):
        SystemLattice.from_dims([2, 1])
    with pytest.raises(ValidationError):
        SystemLattice([AtomSpec(1, 2)])  # ids must start at 0
    with pytest.raises(ValidationError, match="labels must match dims"):
        SystemLattice.from_dims([2, 2], labels=["A"])
    with pytest.raises(ValidationError, match="no atom with id 2"):
        SystemLattice.from_dims([2, 2]).system([2])


def test_size_bounds():
    with pytest.raises(SizeBoundExceeded):
        SystemLattice.from_dims([2] * 17)
    with pytest.raises(SizeBoundExceeded):
        SystemLattice.from_dims([2] * 13)  # 8192 > 4096


def test_dim_bound_env_override(monkeypatch):
    monkeypatch.setenv("NOUMENAL_MAX_DIM", "16384")
    SystemLattice.from_dims([2] * 13)
    monkeypatch.setenv("NOUMENAL_MAX_DIM", "8")
    with pytest.raises(SizeBoundExceeded):
        SystemLattice.from_dims([2, 2, 2, 2])
    monkeypatch.setenv("NOUMENAL_MAX_DIM", "8.5")
    with pytest.raises(ValidationError, match="must be an integer"):
        SystemLattice.from_dims([2, 2])


def test_operator_shorthands(lat222):
    a, b = lat222.system((0, 1)), lat222.system((1, 2))
    assert (a | b) == lat222.global_system
    assert (a & b) == lat222.system((1,))
    assert ~a == lat222.system((2,))
    assert lat222.system((1,)) <= a


def test_one_system_per_mask(lat222):
    a = System(lat222, 0b011)
    assert a is lat222.system((0, 1))
    assert lat222.atom(0).union(lat222.atom(1)) is a
    assert a.complement().complement() is a
    assert System(lat222, 0b111) is lat222.global_system is lat222.global_system


def test_system_is_immutable(lat222):
    a = lat222.system((0, 2))
    for name in ("lattice", "mask", "atom_ids", "atom_dims", "dim", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
    with pytest.raises(AttributeError, match="cannot delete 'mask'"):
        del a.mask
    assert (a.mask, a.atom_ids, a.atom_dims, a.dim) == (0b101, (0, 2), (2, 2), 4)


def test_lattices_with_equal_dims_share_no_system():
    first, second = SystemLattice.from_dims([2, 3]), SystemLattice.from_dims([2, 3])
    for mask in range(4):
        assert System(first, mask) is System(first, mask)
        assert System(first, mask) != System(second, mask)
        assert System(second, mask).lattice is second


@pytest.mark.parametrize("mask", [-1, 0b1000])
def test_mask_outside_lattice_is_rejected(lat222, mask):
    with pytest.raises(ValidationError, match="outside the lattice"):
        System(lat222, mask)
