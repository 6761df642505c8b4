"""Finite boolean lattice of systems over an ordered set of dimensioned atoms.

A lattice fixes a total order of atoms (by ``atom_id``) and a Hilbert-space
dimension per atom.  A :class:`System` is a subset of those atoms, stored as a
bit set; union, intersection and complement are plain set algebra.  The atom
order also fixes the canonical basis layout of every composite system: the
C-order flattening of a tensor with one axis per member atom, in ascending
``atom_id`` order, so the first atom is the most significant digit.

A lattice never changes and compares by identity, so it owns what is built
on it: one :class:`System` per atom mask, made on first use with its layout
(member atom ids, their dims and the product dimension) set once, and the
index maps of :func:`noumenal.linalg.index_map`.  No entry ever needs
invalidating, and two lattices never share one.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import LatticeMismatch, SizeBoundExceeded, ValidationError

MAX_ATOMS = 16
DEFAULT_MAX_GLOBAL_DIM = 4096
MAX_DIM_ENV_VAR = "NOUMENAL_MAX_DIM"


def global_dim_bound() -> int:
    """Current cap on the global Hilbert-space dimension.

    Defaults to :data:`DEFAULT_MAX_GLOBAL_DIM`; the environment variable
    ``NOUMENAL_MAX_DIM`` overrides it.
    """
    raw = os.environ.get(MAX_DIM_ENV_VAR)
    if raw is None or not raw.strip():
        return DEFAULT_MAX_GLOBAL_DIM
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"{MAX_DIM_ENV_VAR} must be an integer, got {raw!r}") from exc


@dataclass(frozen=True)
class AtomSpec:
    """One atomic system: a 0-based id, a dimension >= 2, an optional label."""

    atom_id: int
    dim: int
    label: str | None = None


class SystemLattice:
    """Immutable lattice of systems generated by a fixed list of atoms.

    Two systems can be combined only if they reference the *same* lattice
    object; lattices compare by identity.
    """

    def __init__(self, atoms: Sequence[AtomSpec]):
        atoms = tuple(atoms)
        if not atoms:
            raise ValidationError("a lattice needs at least one atom")
        if len(atoms) > MAX_ATOMS:
            raise SizeBoundExceeded(f"at most {MAX_ATOMS} atoms supported, got {len(atoms)}")
        for position, atom in enumerate(atoms):
            if atom.atom_id != position:
                raise ValidationError(
                    f"atom ids must be 0-based and contiguous; position {position} has id {atom.atom_id}"
                )
            if atom.dim < 2:
                raise ValidationError(f"atom {atom.atom_id} has dim {atom.dim}; atoms need dim >= 2")
        dims = tuple(atom.dim for atom in atoms)
        total = math.prod(dims)
        bound = global_dim_bound()
        if total > bound:
            raise SizeBoundExceeded(f"global dimension {total} exceeds bound {bound}")
        self._atoms = atoms
        self._dims = dims
        self._global_dim = total
        self._systems: dict[int, System] = {}
        #: ``linalg.index_map`` results, keyed by ``(a_sys.mask, b_sys.mask)``.
        self.index_maps: dict = {}

    @classmethod
    def from_dims(cls, dims: Iterable[int], labels: Sequence[str] | None = None) -> "SystemLattice":
        dims = list(dims)
        if labels is not None and len(labels) != len(dims):
            raise ValidationError("labels must match dims in length")
        return cls(
            tuple(
                AtomSpec(i, d, labels[i] if labels is not None else None)
                for i, d in enumerate(dims)
            )
        )

    @property
    def atoms(self) -> tuple[AtomSpec, ...]:
        return self._atoms

    @property
    def n_atoms(self) -> int:
        return len(self._atoms)

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def global_dim(self) -> int:
        return self._global_dim

    def system(self, atom_ids: Iterable[int]) -> "System":
        """The system spanning the given atoms, each listed once."""
        mask = 0
        for atom_id in atom_ids:
            if not 0 <= atom_id < self.n_atoms:
                raise ValidationError(f"no atom with id {atom_id} in this lattice")
            if mask >> atom_id & 1:
                raise ValidationError(f"atom id {atom_id} is listed twice")
            mask |= 1 << atom_id
        return System(self, mask)

    def atom(self, atom_id: int) -> "System":
        return self.system((atom_id,))

    @property
    def empty_system(self) -> "System":
        return System(self, 0)

    @property
    def global_system(self) -> "System":
        return System(self, (1 << self.n_atoms) - 1)

    def __repr__(self) -> str:
        return f"SystemLattice(dims={self.dims})"


class System:
    """A subset of lattice atoms, closed under the boolean operations.

    ``System(lattice, mask)`` returns the lattice's one instance for that
    mask, built on first use, so systems compare and hash by identity.  Its
    fields never change: the member ``atom_ids`` (ascending), their
    ``atom_dims`` and the Hilbert-space ``dim``, their product (1 if empty).
    """

    __slots__ = ("lattice", "mask", "atom_ids", "atom_dims", "dim")
    lattice: SystemLattice
    mask: int
    atom_ids: tuple[int, ...]
    atom_dims: tuple[int, ...]
    dim: int

    def __new__(cls, lattice: SystemLattice, mask: int) -> "System":
        system = lattice._systems.get(mask)
        if system is None:
            if not 0 <= mask < 1 << lattice.n_atoms:
                raise ValidationError(f"atom mask {mask:#x} outside the lattice")
            ids = tuple(i for i in range(lattice.n_atoms) if mask >> i & 1)
            dims = tuple(lattice.dims[i] for i in ids)
            system = object.__new__(cls)
            for name, value in zip(cls.__slots__, (lattice, mask, ids, dims, math.prod(dims))):
                object.__setattr__(system, name, value)
            system = lattice._systems.setdefault(mask, system)
        return system

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"System is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"System is immutable; cannot delete {name!r}")

    # -- set algebra ----------------------------------------------------

    def union(self, other: "System") -> "System":
        self._require_same_lattice(other)
        return System(self.lattice, self.mask | other.mask)

    def intersection(self, other: "System") -> "System":
        self._require_same_lattice(other)
        return System(self.lattice, self.mask & other.mask)

    def complement(self) -> "System":
        full = (1 << self.lattice.n_atoms) - 1
        return System(self.lattice, full & ~self.mask)

    def difference(self, other: "System") -> "System":
        self._require_same_lattice(other)
        return System(self.lattice, self.mask & ~other.mask)

    def is_subsystem_of(self, other: "System") -> bool:
        self._require_same_lattice(other)
        return self.mask & other.mask == self.mask

    def is_disjoint_from(self, other: "System") -> bool:
        self._require_same_lattice(other)
        return self.mask & other.mask == 0

    __or__ = union
    __and__ = intersection
    __invert__ = complement
    __le__ = is_subsystem_of

    # -- structure ------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def is_global(self) -> bool:
        return self.mask == (1 << self.lattice.n_atoms) - 1

    def atomic_decomposition(self) -> tuple["System", ...]:
        """The unique set of atomic systems whose union is this system."""
        return tuple(System(self.lattice, 1 << i) for i in self.atom_ids)

    def _require_same_lattice(self, other: "System") -> None:
        if self.lattice is not other.lattice:
            raise LatticeMismatch("systems belong to different lattices")

    def __repr__(self) -> str:
        if self.is_empty:
            return "System(0)"
        return f"System({{{','.join(map(str, self.atom_ids))}}})"
