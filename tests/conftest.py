"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's index arithmetic: basis
positions come from enumerating digit tuples with ``itertools.product`` and
building the actual product vector with ``np.kron``, so they check the
implementation rather than restate it.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from noumenal import System, SystemLattice


@pytest.fixture
def lat2() -> SystemLattice:
    return SystemLattice.from_dims([2])


@pytest.fixture
def lat22() -> SystemLattice:
    return SystemLattice.from_dims([2, 2])


@pytest.fixture
def lat23() -> SystemLattice:
    return SystemLattice.from_dims([2, 3])


@pytest.fixture
def lat222() -> SystemLattice:
    return SystemLattice.from_dims([2, 2, 2])


@pytest.fixture
def lat232() -> SystemLattice:
    return SystemLattice.from_dims([2, 3, 2])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------

def digit_tuples(system: System) -> list[tuple[int, ...]]:
    """All digit tuples of a system's basis, in index order."""
    return list(itertools.product(*[range(d) for d in system.atom_dims]))


def kron_index(a_sys: System, b_sys: System, i: int, k: int) -> int:
    """Position of |i>^A ⊗ |k>^B found by building the vector with np.kron."""
    lattice = a_sys.lattice
    digits = dict(zip(a_sys.atom_ids, digit_tuples(a_sys)[i]))
    digits.update(zip(b_sys.atom_ids, digit_tuples(b_sys)[k]))
    vec = np.array([1.0])
    for atom_id in sorted(digits):
        unit = np.zeros(lattice.dims[atom_id])
        unit[digits[atom_id]] = 1.0
        vec = np.kron(vec, unit)
    return int(np.argmax(vec))


def layout_oracle(lattice: SystemLattice, mask: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """``(atom_ids, atom_dims, dim)`` of a mask, read off the atom specs."""
    members = [atom for atom in lattice.atoms if mask >> atom.atom_id & 1]
    dims = tuple(atom.dim for atom in members)
    return tuple(atom.atom_id for atom in members), dims, int(np.prod(dims, dtype=int))


def index_map_oracle(a_sys: System, b_sys: System) -> np.ndarray:
    """``index_map`` from scratch: split each local index into mixed-radix
    digits (first member atom most significant), file them under their atom
    ids, and read the union's index off the digits in ascending atom order."""
    dims = {atom.atom_id: atom.dim for atom in a_sys.lattice.atoms}
    a_ids = [i for i in sorted(dims) if a_sys.mask >> i & 1]
    b_ids = [i for i in sorted(dims) if b_sys.mask >> i & 1]

    def digits(index: int, ids: list[int]) -> dict[int, int]:
        out = {}
        for atom_id in reversed(ids):
            index, out[atom_id] = divmod(index, dims[atom_id])
        return out

    a_dim = int(np.prod([dims[i] for i in a_ids], dtype=int))
    b_dim = int(np.prod([dims[i] for i in b_ids], dtype=int))
    table = np.empty((a_dim, b_dim), dtype=np.intp)
    for i in range(a_dim):
        for k in range(b_dim):
            placed = {**digits(i, a_ids), **digits(k, b_ids)}
            index = 0
            for atom_id in sorted(placed):
                index = index * dims[atom_id] + placed[atom_id]
            table[i, k] = index
    return table


def embed_oracle(op: np.ndarray, a_sys: System, within: System) -> np.ndarray:
    """Entrywise identity-padding: out[(i,r),(j,r)] = op[i,j]."""
    rest = within.difference(a_sys)
    out = np.zeros((within.dim, within.dim), dtype=np.complex128)
    for i in range(a_sys.dim):
        for j in range(a_sys.dim):
            for r in range(rest.dim):
                out[kron_index(a_sys, rest, i, r), kron_index(a_sys, rest, j, r)] = op[i, j]
    return out


def partial_trace_oracle(mat: np.ndarray, system: System, traced: System) -> np.ndarray:
    """Brute-force double sum over the traced indices."""
    keep = system.difference(traced)
    out = np.zeros((keep.dim, keep.dim), dtype=np.complex128)
    for i in range(keep.dim):
        for j in range(keep.dim):
            for k in range(traced.dim):
                row = kron_index(keep, traced, i, k)
                col = kron_index(keep, traced, j, k)
                out[i, j] += mat[row, col]
    return out


def evolution_oracle(w_matrix: np.ndarray, a_sys: System) -> np.ndarray:
    """Grid built the slow way: conjugate each embedded basis flip."""
    s = a_sys.lattice.global_system
    d, big_d = a_sys.dim, s.dim
    out = np.zeros((d, d, big_d, big_d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            flip = np.zeros((d, d), dtype=np.complex128)
            flip[j, i] = 1.0
            out[i, j] = w_matrix.conj().T @ embed_oracle(flip, a_sys, s) @ w_matrix
    return out


def product_oracle(na, nb) -> np.ndarray:
    """Grid product entry by entry: ``out[(i,k),(j,l)] = N^A_ij @ N^B_kl``,
    with the merged positions found by ``kron_index``."""
    a_sys, b_sys = na.system, nb.system
    dim, big_d = a_sys.dim * b_sys.dim, na.global_dim
    out = np.zeros((dim, dim, big_d, big_d), dtype=np.complex128)
    for i, j, k, l in itertools.product(range(a_sys.dim), range(a_sys.dim), range(b_sys.dim), range(b_sys.dim)):
        row, col = kron_index(a_sys, b_sys, i, k), kron_index(a_sys, b_sys, j, l)
        out[row, col] = na.entries[i, j] @ nb.entries[k, l]
    return out


def conjugation_oracle(x: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Grid-axis conjugation as one three-operand einsum:
    ``(i, j) -> sum_kl x_ik entries[k, l] conj(x_jl)``."""
    return np.einsum("ik,klpq,jl->ijpq", x, entries, x.conj())


def product_residual_oracle(entries: np.ndarray) -> float:
    """Max-abs of ``e(i,j) e(k,l) - δ_il e(k,j)`` over all d^4 quadruples."""
    d = entries.shape[0]
    products = np.einsum("ijpq,klqr->ijklpr", entries, entries)
    expected = np.einsum("il,kjpq->ijklpq", np.eye(d), entries)
    return float(np.max(np.abs(products - expected)))


def refuse_constant(constant: str):
    """A ``json.loads`` ``parse_constant`` that holds a record to RFC 8259: no ``NaN`` or ``Infinity``."""
    raise ValueError(f"{constant} is not RFC 8259 JSON")
