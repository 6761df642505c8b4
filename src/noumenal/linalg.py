"""Dense complex linear algebra over lattice systems.

Everything is a plain ``numpy`` ``complex128`` array.  The functions here do
the index bookkeeping that the fixed atom order demands: merging subsystem
basis indices into composite ones, embedding operators with identity padding
on the remaining atoms (at their global positions, not contiguously), and
partial traces over arbitrary atom subsets.

Every kernel also takes a stack of operators: leading batch axes, one
index per law-suite trial, before an operator's own axes.

Matrices serialize as row-major arrays of ``[re, im]`` pairs: a float64
array in a record, nested JSON arrays in text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DisjointnessViolation,
    IndexOutOfRange,
    NotSubsystem,
    ParseError,
    SystemMismatch,
    ValidationError,
)
from .lattice import System

#: Max-abs residual allowed when testing a matrix for unitarity.
TOL_UNITARY = 1e-10
#: Max-abs elementwise residual treated as equality.
TOL_EQ = 1e-9
#: Eigenvalue floor for positive-semidefinite checks.
TOL_PSD = 1e-9


def max_abs(a: np.ndarray, ndim: int | None = None) -> float | np.ndarray:
    """Largest absolute value over the last ``ndim`` axes (all by default): a
    float, or one value per index of the leading batch axes.  0.0 for empty
    arrays; ``inf`` where any entry is not finite, so that every ``<= tol``
    test fails closed."""
    a = np.abs(np.asarray(a))
    core = a.ndim if ndim is None else ndim
    worst = a.max(axis=tuple(range(a.ndim - core, a.ndim)), initial=0.0)
    if worst.ndim:
        return np.where(worst == worst, worst, np.inf)  # NaN is the only value unequal to itself
    return float(worst) if worst == worst else math.inf


def dagger(matrix: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(matrix.conj(), -1, -2)


def as_complex_matrix(data, rows: int | None = None, copy: bool | None = None) -> np.ndarray:
    """A C-contiguous complex matrix, or stack of matrices, of ``rows x rows``
    when given: ``data`` itself when it already is one, unless ``copy``."""
    arr = np.array(data, dtype=np.complex128, order="C", copy=copy)
    if arr.ndim < 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={arr.ndim}")
    if rows is not None and arr.shape[-2:] != (rows, rows):
        raise DimensionMismatch(f"expected shape {(rows, rows)}, got {arr.shape}")
    return arr


def is_unitary(matrix: np.ndarray) -> bool:
    """Whether ``matrix``, or every matrix of a stack, is unitary within :data:`TOL_UNITARY`."""
    matrix = np.asarray(matrix)
    if matrix.ndim < 2 or matrix.shape[-1] != matrix.shape[-2] or not np.isfinite(matrix).all():
        return False
    return max_abs(dagger(matrix) @ matrix - np.eye(matrix.shape[-1])) <= TOL_UNITARY


# ---------------------------------------------------------------------------
# JSON form: [re, im] pairs, row-major.
# ---------------------------------------------------------------------------

def matrix_to_json(matrix: np.ndarray) -> np.ndarray:
    """The float64 array of ``[re, im]`` pairs (shape ``(*matrix.shape, 2)``)
    of an array of any rank; ``.tolist()`` gives its JSON value.  A view of
    ``matrix`` when it is a C-contiguous complex128 array of rank >= 1."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    return np.ascontiguousarray(matrix).view(np.float64).reshape(*matrix.shape, 2)


def matrix_from_json(payload, rank: int = 2) -> np.ndarray:
    """The complex array of ``rank`` axes in a ``matrix_to_json`` payload,
    whose leaves must all be JSON numbers that fit a float."""
    try:
        arr = np.array(payload, dtype=object)
        if not set(map(type, arr.flat)) <= {int, float}:
            raise ValueError("entries must be numbers")
        arr = arr.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed matrix payload: {exc}") from exc
    if arr.ndim != rank + 1 or arr.shape[-1] != 2:
        raise ParseError(f"matrix payload must be {rank} axes x [re,im], got shape {arr.shape}")
    return arr.view(np.complex128)[..., 0]


# ---------------------------------------------------------------------------
# Validated operator types.
# ---------------------------------------------------------------------------

def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    """A unitary matrix acting on a system, in that system's canonical basis."""

    matrix: np.ndarray
    system: System

    def __post_init__(self) -> None:
        matrix = as_complex_matrix(self.matrix, copy=True)
        d = self.system.dim
        if matrix.shape[-2:] != (d, d):
            raise DimensionMismatch(
                f"operator is {matrix.shape}, but system {self.system} has dimension {d}"
            )
        if not is_unitary(matrix):
            raise ValidationError("matrix is not unitary within TOL_UNITARY")
        object.__setattr__(self, "matrix", _frozen(matrix))

    @classmethod
    def _trusted(cls, matrix: np.ndarray, system: System) -> "UnitaryOperator":
        trusted = object.__new__(cls)  # unitary by construction, as a product of validated gates
        trusted.__dict__.update(matrix=_frozen(matrix), system=system)
        return trusted

    def compose(self, other: "UnitaryOperator") -> "UnitaryOperator":
        """``self @ other``: do ``other`` first, then ``self``."""
        if self.system != other.system:
            raise SystemMismatch("cannot compose operations on different systems")
        return UnitaryOperator(self.matrix @ other.matrix, self.system)

    __matmul__ = compose


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A density matrix on a system: Hermitian, unit trace.

    Positivity is only checked on request (:meth:`validate_psd`), since the
    eigendecomposition is the one expensive validation.
    """

    matrix: np.ndarray
    system: System

    def __post_init__(self) -> None:
        matrix = as_complex_matrix(self.matrix, copy=True)
        d = self.system.dim
        if matrix.shape[-2:] != (d, d):
            raise DimensionMismatch(
                f"state is {matrix.shape}, but system {self.system} has dimension {d}"
            )
        if not np.isfinite(matrix).all():
            raise ValidationError("density matrix has non-finite (NaN or inf) entries")
        if max_abs(matrix - dagger(matrix)) > TOL_EQ:
            raise ValidationError("density matrix is not Hermitian within TOL_EQ")
        trace_gap = max_abs(np.trace(matrix, axis1=-2, axis2=-1) - 1.0)
        if trace_gap > TOL_EQ:
            raise ValidationError(f"density matrix trace differs from 1 by {trace_gap:.3g}")
        object.__setattr__(self, "matrix", _frozen(matrix))

    def purity(self) -> float | np.ndarray:
        return np.trace(self.matrix @ self.matrix, axis1=-2, axis2=-1).real

    def is_pure(self) -> bool:
        """Whether the state, or every state of a stack, is pure within :data:`TOL_EQ`."""
        return bool(np.all(abs(self.purity() - 1.0) <= TOL_EQ))

    def validate_psd(self) -> None:
        eigenvalues = np.linalg.eigvalsh(self.matrix)
        if eigenvalues.min() < -TOL_PSD:
            raise ValidationError(f"density matrix has eigenvalue {eigenvalues.min():.3g} < -TOL_PSD")


# ---------------------------------------------------------------------------
# Index bookkeeping under the fixed atom order.
# ---------------------------------------------------------------------------

def index_map(a_sys: System, b_sys: System) -> np.ndarray:
    """Flat composite indices of ``|i> ⊗ |k>`` for disjoint systems.

    Returns an integer array ``M`` of shape ``(a_sys.dim, b_sys.dim)`` with
    ``M[i, k]`` the index of the product vector in the canonical basis of the
    union: the C-order flattening of a tensor with one axis per member atom,
    in ascending atom order.  The map is a bijection onto
    ``range(dim(union))``.

    The map is computed once per lattice and pair of masks and then shared:
    every call with the same pair returns the same read-only, C-contiguous
    ``intp`` array, so callers must copy it before writing to it.  Overlapping
    systems are rejected on every call.
    """
    if not a_sys.is_disjoint_from(b_sys):
        raise DisjointnessViolation(f"systems {a_sys} and {b_sys} overlap")
    memo = a_sys.lattice.index_maps
    key = (a_sys.mask, b_sys.mask)
    out = memo.get(key)
    if out is not None:
        return out
    union = a_sys.union(b_sys)
    axes = [union.atom_ids.index(atom_id) for atom_id in (*a_sys.atom_ids, *b_sys.atom_ids)]
    layout = np.arange(union.dim, dtype=np.intp).reshape(union.atom_dims).transpose(axes)
    out = np.ascontiguousarray(layout).reshape(a_sys.dim, b_sys.dim)
    memo[key] = _frozen(out)
    return out


def merge_indices(a_sys: System, b_sys: System, i: int, k: int) -> int:
    """Index of ``|i>^A ⊗ |k>^B`` in the canonical basis of the union."""
    if not 0 <= i < a_sys.dim:
        raise IndexOutOfRange(f"index {i} outside system of dimension {a_sys.dim}")
    if not 0 <= k < b_sys.dim:
        raise IndexOutOfRange(f"index {k} outside system of dimension {b_sys.dim}")
    return int(index_map(a_sys, b_sys)[i, k])


def embed_operator(op: np.ndarray, a_sys: System) -> np.ndarray:
    """Pad ``op`` with identity on the atoms outside ``a_sys``.

    The result represents ``op ⊗ I`` on the global system in its canonical
    basis, with the atoms of ``a_sys`` kept at their global positions rather
    than moved to the front.
    """
    rest = a_sys.complement()
    return tensor_operators(op, a_sys, np.eye(rest.dim), rest)


def act_on_rows(x: np.ndarray, m: np.ndarray, a_sys: System) -> np.ndarray:
    """``(x ⊗ I) m`` for an operator ``x`` on ``a_sys`` and a global-space
    ``m``, at O(D²·d): ``x`` on the ``a_sys`` index of the rows of ``m``."""
    perm = index_map(a_sys, a_sys.complement())
    rows = x @ m[..., perm, :].reshape(*m.shape[:-2], len(perm), -1)
    out = np.empty((*rows.shape[:-2], *m.shape[-2:]), dtype=np.complex128)
    out[..., perm, :] = rows.reshape(*rows.shape[:-2], *perm.shape, -1)
    return out


def tensor_operators(
    op_a: np.ndarray, a_sys: System, op_b: np.ndarray, b_sys: System
) -> np.ndarray:
    """Operator ``op_a ⊗ op_b`` on the union, in its canonical basis."""
    op_a = as_complex_matrix(op_a, a_sys.dim)
    op_b = as_complex_matrix(op_b, b_sys.dim)
    perm = index_map(a_sys, b_sys).reshape(-1)
    grouped = op_a[..., :, None, :, None] * op_b[..., None, :, None, :]  # np.kron, batched
    batch = grouped.shape[:-4]
    out = np.empty((*batch, perm.size, perm.size), dtype=np.complex128)
    out[..., perm[:, None], perm] = grouped.reshape(*batch, perm.size, perm.size)
    return out


def product_of_operations(u: UnitaryOperator, v: UnitaryOperator) -> UnitaryOperator:
    """The joint operation ``u x v`` on the union of two disjoint systems."""
    matrix = tensor_operators(u.matrix, u.system, v.matrix, v.system)
    return UnitaryOperator(matrix, u.system.union(v.system))


def partial_trace(matrix: np.ndarray, system: System, traced: System) -> np.ndarray:
    """Trace an operator on ``system`` over the atoms of ``traced``."""
    if not traced.is_subsystem_of(system):
        raise NotSubsystem(f"{traced} is not contained in {system}")
    matrix = as_complex_matrix(matrix, system.dim)
    keep = system.difference(traced)
    perm = index_map(keep, traced).reshape(-1)
    grouped = matrix[..., perm[:, None], perm].reshape(
        *matrix.shape[:-2], keep.dim, traced.dim, keep.dim, traced.dim
    )
    return np.trace(grouped, axis1=-3, axis2=-1)


def phenomenal_partial_trace(rho: DensityOperator, traced: System) -> DensityOperator:
    """Reduced state of ``rho`` after discarding the atoms of ``traced``."""
    reduced = partial_trace(rho.matrix, rho.system, traced)
    return DensityOperator(reduced, rho.system.difference(traced))


# ---------------------------------------------------------------------------
# Random inputs for law checks.  All randomness flows through an explicit
# numpy Generator so that runs are reproducible.  Given one generator per
# batched trial, a sampler stacks one sample from each, as a lone trial draws.
# ---------------------------------------------------------------------------

Rng = "np.random.Generator | Sequence[np.random.Generator]"  # a string, so importing does not load numpy.random


def draw_each(rng: Rng, draw: Callable[[np.random.Generator], np.ndarray]) -> np.ndarray:
    """``draw(rng)``; for a sequence of generators, the stack of ``draw(g)``."""
    if isinstance(rng, np.random.Generator):
        return draw(rng)
    return np.array([draw(g) for g in rng])


def _ginibre(rng: Rng, *shape: int) -> np.ndarray:
    """``standard_normal(shape) + 1j * standard_normal(shape)`` per generator, from one draw of both parts."""
    re, im = draw_each(rng, lambda g: g.standard_normal((2, *shape))).swapaxes(0, -1 - len(shape))
    return re + 1j * im


def haar_random_unitary(dim: int, rng: Rng) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the
    R diagonal phase-normalized (Mezzadri 2007); one stacked QR per batch."""
    if dim < 1:
        raise ValidationError(f"dimension must be >= 1, got {dim}")
    q, r = np.linalg.qr(_ginibre(rng, dim, dim))
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[..., None, :]


def haar_unitary(system: System, rng: Rng) -> UnitaryOperator:
    return UnitaryOperator(haar_random_unitary(system.dim, rng), system)


def random_pure_state(dim: int, rng: Rng) -> np.ndarray:
    """A Haar-random unit vector."""
    vec = _ginibre(rng, dim)
    return vec / np.linalg.norm(vec, axis=-1, keepdims=True)


def random_density_matrix(dim: int, rng: Rng) -> np.ndarray:
    """A random mixed state: normalized ``G G†`` for a square Ginibre ``G``."""
    g = _ginibre(rng, dim, dim)
    rho = g @ dagger(g)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


# ---------------------------------------------------------------------------
# Named gates used by circuit files and demonstrations (qubit conventions,
# two-atom gates in control-first row-major order).
# ---------------------------------------------------------------------------

_SQ2 = 1.0 / np.sqrt(2.0)

GATES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=np.complex128),
    "S": np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=np.complex128),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
    ),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(np.complex128),
}

for _m in GATES.values():
    _m.flags.writeable = False
