"""Evolution matrices: the noumenal states of the model.

The noumenal state of a system ``A`` under a global operation ``W`` is the
grid ``[W]^A`` whose ``(i, j)`` entry is the global-space operator
``W† (|j><i| ⊗ I) W`` (identity padding on the complement of ``A``).  A grid
built from ``W`` (a W-grid) holds the ``D x D`` matrix ``w`` of ``W`` itself,
shared with its caller: with ``G_i`` the rows of ``w`` whose ``A`` index is
``i``, ``entry(i, j) = G_j† G_i``, formed on the first read of the dense
``(d, d, D, D)`` entries.  An action is ``[(U ⊗ I) W]^A`` and a partial trace
is ``[W]^(A∖B)``.  Other grids (from JSON, perturbed, dense-kernel results)
run the dense kernels.  Leading axes hold a batch of grids, one per law-suite
trial.

Three algebraic laws characterize such grids and are used as the consistency
gate for products of independently built states:

* conjugate pairing:   ``entry(i, j)† == entry(j, i)``
* operator products:   ``entry(i, j) entry(k, l) == δ_il entry(k, j)``
* trace completeness:  ``sum_i entry(i, i) == I``
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BasisMismatch,
    CompatibilityViolation,
    DimensionMismatch,
    NotGlobalOperator,
    NotOrthonormal,
    NotSubsystem,
    SystemMismatch,
)
from .lattice import System
from .linalg import (
    TOL_EQ,
    TOL_UNITARY,
    UnitaryOperator,
    act_on_rows,
    dagger,
    index_map,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    max_abs,
)

CANONICAL = "canonical"


class OperatorMatrix:
    """A raw ``d x d`` grid of ``D x D`` operators, or a batch of grids on one
    system; shape-checked only.  Its ``w`` is ``None``: only ``_of_w`` sets one."""

    __slots__ = ("system", "basis_tag", "w", "_entries")

    def __init__(self, system: System, entries: np.ndarray, basis_tag: str = CANONICAL):
        entries = np.ascontiguousarray(entries, dtype=np.complex128)
        d = system.dim
        big_d = system.lattice.global_dim
        if entries.shape[-4:] != (d, d, big_d, big_d):
            raise DimensionMismatch(
                f"grid shape {entries.shape} does not end in (d, d, D, D) = "
                f"{(d, d, big_d, big_d)} for system {system}"
            )
        entries.flags.writeable = False
        self.system, self.basis_tag, self.w, self._entries = system, basis_tag, None, entries

    @property
    def entries(self) -> np.ndarray:
        """The read-only dense grid; a W-grid forms it from its system's rows of ``w`` on the first read and keeps it."""
        if self._entries is None:
            self._entries = _gram(np.take(self.w, index_map(self.system, self.system.complement()), axis=-2))
        return self._entries

    @property
    def grid_dim(self) -> int:
        return self.system.dim

    @property
    def global_dim(self) -> int:
        return self.system.lattice.global_dim

    def entry(self, i: int, j: int) -> np.ndarray:
        """The operator at grid position ``(i, j)`` (a read-only view)."""
        return self.entries[..., i, j, :, :]

    def to_json(self) -> dict:
        return {
            "system": list(self.system.atom_ids),
            "basis_tag": self.basis_tag,
            "d": self.grid_dim,
            "D": self.global_dim,
            "entries": matrix_to_json(self.entries),
        }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(system={self.system}, d={self.grid_dim}, "
            f"D={self.global_dim}, basis_tag={self.basis_tag!r})"
        )


class EvolutionMatrix(OperatorMatrix):
    """An operator grid satisfying the evolution-matrix consistency laws.

    Exactly two kinds exist: a grid that passed :func:`consistency_check` (the
    constructor, :meth:`from_json`), or a W-grid ``[W]^A`` (:meth:`_of_w`), valid
    by construction.  Every dense-kernel result is a raw :class:`OperatorMatrix`.
    """

    def __init__(self, system: System, entries: np.ndarray, basis_tag: str = CANONICAL):
        super().__init__(system, entries, basis_tag)
        report = consistency_check(self)
        if not report.ok:
            raise CompatibilityViolation(f"grid fails the evolution-matrix laws: {report.residuals()}")

    @classmethod
    def _of_w(cls, system: System, w: np.ndarray, basis_tag: str) -> "EvolutionMatrix":
        """The grid ``[W]^A`` of ``system``, holding the matrix ``w`` (``(..., D, D)``) of ``W`` read-only."""
        grid = cls.__new__(cls)
        w.flags.writeable = False
        grid.system, grid.basis_tag, grid.w, grid._entries = system, basis_tag, w, None
        return grid

    @classmethod
    def from_json(cls, lattice, payload: dict) -> "EvolutionMatrix":
        system = lattice.system(payload["system"])
        entries = matrix_from_json(payload["entries"], rank=4)
        return cls(system, entries, payload.get("basis_tag", CANONICAL))


@dataclass(frozen=True)
class ConsistencyReport:
    """Residuals of the three evolution-matrix laws for one grid, or arrays of
    them for a batch."""

    pairing_residual: float | np.ndarray
    product_residual: float | np.ndarray
    trace_residual: float | np.ndarray

    @property
    def ok(self) -> bool:
        """Whether every grid passes all three laws within ``TOL_EQ``."""
        worst = np.maximum(np.maximum(self.pairing_residual, self.product_residual), self.trace_residual)
        return bool(np.all(worst <= TOL_EQ))

    def residuals(self) -> dict:
        return {
            "pairing": np.asarray(self.pairing_residual).tolist(),
            "product": np.asarray(self.product_residual).tolist(),
            "trace": np.asarray(self.trace_residual).tolist(),
        }


# Each residual builds its grids in place and drops them in turn: one temporary grid at a time.

def pairing_residual(m: OperatorMatrix) -> float | np.ndarray:
    """Largest ``|entry(j, i)† - entry(i, j)|`` of a grid (one per grid of a batch)."""
    e = m.entries
    pairing = np.conjugate(np.swapaxes(np.swapaxes(e, -4, -3), -2, -1), out=np.empty_like(e))
    return max_abs(np.subtract(pairing, e, out=pairing), 4)


def product_residual(m: OperatorMatrix) -> float | np.ndarray:
    """Largest residual of the product law over all ``d^4`` index quadruples.

    The law holds exactly when its generators ``e(i,j) = e(0,j) e(i,0)`` and
    ``e(i,0) e(0,j) = δ_ij e(0,0)`` do, so ``2 d^2`` operator products check
    it at every grid size.
    """
    e = m.entries
    d = m.grid_dim
    first_row, first_col = e[..., :1, :, :, :], e[..., :, :1, :, :]
    product = first_row @ first_col
    product = max_abs(np.subtract(product, e, out=product), 4)
    closure = first_col @ first_row
    closure[..., np.arange(d), np.arange(d), :, :] -= e[..., :1, 0, :, :]
    return np.maximum(product, max_abs(closure, 4))


def trace_residual(m: OperatorMatrix) -> float | np.ndarray:
    """Largest entry of ``sum_i entry(i, i) - I`` (one per grid of a batch)."""
    return max_abs(np.einsum("...iipq->...pq", m.entries) - np.eye(m.global_dim), 2)


def consistency_check(m: OperatorMatrix) -> ConsistencyReport:
    """Test a grid against the three evolution-matrix laws, exactly."""
    return ConsistencyReport(pairing_residual(m), product_residual(m), trace_residual(m))


# ---------------------------------------------------------------------------
# Construction and the noumenal operations.
# ---------------------------------------------------------------------------

def _gram(rows: np.ndarray) -> np.ndarray:
    """The read-only grid ``(i, j) -> rows_j† rows_i`` of row blocks ``(..., d, D/d, D)``."""
    entries = np.ascontiguousarray(dagger(rows))[..., None, :, :, :] @ rows[..., :, None, :, :]
    entries.flags.writeable = False
    return entries


def _conjugate(x: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """The grid ``(i, j) -> sum_kl x_ik entries[k, l] conj(x_jl)``.

    Two matmuls over the grid axes.  The second runs row by row in place,
    so besides the result only one grid row is alive at a time.
    """
    d = x.shape[-1]
    out = x @ entries.reshape(*entries.shape[:-4], d, -1)
    out = out.reshape(*out.shape[:-2], *entries.shape[-4:])
    x_conj = x.conj()
    for i in range(d):
        row = out[..., i, :, :, :]
        row[...] = (x_conj @ row.reshape(*row.shape[:-2], -1)).reshape(row.shape)
    return out


def _transform(x: np.ndarray, n: OperatorMatrix, basis_tag: str) -> OperatorMatrix:
    """``(i, j) -> sum_kl x_ik entry(k, l) conj(x_jl)``: ``[W]^A`` becomes ``[(x ⊗ I) W]^A``."""
    if n.w is not None:
        return EvolutionMatrix._of_w(n.system, act_on_rows(x, n.w, n.system), basis_tag)
    return OperatorMatrix(n.system, _conjugate(x, n.entries), basis_tag)


def from_global_unitary(w: UnitaryOperator, a_sys: System) -> EvolutionMatrix:
    """The noumenal state ``[W]^A`` of ``a_sys`` under global operation ``w``.

    Entry ``(i, j)`` is ``W† (|j><i| ⊗ I) W``.  Equivalently, with the rows
    of ``W`` grouped by the basis index of ``a_sys``, entry ``(i, j)`` is the
    (rows ``j``)† (rows ``i``) Gram block.  The grid holds ``w.matrix`` itself.
    """
    if not w.system.is_global:
        raise NotGlobalOperator(f"operation acts on {w.system}, not the global system")
    return EvolutionMatrix._of_w(a_sys, w.matrix, CANONICAL)


def identity_evolution(a_sys: System) -> EvolutionMatrix:
    """``[I]^A``: the noumenal state of ``a_sys`` before any evolution."""
    lattice = a_sys.lattice
    eye = UnitaryOperator(np.eye(lattice.global_dim, dtype=np.complex128), lattice.global_system)
    return from_global_unitary(eye, a_sys)


def noumenal_action(u: UnitaryOperator, n: OperatorMatrix) -> OperatorMatrix:
    """Apply a local operation: entry ``(i,j) -> sum_kl U_ik N_kl conj(U_jl)``.

    ``u`` is read in the canonical basis, so ``n`` must be a canonical-basis grid.
    """
    if u.system != n.system:
        raise SystemMismatch(f"operation on {u.system} cannot act on a state of {n.system}")
    if n.basis_tag != CANONICAL:
        raise BasisMismatch(f"operation is in basis {CANONICAL!r} but state is in {n.basis_tag!r}")
    return _transform(u.matrix, n, CANONICAL)


def noumenal_partial_trace(n: OperatorMatrix, traced: System) -> OperatorMatrix:
    """Restrict a noumenal state to a subsystem by tracing out ``traced``.

    Entry ``(i, j)`` of the result is ``sum_k n.entry((i,k), (j,k))`` with
    indices merged under the canonical atom order.  Tracing the whole system
    yields the empty system's 1x1 grid (holding the identity).
    """
    if not traced.is_subsystem_of(n.system):
        raise NotSubsystem(f"{traced} is not contained in {n.system}")
    if n.basis_tag != CANONICAL:
        raise BasisMismatch("partial traces are defined on canonical-basis grids")
    keep = n.system.difference(traced)
    if n.w is not None:  # [W]^A traced over B is [W]^(A∖B)
        return EvolutionMatrix._of_w(keep, n.w, CANONICAL)
    perm = index_map(keep, traced)
    *batch, d, _, big_d, _ = n.entries.shape
    flat = n.entries.reshape(*batch, d * d, big_d, big_d)
    rows = (perm[:, None] * d + perm).reshape(-1, traced.dim).T  # rows[k]: entries ((i,k), (j,k)) of flat grid axes
    out = flat.take(rows[0], axis=-3)
    out += 0.0  # -0.0 becomes +0.0, as in a sum that starts from zero
    for term_rows in rows[1:]:
        out += flat.take(term_rows, axis=-3)
    return OperatorMatrix(keep, out.reshape(*batch, keep.dim, keep.dim, big_d, big_d), CANONICAL)


def noumenal_product(na: OperatorMatrix, nb: OperatorMatrix, check: bool = True) -> OperatorMatrix:
    """Combine states of disjoint systems: entry ``((i,k),(j,l)) = N^A_ij N^B_kl``.

    The product of two compatible states (restrictions of one global
    evolution) obeys the laws; independently built inputs need not, so by
    default the result is gated through :func:`consistency_check` and
    rejected with ``CompatibilityViolation`` when the laws fail.  Either way
    it is a raw grid; pass ``check=False`` in trusted pipelines.
    """
    if na.basis_tag != nb.basis_tag:
        raise BasisMismatch(f"cannot combine grids in bases {na.basis_tag!r} and {nb.basis_tag!r}")
    perm = index_map(na.system, nb.system)  # also rejects overlapping systems
    union = na.system.union(nb.system)
    big_d = na.global_dim
    batch = np.broadcast_shapes(na.entries.shape[:-4], nb.entries.shape[:-4])
    out = np.empty((*batch, union.dim, union.dim, big_d, big_d), dtype=np.complex128)
    for i in range(na.grid_dim):  # entries ((i,k),(j,l)) = N^A_ij N^B_kl, one row i of A at a time
        out[..., perm[i, :, None, None], perm, :, :] = na.entries[..., i, None, :, None, :, :] @ nb.entries[..., :, None, :, :, :]
    result = OperatorMatrix(union, out, na.basis_tag)
    if check:
        report = consistency_check(result)
        if not report.ok:
            raise CompatibilityViolation(f"states on {na.system} and {nb.system} are not compatible: {report.residuals()}")
    return result


def noumenal_distance(n1: OperatorMatrix, n2: OperatorMatrix) -> float | np.ndarray:
    """Largest absolute entry difference between two grids on one system
    (one per grid of a batch)."""
    if n1.system != n2.system:
        raise SystemMismatch(f"cannot compare states of {n1.system} and {n2.system}")
    if n1.basis_tag != n2.basis_tag:
        raise BasisMismatch(f"cannot compare grids in bases {n1.basis_tag!r} and {n2.basis_tag!r}")
    shape = n1.entries.shape
    if n2.entries.shape != shape:
        raise DimensionMismatch(f"cannot compare grid batches of shapes {shape} and {n2.entries.shape}")
    rows1, rows2 = (n.entries.reshape(-1, *shape[-3:]) for n in (n1, n2))
    # At most d contiguous runs of grid rows: numpy needs no buffers, and a difference is a run.
    step = max(n1.grid_dim, -(-len(rows1) // n1.grid_dim))
    worst = np.empty(len(rows1))
    for k in range(0, len(rows1), step):
        np.abs(rows1[k : k + step] - rows2[k : k + step]).max(axis=(1, 2, 3), out=worst[k : k + step])
    return max_abs(worst.reshape(shape[:-3]), 1)


def noumenal_equal(n1: OperatorMatrix, n2: OperatorMatrix) -> bool:
    """Elementwise equality of two grids, or of every pair in two batches, within ``TOL_EQ``."""
    return bool(np.all(noumenal_distance(n1, n2) <= TOL_EQ))


# ---------------------------------------------------------------------------
# Change of basis.
# ---------------------------------------------------------------------------

def change_of_basis(n: OperatorMatrix, b_from: np.ndarray, b_to: np.ndarray, to_tag: str) -> OperatorMatrix:
    """Re-express a grid in another orthonormal basis of its system's space.

    ``b_from`` and ``b_to`` hold the basis vectors as columns, in canonical
    coordinates; ``b_from`` must be the basis the grid is currently indexed
    by.  Entry ``(k, l)`` of the result is ``sum_ij <k|i> entry(i,j) <j|l>``.
    ``to_tag`` names the target basis; pass ``"canonical"`` when mapping
    back.
    """
    d = n.grid_dim
    b_from = np.asarray(b_from, dtype=np.complex128)
    b_to = np.asarray(b_to, dtype=np.complex128)
    for name, basis in (("source", b_from), ("target", b_to)):
        if basis.shape[-2:] != (d, d):
            raise DimensionMismatch(f"{name} basis is {basis.shape}, expected {(d, d)}")
        if not is_unitary(basis):
            raise NotOrthonormal(f"{name} basis columns are not orthonormal")
    if n.basis_tag == CANONICAL and max_abs(b_from - np.eye(d)) > TOL_UNITARY:
        raise BasisMismatch("grid is canonical-basis but the source basis is not the identity")
    overlap = dagger(b_to) @ b_from  # <k|i>
    return _transform(overlap, n, to_tag)
