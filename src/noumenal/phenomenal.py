"""Phenomenal states and the map from noumenal states onto them.

The phenomenal state of a system is a density operator; operations act by
conjugation, ``U . rho = U rho U†``.  A fixed global reference state ``rho``
turns every noumenal state into a phenomenal one through

    phi_rho(N)_ij = tr(N_ij rho),

which for ``N = [W]^A`` agrees with the directly computed reduced state
``tr_rest(W rho W†)``.  The map is onto: any reachable reduced state has a
noumenal preimage, built here explicitly by completing a state-to-state
mapping into a full unitary.
"""

from __future__ import annotations

import numpy as np

from .errors import BasisMismatch, DimensionMismatch, SystemMismatch, ValidationError
from .evolution import CANONICAL, OperatorMatrix, noumenal_action, noumenal_partial_trace
from .lattice import System, SystemLattice
from .linalg import (
    DensityOperator,
    UnitaryOperator,
    dagger,
    max_abs,
    partial_trace,
)


def phenomenal_action(u: UnitaryOperator, rho: DensityOperator) -> DensityOperator:
    """Evolve a density operator: ``U rho U†``."""
    if u.system != rho.system:
        raise SystemMismatch(f"operation on {u.system} cannot act on a state of {rho.system}")
    return DensityOperator(u.matrix @ rho.matrix @ dagger(u.matrix), rho.system)


def phi_matrix(entries: np.ndarray, rho_matrix: np.ndarray) -> np.ndarray:
    """Raw epimorphism: the matrix with ``(i, j)`` entry ``tr(entries[i,j] rho)``."""
    rho_t = np.swapaxes(rho_matrix, -1, -2).reshape(*rho_matrix.shape[:-2], 1, -1, 1)
    return (entries.reshape(*entries.shape[:-2], -1) @ rho_t)[..., 0]


def phi(rho_ref: DensityOperator, n: OperatorMatrix) -> DensityOperator:
    """Phenomenal state determined by a noumenal state and a global reference.

    ``rho_ref`` must live on the global system and ``n`` must be in the
    canonical basis (convert first otherwise).
    """
    if not rho_ref.system.is_global:
        raise SystemMismatch(f"reference state lives on {rho_ref.system}, not the global system")
    if n.basis_tag != CANONICAL:
        raise BasisMismatch(
            f"grid is in basis {n.basis_tag!r}; convert to canonical before applying phi"
        )
    return DensityOperator(phi_matrix(n.entries, rho_ref.matrix), n.system)


def homomorphism_residual(
    rho_ref: DensityOperator, u: UnitaryOperator, n: OperatorMatrix
) -> float:
    """Max-abs of ``U . phi(N) - phi(U * N)``; zero for a true homomorphism."""
    via_phenomenal = phenomenal_action(u, phi(rho_ref, n))
    via_noumenal = phi(rho_ref, noumenal_action(u, n))
    return max_abs(via_phenomenal.matrix - via_noumenal.matrix, 2)


def trace_commutation_residual(
    rho_ref: DensityOperator, n: OperatorMatrix, traced: System
) -> float:
    """Max-abs of ``tr_B(phi(N)) - phi(tr_B(N))`` for ``B = traced``."""
    reduced_phenomenal = partial_trace(phi(rho_ref, n).matrix, n.system, traced)
    reduced_noumenal = phi(rho_ref, noumenal_partial_trace(n, traced))
    return max_abs(reduced_phenomenal - reduced_noumenal.matrix, 2)


# ---------------------------------------------------------------------------
# Concrete states and the surjectivity witness.
# ---------------------------------------------------------------------------

def basis_state_vector(system: System, digits) -> np.ndarray:
    """Unit vector ``|digits>`` with one digit per member atom (ascending)."""
    dims = system.atom_dims
    digits = tuple(digits)
    if len(digits) != len(dims):
        raise DimensionMismatch(f"need {len(dims)} digits for {system}, got {len(digits)}")
    for digit, dim in zip(digits, dims):
        if not 0 <= digit < dim:
            raise ValidationError(f"digit {digit} out of range for atom of dim {dim}")
    vec = np.zeros(system.dim, dtype=np.complex128)
    vec[np.ravel_multi_index(digits, dims)] = 1.0
    return vec


def pure_density(system: System, vector: np.ndarray) -> DensityOperator:
    """The pure state ``|v><v|`` of a unit vector."""
    vector = np.asarray(vector, dtype=np.complex128).reshape(-1)
    if vector.size != system.dim:
        raise DimensionMismatch(f"vector of length {vector.size} on system of dim {system.dim}")
    norm = np.linalg.norm(vector)
    if abs(norm - 1.0) > 1e-9:
        raise ValidationError(f"state vector has norm {norm:.6g}, expected 1")
    return DensityOperator(np.outer(vector, vector.conj()), system)


def default_anchor(lattice: SystemLattice) -> DensityOperator:
    """The all-zeros reference state ``|0...0><0...0|`` on the global system."""
    system = lattice.global_system
    return pure_density(system, basis_state_vector(system, (0,) * lattice.n_atoms))


def complete_orthonormal(vector: np.ndarray) -> np.ndarray:
    """A unitary whose first column is the normalized ``vector`` (one per
    vector of a stack).

    In closed form: ``-a H``, with ``H`` the Householder reflection that
    swaps ``-a e_0`` and ``v``, and ``a`` the phase of ``v[0]`` (1 where it
    is 0).  Its reflection vector ``v + a e_0`` has squared norm
    ``2 (1 + |v[0]|) >= 2``, so the completion is deterministic and stable.
    """
    v = np.asarray(vector, dtype=np.complex128)
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    phase = np.exp(1j * np.angle(v[..., :1]))
    u = v.copy()
    u[..., :1] += phase
    scale = 1.0 + np.abs(v[..., :1, None])  # half the squared norm of u
    reflection = np.eye(v.shape[-1]) - u[..., :, None] * u.conj()[..., None, :] / scale
    return -phase[..., None] * reflection


def unitary_mapping(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """A deterministic unitary sending the unit vector ``source`` to ``target``."""
    return complete_orthonormal(target) @ dagger(complete_orthonormal(source))


def surjectivity_witness(
    rho_ref: DensityOperator, global_target: np.ndarray
) -> UnitaryOperator:
    """A global operation ``W`` with ``W . rho_ref = |target><target|``.

    Requires a pure reference state; the witness maps its state vector onto
    ``global_target``, so tracing ``W rho_ref W†`` reproduces every reduced
    state of the target.
    """
    if not rho_ref.is_pure():
        raise ValidationError("surjectivity witness needs a pure reference state")
    # Principal eigenvector of a pure density matrix is its state vector.
    eigenvalues, eigenvectors = np.linalg.eigh(rho_ref.matrix)
    source = eigenvectors[:, int(np.argmax(eigenvalues))]
    return UnitaryOperator(unitary_mapping(source, global_target), rho_ref.system)
