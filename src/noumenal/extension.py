"""Mixed-state lift: noumenal states anchored to a global reference state.

Pairing an evolution matrix with an explicit global density operator makes
the epimorphism onto *all* density operators (not just reduced pure states)
surjective.  The lifted operations act on the grid component and carry the
anchor through unchanged; the anchors of two factors must agree before they
can be combined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AnchorMismatch, SystemMismatch
from .evolution import (
    EvolutionMatrix,
    identity_evolution,
    noumenal_action,
    noumenal_partial_trace,
    noumenal_product,
)
from .lattice import System
from .linalg import TOL_EQ, DensityOperator, UnitaryOperator, matrix_from_json, matrix_to_json, max_abs, tensor_operators
from .phenomenal import phi


@dataclass(frozen=True, eq=False)
class ExtendedNoumenalState:
    """An evolution matrix together with its global anchor state."""

    n: EvolutionMatrix
    rho: DensityOperator

    def __post_init__(self) -> None:
        if not self.rho.system.is_global:
            raise SystemMismatch(f"anchor lives on {self.rho.system}, not the global system")

    @property
    def system(self) -> System:
        return self.n.system

    def to_json(self) -> dict:
        return {"noumenal": self.n.to_json(), "anchor_rho": matrix_to_json(self.rho.matrix)}

    @classmethod
    def from_json(cls, lattice, payload: dict) -> "ExtendedNoumenalState":
        n = EvolutionMatrix.from_json(lattice, payload["noumenal"])
        rho = DensityOperator(matrix_from_json(payload["anchor_rho"]), lattice.global_system)
        rho.validate_psd()
        return cls(n, rho)


def ext_action(u: UnitaryOperator, s: ExtendedNoumenalState) -> ExtendedNoumenalState:
    """Apply a local operation to the grid; the anchor is untouched."""
    return ExtendedNoumenalState(noumenal_action(u, s.n), s.rho)


def ext_trace(s: ExtendedNoumenalState, traced: System) -> ExtendedNoumenalState:
    """Restrict to a subsystem; the anchor is untouched."""
    return ExtendedNoumenalState(noumenal_partial_trace(s.n, traced), s.rho)


def ext_product(
    sa: ExtendedNoumenalState,
    sb: ExtendedNoumenalState,
    check: bool = True,
) -> ExtendedNoumenalState:
    """Combine lifted states of disjoint systems sharing one anchor."""
    anchor_gap = max_abs(sa.rho.matrix - sb.rho.matrix)
    if anchor_gap > TOL_EQ:
        raise AnchorMismatch(f"anchor states differ by {anchor_gap:.3g} > TOL_EQ")
    return ExtendedNoumenalState(noumenal_product(sa.n, sb.n, check=check), sa.rho)


def ext_epimorphism(s: ExtendedNoumenalState) -> DensityOperator:
    """Phenomenal state of a lifted noumenal state: ``phi_rho(N)``."""
    return phi(s.rho, s.n)


def mixed_state_witness(rho_a: DensityOperator) -> ExtendedNoumenalState:
    """A lifted state that the epimorphism sends exactly to ``rho_a``.

    Uses the identity grid anchored at ``rho_a ⊗ I/d`` with the maximally
    mixed state on the complementary atoms.
    """
    a_sys = rho_a.system
    rest = a_sys.complement()
    rest_state = np.eye(rest.dim, dtype=np.complex128) / rest.dim
    anchor_matrix = tensor_operators(rho_a.matrix, a_sys, rest_state, rest)
    anchor = DensityOperator(anchor_matrix, a_sys.lattice.global_system)
    return ExtendedNoumenalState(identity_evolution(a_sys), anchor)
