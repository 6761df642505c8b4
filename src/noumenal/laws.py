"""Randomized verification of the model's algebraic laws.

Each registered law draws fresh random inputs per trial (global operations,
local operations, reference states, subsystem splits) from a seeded
generator, evaluates both sides of its equation, and reports the worst
elementwise residual.  Identical seeds give identical reports.

``inject_bug=True`` perturbs one entry of every grid built from a global
operation by ``1e-3``; this is a self-test of the harness and must make at
least the three grid-consistency laws fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoumenalError, SizeBoundExceeded
from .evolution import (
    CANONICAL,
    EvolutionMatrix,
    OperatorMatrix,
    change_of_basis,
    consistency_check,
    from_global_unitary,
    noumenal_action,
    noumenal_distance,
    noumenal_partial_trace,
    noumenal_product,
)
from .extension import (
    ExtendedNoumenalState,
    ext_epimorphism,
    ext_product,
    ext_trace,
    mixed_state_witness,
)
from .lattice import System, SystemLattice
from .linalg import (
    TOL_EQ,
    DensityOperator,
    UnitaryOperator,
    embed_operator,
    haar_random_unitary,
    haar_unitary,
    matrix_to_json,
    max_abs,
    partial_trace,
    product_of_operations,
    random_density_matrix,
    random_pure_state,
)
from .phenomenal import (
    default_anchor,
    homomorphism_residual,
    phenomenal_action,
    phi,
    surjectivity_witness,
    trace_commutation_residual,
)
from .reports import LawReport

#: Global-dimension cap for the law suite; grids cost d^2 D^2 entries each.
LAW_SUITE_MAX_DIM = 32

#: Size of the entry perturbation applied in bug-injection mode.
BUG_PERTURBATION = 1e-3


class _TrialContext:
    """Per-law random input factory; one seeded generator per law."""

    def __init__(self, lattice: SystemLattice, rng: np.random.Generator, inject_bug: bool):
        self.lattice = lattice
        self.rng = rng
        self.inject_bug = inject_bug

    # -- random structure ------------------------------------------------

    def random_subsystem(self, nonempty: bool = True, proper: bool = False) -> System:
        n = self.lattice.n_atoms
        full = (1 << n) - 1
        for _ in range(256):
            mask = int(self.rng.integers(0, full + 1))
            if nonempty and mask == 0:
                continue
            if proper and mask == full:
                continue
            return System(self.lattice, mask)
        return self.lattice.atom(0)

    def _labelled_masks(self, labels: int, parts: int) -> list[int]:
        """Draw one of ``labels`` labels per atom; the masks of labels ``0..parts-1``."""
        n = self.lattice.n_atoms
        drawn = self.rng.integers(0, labels, size=n)
        return [sum(1 << i for i in range(n) if drawn[i] == part) for part in range(parts)]

    def random_disjoint_pair(self) -> tuple[System, System]:
        if self.lattice.n_atoms < 2:
            return self.lattice.global_system, self.lattice.empty_system
        for _ in range(256):
            a_mask, b_mask = self._labelled_masks(3, 2)
            if a_mask and b_mask:
                return System(self.lattice, a_mask), System(self.lattice, b_mask)
        return self.lattice.atom(0), self.lattice.atom(1)

    def random_three_split(self) -> tuple[System, System, System]:
        return tuple(System(self.lattice, mask) for mask in self._labelled_masks(4, 3))

    # -- random operators and states --------------------------------------

    def haar_global(self) -> UnitaryOperator:
        return haar_unitary(self.lattice.global_system, self.rng)

    def haar_on(self, system: System) -> UnitaryOperator:
        return haar_unitary(system, self.rng)

    def global_density(self, pure: bool = False) -> DensityOperator:
        dim = self.lattice.global_dim
        if pure:
            vec = random_pure_state(dim, self.rng)
            matrix = np.outer(vec, vec.conj())
        else:
            matrix = random_density_matrix(dim, self.rng)
        return DensityOperator(matrix, self.lattice.global_system)

    def mixed_target(self, system: System, max_components: int = 4) -> DensityOperator:
        k = int(self.rng.integers(1, max_components + 1))
        weights = self.rng.random(k) + 0.05
        weights /= weights.sum()
        matrix = np.zeros((system.dim, system.dim), dtype=np.complex128)
        for weight in weights:
            vec = random_pure_state(system.dim, self.rng)
            matrix += weight * np.outer(vec, vec.conj())
        return DensityOperator(matrix, system)

    def evolution(self, w: UnitaryOperator, system: System) -> EvolutionMatrix:
        n = from_global_unitary(w, system)
        if self.inject_bug:
            entries = n.entries.copy()
            entries[0, 0, 0, 1] += BUG_PERTURBATION
            n = EvolutionMatrix._trusted(system, entries, CANONICAL)
        return n


@dataclass(frozen=True)
class Law:
    law_id: str
    description: str
    check: Callable[[_TrialContext], tuple[float, dict]]


# ---------------------------------------------------------------------------
# Noumenal product and partial trace.
# ---------------------------------------------------------------------------

def _restriction_law(residual):
    """A law check on a random joint grid of a disjoint pair ``a ∪ b``, its two
    restrictions and their unchecked product; ``residual(a, b, joint, left,
    right, product)`` computes the law's own residual from them."""

    def check(ctx: _TrialContext):
        a, b = ctx.random_disjoint_pair()
        w = ctx.haar_global()
        joint = ctx.evolution(w, a.union(b))
        left = noumenal_partial_trace(joint, b)
        right = noumenal_partial_trace(joint, a)
        product = noumenal_product(left, right, check=False)
        return residual(a, b, joint, left, right, product), {"w": w.matrix, "a": a, "b": b}

    return check


def _left_recovery(a, b, joint, left, right, product):
    return noumenal_distance(noumenal_partial_trace(product, b), left)


def _right_recovery(a, b, joint, left, right, product):
    return noumenal_distance(noumenal_partial_trace(product, a), right)


_law_product_trace_left = _restriction_law(_left_recovery)
_law_product_trace_right = _restriction_law(_right_recovery)
_law_unique_decomposition = _restriction_law(
    lambda *grids: max(_left_recovery(*grids), _right_recovery(*grids))
)
_law_trace_product_reconstruction = _restriction_law(
    lambda a, b, joint, left, right, product: noumenal_distance(product, joint)
)


def _law_partial_trace_via_global(ctx: _TrialContext):
    a, b = ctx.random_disjoint_pair()
    w = ctx.haar_global()
    reduced = noumenal_partial_trace(ctx.evolution(w, a.union(b)), b)
    return noumenal_distance(reduced, ctx.evolution(w, a)), {"w": w.matrix, "a": a, "b": b}


def _law_partial_trace_surjectivity(ctx: _TrialContext):
    a = ctx.random_subsystem()
    w = ctx.haar_global()
    target = ctx.evolution(w, a)
    witness = ctx.evolution(w, ctx.lattice.global_system)
    residual = noumenal_distance(noumenal_partial_trace(witness, a.complement()), target)
    return residual, {"w": w.matrix, "a": a}


def _law_partial_trace_composition(ctx: _TrialContext):
    a, b, c = ctx.random_three_split()
    w = ctx.haar_global()
    joint = ctx.evolution(w, a.union(b).union(c))
    stepwise = noumenal_partial_trace(noumenal_partial_trace(joint, c), b)
    direct = noumenal_partial_trace(joint, b.union(c))
    return noumenal_distance(stepwise, direct), {"w": w.matrix, "a": a, "b": b, "c": c}


def _law_product_via_global(ctx: _TrialContext):
    a, b = ctx.random_disjoint_pair()
    w = ctx.haar_global()
    product = noumenal_product(ctx.evolution(w, a), ctx.evolution(w, b), check=True)
    return noumenal_distance(product, ctx.evolution(w, a.union(b))), {
        "w": w.matrix,
        "a": a,
        "b": b,
    }


def _law_local_operations_factorize(ctx: _TrialContext):
    a, b = ctx.random_disjoint_pair()
    w = ctx.haar_global()
    left = ctx.evolution(w, a)
    right = ctx.evolution(w, b)
    u, v = ctx.haar_on(a), ctx.haar_on(b)
    joint_action = noumenal_action(
        product_of_operations(u, v), noumenal_product(left, right, check=False)
    )
    factorwise = noumenal_product(
        noumenal_action(u, left), noumenal_action(v, right), check=False
    )
    return noumenal_distance(joint_action, factorwise), {
        "w": w.matrix,
        "u": u.matrix,
        "v": v.matrix,
        "a": a,
        "b": b,
    }


# ---------------------------------------------------------------------------
# Locality.
# ---------------------------------------------------------------------------

def no_action_residual(
    joint: OperatorMatrix, u: UnitaryOperator, v: UnitaryOperator, b: System
) -> float:
    """Noumenal no-influence: acting with ``u x v`` on ``joint`` and tracing
    out ``b`` equals acting with ``u`` on the restriction."""
    both_applied = noumenal_action(product_of_operations(u, v), joint)
    return noumenal_distance(
        noumenal_partial_trace(both_applied, b),
        noumenal_action(u, noumenal_partial_trace(joint, b)),
    )


def no_signalling_residual(
    rho: DensityOperator, u: UnitaryOperator, v: UnitaryOperator, b: System
) -> float:
    """Phenomenal no-influence: the same law for a density operator."""
    evolved = phenomenal_action(product_of_operations(u, v), rho)
    lhs = partial_trace(evolved.matrix, rho.system, b)
    reduced = DensityOperator(partial_trace(rho.matrix, rho.system, b), u.system)
    return max_abs(lhs - phenomenal_action(u, reduced).matrix)


def _law_no_action_at_a_distance(ctx: _TrialContext):
    a, b = ctx.random_disjoint_pair()
    w = ctx.haar_global()
    joint = ctx.evolution(w, a.union(b))
    u, v = ctx.haar_on(a), ctx.haar_on(b)
    residual = no_action_residual(joint, u, v, b)
    return residual, {"w": w.matrix, "u": u.matrix, "v": v.matrix, "a": a, "b": b}


def _law_no_signalling(ctx: _TrialContext):
    a, b = ctx.random_disjoint_pair()
    ab = a.union(b)
    rho = DensityOperator(random_density_matrix(ab.dim, ctx.rng), ab)
    u, v = ctx.haar_on(a), ctx.haar_on(b)
    return no_signalling_residual(rho, u, v, b), {"rho": rho.matrix, "u": u.matrix, "v": v.matrix}


# ---------------------------------------------------------------------------
# Noumenal states and actions.
# ---------------------------------------------------------------------------

def _law_remote_unitary_invariance(ctx: _TrialContext):
    a = ctx.random_subsystem(nonempty=False)
    w = ctx.haar_global()
    v = ctx.haar_on(a.complement())
    moved = UnitaryOperator(
        embed_operator(v.matrix, v.system) @ w.matrix, ctx.lattice.global_system
    )
    residual = noumenal_distance(ctx.evolution(w, a), ctx.evolution(moved, a))
    return residual, {"w": w.matrix, "v": v.matrix, "a": a}


def _law_action_via_global(ctx: _TrialContext):
    a = ctx.random_subsystem()
    w = ctx.haar_global()
    u = ctx.haar_on(a)
    lifted = UnitaryOperator(
        embed_operator(u.matrix, a) @ w.matrix, ctx.lattice.global_system
    )
    residual = noumenal_distance(
        noumenal_action(u, ctx.evolution(w, a)), ctx.evolution(lifted, a)
    )
    return residual, {"w": w.matrix, "u": u.matrix, "a": a}


def _law_action_composition(ctx: _TrialContext):
    a = ctx.random_subsystem()
    w = ctx.haar_global()
    state = ctx.evolution(w, a)
    u, v = ctx.haar_on(a), ctx.haar_on(a)
    residual = noumenal_distance(
        noumenal_action(v.compose(u), state), noumenal_action(v, noumenal_action(u, state))
    )
    return residual, {"w": w.matrix, "u": u.matrix, "v": v.matrix, "a": a}


def _law_action_identity(ctx: _TrialContext):
    a = ctx.random_subsystem()
    w = ctx.haar_global()
    state = ctx.evolution(w, a)
    identity = UnitaryOperator(np.eye(a.dim, dtype=np.complex128), a)
    return noumenal_distance(noumenal_action(identity, state), state), {"w": w.matrix, "a": a}


# ---------------------------------------------------------------------------
# The epimorphism.
# ---------------------------------------------------------------------------

def _law_epimorphism_via_partial_trace(ctx: _TrialContext):
    a = ctx.random_subsystem(nonempty=False)
    w = ctx.haar_global()
    rho = ctx.global_density()
    via_grid = phi(rho, ctx.evolution(w, a))
    evolved = w.matrix @ rho.matrix @ w.matrix.conj().T
    direct = partial_trace(evolved, ctx.lattice.global_system, a.complement())
    return max_abs(via_grid.matrix - direct), {"w": w.matrix, "rho": rho.matrix, "a": a}


def _law_epimorphism_equivariance(ctx: _TrialContext):
    a = ctx.random_subsystem()
    w = ctx.haar_global()
    rho = ctx.global_density()
    u = ctx.haar_on(a)
    residual = homomorphism_residual(rho, u, ctx.evolution(w, a))
    return residual, {"w": w.matrix, "u": u.matrix, "rho": rho.matrix, "a": a}


def _law_epimorphism_trace_commutation(ctx: _TrialContext):
    a, b = ctx.random_disjoint_pair()
    w = ctx.haar_global()
    rho = ctx.global_density()
    residual = trace_commutation_residual(rho, ctx.evolution(w, a.union(b)), b)
    return residual, {"w": w.matrix, "rho": rho.matrix, "a": a, "b": b}


def _law_pure_anchor_stays_pure(ctx: _TrialContext):
    a = ctx.random_subsystem()
    w = ctx.haar_global()
    rho = ctx.global_density(pure=True)
    evolved = w.matrix @ rho.matrix @ w.matrix.conj().T
    purity_gap = abs(np.trace(evolved @ evolved).real - 1.0)
    reduced = partial_trace(evolved, ctx.lattice.global_system, a.complement())
    via_grid = phi(rho, ctx.evolution(w, a))
    return max(purity_gap, max_abs(via_grid.matrix - reduced)), {
        "w": w.matrix,
        "rho": rho.matrix,
        "a": a,
    }


def _law_pure_surjectivity(ctx: _TrialContext):
    a = ctx.random_subsystem()
    anchor = default_anchor(ctx.lattice)
    target_vec = random_pure_state(ctx.lattice.global_dim, ctx.rng)
    target_global = np.outer(target_vec, target_vec.conj())
    target_reduced = partial_trace(target_global, ctx.lattice.global_system, a.complement())
    w = surjectivity_witness(anchor, target_vec)
    reached = phi(anchor, ctx.evolution(w, a))
    return max_abs(reached.matrix - target_reduced), {"target": target_vec, "a": a}


def _law_mixed_surjectivity(ctx: _TrialContext):
    a = ctx.random_subsystem()
    target = ctx.mixed_target(a)
    reached = ext_epimorphism(mixed_state_witness(target))
    return max_abs(reached.matrix - target.matrix), {"target": target.matrix, "a": a}


# ---------------------------------------------------------------------------
# Lifted (anchored) operations.
# ---------------------------------------------------------------------------

def _law_extended_reconstruction(ctx: _TrialContext):
    a, b = ctx.random_disjoint_pair()
    w = ctx.haar_global()
    rho = ctx.global_density()
    state = ExtendedNoumenalState(ctx.evolution(w, a.union(b)), rho)
    rebuilt = ext_product(ext_trace(state, b), ext_trace(state, a), check=False)
    residual = max(
        noumenal_distance(rebuilt.n, state.n), max_abs(rebuilt.rho.matrix - state.rho.matrix)
    )
    return residual, {"w": w.matrix, "rho": rho.matrix, "a": a, "b": b}


def _law_extended_trace_commutation(ctx: _TrialContext):
    a, b = ctx.random_disjoint_pair()
    w = ctx.haar_global()
    rho = ctx.global_density()
    state = ExtendedNoumenalState(ctx.evolution(w, a.union(b)), rho)
    lhs = partial_trace(ext_epimorphism(state).matrix, a.union(b), b)
    rhs = ext_epimorphism(ext_trace(state, b))
    return max_abs(lhs - rhs.matrix), {"w": w.matrix, "rho": rho.matrix, "a": a, "b": b}


# ---------------------------------------------------------------------------
# Change of basis.
# ---------------------------------------------------------------------------

def _law_basis_change_direct(ctx: _TrialContext):
    a = ctx.random_subsystem()
    w = ctx.haar_global()
    basis = haar_random_unitary(a.dim, ctx.rng)
    state = ctx.evolution(w, a)
    eye = np.eye(a.dim)
    transformed = change_of_basis(state, eye, basis, "target")
    direct = np.empty_like(state.entries)
    for k in range(a.dim):
        for l in range(a.dim):
            flip = np.outer(basis[:, l], basis[:, k].conj())
            embedded = embed_operator(flip, a)
            direct[k, l] = w.matrix.conj().T @ embedded @ w.matrix
    return max_abs(transformed.entries - direct), {"w": w.matrix, "basis": basis, "a": a}


def _law_basis_change_identity(ctx: _TrialContext):
    a = ctx.random_subsystem()
    w = ctx.haar_global()
    state = ctx.evolution(w, a)
    eye = np.eye(a.dim)
    return noumenal_distance(change_of_basis(state, eye, eye, CANONICAL), state), {
        "w": w.matrix,
        "a": a,
    }


def _law_basis_change_composition(ctx: _TrialContext):
    a = ctx.random_subsystem()
    w = ctx.haar_global()
    state = ctx.evolution(w, a)
    eye = np.eye(a.dim)
    b2 = haar_random_unitary(a.dim, ctx.rng)
    b3 = haar_random_unitary(a.dim, ctx.rng)
    chained = change_of_basis(change_of_basis(state, eye, b2, "mid"), b2, b3, "end")
    direct = change_of_basis(state, eye, b3, "end")
    return noumenal_distance(chained, direct), {"w": w.matrix, "b2": b2, "b3": b3, "a": a}


def _law_basis_change_round_trip(ctx: _TrialContext):
    a = ctx.random_subsystem()
    w = ctx.haar_global()
    state = ctx.evolution(w, a)
    eye = np.eye(a.dim)
    b2 = haar_random_unitary(a.dim, ctx.rng)
    round_trip = change_of_basis(change_of_basis(state, eye, b2, "mid"), b2, eye, CANONICAL)
    return noumenal_distance(round_trip, state), {"w": w.matrix, "b2": b2, "a": a}


# ---------------------------------------------------------------------------
# Grid consistency (the defining signature of evolution matrices).
# ---------------------------------------------------------------------------

def _law_grid_conjugate_pairing(ctx: _TrialContext):
    a = ctx.random_subsystem()
    w = ctx.haar_global()
    report = consistency_check(ctx.evolution(w, a))
    return report.pairing_residual, {"w": w.matrix, "a": a}


def _law_grid_operator_products(ctx: _TrialContext):
    a = ctx.random_subsystem()
    w = ctx.haar_global()
    report = consistency_check(ctx.evolution(w, a))
    return report.product_residual, {"w": w.matrix, "a": a}


def _law_grid_trace_completeness(ctx: _TrialContext):
    a = ctx.random_subsystem()
    w = ctx.haar_global()
    report = consistency_check(ctx.evolution(w, a))
    return report.trace_residual, {"w": w.matrix, "a": a}


LAWS: tuple[Law, ...] = (
    Law("grid_conjugate_pairing", "grid entries pair up as conjugate transposes", _law_grid_conjugate_pairing),
    Law("grid_operator_products", "grid entries multiply with the index-contraction rule", _law_grid_operator_products),
    Law("grid_trace_completeness", "diagonal grid entries sum to the identity", _law_grid_trace_completeness),
    Law("remote_unitary_invariance", "operations on the complement leave the local state unchanged", _law_remote_unitary_invariance),
    Law("action_via_global", "acting locally equals rebuilding from the lifted global operation", _law_action_via_global),
    Law("action_composition", "acting with a composite equals acting in sequence", _law_action_composition),
    Law("action_identity", "the identity operation leaves states unchanged", _law_action_identity),
    Law("partial_trace_via_global", "restriction of a joint state equals the directly built state", _law_partial_trace_via_global),
    Law("partial_trace_surjectivity", "every local state is the restriction of a joint state", _law_partial_trace_surjectivity),
    Law("partial_trace_composition", "tracing out in stages equals tracing out at once", _law_partial_trace_composition),
    Law("product_via_global", "combining both restrictions rebuilds the joint state", _law_product_via_global),
    Law("product_trace_left_recovery", "tracing a product recovers its left factor", _law_product_trace_left),
    Law("product_trace_right_recovery", "tracing a product recovers its right factor", _law_product_trace_right),
    Law("unique_decomposition", "a product state determines both factors", _law_unique_decomposition),
    Law("trace_product_reconstruction", "restrictions recombine to the joint state", _law_trace_product_reconstruction),
    Law("local_operations_factorize", "a joint local operation acts factor by factor", _law_local_operations_factorize),
    Law("no_action_at_a_distance", "remote operations leave the local noumenal state unchanged", _law_no_action_at_a_distance),
    Law("no_signalling", "remote operations leave the local phenomenal state unchanged", _law_no_signalling),
    Law("epimorphism_via_partial_trace", "phi agrees with the directly reduced evolved state", _law_epimorphism_via_partial_trace),
    Law("epimorphism_equivariance", "phi intertwines the noumenal and phenomenal actions", _law_epimorphism_equivariance),
    Law("epimorphism_trace_commutation", "phi commutes with partial traces", _law_epimorphism_trace_commutation),
    Law("pure_anchor_stays_pure", "a pure reference stays pure and reduces consistently", _law_pure_anchor_stays_pure),
    Law("pure_surjectivity", "every reduced pure state is reached from the reference", _law_pure_surjectivity),
    Law("mixed_surjectivity", "every mixed state is reached by an anchored identity state", _law_mixed_surjectivity),
    Law("extended_reconstruction", "anchored restrictions recombine to the anchored joint state", _law_extended_reconstruction),
    Law("extended_trace_commutation", "the anchored epimorphism commutes with partial traces", _law_extended_trace_commutation),
    Law("basis_change_direct_construction", "re-expressing a grid matches building it in the new basis", _law_basis_change_direct),
    Law("basis_change_identity", "changing a basis to itself is the identity", _law_basis_change_identity),
    Law("basis_change_composition", "basis changes compose", _law_basis_change_composition),
    Law("basis_change_round_trip", "a basis round trip is the identity", _law_basis_change_round_trip),
)


def _jsonify_value(value):
    if isinstance(value, System):
        return list(value.atom_ids)
    if isinstance(value, np.ndarray):
        return matrix_to_json(value)
    return value


def run_law_suite(
    lattice: SystemLattice,
    trials: int,
    seed: int,
    tol: float = TOL_EQ,
    inject_bug: bool = False,
) -> list[LawReport]:
    """Run every registered law ``trials`` times and collect reports.

    Deterministic for a given ``seed``: each law gets its own generator
    spawned from one root sequence.  ``trials=0`` marks every law skipped.
    """
    if lattice.global_dim > LAW_SUITE_MAX_DIM:
        raise SizeBoundExceeded(
            f"law suite is limited to global dimension {LAW_SUITE_MAX_DIM}, "
            f"got {lattice.global_dim}"
        )
    children = np.random.SeedSequence(seed).spawn(len(LAWS))
    reports = []
    for law, child in zip(LAWS, children):
        if trials <= 0:
            reports.append(LawReport(law.law_id, law.description, 0, None, None, seed))
            continue
        ctx = _TrialContext(lattice, np.random.default_rng(child), inject_bug)
        worst = -1.0
        worst_payload: dict = {}
        worst_trial = 0
        for trial in range(trials):
            try:
                residual, payload = law.check(ctx)
                residual = float(residual)
                if math.isnan(residual):
                    residual = math.inf  # a NaN never compares worse, so rank it worst
            except NoumenalError as exc:
                residual, payload = float("inf"), {"error": f"{type(exc).__name__}: {exc}"}
            if residual > worst:
                worst, worst_payload, worst_trial = residual, payload, trial
        passed = bool(worst <= tol)
        counterexample = None
        if not passed:
            counterexample = {"trial": worst_trial}
            counterexample.update({k: _jsonify_value(v) for k, v in worst_payload.items()})
        reports.append(
            LawReport(law.law_id, law.description, trials, worst, passed, seed, counterexample)
        )
    return reports
