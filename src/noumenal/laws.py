"""Randomized verification of the model's algebraic laws.

Each registered law draws fresh random inputs per trial (subsystem splits,
global operations, local operations, reference states), evaluates both
sides of its equation, and reports the worst elementwise residual.  Trial
``k`` of law ``i`` draws from its own generator, seeded by ``(seed, i, k)``,
so its inputs do not depend on ``trials`` and ``run_law_suite`` can replay
it alone.  Trials that drew the same systems are evaluated together, as one
batch of stacked inputs; a trial's residual is the same in any batch.  A law
draws its operators and states through :class:`_TrialContext`, which records
each draw under its name, and returns only residuals; a failing law's
counterexample holds its worst trial's systems and every named draw.  A grid
built from a global operation runs the factor kernels; a side that must run
the dense ones says so with :func:`_raw`.  ``tests/test_kernel_coverage.py``
holds the table of the kernel forms each law runs.

``inject_bug=True`` perturbs one entry of every grid built from a global
operation by ``1e-3``; this is a self-test of the harness and must make at
least the three grid-consistency laws fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial, reduce
from typing import Callable, Sequence

import numpy as np

from .errors import NoumenalError, SizeBoundExceeded, ValidationError
from .evolution import (
    CANONICAL,
    OperatorMatrix,
    change_of_basis,
    from_global_unitary,
    noumenal_action,
    noumenal_distance,
    noumenal_partial_trace,
    noumenal_product,
    pairing_residual,
    product_residual,
    trace_residual,
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
    dagger,
    draw_each,
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

#: Cap on one batch's grid bytes on the union of its systems, ``B·d²·D²·16`` (at least one trial): six global grids
#: at D = 8.  Their ~3.3 grids alive at once outgrow glibc's trim threshold, so the heap is trimmed and regrown (1.3k–3.5k
#: minor faults per ``verify 2x2x2 --trials 100``, ~10 at 256 KiB) at no cost harness pairs saw.  512 KiB: +1.6 MB RSS.
BATCH_GRID_BYTES = 384 * 1024

#: Trials whose generators are alive at once; batches form within a chunk.
TRIAL_CHUNK = 256


def require_law_suite_dim(lattice: SystemLattice, what: str) -> None:
    """Refuse a lattice above :data:`LAW_SUITE_MAX_DIM` for ``what``: the law suite, or the no-signalling demo."""
    if lattice.global_dim > LAW_SUITE_MAX_DIM:
        raise SizeBoundExceeded(f"{what} is limited to global dimension {LAW_SUITE_MAX_DIM}, got {lattice.global_dim}")


def _subsystem(lattice: SystemLattice, rng: np.random.Generator, low: int = 1) -> tuple[System]:
    """A uniformly drawn system; non-empty unless ``low`` is 0."""
    return (System(lattice, int(rng.integers(low, 1 << lattice.n_atoms))),)


def _complement_pair(lattice: SystemLattice, rng: np.random.Generator) -> tuple[System, System]:
    """A non-empty system and its complement."""
    (a,) = _subsystem(lattice, rng)
    return a, a.complement()


@cache
def _mask_table(n_atoms: int, labels: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """Per code with one base-``labels`` digit per atom, the masks of digits ``0..parts-1``."""
    digits = np.arange(labels**n_atoms)[:, None, None] // labels ** np.arange(n_atoms) % labels
    return tuple(map(tuple, ((digits == np.arange(parts)[:, None]) << np.arange(n_atoms)).sum(-1).tolist()))


def _labelled_masks(lattice: SystemLattice, rng: np.random.Generator, labels: int, parts: int) -> tuple[int, ...]:
    """Draw one of ``labels`` labels per atom; the masks of labels ``0..parts-1``."""
    return _mask_table(lattice.n_atoms, labels, parts)[int(rng.integers(labels**lattice.n_atoms))]


def _disjoint_pair(lattice: SystemLattice, rng: np.random.Generator) -> tuple[System, System]:
    if lattice.n_atoms < 2:
        return lattice.global_system, lattice.empty_system
    for _ in range(256):
        a_mask, b_mask = _labelled_masks(lattice, rng, 3, 2)
        if a_mask and b_mask:
            return System(lattice, a_mask), System(lattice, b_mask)
    return lattice.atom(0), lattice.atom(1)


def _three_split(lattice: SystemLattice, rng: np.random.Generator) -> tuple[System, ...]:
    return tuple(System(lattice, mask) for mask in _labelled_masks(lattice, rng, 4, 3))


def _raw(n: OperatorMatrix) -> OperatorMatrix:
    """A grid's dense entries as a raw grid, whose operations run the dense kernels.  A law whose two sides
    would both run the factor kernels passes one side's input through here, so that the sides run different ones."""
    return OperatorMatrix(n.system, n.entries, n.basis_tag)


def _projector(vec: np.ndarray) -> np.ndarray:
    return vec[..., :, None] * vec.conj()[..., None, :]


class _TrialContext:
    """Random inputs for a batch of trials, ``rngs`` holding one generator per
    trial.  Every draw takes one sample from each generator, in the order a
    lone trial would draw it, and stacks them on a leading batch axis.
    ``drawn`` records each draw's stacked matrix under its name: ``w`` for the
    global operation, ``rho`` for a state, ``target`` for a surjectivity
    target, and the name a law gives a local operation or basis."""

    def __init__(self, lattice: SystemLattice, rngs: list, inject_bug: bool):
        self.lattice = lattice
        self.rngs = rngs
        self.inject_bug = inject_bug
        self.drawn: dict[str, np.ndarray] = {}

    def _record(self, name: str, draw):
        self.drawn[name] = getattr(draw, "matrix", draw)
        return draw

    def haar_global(self) -> UnitaryOperator:
        return self.haar_on("w", self.lattice.global_system)

    def haar_on(self, name: str, system: System) -> UnitaryOperator:
        return self._record(name, haar_unitary(system, self.rngs))

    def basis(self, name: str, system: System) -> np.ndarray:
        """A Haar-random basis of ``system``: the columns of a unitary."""
        return self._record(name, haar_random_unitary(system.dim, self.rngs))

    def density(self, system: System, pure: bool = False) -> DensityOperator:
        dim = system.dim
        matrix = _projector(random_pure_state(dim, self.rngs)) if pure else random_density_matrix(dim, self.rngs)
        return self._record("rho", DensityOperator(matrix, system))

    def pure_target(self) -> np.ndarray:
        """A Haar-random global state vector."""
        return self._record("target", random_pure_state(self.lattice.global_dim, self.rngs))

    def mixed_target(self, system: System) -> DensityOperator:
        """A mixture of one to four random pure states."""
        def draw(rng: np.random.Generator) -> np.ndarray:
            k = int(rng.integers(1, 5))
            weights = rng.random(k) + 0.05
            weights /= weights.sum()
            matrix = np.zeros((system.dim, system.dim), dtype=np.complex128)
            for weight in weights:
                matrix += weight * _projector(random_pure_state(system.dim, rng))
            return matrix

        return self._record("target", DensityOperator(draw_each(self.rngs, draw), system))

    def evolution(self, w: UnitaryOperator, system: System) -> OperatorMatrix:
        n = from_global_unitary(w, system)
        if self.inject_bug:
            entries = n.entries.copy()
            entries[..., 0, 0, 0, 1] += BUG_PERTURBATION
            n = OperatorMatrix(system, entries)
        return n


@dataclass(frozen=True)
class Law:
    """``check(ctx, *systems)`` evaluates a batch of trials that each first
    drew ``systems(lattice, rng)``; it draws their operators and states
    through ``ctx`` and returns only their residuals (a float counts for every
    trial).  A counterexample names the systems ``a``, ``b``, ``c`` in order,
    then the context's draws."""

    law_id: str
    description: str
    check: Callable[..., float | np.ndarray]
    systems: Callable[[SystemLattice, np.random.Generator], tuple] = lambda lattice, rng: ()


# ---------------------------------------------------------------------------
# Noumenal product and partial trace.
# ---------------------------------------------------------------------------

def _restriction_law(residual):
    """A law check on a random joint grid of a disjoint pair ``a ∪ b``, its two
    restrictions and their unchecked product; ``residual(a, b, joint, left,
    right, product)`` computes the law's own residual from them."""

    def check(ctx: _TrialContext, a: System, b: System):
        joint = ctx.evolution(ctx.haar_global(), a.union(b))
        left = noumenal_partial_trace(joint, b)
        right = noumenal_partial_trace(joint, a)
        product = noumenal_product(left, right, check=False)
        return residual(a, b, joint, left, right, product)

    return check


def _left_recovery(a, b, joint, left, right, product):
    return noumenal_distance(noumenal_partial_trace(product, b), left)


def _right_recovery(a, b, joint, left, right, product):
    return noumenal_distance(noumenal_partial_trace(product, a), right)


_law_product_trace_left = _restriction_law(_left_recovery)
_law_product_trace_right = _restriction_law(_right_recovery)
_law_unique_decomposition = _restriction_law(
    lambda *grids: np.maximum(_left_recovery(*grids), _right_recovery(*grids))
)
_law_trace_product_reconstruction = _restriction_law(
    lambda a, b, joint, left, right, product: noumenal_distance(product, joint)
)


def _law_partial_trace_via_global(ctx: _TrialContext, a: System, b: System):
    w = ctx.haar_global()
    reduced = noumenal_partial_trace(_raw(ctx.evolution(w, a.union(b))), b)
    return noumenal_distance(reduced, ctx.evolution(w, a))


def _law_partial_trace_composition(ctx: _TrialContext, a: System, b: System, c: System):
    joint = ctx.evolution(ctx.haar_global(), a.union(b).union(c))
    stepwise = noumenal_partial_trace(noumenal_partial_trace(joint, c), b)
    return noumenal_distance(stepwise, noumenal_partial_trace(_raw(joint), b.union(c)))


def _law_product_via_global(ctx: _TrialContext, a: System, b: System):
    w = ctx.haar_global()
    product = noumenal_product(ctx.evolution(w, a), ctx.evolution(w, b), check=True)
    return noumenal_distance(product, ctx.evolution(w, a.union(b)))


def _law_local_operations_factorize(ctx: _TrialContext, a: System, b: System):
    w = ctx.haar_global()
    left = ctx.evolution(w, a)
    right = ctx.evolution(w, b)
    u, v = ctx.haar_on("u", a), ctx.haar_on("v", b)
    joint_action = noumenal_action(product_of_operations(u, v), noumenal_product(left, right, check=False))
    factorwise = noumenal_product(noumenal_action(u, left), noumenal_action(v, right), check=False)
    return noumenal_distance(joint_action, factorwise)


# ---------------------------------------------------------------------------
# Locality.
# ---------------------------------------------------------------------------

def no_action_residual(joint: OperatorMatrix, u: UnitaryOperator, v: UnitaryOperator, b: System) -> float | np.ndarray:
    """Noumenal no-influence: acting with ``u x v`` on ``joint`` and tracing
    out ``b`` equals acting with ``u`` on the restriction."""
    both_applied = noumenal_partial_trace(noumenal_action(product_of_operations(u, v), joint), b)
    return noumenal_distance(both_applied, noumenal_action(u, noumenal_partial_trace(joint, b)))


def no_signalling_residual(
    rho: DensityOperator, u: UnitaryOperator, v: UnitaryOperator, b: System
) -> float | np.ndarray:
    """Phenomenal no-influence: the same law for a density operator."""
    evolved = phenomenal_action(product_of_operations(u, v), rho)
    lhs = partial_trace(evolved.matrix, rho.system, b)
    reduced = DensityOperator(partial_trace(rho.matrix, rho.system, b), u.system)
    return max_abs(lhs - phenomenal_action(u, reduced).matrix, 2)


def _law_no_action_at_a_distance(ctx: _TrialContext, a: System, b: System):
    joint = ctx.evolution(ctx.haar_global(), a.union(b))
    return no_action_residual(joint, ctx.haar_on("u", a), ctx.haar_on("v", b), b)


def _law_no_signalling(ctx: _TrialContext, a: System, b: System):
    rho = ctx.density(a.union(b))
    return no_signalling_residual(rho, ctx.haar_on("u", a), ctx.haar_on("v", b), b)


# ---------------------------------------------------------------------------
# Noumenal states and actions.
# ---------------------------------------------------------------------------

def _law_remote_unitary_invariance(ctx: _TrialContext, a: System):
    w = ctx.haar_global()
    v = ctx.haar_on("v", a.complement())
    moved = UnitaryOperator(embed_operator(v.matrix, v.system) @ w.matrix, w.system)
    return noumenal_distance(ctx.evolution(w, a), ctx.evolution(moved, a))


def _law_action_via_global(ctx: _TrialContext, a: System):
    w = ctx.haar_global()
    u = ctx.haar_on("u", a)
    lifted = UnitaryOperator(embed_operator(u.matrix, a) @ w.matrix, w.system)
    return noumenal_distance(noumenal_action(u, _raw(ctx.evolution(w, a))), ctx.evolution(lifted, a))


def _law_action_composition(ctx: _TrialContext, a: System):
    state = ctx.evolution(ctx.haar_global(), a)
    u, v = ctx.haar_on("u", a), ctx.haar_on("v", a)
    return noumenal_distance(noumenal_action(v @ u, state), noumenal_action(v, _raw(noumenal_action(u, state))))


def _law_action_identity(ctx: _TrialContext, a: System):
    state = ctx.evolution(ctx.haar_global(), a)
    identity = UnitaryOperator(np.eye(a.dim, dtype=np.complex128), a)
    return noumenal_distance(noumenal_action(identity, state), state)


# ---------------------------------------------------------------------------
# The epimorphism.
# ---------------------------------------------------------------------------

def _reduction_law(pure: bool):
    """A law check that ``phi`` of a random global state agrees with the
    directly reduced evolved state; a pure state must also stay pure."""

    def check(ctx: _TrialContext, a: System):
        w = ctx.haar_global()
        rho = ctx.density(ctx.lattice.global_system, pure)
        evolved = w.matrix @ rho.matrix @ dagger(w.matrix)
        direct = partial_trace(evolved, ctx.lattice.global_system, a.complement())
        residual = max_abs(phi(rho, ctx.evolution(w, a)).matrix - direct, 2)
        if pure:
            residual = np.maximum(abs(np.trace(evolved @ evolved, axis1=-2, axis2=-1).real - 1.0), residual)
        return residual

    return check


def _law_epimorphism_equivariance(ctx: _TrialContext, a: System):
    w = ctx.haar_global()
    rho = ctx.density(ctx.lattice.global_system)
    return homomorphism_residual(rho, ctx.haar_on("u", a), ctx.evolution(w, a))


def _law_epimorphism_trace_commutation(ctx: _TrialContext, a: System, b: System):
    w = ctx.haar_global()
    rho = ctx.density(ctx.lattice.global_system)
    return trace_commutation_residual(rho, ctx.evolution(w, a.union(b)), b)


def _law_pure_surjectivity(ctx: _TrialContext, a: System):
    anchor = default_anchor(ctx.lattice)
    target = ctx.pure_target()
    reduced = partial_trace(_projector(target), ctx.lattice.global_system, a.complement())
    reached = phi(anchor, ctx.evolution(surjectivity_witness(anchor, target), a))
    return max_abs(reached.matrix - reduced, 2)


def _law_mixed_surjectivity(ctx: _TrialContext, a: System):
    target = ctx.mixed_target(a)
    return max_abs(ext_epimorphism(mixed_state_witness(target)).matrix - target.matrix, 2)


# ---------------------------------------------------------------------------
# Lifted (anchored) operations.
# ---------------------------------------------------------------------------

def _law_extended_reconstruction(ctx: _TrialContext, a: System, b: System):
    w = ctx.haar_global()
    state = ExtendedNoumenalState(ctx.evolution(w, a.union(b)), ctx.density(ctx.lattice.global_system))
    rebuilt = ext_product(ext_trace(state, b), ext_trace(state, a), check=False)
    return np.maximum(noumenal_distance(rebuilt.n, state.n), max_abs(rebuilt.rho.matrix - state.rho.matrix, 2))


def _law_extended_trace_commutation(ctx: _TrialContext, a: System, b: System):
    w = ctx.haar_global()
    state = ExtendedNoumenalState(ctx.evolution(w, a.union(b)), ctx.density(ctx.lattice.global_system))
    lhs = partial_trace(ext_epimorphism(state).matrix, a.union(b), b)
    return max_abs(lhs - ext_epimorphism(ext_trace(state, b)).matrix, 2)


# ---------------------------------------------------------------------------
# Change of basis.
# ---------------------------------------------------------------------------

def _law_basis_change_direct(ctx: _TrialContext, a: System):
    w = ctx.haar_global()
    basis = ctx.basis("basis", a)
    columns = np.swapaxes(basis, -1, -2)
    w_mat = w.matrix[..., None, None, :, :]
    # [k, l] = |b_l><b_k| ⊗ I, from flips in C order so that embedding copies nothing
    flipped = embed_operator(np.multiply(columns[..., None, :, :, None], columns.conj()[..., :, None, None, :], order="C"), a)
    direct = OperatorMatrix(a, np.matmul(dagger(w_mat) @ flipped, w_mat, out=flipped), "target")  # first, so fewer grids are alive at once
    return noumenal_distance(change_of_basis(ctx.evolution(w, a), np.eye(a.dim), basis, "target"), direct)


def _law_basis_change_identity(ctx: _TrialContext, a: System):
    state = ctx.evolution(ctx.haar_global(), a)
    eye = np.eye(a.dim)
    return noumenal_distance(change_of_basis(state, eye, eye, CANONICAL), state)


def _law_basis_change_composition(ctx: _TrialContext, a: System):
    state = ctx.evolution(ctx.haar_global(), a)
    eye = np.eye(a.dim)
    b2, b3 = ctx.basis("b2", a), ctx.basis("b3", a)
    mid = change_of_basis(state, eye, b2, "mid")
    return noumenal_distance(change_of_basis(_raw(mid), b2, b3, "end"), change_of_basis(state, eye, b3, "end"))


def _law_basis_change_round_trip(ctx: _TrialContext, a: System):
    state = ctx.evolution(ctx.haar_global(), a)
    eye = np.eye(a.dim)
    b2 = ctx.basis("b2", a)
    return noumenal_distance(change_of_basis(change_of_basis(state, eye, b2, "mid"), b2, eye, CANONICAL), state)


# ---------------------------------------------------------------------------
# The registry: grid consistency (the defining signature of evolution matrices) first.
# ---------------------------------------------------------------------------

LAWS: tuple[Law, ...] = (
    Law("grid_conjugate_pairing", "grid entries pair up as conjugate transposes", lambda ctx, a: pairing_residual(ctx.evolution(ctx.haar_global(), a)), _subsystem),
    Law("grid_operator_products", "grid entries multiply with the index-contraction rule", lambda ctx, a: product_residual(ctx.evolution(ctx.haar_global(), a)), _subsystem),
    Law("grid_trace_completeness", "diagonal grid entries sum to the identity", lambda ctx, a: trace_residual(ctx.evolution(ctx.haar_global(), a)), _subsystem),
    Law("remote_unitary_invariance", "operations on the complement leave the local state unchanged", _law_remote_unitary_invariance, partial(_subsystem, low=0)),
    Law("action_via_global", "acting locally equals rebuilding from the lifted global operation", _law_action_via_global, _subsystem),
    Law("action_composition", "acting with a composite equals acting in sequence", _law_action_composition, _subsystem),
    Law("action_identity", "the identity operation leaves states unchanged", _law_action_identity, _subsystem),
    Law("partial_trace_via_global", "restriction of a joint state equals the directly built state", _law_partial_trace_via_global, _disjoint_pair),
    Law("partial_trace_surjectivity", "every local state is the restriction of a joint state", _law_partial_trace_via_global, _complement_pair),
    Law("partial_trace_composition", "tracing out in stages equals tracing out at once", _law_partial_trace_composition, _three_split),
    Law("product_via_global", "combining both restrictions rebuilds the joint state", _law_product_via_global, _disjoint_pair),
    Law("product_trace_left_recovery", "tracing a product recovers its left factor", _law_product_trace_left, _disjoint_pair),
    Law("product_trace_right_recovery", "tracing a product recovers its right factor", _law_product_trace_right, _disjoint_pair),
    Law("unique_decomposition", "a product state determines both factors", _law_unique_decomposition, _disjoint_pair),
    Law("trace_product_reconstruction", "restrictions recombine to the joint state", _law_trace_product_reconstruction, _disjoint_pair),
    Law("local_operations_factorize", "a joint local operation acts factor by factor", _law_local_operations_factorize, _disjoint_pair),
    Law("no_action_at_a_distance", "remote operations leave the local noumenal state unchanged", _law_no_action_at_a_distance, _disjoint_pair),
    Law("no_signalling", "remote operations leave the local phenomenal state unchanged", _law_no_signalling, _disjoint_pair),
    Law("epimorphism_via_partial_trace", "phi agrees with the directly reduced evolved state", _reduction_law(pure=False), partial(_subsystem, low=0)),
    Law("epimorphism_equivariance", "phi intertwines the noumenal and phenomenal actions", _law_epimorphism_equivariance, _subsystem),
    Law("epimorphism_trace_commutation", "phi commutes with partial traces", _law_epimorphism_trace_commutation, _disjoint_pair),
    Law("pure_anchor_stays_pure", "a pure reference stays pure and reduces consistently", _reduction_law(pure=True), _subsystem),
    Law("pure_surjectivity", "every reduced pure state is reached from the reference", _law_pure_surjectivity, _subsystem),
    Law("mixed_surjectivity", "every mixed state is reached by an anchored identity state", _law_mixed_surjectivity, _subsystem),
    Law("extended_reconstruction", "anchored restrictions recombine to the anchored joint state", _law_extended_reconstruction, _disjoint_pair),
    Law("extended_trace_commutation", "the anchored epimorphism commutes with partial traces", _law_extended_trace_commutation, _disjoint_pair),
    Law("basis_change_direct_construction", "re-expressing a grid matches building it in the new basis", _law_basis_change_direct, _subsystem),
    Law("basis_change_identity", "changing a basis to itself is the identity", _law_basis_change_identity, _subsystem),
    Law("basis_change_composition", "basis changes compose", _law_basis_change_composition, _subsystem),
    Law("basis_change_round_trip", "a basis round trip is the identity", _law_basis_change_round_trip, _subsystem),
)


def _jsonify_value(value):
    if isinstance(value, System):
        return list(value.atom_ids)
    if isinstance(value, np.ndarray):
        return matrix_to_json(value)
    return value


class _TrialSeed:
    """A trial's PCG64 seed words, with the ``spawn_key`` of the ``SeedSequence`` they come from.  :func:`_start`
    registers it as the ``ISeedSequence`` that ``PCG64`` takes, so that importing does not load numpy.random."""

    def __init__(self, words: np.ndarray, spawn_key: tuple[int, int]):
        self.words, self.spawn_key = words, spawn_key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:  # PCG64 asks for 4 uint64 words
        return self.words


def _start(lattice: SystemLattice, law: Law, law_index: int, seed: int, trials: Sequence[int]) -> list[tuple]:
    """``(trial, rng, systems)`` per trial: ``default_rng(SeedSequence(seed, spawn_key=(law_index, trial)))``
    and the systems it draws first.  A trial's entropy words extend those of ``spawn_key=(law_index,)``, so
    that sequence's pool and hash constant carry on through the mixing and ``generate_state``, a lane per trial."""
    np.random.bit_generator.ISeedSequence.register(_TrialSeed)  # a no-op once registered
    parent = np.random.SeedSequence(seed, spawn_key=(law_index,))
    words = max(4, -(-seed.bit_length() // 32)) + 1  # parent's: the seed's, zero-padded to 4, and law_index's one
    const = 0x43B0D7E5 * pow(0x931E8875, 4 * words, 1 << 32) & 0xFFFFFFFF  # after four hashes per word

    def hashed(value, mult=0x931E8875):  # each call advances the hash constant
        nonlocal const
        value = (value ^ const) * (const := const * mult & 0xFFFFFFFF) & 0xFFFFFFFF
        return value ^ value >> 16

    pool = parent.pool.tolist()
    tails = [[k >> shift & 0xFFFFFFFF for shift in range(0, max(k.bit_length(), 1), 32)] for k in trials]  # low first
    for i in range(max(map(len, tails))):  # a trial with fewer words keeps its pool
        lane, has = np.array([(tail[i], 1) if i < len(tail) else (0, 0) for tail in tails], dtype=np.uint32).T
        for dst, p in enumerate(pool):
            mixed = (0xCA01F9DD * p & 0xFFFFFFFF) - 0x4973F715 * hashed(lane) & 0xFFFFFFFF
            pool[dst] = np.where(has, mixed ^ mixed >> 16, p)
    const = 0x8B51F9DD  # generate_state: eight uint32 words from the pool, read as four little-endian uint64
    state = np.stack([hashed(pool[i % 4], 0x58F38DED) for i in range(8)], -1).astype("<u4").view("<u8")
    rngs = [np.random.Generator(np.random.PCG64(_TrialSeed(row, (law_index, k)))) for row, k in zip(state, trials)]
    return [(k, rng, law.systems(lattice, rng)) for k, rng in zip(trials, rngs)]


def _rank(found: tuple) -> tuple:  # worst residual first, then lowest trial
    return found[0], -found[1]


def _worst_of_batch(lattice, law, law_index, seed, batch, inject_bug) -> tuple:
    """The worst ``(residual, trial, inputs)`` of a batch of ``_start``
    results with the same systems; NaN ranks as ``inf``.  ``inputs`` holds
    that trial's systems as ``a``, ``b``, ``c`` and then its draws by name.
    If the batch raises, each trial runs again alone from a fresh generator,
    so an error costs only the trials that raise it; a lone trial that
    raises adds the ``error`` after the draws it made."""
    ctx = _TrialContext(lattice, [rng for _, rng, _ in batch], inject_bug)
    try:
        residuals, error = law.check(ctx, *batch[0][2]), {}
    except NoumenalError as exc:
        if len(batch) > 1:
            alone = [_start(lattice, law, law_index, seed, [k]) for k, _, _ in batch]
            return max((_worst_of_batch(lattice, law, law_index, seed, b, inject_bug) for b in alone), key=_rank)
        residuals, error = np.inf, {"error": f"{type(exc).__name__}: {exc}"}
    residuals = np.broadcast_to(np.asarray(residuals, dtype=float), (len(batch),))
    residuals = np.where(np.isnan(residuals), np.inf, residuals)
    i = int(np.argmax(residuals))
    trial, _, systems = batch[i]
    return float(residuals[i]), trial, {**dict(zip("abc", systems)), **{k: v[i] for k, v in ctx.drawn.items()}, **error}


def run_law_suite(
    lattice: SystemLattice,
    trials: int,
    seed: int,
    tol: float = TOL_EQ,
    inject_bug: bool = False,
    law_id: str | None = None,
    trial: int | None = None,
) -> list[LawReport]:
    """Run every registered law ``trials`` times and collect reports.

    Deterministic for a given ``seed``; ``trials=0`` marks every law
    skipped.  ``law_id`` keeps one law and ``trial`` one trial index, which
    replays exactly that trial.  Trials run in chunks of :data:`TRIAL_CHUNK`,
    and those of a chunk that drew the same systems run in batches whose
    grid stays within :data:`BATCH_GRID_BYTES`.
    """
    require_law_suite_dim(lattice, "law suite")
    if law_id is not None and law_id not in [law.law_id for law in LAWS]:
        raise ValidationError(f"no law named {law_id!r}")
    if trial is not None and not 0 <= trial < trials:
        raise ValidationError(f"trial {trial} is not in range({trials}), the trials run")
    indices = range(trials) if trial is None else (trial,)
    command = (
        f"noumenal verify --atoms {'x'.join(map(str, lattice.dims))} --trials {trials} --seed {seed}"
        f"{'' if tol == TOL_EQ else f' --tol {tol!r}'}{' --self-test-bug' if inject_bug else ''}"
    )
    reports = []
    for law_index, law in enumerate(LAWS):
        if law_id not in (None, law.law_id):
            continue
        if not indices:
            reports.append(LawReport(law.law_id, law.description, 0, None, None, seed))
            continue
        worst = (-1.0, 0, {})
        for start in range(0, len(indices), TRIAL_CHUNK):
            groups: dict[tuple, list] = {}
            for started in _start(lattice, law, law_index, seed, indices[start : start + TRIAL_CHUNK]):
                groups.setdefault(started[2], []).append(started)
            for systems, members in groups.items():
                union = reduce(System.union, systems, lattice.empty_system)
                size = max(1, BATCH_GRID_BYTES // (16 * (union.dim * lattice.global_dim) ** 2))
                for b in range(0, len(members), size):
                    found = _worst_of_batch(lattice, law, law_index, seed, members[b : b + size], inject_bug)
                    worst = max(worst, found, key=_rank)
        residual, worst_trial, inputs = worst
        passed = residual <= tol and residual < np.inf  # a trial that raised fails at any tol
        counterexample = None
        if not passed:
            counterexample = {"trial": worst_trial, "replay": f"{command} --law {law.law_id} --trial {worst_trial}"}
            counterexample.update({k: _jsonify_value(v) for k, v in inputs.items()})
        reports.append(LawReport(law.law_id, law.description, len(indices), residual, passed, seed, counterexample))
    return reports
