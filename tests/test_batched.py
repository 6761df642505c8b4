"""Batched kernels: a stack of B inputs gives the stack of the B unbatched results.

Every kernel the law suite calls takes leading batch axes.  Each test draws
B independent inputs on the 2x3x2 lattice (D = 12), calls the kernel once on
their stack and once per input, and requires ``np.stack`` of the unbatched
results: bitwise for the matmul, product and QR kernels, and within 1e-15
for those that sum (partial traces) or reduce.
"""

import numpy as np
import pytest

from noumenal import (
    DensityOperator,
    DimensionMismatch,
    EvolutionMatrix,
    ExtendedNoumenalState,
    UnitaryOperator,
    ValidationError,
    change_of_basis,
    consistency_check,
    default_anchor,
    embed_operator,
    ext_epimorphism,
    ext_product,
    ext_trace,
    from_global_unitary,
    haar_random_unitary,
    haar_unitary,
    max_abs,
    mixed_state_witness,
    noumenal_action,
    noumenal_distance,
    noumenal_partial_trace,
    noumenal_product,
    partial_trace,
    phenomenal_action,
    phi,
    random_density_matrix,
    random_pure_state,
    surjectivity_witness,
    tensor_operators,
    unitary_mapping,
)
from noumenal.evolution import _conjugate
from noumenal.linalg import _ginibre, dagger, draw_each, is_unitary
from noumenal.phenomenal import (
    complete_orthonormal,
    homomorphism_residual,
    phi_matrix,
    trace_commutation_residual,
)

SIZES = (1, 3, 8)  # 8 covers the longest batch of global grids at D = 8, six


def rngs(size: int, seed: int = 7) -> list[np.random.Generator]:
    return [np.random.default_rng([seed, k]) for k in range(size)]


def same(batched, singles, exact: bool = True) -> None:
    expected = np.stack([np.asarray(single) for single in singles])
    assert batched.shape == expected.shape
    if exact:
        assert np.array_equal(batched, expected)
    else:
        assert np.max(np.abs(batched - expected), initial=0.0) <= 1e-15


@pytest.mark.parametrize("size", SIZES)
def test_samplers_draw_each_trial_from_its_own_generator(size):
    for sample in (haar_random_unitary, random_pure_state, random_density_matrix):
        same(sample(4, rngs(size)), [sample(4, rng) for rng in rngs(size)])


def two_call_ginibre(rng, *shape: int) -> np.ndarray:
    """The reference draw: real parts, then imaginary parts, one call each."""
    return draw_each(rng, lambda g: g.standard_normal(shape) + 1j * g.standard_normal(shape))


def test_samplers_equal_their_two_call_form_bitwise():
    def bitwise(a, b):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    for fresh in (lambda: np.random.default_rng(5), lambda: rngs(6)):
        bitwise(_ginibre(fresh(), 3, 4), two_call_ginibre(fresh(), 3, 4))
        q, r = np.linalg.qr(two_call_ginibre(fresh(), 4, 4))
        phases = np.diagonal(r, axis1=-2, axis2=-1)
        bitwise(haar_random_unitary(4, fresh()), q * (phases / np.abs(phases))[..., None, :])
        vec = two_call_ginibre(fresh(), 4)
        bitwise(random_pure_state(4, fresh()), vec / np.linalg.norm(vec, axis=-1, keepdims=True))
        g = two_call_ginibre(fresh(), 4, 4)
        rho = g @ dagger(g)
        bitwise(random_density_matrix(4, fresh()), rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None])


def test_batched_haar_draw_equals_per_trial_draws_bitwise():
    for dim in (1, 2, 4, 8, 16, 32):
        same(haar_random_unitary(dim, rngs(5, seed=dim)), [haar_random_unitary(dim, g) for g in rngs(5, seed=dim)])


@pytest.mark.parametrize("size", SIZES)
def test_matrix_kernels(lat232, size):
    a, b, s = lat232.system((0, 2)), lat232.atom(1), lat232.global_system
    ops_a, ops_b = haar_random_unitary(a.dim, rngs(size)), haar_random_unitary(b.dim, rngs(size, 8))
    rho = random_density_matrix(s.dim, rngs(size, 9))
    same(tensor_operators(ops_a, a, ops_b, b), [tensor_operators(x, a, y, b) for x, y in zip(ops_a, ops_b)])
    same(embed_operator(ops_a, a), [embed_operator(x, a) for x in ops_a])
    same(partial_trace(rho, s, b), [partial_trace(r, s, b) for r in rho], exact=False)
    same(max_abs(rho, 2), [max_abs(r) for r in rho])
    assert is_unitary(ops_a) and all(is_unitary(x) for x in ops_a)
    bad = ops_a.copy()
    bad[-1, 0, 0] += 1e-3
    assert not is_unitary(bad)
    u = UnitaryOperator(ops_a, a)
    same(u.compose(u).matrix, [x @ x for x in ops_a])
    with pytest.raises(ValidationError):
        UnitaryOperator(bad, a)
    with pytest.raises(DimensionMismatch):
        UnitaryOperator(ops_b, a)
    state = DensityOperator(rho, s)
    same(state.purity(), [DensityOperator(r, s).purity() for r in rho], exact=False)
    same(phenomenal_action(haar_unitary(s, rngs(size)), state).matrix,
         [phenomenal_action(haar_unitary(s, g), DensityOperator(r, s)).matrix for g, r in zip(rngs(size), rho)])
    skewed = rho.copy()
    skewed[-1, 0, 1] += 1e-3
    with pytest.raises(ValidationError, match="Hermitian"):
        DensityOperator(skewed, s)


@pytest.mark.parametrize("size", SIZES)
def test_grid_kernels(lat232, size):
    a, b, s = lat232.system((0, 2)), lat232.atom(1), lat232.global_system
    ws = haar_unitary(s, rngs(size))
    singles = [UnitaryOperator(w, s) for w in ws.matrix]
    grids = from_global_unitary(ws, s)
    same(grids.entries, [from_global_unitary(w, s).entries for w in singles])
    left, right = noumenal_partial_trace(grids, b), noumenal_partial_trace(grids, a)
    same(left.entries, [noumenal_partial_trace(from_global_unitary(w, s), b).entries for w in singles], exact=False)
    lefts, rights = from_global_unitary(ws, a), from_global_unitary(ws, b)
    product = noumenal_product(lefts, rights, check=False)
    same(product.entries, [
        noumenal_product(from_global_unitary(w, a), from_global_unitary(w, b), check=False).entries
        for w in singles
    ])
    x = haar_random_unitary(a.dim, rngs(size, 3))
    same(_conjugate(x, left.entries), [_conjugate(xi, e) for xi, e in zip(x, left.entries)])
    same(noumenal_action(UnitaryOperator(x, a), lefts).entries,
         [noumenal_action(UnitaryOperator(xi, a), from_global_unitary(w, a)).entries for xi, w in zip(x, singles)])
    same(change_of_basis(lefts, np.eye(a.dim), x, "x").entries,
         [change_of_basis(from_global_unitary(w, a), np.eye(a.dim), xi, "x").entries for xi, w in zip(x, singles)])
    same(noumenal_distance(product, grids), [noumenal_distance(EvolutionMatrix(s, p), EvolutionMatrix(s, g))
                                              for p, g in zip(product.entries, grids.entries)])
    report = consistency_check(lefts)
    reports = [consistency_check(from_global_unitary(w, a)) for w in singles]
    for field in ("pairing_residual", "product_residual", "trace_residual"):
        same(getattr(report, field), [getattr(r, field) for r in reports], exact=False)
    assert report.ok


@pytest.mark.parametrize("size", SIZES)
def test_phenomenal_and_extension_kernels(lat232, size):
    a, b, s = lat232.system((0, 2)), lat232.atom(1), lat232.global_system
    ws = haar_unitary(s, rngs(size))
    singles = [UnitaryOperator(w, s) for w in ws.matrix]
    grids = from_global_unitary(ws, a)
    rho = DensityOperator(random_density_matrix(s.dim, rngs(size, 4)), s)
    rho_singles = [DensityOperator(r, s) for r in rho.matrix]
    same(phi_matrix(grids.entries, rho.matrix), [phi_matrix(from_global_unitary(w, a).entries, r.matrix)
                                                 for w, r in zip(singles, rho_singles)])
    same(phi(rho, grids).matrix, [phi(r, from_global_unitary(w, a)).matrix for w, r in zip(singles, rho_singles)])
    u = haar_unitary(a, rngs(size, 5))
    u_singles = [UnitaryOperator(m, a) for m in u.matrix]
    same(homomorphism_residual(rho, u, grids), [homomorphism_residual(r, v, from_global_unitary(w, a))
                                                for r, v, w in zip(rho_singles, u_singles, singles)])
    joint = from_global_unitary(ws, s)
    same(trace_commutation_residual(rho, joint, b), [trace_commutation_residual(r, from_global_unitary(w, s), b)
                                                     for r, w in zip(rho_singles, singles)])
    targets = random_pure_state(s.dim, rngs(size, 6))
    same(complete_orthonormal(targets), [complete_orthonormal(t) for t in targets])
    same(unitary_mapping(targets[::-1], targets), [unitary_mapping(t0, t1) for t0, t1 in zip(targets[::-1], targets)])
    anchor = default_anchor(lat232)
    same(surjectivity_witness(anchor, targets).matrix, [surjectivity_witness(anchor, t).matrix for t in targets])
    state = ExtendedNoumenalState(joint, rho)
    state_singles = [ExtendedNoumenalState(from_global_unitary(w, s), r) for w, r in zip(singles, rho_singles)]
    rebuilt = ext_product(ext_trace(state, b), ext_trace(state, a), check=False)
    same(rebuilt.n.entries, [ext_product(ext_trace(t, b), ext_trace(t, a), check=False).n.entries
                             for t in state_singles], exact=False)
    same(ext_epimorphism(state).matrix, [ext_epimorphism(t).matrix for t in state_singles])
    local = DensityOperator(random_density_matrix(a.dim, rngs(size, 7)), a)
    same(ext_epimorphism(mixed_state_witness(local)).matrix,
         [ext_epimorphism(mixed_state_witness(DensityOperator(m, a))).matrix for m in local.matrix])
