import numpy as np
import pytest

from noumenal import (
    AnchorMismatch,
    DensityOperator,
    ExtendedNoumenalState,
    SystemMismatch,
    UnitaryOperator,
    ValidationError,
    ext_action,
    ext_epimorphism,
    ext_product,
    ext_trace,
    from_global_unitary,
    haar_unitary,
    identity_evolution,
    matrix_to_json,
    max_abs,
    mixed_state_witness,
    noumenal_distance,
    noumenal_equal,
    partial_trace,
    random_density_matrix,
    random_pure_state,
    tensor_operators,
)

TOL = 1e-9


@pytest.fixture
def anchored(lat222, rng):
    s = lat222.global_system
    w = haar_unitary(s, rng)
    rho = DensityOperator(random_density_matrix(8, rng), s)
    return ExtendedNoumenalState(from_global_unitary(w, s), rho)


def test_anchor_must_be_global(lat22, rng):
    local_rho = DensityOperator(random_density_matrix(2, rng), lat22.atom(0))
    with pytest.raises(SystemMismatch):
        ExtendedNoumenalState(identity_evolution(lat22.atom(0)), local_rho)


def test_action_identity_and_anchor_untouched(lat222, anchored):
    state = ext_trace(anchored, lat222.atom(2))
    identity = UnitaryOperator(np.eye(state.system.dim), state.system)
    out = ext_action(identity, state)
    assert noumenal_equal(out.n, state.n)
    assert out.rho is state.rho  # carried through, not copied


def test_action_composes(lat222, rng, anchored):
    state = ext_trace(anchored, lat222.atom(2))
    u = haar_unitary(state.system, rng)
    v = haar_unitary(state.system, rng)
    composed = ext_action(v.compose(u), state)
    stepwise = ext_action(v, ext_action(u, state))
    assert noumenal_distance(composed.n, stepwise.n) < TOL
    assert max_abs(composed.rho.matrix - stepwise.rho.matrix) == 0.0


def test_trace_composes(lat222, anchored):
    b, c = lat222.atom(1), lat222.atom(2)
    stepwise = ext_trace(ext_trace(anchored, c), b)
    direct = ext_trace(anchored, b.union(c))
    assert noumenal_distance(stepwise.n, direct.n) < TOL


def test_reconstruction(lat222, anchored):
    a = lat222.system((0, 2))
    b = a.complement()
    rebuilt = ext_product(ext_trace(anchored, b), ext_trace(anchored, a), check=False)
    assert noumenal_distance(rebuilt.n, anchored.n) < TOL
    assert max_abs(rebuilt.rho.matrix - anchored.rho.matrix) == 0.0


def test_identity_grid_case(lat22):
    rho = DensityOperator(np.eye(4) / 4, lat22.global_system)
    state = ExtendedNoumenalState(identity_evolution(lat22.global_system), rho)
    rebuilt = ext_product(
        ext_trace(state, lat22.atom(1)), ext_trace(state, lat22.atom(0)), check=False
    )
    assert noumenal_distance(rebuilt.n, state.n) < 1e-12


def test_product_rejects_different_anchors(lat22, rng):
    rho1 = DensityOperator(random_density_matrix(4, rng), lat22.global_system)
    rho2 = DensityOperator(random_density_matrix(4, rng), lat22.global_system)
    sa = ExtendedNoumenalState(identity_evolution(lat22.atom(0)), rho1)
    sb = ExtendedNoumenalState(identity_evolution(lat22.atom(1)), rho2)
    with pytest.raises(AnchorMismatch):
        ext_product(sa, sb)


def test_empty_factor_is_identity(lat22, rng):
    rho = DensityOperator(random_density_matrix(4, rng), lat22.global_system)
    sa = ExtendedNoumenalState(identity_evolution(lat22.empty_system), rho)
    sb = ExtendedNoumenalState(identity_evolution(lat22.atom(1)), rho)
    out = ext_product(sa, sb, check=False)
    assert noumenal_distance(out.n, sb.n) < 1e-12


def test_epimorphism_reaches_factorized_anchor(lat22, rng):
    a = lat22.atom(0)
    rho_a = DensityOperator(random_density_matrix(2, rng), a)
    rho_rest = random_density_matrix(2, rng)
    anchor = DensityOperator(
        tensor_operators(rho_a.matrix, a, rho_rest, a.complement()), lat22.global_system
    )
    state = ExtendedNoumenalState(identity_evolution(a), anchor)
    assert max_abs(ext_epimorphism(state).matrix - rho_a.matrix) < 1e-12


def test_epimorphism_equivariance(lat22, rng):
    s = lat22.global_system
    rho = DensityOperator(random_density_matrix(4, rng), s)
    local = ExtendedNoumenalState(
        from_global_unitary(haar_unitary(s, rng), lat22.atom(0)), rho
    )
    u = haar_unitary(lat22.atom(0), rng)
    lhs = u.matrix @ ext_epimorphism(local).matrix @ u.matrix.conj().T
    rhs = ext_epimorphism(ext_action(u, local))
    assert max_abs(lhs - rhs.matrix) < TOL


def test_epimorphism_commutes_with_trace(lat222, anchored):
    b = lat222.atom(1)
    lhs = partial_trace(ext_epimorphism(anchored).matrix, anchored.system, b)
    rhs = ext_epimorphism(ext_trace(anchored, b))
    assert max_abs(lhs - rhs.matrix) < TOL


def test_mixed_witness_surjectivity(lat22, rng):
    a = lat22.atom(0)
    for _ in range(10):
        k = int(rng.integers(1, 5))
        weights = rng.random(k) + 0.05
        weights /= weights.sum()
        target = np.zeros((2, 2), dtype=complex)
        for weight in weights:
            vec = random_pure_state(2, rng)
            target += weight * np.outer(vec, vec.conj())
        rho_a = DensityOperator(target, a)
        reached = ext_epimorphism(mixed_state_witness(rho_a))
        assert max_abs(reached.matrix - target) < 1e-12


def test_serialization_round_trip(lat22, rng):
    import json

    rho = DensityOperator(random_density_matrix(4, rng), lat22.global_system)
    state = ExtendedNoumenalState(identity_evolution(lat22.atom(0)), rho)
    payload = json.loads(json.dumps(state.to_json(), default=np.ndarray.tolist))
    assert set(payload) == {"noumenal", "anchor_rho"}
    assert payload["noumenal"]["system"] == [0]
    again = ExtendedNoumenalState.from_json(lat22, payload)
    assert noumenal_distance(again.n, state.n) == 0.0
    assert max_abs(again.rho.matrix - state.rho.matrix) == 0.0


def test_from_json_rejects_a_non_psd_anchor(lat22):
    rho = DensityOperator(np.eye(4) / 4, lat22.global_system)
    payload = ExtendedNoumenalState(identity_evolution(lat22.atom(0)), rho).to_json()
    payload["anchor_rho"] = matrix_to_json(np.diag([1.5, -0.5, 0.0, 0.0]))
    with pytest.raises(ValidationError, match="eigenvalue -0.5"):
        ExtendedNoumenalState.from_json(lat22, payload)
