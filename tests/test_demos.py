import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from noumenal import (
    GATES,
    EvolutionMatrix,
    ScenarioPreconditionFailed,
    ScenarioResult,
    SystemLattice,
    UnitaryOperator,
    bell_incompleteness_demo,
    from_global_unitary,
    haar_unitary,
    matrix_from_json,
    max_abs,
    no_signalling_demo,
    noumenal_action,
    noumenal_distance,
    noumenal_partial_trace,
    product_of_operations,
)
from noumenal.reports import dump_json


def all_verdicts(result):
    return result.findings["verdicts"]


def test_bell_demo_all_verdicts_hold(lat22):
    result = bell_incompleteness_demo(lat22)
    assert result.passed
    verdicts = all_verdicts(result)
    assert all(verdicts.values()), verdicts
    # the reported marginal is I/2 to near machine precision
    marginal = matrix_from_json(result.findings["phenomenal_a"])
    assert max_abs(marginal - np.eye(2) / 2) <= 1e-12
    assert min(result.findings["margins"].values()) >= 0.1


def test_bell_demo_covariant_under_local_basis_change(lat22):
    result = bell_incompleteness_demo(lat22, local_basis=GATES["H"])
    assert result.passed
    assert all(all_verdicts(result).values())


def test_bell_demo_symmetric_under_role_swap(lat22):
    result = bell_incompleteness_demo(lat22, swap=True)
    assert result.passed
    assert result.findings["system_a"] == [1]
    assert all(all_verdicts(result).values())


def test_bell_demo_findings_rederivable(lat22):
    # the stored grids alone reproduce the distinctness verdict and margin
    result = bell_incompleteness_demo(lat22)
    local = EvolutionMatrix.from_json(lat22, result.findings["noumenal_a"])
    flipped = EvolutionMatrix.from_json(lat22, result.findings["noumenal_a_after_flip"])
    margin = noumenal_distance(local, flipped)
    assert abs(margin - result.findings["margins"]["c"]) < 1e-12
    joint = EvolutionMatrix.from_json(lat22, result.findings["noumenal_joint"])
    double = EvolutionMatrix.from_json(lat22, result.findings["noumenal_joint_after_double_flip"])
    assert abs(noumenal_distance(joint, double) - result.findings["margins"]["d"]) < 1e-12


def test_bell_demo_requires_two_qubits(lat23, lat222):
    with pytest.raises(ScenarioPreconditionFailed):
        bell_incompleteness_demo(lat23)
    with pytest.raises(ScenarioPreconditionFailed):
        bell_incompleteness_demo(lat222)


def test_no_signalling_demo_two_qubits(lat22):
    result = no_signalling_demo(lat22, trials=100, seed=3)
    assert result.passed
    assert result.findings["noumenal_max_residual"] <= 1e-9
    assert result.findings["phenomenal_max_residual"] <= 1e-9


def test_no_signalling_demo_non_contiguous_bipartition(lat222):
    result = no_signalling_demo(lat222, trials=40, seed=3, a_atoms=(0, 2))
    assert result.passed
    assert result.findings["system_a"] == [0, 2]
    assert result.findings["noumenal_max_residual"] <= 1e-9
    assert result.findings["phenomenal_max_residual"] <= 1e-9


def test_remote_identity_leaves_state_exactly(lat22, rng):
    # V = I: the local restriction is untouched up to matmul rounding.
    a, b = lat22.atom(0), lat22.atom(1)
    s = lat22.global_system
    w = haar_unitary(s, rng)
    u = haar_unitary(a, rng)
    v = UnitaryOperator(np.eye(2), b)
    joint = from_global_unitary(w, s)
    lhs = noumenal_partial_trace(noumenal_action(product_of_operations(u, v), joint), b)
    rhs = noumenal_action(u, noumenal_partial_trace(joint, b))
    assert noumenal_distance(lhs, rhs) < 1e-12


def test_no_signalling_demo_requires_proper_bipartition(lat22):
    with pytest.raises(ScenarioPreconditionFailed):
        no_signalling_demo(lat22, trials=1, seed=0, a_atoms=(0, 1))


def json_text(result: ScenarioResult) -> str:
    """The record's ``--format json`` text; findings hold arrays, so records
    are compared through it rather than with ``==``."""
    out = io.StringIO()
    dump_json(result.to_json(), out)
    return out.getvalue()


def test_demo_determinism(lat22):
    r1 = no_signalling_demo(lat22, trials=20, seed=42)
    r2 = no_signalling_demo(lat22, trials=20, seed=42)
    assert json_text(r1) == json_text(r2)


def test_scenario_result_round_trip(lat22):
    result = bell_incompleteness_demo(lat22)
    text = json_text(result)
    assert json_text(ScenarioResult.from_json(result.to_json())) == text
    assert json_text(ScenarioResult.from_json(json.loads(text))) == text


def test_demo_scripts_run():
    root = Path(__file__).resolve().parent.parent
    scripts = sorted((root / "demos").glob("*.py"))
    assert scripts
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    for script in scripts:
        proc = subprocess.run(
            [sys.executable, str(script)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, f"{script.name} exited {proc.returncode}:\n{proc.stderr}"
        assert proc.stdout.strip(), f"{script.name} printed nothing"


def test_no_signalling_demo_never_builds_the_global_grid():
    """On 2^5 the global grid alone is 16 MB (d = D = 32); the demo acts on
    and traces the W-grid of ``W`` and forms only the 64 KB grids of one atom."""
    lattice = SystemLattice.from_dims([2] * 5)
    tracemalloc.start()
    try:
        result = no_signalling_demo(lattice, trials=1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < 4 * 2**20
