import math

import pytest

from noumenal import (
    LAWS,
    LawReport,
    SizeBoundExceeded,
    SystemLattice,
    laws,
    run_law_suite,
)

REQUIRED_LAWS = {
    "grid_conjugate_pairing",
    "grid_operator_products",
    "grid_trace_completeness",
    "remote_unitary_invariance",
    "action_via_global",
    "action_composition",
    "action_identity",
    "partial_trace_via_global",
    "partial_trace_surjectivity",
    "partial_trace_composition",
    "product_via_global",
    "product_trace_left_recovery",
    "product_trace_right_recovery",
    "unique_decomposition",
    "trace_product_reconstruction",
    "local_operations_factorize",
    "no_action_at_a_distance",
    "no_signalling",
    "epimorphism_via_partial_trace",
    "epimorphism_equivariance",
    "epimorphism_trace_commutation",
    "pure_anchor_stays_pure",
    "pure_surjectivity",
    "mixed_surjectivity",
    "extended_reconstruction",
    "extended_trace_commutation",
    "basis_change_direct_construction",
    "basis_change_identity",
    "basis_change_composition",
    "basis_change_round_trip",
}


def test_registry_is_complete_and_unique():
    ids = [law.law_id for law in LAWS]
    assert len(ids) == len(set(ids))
    assert set(ids) == REQUIRED_LAWS
    assert len(ids) >= 22


def test_suite_passes_on_two_qubits(lat22):
    reports = run_law_suite(lat22, trials=50, seed=11)
    assert len(reports) == len(LAWS)
    for report in reports:
        assert report.passed is True, f"{report.law_id}: residual {report.max_residual}"
        assert report.max_residual <= 1e-9
        assert report.counterexample is None


def test_zero_trials_reports_skipped(lat22):
    reports = run_law_suite(lat22, trials=0, seed=11)
    assert all(report.status == "skipped" for report in reports)
    assert all(report.passed is None for report in reports)
    assert all(report.max_residual is None for report in reports)


def test_bug_injection_fails_consistency_laws(lat22):
    reports = run_law_suite(lat22, trials=5, seed=11, inject_bug=True)
    failed = {report.law_id for report in reports if report.passed is False}
    assert {"grid_conjugate_pairing", "grid_operator_products", "grid_trace_completeness"} <= failed
    worst = {r.law_id: r for r in reports}
    counterexample = worst["grid_trace_completeness"].counterexample
    assert counterexample is not None and "trial" in counterexample


def test_nan_residual_fails_closed(lat22, monkeypatch):
    nan_law = laws.Law("always_nan", "residual is always NaN", lambda ctx: (float("nan"), {}))
    monkeypatch.setattr(laws, "LAWS", (nan_law,))
    [report] = run_law_suite(lat22, trials=3, seed=0)
    assert report.status == "fail"
    assert report.max_residual == math.inf


def test_suite_is_deterministic(lat23):
    first = run_law_suite(lat23, trials=8, seed=99)
    second = run_law_suite(lat23, trials=8, seed=99)
    assert [r.to_json() for r in first] == [r.to_json() for r in second]
    third = run_law_suite(lat23, trials=8, seed=100)
    assert [r.max_residual for r in first] != [r.max_residual for r in third]


def test_suite_rejects_oversized_lattices():
    lattice = SystemLattice.from_dims([2] * 6)  # dim 64 > suite bound
    with pytest.raises(SizeBoundExceeded):
        run_law_suite(lattice, trials=1, seed=0)


@pytest.mark.parametrize("dims", [[2], [3, 3], [2, 2, 2, 2], [4, 2]])
def test_suite_generalizes_beyond_qubit_pairs(dims):
    # single atom (degenerate bipartitions), qutrits only, a 16-dim lattice
    # (grid dim above the full consistency-check cap), mixed atom dims
    reports = run_law_suite(SystemLattice.from_dims(dims), trials=5, seed=13)
    for report in reports:
        assert report.passed is True, f"{dims} {report.law_id}: {report.max_residual}"


def test_law_report_round_trip(lat22):
    reports = run_law_suite(lat22, trials=2, seed=5)
    for report in reports:
        assert LawReport.from_json(report.to_json()) == report
