import contextlib
import dataclasses
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from noumenal import (
    LAWS,
    LawReport,
    SizeBoundExceeded,
    SystemLattice,
    System,
    ValidationError,
    laws,
    no_signalling_demo,
    render_law_table,
    run_law_suite,
)
from noumenal.cli import main

from conftest import refuse_constant

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
    nan_law = laws.Law("always_nan", "residual is always NaN", lambda ctx: float("nan"))
    monkeypatch.setattr(laws, "LAWS", (nan_law,))
    [report] = run_law_suite(lat22, trials=3, seed=0)
    assert report.status == "fail"
    assert report.max_residual == math.inf


def test_a_trial_that_raised_fails_at_infinite_tolerance(lat22):
    reports = run_law_suite(lat22, trials=5, seed=0, tol=math.inf, inject_bug=True)
    raised = {r.law_id: r for r in reports if r.max_residual == math.inf}
    assert set(raised) == {
        "product_via_global", "epimorphism_via_partial_trace", "epimorphism_equivariance",
        "epimorphism_trace_commutation", "pure_anchor_stays_pure", "extended_trace_commutation",
    }
    for report in raised.values():
        assert report.status == "fail" and "error" in report.counterexample, report.law_id
    assert all(r.status == "pass" and r.counterexample is None for r in reports if r.law_id not in raised)


@pytest.mark.parametrize("dims", [[2, 2, 2], [2, 3, 2]])
def test_partial_trace_laws_compare_two_kernels(dims):
    """Each side of these laws is a grid of one ``W`` when both are W-grids,
    which reads exactly 0.0; one side runs the dense trace, so rounding shows."""
    kept = ("partial_trace_via_global", "partial_trace_surjectivity", "partial_trace_composition")
    reports = run_law_suite(SystemLattice.from_dims(dims), trials=20, seed=0)
    assert all(0.0 < r.max_residual <= 1e-9 for r in reports if r.law_id in kept)


def test_suite_is_deterministic(lat23):
    first = run_law_suite(lat23, trials=8, seed=99)
    second = run_law_suite(lat23, trials=8, seed=99)
    assert [r.to_json() for r in first] == [r.to_json() for r in second]
    third = run_law_suite(lat23, trials=8, seed=100)
    assert [r.max_residual for r in first] != [r.max_residual for r in third]


def test_suite_rejects_oversized_lattices():
    lattice = SystemLattice.from_dims([2] * 6)  # dim 64 > suite bound
    with pytest.raises(SizeBoundExceeded, match="^law suite is limited"):
        run_law_suite(lattice, trials=1, seed=0)
    with pytest.raises(SizeBoundExceeded, match="^demo is limited"):  # the demo shares the check
        no_signalling_demo(lattice, trials=1, seed=0)


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


def test_a_raised_trial_is_written_as_null_and_read_back_as_inf(lat22):
    reports = run_law_suite(lat22, trials=5, seed=0, inject_bug=True)
    raised = [report for report in reports if "error" in (report.counterexample or {})]
    assert raised
    table = render_law_table(reports)
    for report in raised:
        assert report.max_residual == math.inf and report.status == "fail"
        text = json.dumps(report.to_json(), default=np.ndarray.tolist)
        record = json.loads(text, parse_constant=refuse_constant)
        assert record["max_residual"] is None
        assert LawReport.from_json(record) == dataclasses.replace(report, counterexample=record["counterexample"])
        assert re.search(rf"^{report.law_id} +fail +5 +error$", table, re.MULTILINE)


#: Each law's named draws, in the order it draws them, after its systems.
LAW_DRAWS = {
    "w": [
        "grid_conjugate_pairing", "grid_operator_products", "grid_trace_completeness", "action_identity",
        "partial_trace_via_global", "partial_trace_surjectivity", "partial_trace_composition",
        "product_via_global", "product_trace_left_recovery", "product_trace_right_recovery",
        "unique_decomposition", "trace_product_reconstruction", "basis_change_identity",
    ],
    "w u": ["action_via_global"],
    "w v": ["remote_unitary_invariance"],
    "w u v": ["action_composition", "local_operations_factorize", "no_action_at_a_distance"],
    "rho u v": ["no_signalling"],
    "w rho": [
        "epimorphism_via_partial_trace", "epimorphism_trace_commutation", "pure_anchor_stays_pure",
        "extended_reconstruction", "extended_trace_commutation",
    ],
    "w rho u": ["epimorphism_equivariance"],
    "target": ["pure_surjectivity", "mixed_surjectivity"],
    "w basis": ["basis_change_direct_construction"],
    "w b2": ["basis_change_round_trip"],
    "w b2 b3": ["basis_change_composition"],
}


def test_every_counterexample_holds_its_trial_systems_and_draws(lat22):
    named = {law_id: draws.split() for draws, law_ids in LAW_DRAWS.items() for law_id in law_ids}
    assert named.keys() == REQUIRED_LAWS
    for law_index, (law, report) in enumerate(zip(LAWS, run_law_suite(lat22, 3, 0, tol=-1.0))):
        found = report.counterexample
        trial = found["trial"]
        assert found["replay"].endswith(f" --law {law.law_id} --trial {trial}")
        rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(law_index, trial)))
        systems = {name: list(system.atom_ids) for name, system in zip("abc", law.systems(lat22, rng))}
        assert list(found) == ["trial", "replay", *systems, *named[law.law_id]], law.law_id
        assert {name: found[name] for name in systems} == systems, law.law_id
        for name in named[law.law_id]:  # one trial's matrix or vector, as [re, im] pairs
            assert found[name].ndim in (2, 3) and found[name].shape[-1] == 2, (law.law_id, name)


def trial_of(rng: np.random.Generator) -> int:
    """The trial a generator belongs to: the last entry of its spawn key."""
    return rng.bit_generator.seed_seq.spawn_key[-1]


def batched_residuals(monkeypatch, lattice, trials, seed, **options) -> dict:
    """Every ``(law_id, trial)`` residual as the batched suite computed it."""
    seen = {}

    def recording(law):
        def check(ctx, *systems):
            residuals = law.check(ctx, *systems)
            for rng, residual in zip(ctx.rngs, np.broadcast_to(residuals, len(ctx.rngs))):
                seen[law.law_id, trial_of(rng)] = float(residual)
            return residuals

        return dataclasses.replace(law, check=check)

    with monkeypatch.context() as patch:
        patch.setattr(laws, "LAWS", tuple(recording(law) for law in LAWS))
        run_law_suite(lattice, trials, seed, **options)
    return seen


def test_batched_residuals_equal_replays(monkeypatch, lat222):
    seen = batched_residuals(monkeypatch, lat222, trials=8, seed=3)
    assert len(seen) == 8 * len(LAWS)
    for (law_id, trial), residual in seen.items():
        [replay] = run_law_suite(lat222, 8, 3, law_id=law_id, trial=trial)
        assert replay.trials == 1 and replay.passed
        assert replay.max_residual == residual, (law_id, trial)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32 + 1, 2**128 - 1])
def test_chunk_generators_are_the_per_trial_seed_sequences(lat222, seed):
    """A chunk's generators, seeded together, are bit for bit the ``SeedSequence`` children."""
    trials = [0, 255, 256, 2**32 + 1]  # one- and two-word trials in one chunk
    for law_index in (0, 9, 17):  # the systems of a subsystem, a three-way split and a disjoint pair
        law = LAWS[law_index]
        for chunk in (trials, trials[-1:]):
            started = laws._start(lat222, law, law_index, seed, chunk)
            assert [k for k, _, _ in started] == chunk
            for k, rng, systems in started:
                reference = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(law_index, k)))
                assert systems == law.systems(lat222, reference)
                assert rng.bit_generator.state == reference.bit_generator.state
                assert trial_of(rng) == k


def test_importing_the_package_does_not_load_numpy_random():
    """The seeding registers its seed type on first use, so ``simulate`` never loads numpy.random."""
    code = "import sys, noumenal.cli; sys.exit('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_cli_replay_from_a_second_chunk_with_a_two_word_seed(monkeypatch, lat22):
    seed, trial = 2**32 + 1, 299
    assert trial >= laws.TRIAL_CHUNK
    seen = batched_residuals(monkeypatch, lat22, 300, seed, law_id="no_signalling")
    argv = ["verify", "--atoms", "2x2", "--trials", "300", "--seed", str(seed), "--law", "no_signalling"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--trial", str(trial), "--format", "json"]) == 0
    [law] = json.loads(out.getvalue())["laws"]
    assert law["trials"] == 1 and law["max_residual"] == seen["no_signalling", trial]


def inputs(report: LawReport) -> str:
    """The counterexample of a report without its replay command, as JSON text."""
    found = {k: v for k, v in report.counterexample.items() if k != "replay"}
    return json.dumps(found, default=np.ndarray.tolist)


def test_self_test_bug_replays_reproduce_the_reported_residuals(lat22):
    reports = run_law_suite(lat22, trials=5, seed=11, inject_bug=True)
    failed = [report for report in reports if report.passed is False]
    assert len(failed) >= 3
    for report in failed:
        trial = report.counterexample["trial"]
        for trials in (5, trial + 1):  # a trial's inputs do not depend on --trials
            [replay] = run_law_suite(lat22, trials, 11, inject_bug=True, law_id=report.law_id, trial=trial)
            assert replay.max_residual == report.max_residual, report.law_id
            assert inputs(replay) == inputs(report)
        argv = shlex.split(report.counterexample["replay"])
        assert argv[:2] == ["noumenal", "verify"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*argv[1:], "--format", "json"]) == 1
        [law] = json.loads(out.getvalue())["laws"]
        assert (law["law_id"], law["trials"]) == (report.law_id, 1)
        assert LawReport.from_json(law).max_residual == report.max_residual  # null in JSON is inf


def test_replay_selection_is_validated(lat22):
    with pytest.raises(ValidationError):
        run_law_suite(lat22, 3, 0, law_id="no_such_law")
    for trial in (-1, 3):
        with pytest.raises(ValidationError):
            run_law_suite(lat22, 3, 0, trial=trial)


def test_an_error_costs_only_the_trial_that_raises(lat22, monkeypatch):
    calls, residuals = [], {}

    def check(ctx):
        trials = [trial_of(rng) for rng in ctx.rngs]
        calls.append(trials)
        draws = np.array([rng.random() for rng in ctx.rngs])
        if 3 in trials:
            raise ValidationError("trial 3 is malformed")
        residuals.update(zip(trials, draws.tolist()))
        return draws * 1e-12

    monkeypatch.setattr(laws, "LAWS", (laws.Law("raises_once", "trial 3 raises", check),))
    [report] = run_law_suite(lat22, trials=6, seed=0)
    assert calls == [[0, 1, 2, 3, 4, 5], [0], [1], [2], [3], [4], [5]]
    assert report.max_residual == math.inf and report.status == "fail"
    assert report.counterexample["trial"] == 3
    assert report.counterexample["error"] == "ValidationError: trial 3 is malformed"
    fresh = {k: np.random.default_rng(np.random.SeedSequence(0, spawn_key=(0, k))).random() for k in range(6)}
    assert residuals == {k: v for k, v in fresh.items() if k != 3}


def _traced_peak(lattice, trials: int) -> int:
    tracemalloc.start()
    try:
        run_law_suite(lattice, trials, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_does_not_grow_with_trials(lat222, monkeypatch):
    # a law on one system, one that also builds the global grid, and one on a three-way split
    kept = {"grid_operator_products", "partial_trace_surjectivity", "partial_trace_composition"}
    monkeypatch.setattr(laws, "LAWS", tuple(law for law in LAWS if law.law_id in kept))
    run_law_suite(lat222, 2, seed=0)  # first-call allocations
    assert _traced_peak(lat222, 2000) <= 1.5 * _traced_peak(lat222, 200)


def test_batch_size_never_changes_a_report(lat222, monkeypatch):
    runs = []
    for cap in (0, 1 << 40):  # one trial per batch, then one batch per group
        monkeypatch.setattr(laws, "BATCH_GRID_BYTES", cap)
        runs.append([run_law_suite(lat222, 20, seed=5, inject_bug=bug) for bug in (False, True)])
    assert any(report.counterexample for report in runs[1][1])  # the bug run's payloads are compared too
    for alone, grouped in zip(*runs):
        for one, other in zip(alone, grouped):
            # JSON text holds each float's repr, so equal text is equal bits.
            assert json.dumps(one.to_json(), default=np.ndarray.tolist) == json.dumps(
                other.to_json(), default=np.ndarray.tolist
            ), one.law_id


@pytest.mark.parametrize(
    "law_id",
    [
        "remote_unitary_invariance",
        "action_via_global",
        "action_composition",
        "basis_change_direct_construction",
        "basis_change_composition",
        "partial_trace_surjectivity",
    ],
)
def test_heaviest_laws_hold_few_grids_per_batch(lat222, monkeypatch, law_id):
    """A batch's traced peak stays under 3.5 of its grids (the union grid of
    its systems) plus a fixed allowance, so no grid-sized temporary creeps back."""
    monkeypatch.setattr(laws, "BATCH_GRID_BYTES", 512 * 1024)
    biggest, worst_of_batch = [0], laws._worst_of_batch

    def recording(lattice, law, law_index, seed, batch, inject_bug):
        union = reduce(System.union, batch[0][2], lattice.empty_system)
        biggest[0] = max(biggest[0], len(batch) * 16 * (union.dim * lattice.global_dim) ** 2)
        return worst_of_batch(lattice, law, law_index, seed, batch, inject_bug)

    monkeypatch.setattr(laws, "_worst_of_batch", recording)
    run_law_suite(lat222, 100, seed=0, law_id=law_id)  # first-call allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_law_suite(lat222, 100, seed=0, law_id=law_id)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert biggest[0] == 512 * 1024  # a full batch of eight global grids ran
    assert peak <= 3.5 * biggest[0] + 192 * 1024
