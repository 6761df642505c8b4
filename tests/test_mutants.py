"""The standing mutant gate: a wrong kernel must fail a semantic check.

Each mutant changes one kernel in-process with ``monkeypatch`` (no source is
rewritten) and must be killed by one of four checks, never by a pinned hash:

* ``laws_hold``: the law suite at 5 trials, seed 0, on 2x3 and on 2x2x2;
* ``gate_rejects_closure_grid``: on 2x2, atom 0, the grid with
  ``e(0,0) = I`` and every other entry zero has the product residual of
  ``product_residual_oracle`` (1.0, all from the closure half), and the
  consistency gate rejects it;
* ``self_test_fails_grid_laws``: the law suite at 5 trials, seed 0, on 2x2
  with ``inject_bug=True`` fails all three grid-consistency laws.  Each law
  calls its residual by the name the ``laws`` module binds, so the
  ``trace_residual * 0`` and ``pairing_residual * 0`` mutants reach it;
* ``simulate_cross_check_holds``: ``simulate`` on 2x3, a Haar-random
  complex gate across both atoms and then one on atom 0, tracking each
  atom, passes its cross-check of every grid against the evolved state.

All four checks pass on the real kernels.  A kernel named in ``noumenal`` is
replaced wherever a ``noumenal`` module binds it, since modules import it by
name.

Equivalent mutants, left out because no check can tell them apart from the
real kernel:

* the dense partial trace summing its terms in reverse order: the sum is the
  same up to rounding (only the bitwise ``-0.0`` test sees the order);
* a W-grid taking each block's rows of ``W`` in another order (say
  ``perm[:, ::-1]``): permuting a block's rows is a unitary on the
  complement, and ``G_j† G_i`` does not change under it
  (``remote_unitary_invariance``);
* the dense conjugation running its two passes in the other order: the grid
  axes are contracted independently, so only rounding moves;
* ``simulate`` acting on a grid with ``noumenal_action(U ⊗ I)`` after a gate
  inside its system, instead of taking ``[W]^A``: both rules hold
  for such a gate (``action_via_global``), so only rounding moves.
"""

import sys

import numpy as np
import pytest

from noumenal import SystemLattice, circuits, evolution, linalg, phenomenal
from noumenal import circuit_from_json, haar_random_unitary, matrix_to_json, simulate_circuit
from noumenal.evolution import CANONICAL, ConsistencyReport, OperatorMatrix
from noumenal.laws import run_law_suite
from noumenal.linalg import dagger, max_abs

from conftest import product_residual_oracle


def laws_hold() -> bool:
    return all(
        report.passed
        for dims in ((2, 3), (2, 2, 2))
        for report in run_law_suite(SystemLattice.from_dims(dims), 5, seed=0)
    )


def gate_rejects_closure_grid() -> bool:
    entries = np.zeros((2, 2, 4, 4), dtype=np.complex128)
    entries[0, 0] = np.eye(4)
    grid = OperatorMatrix(SystemLattice.from_dims([2, 2]).atom(0), entries)
    return evolution.product_residual(grid) == product_residual_oracle(entries) and not evolution.consistency_check(grid).ok


def self_test_fails_grid_laws() -> bool:
    reports = run_law_suite(SystemLattice.from_dims([2, 2]), 5, seed=0, inject_bug=True)
    return not any(report.passed for report in reports if report.law_id.startswith("grid_"))


def simulate_cross_check_holds() -> bool:
    rng = np.random.default_rng(0)
    circuit = circuit_from_json({
        "atoms": [{"id": 0, "dim": 2}, {"id": 1, "dim": 3}],
        "gates": [{"matrix": matrix_to_json(haar_random_unitary(6, rng)), "targets": [0, 1]},
                  {"matrix": matrix_to_json(haar_random_unitary(2, rng)), "targets": [0]}],
        "track": [[0], [1]],
    })
    return simulate_circuit(circuit)["passed"]


def replace(monkeypatch, module, name: str, mutant) -> None:
    """Bind ``mutant`` wherever a ``noumenal`` module binds ``module.name``."""
    original = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "noumenal" or mod_name.startswith("noumenal.")):
            for attr in [attr for attr, value in vars(mod).items() if value is original]:
                monkeypatch.setattr(mod, attr, mutant)


def conjugation_without_conj(monkeypatch):
    def mutant(x, entries):
        out = x @ entries.reshape(*entries.shape[:-4], x.shape[-1], -1)
        out = out.reshape(*out.shape[:-2], *entries.shape[-4:])
        for i in range(x.shape[-1]):
            row = out[..., i, :, :, :]
            row[...] = (x @ row.reshape(*row.shape[:-2], -1)).reshape(row.shape)
        return out

    replace(monkeypatch, evolution, "_conjugate", mutant)


def trace_pairs_k_with_next(monkeypatch):
    original = evolution.noumenal_partial_trace

    def mutant(n, traced):
        if n.w is not None:
            return original(n, traced)
        keep = n.system.difference(traced)
        perm = linalg.index_map(keep, traced)
        *batch, d, _, big_d, _ = n.entries.shape
        flat = n.entries.reshape(*batch, d * d, big_d, big_d)
        rows = (perm[:, None] * d + np.roll(perm, -1, axis=1)).reshape(-1, traced.dim).T
        out = sum(flat.take(term_rows, axis=-3) for term_rows in rows)
        return OperatorMatrix(keep, out.reshape(*batch, keep.dim, keep.dim, big_d, big_d), CANONICAL)

    replace(monkeypatch, evolution, "noumenal_partial_trace", mutant)


def overlap_b_to_b_from_dagger(monkeypatch):
    original = evolution.change_of_basis
    replace(monkeypatch, evolution, "change_of_basis",
            lambda n, b_from, b_to, to_tag: original(n, dagger(b_from), dagger(b_to), to_tag))


def phi_without_transpose(monkeypatch):
    original = phenomenal.phi_matrix
    replace(monkeypatch, phenomenal, "phi_matrix", lambda entries, rho: original(entries, np.swapaxes(rho, -1, -2)))


def product_residual_without_closure(monkeypatch):
    def mutant(m):
        e = m.entries
        return max_abs(e[..., :1, :, :, :] @ e[..., :, :1, :, :] - e, 4)

    replace(monkeypatch, evolution, "product_residual", mutant)


def residual_times_zero(name: str):
    def mutate(monkeypatch):
        original = getattr(evolution, name)
        replace(monkeypatch, evolution, name, lambda m: original(m) * 0)

    return mutate


def gate_against_one(monkeypatch):
    def ok(report):
        worst = np.maximum(np.maximum(report.pairing_residual, report.product_residual), report.trace_residual)
        return bool(np.all(worst <= 1.0))

    monkeypatch.setattr(ConsistencyReport, "ok", property(ok))


def row_kernel_with_conj(monkeypatch):
    original = linalg.act_on_rows
    replace(monkeypatch, linalg, "act_on_rows", lambda x, m, a_sys: original(x.conj(), m, a_sys))


def gram_order_swapped(monkeypatch):
    original = evolution._gram
    replace(monkeypatch, evolution, "_gram", lambda rows: np.swapaxes(original(rows), -4, -3))


def index_map_lists_b_first(monkeypatch):
    original = linalg.index_map
    replace(monkeypatch, linalg, "index_map", lambda a, b: original(b, a).reshape(a.dim, b.dim))


def state_columns_without_conj(monkeypatch):
    rows = linalg.act_on_rows
    replace(monkeypatch, circuits, "_conjugate_state", lambda u, rho: rows(u.matrix, rows(u.matrix, rho, u.system).T, u.system).T)


def straddling_gate_as_disjoint(monkeypatch):
    original = circuits._next_grid
    replace(monkeypatch, circuits, "_next_grid", lambda grid, u, w: original(grid, u, w) if u.system <= grid.system else grid)


#: name -> (mutation, the check that kills it)
MUTANTS = {
    "dense conjugation without conj": (conjugation_without_conj, laws_hold),
    "dense partial trace pairs k with k+1": (trace_pairs_k_with_next, laws_hold),
    "change_of_basis overlap b_to @ b_from†": (overlap_b_to_b_from_dagger, laws_hold),
    "phi without the transpose": (phi_without_transpose, laws_hold),
    "product_residual without its closure half": (product_residual_without_closure, gate_rejects_closure_grid),
    "ConsistencyReport.ok against 1.0": (gate_against_one, gate_rejects_closure_grid),
    "trace_residual * 0": (residual_times_zero("trace_residual"), self_test_fails_grid_laws),
    "pairing_residual * 0": (residual_times_zero("pairing_residual"), self_test_fails_grid_laws),
    # Not killed by simulate_cross_check_holds: W and ρ_t both take conj(U), so simulate
    # runs the complex-conjugate circuit, consistently in both descriptions.
    "row kernel with x.conj()": (row_kernel_with_conj, laws_hold),
    "lazy grid with the Gram order swapped": (gram_order_swapped, laws_hold),
    "index_map lists b's atoms first": (index_map_lists_b_first, laws_hold),
    "simulate's state update without conj on the columns": (state_columns_without_conj, simulate_cross_check_holds),
    "simulate's straddling gate handled as disjoint": (straddling_gate_as_disjoint, simulate_cross_check_holds),
}


@pytest.mark.parametrize("check", [laws_hold, gate_rejects_closure_grid, self_test_fails_grid_laws, simulate_cross_check_holds])
def test_checks_pass_on_the_real_kernels(check):
    assert check()


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(monkeypatch, name):
    mutate, check = MUTANTS[name]
    mutate(monkeypatch)
    assert not check()
