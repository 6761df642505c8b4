"""The kernel-coverage map: which kernel forms each law runs.

A grid built from a global unitary ``W`` (a W-grid) holds ``W`` and runs the
W kernels: the row kernel ``act_on_rows`` for an action, and a new system on
the same ``W`` for a partial trace; a raw grid runs the dense ones.  Which
form a law's side runs therefore follows from how its inputs were built, and
a change to a law or to a kernel can leave a form with no law that checks
it, without any law failing.  This test records, per law, the forms its
trials run at 5 trials on 2x3 and on 2x2x2 (seed 0), and compares them with
the table below.  A profiler hook sees every call of a kernel's code,
whatever name the caller bound it by, and changes nothing.

When the table moves on purpose, update it here; every form must keep a law
in :data:`GUARDS` that compares it with a different computation.
"""

import sys

import pytest

from noumenal import SystemLattice, evolution, linalg, phenomenal
from noumenal.laws import LAWS, run_law_suite

#: kernel code -> the form a call runs, read from the call's arguments (``None``: not a form of its own)
FORMS = {
    linalg.act_on_rows.__code__: lambda args: "W action",
    evolution._conjugate.__code__: lambda args: "dense action",
    evolution.noumenal_partial_trace.__code__: lambda args: (
        "W partial trace" if args["n"].w is not None else "dense partial trace"
    ),
    phenomenal.phi_matrix.__code__: lambda args: "dense phi",
    evolution.noumenal_product.__code__: lambda args: "product",
    evolution.pairing_residual.__code__: lambda args: "pairing residual",
    evolution.product_residual.__code__: lambda args: "product residual",
    evolution.trace_residual.__code__: lambda args: "trace residual",
    evolution.noumenal_distance.__code__: lambda args: "distance",
}

#: law -> the kernel forms its trials run ("action" covers both actions and changes of basis)
KERNELS_RUN = {
    "grid_conjugate_pairing": {"pairing residual"},
    "grid_operator_products": {"product residual"},
    "grid_trace_completeness": {"trace residual"},
    "remote_unitary_invariance": {"distance"},
    "action_via_global": {"dense action", "distance"},
    "action_composition": {"W action", "dense action", "distance"},
    "action_identity": {"W action", "distance"},
    "partial_trace_via_global": {"dense partial trace", "distance"},
    "partial_trace_surjectivity": {"dense partial trace", "distance"},
    "partial_trace_composition": {"W partial trace", "dense partial trace", "distance"},
    "product_via_global": {"product", "pairing residual", "product residual", "trace residual", "distance"},
    "product_trace_left_recovery": {"W partial trace", "product", "dense partial trace", "distance"},
    "product_trace_right_recovery": {"W partial trace", "product", "dense partial trace", "distance"},
    "unique_decomposition": {"W partial trace", "product", "dense partial trace", "distance"},
    "trace_product_reconstruction": {"W partial trace", "product", "distance"},
    "local_operations_factorize": {"W action", "product", "dense action", "distance"},
    "no_action_at_a_distance": {"W action", "W partial trace", "distance"},
    "no_signalling": set(),
    "epimorphism_via_partial_trace": {"dense phi"},
    "epimorphism_equivariance": {"W action", "dense phi"},
    "epimorphism_trace_commutation": {"W partial trace", "dense phi"},
    "pure_anchor_stays_pure": {"dense phi"},
    "pure_surjectivity": {"dense phi"},
    "mixed_surjectivity": {"dense phi"},
    "extended_reconstruction": {"W partial trace", "product", "distance"},
    "extended_trace_commutation": {"W partial trace", "dense phi"},
    "basis_change_direct_construction": {"W action", "distance"},
    "basis_change_identity": {"W action", "distance"},
    "basis_change_composition": {"W action", "dense action", "distance"},
    "basis_change_round_trip": {"W action", "distance"},
}

#: kernel form -> a law that checks it against a different computation (after the ``#``)
GUARDS = {
    "W action": "basis_change_direct_construction",  # the grid built from the embedded basis flips
    "dense action": "action_via_global",  # the W-grid of the lifted global operation
    "W partial trace": "partial_trace_composition",  # one dense trace of the whole
    "dense partial trace": "partial_trace_via_global",  # the W-grid of the global operation
    "dense phi": "epimorphism_via_partial_trace",  # the evolved state reduced by a partial trace
    "product": "product_via_global",  # the W-grid of the union
    "pairing residual": "grid_conjugate_pairing",  # zero: the self-test's perturbed grid must fail it
    "product residual": "grid_operator_products",  # zero: the self-test's perturbed grid must fail it
    "trace residual": "grid_trace_completeness",  # zero: the self-test's perturbed grid must fail it
    "distance": "action_via_global",  # the self-test: its sides then differ, and it must fail
}


@pytest.fixture(scope="module")
def kernels_run() -> dict:
    ran = {}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in FORMS:
            form = FORMS[frame.f_code](frame.f_locals)
            if form is not None:
                ran[law.law_id].add(form)

    for law in LAWS:
        ran[law.law_id] = set()
        for dims in ((2, 3), (2, 2, 2)):
            lattice = SystemLattice.from_dims(dims)
            sys.setprofile(profile)
            try:
                run_law_suite(lattice, 5, seed=0, law_id=law.law_id)
            finally:
                sys.setprofile(None)
    return ran


def test_each_law_runs_the_kernel_forms_of_the_table(kernels_run):
    assert kernels_run == KERNELS_RUN


def test_every_kernel_form_has_a_law_that_checks_it(kernels_run):
    assert set(GUARDS) == set().union(*KERNELS_RUN.values())
    for form, law_id in GUARDS.items():
        assert form in kernels_run[law_id], f"{form} no longer runs in {law_id}"
