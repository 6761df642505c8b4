"""Dual-representation states for finite-dimensional unitary quantum systems.

Systems form a boolean lattice over dimensioned atoms.  Each system carries
two state descriptions: the *noumenal* one, an evolution-matrix grid that
is complete and local (restrictions compose back to the whole), and the
*phenomenal* one, the familiar density operator capturing exactly what is
locally observable.  A reference-state-indexed epimorphism maps the first
onto the second and commutes with operations and partial traces; it is not
injective, which the Bell demonstration exhibits concretely.
"""

from .errors import (
    AnchorMismatch,
    BasisMismatch,
    CompatibilityViolation,
    DimensionMismatch,
    DisjointnessViolation,
    IndexOutOfRange,
    LatticeMismatch,
    NotGlobalOperator,
    NotOrthonormal,
    NotSubsystem,
    NoumenalError,
    ParseError,
    ScenarioPreconditionFailed,
    SizeBoundExceeded,
    SystemMismatch,
    ValidationError,
)
from .lattice import AtomSpec, System, SystemLattice
from .linalg import (
    GATES,
    TOL_EQ,
    TOL_PSD,
    TOL_UNITARY,
    DensityOperator,
    UnitaryOperator,
    embed_operator,
    haar_random_unitary,
    haar_unitary,
    index_map,
    matrix_from_json,
    matrix_to_json,
    max_abs,
    merge_indices,
    partial_trace,
    phenomenal_partial_trace,
    product_of_operations,
    random_density_matrix,
    random_pure_state,
    tensor_operators,
)
from .evolution import (
    CANONICAL,
    ConsistencyReport,
    EvolutionMatrix,
    OperatorMatrix,
    change_of_basis,
    consistency_check,
    from_global_unitary,
    identity_evolution,
    noumenal_action,
    noumenal_distance,
    noumenal_equal,
    noumenal_partial_trace,
    noumenal_product,
)
from .phenomenal import (
    basis_state_vector,
    default_anchor,
    homomorphism_residual,
    phenomenal_action,
    phi,
    pure_density,
    surjectivity_witness,
    trace_commutation_residual,
    unitary_mapping,
)
from .extension import (
    ExtendedNoumenalState,
    ext_action,
    ext_epimorphism,
    ext_product,
    ext_trace,
    mixed_state_witness,
)
from .reports import LawReport, ScenarioResult, render_law_table, render_scenario
from .laws import LAWS, run_law_suite
from .demos import MARGIN_DISTINCT, bell_incompleteness_demo, no_signalling_demo
from .circuits import Circuit, GateApplication, circuit_from_json, load_circuit, simulate_circuit

__version__ = "0.1.0"
