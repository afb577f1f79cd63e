"""Exact-arithmetic toolkit for doubled Odd graphs.

Builds the doubled Odd graph on 2m+1 points, the centralizer algebra of the
stabilizer of a base vertex, and the Terwilliger algebra with respect to that
base vertex, entirely over the rationals.  Every headline structural fact
(orbit counts, closed-form index sets, dimension formulas, subalgebra
decompositions, the antipodal 2-cover of the Odd graph) is rechecked
mechanically at small m; the `doubled-odd` command line front end packages
those checks into JSON reports.
"""

__version__ = "0.1.0"

from .combinatorics import (
    GroundSet,
    enumerate_vertices,
    vertex_index,
    distance,
    adjacency_matrix,
    distance_matrix,
    intersection_numbers,
    DistanceRegularityError,
)
from .linalg import (
    SparseExactMatrix,
    SpanBasis,
    ClosureResult,
    ShapeMismatchError,
    DimCapExceededError,
    NotClosedError,
    vectorize,
    matrix_from_vector,
    span,
    contains,
    algebra_closure,
    centralizer_within,
    write_coord_text,
    read_coord_text,
)
from .orbits import (
    BlockTag,
    OrbitLabel,
    IndependenceError,
    rho,
    index_set,
    enumerate_index_set,
    tuple_bijection,
    orbit_labels,
    orbit_matrix,
    orbit_matrices,
    orbits_by_group_action,
    build_centralizer,
    check_subalgebra,
    CentralizerBasis,
)
from .terwilliger import (
    dual_idempotent,
    dual_idempotents,
    TerwilligerAlgebra,
    build_terwilliger,
    verify_sandwich_identities,
    verify_inclusion,
    verify_equality,
    center_basis,
    center_dimension,
    upsilon,
    block_profile,
    BlockProfile,
)
from .covering import (
    odd_vertices,
    odd_adjacency,
    build_psi,
    verify_intertwining,
)
from .checks import (
    CHECK_IDS,
    RunConfig,
    ConfigError,
    VerificationReport,
    run,
    render_reports,
    export_matrices,
    cache_basis,
    load_basis,
)
