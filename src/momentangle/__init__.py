"""Moment-angle manifold cohomology and vertex-cut surgery verification.

The package computes integral cohomology of moment-angle manifolds Z(P) of
simple polytopes by exact integer linear algebra, performs vertex cutting at
the combinatorial level, predicts the cohomology of the cut manifold from a
connected-sum decomposition, and compares prediction against direct
computation.  A numeric submodule checks the explicit torus embeddings and
isotopies that realize the surgery in low dimensions.
"""

from .homology import (
    GradedGroups,
    IntegerMatrix,
    boundary_matrix,
    invariant_factors,
    reduced_homology,
    smith_normal_form,
)
from .isotopy import (
    EndpointReport,
    InjectivityReport,
    circle_distance,
    endpoint_checks,
    injectivity_probe,
    isotopy_batch,
    isotopy_map,
    standard_map,
    standard_torus_batch,
)
from .moment_angle import (
    DEFAULT_MAX_VERTICES,
    PoincarePolynomial,
    SubsetLimitError,
    betti,
    bigraded_table,
    moment_angle_cohomology,
)
from .polytopes import (
    SimplePolytope,
    cube,
    polygon,
    product,
    simplex_polytope,
)
from .simplicial import (
    SimplicialComplex,
    Simplex,
    as_simplex,
    boundary_complex,
    full_simplex,
    join,
)
from .surgery import (
    TheoremReport,
    boundary_product_groups,
    connected_sum_groups,
    predict_cut_betti,
    sphere_product_sum_groups,
    theorem_corpus,
    verify_all_cuts,
    verify_cut_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MAX_VERTICES",
    "EndpointReport",
    "GradedGroups",
    "InjectivityReport",
    "IntegerMatrix",
    "PoincarePolynomial",
    "Simplex",
    "SimplePolytope",
    "SimplicialComplex",
    "SubsetLimitError",
    "TheoremReport",
    "as_simplex",
    "betti",
    "bigraded_table",
    "boundary_complex",
    "boundary_matrix",
    "boundary_product_groups",
    "circle_distance",
    "connected_sum_groups",
    "cube",
    "endpoint_checks",
    "full_simplex",
    "injectivity_probe",
    "invariant_factors",
    "isotopy_batch",
    "isotopy_map",
    "join",
    "moment_angle_cohomology",
    "polygon",
    "predict_cut_betti",
    "product",
    "reduced_homology",
    "simplex_polytope",
    "smith_normal_form",
    "sphere_product_sum_groups",
    "standard_map",
    "standard_torus_batch",
    "theorem_corpus",
    "verify_all_cuts",
    "verify_cut_theorem",
]
