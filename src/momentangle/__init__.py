"""Moment-angle manifold cohomology and vertex-cut surgery verification.

The package computes integral cohomology of moment-angle manifolds Z(P) of
simple polytopes by exact integer linear algebra, performs vertex cutting at
the combinatorial level, predicts the cohomology of the cut manifold from a
connected-sum decomposition, and compares prediction against direct
computation.  The numeric submodule :mod:`momentangle.isotopy` checks the
explicit torus embeddings and isotopies that realize the surgery in low
dimensions.  It is the only one that needs numpy and is not imported with
the package: import its names from ``momentangle.isotopy``.
"""

from .homology import GradedGroups, invariant_factors, reduced_homology
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
    boundary_complex,
    join,
)
from .surgery import (
    TheoremReport,
    theorem_corpus,
    verify_all_cuts,
    verify_cut_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MAX_VERTICES",
    "GradedGroups",
    "PoincarePolynomial",
    "SimplePolytope",
    "SimplicialComplex",
    "SubsetLimitError",
    "TheoremReport",
    "betti",
    "bigraded_table",
    "boundary_complex",
    "cube",
    "invariant_factors",
    "join",
    "moment_angle_cohomology",
    "polygon",
    "product",
    "reduced_homology",
    "simplex_polytope",
    "theorem_corpus",
    "verify_all_cuts",
    "verify_cut_theorem",
]
