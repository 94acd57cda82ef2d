"""
A first tour: from simple polytopes to moment-angle cohomology
==============================================================

Every simple polytope P (n-dimensional, m facets) has a dual boundary
complex K_P, and K_P determines a closed (m+n)-manifold Z(P).  This script
builds a few small polytopes and prints the graded cohomology of their
manifolds, computed exactly over the integers.  The functions take a
polytope as it is, or any simplicial complex K.
"""

from momentangle import (
    betti,
    bigraded_table,
    boundary_complex,
    moment_angle_cohomology,
    polygon,
    simplex_polytope,
)
from momentangle.simplicial import SimplicialComplex

# The triangle: Z is the 5-sphere.
triangle = simplex_polytope(2)
groups = moment_angle_cohomology(triangle)
print("triangle  (m=3, n=2):", betti(groups))

# Boundaries of simplices always give odd spheres, Z(Delta^{n}) = S^{2n+1}.
for m in range(2, 6):
    groups = moment_angle_cohomology(boundary_complex(m - 1))
    print(f"boundary of the {m}-vertex simplex:", betti(groups))

print()

# Polygons: the square gives S^3 x S^3, and from the pentagon on the
# manifolds are connected sums of products of spheres.
for m in range(3, 9):
    groups = moment_angle_cohomology(polygon(m))
    print(f"polygon with {m} edges  (dimension {m + 2}):", betti(groups))

print()

# The ranks split by the size of the vertex subset that produces them.
# Rows of this table: (subset size, total degree) -> rank.
print("bigraded ranks for the pentagon:")
for (size, degree), rank in bigraded_table(polygon(5)).items():
    print(f"  subsets of size {size}, degree {degree}: rank {rank}")

print()

# Torsion passes through unchanged.  A 6-vertex triangulation of the real
# projective plane appears as a full subcomplex of itself, so Z carries a
# Z/2 in degree 1 + 6 + 2 = 9.
rp2 = SimplicialComplex(
    6,
    [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
        (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
    ],
)
groups = moment_angle_cohomology(rp2)
print("projective-plane complex, degrees with torsion:")
for d in groups.degrees():
    if groups.torsion(d):
        print(f"  degree {d}: rank {groups.rank(d)}, torsion {groups.torsion(d)}")
