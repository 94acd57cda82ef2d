"""
Cutting a vertex and predicting the new manifold
================================================

Slicing one vertex off a simple polytope adds a facet; the moment-angle
manifold gains two dimensions and decomposes up to cohomology as a
connected sum: a piece W built from the old manifold alone, plus binomial
many products of spheres.  Both sides are computable exactly, so the
decomposition can be checked degree by degree.
"""

from momentangle import (
    betti,
    moment_angle_cohomology,
    polygon,
    theorem_corpus,
    verify_all_cuts,
    verify_cut_theorem,
)

# Start with the square.  Z(square) = S^3 x S^3, and cutting any vertex
# turns it into the pentagon, whose manifold is a 5-fold connected sum.
square = polygon(4)
print("Z(square): ", betti(moment_angle_cohomology(square)))
print("Z(pentagon):", betti(moment_angle_cohomology(polygon(5))))
print()

report = verify_cut_theorem(square, 0, description="square")
print("cut vertex 0 of the square:")
print("  computed (cut then decompose): ", betti(report.lhs))
print("  predicted (surgery on Z alone):", betti(report.rhs))
print("  match:", report.match)
print()

# The same check, run over every vertex of every polytope in the standard
# family.  Cutting different vertices of a polygon gives the same polygon,
# so all rows inside one entry agree; the point is that nothing mismatches.
print(f"{'polytope':<18} {'m':>3} {'n':>3} {'cuts':>5}  result")
for name, p in theorem_corpus():
    reports = verify_all_cuts(p, description=name)
    ok = all(r.match for r in reports)
    print(f"{name:<18} {p.m:>3} {p.n:>3} {len(reports):>5}  "
          + ("all match" if ok else "MISMATCH"))

print()

# Reports serialize; a matching run has an empty diff section.
import json

print("the square report as JSON:")
print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
