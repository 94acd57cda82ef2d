"""Invariants that only the tests read off computed ``GradedGroups`` values.

The package renders the groups, and ``betti`` their Poincare polynomial as
text; the checks below (torsion present at all, Euler characteristic,
Poincare-duality symmetry, the product of Poincare polynomials) are what
the tests assert about them.  Like ``betti``, the rank checks read
``groups.rank(d)`` in degrees 0 and up and leave torsion out.
"""

from __future__ import annotations

from momentangle.homology import GradedGroups


def has_torsion(groups) -> bool:
    """Whether a ``GradedGroups`` value has torsion in any degree."""
    return any(groups.torsion(d) for d in groups.degrees())


def ranks(groups) -> dict[int, int]:
    """The nonzero free ranks in degrees 0 and up: the Poincare polynomial's coefficients."""
    return {d: groups.rank(d) for d in groups.degrees() if d >= 0 and groups.rank(d)}


def euler_characteristic(groups) -> int:
    """Alternating sum of the free ranks."""
    return sum((-1) ** d * r for d, r in ranks(groups).items())


def is_symmetric(groups, dimension: int) -> bool:
    """Poincare-duality symmetry b_k = b_{dimension-k} of the free ranks."""
    b = ranks(groups)
    return max(b, default=-1) <= dimension and all(
        b.get(d, 0) == b.get(dimension - d, 0) for d in range(dimension + 1)
    )


def poincare_product(a, b) -> GradedGroups:
    """The free ranks of a product of spaces, from the ranks of its two factors."""
    coefficients: dict[int, int] = {}
    for d, x in ranks(a).items():
        for e, y in ranks(b).items():
            coefficients[d + e] = coefficients.get(d + e, 0) + x * y
    return GradedGroups.from_ranks(coefficients)
