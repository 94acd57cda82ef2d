"""Invariants that only the tests read off computed groups and polynomials.

The package renders ``GradedGroups`` and ``PoincarePolynomial`` values; the
checks below (torsion present at all, Euler characteristic, Poincare-duality
symmetry, the product of Poincare polynomials) are what the tests assert
about them.
"""

from __future__ import annotations

from momentangle.moment_angle import PoincarePolynomial


def has_torsion(groups) -> bool:
    """Whether a ``GradedGroups`` value has torsion in any degree."""
    return any(groups.torsion(d) for d in groups.degrees())


def euler_characteristic(poly) -> int:
    """Alternating sum of the coefficients of a ``PoincarePolynomial``."""
    return sum((-1) ** d * poly.coefficient(d) for d in poly.degrees())


def is_symmetric(poly, dimension: int) -> bool:
    """Poincare-duality symmetry b_k = b_{dimension-k} of a ``PoincarePolynomial``."""
    return max(poly.degrees(), default=-1) <= dimension and all(
        poly.coefficient(d) == poly.coefficient(dimension - d) for d in range(dimension + 1)
    )


def poincare_product(a, b) -> PoincarePolynomial:
    """The product of two ``PoincarePolynomial`` values, as for a product of spaces."""
    coefficients: dict[int, int] = {}
    for d in a.degrees():
        for e in b.degrees():
            coefficients[d + e] = coefficients.get(d + e, 0) + a.coefficient(d) * b.coefficient(e)
    return PoincarePolynomial(coefficients)
