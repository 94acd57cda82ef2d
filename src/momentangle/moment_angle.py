"""Cohomology of moment-angle manifolds by full-subcomplex decomposition.

For a simplicial complex K on m vertices the moment-angle space Z_K inside
(D^2)^m has integral cohomology

    H^p(Z_K)  =  direct sum over all subsets J of the vertices of
                 H~^{p - |J| - 1}(K_J),

where K_J is the full subcomplex on J and H~ is reduced cohomology.  The
empty subset contributes H~^{-1}(empty) = Z in degree 0, the unit.  This
module evaluates that sum by enumerating all 2^m subsets as bitmasks.

Reduced cohomology of each K_J is obtained from integral homology by
universal coefficients: ranks agree, torsion shifts up one degree.  Ranks
therefore land in degree |J| + 1 + q for homology degree q, torsion in
degree |J| + 2 + q.

The subset loop is embarrassingly parallel: work is split over contiguous
bitmask ranges and merged by a commutative sum, so results are identical for
every worker count.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from typing import Mapping

from .homology import GradedGroups, invariant_factors, reduced_homology
from .simplicial import SimplicialComplex

DEFAULT_MAX_VERTICES = 22


class SubsetLimitError(Exception):
    """Raised when the 2^m subset enumeration would exceed the configured cap."""

    def __init__(self, m: int, limit: int):
        self.m = m
        self.limit = limit
        # 2^m is spelled out only while it is short; hostile input can make m huge
        count = f"2^{m} = {2**m}" if m <= 64 else f"2^{m}"
        super().__init__(
            f"complex has {m} vertices: enumerating {count} subsets "
            f"exceeds the limit 2^{limit}; raise the max-subsets exponent to proceed"
        )


def _check_input(k: SimplicialComplex, max_vertices: int) -> None:
    if k.is_void:
        raise ValueError("moment-angle computation needs a complex with at least one face")
    if k.vertex_count > max_vertices:
        raise SubsetLimitError(k.vertex_count, max_vertices)


def _subset_contributions(
    k: SimplicialComplex, start: int, stop: int
) -> tuple[Counter, dict[int, list[int]]]:
    """Accumulate contributions of bitmask subsets in [start, stop).

    Returns rank counts keyed by (|J|, total degree) and torsion factor
    lists keyed by total degree.
    """
    ranks: Counter = Counter()
    torsion: dict[int, list[int]] = {}
    m = k.vertex_count
    for mask in range(start, stop):
        J = [v for v in range(m) if mask >> v & 1]
        size = len(J)
        h = reduced_homology(k.full_subcomplex(J))
        for q in h.degrees():
            r = h.rank(q)
            if r:
                ranks[(size, q + size + 1)] += r
            t = h.torsion(q)
            if t:
                torsion.setdefault(q + size + 2, []).extend(t)
    return ranks, torsion


def _usable_workers(requested: int) -> int:
    """``requested`` capped at the number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(requested, cpus)


def _gather(
    k: SimplicialComplex, workers: int
) -> tuple[Counter, dict[int, list[int]]]:
    total = 1 << k.vertex_count
    workers = _usable_workers(workers)
    if workers <= 1:
        return _subset_contributions(k, 0, total)
    bounds = [total * i // workers for i in range(workers + 1)]
    spans = [
        (bounds[i], bounds[i + 1])
        for i in range(workers)
        if bounds[i] < bounds[i + 1]
    ]
    ranks: Counter = Counter()
    torsion: dict[int, list[int]] = {}
    with ProcessPoolExecutor(max_workers=len(spans)) as pool:
        for part_ranks, part_torsion in pool.map(
            _subset_contributions_task, [(k, a, b) for a, b in spans]
        ):
            ranks.update(part_ranks)
            for deg, factors in part_torsion.items():
                torsion.setdefault(deg, []).extend(factors)
    return ranks, torsion


def _subset_contributions_task(args):
    return _subset_contributions(*args)


def moment_angle_cohomology(
    k: SimplicialComplex,
    *,
    workers: int = 1,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> GradedGroups:
    """Integral cohomology of Z_K as graded groups, degree 0 upward."""
    _check_input(k, max_vertices)
    ranks, torsion = _gather(k, workers)
    groups: dict[int, tuple[int, tuple[int, ...]]] = {}
    degree_rank: Counter = Counter()
    for (_, degree), r in ranks.items():
        degree_rank[degree] += r
    for degree in set(degree_rank) | set(torsion):
        groups[degree] = (
            degree_rank.get(degree, 0),
            invariant_factors(torsion.get(degree, ())),
        )
    return GradedGroups(groups)


def bigraded_table(
    k: SimplicialComplex,
    *,
    workers: int = 1,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> dict[tuple[int, int], int]:
    """Rank contributions keyed by (subset size, total degree).

    Column sums over subset size reproduce the Betti numbers; the (0, 0)
    entry is always 1, coming from the empty subset.
    """
    _check_input(k, max_vertices)
    ranks, _ = _gather(k, workers)
    return {key: ranks[key] for key in sorted(ranks)}


class PoincarePolynomial:
    """Finitely supported polynomial with nonnegative integer coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Mapping[int, int] = ()):
        coeffs: dict[int, int] = {}
        for d, c in dict(coefficients).items():
            d, c = int(d), int(c)
            if d < 0:
                raise ValueError(f"degree must be >= 0, got {d}")
            if c < 0:
                raise ValueError(f"coefficient at degree {d} must be >= 0, got {c}")
            if c:
                coeffs[d] = c
        self._coeffs = coeffs

    def coefficient(self, degree: int) -> int:
        return self._coeffs.get(degree, 0)

    def degrees(self) -> list[int]:
        return sorted(self._coeffs)

    @property
    def degree(self) -> int:
        """Largest degree with a nonzero coefficient; -1 for the zero polynomial."""
        return max(self._coeffs, default=-1)

    def total(self) -> int:
        return sum(self._coeffs.values())

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * c for d, c in self._coeffs.items())

    def is_symmetric(self, dimension: int) -> bool:
        """Poincare-duality symmetry b_k = b_{dimension-k}."""
        return all(
            self.coefficient(d) == self.coefficient(dimension - d)
            for d in range(dimension + 1)
        ) and self.degree <= dimension

    def __mul__(self, other: "PoincarePolynomial") -> "PoincarePolynomial":
        if not isinstance(other, PoincarePolynomial):
            return NotImplemented
        out: dict[int, int] = {}
        for d1, c1 in self._coeffs.items():
            for d2, c2 in other._coeffs.items():
                out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
        return PoincarePolynomial(out)

    def __add__(self, other: "PoincarePolynomial") -> "PoincarePolynomial":
        if not isinstance(other, PoincarePolynomial):
            return NotImplemented
        out = dict(self._coeffs)
        for d, c in other._coeffs.items():
            out[d] = out.get(d, 0) + c
        return PoincarePolynomial(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PoincarePolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for d in self.degrees():
            c = self._coeffs[d]
            if d == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                parts.append(f"{head}t" if d == 1 else f"{head}t^{d}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"PoincarePolynomial({self._coeffs!r})"

    def to_json_dict(self) -> dict:
        return {str(d): c for d, c in sorted(self._coeffs.items())}


def betti(groups: GradedGroups) -> PoincarePolynomial:
    """Rank-only view of graded groups; degrees below 0 are dropped."""
    return PoincarePolynomial(
        {d: groups.rank(d) for d in groups.degrees() if d >= 0 and groups.rank(d)}
    )
