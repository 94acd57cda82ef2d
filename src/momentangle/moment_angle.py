"""Cohomology of moment-angle manifolds by full-subcomplex decomposition.

For a simplicial complex K on m vertices the moment-angle space Z_K inside
(D^2)^m has integral cohomology

    H^p(Z_K)  =  direct sum over all subsets J of the vertices of
                 H~^{p - |J| - 1}(K_J),

where K_J is the full subcomplex on J and H~ is reduced cohomology.  The
empty subset contributes H~^{-1}(empty) = Z in degree 0, the unit.  This
module evaluates that sum over the subsets as bitmasks.

Reduced cohomology of each K_J is obtained from integral homology by
universal coefficients: ranks agree, torsion shifts up one degree.  Ranks
therefore land in degree |J| + 1 + q for homology degree q, torsion in
degree |J| + 2 + q.

The homology of each K_J comes from the bitmask engine in
:mod:`momentangle.homology`: the faces of K are listed once per call (once
per worker) as vertex bitmasks with sparse boundary columns, K_J keeps the
faces inside J, and one sparse elimination on those columns, ±1 pivots
first, gives each boundary map's rank and torsion.  No complex or matrix
object is built per subset.  Two exact rules settle
a subset with no matrix at all: a K_J that is a cone (some vertex of J is
joined to every face of K_J) has H~ = 0 and contributes nothing, and a
K_J of dimension at most 1, a graph, has H~_0 and H~_1 counted by a
union-find.  On a certified sphere the complement of a cone needs no
special case: H~(K_J) = 0 exactly when H~(K_{V-J}) = 0, so its mirrored
contribution is zero too.

When K is a Z-homology d-sphere on its m vertices, as the dual complex of
every simple polytope is, Alexander duality gives H~^i(K_J) = H~_{d-1-i}(K_{V-J})
with torsion (the bigraded Poincare duality of Buchstaber and Panov, *Toric
Topology*, AMS 2015).  Then only one subset of each pair {J, V - J} is
computed: those with 2|J| < m, and those with 2|J| = m that leave out
vertex m - 1.  A rank r_q of H~_q(K_J) also lands at (m - |J|, m + d - q - |J|)
and a torsion group at degree m + d - q - |J|.  Sphere-ness is certified
once per call, before any work is split, by ``_Faces.sphere_dimension``
(the homology of every face link); every other complex gets all 2^m
subsets.

Before any of that, K is split into its finest join factorisation
K = K_{A_1} * ... * K_{A_r} by ``_Faces.join_factors``: the vertices of each
minimal non-face are joined in one component, and the components are the
A_i; a ghost vertex is a {∅} factor and a cone apex a point factor.  Since
Z_{K*L} = Z_K x Z_L, each factor is summed on its own (its own faces,
sphere certificate, duality and pool rule), and the results are combined
by the Kunneth formula: ranks convolve over (|J|, degree), and torsion
picks up (Z/b)^r from Z^r (x) Z/b and Z/gcd(a, b) from both Z/a (x) Z/b
and Tor(Z/a, Z/b), the Tor term one degree lower.  A join then costs
2^{m_1} + ... + 2^{m_r} subsets instead of 2^m.  The search reads the
faces already listed for K and stops once one component is left, so a
complex that is not a join pays one face listing, as before.  The subset
cap still counts all m vertices of K, whatever its factors.

The subset loop is embarrassingly parallel: worker i of w takes the masks
congruent to i mod w, so every worker gets the same mix of subset sizes,
and the parts are merged by a commutative sum, so results are identical
for every worker count.  A sum runs in the calling process whatever the
worker count unless its computed subsets times the faces of K reach
400 000; this threshold applies to each join factor separately.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from math import gcd
from typing import Mapping

from .homology import GradedGroups, _Faces, invariant_factors
from .simplicial import SimplicialComplex

DEFAULT_MAX_VERTICES = 22

# Below this much work, the subsets computed (2^(m-1) on a certified sphere,
# 2^m otherwise) times the faces of K, the sum runs in this process
# whatever the worker count.  A 2-process pool costs 15-25 ms to start and
# stop, each worker lists the faces again, and the sphere certificate runs
# before it.  Serial / 2-worker time, medians of 9 alternating runs, two
# series, 2-vCPU VM, Python 3.11 (work in thousands):
# polygon-12 (51) 0.43-0.48, polygon-14 (238) 0.71-0.81, polygon-15 (508)
# 1.04-1.34, polygon-16 (1081) 1.53-1.60; cube-5 cut at vertex 0 (280)
# 0.84-0.87, cube-6 cut at vertex 0 (3240) 1.33-1.45, simplex-4 after 8
# cuts (586) 1.34-1.54; the full sums on RP^2 with a 4-edge pendant path
# (41) 0.67-0.73 and with a 6-edge one (180) 1.23-1.29.  Work counts faces,
# not elimination, so the last, where elimination dominates, stays serial
# and loses about a fifth.
_POOL_MIN_WORK = 400_000

# rank counts keyed by (|J|, total degree), torsion factor lists by total degree
_Contributions = tuple[Counter, dict[int, list[int]]]


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
    faces: _Faces, sphere_dim: int | None, part: int, parts: int
) -> _Contributions:
    """Accumulate contributions of the bitmask subsets ≡ ``part`` mod ``parts``.

    Returns rank counts keyed by (|J|, total degree) and torsion factor
    lists keyed by total degree.  When K is a Z-homology sphere of
    dimension ``sphere_dim``, only one subset of each pair {J, V - J} is
    computed, and its groups are also added for the complement by
    Alexander duality.
    """
    m = faces.vertex_count
    ranks: Counter = Counter()
    torsion: dict[int, list[int]] = {}
    for mask in range(part, 1 << m, parts):
        size = bin(mask).count("1")
        if sphere_dim is not None and (
            2 * size > m or (2 * size == m and mask >> (m - 1) & 1)
        ):
            continue  # the complement of a computed subset
        for q, (r, t) in faces.homology(mask).items():
            if r:
                ranks[(size, q + size + 1)] += r
            if t:
                torsion.setdefault(q + size + 2, []).extend(t)
            if sphere_dim is not None:
                # ranks of H~_{d-1-q}(K_{V-J}) and torsion of H~_{d-2-q}(K_{V-J})
                mirrored = m + sphere_dim - q - size
                if r:
                    ranks[(m - size, mirrored)] += r
                if t:
                    torsion.setdefault(mirrored, []).extend(t)
    return ranks, torsion


def _usable_workers(requested: int) -> int:
    """``requested`` capped at the number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(requested, cpus)


def _kunneth(x: _Contributions, y: _Contributions) -> _Contributions:
    """Contributions for Z_K x Z_L from those for Z_K and for Z_L.

    Ranks convolve over the keys (|J|, degree).  Torsion follows the
    cohomology Kunneth formula H^n(X x Y) = (+)_{p+q=n} H^p (x) H^q
    (+) (+)_{p+q=n+1} Tor(H^p, H^q), with Z^r (x) Z/b = (Z/b)^r and
    Z/a (x) Z/b = Tor(Z/a, Z/b) = Z/gcd(a, b).
    """
    (x_ranks, x_torsion), (y_ranks, y_torsion) = x, y
    ranks: Counter = Counter()
    for (x_size, p), r in x_ranks.items():
        for (y_size, q), s in y_ranks.items():
            ranks[(x_size + y_size, p + q)] += r * s
    x_free: Counter = Counter()
    for (_, p), r in x_ranks.items():
        x_free[p] += r
    y_free: Counter = Counter()
    for (_, q), s in y_ranks.items():
        y_free[q] += s
    torsion: dict[int, list[int]] = {}
    for p, factors in x_torsion.items():
        for q, s in y_free.items():
            torsion.setdefault(p + q, []).extend(factors * s)
    for q, factors in y_torsion.items():
        for p, r in x_free.items():
            torsion.setdefault(p + q, []).extend(factors * r)
        for p, x_factors in x_torsion.items():
            common = [g for a in x_factors for b in factors if (g := gcd(a, b)) > 1]
            if common:
                torsion.setdefault(p + q, []).extend(common)  # tensor
                torsion.setdefault(p + q - 1, []).extend(common)  # Tor
    return ranks, torsion


def _gather(k: SimplicialComplex, workers: int) -> _Contributions:
    """Rank and torsion contributions of every subset, as ``_subset_contributions``.

    K is split into its join factors first, each factor is summed on its
    own, and the factors' results are combined by ``_kunneth``, since
    Z_{K*L} = Z_K x Z_L; m = 0 has no factor and gives the unit.
    """
    faces = _Faces(k)
    factors = faces.join_factors()
    if len(factors) == 1:
        return _factor_sum(k, faces, workers)
    result: _Contributions = (Counter({(0, 0): 1}), {})
    for vertices in factors:
        factor = k.full_subcomplex(vertices)
        result = _kunneth(result, _factor_sum(factor, _Faces(factor), workers))
    return result


def _factor_sum(k: SimplicialComplex, faces: _Faces, workers: int) -> _Contributions:
    """The subset sum of one join factor, with its own certificate and pool rule."""
    sphere_dim = faces.sphere_dimension()
    computed = 1 << (k.vertex_count - (sphere_dim is not None))
    work = computed * sum(len(layer) for layer in faces.layers)
    workers = _usable_workers(workers) if work >= _POOL_MIN_WORK else 1
    if workers <= 1:
        return _subset_contributions(faces, sphere_dim, 0, 1)
    ranks: Counter = Counter()
    torsion: dict[int, list[int]] = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part_ranks, part_torsion in pool.map(
            _subset_contributions_task,
            [(k, sphere_dim, part, workers) for part in range(workers)],
        ):
            ranks.update(part_ranks)
            for deg, factors in part_torsion.items():
                torsion.setdefault(deg, []).extend(factors)
    return ranks, torsion


def _subset_contributions_task(args):
    k, sphere_dim, part, parts = args
    return _subset_contributions(_Faces(k), sphere_dim, part, parts)


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
