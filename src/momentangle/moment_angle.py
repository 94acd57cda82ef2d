"""Cohomology of moment-angle manifolds by full-subcomplex decomposition.

For a simplicial complex K on m vertices the moment-angle space Z_K inside
(D^2)^m has integral cohomology

    H^p(Z_K)  =  direct sum over all subsets J of the vertices of
                 H~^{p - |J| - 1}(K_J),

where K_J is the full subcomplex on J and H~ is reduced cohomology.  The
empty subset contributes H~^{-1}(empty) = Z in degree 0, the unit.  This
module evaluates that sum over the subsets as bitmasks.  Both entry points
also take a simple polytope P for its dual complex K_P, whose moment-angle
manifold is Z(P); the subset cap is checked on m, P's facet count, before
K_P is built.

Reduced cohomology of each K_J is obtained from integral homology by
universal coefficients: ranks agree, torsion shifts up one degree.  A Z in
homology degree q therefore lands in degree |J| + 1 + q, a Z/a in degree
|J| + 2 + q.  The sum is kept as one table, a ``Counter`` keyed by
(|J|, degree, a) that counts the Z/a summands there, with a = 0 standing
for Z; every step below is a few dictionary operations on such tables, and
the cohomology and the bigraded ranks (the a = 0 entries) are read off it.

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
vertex m - 1.  Once the table of those is merged, ``_mirror`` adds the
complements in one pass: a Z in degree e at |J| also lands in degree
m + d + 1 - e at m - |J|, and a Z/a in degree m + d + 2 - e.  Sphere-ness
is certified once per call, before any work is split, by
``_Faces.sphere_dimension`` (the homology of every face link); every other
complex gets all 2^m subsets.

Before any of that, K is split into its finest join factorisation
K = K_{A_1} * ... * K_{A_r} by ``_Faces.join_factors``: the vertices of each
minimal non-face are joined in one component, and the components are the
A_i; a ghost vertex is a {∅} factor and a cone apex a point factor.  Since
Z_{K*L} = Z_K x Z_L, each factor is summed on its own (its own faces,
sphere certificate, duality and pool rule), and the tables are combined by
the Kunneth formula with one rule for every pair of entries: taking
Z = Z/0, Z/a (x) Z/b = Z/gcd(a, b), zero when the gcd is 1, and when a and
b are both nonzero Tor(Z/a, Z/b) adds the same group one degree lower.  A
join then costs 2^{m_1} + ... + 2^{m_r} subsets instead of 2^m.  The search
reads the faces already listed for K and stops once one component is left,
so a complex that is not a join pays one face listing, as before.  The
subset cap still counts all m vertices of K, whatever its factors.

The subset loop is embarrassingly parallel: worker i of w takes the masks
congruent to i mod w, so every worker gets the same mix of subset sizes,
and the parts' tables are added, a commutative sum, so results are
identical for every worker count.  A sum runs in the calling process
whatever the worker count unless its computed subsets times the faces of
K reach 400 000; this threshold applies to each join factor separately.
``concurrent.futures`` is imported only when a pool starts, so a serial
sum never loads the process-pool machinery.
"""

from __future__ import annotations

import os
from collections import Counter
from math import gcd
from typing import Mapping

from .homology import GradedGroups, _Faces
from .polytopes import SimplePolytope
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


def _check_input(
    k: SimplicialComplex | SimplePolytope, max_vertices: int
) -> SimplicialComplex:
    """K itself, or the dual complex of a polytope, once the cap on m holds."""
    polytope = isinstance(k, SimplePolytope)
    if not polytope and k.is_void:
        raise ValueError("moment-angle computation needs a complex with at least one face")
    m = k.facet_count if polytope else k.vertex_count
    if m > max_vertices:
        raise SubsetLimitError(m, max_vertices)
    return k.dual_complex() if polytope else k


def _subset_contributions(
    faces: _Faces, sphere_dim: int | None, part: int, parts: int
) -> Counter:
    """The table of the bitmask subsets ≡ ``part`` mod ``parts``.

    When K is a Z-homology sphere of dimension ``sphere_dim``, only one
    subset of each pair {J, V - J} is taken; ``_mirror`` adds the others.
    """
    m = faces.vertex_count
    table: Counter = Counter()
    for mask in range(part, 1 << m, parts):
        size = bin(mask).count("1")
        if sphere_dim is not None and (
            2 * size > m or (2 * size == m and mask >> (m - 1) & 1)
        ):
            continue  # the complement of a computed subset
        for q, (r, t) in faces.homology(mask).items():
            if r:
                table[(size, q + size + 1, 0)] += r
            for a in t:
                table[(size, q + size + 2, a)] += 1
    return table


def _mirror(half: Counter, m: int, d: int) -> Counter:
    """``half`` plus the groups of the complements of its subsets, on a d-sphere.

    Alexander duality H~^i(K_J) = H~_{d-1-i}(K_{V-J}) sends a Z in degree e
    to degree m + d + 1 - e and a Z/a in degree e to m + d + 2 - e, at
    m - |J|.  It acts group by group, so it applies to a merged table.
    """
    table = Counter(half)
    for (size, e, a), n in half.items():
        table[(m - size, m + d + (2 if a else 1) - e, a)] += n
    return table


def _usable_workers(requested: int) -> int:
    """``requested`` capped at the number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(requested, cpus)


def _kunneth(x: Counter, y: Counter) -> Counter:
    """The table of Z_K x Z_L from the tables of Z_K and of Z_L.

    The cohomology Kunneth formula is H^n(X x Y) = (+)_{p+q=n} H^p (x) H^q
    (+) (+)_{p+q=n+1} Tor(H^p, H^q).  With Z = Z/0, Z/a (x) Z/b = Z/gcd(a, b)
    for all a, b, and Tor(Z/a, Z/b) is the same group when a and b are both
    nonzero and 0 otherwise; a gcd of 1 is the zero group.
    """
    table: Counter = Counter()
    for (x_size, p, a), r in x.items():
        for (y_size, q, b), s in y.items():
            g = gcd(a, b)
            if g != 1:
                table[(x_size + y_size, p + q, g)] += r * s
                if a and b:
                    table[(x_size + y_size, p + q - 1, g)] += r * s
    return table


def _gather(k: SimplicialComplex, workers: int) -> Counter:
    """The table of every subset of K, as ``_subset_contributions`` gives it.

    K is split into its join factors first, each factor is summed on its
    own, and the factors' tables are combined by ``_kunneth``, since
    Z_{K*L} = Z_K x Z_L; m = 0 has no factor and gives the unit.
    """
    faces = _Faces(k)
    factors = faces.join_factors()
    if len(factors) == 1:
        return _factor_sum(k, faces, workers)
    table = Counter({(0, 0, 0): 1})
    for vertices in factors:
        factor = k.full_subcomplex(vertices)
        table = _kunneth(table, _factor_sum(factor, _Faces(factor), workers))
    return table


def _factor_sum(k: SimplicialComplex, faces: _Faces, workers: int) -> Counter:
    """The subset sum of one join factor, with its own certificate and pool rule."""
    sphere_dim = faces.sphere_dimension()
    computed = 1 << (k.vertex_count - (sphere_dim is not None))
    work = computed * sum(len(layer) for layer in faces.layers)
    workers = _usable_workers(workers) if work >= _POOL_MIN_WORK else 1
    if workers <= 1:
        table = _subset_contributions(faces, sphere_dim, 0, 1)
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            table = sum(
                pool.map(
                    _subset_contributions_task,
                    [(k, sphere_dim, part, workers) for part in range(workers)],
                ),
                Counter(),
            )
    if sphere_dim is None:
        return table
    return _mirror(table, k.vertex_count, sphere_dim)


def _subset_contributions_task(args):
    k, sphere_dim, part, parts = args
    return _subset_contributions(_Faces(k), sphere_dim, part, parts)


def moment_angle_cohomology(
    k: SimplicialComplex | SimplePolytope,
    *,
    workers: int = 1,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> GradedGroups:
    """Integral cohomology of Z_K as graded groups, degree 0 upward.

    A polytope P stands for its dual complex K_P, so Z_K is Z(P).
    """
    groups: dict[int, list] = {}
    for (_, degree, a), n in _gather(_check_input(k, max_vertices), workers).items():
        group = groups.setdefault(degree, [0, []])
        if a:
            group[1] += [a] * n
        else:
            group[0] += n
    return GradedGroups(groups)


def bigraded_table(
    k: SimplicialComplex | SimplePolytope,
    *,
    workers: int = 1,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> dict[tuple[int, int], int]:
    """Rank contributions keyed by (subset size, total degree).

    ``k`` is taken as in :func:`moment_angle_cohomology`.  Column sums over
    subset size reproduce the Betti numbers; the (0, 0) entry is always 1,
    coming from the empty subset.
    """
    table = _gather(_check_input(k, max_vertices), workers)
    return {(size, degree): n for (size, degree, a), n in sorted(table.items()) if not a}


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


def betti(groups: GradedGroups) -> PoincarePolynomial:
    """Rank-only view of graded groups; degrees below 0 are dropped."""
    return PoincarePolynomial(
        {d: groups.rank(d) for d in groups.degrees() if d >= 0 and groups.rank(d)}
    )
