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
P's vertex records are read as K_P's maximal faces.

Reduced cohomology of each K_J is obtained from integral homology by
universal coefficients: ranks agree, torsion shifts up one degree.  A Z in
homology degree q therefore lands in degree |J| + 1 + q, a Z/a in degree
|J| + 2 + q.  The sum is kept as one table, a ``Counter`` keyed by
(|J|, degree, a) that counts the Z/a summands there, with a = 0 standing
for Z; every step below is a few dictionary operations on such tables, and
the cohomology and the bigraded ranks (the a = 0 entries) are read off it.

The subsets are walked depth first: J's children are J ∪ {v} for v below
min J, so each subset is reached once, from J minus its lowest vertex.
The faces of each walked join factor of K are listed once per call (once
per pool task) by :mod:`momentangle.homology`, as the keys of ext[f], the
vertices w with f ∪ {w} a face.  v's link in K_{J ∪ v} is the full
subcomplex of lk_K(v) on A = J ∩ N(v), N(v) its neighbours, so v's link
groups come from ``_Faces.link``, the faces of lk {v} inside A: H~ = 0
when some vertex of A lies in ext[f ∪ {v}] for every face f of the link
(a cone), else ``_reduced_groups``.  They are memoised,
A -> H~(lk(v)_A), at each v with at most ``_MEMO_NEIGHBOURS`` = 10
neighbours numbered above it, so a memo holds at most 2^10 entries.  An
A recurs only when a vertex above v is not its neighbour; on ∂C(18, 6),
a 3-neighbourly 5-sphere, none is, and an unbounded memo would hold an
entry per visited subset.  The child is settled:

- v a ghost vertex: the parent's groups;
- A = ∅: the parent's groups plus a Z in H~_0, or zero if K_J has no
  vertex, kept per parent's groups so that each is built once;
- H~(lk(v)_A) = 0: by Mayer-Vietoris on K_J and v's star, which meet in
  the link, the parent's groups (a cone link is the strong collapse of a
  dominated vertex, Barmak and Minian, *Discrete Comput. Geom.* 47, 2012);
- the parent's groups are 0: by the same sequence H~_n(K_{J ∪ v}) =
  H~_{n-1}(lk(v)_A), torsion included;
- otherwise ``homology._reduced_groups`` on the link of ∅ inside J ∪ {v},
  the faces of K_{J ∪ v}: a union-find for a graph, else one sparse
  elimination, ±1 pivots first.

No face list is kept from step to step, and none of these hides torsion:
each takes the groups of the parent or of a link, computed in turn.  Each
distinct H~ is interned once per walk as a small int (0 acyclic, 1 K_∅),
the point child is an id -> id list, and the subsets are counted in one
list per |J|, indexed by id, and spread into the table at the end.  The
walk's loop settles ghosts, points, memoised acyclic links and the one
child J ∪ {0, 1} of each J ∪ {1} with no call.  On a certified sphere an
acyclic K_J needs no special case: H~(K_J) = 0 exactly when
H~(K_{V-J}) = 0, so its mirrored contribution is zero too.

Which rule settles a step depends on how the vertices are numbered: when
v's neighbours numbered above v span a face with v, v's link in K_{J ∪ v}
is the simplex on the neighbours in J, so the step reuses the parent's
groups or adds a point, and nothing is settled.  So each walked join
factor is numbered by a maximum cardinality search (``_order``; Tarjan
and Yannakakis, *SIAM J. Comput.* 13, 1984) before its faces are listed:
labels go from the top down, each to the vertex with the most labelled
neighbours, ties to a neighbour of the vertex labelled last.  On a flag
complex with a chordal 1-skeleton that holds at every vertex; a polygon
is numbered along its cycle, so only the lowest vertex has two
neighbours above it.  The table, keyed by (|J|, degree, a), does not
depend on the numbering, and a factor summed unlisted is not numbered.

When K is a Z-homology d-sphere on its m vertices, as the dual complex of
every simple polytope is, Alexander duality gives H~^i(K_J) = H~_{d-1-i}(K_{V-J})
with torsion (the bigraded Poincare duality of Buchstaber and Panov, *Toric
Topology*, AMS 2015).  Then only one subset of each pair {J, V - J} is
visited: those with 2|J| < m, and those with 2|J| = m that leave out
vertex m - 1, so the walk stops descending at |J| = floor(m/2).  Once
the table of those is merged, ``_mirror`` adds the complements in one
pass: a Z in degree e at |J| also lands in degree
m + d + 1 - e at m - |J|, and a Z/a in degree m + d + 2 - e.  Sphere-ness
is certified once per join factor, before any work is split and before
any numbering, by ``homology._facet_sphere`` from the factor's facets on
its vertices as given (for d ≥ 3 it lists their faces itself), unless K
is known to be a sphere: ``verify`` sums P first and, when every factor
of K_P passes, takes each factor of each cut's dual to be a sphere of its
own dimension (``surgery._verify_cuts``); every other complex gets 2^m
subsets.

A graph, a connected closed surface and a 3-sphere are not walked at all
(``_sphere_table``).  For 0 < |J| < m, and for J = V on a graph, K_J has
free homology with H~_0 of rank c(J) - 1, c counting the components of J
in the 1-skeleton: K_J is a graph; or it is a proper full subcomplex of a
closed surface, which collapses to a graph (Whitehead, *Proc. London
Math. Soc.* 45, 1939); or duality on a 3-sphere leaves H~_2 of rank
c(V - J) - 1 (Bjorner and Tancer, *Discrete Comput. Geom.* 42, 2009).
The Euler characteristic then fixes the one rank left.  The table only
needs sums over |J| = s: that of χ̃(K_J) is a closed form in the f-vector,
which m and the facet count fix on a surface or a 3-sphere (Klee, *Canad.
J. Math.* 16, 1964), and that of c(J) counts each connected vertex set S
once, as a component of each of the binom(m - |S| - |N(S)|, s - |S|) sets
J that hold S and miss N(S), its neighbours outside it.  A circle needs no
connected set, and no S with S ∪ N(S) = V is grown: every set holding it
is connected.  J = V on a surface is one entry: H_1 = Z^(2 - χ) and H_2 =
Z when K is orientable, H_1 = Z^(1 - χ) (+) Z/2 and H_2 = 0 when it is
not, read off the facets by ``homology._surface``; χ = 2 makes K S^2.
Only the facets and the split's neighbour masks (below) are read, in the
calling process at any worker count, so such a factor is summed on its
vertices as given, and is neither numbered nor listed for the sum.

Before any of that, K is split into its finest join factorisation
K = K_{A_1} * ... * K_{A_r} by one test on the maximal faces as bitmasks:
A splits off when the facets number |{F ∩ A}| |{F - A}|, and then the
traces F ∩ A are K_A's maximal faces, so its faces are listed from them;
a ghost vertex is a {∅} factor and a cone apex a point factor.  Each A_i
is a union of components of the missing edges (``_components``), and
``_factors`` applies the test to each whole component first; those that
fail, such as the vertices of ∂Δ^2 * ∂Δ^3, which has no missing edge,
are added one at a time, and the test splits the ones added so far.
Since Z_{K*L} = Z_K x Z_L, each factor is summed on its own (its own
faces, sphere certificate, duality and pool rule) by ``_factor_sum``,
which chooses its route: ∂Δ on k vertices, S^0 included, is not listed:
it is a sphere whose proper K_J are simplices, so Z = S^{2k-1}
(Buchstaber and Panov) and its table is 1 at (0, 0, 0) and at
(k, 2k - 1, 0); else the surface test at d = 2 or the certificate, then
``_sphere_table``, else the walk.  ``linked[v]``, the vertices in a facet
of K with v, is built once per call by ``homology._linked`` and, cut to a
factor on A as ``linked[v] & A``, is the one neighbour map of the split,
the search, the certificate and the component sums.  The tables are combined by the
Kunneth formula with one rule for every pair of entries: taking Z = Z/0,
Z/a (x) Z/b = Z/gcd(a, b), zero when the gcd is 1, and when a and b are
both nonzero Tor(Z/a, Z/b) adds the same group one degree lower.  A join
then costs 2^{m_1} + ... + 2^{m_r} subsets instead of 2^m, and lists its
factors' faces, never the join's.  A complex that is not a join pays
one face listing.  The subset cap still counts all m vertices of K,
whatever its factors.

The serial sum is one walk from the root ∅.  A pool walks subtrees
instead: the top t vertices (2^t at least four times the worker count)
fix 2^t prefix roots, each one task that reaches its root by adding the
root's own vertices and walks the vertices below the top t.  The roots
go to the pool fewest vertices first, so on a sphere the largest
subtrees start first, and a free worker takes the next root.  The tasks'
tables are added, a commutative sum, so results are identical for every
worker count.  A sum runs in the calling process whatever the worker count
unless its visited subsets times the faces of K reach 16 000 000; this
threshold applies to each join factor separately, and the factors that
reach it share one pool.  ``concurrent.futures`` is imported only when
a pool starts, so a serial sum never loads the process-pool machinery.
"""

from __future__ import annotations

import os
from collections import Counter
from math import comb, gcd
from types import MappingProxyType
from typing import Collection, Iterable, Iterator

from .homology import GradedGroups, _Faces, _facet_sphere, _linked, _masks, _reduced_groups, _surface
from .polytopes import SimplePolytope
from .simplicial import SimplicialComplex

DEFAULT_MAX_VERTICES = 22

# Below this much work, the subsets visited (2^(m-1) on a certified sphere,
# 2^m otherwise) times the faces of K, the sum runs in this process
# whatever the worker count: a 2-process pool adds 30-55 ms to ``betti``
# (cube-6 cut once or three times, RP^2 with a path), each task lists the
# faces again, and the sphere certificate runs before it.  README
# ("Parallelism and limits") has serial and pooled times of walked inputs.
_POOL_MIN_WORK = 16_000_000

_MEMO_NEIGHBOURS = 10  # the link memo's bound, see the module docstring
_NO_MEMO = MappingProxyType({})  # the memo of every vertex past that bound, always empty


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
) -> tuple[int, list[int]]:
    """m and the maximal faces of K, or of a polytope's dual, as vertex masks.

    The cap on m holds first.  A polytope's vertex records are its dual's
    maximal faces as they stand: they are distinct and all of size n.
    """
    polytope = isinstance(k, SimplePolytope)
    if not polytope and k.is_void:
        raise ValueError("moment-angle computation needs a complex with at least one face")
    m = k.facet_count if polytope else k.vertex_count
    if m > max_vertices:
        raise SubsetLimitError(m, max_vertices)
    return m, _masks(k.vertex_facets if polytope else k.maximal_faces)


# H~ of the empty complex K_∅: a Z in degree -1
_EMPTY = ((-1, (1, ())),)


def _walk(faces: _Faces, sphere_dim: int | None, root: int, low: int) -> Counter:
    """The table of the subsets root ∪ S, S any set of vertices below ``low``.

    J's children are J ∪ {v} for v below min J.  The root is reached by
    adding its own vertices from the top down, then its subtree adds the
    vertices below ``low``, which lie below the root's; ``_walk(faces, d,
    0, m)`` is the whole sum.  When K is a Z-homology sphere of dimension
    ``sphere_dim``, only one subset of each pair {J, V - J} is visited
    (none from a root past that half); ``_mirror`` adds the others.
    """
    m = faces.vertex_count
    ext = faces.ext
    near: list[int | None] = []  # v's neighbours, None for a ghost vertex
    links: list = []  # per v: A -> H~(lk(v)_A)
    for v in range(m):
        n = ext[1 << v] ^ 1 << v if 1 << v in ext else None
        near.append(n)
        links.append({} if ((n or 0) >> v).bit_count() <= _MEMO_NEIGHBOURS else _NO_MEMO)
    groups, ids = [(), _EMPTY], {(): 0, _EMPTY: 1}  # id -> H~ and back: 0 is acyclic, 1 K_∅
    point: list[int | None] = [None, 0]  # id -> its point child's id, once needed
    lifted: dict[tuple, int] = {}  # a link's H~ -> the id of that H~ one degree up
    # subsets of more than ``most`` vertices, or of ``most`` with ``top``,
    # are the complements of visited ones
    most = m if sphere_dim is None else m // 2
    top = 1 << (m - 1) if sphere_dim is not None and 2 * most == m else 0
    tally = [[0, 0] for _ in range(most + 1)]  # per |J|: id -> subsets

    def intern(h: tuple) -> int:
        if h not in ids:
            ids[h] = len(groups)
            groups.append(h)
            point.append(None)
            for counts in tally:
                counts.append(0)
        return ids[h]

    def step(J: int, v: int, g: int, A: int) -> int:
        """The id of K_{J ∪ v}'s groups from K_J's id g and v's link on A = J ∩ N(v), v no ghost."""
        if not A:
            c = point[g]
            if c is None:  # an extra Z in H~_0, which is free and sorts first
                h = groups[g]
                h = ((0, (h[0][1][0] + 1, ())),) + h[1:] if h and h[0][0] == 0 else ((0, (1, ())),) + h
                c = point[g] = intern(h)
            return c  # v is an isolated point
        memo = links[v]
        link = memo.get(A)
        if link is None:  # H~(lk(v)_A), 0 for a cone: a vertex of A in every ext[f ∪ v]
            layers = faces.link(1 << v, A)
            apex = A
            for layer in layers:
                for face in layer:
                    apex &= ext[face | 1 << v]
            link = () if apex else _reduced_groups(layers)
            if memo is not _NO_MEMO:
                memo[A] = link
        if not link:
            return g  # v's link is acyclic: Mayer-Vietoris
        if not g:  # K_J is acyclic: Mayer-Vietoris, the link's groups one degree up
            s = lifted.get(link)
            if s is None:
                s = lifted[link] = intern(tuple((q + 1, group) for q, group in link))
            return s
        return intern(_reduced_groups(faces.link(0, J | 1 << v)))

    def visit(J: int, size: int, g: int, low: int) -> None:
        size += 1
        if size > most or (size == most and J & top):
            return
        counts = tally[size]  # the children's; the grandchildren's below, None if none is visited
        below = tally[size + 1] if size < most and not (size + 1 == most and (J | 2) & top) else None
        for v in range(low):  # the routes of ``step`` that need no call come first
            n = near[v]
            if n is None:
                c = g
            elif not (A := J & n) and point[g] is not None:
                c = point[g]
            elif links[v].get(A) == ():
                c = g
            else:
                c = step(J, v, g, A)
            counts[c] += 1
            if v > 1 and below is not None:
                visit(J | 1 << v, size, c, v)
            elif v == 1 and below is not None:  # J ∪ {1} has one child, J ∪ {0, 1}
                K = J | 2
                if near[0] is None or links[0].get(A := K & near[0]) == ():
                    d = c
                elif not A and point[c] is not None:
                    d = point[c]
                else:
                    d = step(K, 0, c, A)
                below[d] += 1

    size = root.bit_count()
    if size > most or (size == most and root & top):
        return Counter()
    J, g = 0, 1
    for v in range(root.bit_length() - 1, -1, -1):
        if root >> v & 1:
            if near[v] is not None:  # a ghost vertex adds no face
                g = step(J, v, g, J & near[v])
            J |= 1 << v
    tally[size][g] += 1
    # at m = 2 on a sphere, ∅'s child {m - 1} is past the half, but a point adds nothing
    visit(root, size, g, low)
    # visit refers to itself through its closure: unbound here, the faces
    # and lists it holds are freed now, not at some later cyclic collection
    del visit
    table: Counter = Counter()
    for size, counts in enumerate(tally):
        for h, n in zip(groups, counts):
            for q, (r, torsion) in h if n else ():  # the ids counted at this size
                if r:
                    table[(size, q + size + 1, 0)] += r * n
                for a in torsion:
                    table[(size, q + size + 2, a)] += n
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


def _sphere_table(vertices: int, facets: Collection[int], d: int, linked: list[int],
                  orientable: bool | None) -> Counter | None:
    """The table of a graph, a connected closed surface or a Z-homology 3-sphere of dimension
    d on these vertices; None for any other factor, a graph with a ghost vertex included.

    ``orientable`` is True for a circle, an orientable surface or a
    3-sphere, False for a non-orientable surface, and None otherwise.  For
    0 < |J| = s < m, and for J = V on a graph that is no circle, H~(K_J)
    is free, H~_0 of rank c(J) - 1, c counting the components of J in the
    1-skeleton, and on a 3-sphere H~_2 of rank c(V - J) - 1 by duality; the
    alternating sum of the ranks is χ~(K_J), and over |J| = s it sums to
    euler[s], the sum over the faces f of (-1)^(|f|-1) binom(m - |f|,
    s - |f|), with the f-vector (1, m, E), (1, m, 3F/2, F) or (1, m, m + F,
    2F, F) of F facets, E of them edges.  A circle counts no component, a
    proper K_J being a forest with c(J) - 1 = χ~(K_J); the others take the
    sums of c(J) from ``_component_sums``, on the neighbours ``linked[v] &
    vertices``.  K itself has H~_d = Z when orientable, and a surface has
    H~_1 of rank 1 - χ + orientable, plus a Z/2 when it is not orientable.
    """
    if not 0 <= d <= 3 or d > 1 and orientable is None:
        return None
    m, F = vertices.bit_count(), len(facets)
    f = (1, m, F) if d < 2 else (1, m, 3 * F // 2, F) if d == 2 else (1, m, m + F, 2 * F, F)
    if d < 2 and not orientable:  # a graph that is no circle: count its edges, and find no ghost
        covered = edges = 0
        for e in facets:
            covered |= e
            edges += e.bit_count() == 2
        if covered != vertices:
            return None
        f = (1, m, edges)
    euler = [0] * (m + 1)
    for k, n in enumerate(f):  # a face of k vertices adds (-1)^(k-1) to each J around it
        n = n if k % 2 else -n
        for s in range(k, m + 1):
            euler[s] += n * comb(m - k, s - k)
    if d < 2 and orientable:
        count = [euler[s] + comb(m, s) for s in range(m + 1)]
    else:
        count = _component_sums(vertices, linked)
    closed = d > 1 or orientable  # else a graph, K summed with its proper K_J
    table = Counter({(0, 0, 0): 1})
    for s in range(1, m if closed else m + 1):
        subsets = comb(m, s)
        low = count[s] - subsets  # H~_0, H~_2 of a 3-sphere, and the H~_1 they leave
        high = count[m - s] - subsets if d == 3 else 0
        if low:
            table[(s, s + 1, 0)] = low
        if low + high != euler[s]:
            table[(s, s + 2, 0)] = low + high - euler[s]
        if high:
            table[(s, s + 3, 0)] = high
    if closed:  # H~_d = Z, or a non-orientable surface's Z/2 in H~_1, one degree up
        table[(m, m + d + 1, 0 if orientable else 2)] = 1
        if d == 2 and orientable - euler[m]:
            table[(m, m + 2, 0)] = orientable - euler[m]
    return table


def _component_sums(vertices: int, linked: list[int]) -> list[int]:
    """count[s], the components of K_J summed over |J| = s, each vertex in a facet.

    S is a component of K_J exactly when S is connected, S ⊆ J and J
    misses N(S), S's neighbours outside S, so count[s] is the sum over the
    connected S of binom(m - |S| - |N(S)|, s - |S|); v's neighbours are
    ``linked[v] & vertices``, v's own included.  Each connected S is grown
    once from its lowest vertex: a branch adds one vertex of N(S) and bars
    it from the branches after it, until S ∪ N(S) = V.  Then every T ⊇ S
    is connected with N(T) = V - T, binom(f, k) of them of size |S| + k, f
    counting the vertices neither in S nor barred, and none is grown.
    """
    m = vertices.bit_count()
    count = [0] * (m + 1)
    sets = [[0] * (m + 1) for _ in range(m + 1)]  # [|S|][|N(S)|] -> connected S

    def grow(S: int, out: int, size: int, barred: int) -> None:
        if S | out == vertices:  # each T ⊇ S is a component of J = T only
            free = (vertices & ~S & ~barred).bit_count()
            for k in range(1, free + 1):
                count[size + k] += comb(free, k)
            return
        counts = sets[size + 1]
        more = out & ~barred
        while more:
            bit = more & -more
            more ^= bit
            T = S | bit
            beyond = (out | linked[bit.bit_length() - 1] & vertices) & ~T
            counts[beyond.bit_count()] += 1
            grow(T, beyond, size + 1, barred)
            barred |= bit

    for v in range(vertices.bit_length()):
        if vertices >> v & 1:
            grow(0, 1 << v, 0, (1 << v) - 1)
    for a, row in enumerate(sets):  # most rows and cells are zero on a small complex
        for b, n in enumerate(row) if any(row) else ():
            for j in range(m - a - b + 1) if n else ():
                count[a + j] += n * comb(m - a - b, j)
    return count


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


def _components(near: list[int], vertices: int) -> list[int]:
    """The components of a symmetric relation, as vertex masks by lowest vertex.

    ``near[v]`` is the mask of the vertices related to v.  A vertex outside
    ``vertices``, a ghost, is a component alone whatever its mask.
    """
    parts = []
    seen = 0
    for v in range(len(near)):
        if seen >> v & 1:
            continue
        part = todo = 1 << v
        while todo & vertices:  # grow the part along the relation
            low = todo & -todo
            todo ^= low
            new = near[low.bit_length() - 1] & ~part
            part |= new
            todo |= new
        seen |= part
        parts.append(part)
    return parts


def _order(part: int, linked: list[int]) -> list[int]:
    """part's vertices as bits, bits[i] the one labelled i, by maximum cardinality search.

    Labels go from the top down, each to the unlabelled vertex with the most
    labelled neighbours (``linked[v]``, the vertices in a facet with v),
    ties to a neighbour of the vertex labelled last, then to the lowest
    vertex (Tarjan and Yannakakis, *SIAM J. Comput.* 13, 1984).
    """
    count = [0] * len(linked)  # the labelled neighbours of each vertex
    level = [part] + [0] * part.bit_count()  # level[c]: the unlabelled vertices with count c
    top = 0  # the highest nonempty level
    last = 0  # the unlabelled neighbours of the vertex labelled last
    bits = []
    while part:
        while not level[top]:
            top -= 1
        ties = level[top] & last or level[top]
        best = ties & -ties
        level[top] ^= best
        part ^= best
        bits.append(best)
        last = rest = linked[best.bit_length() - 1] & part
        while rest:
            bit = rest & -rest
            rest ^= bit
            u = bit.bit_length() - 1
            level[count[u]] ^= bit
            count[u] += 1
            level[count[u]] |= bit
        if last:
            top += 1  # best's neighbours may now count one more than top
    bits.reverse()  # the first vertex took the top label
    return bits


def _numbered(part: int, facets: Iterable[int], linked: list[int]) -> _Faces:
    """The faces of the factor on ``part`` with these maximal faces, listed with its vertices
    numbered by ``_order``: bits[i] is renumbered i, under which most steps of the walk, and
    of its pool tasks, reuse their parent's groups or add a point (see the module docstring)."""
    bits = _order(part, linked)
    label = {bit: 1 << i for i, bit in enumerate(bits)}
    out = []
    for f in facets:
        g = 0
        while f:
            bit = f & -f
            g |= label[bit]
            f ^= bit
        out.append(g)
    out.sort()
    return _Faces(len(bits), out)


def _factors(facets: list[int], linked: list[int]) -> Iterator[tuple[int, set[int]]]:
    """The finest join factors of K, each as its vertex mask A and its maximal faces.

    ``linked[v]`` holds the vertices in a facet with v, v's own included.
    F -> (F ∩ A, F - A) is one to one on the facets, and K = K_A * K_{V-A}
    exactly when it is onto, so A splits off when the facets number
    |{F ∩ A}| |{F - A}|; the traces F ∩ A are then K_A's maximal faces.
    A missing edge has both ends in one factor (no trace holds both, and
    some trace holds each), so every factor is a union of components of
    the missing edges.  A component that splits off alone is yielded, and
    the next one is tried on the F - A.  The others are added one at a
    time, C to ``seen``, keeping the finest factors of K_seen as blocks:
    a split of K_{seen ∪ C} restricts to one of K_seen, so each factor of
    K_{seen ∪ C} is a union of old blocks or holds C; one that does not
    hold C is a single block, since a union of two could be split
    further; and an old block that passes the test on the new traces
    stays, since splits are kept under common refinement.  So the blocks
    that fail merge into C, and each block is yielded with its traces.
    """
    vertices = sum(1 << v for v, near in enumerate(linked) if near)  # the vertices of K, ghosts left out
    seen = 0  # the vertices of the components that do not split off alone
    blocks: list[int] = []  # the finest join factors of K_seen
    for part in _components([vertices & ~mask for mask in linked], vertices):
        traces = {f & part for f in facets}
        others = {f & ~part for f in facets}
        if len(traces) * len(others) == len(facets):
            yield part, traces
            facets = list(others)
            continue
        seen |= part
        traces = {f & seen for f in facets}
        kept = []
        for block in blocks:
            if len({t & block for t in traces}) * len({t & ~block for t in traces}) == len(traces):
                kept.append(block)
            else:
                part |= block
        blocks = kept + [part]
    for block in blocks:
        yield block, {f & block for f in facets}


def _gather(m: int, facets: list[int], workers: int, sphere: bool = False) -> tuple[Counter, bool]:
    """The table of every subset of K, as ``_walk`` gives it, and whether K is a sphere.

    K is split into its join factors first, each factor is summed on its
    own, and the tables are combined by ``_kunneth``, since Z_{K*L} =
    Z_K x Z_L, from the first one's as it is; m = 0 gives the unit.  With
    ``sphere``, K is known to be a Z-homology sphere, so each factor is one
    of its own dimension and is not certified (see ``surgery._verify_cuts``).
    The flag returned says whether every factor is a sphere, so that K is.
    """
    linked = _linked(facets, m)
    table = None
    spheres = True
    pool: list = []  # the process pool, once started
    try:
        for part, traces in _factors(facets, linked):
            factor, certified = _factor_sum(part, traces, linked, sphere, workers, pool)
            table = factor if table is None else _kunneth(table, factor)
            spheres = spheres and certified
    finally:
        for executor in pool:
            executor.shutdown()
    return table or Counter({(0, 0, 0): 1}), spheres


def _factor_sum(part: int, facets: Collection[int], linked: list[int], sphere: bool, workers: int,
                pool: list) -> tuple[Counter, bool]:
    """The subset sum of the join factor on ``part`` with these distinct maximal faces, and
    whether it is a sphere, by the route chosen here (see the module docstring).

    A factor is a d-sphere when ``sphere`` says so, or when ``_surface``
    finds χ = 2 at d = 2 and ``_facet_sphere`` certifies it at any other d.
    A factor that ``_sphere_table`` sums is not numbered; any other factor
    is numbered and listed by ``_numbered`` and walked.  A walk is pooled
    in the call's ``pool``, started here when first needed.
    """
    k = part.bit_count()
    # ∂Δ, k > 1 facets of k - 1 vertices: Z = S^{2k-1}, every proper K_J a simplex
    if k > 1 and len(facets) == k and sum(map(int.bit_count, facets)) == k * (k - 1):
        return Counter({(0, 0, 0): 1, (k, 2 * k - 1, 0): 1}), True
    d = max(map(int.bit_count, facets)) - 1
    if d == 2 and not sphere:  # a closed surface, S^2 when χ = 2, is summed
        surface = _surface(part, facets, linked)
        certified, orientable = surface is not None and surface[0] == 2, surface and surface[1]
    else:
        certified = sphere or _facet_sphere(part, facets, d, linked)
        orientable = certified or None
    if (table := _sphere_table(part, facets, d, linked, orientable)) is not None:
        return table, certified
    faces = _numbered(part, facets, linked)
    sphere_dim = d if certified else None
    visited = 1 << (k - certified)
    work = visited * len(faces.ext)
    workers = _usable_workers(workers) if work >= _POOL_MIN_WORK else 1
    if workers <= 1:
        table = _walk(faces, sphere_dim, 0, k)
    else:
        if not pool:
            from concurrent.futures import ProcessPoolExecutor

            pool.append(ProcessPoolExecutor(max_workers=workers))
        # one task per prefix root on the top t vertices, 2^t ≥ 4 × workers,
        # fewest vertices first: on a sphere those root the largest subtrees;
        # a task gets (m, facets) and lists the faces itself
        t = min(k, (4 * workers - 1).bit_length())
        roots = sorted(range(1 << t), key=int.bit_count)
        tasks = [(k, faces.facets, sphere_dim, root << (k - t), k - t) for root in roots]
        table = sum(pool[0].map(_walk_task, tasks), Counter())
    if sphere_dim is None:
        return table, False
    return _mirror(table, k, sphere_dim), True


def _walk_task(args):
    m, facets, sphere_dim, root, low = args
    return _walk(_Faces(m, facets), sphere_dim, root, low)


def _cohomology(
    k: SimplicialComplex | SimplePolytope, workers: int, max_vertices: int, sphere: bool = False
) -> tuple[GradedGroups, bool]:
    """H*(Z_K) and whether K is a sphere, with ``sphere`` as ``_gather`` takes it."""
    table, spheres = _gather(*_check_input(k, max_vertices), workers, sphere)
    groups: dict[int, list] = {}
    for (_, degree, a), n in table.items():
        group = groups.setdefault(degree, [0, []])
        if a:
            group[1] += [a] * n
        else:
            group[0] += n
    return GradedGroups(groups), spheres


def moment_angle_cohomology(
    k: SimplicialComplex | SimplePolytope,
    *,
    workers: int = 1,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> GradedGroups:
    """Integral cohomology of Z_K as graded groups, degree 0 upward.

    A polytope P stands for its dual complex K_P, so Z_K is Z(P).
    """
    return _cohomology(k, workers, max_vertices)[0]


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
    table, _ = _gather(*_check_input(k, max_vertices), workers)
    return {(size, degree): n for (size, degree, a), n in sorted(table.items()) if not a}


def betti(groups: GradedGroups) -> str:
    """The Poincare polynomial of ``groups`` as text, such as ``1 + 2t^3 + t^6``.

    Each term is a free rank, ``groups.rank(d)``; degrees below 0 and
    torsion are left out, and a result with no free rank is ``0``.
    """
    terms = []
    for d in groups.degrees():
        c = groups.rank(d)
        if d < 0 or not c:
            continue
        if d == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            terms.append(f"{head}t" if d == 1 else f"{head}t^{d}")
    return " + ".join(terms) or "0"
