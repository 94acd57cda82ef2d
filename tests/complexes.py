"""Queries and constructions on simplicial complexes that only the tests use.

The package stores a complex by its maximal faces and needs no more than
that.  The tests also restrict a complex to a vertex set, the full
subcomplex K_J that the subset sum walks to, ask which faces a complex
has, build full simplices, and take the connected sum of a dual complex
with a simplex boundary at a facet, the tests' own route to the vertex
cut of a polytope, and build the boundary of a cyclic 4-polytope, on
which every two vertices span an edge, grid tori and Klein bottles, and
stellar subdivisions.  The all-pairs pruning below is the reference for the
canonical form that ``SimplicialComplex`` computes.  ``RP2``, ``TORUS7``
and ``cycle`` are fixtures that several test modules share.
"""

from __future__ import annotations

import random
from itertools import combinations

from momentangle.simplicial import SimplicialComplex, as_simplex

# the minimal 7-vertex torus, as its 14 triangles
TORUS7 = sorted({tuple(sorted(x % 7 for x in (i, i + j, i + 3))) for i in range(7) for j in (1, 2)})

# the minimal 6-vertex projective plane, the standard torsion fixture
RP2 = SimplicialComplex(
    6,
    [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
        (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
    ],
)


def cycle(m: int) -> SimplicialComplex:
    """The circle on m vertices, i joined to i + 1 mod m."""
    return SimplicialComplex(m, [(i, (i + 1) % m) for i in range(m)])


def full_simplex(n: int) -> SimplicialComplex:
    """The full n-simplex on n+1 vertices (a single maximal face)."""
    if n < 0:
        raise ValueError(f"simplex dimension must be >= 0, got {n}")
    return SimplicialComplex(n + 1, {tuple(range(n + 1))})


def cyclic_4_polytope_boundary(m: int) -> SimplicialComplex:
    """The boundary of the cyclic polytope C(m, 4), a 3-sphere on m >= 5 vertices.

    By Gale's evenness condition a 4-set S is a facet when every two
    vertices outside S have an even number of vertices of S between them.
    """
    return SimplicialComplex(m, [
        S for S in combinations(range(m), 4)
        if all(sum(a < x < b for x in S) % 2 == 0
               for a, b in combinations(sorted(set(range(m)) - set(S)), 2))
    ])


def grid_surface(a: int, b: int, twist: bool = False) -> SimplicialComplex:
    """The a × b grid of squares on a torus, each square cut along a diagonal, a, b >= 3.

    Vertex (i, j), i mod a and j mod b, is labelled i·b + j.  With ``twist``
    the squares that cross j = b land on j = 0 with i reflected to -i, which
    makes a Klein bottle.
    """
    def label(i, j):
        if twist and j == b:
            i, j = -i, 0
        return i % a * b + j % b

    facets = []
    for i in range(a):
        for j in range(b):
            corner, across = label(i, j), label(i + 1, j + 1)
            facets += [(corner, label(i + 1, j), across), (corner, label(i, j + 1), across)]
    return SimplicialComplex(a * b, facets)


def stellar(facets, tau, v):
    """Facets after the stellar subdivision at face ``tau`` with new vertex ``v``."""
    t = set(tau)
    out = [f for f in facets if not t <= set(f)]
    for f in facets:
        if t <= set(f):
            rest = [x for x in f if x not in t]
            out.extend(tuple(sorted(rest + [y for y in tau if y != x] + [v])) for x in tau)
    return out


def subdivided(k: SimplicialComplex, m: int, seed) -> SimplicialComplex:
    """K stellarly subdivided at random faces, an edge or a facet each time, the
    new vertex labelled next, until it has m vertices; K keeps its topology."""
    r = random.Random(seed)
    facets = sorted(k.maximal_faces)
    for v in range(k.vertex_count, m):
        f = r.choice(facets)
        facets = stellar(facets, f if r.random() < 0.5 else tuple(sorted(r.sample(f, 2))), v)
    return SimplicialComplex(m, facets)


def is_face(k: SimplicialComplex, simplex) -> bool:
    """Membership test; out-of-range vertex indices are an error."""
    s = as_simplex(simplex)
    for v in s:
        if v < 0 or v >= k.vertex_count:
            raise ValueError(f"vertex index {v} out of range for vertex_count={k.vertex_count}")
    return any(set(s) <= set(f) for f in k.maximal_faces)


def full_subcomplex(k: SimplicialComplex, vertices) -> SimplicialComplex:
    """Restriction K_J: all faces contained in ``vertices``, relabelled.

    The new complex lives on ``len(J)`` vertices, relabelled ``0..|J|-1``
    in increasing order of the old labels.  ``J = []`` gives the void
    complex on zero vertices.
    """
    J = as_simplex(vertices)
    for v in J:
        if v < 0 or v >= k.vertex_count:
            raise ValueError(f"vertex index {v} out of range for vertex_count={k.vertex_count}")
    if not J or k.is_void:
        return SimplicialComplex(len(J), frozenset())
    relabel = {v: i for i, v in enumerate(J)}
    traces = {tuple(relabel[v] for v in f if v in relabel) for f in k.maximal_faces}
    return SimplicialComplex(len(J), traces)


def faces_of_dimension(k: SimplicialComplex, d: int) -> list[tuple[int, ...]]:
    """All ``d``-faces in lexicographic order; ``d == -1`` gives ``[()]``."""
    if d < -1:
        raise ValueError(f"dimension must be >= -1, got {d}")
    return sorted({c for f in k.maximal_faces for c in combinations(f, d + 1)})


def f_vector(k: SimplicialComplex) -> dict[int, int]:
    """Face counts by dimension, from -1 up to ``k.dim``."""
    return {d: len(faces_of_dimension(k, d)) for d in range(-1, k.dim + 1)}


def connected_sum_at_facet(k: SimplicialComplex, facet) -> SimplicialComplex:
    """Replace a maximal face s by the cone faces (s minus x) + {w}, w new.

    This is the combinatorial connected sum with the boundary of a simplex,
    glued along ``facet``.  Requires ``facet`` to be maximal and the complex
    to have at least two maximal faces (otherwise nothing is left to sum
    with).
    """
    s = as_simplex(facet)
    if s not in k.maximal_faces:
        raise ValueError(f"{s} is not a maximal face")
    if len(k.maximal_faces) < 2:
        raise ValueError("connected sum needs at least two maximal faces")
    w = k.vertex_count
    new_faces = set(k.maximal_faces) - {s}
    for x in s:
        new_faces.add(tuple(v for v in s if v != x) + (w,))
    return SimplicialComplex(w + 1, new_faces)


def all_pairs_maximal(faces) -> frozenset[tuple[int, ...]]:
    """The faces, canonicalised, that lie in no other: every pair compared."""
    faces = sorted({as_simplex(f) for f in faces})
    sets = [set(f) for f in faces]
    return frozenset(
        f
        for i, f in enumerate(faces)
        if not any(sets[i] < sets[j] for j in range(len(faces)) if j != i)
    )
