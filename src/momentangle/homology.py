"""Exact integral homology of simplicial complexes by sparse integer elimination.

Everything here is arbitrary-precision integer arithmetic; no floats.  The
homology computed is *reduced*: the chain complex carries the augmentation
C_0 -> C_{-1} = Z, so a complex with any face at all has a degree -1 group of
rank 0, a nonempty disjoint union of c pieces has rank c-1 in degree 0, and
the two face-free complexes get rank 1 in degree -1 (the reduced homology of
the empty complex).

There is one engine, ``_Faces``.  It lists the faces of a complex once, as
vertex bitmasks in one table, ``ext``, that maps each face f to the
vertices w for which f ∪ {w} is a face.  ``_Faces.link(σ, within)`` lists
the faces of lk σ inside a vertex set one coface at a time from ``ext``,
as masks by dimension, as ``_reduced_groups`` takes them; the link of ∅
inside J is the full subcomplex K_J.  The subset sum of
:mod:`momentangle.moment_angle` settles most K_J with no matrix, from the
parent's groups and the homology of one vertex's link, and lists the link
of ∅ only for the rest.  In ``_reduced_groups`` a complex of dimension at
most 1 is a graph with V vertices, E edges and c components, so
H~_0 = Z^(c-1) and H~_1 = Z^(E-V+c), with c from a union-find on the edge
masks.  A graph has no torsion.

Every other boundary map is diagonalised by one sparse elimination,
``_rank_and_torsion``, on sparse ``{face: ±1}`` columns built from the
masks only as each map is reduced.  It first eliminates the ±1 pivots,
which keeps the Smith normal form (the unit-pivot phase of Dumas,
Saunders and Villard, "On efficient sparse integer matrix Smith normal
form computations", J. Symbolic Comput. 2001), and then finishes the
residual, empty unless there is torsion or a pivot-free block, on the
same columns with pivots of least absolute value.  The maps are reduced
from the top degree down, and the unit pivot rows of one map are left
out of the next as columns.  ``reduced_homology`` is
``_reduced_groups`` on every face of K.

``_facet_sphere`` certifies that a complex is a Z-homology sphere from its
maximal faces and the vertices' neighbour masks (``_linked``).  For
dimension 2 or less it lists no face.  For dimension d ≥ 3 it lists the
faces once, passes each 2-dimensional link, that of a face of d - 2
vertices, by its own 2-sphere test on the link's triangles, and runs
``_reduced_groups`` only on K and on the links of the nonempty faces of
fewer than d - 2 vertices.

Finitely generated graded abelian groups are recorded degree by degree as a
free rank plus invariant factors d_1 | d_2 | ... | d_k with every d_i > 1.
"""

from __future__ import annotations

from math import prod
from typing import Collection, Iterable, Mapping, Sequence

from .simplicial import SimplicialComplex


# -- invariant factors -----------------------------------------------------


def _prime_powers(n: int) -> dict[int, int]:
    # trial division; the integers involved are invariant factors, all small
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(values: Iterable[int]) -> tuple[int, ...]:
    """Canonical divisibility chain of ⊕ Z/v over the given values.

    Entries equal to 1 contribute nothing; nonpositive entries are an error.
    The result lists d_1 | d_2 | ... | d_k in increasing order, all > 1.

    >>> invariant_factors([4, 6])
    (2, 12)
    >>> invariant_factors([2, 2])
    (2, 2)
    """
    exps: dict[int, list[int]] = {}
    for v in values:
        v = int(v)
        if v <= 0:
            raise ValueError(f"torsion order must be positive, got {v}")
        if v == 1:
            continue
        for p, e in _prime_powers(v).items():
            exps.setdefault(p, []).append(e)
    if not exps:
        return ()
    for e in exps.values():
        e.sort(reverse=True)
    k = max(len(e) for e in exps.values())
    factors = [
        prod(p ** e[i] for p, e in exps.items() if i < len(e)) for i in range(k)
    ]
    return tuple(reversed(factors))


# -- graded abelian groups -------------------------------------------------


class GradedGroups:
    """A finitely generated abelian group per integer degree.

    Stored as ``degree -> (rank, torsion)`` with torsion in canonical
    invariant-factor form; zero groups are dropped, so two values compare
    equal exactly when the groups agree in every degree.
    """

    __slots__ = ("_groups",)

    def __init__(self, groups: Mapping[int, tuple[int, Sequence[int]]] = ()):
        norm: dict[int, tuple[int, tuple[int, ...]]] = {}
        for d, (rank, torsion) in dict(groups).items():
            d = int(d)
            rank = int(rank)
            if rank < 0:
                raise ValueError(f"rank at degree {d} must be >= 0, got {rank}")
            tors = invariant_factors(torsion)
            if rank or tors:
                norm[d] = (rank, tors)
        self._groups = norm

    @classmethod
    def from_ranks(cls, ranks: Mapping[int, int]) -> "GradedGroups":
        return cls({d: (r, ()) for d, r in ranks.items()})

    def rank(self, degree: int) -> int:
        return self._groups.get(degree, (0, ()))[0]

    def torsion(self, degree: int) -> tuple[int, ...]:
        return self._groups.get(degree, (0, ()))[1]

    def degrees(self) -> list[int]:
        return sorted(self._groups)

    @property
    def max_degree(self) -> int:
        if not self._groups:
            raise ValueError("the zero graded group has no top degree")
        return max(self._groups)

    @property
    def min_degree(self) -> int:
        if not self._groups:
            raise ValueError("the zero graded group has no bottom degree")
        return min(self._groups)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            str(d): {"rank": r, "torsion": list(t)}
            for d, (r, t) in sorted(self._groups.items())
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedGroups):
            return NotImplemented
        return self._groups == other._groups

    def __hash__(self) -> int:
        return hash(frozenset(self._groups.items()))

    def __repr__(self) -> str:
        parts = []
        for d in self.degrees():
            r, t = self._groups[d]
            desc = []
            if r:
                desc.append(f"Z^{r}" if r > 1 else "Z")
            desc.extend(f"Z/{x}" for x in t)
            parts.append(f"{d}: " + "+".join(desc))
        return "GradedGroups({" + ", ".join(parts) + "})"


# -- the homology engine ---------------------------------------------------


def _boundary_column(face: int) -> dict[int, int]:
    """Boundary of a face given as a vertex bitmask, as a sparse column.

    Vertices are peeled off from the lowest with signs +1, -1, +1, ...; a
    vertex's column is ``{0: 1}``, the augmentation onto the empty face.
    """
    column = {}
    sign = 1
    rest = face
    while rest:
        low = rest & -rest
        column[face ^ low] = sign
        sign = -sign
        rest ^= low
    return column


def _rank_and_torsion(
    columns: Iterable[dict[int, int]],
) -> tuple[int, tuple[int, ...], set[int]]:
    """Rank, invariant factors > 1 and unit pivot rows of a sparse matrix.

    Unit phase: while some column has a ±1 entry, take it as pivot (in the
    row with fewest entries, to limit fill-in), clear its row from the other
    columns, and drop the row and the column.  This leaves the Smith form
    unchanged apart from one diagonal 1.

    Residual phase, on what is left (nothing unless the matrix has torsion
    or a pivot-free block): pivot on an entry a of least absolute value and
    reduce the rest of its row modulo a by column operations; once the row
    is clear, reduce the rest of its column modulo a by row operations,
    which then touch no other column.  A nonzero remainder is smaller than
    |a| and is the next pivot; once a is alone in its row and its column,
    |a| joins the diagonal and both are dropped.  The diagonal need not be
    a divisibility chain: ``invariant_factors`` makes one from it.

    Only the unit phase's pivot rows are returned, because ``_matrix_groups``
    clears the next map by them, which needs their columns unitriangular.
    """
    cols = {j: c for j, c in enumerate(columns) if c}
    where: dict[int, set[int]] = {}
    for j, col in cols.items():
        for r in col:
            where.setdefault(r, set()).add(j)
    pivot_rows: set[int] = set()
    progress = True
    while progress:
        progress = False
        for j in list(cols):
            col = cols.get(j)
            if col is None:
                continue
            pivot = None
            for r, v in col.items():
                if (v == 1 or v == -1) and (
                    pivot is None or len(where[r]) < len(where[pivot])
                ):
                    pivot = r
            if pivot is None:
                continue
            del cols[j]
            for r in col:
                where[r].discard(j)
            a = col.pop(pivot)
            for i in where.pop(pivot):
                other = cols[i]
                f = other.pop(pivot) * a
                for r, v in col.items():
                    x = other.get(r, 0) - f * v
                    if x:
                        other[r] = x
                        where[r].add(i)
                    else:
                        del other[r]
                        where[r].discard(i)
                if not other:
                    del cols[i]
            pivot_rows.add(pivot)
            progress = True
    diagonal = []
    while cols:
        j, pivot, a = min(
            ((j, r, v) for j, col in cols.items() for r, v in col.items()),
            key=lambda entry: abs(entry[2]),
        )
        col = cols[j]
        for i in [i for i in where[pivot] if i != j]:
            other = cols[i]
            q = other[pivot] // a
            for r, v in col.items():
                x = other.get(r, 0) - q * v
                if x:
                    other[r] = x
                    where[r].add(i)
                else:
                    del other[r]
                    where[r].discard(i)
            if not other:
                del cols[i]
        if len(where[pivot]) > 1:
            continue  # a remainder smaller than |a| is left in the row
        for r in [r for r in col if r != pivot]:
            x = col[r] % a
            if x:
                col[r] = x
            else:
                del col[r]
                where[r].discard(j)
        if len(col) == 1:
            del cols[j], where[pivot]
            diagonal.append(abs(a))
    return len(pivot_rows) + len(diagonal), invariant_factors(diagonal), pivot_rows


def _graph_groups(present: list[list[int]]) -> tuple:
    """Reduced integral homology of a nonempty complex of dimension at most 1.

    ``present`` is as for ``_reduced_groups``, with one or two lists.  A
    graph with V vertices, E edges and c components has H~_0 = Z^(c-1) and
    H~_1 = Z^(E-V+c), free in both degrees; c comes from a union-find on
    the edge masks, and no matrix is built.
    """
    vertices = len(present[0])
    edges = present[1] if len(present) > 1 else ()
    root: dict[int, int] = {}  # vertex bit -> a bit of its component; roots absent
    components = vertices
    for edge in edges:
        a = edge & -edge
        b = edge ^ a
        while a in root:
            a = root[a]
        while b in root:
            b = root[b]
        if a != b:
            root[a] = b
            components -= 1
    groups = ((0, (components - 1, ())),) if components > 1 else ()
    cycles = len(edges) - vertices + components
    return groups + ((1, (cycles, ())),) if cycles else groups


def _reduced_groups(present: list[list[int]]) -> tuple:
    """Reduced integral homology of a complex given by its nonempty faces.

    ``present[i]`` lists the faces with i + 1 vertices as masks, and every
    list is nonempty; the empty face is implied.
    Returns ``((degree, (rank, torsion)), ...)`` by increasing degree,
    zero groups left out, the form the subset walk keeps.  A graph,
    one or two lists, goes to ``_graph_groups``, anything else to
    ``_matrix_groups``.
    """
    if 0 < len(present) <= 2:
        return _graph_groups(present)
    return _matrix_groups(present)


def _matrix_groups(present: list[list[int]]) -> tuple:
    """``_reduced_groups`` by elimination on the boundary columns.

    Rank in degree d is (number of d-faces) - rank ∂_d - rank ∂_{d+1};
    torsion in degree d is the part of ∂_{d+1}'s invariant factors
    exceeding 1.

    The maps are reduced from the top degree down, and ∂_d's columns are
    built by ``_boundary_column`` for its faces that are not unit pivot
    rows of ∂_{d+1}, which are left out.  The pivot columns
    are boundaries, hence cycles, and are unitriangular on those rows,
    so each such column of ∂_d is an integer combination of the others
    and dropping it changes neither rank nor torsion.  This is the
    clearing of Chen and Kerber ("Persistent homology computation with
    a twist", EuroCG 2011), here with unit pivots over Z.
    """
    counts = [1] + [len(faces) for faces in present]
    ranks = [0] * (len(counts) + 1)
    torsion: list[tuple[int, ...]] = [()] * (len(counts) + 1)
    cleared: set[int] = set()
    for i in range(len(present), 0, -1):
        columns = [_boundary_column(face) for face in present[i - 1] if face not in cleared]
        ranks[i], torsion[i], cleared = _rank_and_torsion(columns)
    groups = []
    for i, n in enumerate(counts):
        rank = n - ranks[i] - ranks[i + 1]
        if rank or torsion[i + 1]:
            groups.append((i - 1, (rank, torsion[i + 1])))
    return tuple(groups)


def _masks(faces: Iterable[Iterable[int]]) -> list[int]:
    """Faces given by their vertices, as vertex bitmasks."""
    masks = []
    for face in faces:
        mask = 0
        for v in face:
            mask |= 1 << v
        masks.append(mask)
    return masks


class _Faces:
    """The faces of a complex as vertex bitmasks, each with the vertices it extends by.

    The complex is given by its vertex count m and ``facets``, its maximal
    faces as masks, kept as given: ``[]`` for the void complex, ``[0]`` for
    the complex whose only face is the empty one.  ``ext`` is the one face
    table: its keys are the faces, the empty face included even for the
    void complex, whose reduced homology is taken to be that of the empty
    complex; ``ext[f]`` is the mask of the vertices w for which f ∪ {w} is
    a face, f's own vertices included.  ``link`` finds the faces of a link
    from it.
    """

    __slots__ = ("ext", "facets", "vertex_count")

    def __init__(self, m: int, facets: Sequence[int]):
        ext = {0: 0}
        ext.update((top, top) for top in facets)
        todo = list(ext)  # each face is expanded once, when first reached
        for face in todo:  # it joins ext[face - v] for each of its vertices v
            rest = face
            while rest:
                low = rest & -rest
                rest ^= low
                if (sub := face ^ low) in ext:
                    ext[sub] |= face
                else:
                    ext[sub] = face
                    todo.append(sub)
        self.vertex_count = m
        self.facets = facets
        self.ext = ext

    def link(self, sigma: int, within: int) -> list[list[int]]:
        """The nonempty faces of lk σ inside ``within``, as ``_reduced_groups`` takes them.

        lk σ holds the faces f with f ∩ σ = ∅ and f ∪ σ a face, and the link
        of ∅ inside J is K_J.  Each f is listed once, by dimension, from f
        minus its top vertex w, with w in ext[f - w ∪ σ] above f - w.
        """
        ext = self.ext
        within &= ~sigma
        layers: list[list[int]] = []
        layer = [0]
        while True:
            up = []
            for face in layer:
                above = face.bit_length()
                more = (ext[face | sigma] & within) >> above << above
                while more:
                    bit = more & -more
                    more ^= bit
                    up.append(face | bit)
            if not up:
                return layers
            layers.append(up)
            layer = up


def _linked(facets: Iterable[int], width: int) -> list[int]:
    """linked[v] for v below ``width``: v and the vertices in a facet with v, 0 for a
    vertex in none."""
    linked = [0] * width
    for f in facets:
        rest = f
        while rest:
            low = rest & -rest
            linked[low.bit_length() - 1] |= f
            rest ^= low
    return linked


def _facet_sphere(vertices: int, facets: Collection[int], d: int, linked: Sequence[int]) -> bool:
    """Whether these distinct maximal faces, all inside ``vertices``, make a
    Z-homology d-sphere on all of ``vertices``: every vertex is a face, and
    for every face σ, the empty one included, H~(lk σ) is one Z in degree
    d - |σ|.

    ``linked[v] & vertices`` is v and its neighbours, the vertices in a
    facet with v; ``linked`` may hold vertices outside, as the masks of a
    whole join do.  For every d ≥ 1, each facet has d + 1 vertices, each
    ridge lies on two facets (``ridge`` maps it to the vertices that make a
    facet with it), and the facets connect ``vertices``, which puts each
    vertex on one.  For d = 1 the m edges make K a cycle.  For d = 2 the
    triangles are F = 2m - 4, so χ = m - 3F/2 + F = 2, and the link of each
    vertex v, the edges opposite it, is one cycle, walked from a neighbour
    u to the neighbours in ridge[v ∪ u]: K is a connected closed surface
    with χ = 2, which is S^2.

    For d ≥ 3 the faces are listed once, on the labels as given.  The link
    of each face σ of d - 2 vertices is pure of dimension 2, as every facet
    has d + 1 vertices, and must pass the d = 2 test on its triangles; that
    settles the links of the faces above σ too, so no link of dimension 2
    or less is eliminated.  The links of the smaller nonempty faces, from
    the largest down, and then K go to ``_reduced_groups``.
    """
    m = vertices.bit_count()
    if d < 1:  # S^0 is two points, and no sphere has dimension -1
        return d == 0 and len(facets) == m == 2
    if d <= 2 and len(facets) != (m if d == 1 else 2 * m - 4):
        return False
    ridge: dict[int, int] = {}
    for f in facets:
        if f.bit_count() != d + 1:
            return False
        rest = f
        while rest:
            low = rest & -rest
            rest ^= low
            ridge[f ^ low] = ridge.get(f ^ low, 0) | low
    if any(n.bit_count() != 2 for n in ridge.values()):
        return False
    seen = todo = vertices & -vertices
    while todo:  # the vertices K connects to the lowest one
        low = todo & -todo
        todo ^= low
        new = linked[low.bit_length() - 1] & vertices & ~seen
        seen |= new
        todo |= new
    if seen != vertices:
        return False
    if d > 2:
        faces = _Faces(m, list(facets))
        layers = faces.link(0, vertices)
        for sigma in layers[d - 3]:
            around = faces.ext[sigma] ^ sigma
            triangles = faces.link(sigma, vertices)[2]
            if not _facet_sphere(around, triangles, 2, _linked(triangles, around.bit_length())):
                return False
        for size in range(d - 3, 0, -1):
            for sigma in layers[size - 1]:
                if _reduced_groups(faces.link(sigma, vertices)) != ((d - size, (1, ())),):
                    return False
        return _reduced_groups(layers) == ((d, (1, ())),)
    rest = vertices if d == 2 else 0
    while rest:  # each vertex v, on some triangle now that K is connected
        v = rest & -rest
        rest ^= v
        around = linked[v.bit_length() - 1] & vertices ^ v
        start = around & -around
        prev, here, steps = start, ridge[v | start] & -ridge[v | start], 1
        while here != start:  # round v's link: from here on to its neighbour that is not prev
            prev, here, steps = here, ridge[v | here] ^ prev, steps + 1
        if steps != around.bit_count():
            return False
    return True


def reduced_homology(k: SimplicialComplex) -> GradedGroups:
    """Reduced integral homology, degree -1 through dim K.

    The two complexes with no nonempty face both give a single Z in degree
    -1.
    """
    faces = _Faces(k.vertex_count, _masks(k.maximal_faces))
    return GradedGroups(_reduced_groups(faces.link(0, faces.ext[0])))
