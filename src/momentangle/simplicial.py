"""Finite abstract simplicial complexes on a fixed vertex set.

A complex on vertices ``0..vertex_count-1`` is stored by its maximal faces.
Faces are sorted tuples of vertex indices; the empty face ``()`` is a face of
every complex that has any face at all.  Three degenerate complexes are kept
distinct on purpose, because they behave differently under the constructions
in :mod:`momentangle.moment_angle`:

* the void complex (no faces at all, ``maximal_faces == frozenset()``),
* the empty complex ``{()}`` whose only face is the empty face, and
* complexes with "ghost" vertices, i.e. ``vertex_count`` larger than the
  number of vertices actually appearing in a face.

Construction prunes non-maximal input faces rather than rejecting them, so
``SimplicialComplex(3, [(0, 1), (0,)])`` has the single maximal face
``(0, 1)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

Simplex = tuple[int, ...]


def as_simplex(vertices: Iterable[int]) -> Simplex:
    """Canonical form of a face: sorted tuple of distinct ints."""
    return tuple(sorted(set(int(v) for v in vertices)))


def _json_int(value, name: str) -> int:
    """``value`` itself if it is a JSON integer; floats, bools, strings are errors."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _json_int_rows(value, name: str) -> list[tuple[int, ...]]:
    """A JSON list of integer lists, as tuples; any other shape is an error."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise ValueError(f"{name} must be a list of integer lists")
    return [tuple(_json_int(x, f"{name} entry") for x in row) for row in value]


@dataclass(frozen=True)
class SimplicialComplex:
    """An abstract simplicial complex given by its maximal faces.

    ``maximal_faces`` may be passed as any iterable of vertex iterables; it is
    canonicalized and pruned to the maximal ones.  Equality compares the
    vertex count and the maximal face set, so the vertex labelling matters.
    """

    vertex_count: int
    maximal_faces: frozenset[Simplex] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError(f"vertex_count must be >= 0, got {self.vertex_count}")
        faces = sorted({as_simplex(f) for f in self.maximal_faces})
        self._check_vertices(v for f in faces for v in f)
        sets = [set(f) for f in faces]
        maximal = frozenset(
            f
            for i, f in enumerate(faces)
            if not any(sets[i] < sets[j] for j in range(len(faces)) if j != i)
        )
        object.__setattr__(self, "maximal_faces", maximal)

    def _check_vertices(self, vertices: Iterable[int]) -> None:
        for v in vertices:
            if v < 0 or v >= self.vertex_count:
                raise ValueError(
                    f"vertex index {v} out of range for vertex_count={self.vertex_count}"
                )

    # -- basic queries ----------------------------------------------------

    @property
    def dim(self) -> int:
        """Max face dimension; -1 for the empty complex, -2 for the void one."""
        if not self.maximal_faces:
            return -2
        return max(len(f) for f in self.maximal_faces) - 1

    @property
    def is_void(self) -> bool:
        return not self.maximal_faces

    def is_face(self, simplex: Iterable[int]) -> bool:
        """Membership test; out-of-range vertex indices are an error."""
        s = as_simplex(simplex)
        self._check_vertices(s)
        if not self.maximal_faces:
            return False
        ss = set(s)
        return any(ss <= set(f) for f in self.maximal_faces)

    def faces_of_dimension(self, d: int) -> list[Simplex]:
        """All ``d``-faces in lexicographic order; ``d == -1`` gives ``[()]``."""
        if d < -1:
            raise ValueError(f"dimension must be >= -1, got {d}")
        if d == -1:
            return [()] if self.maximal_faces else []
        out = {c for f in self.maximal_faces for c in combinations(f, d + 1)}
        return sorted(out)

    def all_faces(self) -> Iterator[Simplex]:
        """Every face, the empty one included, in dimension-then-lex order."""
        for d in range(-1, self.dim + 1):
            yield from self.faces_of_dimension(d)

    def f_vector(self) -> dict[int, int]:
        return {
            d: len(self.faces_of_dimension(d)) for d in range(-1, self.dim + 1)
        }

    # -- constructions ----------------------------------------------------

    def full_subcomplex(self, vertices: Iterable[int]) -> "SimplicialComplex":
        """Restriction K_J: all faces contained in ``vertices``, relabelled.

        The new complex lives on ``len(J)`` vertices, relabelled ``0..|J|-1``
        in increasing order of the old labels.  ``J = []`` gives the void
        complex on zero vertices.
        """
        J = sorted(set(int(v) for v in vertices))
        self._check_vertices(J)
        if not J:
            return SimplicialComplex(0, frozenset())
        if not self.maximal_faces:
            return SimplicialComplex(len(J), frozenset())
        keep = set(J)
        relabel = {v: i for i, v in enumerate(J)}
        traces = {tuple(relabel[v] for v in f if v in keep) for f in self.maximal_faces}
        return SimplicialComplex(len(J), traces)

    def connected_sum_at_facet(self, facet: Iterable[int]) -> "SimplicialComplex":
        """Replace a maximal face s by the cone faces (s minus x) + {w}, w new.

        This is the combinatorial connected sum with the boundary of a
        simplex, glued along ``facet``.  Requires ``facet`` to be maximal and
        the complex to have at least two maximal faces (otherwise nothing is
        left to sum with).
        """
        s = as_simplex(facet)
        if s not in self.maximal_faces:
            raise ValueError(f"{s} is not a maximal face")
        if len(self.maximal_faces) < 2:
            raise ValueError("connected sum needs at least two maximal faces")
        w = self.vertex_count
        new_faces = set(self.maximal_faces) - {s}
        for x in s:
            new_faces.add(tuple(v for v in s if v != x) + (w,))
        return SimplicialComplex(w + 1, new_faces)

    def relabeled(self, perm: Sequence[int] | Mapping[int, int]) -> "SimplicialComplex":
        """Apply a vertex permutation (old index -> new index)."""
        table = (
            dict(perm)
            if isinstance(perm, Mapping)
            else {i: int(p) for i, p in enumerate(perm)}
        )
        if sorted(table) != list(range(self.vertex_count)) or sorted(
            table.values()
        ) != list(range(self.vertex_count)):
            raise ValueError("perm must be a bijection on range(vertex_count)")
        return SimplicialComplex(
            self.vertex_count,
            {tuple(table[v] for v in f) for f in self.maximal_faces},
        )

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": self.vertex_count,
            "maximal_faces": [list(f) for f in sorted(self.maximal_faces)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SimplicialComplex":
        try:
            vertices = _json_int(data["vertices"], "vertices")
            faces = _json_int_rows(data["maximal_faces"], "maximal_faces")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed complex record: {exc}") from exc
        return cls(vertices, frozenset(as_simplex(f) for f in faces))

    @classmethod
    def from_json(cls, text: str) -> "SimplicialComplex":
        return cls.from_json_dict(json.loads(text))

    def __repr__(self) -> str:
        faces = sorted(self.maximal_faces)
        return f"SimplicialComplex({self.vertex_count}, {faces})"


# -- standard complexes and binary operations ------------------------------


def full_simplex(n: int) -> SimplicialComplex:
    """The full n-simplex on n+1 vertices (a single maximal face)."""
    if n < 0:
        raise ValueError(f"simplex dimension must be >= 0, got {n}")
    return SimplicialComplex(n + 1, {tuple(range(n + 1))})


def boundary_complex(n: int) -> SimplicialComplex:
    """The boundary of the n-simplex: all proper faces, a sphere S^{n-1}."""
    if n < 1:
        raise ValueError(f"boundary needs simplex dimension >= 1, got {n}")
    verts = range(n + 1)
    return SimplicialComplex(n + 1, set(combinations(verts, n)))


def join(k1: SimplicialComplex, k2: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join: faces are unions f1 + f2 with k2 relabelled upward."""
    if k1.is_void or k2.is_void:
        raise ValueError("join requires both complexes to have at least one face")
    off = k1.vertex_count
    faces = {
        f1 + tuple(v + off for v in f2)
        for f1 in k1.maximal_faces
        for f2 in k2.maximal_faces
    }
    return SimplicialComplex(off + k2.vertex_count, faces)
