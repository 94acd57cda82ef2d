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
from itertools import combinations, groupby
from typing import Iterable, Mapping, Sequence

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
        faces = sorted({as_simplex(f) for f in self.maximal_faces}, key=len, reverse=True)
        for v in (v for f in faces for v in f):
            if v < 0 or v >= self.vertex_count:
                raise ValueError(
                    f"vertex index {v} out of range for vertex_count={self.vertex_count}"
                )
        # a face inside a larger face is inside a larger maximal one, so each
        # size is compared only with the maximal faces of the larger sizes
        maximal: list[Simplex] = []
        larger: list[frozenset[int]] = []
        for _, same_size in groupby(faces, key=len):
            kept = [f for f in same_size if not any(s.issuperset(f) for s in larger)]
            maximal += kept
            larger += map(frozenset, kept)
        object.__setattr__(self, "maximal_faces", frozenset(maximal))

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

    # -- constructions ----------------------------------------------------

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

    def __repr__(self) -> str:
        faces = sorted(self.maximal_faces)
        return f"SimplicialComplex({self.vertex_count}, {faces})"


# -- standard complexes and binary operations ------------------------------


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
