"""Simple polytopes presented combinatorially by vertex--facet incidences.

A simple n-polytope with m facets is recorded as one facet tuple per vertex:
vertex i lies on exactly the n facets ``vertex_facets[i]``.  This is all the
combinatorial data the rest of the package needs; no coordinates are kept.

The dual (boundary) complex has one vertex per facet and one maximal
(n-1)-face per polytope vertex, so it is handed straight to
:class:`momentangle.simplicial.SimplicialComplex`.

Validated invariants, each named in its error message:

* ``simplicity``     -- every vertex record has exactly ``dim`` distinct facets
* ``distinct_vertices`` -- no two vertices lie on the same facet set
* ``facet_coverage`` -- every facet index appears in some record
* ``facet_count``    -- ``m >= n + 1`` and ``n >= 1``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .simplicial import SimplicialComplex, Simplex, _json_int, _json_int_rows


@dataclass(frozen=True)
class SimplePolytope:
    dim: int
    facet_count: int
    vertex_facets: tuple[Simplex, ...]

    def __post_init__(self) -> None:
        if self.dim < 1 or self.facet_count < self.dim + 1:
            raise ValueError(
                f"facet_count: need n >= 1 and m >= n+1, got n={self.dim}, m={self.facet_count}"
            )
        records = []
        for i, rec in enumerate(self.vertex_facets):
            rec = tuple(sorted(int(f) for f in rec))
            if len(set(rec)) != len(rec):
                raise ValueError(f"simplicity: vertex {i} repeats a facet")
            if len(rec) != self.dim:
                raise ValueError(
                    f"simplicity: vertex {i} lies on {len(rec)} facets, expected {self.dim}"
                )
            for f in rec:
                if f < 0 or f >= self.facet_count:
                    raise ValueError(
                        f"facet index {f} out of range for facet_count={self.facet_count}"
                    )
            records.append(rec)
        seen: dict[Simplex, int] = {}
        for i, rec in enumerate(records):
            if rec in seen:
                raise ValueError(
                    f"distinct_vertices: vertices {seen[rec]} and {i} share facet set {rec}"
                )
            seen[rec] = i
        covered = {f for rec in records for f in rec}
        uncovered = self.facet_count - len(covered)
        if uncovered:
            # name at most ten, so a huge facet_count is never enumerated
            missing = [f for f in range(len(covered) + 10) if f not in covered]
            shown = missing[: min(uncovered, 10)]
            more = uncovered - len(shown)
            tail = f" and {more} more" if more else ""
            raise ValueError(f"facet_coverage: facets {shown}{tail} meet no vertex")
        object.__setattr__(self, "vertex_facets", tuple(records))

    # short aliases matching the usual notation
    @property
    def n(self) -> int:
        return self.dim

    @property
    def m(self) -> int:
        return self.facet_count

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_facets)

    def dual_complex(self) -> SimplicialComplex:
        """Boundary complex of the dual simplicial polytope.

        Vertices are facet indices; each polytope vertex contributes its
        facet record as a maximal (dim-1)-face.
        """
        return SimplicialComplex(self.facet_count, set(self.vertex_facets))

    def cut_vertex(self, v: int) -> "SimplePolytope":
        """Truncate vertex ``v``, introducing one new facet (index ``m``).

        The cut vertex is replaced by ``dim`` new vertices, one per facet
        through ``v``: each keeps the other ``dim - 1`` old facets and picks
        up the new one.  New vertices are appended after the surviving ones
        in facet order.

        For dim >= 2 the cut is valid by construction and is not checked
        again: the new records are sorted, distinct, of ``dim`` facets and
        hold the new one, and each facet through ``v`` lies on dim - 1 of
        them.  A segment's cut can leave the other facet of ``v`` on no
        vertex, so it is checked.
        """
        if v < 0 or v >= len(self.vertex_facets):
            raise ValueError(f"vertex index {v} out of range")
        cut = self.vertex_facets[v]
        new_facet = self.facet_count
        records = self.vertex_facets[:v] + self.vertex_facets[v + 1 :] + tuple(
            tuple(x for x in cut if x != f) + (new_facet,) for f in cut
        )
        if self.dim == 1:
            return SimplePolytope(self.dim, self.facet_count + 1, records)
        out = object.__new__(SimplePolytope)
        vars(out).update(dim=self.dim, facet_count=self.facet_count + 1, vertex_facets=records)
        return out

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "facets": self.facet_count,
            "vertex_facets": [list(rec) for rec in self.vertex_facets],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SimplePolytope":
        try:
            dim = _json_int(data["dim"], "dim")
            facets = _json_int(data["facets"], "facets")
            records = _json_int_rows(data["vertex_facets"], "vertex_facets")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed polytope record: {exc}") from exc
        return cls(dim, facets, tuple(records))


def simplex_polytope(n: int) -> SimplePolytope:
    """The n-simplex: n+1 facets, vertex i opposite facet i."""
    if n < 1:
        raise ValueError(f"polytope dimension must be >= 1, got {n}")
    records = tuple(
        tuple(f for f in range(n + 1) if f != i) for i in range(n + 1)
    )
    return SimplePolytope(n, n + 1, records)


def polygon(m: int) -> SimplePolytope:
    """The m-gon with edges (facets) numbered cyclically."""
    if m < 3:
        raise ValueError(f"polygon needs at least 3 edges, got {m}")
    records = tuple(tuple(sorted((i, (i + 1) % m))) for i in range(m))
    return SimplePolytope(2, m, records)


def product(p: SimplePolytope, q: SimplePolytope) -> SimplePolytope:
    """Cartesian product; q's facets are shifted past p's."""
    off = p.facet_count
    records = tuple(
        a + tuple(f + off for f in b)
        for a in p.vertex_facets
        for b in q.vertex_facets
    )
    return SimplePolytope(p.dim + q.dim, p.facet_count + q.facet_count, records)


def cube(n: int = 3) -> SimplePolytope:
    """The n-cube in the vertex order of the n-fold product of segments.

    Vertex x, read as n bits from the top, lies on facet 2i + 1 - (bit i) of segment i.
    """
    if n < 1:
        raise ValueError(f"cube dimension must be >= 1, got {n}")
    records = tuple(
        tuple(2 * i + 1 - (x >> (n - 1 - i) & 1) for i in range(n)) for x in range(1 << n)
    )
    return SimplePolytope(n, 2 * n, records)
