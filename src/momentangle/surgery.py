"""Predicted cohomology of the vertex-cut moment-angle manifold.

Cutting a vertex v off a simple n-polytope P with m facets changes the
moment-angle manifold Z = Z(P), of dimension d = m+n, into Z_v of dimension
d+1.  At the level of graded cohomology the new manifold decomposes as

    Z_v  =  W  #  sum over j = 1..m-n of binom(m-n, j) copies of
                  S^{j+2} x S^{m+n-j-1},

where W is the boundary of (Z minus an open d-disk) x D^2.  W's groups come
from H*(Z) alone: H^k(W) = H^k(Z) + H^{k-1}(Z) minus one free generator in
degree 1 and one in degree d, so at rank level

    P_W(t) = P_Z(t) * (1 + t) - t - t^d.

Both the prediction (RHS, built from P only) and the direct computation
(LHS, the moment-angle cohomology of the cut polytope) are implemented
independently; :func:`verify_cut_theorem` compares them degree by degree.
Both sums take the polytopes themselves.  The subset cap is checked on P's
m and the cut's m + 1 before either sum runs, and
:func:`verify_all_cuts` makes its cuts one at a time after that check.
P's sum certifies that K_P is a Z-homology sphere, factor by factor; the
dual of a cut is a subdivision of K_P, so when K_P passes, the cuts' sums
skip the certificate (the proof is in ``_verify_cuts``), and otherwise
each cut is certified afresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from .homology import GradedGroups
from .moment_angle import (
    DEFAULT_MAX_VERTICES,
    SubsetLimitError,
    _cohomology,
)
from .polytopes import SimplePolytope, cube, polygon, product, simplex_polytope


def _boundary_product_groups(h_z: GradedGroups, d: int) -> GradedGroups:
    """Graded groups of W = boundary of (Z minus an open d-disk) x D^2.

    ``h_z`` must look like the cohomology of a closed connected orientable
    d-manifold: rank 1 in degrees 0 and d, no torsion in degrees 0, 1, d,
    nothing outside 0..d.  W has dimension d+1.
    """
    if d < 2:
        raise ValueError(f"manifold dimension must be >= 2, got {d}")
    if h_z.rank(0) != 1 or h_z.rank(d) != 1:
        raise ValueError(
            f"expected rank 1 in degrees 0 and {d}, got "
            f"{h_z.rank(0)} and {h_z.rank(d)}"
        )
    for deg in (0, 1, d):
        if h_z.torsion(deg):
            raise ValueError(f"torsion in degree {deg} not allowed")
    if h_z.min_degree < 0 or h_z.max_degree > d:
        raise ValueError(f"groups outside degrees 0..{d}")
    groups: dict[int, tuple[int, list[int]]] = {}
    for k in range(0, d + 2):
        rank = h_z.rank(k) + h_z.rank(k - 1)
        torsion = list(h_z.torsion(k)) + list(h_z.torsion(k - 1))
        if k == 1:
            rank -= 1  # kill 1 (x) [S^1]
        if k == d:
            rank -= 1  # kill [Z] (x) 1
        if rank or torsion:
            groups[k] = (rank, torsion)
    return GradedGroups(groups)


def _sphere_product_sum_groups(m: int, n: int) -> GradedGroups:
    """Groups of # over j = 1..m-n of binom(m-n, j) copies of S^{j+2} x S^{m+n-j-1}.

    A connected sum of products of spheres, all of dimension m+n+1;
    torsion-free, rank 1 at the ends, binomial ranks in between.
    """
    if n < 1 or m <= n:
        raise ValueError(f"need m > n >= 1, got m={m}, n={n}")
    d = m + n + 1
    ranks: dict[int, int] = {0: 1, d: 1}
    for j in range(1, m - n + 1):
        c = comb(m - n, j)
        for k in (j + 2, m + n - j - 1):
            ranks[k] = ranks.get(k, 0) + c
    return GradedGroups.from_ranks(ranks)


def _connected_sum_groups(parts: Sequence[GradedGroups], d: int) -> GradedGroups:
    """Cohomology of a connected sum of closed orientable d-manifolds.

    Degrees 0 and d stay rank 1; strictly intermediate degrees add up.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("connected sum needs at least one part")
    if d < 2:
        raise ValueError(f"manifold dimension must be >= 2, got {d}")
    groups: dict[int, tuple[int, list[int]]] = {0: (1, []), d: (1, [])}
    for g in parts:
        if g.rank(0) != 1 or g.rank(d) != 1:
            raise ValueError(
                f"part is not a d={d} manifold group: ranks "
                f"{g.rank(0)} at 0, {g.rank(d)} at {d}"
            )
        if g.min_degree < 0 or g.max_degree > d:
            raise ValueError(f"part has groups outside degrees 0..{d}")
        for k in g.degrees():
            if 0 < k < d:
                rank, torsion = groups.get(k, (0, []))
                groups[k] = (rank + g.rank(k), torsion + list(g.torsion(k)))
    return GradedGroups(groups)


def _prediction(p: SimplePolytope, h_z: GradedGroups) -> GradedGroups:
    """The prediction from P's m and n and ``h_z``, the cohomology of Z(P)."""
    m, n = p.m, p.n
    w = _boundary_product_groups(h_z, m + n)
    spheres = _sphere_product_sum_groups(m, n)
    return _connected_sum_groups([w, spheres], m + n + 1)


@dataclass(frozen=True)
class TheoremReport:
    """Degree-by-degree comparison of computed vs predicted cut cohomology."""

    polytope: str
    vertex: int
    lhs: GradedGroups
    rhs: GradedGroups
    match: bool
    diff: tuple[tuple[int, tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]]], ...]

    def to_json_dict(self) -> dict:
        return {
            "polytope": self.polytope,
            "vertex": self.vertex,
            "lhs": self.lhs.to_json_dict(),
            "rhs": self.rhs.to_json_dict(),
            "match": self.match,
            "diff": {
                str(deg): {
                    "lhs": {"rank": lr, "torsion": list(lt)},
                    "rhs": {"rank": rr, "torsion": list(rt)},
                }
                for deg, (lr, lt), (rr, rt) in self.diff
            },
        }


def _compare(
    polytope: str, vertex: int, lhs: GradedGroups, rhs: GradedGroups
) -> TheoremReport:
    diff = []
    for deg in sorted(set(lhs.degrees()) | set(rhs.degrees())):
        left = (lhs.rank(deg), lhs.torsion(deg))
        right = (rhs.rank(deg), rhs.torsion(deg))
        if left != right:
            diff.append((deg, left, right))
    return TheoremReport(polytope, vertex, lhs, rhs, not diff, tuple(diff))


def _verify_cuts(
    p: SimplePolytope,
    cuts: Iterable[tuple[int, SimplePolytope]],
    workers: int,
    max_vertices: int,
    description: str | None,
) -> list[TheoremReport]:
    """One report per (vertex, cut) pair; the prediction depends on P alone.

    The cap is checked on both sums, P's m and each cut's m + 1, before
    either runs and before the first cut is taken from ``cuts``.

    P is summed first.  When every join factor of K_P passes the sphere
    certificate or is ∂Δ, which needs none, the cuts are summed without it,
    each cut factor taken to
    be a Z-homology sphere of its own dimension; otherwise every cut is
    certified afresh.  This holds because:

    - the dual of P_v is K_P with the facet σ_v stellarly subdivided (see
      ``SimplePolytope.cut_vertex``), and a subdivision keeps |K|;
    - H~(lk σ) is the local homology of |K| at the interior points of σ,
      shifted by |σ|, so the certificate (H~(lk σ) = H~(S^{d-|σ|}) for
      every face σ, ∅ included) is a property of |K|, and K_{P_v} passes
      when K_P does;
    - a factor A of a homology sphere A * B is lk(F) for any facet F of B,
      with lk_A(σ) = lk(σ ∪ F), so every factor of K_{P_v} passes, with the
      dimension of its own faces;
    - and K_P, the join of its certified factors, is a homology sphere,
      since lk(α ∪ β) = lk_A(α) * lk_B(β) and a join of homology spheres
      is one.
    """
    if description is None:
        description = f"simple {p.n}-polytope with {p.m} facets"
    for m in (p.m, p.m + 1):
        if m > max_vertices:
            raise SubsetLimitError(m, max_vertices)
    h_z, sphere = _cohomology(p, workers, max_vertices)
    rhs = _prediction(p, h_z)
    reports = []
    for v, cut in cuts:
        lhs, _ = _cohomology(cut, workers, max_vertices, sphere)
        reports.append(_compare(description, v, lhs, rhs))
    return reports


def verify_cut_theorem(
    p: SimplePolytope,
    v: int,
    *,
    workers: int = 1,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    description: str | None = None,
) -> TheoremReport:
    """Compare both sides of the cut decomposition for one vertex of P.

    The vertex is cut first, so a bad index fails before the subset cap.
    """
    cuts = [(v, p.cut_vertex(v))]
    return _verify_cuts(p, cuts, workers, max_vertices, description)[0]


def verify_all_cuts(
    p: SimplePolytope,
    *,
    workers: int = 1,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    description: str | None = None,
) -> list[TheoremReport]:
    """One report per vertex of P; the prediction is shared across vertices.

    The cuts are made one at a time, after the subset cap is checked.
    """
    cuts = ((v, p.cut_vertex(v)) for v in range(p.vertex_count))
    return _verify_cuts(p, cuts, workers, max_vertices, description)


def theorem_corpus() -> list[tuple[str, SimplePolytope]]:
    """The standard family of polytopes the cut decomposition is checked on.

    Polygons with 3..8 edges, simplices of dimension 2..4, the 3-cube, the
    triangular prism, and one iterated case: the hexagon obtained by cutting
    a pentagon vertex, fed back in as an input of its own.
    """
    corpus: list[tuple[str, SimplePolytope]] = []
    corpus.extend((f"polygon-{m}", polygon(m)) for m in range(3, 9))
    corpus.extend((f"simplex-{n}", simplex_polytope(n)) for n in range(2, 5))
    corpus.append(("cube-3", cube(3)))
    corpus.append(("prism", product(simplex_polytope(1), simplex_polytope(2))))
    corpus.append(("pentagon-cut-0", polygon(5).cut_vertex(0)))
    return corpus
