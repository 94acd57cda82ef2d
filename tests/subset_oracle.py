"""The per-subset route of the subset sum, kept as an oracle for the engine.

For every vertex subset J this takes K_J as the traces on J of the maximal
faces of K, lists its faces lexicographically from those, builds a dense
boundary matrix per degree, and takes the full Smith normal form of each
matrix.  The face lists, the restriction, the dense ``smith_normal_form``
and its ``IntegerMatrix`` are the oracle's own.  With the package it shares
only ``GradedGroups``, and the ``invariant_factors`` by which
``GradedGroups`` is normalised: no canonical form, no bitmask faces, no
sparse columns, no elimination.  Of a complex it reads only
``maximal_faces`` and ``vertex_count``.  ``sphere_dimension`` checks the
definition that the engine's sphere certificate decides, link by link,
with the same dense Smith forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from momentangle.homology import GradedGroups, invariant_factors


@dataclass(frozen=True)
class IntegerMatrix:
    """Dense integer matrix that keeps its shape even when degenerate."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be >= 0")
        ents = tuple(tuple(int(x) for x in row) for row in self.entries)
        if len(ents) != self.rows or any(len(r) != self.cols for r in ents):
            raise ValueError(
                f"entry grid does not match declared shape {self.rows}x{self.cols}"
            )
        object.__setattr__(self, "entries", ents)


def smith_normal_form(matrix: IntegerMatrix) -> tuple[tuple[int, ...], int]:
    """Diagonal of the Smith normal form and the rank.

    Returns ``(d, r)`` with d_1 | d_2 | ... | d_r, all positive, r = rank.
    Pivots are chosen by smallest absolute value, ties broken by (row, col)
    scan order, so the elimination is deterministic.  Exact int arithmetic
    throughout.
    """
    m, n = matrix.rows, matrix.cols
    a = [list(row) for row in matrix.entries]
    pivots: list[int] = []
    t = 0
    while t < m and t < n:
        best: tuple[int, int, int] | None = None
        for i in range(t, m):
            for j in range(t, n):
                v = a[i][j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, i, j = best
        a[t], a[i] = a[i], a[t]
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
        pivot = a[t][t]
        clean = True
        for r in range(t + 1, m):
            if a[r][t]:
                q = a[r][t] // pivot
                if q:
                    a[r] = [x - q * y for x, y in zip(a[r], a[t])]
                if a[r][t]:
                    clean = False  # remainder < |pivot| left; re-pick pivot
        for c in range(t + 1, n):
            if a[t][c]:
                q = a[t][c] // pivot
                if q:
                    for r in range(t, m):
                        a[r][c] -= q * a[r][t]
                if a[t][c]:
                    clean = False
        if not clean:
            continue
        pivots.append(abs(pivot))
        t += 1
    rank = len(pivots)
    chain = invariant_factors(pivots)
    return (1,) * (rank - len(chain)) + chain, rank


def _faces(generators, d: int) -> list[tuple[int, ...]]:
    """The d-faces of the complex these faces span, lexicographically."""
    return sorted({c for f in generators for c in combinations(f, d + 1)})


def boundary_matrix(k, d: int) -> IntegerMatrix:
    """Matrix of the boundary map C_d -> C_{d-1} in the augmented complex.

    Columns are the d-faces in lexicographic order, rows the (d-1)-faces,
    with degree -1 spanned by the empty face; so the d = 0 matrix is the
    augmentation row of ones.  Signs alternate along each face's vertices.
    """
    return _boundary_matrix(k.maximal_faces, d)


def _boundary_matrix(generators, d: int) -> IntegerMatrix:
    if d < 0:
        raise ValueError(f"boundary degree must be >= 0, got {d}")
    rows_f = _faces(generators, d - 1)
    cols_f = _faces(generators, d)
    index = {f: i for i, f in enumerate(rows_f)}
    grid = [[0] * len(cols_f) for _ in rows_f]
    for j, face in enumerate(cols_f):
        for pos in range(len(face)):
            sub = face[:pos] + face[pos + 1 :]
            grid[index[sub]][j] += -1 if pos % 2 else 1
    return IntegerMatrix(len(rows_f), len(cols_f), tuple(tuple(r) for r in grid))


def reduced_homology(k) -> GradedGroups:
    """Reduced integral homology from dense boundary matrices and full SNF."""
    return _reduced_homology(k.maximal_faces)


def _reduced_homology(generators) -> GradedGroups:
    """``reduced_homology`` of the complex spanned by these faces.

    With no vertex at all, void or {∅}, this is Z in degree -1.
    """
    top = max((len(f) for f in generators), default=0) - 1
    if top < 0:
        return GradedGroups({-1: (1, ())})
    counts = {-1: 1}
    counts.update({d: len(_faces(generators, d)) for d in range(top + 1)})
    bd_rank: dict[int, int] = {top + 1: 0}
    bd_torsion: dict[int, tuple[int, ...]] = {top + 1: ()}
    for d in range(top + 1):
        diagonal, rank = smith_normal_form(_boundary_matrix(generators, d))
        bd_rank[d] = rank
        bd_torsion[d] = tuple(x for x in diagonal if x > 1)
    groups: dict[int, tuple[int, tuple[int, ...]]] = {}
    for d in range(-1, top + 1):
        kernel = counts[d] - (bd_rank[d] if d >= 0 else 0)
        groups[d] = (kernel - bd_rank[d + 1], bd_torsion[d + 1])
    return GradedGroups(groups)


def sphere_dimension(k) -> int | None:
    """d if K is a Z-homology d-sphere on all of its m vertices, else None.

    d is one less than the size of K's largest face.  K passes when m > 0,
    every vertex is a face, and for every face σ, the empty face included,
    H~(lk σ) is a single Z in degree d - |σ|; lk σ is spanned by the
    maximal faces holding σ, with σ taken out.  The faces are tried from
    the largest down, so that most non-spheres fail on a small link.
    """
    generators = k.maximal_faces
    d = max((len(f) for f in generators), default=0) - 1
    if d < 0 or {v for f in generators for v in f} != set(range(k.vertex_count)):
        return None
    for size in range(d + 1, -1, -1):
        for sigma in _faces(generators, size - 1):
            link = [tuple(v for v in f if v not in sigma) for f in generators if set(sigma) <= set(f)]
            if _reduced_homology(link) != GradedGroups({d - size: (1, ())}):
                return None
    return d


def subset_homologies(k) -> dict[tuple[int, ...], GradedGroups]:
    """H~(K_J) for every vertex subset J, by size and then lexicographically.

    K_J is spanned by the traces f ∩ J of the maximal faces f of K; keeping
    the old labels changes neither the face order nor the signs.
    """
    return {
        J: _reduced_homology({tuple(v for v in f if v in J) for f in k.maximal_faces})
        for size in range(k.vertex_count + 1)
        for J in combinations(range(k.vertex_count), size)
    }


def reference_sum(homologies) -> tuple[GradedGroups, dict[tuple[int, int], int]]:
    """H*(Z_K) and its bigraded rank table from ``subset_homologies(k)``.

    Iterates subsets via itertools instead of bitmasks and assembles groups
    with none of the package's merging machinery.
    """
    groups: dict[int, tuple[int, list[int]]] = {}
    table: dict[tuple[int, int], int] = {}
    for J, h in homologies.items():
        size = len(J)
        for q in h.degrees():
            r, t = h.rank(q), h.torsion(q)
            if r:
                deg = q + size + 1
                old = groups.get(deg, (0, []))
                groups[deg] = (old[0] + r, old[1])
                table[(size, deg)] = table.get((size, deg), 0) + r
            if t:
                deg = q + size + 2
                old = groups.get(deg, (0, []))
                groups[deg] = (old[0], old[1] + list(t))
    return GradedGroups(groups), dict(sorted(table.items()))
